"""Span tracing of gafnet's layers from outside the package.

`Tracer.install()` replaces public functions of the gafnet modules with
wrappers that record a span per call: name, start, end and parent span.
This works without touching `src/` because gafnet's modules call each other
through module attributes (`ops.conv2d_forward`, `model_mod.forward`, ...)
or module globals (`adam_step` inside `optim.train`), both looked up at
call time. `uninstall()` puts the originals back.

A layer's self time is its span's duration minus the durations of its
child spans; calls run on one thread, so children never overlap.
"""

import json
import time
from collections import defaultdict

# (module name, function name, layer it counts towards)
WRAPPED = (
    ("data", "load_ucr", "data.load_ucr"),
    ("data", "parse_wfdb_212", "data.parse_wfdb_212"),
    ("data", "parse_wfdb_annotations", "data.parse_wfdb_annotations"),
    ("data", "extract_beats", "data.extract_beats"),
    ("data", "stratified_split", "data.stratified_split"),
    ("dsp", "preprocess", "dsp.preprocess"),
    ("dsp", "design_butterworth", "dsp.design_butterworth"),
    ("dsp", "apply_filter", "dsp.apply_filter"),
    ("gaf", "gaf_transform", "gaf.gaf_transform"),
    ("pipeline", "prepare_inputs", "pipeline.prepare_inputs"),
    ("ops", "conv2d_forward", "ops.conv2d_forward"),
    ("ops", "conv2d_backward", "ops.conv2d_backward"),
    ("ops", "conv1d_forward", "ops.conv1d_forward"),
    ("ops", "conv1d_backward", "ops.conv1d_backward"),
    ("ops", "bilstm_forward", "ops.bilstm_forward"),
    ("ops", "bilstm_backward", "ops.bilstm_backward"),
    ("ops", "relu_forward", "ops.relu"),
    ("ops", "relu_backward", "ops.relu"),
    ("ops", "linear_forward", "ops.linear"),
    ("ops", "linear_backward", "ops.linear"),
    ("ops", "layer_norm_forward", "ops.layer_norm"),
    ("ops", "layer_norm_backward", "ops.layer_norm"),
    ("ops", "softmax_forward", "ops.softmax"),
    ("ops", "softmax_backward", "ops.softmax"),
    ("model", "forward", "model.forward"),
    ("model", "backward", "model.backward"),
    ("model", "predict_probs", "model.predict_probs"),
    ("model", "save_model", "model.save_model"),
    ("model", "load_model", "model.load_model"),
    ("optim", "train", "optim.train"),
    ("optim", "adam_step", "optim.adam_step"),
    ("optim", "cross_entropy", "optim.cross_entropy"),
    ("metrics", "evaluate", "metrics.evaluate"),
)

ROUND_SPAN = "workload.round"

# Per-layer metrics: self seconds of each layer, then counts and sizes.
TIME_LAYERS = sorted({layer for _, _, layer in WRAPPED})
COUNTS = (
    ("dsp.design_butterworth_calls", "count"),
    ("gaf.gaf_transform_calls", "count"),
    ("optim.steps", "count"),
    ("ops.conv2d_gflop", "GFLOP"),
    ("pipeline.inputs_mb", "MB"),
)


def _conv2d_flop(result, args):
    """2·B·cout·cin·k²·ho·wo of one conv2d_forward call, from its shapes."""
    y = result[0]
    cout, cin, k, _ = args[1].shape
    bsz = y.shape[0] if y.ndim == 4 else 1
    return 2.0 * bsz * cout * cin * k * k * y.shape[-2] * y.shape[-1]


def _inputs_mb(result, args):
    arrays = (result.segs, result.imgs, result.labels)
    return sum(a.nbytes for a in arrays if a is not None) / 2**20


# layer -> (count metric, amount of one call from (result, args))
_TALLIES = {
    "dsp.design_butterworth": ("dsp.design_butterworth_calls", lambda r, a: 1),
    "gaf.gaf_transform": ("gaf.gaf_transform_calls", lambda r, a: 1),
    "optim.adam_step": ("optim.steps", lambda r, a: 1),
    "ops.conv2d_forward": ("ops.conv2d_gflop", lambda r, a: _conv2d_flop(r, a) / 1e9),
    "pipeline.prepare_inputs": ("pipeline.inputs_mb", _inputs_mb),
}


class Tracer:
    """Records spans in memory while `active`; writes them out on request."""

    def __init__(self, modules):
        self.modules = modules  # name -> imported gafnet module
        self.spans = []  # [id, name, start, end, parent, round]
        self.tallies = defaultdict(float)  # (round, metric) -> amount
        self.active = False
        self.round = 0
        self._stack = []
        self._originals = []

    def install(self):
        for mod_name, fn_name, layer in WRAPPED:
            module = self.modules[mod_name]
            original = getattr(module, fn_name)
            self._originals.append((module, fn_name, original))
            setattr(module, fn_name, self._wrap(original, layer))

    def uninstall(self):
        for module, fn_name, original in reversed(self._originals):
            setattr(module, fn_name, original)
        self._originals.clear()

    def _wrap(self, fn, layer):
        tally = _TALLIES.get(layer)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if tally is not None:
                self.tallies[(self.round, tally[0])] += tally[1](result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def open(self, name):
        parent = self._stack[-1][0] if self._stack else None
        span = [len(self.spans), name, time.perf_counter(), None, parent, self.round]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span[3] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span[1]} closed out of order")

    def self_times(self):
        """Self seconds per (round, span name)."""
        child_time = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(float)
        for sid, name, start, end, _, rnd in self.spans:
            out[(rnd, name)] += end - start - child_time[sid]
        return out

    def layer_metrics(self, rounds):
        """Per-layer metrics averaged over `rounds` whole rounds.

        Besides every layer's self seconds and the counts, reports the
        traced round's wall time and the part of it no layer span covers
        (the benchmark's own glue plus gafnet code between wrapped calls).
        """
        selfs = self.self_times()
        metrics = {}
        for layer in TIME_LAYERS:
            metrics[layer + "_s"] = (sum(selfs[(r, layer)] for r in rounds) / len(rounds), "s")
        for name, unit in COUNTS:
            metrics[name] = (sum(self.tallies[(r, name)] for r in rounds) / len(rounds), unit)
        round_wall = [end - start for _, name, start, end, _, rnd in self.spans if name == ROUND_SPAN and rnd in rounds]
        metrics["trace.round_s"] = (sum(round_wall) / len(rounds), "s")
        metrics["trace.untraced_s"] = (sum(selfs[(r, ROUND_SPAN)] for r in rounds) / len(rounds), "s")
        return metrics

    def write(self, path):
        with open(path, "w") as f:
            for sid, name, start, end, parent, rnd in self.spans:
                f.write(json.dumps({"id": sid, "name": name, "start": start, "end": end, "parent": parent, "round": rnd}) + "\n")
