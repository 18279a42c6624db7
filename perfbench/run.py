"""gafnet benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload ecg200_train --seed 1 --seconds 30 --trace 0

Run from a gafnet checkout: the package is imported from `src/` beside this
directory. Each workload writes its inputs to files, then drives gafnet's
public API in the order `gafnet train` does: load, `pipeline.prepare_inputs`,
`optim.train`, `model.predict_probs`, `metrics.evaluate`,
`model.save_model` / `load_model`. It runs that whole round twice, then
again while the next one still fits in the time, and reports medians over
rounds, and sample rates over all rounds together, in reference seconds:
wall time scaled by a fixed reference kernel timed alongside (reference.py).
With `--trace 1` the same rounds run with every layer wrapped in spans and
the per-layer metrics, in wall seconds, are reported instead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. See README.md for the workloads and the metrics.
"""

import os

# BLAS threads are fixed before numpy loads. One thread: the GEMMs here are
# small, a second thread does not speed them up on a 2-CPU machine, and it
# makes timings noisier when the machine is shared.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

import oracles
import reference
import surrogates
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")

# The training inputs come from this fixed seed, so every run trains the
# same model and writes the same model.bin; --seed draws the evaluation
# inputs the trained model is timed and scored on.
ARCHIVE_SEED = 20250101
TRAIN_SEED = 0  # train.seed of gafnet's run config
# Samples on either side of a segment that scale it into reference seconds
# (reference.Speedometer.seconds): a set-up is short and sits among other
# set-ups, so only the two samples around it; the longer phases take the ten
# nearest, which damps the noise of single samples.
NEAR_SETUP, NEAR_ROUND = 1, 5
# Before the first round the set-up phase runs alone, for the setup_s median:
# for SETUP_SECONDS, and at least SETUP_MIN and at most SETUP_MAX times.
SETUP_SECONDS, SETUP_MIN, SETUP_MAX = 3.0, 3, 40
MIN_ROUNDS = 2  # then further rounds while the next one still fits
PREDICT_BATCH = 256  # model.predict_probs default
SAVE_LOAD_ROWS = 32  # rows re-predicted with the reloaded model
IMAGE_SAMPLE = 8  # GAF images per prepared set checked against the oracle


@dataclass(frozen=True)
class Workload:
    name: str
    index: int
    dataset: str  # "ucr" or "wfdb"
    n_train: int  # UCR train series, or beats in the training record
    n_eval: int  # UCR test series, or beats in the held-out record
    epochs: int
    batch_size: int
    eta0: float
    w: int = 0  # UCR series length
    classes: tuple = ()  # UCR class templates
    # Times each evaluation set is predicted per round, so that a round
    # holds about two seconds of prediction or more.
    predict_passes: int = 1

    def train_config(self, optim):
        return optim.TrainConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            seed=TRAIN_SEED,
            schedule=optim.ScheduleConfig(eta0=self.eta0),
        )


WFDB_WINDOW = 128  # beat window, as `preprocess.window = 128` in a run config
WFDB_SPLIT = 0.8

WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("ecg200_train", 0, "ucr", 100, 100, epochs=8, batch_size=16, eta0=0.001,
                 w=96, classes=surrogates.ECG200_CLASSES, predict_passes=10),
        Workload("ecg5000_eval", 1, "ucr", 200, 600, epochs=2, batch_size=8, eta0=0.003,
                 w=140, classes=surrogates.ECG5000_CLASSES),
        Workload("mitbih_beats", 2, "wfdb", 200, 256, epochs=3, batch_size=8, eta0=0.003, predict_passes=3),
    )
}


def import_gafnet():
    """Import gafnet from this checkout's src/, and from nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import gafnet
    from gafnet import config, data, dsp, gaf, metrics, model, ops, optim, pipeline

    if not os.path.abspath(gafnet.__file__).startswith(src + os.sep):
        raise ImportError(f"gafnet imported from {gafnet.__file__}, not from {src}")
    return dict(config=config, data=data, dsp=dsp, gaf=gaf, metrics=metrics, model=model,
                ops=ops, optim=optim, pipeline=pipeline)


# ---------------------------------------------------------------------------
# inputs


def make_inputs(wl, seed, run_dir):
    """Write the workload's input files; returns their paths plus what the
    benchmark itself wrote, for the output checks."""
    archive = np.random.default_rng(np.random.SeedSequence(ARCHIVE_SEED, spawn_key=(wl.index, 0)))
    drawn = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(wl.index, 1)))
    if wl.dataset == "ucr":
        train, test = os.path.join(run_dir, "TRAIN.tsv"), os.path.join(run_dir, "TEST.tsv")
        surrogates.write_ucr(train, *surrogates.ucr_split(archive, wl.classes, wl.n_train, wl.w))
        surrogates.write_ucr(test, *surrogates.ucr_split(drawn, wl.classes, wl.n_eval, wl.w))
        return {"train": train, "test": test}
    files = {}
    for tag, rng, n in (("train", archive, wl.n_train), ("test", drawn, wl.n_eval)):
        prefix = os.path.join(run_dir, tag)
        record = surrogates.mitbih_record(rng, n)
        surrogates.write_wfdb(prefix, *record)
        files[tag] = prefix
        files[tag + "_record"] = record
    return files


# ---------------------------------------------------------------------------
# one round


def setup(g, wl, files):
    """Load the data files and prepare model inputs, as `gafnet train` does.

    WFDB: the training record's beats are split 80/20 (stratified, seeded by
    train.seed) into train and a split test set; the held-out record is
    loaded as `gafnet eval` would. UCR series are not filtered; WFDB beats
    are bandpass-filtered one by one.
    """
    data, dsp, pipeline = g["data"], g["dsp"], g["pipeline"]
    extra = {}
    if wl.dataset == "ucr":
        train_ds = data.load_ucr(files["train"])
        eval_ds = [data.load_ucr(files["test"], split_tag="test")]
        pre = dsp.PreprocessConfig()
    else:
        pooled = data.concat_datasets([data.load_wfdb_record(files["train"], window=WFDB_WINDOW)])
        train_ds, split_test = data.stratified_split(pooled, WFDB_SPLIT, TRAIN_SEED)
        held_out = data.concat_datasets([data.load_wfdb_record(files["test"], window=WFDB_WINDOW)])
        eval_ds = [split_test, held_out]
        pre = dsp.PreprocessConfig(enable_filter=True)  # beats arrive windowed; each is filtered
        extra = {"pooled": pooled, "train_ds": train_ds, "split_test": split_test, "held_out": held_out}
    model_cfg = g["config"].ModelSettings().to_model_config(train_ds.num_classes)
    train_in = pipeline.prepare_inputs(train_ds, pre, need_images=model_cfg.uses_spatial)
    eval_in = [pipeline.prepare_inputs(ds, pre, need_images=model_cfg.uses_spatial) for ds in eval_ds]
    return model_cfg, train_in, eval_in, extra


def inputs_digest(train_in, eval_in):
    return oracles.digest_arrays(*[a for s in [train_in, *eval_in] for a in (s.segs, s.imgs, s.labels)])


def run_round(g, wl, files, run_dir):
    """One pass through the workload, timed phase by phase from outside.

    Returns the phases' wall times and their (start, end) stamps, and the
    state the output checks need."""
    model, optim, metrics, pipeline = g["model"], g["optim"], g["metrics"], g["pipeline"]
    t0 = time.perf_counter()
    model_cfg, train_in, eval_in, extra = setup(g, wl, files)
    t1 = time.perf_counter()
    segs, imgs = pipeline.inputs_for_variant(train_in, model_cfg)
    result = optim.train(model_cfg, segs, imgs, train_in.labels, wl.train_config(optim))
    t2 = time.perf_counter()
    passes = []
    for inputs in eval_in:
        segs, imgs = pipeline.inputs_for_variant(inputs, model_cfg)
        passes.append([model.predict_probs(result.params, model_cfg, segs, imgs) for _ in range(wl.predict_passes)])
    t3 = time.perf_counter()
    probs = [p[0] for p in passes]
    reports = [metrics.evaluate(p, e.labels, model_cfg.num_classes) for p, e in zip(probs, eval_in)]
    t4 = time.perf_counter()
    path = os.path.join(run_dir, "model.bin")
    model.save_model(path, model_cfg, train_in.segs.shape[1], result.params)
    loaded = model.load_model(path)
    t5 = time.perf_counter()
    n_eval = sum(len(e.labels) for e in eval_in)
    times = {
        "setup_s": t1 - t0,
        "train_s": t2 - t1,
        "predict_s": t3 - t2,
        "evaluate_s": t4 - t3,
        "save_load_s": t5 - t4,
        "total_s": t5 - t0,
        "trained_samples": wl.epochs * len(train_in.labels),
        "predicted_samples": n_eval * wl.predict_passes,
        "stamps": {"setup": (t0, t1), "train": (t1, t2), "predict": (t2, t3), "rest": (t3, t5)},
    }
    passes_identical = all(np.array_equal(p, ps[0]) for ps in passes for p in ps[1:])
    state = dict(model_cfg=model_cfg, train_in=train_in, eval_in=eval_in, extra=extra, result=result,
                 probs=probs, passes_identical=passes_identical, reports=reports, loaded=loaded, model_path=path)
    return times, state


def expected_steps(labels, train_cfg):
    """Training steps `optim.train` takes: epochs × batches over the part of
    the training set left after its stratified 10% validation slice."""
    n_fit = 0
    for c in np.unique(labels):
        size = int(np.count_nonzero(labels == c))
        keep = 1.0 - train_cfg.val_fraction
        n_fit += 1 if size == 1 else min(max(int(round(keep * size)), 1), size - 1)
    return train_cfg.epochs * math.ceil(n_fit / train_cfg.batch_size)


def round_checks(g, wl, files, state, digest, sha):
    """Every output check of one round, as (name, passed) pairs."""
    model = g["model"]
    checks = []
    check_rng = np.random.default_rng(0)
    for inputs in [state["train_in"], *state["eval_in"]]:
        rows = check_rng.choice(len(inputs.labels), size=min(IMAGE_SAMPLE, len(inputs.labels)), replace=False)
        checks += oracles.check_segments(inputs.segs)
        checks += oracles.check_images(inputs.segs, inputs.imgs, rows)
    n_classes = state["model_cfg"].num_classes
    for probs, inputs, report in zip(state["probs"], state["eval_in"], state["reports"]):
        checks += oracles.check_probs(probs, len(inputs.labels), n_classes)
        checks += oracles.check_report(report, probs, inputs.labels, n_classes)
    checks.append(("predict_passes_identical", state["passes_identical"]))
    scored = state["eval_in"][-1]
    checks += oracles.check_learned(state["reports"][-1].accuracy, scored.labels, state["result"].history)

    params, (loaded_cfg, _, loaded_params) = state["result"].params, state["loaded"]
    checks += oracles.check_same_params(params, loaded_params)
    segs, imgs = scored.segs[:SAVE_LOAD_ROWS], scored.imgs[:SAVE_LOAD_ROWS]
    before = model.predict_probs(params, state["model_cfg"], segs, imgs)
    after = model.predict_probs(loaded_params, loaded_cfg, segs, imgs)
    checks.append(("load_model_probs_identical", bool(np.array_equal(before, after))))

    if wl.dataset == "wfdb":
        data, extra = g["data"], state["extra"]
        vocab = list(surrogates.MITBIH_VOCABULARY)
        for tag, ds in (("train", extra["pooled"]), ("test", extra["held_out"])):
            adu, peaks, codes = files[tag + "_record"]
            with open(files[tag] + ".hea") as f:
                header = data.parse_wfdb_header(f.read())
            with open(files[tag] + ".dat", "rb") as f:
                signals = data.parse_wfdb_212(f.read(), header)
            checks += oracles.check_decoded(signals, adu, surrogates.MITBIH_GAIN)
            rows, labels = oracles.expected_beats(adu, surrogates.MITBIH_GAIN, peaks, codes, vocab, WFDB_WINDOW)
            checks += oracles.check_beats(ds, rows, labels)
        checks += oracles.check_split(extra["pooled"], extra["train_ds"], extra["split_test"], WFDB_SPLIT)

    current = inputs_digest(state["train_in"], state["eval_in"])
    checks.append(("inputs_deterministic", current == digest))
    checks.append(("model_bin_deterministic", oracles.sha256_file(state["model_path"]) == sha))
    return checks


# ---------------------------------------------------------------------------
# the run


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run(wl, seed, seconds, trace, run_dir):
    g = import_gafnet()
    files = make_inputs(wl, seed, run_dir)
    tracer = tracing.Tracer(g)
    if trace:
        tracer.install()
    # An untraced run samples the reference kernel throughout and reports
    # its timings in reference seconds; see reference.py.
    speed = None if trace else reference.Speedometer()
    if speed:
        speed.install(g["model"])
    attempted = failed = 0
    bad_checks = []

    def count(checks):
        nonlocal attempted, failed
        attempted += len(checks)
        for name, ok in checks:
            if not ok:
                failed += 1
                bad_checks.append(name)

    start = time.perf_counter()
    deadline = start + seconds
    setup_stamps = []
    digest = None
    while len(setup_stamps) < SETUP_MIN or (
        len(setup_stamps) < SETUP_MAX and time.perf_counter() - start < SETUP_SECONDS
    ):
        if speed:
            speed.maybe_sample()
        t0 = time.perf_counter()
        _, train_in, eval_in, _ = setup(g, wl, files)
        setup_stamps.append((t0, time.perf_counter()))
        current = inputs_digest(train_in, eval_in)
        digest = digest or current
        count([("inputs_deterministic", current == digest)])
        del train_in, eval_in

    rounds, sha, traced_rounds = [], None, []
    while True:
        tracer.round = len(rounds)
        tracer.active = bool(trace)
        span = tracer.open(tracing.ROUND_SPAN) if trace else None
        round_start = time.perf_counter()
        if speed:
            speed.maybe_sample()
        try:
            # A round that raises ends the run without a result: its
            # operations cannot be counted like those of a whole round.
            times, state = run_round(g, wl, files, run_dir)
        finally:
            if span is not None:
                tracer.close(span)
            tracer.active = False
        sha = sha or oracles.sha256_file(state["model_path"])
        steps = expected_steps(state["train_in"].labels, wl.train_config(g["optim"]))
        batches = wl.predict_passes * sum(math.ceil(len(e.labels) / PREDICT_BATCH) for e in state["eval_in"])
        attempted += steps + batches
        count(round_checks(g, wl, files, state, digest, sha))
        if trace:
            traced_steps = tracer.tallies[(tracer.round, "optim.steps")]
            count([("traced_steps_match", traced_steps == steps)])
            traced_rounds.append(tracer.round)
        times["accuracy"] = state["reports"][-1].accuracy
        setup_stamps.append(times["stamps"]["setup"])
        rounds.append(times)
        del state
        took = time.perf_counter() - round_start
        print(f"round {len(rounds)}: total {times['total_s']:.3f}s, with checks {took:.3f}s", file=sys.stderr)
        if len(rounds) >= MIN_ROUNDS and time.perf_counter() + took > deadline:
            break
    tracer.uninstall()
    if speed:
        speed.uninstall()
        speed.close()

    if trace:
        metrics = tracer.layer_metrics(traced_rounds)
        tracer.write(os.path.join(run_dir, "spans.jsonl"))
    else:
        setup_s = [speed.seconds(*stamps, NEAR_SETUP) for stamps in setup_stamps]
        train_s = [speed.seconds(*r["stamps"]["train"], NEAR_ROUND) for r in rounds]
        predict_s = [speed.seconds(*r["stamps"]["predict"], NEAR_ROUND) for r in rounds]
        round_s = [speed.seconds(r["stamps"]["setup"][0], r["stamps"]["rest"][1], NEAR_ROUND) for r in rounds]
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "train_samples_per_s": (sum(r["trained_samples"] for r in rounds) / sum(train_s), "samples/s"),
            "predict_samples_per_s": (sum(r["predicted_samples"] for r in rounds) / sum(predict_s), "samples/s"),
            "total_s": (statistics.median(round_s), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "test_accuracy": (statistics.median(r["accuracy"] for r in rounds), "fraction"),
        }
    summary = {
        "workload": wl.name, "seed": seed, "trace": trace, "rounds": rounds,
        "model_sha256": sha, "failed_checks": bad_checks, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "setup_stamps": setup_stamps, "reference_samples": speed.samples if speed else None,
        "reference_segments": speed.segments if speed else None,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    with open(os.path.join(run_dir, "summary.json"), "w") as f:
        json.dump(summary, f, indent=1)
    print(f"model_sha256 {sha}")
    if bad_checks:
        print("failed checks: " + ", ".join(sorted(set(bad_checks))), file=sys.stderr)
    return {
        "correct": not bad_checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time; whole rounds only")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    run_dir = os.path.join(OUT_DIR, f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        result = run(wl, args.seed, args.seconds, args.trace, run_dir)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        for name in os.listdir(run_dir):
            if name not in ("summary.json", "spans.jsonl"):
                os.remove(os.path.join(run_dir, name))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
