"""Fast self-check of the benchmark harness and its oracles, at tiny sizes.

    python3 perfbench/selfcheck.py

Takes well under a minute. It checks that:
- the oracles accept correct outputs and reject corrupted ones;
- the format-212 packer and the annotation encoder round-trip through
  gafnet's decoders;
- one tiny round of every workload runs and passes its output checks;
- a traced tiny round reports every per-layer metric, its self times add
  up to the round's wall time, and the wrappers are removed afterwards;
- the speedometer samples inside a tiny round, converts wall time into
  reference seconds segment by segment, leaves its own samples out, and
  unhooks `model.forward` afterwards;
- run.py exits non-zero, without a result line, when `src/` is missing.
Exits 1 if any check fails.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace

import numpy as np

import oracles
import reference
import run
import surrogates
import tracing

FAILURES = []


def expect(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    if not ok:
        FAILURES.append(name)


def all_pass(checks):
    return all(ok for _, ok in checks)


def check_oracles(g):
    gaf, metrics, data = g["gaf"], g["metrics"], g["data"]
    rng = np.random.default_rng(0)
    seg = rng.standard_normal(40)
    phi = np.arccos(np.clip(2 * (seg - seg.min()) / np.ptp(seg) - 1, -1, 1))
    expect("rank-2 GAF equals cos(φj + φk)", np.allclose(oracles.rank2_gaf(seg), np.cos(phi[:, None] + phi[None, :]), atol=1e-12))
    segs = np.stack([(s - s.mean()) / s.std() for s in rng.standard_normal((4, 40))])
    imgs = np.stack([gaf.gaf_transform(s) for s in segs]).astype(np.float32)
    expect("image oracle accepts gafnet images", all_pass(oracles.check_images(segs, imgs, range(4))))
    bad = imgs.copy()
    bad[1, 3, 5] += 1e-3
    expect("image oracle rejects a perturbed pixel", not all_pass(oracles.check_images(segs, bad, range(4))))
    expect("segment oracle rejects an unscaled row", not all_pass(oracles.check_segments(segs * 1.01)))

    probs = rng.dirichlet(np.ones(3), size=30)
    labels = np.arange(30) % 3
    expect("probability oracle accepts softmax rows", all_pass(oracles.check_probs(probs, 30, 3)))
    expect("probability oracle rejects a row summing to 1.1", not all_pass(oracles.check_probs(probs * 1.1, 30, 3)))
    report = metrics.evaluate(probs, labels, 3)
    expect("report oracle agrees with metrics.evaluate", all_pass(oracles.check_report(report, probs, labels, 3)))
    wrong = replace(report, macro_auc=report.macro_auc + 0.01)
    expect("report oracle rejects a shifted AUC", not all_pass(oracles.check_report(wrong, probs, labels, 3)))
    expect("pairwise AUC of a known ranking",
           oracles.pairwise_auc(np.array([0.1, 0.4, 0.4, 0.9]), np.array([False, True, False, True])) == 0.875)

    adu, peaks, codes = surrogates.mitbih_record(rng, 12)
    header = data.parse_wfdb_header(surrogates.wfdb_header("r", adu.shape[0]))
    signals = data.parse_wfdb_212(surrogates.pack_212(adu), header)
    expect("212 packer round-trips through gafnet", all_pass(oracles.check_decoded(signals, adu, surrogates.MITBIH_GAIN)))
    extremes = np.array([[2047, -2048], [-1, 0]])
    decoded = data.parse_wfdb_212(surrogates.pack_212(extremes), replace(header, n_samples=2))
    expect("212 packer keeps 12-bit extremes", np.array_equal(np.stack([s.samples for s in decoded], 1) * surrogates.MITBIH_GAIN, extremes))
    anns = data.parse_wfdb_annotations(surrogates.encode_annotations(peaks, codes))
    beats = [(a.sample_index, a.type_code) for a in anns if a.type_code != surrogates.RHYTHM_CODE]
    expect("annotation encoder round-trips through gafnet", beats == list(zip(peaks.tolist(), codes.tolist())))
    expect("annotation stream starts with a SKIP", surrogates.encode_annotations(peaks, codes)[1] >> 2 == 59)


TINY = {
    "ecg200_train": dict(n_train=24, n_eval=10, epochs=2, w=32),
    "ecg5000_eval": dict(n_train=30, n_eval=20, epochs=2, w=32),
    "mitbih_beats": dict(n_train=30, n_eval=12, epochs=2),
}
# Tiny runs cannot learn; their accuracy and loss checks are reported, not required.
LEARNING_CHECKS = {"accuracy_above_chance", "training_loss_falls"}


def check_rounds(g, work_dir):
    for name, sizes in TINY.items():
        wl = replace(run.WORKLOADS[name], **sizes)
        run_dir = os.path.join(work_dir, name)
        os.makedirs(run_dir)
        files = run.make_inputs(wl, 7, run_dir)
        times, state = run.run_round(g, wl, files, run_dir)
        digest = run.inputs_digest(state["train_in"], state["eval_in"])
        sha = oracles.sha256_file(state["model_path"])
        checks = run.round_checks(g, wl, files, state, digest, sha)
        failed = [n for n, ok in checks if not ok and n not in LEARNING_CHECKS]
        expect(f"tiny {name} round passes {len(checks)} checks" + (f" (failed: {failed})" if failed else ""), not failed)
        expect(f"tiny {name} phase times add up", abs(sum(times[k] for k in
               ("setup_s", "train_s", "predict_s", "evaluate_s", "save_load_s")) - times["total_s"]) < 1e-9)
        _, state2 = run.run_round(g, wl, files, run_dir)
        expect(f"tiny {name} model.bin is the same in a second round", oracles.sha256_file(state2["model_path"]) == sha)


def check_tracer(g, work_dir):
    originals = {(m, f): getattr(g[m], f) for m, f, _ in tracing.WRAPPED}
    wl = replace(run.WORKLOADS["mitbih_beats"], **TINY["mitbih_beats"])
    run_dir = os.path.join(work_dir, "traced")
    os.makedirs(run_dir)
    files = run.make_inputs(wl, 7, run_dir)
    tracer = tracing.Tracer(g)
    tracer.install()
    try:
        tracer.active = True
        span = tracer.open(tracing.ROUND_SPAN)
        _, state = run.run_round(g, wl, files, run_dir)
        tracer.close(span)
        tracer.active = False
    finally:
        tracer.uninstall()
    expect("wrappers removed after the traced run",
           all(getattr(g[m], f) is fn for (m, f), fn in originals.items()))
    metrics = tracer.layer_metrics([0])
    wanted = [layer + "_s" for layer in tracing.TIME_LAYERS] + [n for n, _ in tracing.COUNTS]
    expect("traced run reports every per-layer metric", all(n in metrics for n in wanted))
    total_self = sum(tracer.self_times().values())
    expect("self times add up to the round's wall time", abs(total_self - metrics["trace.round_s"][0]) < 1e-6)
    steps = run.expected_steps(state["train_in"].labels, wl.train_config(g["optim"]))
    expect("traced optimizer steps equal the expected count", metrics["optim.steps"][0] == steps)


def check_speedometer(g, work_dir):
    speed = reference.Speedometer()
    speed.samples = [2.0, 2.0, 0.5]
    speed.segments = [(0.0, 1.0), (1.5, 2.5)]
    expect("reference seconds scale each segment by the median slowdown of the samples nearest to it",
           abs(speed.seconds(0.0, 3.0, 1) - 1.3) < 1e-12 and abs(speed.seconds(0.5, 2.0, 1) - 0.65) < 1e-12
           and abs(speed.seconds(0.0, 3.0, 2) - 1.0) < 1e-12 and speed.seconds(0.5, 2.0, 0) == 1.0)

    # A tiny round is shorter than the sampling interval: sample before
    # every forward instead.
    model, interval = g["model"], reference.INTERVAL_S
    original = model.forward
    reference.INTERVAL_S = 0.0
    speed = reference.Speedometer()
    speed.install(model)
    try:
        wl = replace(run.WORKLOADS["ecg200_train"], **TINY["ecg200_train"])
        run_dir = os.path.join(work_dir, "speed")
        os.makedirs(run_dir)
        times, _ = run.run_round(g, wl, run.make_inputs(wl, 7, run_dir), run_dir)
    finally:
        speed.uninstall()
        reference.INTERVAL_S = interval
    speed.close()
    expect("speedometer unhooks model.forward", model.forward is original)
    start, end = times["stamps"]["train"]
    inside = [seg[0] for seg in speed.segments[1:] if start < seg[0] < end]
    expect("speedometer samples inside training", len(inside) >= 1)
    segs = speed.segments
    gaps = [s2 - e1 for (_, e1), (s2, _) in zip(segs, segs[1:])]
    first, last = segs[0][0], segs[-1][1]
    expect("segments and samples tile the run without overlap",
           all(gap > 0 for gap in gaps) and abs(speed.seconds(first, last, 0) + sum(gaps) - (last - first)) < 1e-9)


def check_missing_src(work_dir):
    bare = os.path.join(work_dir, "bare")
    shutil.copytree(run.ROOT + os.sep + "perfbench", os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    if os.path.exists(os.path.join(run.ROOT, "BENCHMARK.json")):
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ecg200_train", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=120)
    expect("run.py fails without src/ and prints no result", proc.returncode != 0 and '"metrics"' not in proc.stdout)


def main():
    g = run.import_gafnet()
    os.makedirs(run.OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="selfcheck-", dir=run.OUT_DIR)
    try:
        check_oracles(g)
        check_rounds(g, work_dir)
        check_tracer(g, work_dir)
        check_speedometer(g, work_dir)
        check_missing_src(work_dir)
    finally:
        shutil.rmtree(work_dir)
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
