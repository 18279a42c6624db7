"""Record the benchmark of one or more checkouts into a BENCH_<pr>.json file.

    python3 tools/bench_record.py --pr N --checkout parent=../parent --checkout change=. \
        --workload ecg5000_eval --seeds 2101-2110

For each workload and seed it runs every checkout's `perfbench/run.py` once,
untraced, one process at a time, from that checkout's root and for the
`run_seconds` of its BENCHMARK.json, as `perfbench/spread.py` does. The
checkouts take turns in alternating order (A B, then B A for the next
seed), so each seed is one pair of runs under the same machine drift. Then
the checkouts take turns the same way at traced runs (`--trace 1`) on the
first `TRACED_SEEDS` seeds.

Written per checkout and workload: every run's metrics and model.bin
sha256; the median and quartiles (`statistics.quantiles(values, n=4)`) of
each end-to-end metric; the traced runs' per-layer metrics and their
medians; the distinct model.bin digests, traced and untraced. With two or
more checkouts, each later one is compared with the first: per end-to-end
metric, how many seed pairs it won, and the medians against the first's
quartile spread; per layer, the change in median seconds and the change in
its median share of its traced run's round (`trace.round_s`). Machine drift
between the checkouts' traced runs moves every layer's seconds at once but
leaves the shares as they were, so a change in share is the layer's own.
The file also records the Python, numpy, BLAS and CPU it ran on. An
existing file is updated: a (checkout, workload) pair recorded again
replaces the old one, so several calls can add workloads on their own seed
sets. Exits 1 if a run fails.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACED_SEEDS = 3  # a single traced run drifts by about as much as a layer's change


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{checkout}: {workload} seed {seed} trace {trace}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    sha = next((l.split()[1] for l in lines if l.startswith("model_sha256 ")), None)
    result = json.loads(lines[-1])
    return {"seed": seed, "model_sha256": sha, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def quartiles(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs, benchmark):
    """Median and quartiles of each end-to-end metric over the runs."""
    return {m["name"]: quartiles([r["metrics"][m["name"]] for r in runs]) for m in benchmark["end_to_end"]}


def layer_shares(traced):
    """Per layer timed in seconds: the median over the traced runs of its
    share of that run's round, `trace.round_s`."""
    return {name: statistics.median(r["metrics"][name] / r["metrics"]["trace.round_s"] for r in traced)
            for name in traced[0]["metrics"] if name.endswith("_s") and name != "trace.round_s"}


def compare(base, other, benchmark):
    """Per end-to-end metric: seed pairs `other` won against `base`, and its
    median's distance from base's median against base's quartile spread.
    Per layer: `other`'s traced median minus base's, in seconds, and its
    median share of the round minus base's."""
    by_seed = {r["seed"]: r for r in base["runs"]}
    out = {"per_layer_s": {name: round(other["traced_median"][name] - value, 4)
                           for name, value in base["traced_median"].items() if name.endswith("_s")},
           "per_layer_share": {name: round(other["traced_share_median"][name] - value, 5)
                               for name, value in base["traced_share_median"].items()}}
    for m in benchmark["end_to_end"]:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        pairs = [(by_seed[r["seed"]]["metrics"][name], r["metrics"][name]) for r in other["runs"] if r["seed"] in by_seed]
        b, o = base["summary"][name], other["summary"][name]
        out[name] = {
            "pairs": len(pairs),
            "won": sum(sign * (new - old) > 0 for old, new in pairs),
            "median_change": round((o["median"] - b["median"]) / b["median"], 5) if b["median"] else None,
            "beyond_base_quartiles": sign * (o["median"] - b["median"]) > b["q3"] - b["q1"],
        }
    return out


def environment():
    import numpy as np

    cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo") if line.startswith("model name")),
               platform.processor()) if os.path.exists("/proc/cpuinfo") else platform.processor()
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
            "cpu": cpu, "cpu_count": os.cpu_count(), "platform": platform.platform()}


def git_rev(checkout):
    """The commit a checkout holds: in a `git archive` export, which is not a
    repository, the commit that export-subst (see .gitattributes) stamped
    into `.git_archival.txt`; in a working tree, whose stamp still reads
    `$Format:%H$`, `git describe`. None if neither answers."""
    try:
        with open(os.path.join(checkout, ".git_archival.txt")) as f:
            node = next((line.split(":", 1)[1].strip() for line in f if line.startswith("node:")), "")
    except OSError:
        node = ""
    if node and "$Format" not in node:
        return node
    proc = subprocess.run(["git", "-C", checkout, "describe", "--always", "--dirty", "--abbrev=12"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--pr", required=True, help="names the output file BENCH_<pr>.json at the repo root")
    parser.add_argument("--checkout", action="append", required=True, metavar="NAME=PATH",
                        help="a checkout to run, by name; repeat it to compare against the first")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-5"), help="first-last, as 1-5")
    args = parser.parse_args()
    checkouts = dict(c.split("=", 1) for c in args.checkout)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    seconds = {}
    for name, checkout in checkouts.items():
        with open(os.path.join(checkout, "BENCHMARK.json")) as f:
            seconds[name] = json.load(f)["run_seconds"]
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    record = {"pr": args.pr, "records": {}, "comparisons": {}}
    if os.path.exists(path):
        with open(path) as f:
            record = json.load(f)
    record["environment"] = environment()

    for workload in args.workload:
        runs = {name: [] for name in checkouts}
        traced = {name: [] for name in checkouts}
        plan = [(seed, 0) for seed in args.seeds] + [(seed, 1) for seed in args.seeds[:TRACED_SEEDS]]
        for i, (seed, trace) in enumerate(plan):
            for name in (list(checkouts) if i % 2 == 0 else list(checkouts)[::-1]):
                run = run_once(checkouts[name], workload, seed, seconds[name], trace)
                (traced if trace else runs)[name].append(run)
                vals = " ".join(f"{k}={v:.5g}" for k, v in run["metrics"].items() if not trace)
                print(f"{workload} seed {seed} trace {trace} {name}: correct={run['correct']} {vals}", flush=True)
        for name in checkouts:
            entry = {
                "seeds": args.seeds,
                "runs": runs[name],
                "summary": summarize(runs[name], benchmark),
                "model_sha256": sorted({r["model_sha256"] for r in runs[name] + traced[name]}),
                "failed_share": max(r["failed"] / r["attempted"] for r in runs[name] + traced[name]),
                "all_correct": all(r["correct"] for r in runs[name] + traced[name]),
                "traced": traced[name],
                "traced_median": {k: statistics.median(r["metrics"][k] for r in traced[name])
                                  for k in traced[name][0]["metrics"]},
                "traced_share_median": layer_shares(traced[name]),
            }
            rec = record["records"].setdefault(name, {"workloads": {}})
            rec["rev"] = git_rev(checkouts[name])
            rec["workloads"][workload] = entry
        base, *others = checkouts
        for name in others:
            key = f"{name} vs {base}"
            record["comparisons"].setdefault(key, {})[workload] = compare(
                record["records"][base]["workloads"][workload], record["records"][name]["workloads"][workload],
                benchmark)
            for metric, c in record["comparisons"][key][workload].items():
                if metric == "per_layer_s":
                    print(f"{workload} {key} per-layer seconds: {c}")
                elif metric == "per_layer_share":
                    print(f"{workload} {key} per-layer share of the round: {c}")
                else:
                    print(f"{workload} {key} {metric}: won {c['won']}/{c['pairs']}, median change "
                          f"{c['median_change']}, beyond base quartiles: {c['beyond_base_quartiles']}")
    record["updated"] = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
