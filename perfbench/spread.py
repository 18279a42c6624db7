"""Run the benchmark on several seeds and report how much each metric spreads.

    python3 perfbench/spread.py --workload ecg200_train --seeds 1-10

Runs `perfbench/run.py` once per seed, one process at a time, from the
checkout root, each for the `run_seconds` of BENCHMARK.json. For every
metric it prints the median over seeds and the spread: the distance
between the first and third quartile (`statistics.quantiles(values, n=4)`)
as a share of the median. It also prints the failed share of operations
and the distinct model.bin sha256 digests, which must be one per workload.
Exits 1 if a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    sha = next((l.split()[1] for l in lines if l.startswith("model_sha256 ")), None)
    return json.loads(lines[-1]), sha


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last, as 1-10")
    args = parser.parse_args()
    lo, hi = (int(v) for v in args.seeds.split("-"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]

    runs = []
    for seed in range(lo, hi + 1):
        result, sha = run_once(args.workload, seed, seconds)
        runs.append({"seed": seed, "sha256": sha, **result})
        vals = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {vals}", flush=True)

    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        dispersion = spread(values) if len(values) > 1 else 0.0
        print(f"{name:32s} median {statistics.median(values):12.6g}  spread {dispersion:.4f}")
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    shas = sorted({r["sha256"] for r in runs})
    print(f"failed share per run: {shares}; correct in every run: {all(r['correct'] for r in runs)}")
    print(f"model.bin sha256 digests: {shas}")


if __name__ == "__main__":
    main()
