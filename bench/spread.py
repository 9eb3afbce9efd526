"""Run the benchmark over several seeds and report run-to-run spread.

Usage (from the repository root):

    python3 bench/spread.py --seeds 1-10 [--workloads wmf-sweep ...] [--out FILE]

For each workload and end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median, next to the metric's bound from
BENCHMARK.json.  With --out it writes these numbers, the raw values, the
interpreter version, the git commit and the CPU count as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, args.seconds))
            values = {k: v["value"] for k, v in runs[-1]["metrics"].items()}
            print(f"{workload} seed {seed}: correct={runs[-1]['correct']} "
                  f"failed={runs[-1]['failed']}/{runs[-1]['attempted']} "
                  + " ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)
        rows = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            rows[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                            "bound": bound, "values": values}
            flag = "ok" if spread < bound / 3 else ("WIDE" if spread > bound else "near")
            print(f"  {workload:12s} {metric:12s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g}"
                  f" spread {spread:.4f} bound {bound} {flag}", flush=True)
        summary[workload] = {
            "seeds": args.seeds,
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": rows,
        }
    if args.out:
        doc = {
            "python": platform.python_version(),
            "git_sha": git_sha(),
            "nproc": os.cpu_count(),
            "run_seconds": args.seconds,
            "workloads": summary,
        }
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
