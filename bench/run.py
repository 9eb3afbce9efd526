"""thetacycles benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload wmf-sweep --seed 1 --seconds 30 --trace 0

Workloads: wmf-sweep, fiber-schur, cli-session (see workloads.py).  Each job
is one ``thetacycles.cli.run(argv)`` call.  Jobs run in a closed loop with a
single client: the next job is sent when the previous one has returned and
its output has been checked.  A pass runs the whole job list in a fresh
worker process, so memo tables start cold as they do for every CLI user;
passes repeat, one at a time, until the time given by --seconds is used, and
at least MIN_PASSES times (so a wmf-sweep run, about 12 s a pass, lasts
about 50 s).

With --trace 0 the last stdout line carries the end-to-end metrics.  The
shared 2-vCPU Xeon VM the baselines were measured on flips between a fast
and a slow state many times a second, and the share of slow time drifts
over minutes: the raw seconds of a job lasting seconds vary by a third
from run to run there.
Two rules take the host's state out of a job's latency:

- A long job, one whose median time over the passes is at least
  LONG_JOB_S, is timed in reference seconds: its seconds in a pass are
  scaled by PROBE_REF_S over the mean time of the speed probe's loop
  during it (see worker.SpeedProbe), which gives the time it would take
  where that loop takes PROBE_REF_S, as it does in that VM's fast state.
  Its latency is the median over the passes.
- A short job holds too few probe samples to be scaled, but it mostly runs
  in one state: its latency is its fastest pass.

- wall_s: time to run the job list once, the sum of the job latencies
- job_p50_s: median of the job latencies
- job_tail_s: latency at the highest percentile with at least ten samples
  beyond it, over every job run of every untraced pass, long jobs' runs in
  reference seconds (the percentile is fixed per workload by its job count
  and MIN_PASSES)
- peak_rss_mb: median over passes of the worker's peak resident memory
- setup_s: median over at least MIN_SETUPS fresh workers (the passes' and,
  when there are fewer passes, set-up-only ones) of the time a worker takes
  to import thetacycles and build the CLI's parser once, timed inside the
  worker, in seconds

The report also prints every timing in raw seconds, each job's fastest
pass.

With --trace 1, traced passes alternate with untraced ones, at least
MIN_TRACED of each, and the last line carries the per-layer metrics of
tracing.py plus trace.overhead_s, the traced minus the untraced sum of raw
job seconds per pass (medians over passes).  The
traced passes must give identical call counts and counters.

Every job's exit code and stdout are checked by checks.py, and each job's
stdout digest must be identical in every pass.  ``failed`` counts jobs that
raised an uncaught exception, exited with the wrong code or printed wrong
output; ``correct`` is false when any of them did, or a digest changed,
with one exception: a job marked ``expect_crash`` (the known crash inputs
of cli-session) that raised is a failed operation, not a wrong answer, so
it keeps ``failed`` above zero until the CLI routes it to exit 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

PROBE_REF_S = 180e-6  # the probe loop's time in the baseline VM's fast state
LONG_JOB_S = 0.1      # jobs this long are scaled by the speed probe
MIN_PASSES = 4        # untraced passes per run, whatever --seconds says
MIN_TRACED = 2        # traced passes per traced run, so their counts can differ
MIN_SETUPS = 12       # set-up samples per run: four give a spread of 0.17
TAIL_BEYOND = 10      # samples required beyond the tail percentile
PASS_TIMEOUT = 150.0  # a pass that takes longer is killed and the run fails


class BenchError(Exception):
    pass


class Worker:
    """A worker process for one pass; it reports its own set-up time."""

    def __init__(self, workdir: Path, trace: bool):
        env = dict(os.environ, PYTHONHASHSEED="0")
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), str(SRC), str(workdir), "1" if trace else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=str(workdir), env=env,
            text=True, encoding="utf-8",
        )
        self.watchdog = threading.Timer(PASS_TIMEOUT, self.proc.kill)
        self.watchdog.start()
        ready, _, setup_s = self.proc.stdout.readline().partition(" ")
        if ready != "ready":
            self.close()
            raise BenchError("worker failed to import thetacycles from src/")
        self.setup_s = float(setup_s)

    def request(self, line: str) -> dict:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError("worker died or timed out")
        return json.loads(reply)

    def close(self):
        self.watchdog.cancel()
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _prepare(job, workdir: Path):
    prep = job.get("prepare")
    if prep:
        doc = dict(prep["doc"])
        for key, saved in prep["refs"].items():
            doc[key] = json.loads((workdir / saved).read_text())
        (workdir / prep["path"]).write_text(json.dumps(doc))


def run_pass(jobs, workdir: Path, trace: bool) -> dict:
    """Run every job once in a fresh worker; check and time each one."""
    worker = Worker(workdir, trace)
    try:
        results = []
        for job in jobs:
            _prepare(job, workdir)
            reply = worker.request(json.dumps({"id": job["id"], "argv": job["argv"]}))
            stdout = workdir / "stdout.txt"
            data = stdout.read_bytes()
            if reply["exc"] is not None:
                error, raised = f"uncaught {reply['exc']}", True
            else:
                error, raised = checks.check_job(job, reply["code"], data.decode()), False
            if job.get("save"):
                os.replace(stdout, workdir / job["save"])
            results.append({"id": job["id"], "t": reply["t"], "probe_s": reply["probe_s"],
                            "error": error,
                            "known_crash": raised and job.get("expect_crash", False),
                            "digest": hashlib.sha256(data).hexdigest()})
        final = worker.request("")
    finally:
        worker.close()
    return {"setup_s": worker.setup_s, "jobs": results,
            "wall_s": sum(r["t"] for r in results),
            "peak_rss_mb": final["maxrss_kb"] / 1024, "trace": final.get("trace")}


def tail_percentile(n_jobs: int) -> float:
    """Highest percentile with TAIL_BEYOND samples beyond it in the fewest
    samples a run can have."""
    n = MIN_PASSES * n_jobs
    return max(50.0, math.floor(100 * (1 - TAIL_BEYOND / n)))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path):
    jobs, files = workloads.build(name, seed)
    for fname, text in files.items():
        (workdir / fname).write_text(text)
    passes = []
    start = time.perf_counter()
    durations = []
    need = 2 * MIN_TRACED if trace else MIN_PASSES
    while len(passes) < need or (
            time.perf_counter() - start + statistics.median(durations) <= seconds):
        t0 = time.perf_counter()
        traced = trace and len(passes) % 2 == 1
        result = run_pass(jobs, workdir, traced)
        result["traced"] = traced
        passes.append(result)
        durations.append(time.perf_counter() - t0)
    setups = [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUPS:
        worker = Worker(workdir, False)
        worker.close()
        setups.append(worker.setup_s)
    return jobs, passes, setups


def job_latencies(plain):
    """Each job's latency under the long/short rules of the module docstring,
    and every run of every job, long jobs' runs in reference seconds."""
    latencies, samples = [], []
    for runs in zip(*(p["jobs"] for p in plain)):
        times = [r["t"] for r in runs]
        if statistics.median(times) >= LONG_JOB_S:
            scaled = [r["t"] * PROBE_REF_S / r["probe_s"] for r in runs]
            latencies.append(statistics.median(scaled))
            samples += scaled
        else:
            latencies.append(min(times))
            samples += times
    return latencies, samples


def summarize(name, jobs, passes, setups, trace: bool):
    attempted = sum(len(p["jobs"]) for p in passes)
    failed_jobs = [r for p in passes for r in p["jobs"] if r["error"]]
    wrong = [r for r in failed_jobs if not r["known_crash"]]
    digests = {}
    for p in passes:
        for r in p["jobs"]:
            digests.setdefault(r["id"], set()).add(r["digest"])
    unstable = sorted(i for i, d in digests.items() if len(d) > 1)
    plain = [p for p in passes if not p["traced"]]
    per_job, latencies = job_latencies(plain)
    q = tail_percentile(len(jobs))
    e2e = {
        "wall_s": (sum(per_job), "s"),
        "job_p50_s": (statistics.median(per_job), "s"),
        "job_tail_s": (percentile(latencies, q), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in plain), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    report = [
        f"workload {name}: {len(jobs)} jobs per pass, {len(plain)} untraced and "
        f"{len(passes) - len(plain)} traced passes, {len(setups)} set-ups",
    ]
    if not trace:
        for metric, (value, unit) in e2e.items():
            note = f"  (p{q:g} of {len(latencies)} samples)" if metric == "job_tail_s" else ""
            report.append(f"  {metric:12s} {value:12.6f} {unit}{note}")
        raw = [min(r["t"] for r in runs) for runs in zip(*(p["jobs"] for p in plain))]
        raw_tail = percentile([r["t"] for p in plain for r in p["jobs"]], q)
        n_long = sum(statistics.median(r["t"] for r in runs) >= LONG_JOB_S
                     for runs in zip(*(p["jobs"] for p in plain)))
        report.append(f"  ({n_long} long jobs; in raw seconds, fastest pass: wall_s "
                      f"{sum(raw):.6f} s, job_p50_s {statistics.median(raw):.6f} s, "
                      f"job_tail_s {raw_tail:.6f} s)")
    report.append(f"  fail_ratio   {len(failed_jobs) / attempted:12.6f}  "
                  f"({len(failed_jobs)} of {attempted} attempted)")
    seen = set()
    for r in failed_jobs:
        if r["id"] not in seen:
            seen.add(r["id"])
            argv = next(j["argv"] for j in jobs if j["id"] == r["id"])
            report.append(f"  FAILED {r['id']} {' '.join(argv)[:70]}: {r['error'][:120]}")
    for i in unstable:
        report.append(f"  UNSTABLE OUTPUT {i}: digest differs between passes")

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    correct = not wrong and not unstable
    if trace:
        metrics, layer_report, counts_repeat = layer_metrics(passes)
        report += layer_report
        correct = correct and counts_repeat
    return report, {"correct": correct, "attempted": attempted,
                    "failed": len(failed_jobs), "metrics": metrics}


COUNT_UNITS = {"in_bytes": "B", "out_bytes": "B"}


def layer_metrics(passes):
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    names = tracing.span_names()
    summaries = [p["trace"] for p in traced]
    counts = summaries[0]["counts"]
    calls = {n: summaries[0]["spans"].get(n, {}).get("calls", 0) for n in names}
    counts_repeat = all(
        s["counts"] == counts
        and all(s["spans"].get(n, {}).get("calls", 0) == calls[n] for n in names)
        for s in summaries
    )

    def self_s(name):
        return statistics.median(s["spans"].get(name, {}).get("self_s", 0.0)
                                 for s in summaries)

    metrics = {}
    for n in names:
        if not n.startswith("cli."):
            metrics[f"{n}.calls"] = {"value": calls[n], "unit": "count"}
        metrics[f"{n}.self_s"] = {"value": self_s(n), "unit": "s"}
    for key in tracing.COUNTERS:
        unit = COUNT_UNITS.get(key.rpartition(".")[2], "count")
        metrics[key] = {"value": counts.get(key, 0), "unit": unit}
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    module_self = {m: sum(self_s(n) for n in names if n.startswith(m + "."))
                   for m in tracing.MODULES}
    module_self["unattributed"] = self_s("job")
    for m, v in module_self.items():
        metrics[f"{m}.self_s_total"] = {"value": v, "unit": "s"}
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s"}

    report = [f"  traced wall_s {traced_wall:.6f} s, untraced {plain_wall:.6f} s, "
              f"overhead {traced_wall - plain_wall:+.6f} s"]
    for m, v in module_self.items():
        report.append(f"  self time {m:12s} {v:10.6f} s  {100 * v / traced_wall:5.1f}%")
    if not counts_repeat:
        report.append("  COUNTS DIFFER between traced passes")
    return metrics, report, counts_repeat


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through the finally blocks that stop the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (SRC / "thetacycles" / "cli.py").is_file():
        print(f"error: no thetacycles sources under {SRC}", file=sys.stderr)
        return 2
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        jobs, passes, setups = measure(args.workload, args.seed, args.seconds,
                                       bool(args.trace), workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    report, result = summarize(args.workload, jobs, passes, setups, bool(args.trace))
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
