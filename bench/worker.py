"""One benchmark worker: a fresh interpreter that runs one pass of jobs.

Usage: python3 worker.py SRC_DIR WORK_DIR TRACE

The worker imports ``thetacycles`` from SRC_DIR, builds the CLI parser once
and writes ``ready SECONDS`` to stdout, the time those two steps took.  It
then reads one JSON job per line from stdin, runs
``thetacycles.cli.run(argv)`` with the program's stdout captured in memory,
writes that output to WORK_DIR/stdout.txt once the clock has stopped, and
answers with one JSON line that carries the job's time and the speed
probe's mean over it (see SpeedProbe).  An empty line ends the pass: the
worker answers with its peak RSS and, when TRACE is 1, the per-layer
summary, then exits.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import threading
import time

PROBE_EVERY = 0.02  # seconds between two timings of the probe loop
_PROBE_TABLE = {i: (i * 97) % 256 for i in range(256)}


def _probe_loop():
    """A fixed sliver of pure-Python work, about 0.2 ms: integer
    arithmetic and dict lookups, the staple of the program's hot paths.  It
    allocates no container, so it never sets off the garbage collector, whose
    passes over a job's heap would count as a slow host."""
    table, x = _PROBE_TABLE, 0
    for i in range(2000):
        x = table[(x * 31 + i) & 255]
    return x


class SpeedProbe:
    """Samples the host's speed while jobs run.

    A shared host can flip between a fast and a slow state many times a
    second, with the share of slow time drifting over minutes, so a job's
    seconds alone say as much about the neighbours as about the program.  While a job runs, a thread of the worker times
    _probe_loop every PROBE_EVERY seconds on the same CPU (the GIL keeps it
    from running beside the job), and ``mean_s(t0, t1)`` gives the loop's
    mean time over a job, the speed the job itself met.  Between jobs the
    probe sleeps: the benchmark's own checks then share the CPUs.  The probe
    costs the jobs about 1% of their time, the same on every commit."""

    def __init__(self):
        self.samples = []  # (start, seconds), in start order
        self.running = threading.Event()  # set while a job runs
        self.stopped = False
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self):
        while self.running.wait() and not self.stopped:
            time.sleep(PROBE_EVERY)
            if self.running.is_set():
                start = time.perf_counter()
                _probe_loop()
                self.samples.append((start, time.perf_counter() - start))

    def mean_s(self, t0, t1):
        """Mean probe time over a job that ran from t0 to t1.  A job too
        short to hold a sample gets the last one before its end."""
        samples = list(self.samples)
        inside = [d for t, d in samples if t0 <= t <= t1]
        chosen = inside or [d for t, d in samples if t <= t1][-1:]
        if not chosen:  # the first job of a worker, and a short one
            start = time.perf_counter()
            _probe_loop()
            chosen = [time.perf_counter() - start]
        return sum(chosen) / len(chosen)

    def stop(self):
        self.stopped = True
        self.running.set()
        self.thread.join()


def main():
    src, workdir, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    sys.path.insert(0, src)
    start = time.perf_counter()
    import thetacycles.cli as cli

    cli.build_parser()
    setup_s = time.perf_counter() - start
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported {cli.__file__}, not the checkout under {src}")
    proto_in, proto_out = sys.stdin, sys.stdout
    proto_out.write(f"ready {setup_s!r}\n")
    proto_out.flush()

    # one CPU for the job and the probe, so the probe meets the job's speed
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    probe = SpeedProbe()

    os.chdir(workdir)
    tracer = None
    if trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    out_bytes = 0
    for line in proto_in:
        if not line.strip():
            break
        job = json.loads(line)
        code, exc = None, None
        sys.stderr = io.StringIO()  # usage errors would interleave with the report
        sys.stdout = out = io.StringIO()
        probe.running.set()
        start = time.perf_counter()
        try:
            if tracer:
                code = tracer.run_job(job["id"], cli.run, job["argv"])
            else:
                code = cli.run(job["argv"])
        except Exception as e:  # a CLI user would see a traceback and exit 1
            exc = f"{type(e).__name__}: {e}"
        elapsed = time.perf_counter() - start
        probe.running.clear()
        sys.stdout, sys.stderr = proto_out, sys.__stderr__
        data = out.getvalue().encode("utf-8")
        with open("stdout.txt", "wb") as f:
            f.write(data)
        out_bytes += len(data)
        reply = {"t": elapsed, "probe_s": probe.mean_s(start, start + elapsed),
                 "code": code, "exc": exc}
        proto_out.write(json.dumps(reply) + "\n")
        proto_out.flush()

    probe.stop()
    final = {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        from thetacycles.symfun import _mn_character

        final["trace"] = tracer.summary()
        info = _mn_character.cache_info()
        final["trace"]["counts"].update({
            "symfun.mn_character.hits": info.hits,
            "symfun.mn_character.misses": info.misses,
            "cli.out_bytes": out_bytes,
        })
    proto_out.write(json.dumps(final) + "\n")
    proto_out.flush()


if __name__ == "__main__":
    main()
