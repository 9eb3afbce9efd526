"""Smoke test of the benchmark harness (not part of the tier-1 suite).

Run from the repository root:

    python3 -m pytest bench/test_harness.py -q

It runs every workload at tiny sizes, traced and untraced, checks that every
metric named in BENCHMARK.json is printed, and shows that the output checks
reject wrong answers and that a run with a wrong answer, an unexpected
crash or traced counts that differ is reported as incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _tiny(job) -> bool:
    """Jobs that take milliseconds; the heavy sweeps and fibers are dropped."""
    argv = job["argv"]
    heavy = (
        argv[0] == "rep-classify"
        or "wmf-tables" in argv
        or argv[0] == "qm-search" and argv[-1] == "20"
        or argv[0] == "theta-group" and "--torsion-dependent" in argv and argv[2] == "5"
        or argv[:2] == ["rep-char", "E8"] and argv[2].startswith("1")
        or argv[0] == "lambda-eval" and job["params"].get("n", 0) >= 26
    )
    return not heavy


@pytest.fixture
def tiny(monkeypatch):
    build = workloads.build

    def tiny_build(name, seed):
        jobs, files = build(name, seed)
        keep = [j for j in jobs if _tiny(j)]
        if name == "cli-session":  # skip the genus-6 cycles and what reads them
            big = {j["save"] for j in jobs if j.get("save") and "6" == j["argv"][2]}
            keep = [j for j in keep if not big & _reads(j)]
        return keep, files

    monkeypatch.setattr(run.workloads, "build", tiny_build)
    monkeypatch.setattr(run, "MIN_PASSES", 2)
    monkeypatch.setattr(run, "MIN_SETUPS", 3)


def _reads(job) -> set:
    names = set(job["argv"]) | set(job.get("prepare", {}).get("refs", {}).values())
    return names | {job.get("save")}


def _run(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                         "--trace", str(trace)])
    assert code == 0
    return out.getvalue(), json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed(tiny, workload):
    text, result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    assert "fail_ratio" in text
    assert result["correct"] is True
    # the four known crash inputs stay visible in cli-session
    assert result["failed"] == (4 * 2 if workload == "cli-session" else 0)

    text, result = _run(workload, 1)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["correct"] is True
    assert "overhead" in text


def test_tail_percentile_leaves_ten_samples():
    for n_jobs in (13, 17, 113):
        n = run.MIN_PASSES * n_jobs
        q = run.tail_percentile(n_jobs)
        beyond = n - run.math.ceil(q / 100 * n)
        assert beyond >= run.TAIL_BEYOND


def _cli(argv):
    from thetacycles.cli import run as cli_run

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_run(argv)
    return code, out.getvalue()


def _bump(text, old, new):
    assert old in text
    return text.replace(old, new, 1)


CASES = [
    # argv, check, params, code, corruption of stdout
    (["genus5"], "genus5", {}, 1, lambda s: _bump(s, '"96/5"', '"96/7"')),
    (["rep-char", "A4", "0,1,0,0"], "rep_char", {"dim": 10, "weights": 10}, 0,
     lambda s: _bump(s, "\n      1\n", "\n      2\n")),
    (["qm-search", "--dim", "7", "--max-rank", "3"], "qm_search",
     {"dim": 7, "max_rank": 3}, 0, lambda s: _bump(s, '"G2"', '"B3"')),
    (["rep-classify", "--max-rank", "3", "--max-dim", "20"], "rep_classify",
     {"max_rank": 3, "max_dim": 20}, 0, lambda s: _bump(s, '"symplectic"', '"orthogonal"')),
    (["fake-jacobian", "--g", "5", "--degree", "70"], "fake_jacobian",
     {"g": 5, "degree": 70, "hyperelliptic": False, "cm1": None}, 0,
     lambda s: _bump(s, '"c0": 8', '"c0": 9')),
    (["symfun", "schur", "2,1"], "symfun_schur", {"alpha": [2, 1]}, 0,
     lambda s: _bump(s, '"1/3"', '"2/3"')),
    (["theta-group", "--g", "4", "--k", "1"], "theta_group", {"label": "Sp22"}, 0,
     lambda s: _bump(s, "Sp22", "Sp24")),
    (["cc-odp", "--g", "4", "--k", "1"], "cc_odp",
     {"g": 4, "k": 1, "gauss_finite": False, "torsion_dependent": False}, 0,
     lambda s: _bump(s, '"22"', '"24"')),
    (["summand-bound", "--dims", "2", "--dz", "3"], "summand", {"dims": [2], "dz": 3}, 0,
     lambda s: _bump(s, "false", "true")),
]


@pytest.mark.parametrize("argv,check,params,code,corrupt", CASES)
def test_checks_reject_wrong_output(argv, check, params, code, corrupt):
    job = {"check": check, "params": params, "code": code}
    got_code, out = _cli(argv)
    assert checks.check_job(job, got_code, out) is None
    assert checks.check_job(job, got_code, corrupt(out)) is not None
    assert checks.check_job(job, 1 - got_code if got_code < 2 else 0, out) is not None


def test_lambda_degree_check():
    element = {"group": {"rank": 2, "torsion": []},
               "coeffs": [[[1, 0], 1], [[2, 0], 1], [[0, 1], 1]]}
    job = {"check": "lambda_eval", "code": 0,
           "params": {"kind": "lambda", "k": 2, "n": 3, "group": element["group"]}}
    good = json.dumps({"group": element["group"],
                       "coeffs": [[[1, 1], 1], [[2, 1], 1], [[3, 0], 1]]})
    assert checks.check_job(job, 0, good) is None
    bad = good.replace("[[3, 0], 1]", "[[3, 0], 2]")
    assert "coefficient sum" in checks.check_job(job, 0, bad)


def test_wrong_output_marks_run_incorrect(tiny, monkeypatch):
    build = run.workloads.build

    def broken(name, seed):
        jobs, files = build(name, seed)
        jobs[0] = dict(jobs[0], code=jobs[0]["code"] + 1)
        return jobs, files

    monkeypatch.setattr(run.workloads, "build", broken)
    _, result = _run("wmf-sweep", 0)
    assert result["correct"] is False
    assert result["failed"] >= 2


def test_unexpected_raise_marks_run_incorrect(tiny, monkeypatch):
    """Only jobs marked expect_crash may raise in a correct run."""
    jobs, _ = run.workloads.build("wmf-sweep", 7)
    victim = jobs[0]["id"]
    request = run.Worker.request

    def raising(self, line):
        reply = request(self, line)
        if line and json.loads(line)["id"] == victim:
            reply = dict(reply, exc="RuntimeError: injected")
        return reply

    monkeypatch.setattr(run.Worker, "request", raising)
    _, result = _run("wmf-sweep", 0)
    assert result["correct"] is False
    assert result["failed"] == 2


def test_known_crashes_are_marked():
    jobs, _ = workloads.build("cli-session", 7)
    crashes = [j["argv"] for j in jobs if j.get("expect_crash")]
    assert sorted(crashes) == sorted([
        ["fake-jacobian", "--g", "5", "--degree", "70", "--cm1", "1/0"],
        ["rep-dim", "", "1"],
        ["lambda-eval", "--input", "bad_op.json"],
        ["cycle-convolve", "--input", "bad_cm.json"],
    ])


def test_differing_counts_mark_run_incorrect(tiny, tmp_path):
    jobs, passes, setups = run.measure("cli-session", 7, 0, True, tmp_path)
    traced = [p for p in passes if p["traced"]]
    assert len(traced) >= run.MIN_TRACED >= 2
    _, result = run.summarize("cli-session", jobs, passes, setups, True)
    assert result["correct"] is True
    traced[-1]["trace"]["counts"]["cli.out_bytes"] += 1
    report, result = run.summarize("cli-session", jobs, passes, setups, True)
    assert result["correct"] is False
    assert any("COUNTS DIFFER" in line for line in report)


def test_long_jobs_scaled_short_jobs_fastest():
    """A long job slowed with the probe reads the same in every pass; a
    short job takes its fastest pass."""
    long_t, short_t = 4 * run.LONG_JOB_S, run.LONG_JOB_S / 10
    passes = [{"jobs": [{"t": long_t * k, "probe_s": run.PROBE_REF_S * k},
                        {"t": short_t * k, "probe_s": run.PROBE_REF_S}]}
              for k in (1.5, 1, 3)]
    latencies, samples = run.job_latencies(passes)
    assert latencies == pytest.approx([long_t, short_t])
    assert samples == pytest.approx([long_t] * 3 + [short_t * k for k in (1.5, 1, 3)])
