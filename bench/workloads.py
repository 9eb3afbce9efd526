"""Seeded job lists for the three benchmark workloads.

``build(name, seed)`` returns ``(jobs, files)``.  A job is a dict with

- ``id`` and ``argv``: one ``thetacycles`` invocation, run in the work dir;
- ``code``, ``check`` and ``params``: the contract exit code and the check
  from ``checks.py`` that its stdout must pass;
- ``save`` (optional): keep the job's stdout under this name, as
  ``thetacycles ... > name`` would;
- ``prepare`` (optional): ``{"path", "doc", "refs"}``, an input file written
  just before the job, where each ``refs`` key of ``doc`` is filled with the
  JSON saved by an earlier job of the same pass.
- ``expect_crash`` (optional): a known defect makes this job raise today;
  its raise counts as a failed operation but not as a wrong answer.

``files`` maps names in the work dir to the text of static input files.
The same seed always gives the same jobs and files; the program sees only
these generated inputs.

Job costs are steered so that seeds change which inputs are drawn, not how
much work a pass holds: each job kind has a fixed count, and the costly
ones draw their sizes from narrow strata.
"""

from __future__ import annotations

import json
import random
from math import comb, factorial

import checks


class _Jobs:
    def __init__(self):
        self.jobs: list[dict] = []
        self.files: dict[str, str] = {}

    def add(self, argv, check, params=None, code=0, **extra):
        job = {"id": f"j{len(self.jobs):03d}", "argv": [str(a) for a in argv],
               "code": code, "check": check, "params": params or {}}
        job.update(extra)
        self.jobs.append(job)
        return job

    def file(self, name, doc):
        self.files[name] = doc if isinstance(doc, str) else json.dumps(doc)
        return name


def _fund(rank, index):
    return ",".join("1" if i == index else "0" for i in range(1, rank + 1))


def _interleave(rng, sessions):
    """Merge job sequences in a random order that keeps each one's order."""
    sessions = [list(s) for s in sessions if s]
    out = []
    while sessions:
        weights = [len(s) for s in sessions]
        s = rng.choices(sessions, weights)[0]
        out.append(s.pop(0))
        if not s:
            sessions.remove(s)
    return out


# -- wmf-sweep --------------------------------------------------------------------
# lierep does almost all the work (dominant closure, orbit sizes, fs_type,
# Freudenthal) and lambdaring/symfun idle: the weight-lattice hot path shows
# here.  Overlapping sweep bounds make part of the work memo-table hits.


def _wmf_sweep(rng, b: _Jobs):
    """A fixed job order, so each job meets the same memo-table state in
    every seed; the seed draws parameters from cost-alike choices.

    The big sweep runs first, so the paper's small sweep and wmf-tables are
    memo-table hits.  That leaves seven cheap jobs, those two, and six
    costly ones: the median job and the tail's job group stay fixed."""
    sweeps = [(10, 3000), (8, 600)]
    for r, d in sweeps:
        b.add(["rep-classify", "--max-rank", r, "--max-dim", d], "rep_classify",
              {"max_rank": r, "max_dim": d})
    b.add(["--format", "csv", "wmf-tables"], "wmf_tables")
    # seeded sweeps overlapping the paper's two; after the big sweep a
    # rank-10 one costs twice a rank-9 one, so the ranks are fixed
    for r in (10, 9, 10):
        d = rng.randrange(1000, 1400, 50)
        b.add(["rep-classify", "--max-rank", r, "--max-dim", d], "rep_classify",
              {"max_rank": r, "max_dim": d})
    b.add(["qm-search", "--dim", 118, "--max-rank", 20], "qm_search",
          {"dim": 118, "max_rank": 20})
    sum_zero = rng.random() < 0.5
    b.add(["theta-group", "--g", 5, "--k", 2, "--torsion-dependent"]
          + (["--sum-zero"] if sum_zero else []), "theta_group",
          {"label": checks.theta_group_label(5, 2, True, sum_zero, True)})
    for dim in rng.sample([7, 8, 10, 14, 20, 26, 27, 28, 35, 56, 64, 78], 2):
        b.add(["qm-search", "--dim", dim, "--max-rank", 8], "qm_search",
              {"dim": dim, "max_rank": 8})
    b.add(["rep-char", "E8", _fund(8, 8)], "rep_char", {"dim": 248})
    b.add(["rep-char", "E8", _fund(8, 1)], "rep_char", {"dim": 3875})
    # the larger wedge power sets the pass's peak memory, so it is fixed
    for k in (rng.randint(2, 3), 5):
        b.add(["rep-char", "A14", _fund(14, k)], "rep_char",
              {"dim": comb(15, k), "weights": comb(15, k)})
    spin = rng.choice((6, 7))
    b.add(["rep-char", "D7", _fund(7, spin)], "rep_char", {"dim": 64, "weights": 64})


# -- fiber-schur ------------------------------------------------------------------
# Group-ring key canonicalisation, power-sum expansion and the JSON encoder
# carry this workload and lierep idles: the group-ring carrier shows here.


def _fiber(rng, n: int) -> dict:
    """A cc-odp shaped fiber of n points: +/- pairs on m free generators, in
    seeded coordinates, plus zero to two distinct 2-torsion points.  The
    torsion count follows from n, so a fixed n fixes the work."""
    points = 2 if n % 4 == 2 else n % 2
    m = (n - points) // 2
    width = m + points
    coeffs = []
    for i in rng.sample(range(m), m):
        for sign in (1, -1):
            key = [0] * width
            key[i] = sign
            coeffs.append([key, 1])
    for t in range(points):
        key = [0] * width
        key[m + t] = 1
        coeffs.append([key, 1])
    rng.shuffle(coeffs)
    return {"group": {"rank": m, "torsion": [2] * points}, "coeffs": coeffs}


# (op, strata of the point count n = 2m + torsion points).  Fiber ranks m run
# from 10 to 29; the degree-3 operations stop at m = 22 (about 0.8 s), which
# keeps a pass near 4 s so that a run holds enough cold passes to be steady.
# Jobs that are costly or near the median job get one-value strata, so that
# seeds move neither the pass's work nor its median job.  With the walkthrough
# that makes four cheap jobs, five of about 0.2-0.25 s around the median, and
# four costly ones: the median falls inside a group of like jobs, not on one.
FIBER_OPS = (
    ({"kind": "lambda", "k": 2}, ((20, 22),)),
    ({"kind": "sym", "k": 2}, ((58, 58),)),
    ({"kind": "lambda", "k": 3}, ((30, 30), (31, 31), (32, 32), (33, 33), (40, 40))),
    ({"kind": "schur", "alpha": [2, 1]}, ((32, 32), (44, 44))),
)


def _fiber_schur(rng, b: _Jobs):
    evals = []
    for op, strata in FIBER_OPS:
        for lo, hi in strata:
            n = rng.randint(lo, hi)
            element = _fiber(rng, n)
            name = b.file(f"eval{len(b.files):02d}.json", {"element": element, "op": op})
            evals.append(b.add(["lambda-eval", "--input", name], "lambda_eval",
                               dict(op, n=n, group=element["group"])))
    # the README's genus-5 walkthrough: theta cycle, its Schur square, and a
    # convolution of two genus-5 fibers over the same rank-60 group
    k = rng.choice((0, 1))
    walkthrough = [
        b.add(["cc-odp", "--g", 5, "--k", 0, "--gauss-finite"], "cc_odp",
              {"g": 5, "k": 0, "gauss_finite": True, "torsion_dependent": False},
              save="theta5.json"),
        b.add(["cc-odp", "--g", 5, "--k", k], "cc_odp",
              {"g": 5, "k": k, "gauss_finite": False, "torsion_dependent": False},
              save="other5.json"),
        b.add(["cycle-schur", "--input", "schur5.json"], "cycle_schur",
              {"alpha": [1, 1], "n": 120},
              prepare={"path": "schur5.json", "doc": {"alpha": [1, 1], "d_trunc": 1},
                       "refs": {"cycle": "theta5.json"}}),
        b.add(["cycle-convolve", "--input", "conv5.json"], "convolve",
              {"deg1": 120, "deg2": 120 - k},
              prepare={"path": "conv5.json", "doc": {"d_trunc": rng.randint(1, 4)},
                       "refs": {"c1": "theta5.json", "c2": "other5.json"}}),
    ]
    # a fixed order: each job starts from the same heap state in every seed
    b.jobs = walkthrough[:2] + evals + walkthrough[2:]


# -- cli-session ------------------------------------------------------------------
# Short invocations, so per-call costs dominate: argparse and the parser built
# on every call, JSON reads of cycle files beside JSON writes, and the
# cycles/chow/schottky layers.


KNOWN_DIMS = (
    ("E8", 8, 1, 3875), ("E8", 8, 8, 248), ("D7", 7, 7, 64), ("E6", 6, 1, 27),
    ("E7", 7, 7, 56), ("B3", 3, 3, 8), ("C3", 3, 2, 14), ("G2", 2, 1, 7),
    ("F4", 4, 4, 26), ("D4", 4, 2, 28), ("B4", 4, 1, 9), ("E7", 7, 1, 133),
)


def _partition(rng, n):
    parts = []
    while n:
        p = rng.randint(1, n)
        parts.append(p)
        n -= p
    return sorted(parts, reverse=True)


def _gr(rng, rank, terms):
    coeffs = {}
    for _ in range(terms):
        key = tuple(rng.randint(-2, 2) for _ in range(rank))
        coeffs[key] = coeffs.get(key, 0) + rng.randint(1, 2)
    return coeffs


def _gr_json(rank, coeffs):
    return {"group": {"rank": rank, "torsion": []},
            "coeffs": [[list(k), c] for k, c in sorted(coeffs.items())]}


def _cycle_sessions(rng, b: _Jobs):
    """cc-odp cycles written to files, then read back by later jobs."""
    sessions = []
    # genus-6 cycles are 3.4 MB of JSON, so there are two.  Their four jobs
    # are the pass's slowest and set job_tail_s, so all their parameters are
    # fixed: k and the flags move their cost by half.  s_(2,1) of a
    # genus-4 cycle (i == 2) costs twice as much at k < 2, so k >= 2 there
    # keeps it clear of the fourth-slowest job.
    plan = [(4, None, 2, None)] * 4 + [(5, None, None, None)] * 4 + [
        (6, {"sum_zero": False, "torsion_dependent": False, "gauss_finite": True}, 2, 1),
        (6, {"sum_zero": True, "torsion_dependent": False, "gauss_finite": False}, 4, 2)]
    for g, fixed, m_bound, fixed_k in plan:
        i = len(sessions)
        k = rng.randint(2 if i == 2 else 0, 3) if fixed_k is None else fixed_k
        flags = fixed or {"sum_zero": rng.random() < 0.5,
                          "torsion_dependent": g == 5 and rng.random() < 0.3,
                          "gauss_finite": rng.random() < 0.5}
        argv = ["cc-odp", "--g", g, "--k", k] + [
            "--" + f.replace("_", "-") for f, on in flags.items() if on]
        saved = f"cycle{i}.json"
        session = [b.add(argv, "cc_odp", dict(flags, g=g, k=k), save=saved)]
        session.append(b.add(
            ["simplicity", "--input", saved, "--m-bound", m_bound or rng.randint(1, 4)],
            "simplicity", {"gauss_finite": flags["gauss_finite"]}))
        if g == 4:
            deg = factorial(4) - 2 * k
            d_trunc = rng.randint(1, 3) if flags["gauss_finite"] else 1
            session.append(b.add(
                ["cycle-convolve", "--input", f"conv{i}.json"], "convolve",
                {"deg1": deg, "deg2": deg},
                prepare={"path": f"conv{i}.json", "doc": {"d_trunc": d_trunc},
                         "refs": {"c1": saved, "c2": saved}}))
            alpha = ([1, 1], [2], [2, 1], [1, 1])[i]
            session.append(b.add(
                ["cycle-schur", "--input", f"schur{i}.json"], "cycle_schur",
                {"alpha": alpha, "n": deg},
                prepare={"path": f"schur{i}.json",
                         "doc": {"alpha": alpha, "d_trunc": 1},
                         "refs": {"cycle": saved}}))
        sessions.append(session)
    return sessions


def _fake_jacobian(rng, b: _Jobs):
    def add(g, degree, hyperelliptic=False, cm1=None):
        argv = ["fake-jacobian", "--g", g, "--degree", degree]
        argv += ["--hyperelliptic"] if hyperelliptic else []
        argv += ["--cm1", cm1] if cm1 else []
        c0 = checks.fake_jacobian_c0(g, degree, hyperelliptic)
        b.add(argv, "fake_jacobian", {"g": g, "degree": degree,
                                      "hyperelliptic": hyperelliptic, "cm1": cm1},
              code=0 if c0 is not None else 1)

    for g in (3, 4, 5, 6):  # Jacobian targets: c0 = 2g - 2
        add(g, comb(2 * g - 2, g - 1))
    for _ in range(4):
        g = rng.randint(3, 6)
        c0 = rng.randint(g, 3 * g)
        add(g, comb(c0, g - 1), cm1=f"{rng.randint(1, 9)}/{rng.randint(1, 9)}"
            if rng.random() < 0.5 else None)
    for _ in range(4):  # strictly between two consecutive binomials
        g = rng.randint(3, 6)
        c0 = rng.randint(g, 3 * g)
        add(g, comb(c0, g - 1) + 1)
    # large degrees walk the linear c0 scan
    add(3, comb(rng.randint(600, 700), 2))
    add(4, comb(rng.randint(100, 110), 3))
    for _ in range(2):
        g = rng.randint(4, 6)
        c0 = rng.randint(2 * g - 3, 3 * g)
        add(g, comb(c0, g - 1) - comb(c0, g - 3), hyperelliptic=True)


def _cli_session(rng, b: _Jobs):
    sessions = _cycle_sessions(rng, b)
    start = len(b.jobs)
    for _ in range(4):
        k = rng.randint(0, 3)
        b.add(["genus5", "--k", k] + (["--gauss-finite"] if rng.random() < 0.5 else []),
              "genus5", code=1)
    _fake_jacobian(rng, b)
    for csv in (False, False, True, True):
        b.add((["--format", "csv"] if csv else []) + ["fourfold-table"], "fourfold",
              {"csv": csv})
    for _ in range(8):
        dims = [rng.randint(0, 8) for _ in range(rng.randint(1, 4))]
        dims[0] = dims[0] or 1
        dz = rng.randint(1, 10)
        no_dec = min(d for d in dims if d > 0) > 2 * (dz // 2)
        b.add(["summand-bound", "--dims", ",".join(map(str, dims)), "--dz", dz],
              "summand", {"dims": dims, "dz": dz}, code=1 if no_dec else 0)
    for _ in range(8):
        rank = rng.randint(2, 8)
        weight = [rng.randint(0, 2) for _ in range(rank)]
        b.add(["rep-dim", f"A{rank}", ",".join(map(str, weight))], "rep_dim",
              {"dim": checks.weyl_dim_a(weight)})
    for name, rank, index, dim in rng.sample(KNOWN_DIMS, 6):
        b.add(["rep-dim", name, _fund(rank, index)], "rep_dim", {"dim": dim})
    for _ in range(12):
        alpha = _partition(rng, rng.randint(2, 7))
        b.add(["symfun", "schur", ",".join(map(str, alpha))], "symfun_schur",
              {"alpha": alpha})
    for _ in range(10):
        g = rng.randint(2, 6)
        k = rng.randint(0, min(4, (factorial(g) - 1) // 2))
        sym, sz = rng.random() < 0.9, rng.random() < 0.5
        td = g != 5 and rng.random() < 0.3
        argv = ["theta-group", "--g", g, "--k", k]
        argv += (["--sum-zero"] if sz else []) + (["--torsion-dependent"] if td else [])
        argv += [] if sym else ["--not-symmetric"]
        b.add(argv, "theta_group", {"label": checks.theta_group_label(g, k, sym, sz, td)})
    for i in range(6):
        rank, e = rng.randint(1, 3), rng.randint(2, 3)
        x, y = _gr(rng, rank, rng.randint(2, 5)), _gr(rng, rank, rng.randint(2, 5))
        if i % 2:  # [e]_* (x y) = [e]_* x . [e]_* y
            target = {}
            for k1, c1 in x.items():
                for k2, c2 in y.items():
                    key = tuple(a + b_ for a, b_ in zip(k1, k2))
                    target[key] = target.get(key, 0) + c1 * c2
            construction = {"kind": "product", "children": [
                {"kind": "var", "index": 0}, {"kind": "var", "index": 1}]}
            cands = [x, y]
        else:
            target, construction, cands = x, {"kind": "var", "index": 0}, [x]
        pushed = [{tuple(e * a for a in k): c for k, c in cand.items()} for cand in cands]
        verified = rng.random() < 0.6
        if not verified:
            key = next(iter(pushed[0]))
            pushed[0][key] += 1
        name = b.file(f"ig{i}.json", {
            "target": _gr_json(rank, target), "construction": construction, "e": e,
            "candidates": [_gr_json(rank, p) for p in pushed]})
        b.add(["verify-ig", "--input", name], "verify_ig", {"verified": verified},
              code=0 if verified else 1)
    _malformed(rng, b)
    singles = [[job] for job in b.jobs[start:]]
    b.jobs = _interleave(rng, sessions + singles)


def _malformed(rng, b: _Jobs):
    """Inputs whose contract answer is exit 2.  The first four crash today
    (a traceback and exit 1); they stay in every pass so the defect shows."""
    element = {"group": {"rank": 1, "torsion": []}, "coeffs": [[[1], 1], [[-1], 1]]}
    point = {"label": "x", "dim": 0, "mult": 1, "cm": ["1", "0", "0"], "gauss_finite": True}
    bad_cm = dict(point, cm=5)
    cycle = {"g": 3, "components": [point]}
    b.file("bad_op.json", {"element": element, "op": [1]})
    b.file("bad_cm.json", {"c1": {"g": 3, "components": [bad_cm]}, "c2": cycle,
                           "d_trunc": 1})
    b.file("bad_json.json", "{not json")
    b.file("bad_cycle.json", {"g": 3, "components": [dict(point, dim=1)]})
    crashes = [
        ["fake-jacobian", "--g", 5, "--degree", 70, "--cm1", "1/0"],
        ["rep-dim", "", "1"],
        ["lambda-eval", "--input", "bad_op.json"],
        ["cycle-convolve", "--input", "bad_cm.json"],
    ]
    for argv in crashes:
        b.add(argv, "malformed", code=2, expect_crash=True)
    cases = [
        ["no-such-command"],
        ["rep-dim", "A5", "0,x"],
        ["cycle-schur", "--input", "missing.json"],
        ["simplicity", "--input", "bad_json.json"],
        ["simplicity", "--input", "bad_cycle.json"],
        ["fake-jacobian", "--g", 2, "--degree", rng.randint(1, 9)],
        ["cc-odp", "--g", 3, "--k", rng.randint(3, 5)],
    ]
    for argv in cases:
        b.add(argv, "malformed", code=2)


_BUILDERS = {"wmf-sweep": _wmf_sweep, "fiber-schur": _fiber_schur,
             "cli-session": _cli_session}
NAMES = tuple(_BUILDERS)


def build(name: str, seed: int):
    """(jobs, files) of one workload for one seed."""
    rng = random.Random(f"{name}:{seed}")
    b = _Jobs()
    _BUILDERS[name](rng, b)
    return b.jobs, b.files
