"""Output checks for benchmark jobs.

Every check recomputes its expectation from closed forms or small exact
searches written here, never by calling into ``thetacycles``, so a check
cannot pass merely because the timed code path agrees with itself.

A check takes the job's parameters, its exit code and its stdout text and
returns ``None`` when the output is right, or a one-line reason when not.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, factorial


# -- closed forms -------------------------------------------------------------


def hook_content(alpha, n: int) -> int:
    """dim of the GL_n module S_alpha(C^n): prod (n + content) / hook."""
    alpha = [a for a in alpha if a > 0]
    conj = [sum(1 for a in alpha if a > j) for j in range(alpha[0])] if alpha else []
    num = den = 1
    for i, row in enumerate(alpha):
        for j in range(row):
            num *= n + j - i
            den *= (row - j - 1) + (conj[j] - i - 1) + 1
    return num // den


def schur_degree(kind: str, k: int, alpha, n: int) -> int:
    """Coefficient sum of lambda^k, Sym^k or s_alpha applied to n points."""
    if kind == "lambda":
        return comb(n, k)
    if kind == "sym":
        return comb(n + k - 1, k)
    return hook_content(alpha, n)


def s_sets(bound: int) -> tuple[set, set]:
    """S- and S+ below a bound, from their defining formulas."""
    s_minus, s_plus = set(), set()
    n = 1
    while comb(2 * n, n) <= bound:
        (s_minus if n % 2 else s_plus).add(comb(2 * n, n))
        n += 1
    n = 1
    while 2**n <= bound:
        (s_minus if n % 4 in (1, 2) else s_plus).add(2**n)
        n += 1
    if bound >= 56:
        s_minus.add(56)
    if bound >= 7:
        s_plus.add(7)
    return s_minus, s_plus


def theta_group_label(g: int, k: int, symmetric: bool, sum_zero: bool,
                      torsion_dependent: bool) -> str:
    """Expected Tannaka-group label of an ODP theta divisor."""
    if not symmetric:
        return "undetermined"
    if g % 2 == 0:
        n = factorial(g) - 2 * k
        return "undetermined" if n in s_sets(n)[0] else f"Sp{n}"
    n = factorial(g) - k
    if k > 0 and torsion_dependent:
        if (g, k) == (5, 2):  # no quasi-minuscule module has dimension 118
            return f"{'SO' if sum_zero else 'O'}{n}"
        return "undetermined"
    if n in s_sets(n)[1]:
        return "undetermined"
    return f"{'SO' if k == 0 or sum_zero else 'O'}{n}"


def fake_jacobian_c0(g: int, t: int, hyperelliptic: bool):
    """Smallest c0 with C(c0, g-1) [- C(c0, g-3)] = t, or None.

    For t >= 1 the solution lies where the degree polynomial increases:
    everywhere for C(c0, g-1), and from c0 = 2g-4 on (where it is still <= 0)
    in the hyperelliptic case.  Bisection finds the first value >= t there."""
    def f(c0):
        v = comb(c0, g - 1)
        return v - comb(c0, g - 3) if hyperelliptic else v

    lo = 2 * g - 4 if hyperelliptic else 0
    hi = lo + 1
    while f(hi) < t:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if f(mid) < t:
            lo = mid + 1
        else:
            hi = mid
    return lo if f(lo) == t else None


def weyl_dim_a(weight) -> int:
    """Dimension of the SL_(n+1) irreducible with the given highest weight."""
    n = len(weight) + 1
    lam = [sum(weight[i:]) for i in range(n - 1)] + [0]
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    return num // den


def _fund(rank: int, *indices) -> tuple:
    w = [0] * rank
    for i in indices:
        w[i - 1] += 1
    return tuple(w)


def quasi_minuscule_modules(max_rank: int) -> dict:
    """(type, weight) -> dim for every minuscule or quasi-minuscule module.

    Minuscule: the fundamental weights of A, the spin weights, the vector
    weights of C and D, 27 of E6 and 56 of E7.  Quasi-minuscule: the highest
    short root (the adjoint module in the simply laced types)."""
    out = {}
    for n in range(1, max_rank + 1):
        for k in range(1, n + 1):
            out[(f"A{n}", _fund(n, k))] = comb(n + 1, k)
        out[(f"A{n}", _fund(n, 1, n))] = n * (n + 2) if n > 1 else 3
    for n in range(2, max_rank + 1):
        out[(f"B{n}", _fund(n, 1))] = 2 * n + 1
        out[(f"B{n}", _fund(n, n))] = 2**n
    for n in range(3, max_rank + 1):
        out[(f"C{n}", _fund(n, 1))] = 2 * n
        out[(f"C{n}", _fund(n, 2))] = (n - 1) * (2 * n + 1)
    for n in range(4, max_rank + 1):
        out[(f"D{n}", _fund(n, 1))] = 2 * n
        out[(f"D{n}", _fund(n, n - 1))] = 2 ** (n - 1)
        out[(f"D{n}", _fund(n, n))] = 2 ** (n - 1)
        out[(f"D{n}", _fund(n, 2))] = n * (2 * n - 1)
    for name, rank, idx, dim in (
        ("E6", 6, 1, 27), ("E6", 6, 6, 27), ("E6", 6, 2, 78),
        ("E7", 7, 7, 56), ("E7", 7, 1, 133), ("E8", 8, 8, 248),
        ("F4", 4, 4, 26), ("G2", 2, 1, 7),
    ):
        if rank <= max_rank:
            out[(name, _fund(rank, idx))] = dim
    return out


def minuscule_anchors(max_rank: int, max_dim: int) -> dict:
    """(type, weight) -> (dim, fs) for the minuscule modules and the odd
    orthogonal vector modules, all of which are weight multiplicity free."""
    out = {}
    for n in range(1, max_rank + 1):
        for k in range(1, n + 1):
            if 2 * k != n + 1:
                fs = "none"
            else:
                fs = "orthogonal" if k % 2 == 0 else "symplectic"
            out[(f"A{n}", _fund(n, k))] = (comb(n + 1, k), fs)
    for n in range(2, max_rank + 1):
        out[(f"B{n}", _fund(n, 1))] = (2 * n + 1, "orthogonal")
        out[(f"B{n}", _fund(n, n))] = (
            2**n, "orthogonal" if n % 4 in (0, 3) else "symplectic")
    for n in range(3, max_rank + 1):
        out[(f"C{n}", _fund(n, 1))] = (2 * n, "symplectic")
    for n in range(4, max_rank + 1):
        out[(f"D{n}", _fund(n, 1))] = (2 * n, "orthogonal")
        spin_fs = ("orthogonal" if n % 4 == 0 else "symplectic") if n % 2 == 0 else "none"
        out[(f"D{n}", _fund(n, n - 1))] = (2 ** (n - 1), spin_fs)
        out[(f"D{n}", _fund(n, n))] = (2 ** (n - 1), spin_fs)
    for name, rank, idx, dim, fs in (
        ("E6", 6, 1, 27, "none"), ("E6", 6, 6, 27, "none"),
        ("E7", 7, 7, 56, "symplectic"),
    ):
        if rank <= max_rank:
            out[(name, _fund(rank, idx))] = (dim, fs)
    return {key: v for key, v in out.items() if v[0] <= max_dim}


# -- helpers --------------------------------------------------------------------


def _json(out: str):
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from None


class CheckFailed(Exception):
    pass


def _expect(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _fiber_sum(element) -> int:
    return sum(c for _, c in element["coeffs"])


def _cycle_degree(cycle) -> int:
    return sum(c["mult"] * int(Fraction(c["cm"][0])) for c in cycle["components"])


# -- one check per job kind -----------------------------------------------------


def check_malformed(p, out):
    _expect(out == "", "a usage error printed to stdout")


def check_cc_odp(p, out):
    doc = _json(out)
    g, k = p["g"], p["k"]
    n = factorial(g) - 2 * k
    points = k if g % 2 else 0
    theta = doc["components"][0]
    _expect(theta["cm"] == [str(n)] + [str(factorial(g - i)) for i in range(1, g)],
            f"theta Chern-Mather vector {theta['cm']}")
    _expect(theta["gauss_finite"] == p["gauss_finite"], "gauss_finite flag lost")
    _expect(len(doc["components"]) == 1 + points, "wrong number of point components")
    _expect(_fiber_sum(doc["fiber"]) == n + points == _cycle_degree(doc),
            "fiber degree differs from the cycle degree")
    torsion = doc["fiber"]["group"]["torsion"]
    _expect(torsion == ([2] * points if p["torsion_dependent"] else []),
            f"fiber torsion {torsion}")


def check_simplicity(p, out):
    doc = _json(out)
    _expect(doc["criterion_1_degree_dominance"] is True, "criterion 1 not met")
    _expect(doc["criterion_2_isolated_companions"] is True, "criterion 2 not met")
    c3 = doc["criterion_3_not_a_self_convolution"]
    _expect((c3 is None) == (not p["gauss_finite"]), "criterion 3 availability")
    _expect(doc["established"] is True, "simplicity not established")


def check_convolve(p, out):
    doc = _json(out)
    want = p["deg1"] * p["deg2"]
    _expect(_cycle_degree(doc) == want, f"degree {_cycle_degree(doc)} != {want}")
    _expect(_fiber_sum(doc["fiber"]) == want, "fiber degree does not multiply")


def check_cycle_schur(p, out):
    doc = _json(out)
    want = hook_content(p["alpha"], p["n"])
    _expect(_cycle_degree(doc) == want, f"degree {_cycle_degree(doc)} != {want}")
    _expect(_fiber_sum(doc["fiber"]) == want, "fiber degree is not the hook-content count")


def check_lambda_eval(p, out):
    doc = _json(out)
    want = schur_degree(p["kind"], p.get("k", 0), p.get("alpha"), p["n"])
    _expect(doc["group"] == p["group"], "result lives over another group")
    coeffs = doc["coeffs"]
    _expect(all(c > 0 for _, c in coeffs), "non-effective result")
    _expect(sum(c for _, c in coeffs) == want,
            f"coefficient sum {sum(c for _, c in coeffs)} != {want}")
    width = p["group"]["rank"] + len(p["group"]["torsion"])
    _expect(all(len(key) == width for key, _ in coeffs), "key of the wrong length")


def check_genus5(p, out):
    doc = _json(out)
    _expect(doc["partition_cm1_coefficients"] == {
        "1,1,1,1": "2048", "2,1,1": "384", "2,2": "64", "3,1": "80", "4": "16"},
        "partition coefficients differ from (2048, 384, 64, 80, 16)")
    _expect(doc["alt4_coefficient"] == "20", "Alt^4 coefficient is not 20")
    _expect(doc["left_side"]["coords"][1] == "384", "[4]_* Theta^4 is not 384 mu_1")
    _expect(doc["c1_coefficient"] == "96/5", "c1 is not 96/5 mu_1")
    _expect(doc["integral"] is False, "96/5 reported integral")


def check_fake_jacobian(p, out):
    doc = _json(out)
    c0 = fake_jacobian_c0(p["g"], p["degree"], p["hyperelliptic"])
    _expect(doc["target_degree"] == p["degree"], "target degree changed")
    _expect(doc["feasible"] is (c0 is not None), f"feasibility, expected c0 = {c0}")
    if c0 is not None:
        _expect(doc["c0"] == c0, f"c0 {doc['c0']} != {c0}")
        if (p["g"], c0, p["hyperelliptic"], p["cm1"]) == (5, 8, False, None):
            _expect(doc["c1_coefficient"] == "96/5", "genus-5 Jacobian c1 is not 96/5")


def check_fourfold(p, out):
    if p["csv"]:
        lines = out.splitlines()
        _expect(lines[0] == "stratum,gauss_degree,dim_omega,weight,group", "csv header")
        _expect(lines[1] == "A4_smooth,24,24,w1,Sp24", "A4 row")
        _expect(len(lines) == 5, "csv row count")
        return
    rows = _json(out)["rows"]
    _expect(len(rows) == 4, "row count")
    _expect((rows[0]["group"], rows[1]["group"], rows[2]["group"])
            == ("Sp24", "Sl6/mu3", "Sp6"), "fourfold Tannaka groups")


def check_summand(p, out):
    doc = _json(out)
    positive = [d for d in p["dims"] if d > 0]
    delta = Fraction(min(positive), 2)
    _expect(doc["delta"] == str(delta), f"delta {doc['delta']} != {delta}")
    _expect(doc["no_decomposition"] is (delta > p["dz"] // 2), "verdict")


def check_rep_dim(p, out):
    _expect(_json(out)["dim"] == p["dim"], f"dimension is not {p['dim']}")


def check_rep_char(p, out):
    doc = _json(out)
    total = sum(m for _, m in doc["weights"])
    _expect(total == p["dim"], f"multiplicities sum to {total}, not {p['dim']}")
    if p.get("weights") is not None:
        _expect(len(doc["weights"]) == p["weights"], "number of distinct weights")


def check_symfun_schur(p, out):
    terms = _json(out)["terms"]
    for n in range(1, 6):
        value = sum(Fraction(c) * n ** len(parts) for parts, c in terms)
        _expect(value == hook_content(p["alpha"], n),
                f"s_{p['alpha']} at {n} equal variables is {value}")


def check_theta_group(p, out):
    label = _json(out)["label"].split(":")[0]
    _expect(label == p["label"], f"label {label} != {p['label']}")


def check_verify_ig(p, out):
    _expect(_json(out)["verified"] is p["verified"], "identity verdict")


def check_qm_search(p, out):
    doc = _json(out)
    got = {(m["type"], tuple(m["weight"])) for m in doc["matches"]}
    want = {key for key, dim in quasi_minuscule_modules(p["max_rank"]).items()
            if dim == p["dim"]}
    _expect(got == want, f"matches {sorted(got)} != {sorted(want)}")


def check_rep_classify(p, out):
    rows = _json(out)["rows"]
    r, d = p["max_rank"], p["max_dim"]
    seen = {}
    for row in rows:
        key = (row["type"], tuple(row["weight"]))
        _expect(key not in seen, f"duplicate row {key}")
        _expect(int(row["type"][1:]) <= r and row["dim"] <= d, f"row {key} out of bounds")
        seen[key] = row
    for key, (dim, fs) in minuscule_anchors(r, d).items():
        row = seen.get(key)
        _expect(row is not None, f"missing weight multiplicity free module {key}")
        _expect((row["dim"], row["fs"]) == (dim, fs),
                f"{key}: (dim, fs) = ({row['dim']}, {row['fs']}), want ({dim}, {fs})")


def check_wmf_tables(p, out):
    lines = out.splitlines()
    _expect(lines[0] == "table,family,G,dimW,symplectic,orthogonal", "csv header")
    _expect(sum(1 for line in lines if line.startswith("instance,")) > 0, "no instances")


CHECKS = {
    name[len("check_"):]: fn for name, fn in globals().items() if name.startswith("check_")
}


def check_job(job, code, out) -> str | None:
    """None if the job's exit code and stdout pass its check, else why not."""
    if code != job["code"]:
        return f"exit code {code}, expected {job['code']}"
    try:
        CHECKS[job["check"]](job["params"], out)
    except CheckFailed as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None
