"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All arithmetic is exact; every comparison below is an equality, tolerance
zero.  Each criterion also asserts its runtime budget.
"""

import random
import time
from fractions import Fraction
from math import comb, factorial

from thetacycles.chow import ChowVector
from thetacycles.cycles import (
    CleanCycleModel,
    CycleComponent,
    convolve,
    degree,
)
from thetacycles.lambdaring import (
    FgAbelianGroup,
    GroupRingElement,
    gr_adams,
    gr_multiply,
    lambda_op,
)
from thetacycles.lierep import (
    canonical_simple_types,
    char_sym,
    char_tensor,
    classify_wmf,
    decompose,
    freudenthal_character,
    orbit_rank_bound,
    quasi_minuscule_dim_search,
    root_multiple_condition,
    root_system,
)
from thetacycles.schottky import (
    PpavInput,
    fake_jacobian_solve,
    fourfold_table,
    genus5_obstruction,
    push_character_to_group_ring,
    s_sets,
    s_sets_from_classification,
    summand_bound,
    theta_target,
)
from thetacycles.symfun import (
    Partition,
    partitions,
    schur_to_powersum,
    symmetric_group_character,
)

from oracles import (
    expand_powersum_expr,
    frobenius_character,
    ssyt_monomials,
)


def report(number, elapsed, budget, description):
    line = f"CRITERION {number}: PASS ({elapsed:.2f}s < {budget}s) {description}"
    print(line)
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


class TestCriterion1SchurExpansions:
    def test_criterion(self):
        t0 = time.monotonic()
        # the exterior-power coefficient lists, frozen
        lam2 = schur_to_powersum(Partition((1, 1)))
        assert lam2.terms == {
            Partition((1, 1)): Fraction(1, 2),
            Partition((2,)): Fraction(-1, 2),
        }
        lam3 = schur_to_powersum(Partition((1, 1, 1)))
        assert lam3.terms == {
            Partition((1, 1, 1)): Fraction(1, 6),
            Partition((2, 1)): Fraction(-1, 2),
            Partition((3,)): Fraction(1, 3),
        }
        lam4 = schur_to_powersum(Partition((1, 1, 1, 1)))
        assert lam4.terms == {
            Partition((1, 1, 1, 1)): Fraction(1, 24),
            Partition((2, 1, 1)): Fraction(-1, 4),
            Partition((2, 2)): Fraction(1, 8),
            Partition((3, 1)): Fraction(1, 3),
            Partition((4,)): Fraction(-1, 4),
        }
        # Murnaghan-Nakayama values against the independent alternant oracle,
        # all degrees <= 8
        for n in range(1, 9):
            for alpha in partitions(n):
                for beta in partitions(n):
                    assert symmetric_group_character(
                        alpha, beta
                    ) == frobenius_character(tuple(alpha), tuple(beta))
        # monomial-expansion oracle: the power-sum expansion agrees with the
        # semistandard-tableaux Schur polynomial in 8 variables, exactly
        nvars = 8
        for n in range(1, 9):
            for alpha in partitions(n):
                ours = expand_powersum_expr(
                    {tuple(p): c for p, c in schur_to_powersum(alpha).terms.items()},
                    nvars,
                )
                oracle = {
                    k: Fraction(v)
                    for k, v in ssyt_monomials(tuple(alpha), nvars).items()
                }
                assert ours == oracle, alpha
        report(
            1,
            time.monotonic() - t0,
            5,
            "Schur-to-powersum matches the exterior-power lists and both "
            "oracles through degree 8",
        )


class TestCriterion2Genus5:
    def test_criterion(self):
        t0 = time.monotonic()
        rec = genus5_obstruction(PpavInput(g=5, k=0))
        assert rec["partition_cm1_coefficients"] == {
            "1,1,1,1": "2048",
            "2,1,1": "384",
            "2,2": "64",
            "3,1": "80",
            "4": "16",
        }
        assert rec["alt4_coefficient"] == "20"
        assert rec["left_side"]["coords"] == ["0", "384", "0", "0", "0"]
        assert rec["solved_c1"]["coords"] == ["0", "96/5", "0", "0", "0"]
        assert rec["integral"] is False
        assert "excluded" in rec["verdict"]
        report(
            2,
            time.monotonic() - t0,
            1,
            "genus-5 obstruction: (2048,384,64,80,16), Alt4 = 20, "
            "16*[Theta]^4 = 384 mu_1, c1 = 96/5 mu_1, not integral",
        )


def _expected_wmf_rows(max_rank, max_dim):
    """The classification tables instantiated within the bounds: for each
    family every (type, weight) with its dimension formula, minuscule flag
    and symplectic/orthogonal verdict."""
    rows = {}

    def put(letter, n, weight, dim, minuscule, fs):
        rows[(letter, n, weight)] = (dim, minuscule, fs)

    for n in range(1, max_rank + 1):  # A_n, i.e. Sl_(n+1)
        size = n + 1
        for k in range(1, n + 1):
            dim = comb(size, k)
            if dim <= max_dim:
                if size == 2 * k:
                    fs = "symplectic" if (size % 4) else "orthogonal"
                else:
                    fs = "none"
                put("A", n, tuple(1 if i == k - 1 else 0 for i in range(n)), dim, True, fs)
        k = 2
        while comb(size + k - 1, k) <= max_dim:
            dim = comb(size + k - 1, k)
            if n == 1:
                # rank-one degeneration: Sym^k of sl2 is self-dual
                fs = "orthogonal" if k % 2 == 0 else "symplectic"
                put("A", n, (k,), dim, False, fs)
            else:
                put("A", n, tuple([k] + [0] * (n - 1)), dim, False, "none")
                put("A", n, tuple([0] * (n - 1) + [k]), dim, False, "none")
            k += 1
    for n in range(2, max_rank + 1):  # B_n
        if 2 * n + 1 <= max_dim:
            put("B", n, tuple(1 if i == 0 else 0 for i in range(n)), 2 * n + 1, False, "orthogonal")
        if 2**n <= max_dim:
            fs = "symplectic" if n % 4 in (1, 2) else "orthogonal"
            put("B", n, tuple(1 if i == n - 1 else 0 for i in range(n)), 2**n, True, fs)
    for n in range(3, max_rank + 1):  # C_n
        if 2 * n <= max_dim:
            put("C", n, tuple(1 if i == 0 else 0 for i in range(n)), 2 * n, True, "symplectic")
    if max_rank >= 3 and 14 <= max_dim:
        put("C", 3, (0, 0, 1), 14, False, "symplectic")
    for n in range(4, max_rank + 1):  # D_n
        if 2 * n <= max_dim:
            put("D", n, tuple(1 if i == 0 else 0 for i in range(n)), 2 * n, True, "orthogonal")
        if 2 ** (n - 1) <= max_dim:
            fs = (
                "orthogonal"
                if n % 4 == 0
                else "symplectic" if n % 4 == 2 else "none"
            )
            for spot in (n - 2, n - 1):
                put("D", n, tuple(1 if i == spot else 0 for i in range(n)), 2 ** (n - 1), True, fs)
    if max_rank >= 6 and 27 <= max_dim:
        put("E", 6, (1, 0, 0, 0, 0, 0), 27, True, "none")
        put("E", 6, (0, 0, 0, 0, 0, 1), 27, True, "none")
    if max_rank >= 7 and 56 <= max_dim:
        put("E", 7, (0, 0, 0, 0, 0, 0, 1), 56, True, "symplectic")
    if max_rank >= 2 and 7 <= max_dim:
        put("G", 2, (1, 0), 7, False, "orthogonal")
    return rows


class TestCriterion3AppendixTables:
    def test_criterion(self):
        t0 = time.monotonic()
        max_rank, max_dim = 8, 600
        rows = classify_wmf(max_rank, max_dim)
        got = {(r.letter, r.rank, r.weight): (r.dim, r.minuscule, r.fs) for r in rows}
        expected = _expected_wmf_rows(max_rank, max_dim)
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        assert not missing, f"missing table entries: {missing[:10]}"
        assert not extra, f"entries outside the tables: {extra[:10]}"
        for key, (dim, minuscule, fs) in expected.items():
            assert got[key] == (dim, minuscule, fs), (key, got[key], (dim, minuscule, fs))
        # E8 and F4 admit no nontrivial wmf irreducible: an emergent check
        assert not [r for r in rows if r.letter in ("F",) or (r.letter, r.rank) == ("E", 8)]
        report(
            3,
            time.monotonic() - t0,
            120,
            f"classification sweep (rank<=8 + exceptional, dim<=600) matches "
            f"all {len(expected)} table rows: dims, minuscule flags, "
            "symplectic/orthogonal verdicts incl. the spin mod-4 pattern",
        )


class TestCriterion4FourfoldTable:
    def test_criterion(self):
        t0 = time.monotonic()
        table = fourfold_table()
        by_stratum = {r["stratum"]: r for r in table["rows"]}
        assert by_stratum["A4_smooth"]["gauss_degree"] == 24
        assert by_stratum["A4_smooth"]["group"] == "Sp24"
        nh = by_stratum["J4_nonhyperelliptic"]
        assert (nh["gauss_degree"], nh["dim_omega"], nh["weight"], nh["group"]) == (
            20, 20, "w3", "Sl6/mu3",
        )
        h = by_stratum["J4_hyperelliptic"]
        assert (h["gauss_degree"], h["dim_omega"], h["weight"], h["group"]) == (
            8, 14, "w3", "Sp6",
        )
        instances = by_stratum["Theta_null^k"]["instances"]
        assert [(i["k"], i["gauss_degree"], i["group"]) for i in instances] == [
            (k, 24 - 2 * k, f"Sp{24 - 2 * k}") for k in range(1, 11)
        ]
        report(
            4,
            time.monotonic() - t0,
            5,
            "fourfold table reproduced from first principles (Weyl dimension "
            "20, quotient character 14, cc degrees 24-2k)",
        )


class TestCriterion5SSets:
    EXPECTED_S_MINUS = [2, 4, 20, 32, 56, 64, 252, 512, 1024, 3432, 8192]
    EXPECTED_S_PLUS = [6, 7, 8, 16, 70, 128, 256, 924, 2048, 4096]

    def test_criterion(self):
        t0 = time.monotonic()
        sm, sp = s_sets(10000)
        assert sm == self.EXPECTED_S_MINUS
        assert sp == self.EXPECTED_S_PLUS
        sm2, sp2 = s_sets_from_classification(10000, 14)
        assert (sm2, sp2) == (sm, sp)
        report(
            5,
            time.monotonic() - t0,
            60,
            "S-/S+ up to 10000 equal both the defining formulas and the "
            "classification extraction",
        )


class TestCriterion6QuasiMinuscule:
    def test_criterion(self):
        t0 = time.monotonic()
        assert quasi_minuscule_dim_search(118, 20) == []
        rng = random.Random(2024)
        types = canonical_simple_types(8)
        checked = 0
        while checked < 1000:
            letter, n = rng.choice(types)
            rs = root_system(letter, n)
            w = tuple(rng.randint(-5, 5) for _ in range(n))
            if w == rs.zero():
                continue
            assert orbit_rank_bound(rs, w), (letter, n, w)
            checked += 1
        report(
            6,
            time.monotonic() - t0,
            60,
            "no quasi-minuscule module of dimension 118 up to rank 20; orbit "
            "sizes bound the rank on 1000 random nonzero weights",
        )


class TestCriterion7Dictionary:
    def test_criterion(self):
        t0 = time.monotonic()
        rng = random.Random(7)

        # 100 random character pairs through a common weight-lattice map
        rep_pool = []
        for letter, n in canonical_simple_types(3):
            rs = root_system(letter, n)
            for lam in rs.dominant_weights_below((2,) * n):
                if lam != rs.zero() and rs.weyl_dim(lam) <= 24:
                    rep_pool.append((rs, lam))
        pairs_done = 0
        while pairs_done < 100:
            rs, lam1 = rng.choice(rep_pool)
            candidates = [(r, l) for r, l in rep_pool if r is rs]
            _, lam2 = rng.choice(candidates)
            x = freudenthal_character(rs, lam1)
            y = freudenthal_character(rs, lam2)
            grp = FgAbelianGroup(rs.rank, (2,) if rng.random() < 0.3 else ())
            images = [
                tuple(rng.randint(-2, 2) for _ in range(grp.ncoords))
                for _ in range(rs.rank)
            ]
            fx = push_character_to_group_ring(x, grp, images)
            fy = push_character_to_group_ring(y, grp, images)
            # the fiber-level commutative square
            fxy = push_character_to_group_ring(char_tensor(x, y), grp, images)
            assert fxy == gr_multiply(fx, fy)
            # degree multiplicativity under convolution of carrying cycles
            g = 3
            cx = _fiber_cycle(g, fx)
            cy = _fiber_cycle(g, fy)
            out = convolve(cx, cy, 1)
            assert degree(out) == x.dimension * y.dimension
            assert out.fiber == fxy
            pairs_done += 1

        # lambda-ring axioms on 500 random group-ring elements
        groups = [FgAbelianGroup(1), FgAbelianGroup(2), FgAbelianGroup(1, (2,)),
                  FgAbelianGroup(0, (2, 4))]
        for i in range(500):
            grp = rng.choice(groups)
            coeffs = {}
            for _ in range(rng.randint(1, 4)):
                el = tuple(rng.randint(-3, 3) for _ in range(grp.ncoords))
                coeffs[el] = rng.randint(-2, 3)
            x = GroupRingElement(grp, coeffs)
            for m, n in ((2, 3), (4, 5), (6, 2)):
                assert gr_adams(m, gr_adams(n, x)) == gr_adams(m * n, x)
            if i % 5 == 0:
                eff = GroupRingElement(grp, {g_: abs(c) for g_, c in coeffs.items()})
                other = GroupRingElement(
                    grp,
                    {tuple(rng.randint(-2, 2) for _ in range(grp.ncoords)): 1},
                )
                for k in range(4):
                    lhs = lambda_op(k, eff + other)
                    rhs = None
                    for j in range(k + 1):
                        term = gr_multiply(lambda_op(j, eff), lambda_op(k - j, other))
                        rhs = term if rhs is None else rhs + term
                    assert lhs == rhs
        report(
            7,
            time.monotonic() - t0,
            120,
            "weight dictionary: tensor/convolution degrees agree through the "
            "fiber map on 100 pairs; Adams and lambda axioms on 500 elements",
        )


def _fiber_cycle(g, fiber):
    deg = fiber.coefficient_sum
    coords = [Fraction(0)] * g
    coords[0] = Fraction(deg)
    coords[g - 1] = Fraction(1)
    comp = CycleComponent(
        "carrier", dim=g - 1, mult=1, cm=ChowVector(g, tuple(coords)),
        gauss_finite=True,
    )
    return CleanCycleModel(g=g, components=(comp,), fiber=fiber)


class TestCriterion8FakeJacobianDegrees:
    def test_criterion(self):
        t0 = time.monotonic()
        for g in (3, 4, 5):
            c0 = 2 * g - 2
            t_nh = comb(c0, g - 1)
            target = theta_target(g, t_nh)
            sol = fake_jacobian_solve(g, target, hyperelliptic=False)
            assert sol["feasible"] and sol["c0"] == c0, (g, sol)
            t_h = comb(c0, g - 1) - comb(c0, g - 3)
            sol_h = fake_jacobian_solve(g, theta_target(g, t_h), hyperelliptic=True)
            assert sol_h["feasible"] and sol_h["c0"] == c0, (g, sol_h)
        report(
            8,
            time.monotonic() - t0,
            1,
            "fake-Jacobian degree equations recover c0 = 2g-2 for g = 3,4,5, "
            "both flavors",
        )


class TestCriterion9AdjointObstruction:
    def test_criterion(self):
        t0 = time.monotonic()
        for g, k in ((4, 0), (4, 1), (4, 3), (6, 0)):
            m = factorial(g) // 2 - k
            if m > 12:
                m = 12  # cap the explicit character computation (g = 6 gives
                # m = 360); the decomposition statement is uniform in m
            rs = root_system("C", m)
            std_weight = tuple(1 if i == 0 else 0 for i in range(m))
            std = freudenthal_character(rs, std_weight)
            sym2 = char_sym(2, std)
            parts = decompose(sym2)
            adjoint_weight = tuple(2 if i == 0 else 0 for i in range(m))
            assert parts == {adjoint_weight: 1}, (m, parts)
            assert root_multiple_condition(rs, std_weight)
            # support of the adjoint has dimension >= g-1: the bound excludes
            # positive-dimensional summands for even g
            rec = summand_bound([g - 1], d_z=g - 1)
            assert rec["no_decomposition"] is (g % 2 == 0)
        report(
            9,
            time.monotonic() - t0,
            60,
            "symplectic adjoint Sym^2(std) is irreducible, twice a weight is "
            "a root, and the summand bound excludes decompositions for even g",
        )
