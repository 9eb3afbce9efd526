import itertools
import operator
import time
from fractions import Fraction
from math import comb, factorial

import pytest

from thetacycles.chow import ChowVector
from thetacycles.cycles import (
    MAX_CYCLE_GENUS,
    CleanCycleModel,
    CycleComponent,
    degree,
    essentially_multiplicity_free,
    point_component,
)
from thetacycles.lambdaring import (
    MAX_FIBER_COORDS,
    FgAbelianGroup,
    GroupRingElement,
    TensorConstruction,
    gr_adams,
    gr_element,
    gr_multiply,
    lambda_op,
)
import thetacycles.schottky as schottky
from thetacycles.lierep import Character, char_tensor, freudenthal_character, root_system
from thetacycles.schottky import (
    MAX_M_BOUND,
    GroupDescriptor,
    PpavInput,
    alt_cm1_coefficient,
    cc_odp,
    fake_jacobian_solve,
    fourfold_table,
    fourfold_table_csv,
    genus5_obstruction,
    push_character_to_group_ring,
    s_sets,
    s_sets_from_classification,
    simplicity_criteria,
    summand_bound,
    theta_group,
    theta_target,
    verify_inverse_galois,
)

from oracles import (
    alt_cm1_by_partition_sum,
    criterion3_by_push,
    degree_equation_scan,
    elementary_by_exponential_series,
    generalized_binomial,
    multiplicity_free_by_push,
    push_character_oracle,
)

# the PpavInput flags cc_odp reads besides g and k, every combination
ODP_FLAGS = [
    dict(zip(("double_points_sum_zero", "pairwise_torsion_independent", "gauss_finite"), on))
    for on in itertools.product((False, True), repeat=3)
]


def odp_inputs():
    """PpavInput for g = 2..6, k = 0, 1, 2 where g! > 2k, and every flag
    combination."""
    return [
        PpavInput(g=g, k=k, **flags)
        for g in range(2, 7) for k in (0, 1, 2) if factorial(g) > 2 * k
        for flags in ODP_FLAGS
    ]


def oracle_simplicity_records(c, label, m_max):
    """simplicity_criteria's records for m_bound = 1..m_max, criterion 3 from
    pushing the whole cycle and criterion 4 from pushing the fiber by every
    n = 1..torsion exponent."""
    div = c.component(label)
    total_degree = sum(comp.mult * comp.gauss_degree for comp in c.components)
    crit1 = Fraction(div.mult * div.gauss_degree) > Fraction(total_degree, 3)
    crit2 = all(comp.dim == 0 for comp in c.components if comp.label != label)
    group, x = c.fiber.group, c.fiber.coeffs
    crit4 = multiplicity_free_by_push(group, x)
    checked = None
    if div.gauss_finite:
        checked = criterion3_by_push(
            [(comp.mult, list(comp.cm.coords)) for comp in c.components],
            c.g, (group, x), (div.mult, list(div.cm.coords)), m_max)
    records = []
    for m_bound in range(1, m_max + 1):
        crit3 = None if checked is None else all(checked[:m_bound])
        note = ("gauss map not finite; criterion unavailable" if crit3 is None
                else f"verified up to m = {m_bound}, not proved" if crit3 else "failed")
        records.append({
            "criterion_1_degree_dominance": crit1,
            "criterion_2_isolated_companions": crit2,
            "criterion_3_not_a_self_convolution": crit3,
            "criterion_3_note": note,
            "criterion_4_essentially_multiplicity_free": crit4,
            "established": bool(crit1 or crit2 or crit4),
        })
    return records


class TestSSets:
    def test_small_members(self):
        sm, sp = s_sets(100)
        assert {2, 4, 20, 32, 56, 64} <= set(sm)
        assert {6, 7, 8, 16, 70} <= set(sp)

    def test_bound_five(self):
        sm, sp = s_sets(5)
        assert sm == [2, 4]
        assert sp == []

    def test_disjoint_and_sorted(self):
        sm, sp = s_sets(10000)
        assert not set(sm) & set(sp)
        assert sm == sorted(sm) and sp == sorted(sp)

    def test_central_binomials_up_to_a_huge_bound(self):
        # C(2n, n) is updated in place; every one up to the bound is listed
        bound = 10**300
        sm, sp = s_sets(bound)
        central = [comb(2 * n, n) for n in range(1, 600)]
        assert max(sm + sp) <= bound
        for n, c in enumerate(central, start=1):
            if c <= bound:
                assert c in (sm if n % 2 else sp), n

    def test_matches_classification_extraction_small(self):
        # the full bound-10000 comparison runs in the acceptance suite
        assert s_sets(300) == s_sets_from_classification(300, 9)


class TestPpavInput:
    def test_gauss_degree_must_be_positive(self):
        PpavInput(g=4, k=11)  # 24 - 22 = 2
        PpavInput(g=1, k=0)
        for g, k in [(4, 12), (2, 1), (1, 1), (5, 60)]:
            with pytest.raises(ValueError, match=f"g! - 2k must be positive, got g = {g}, k = {k}"):
                PpavInput(g=g, k=k)

    def test_huge_genus_checked_at_once(self, monkeypatch):
        # the factorial is built only until it passes 2k (29 factors for
        # k = 10**30), never as g!
        monkeypatch.setattr(schottky, "factorial", None)
        start = time.perf_counter()
        PpavInput(g=10**9, k=10**30)
        with pytest.raises(ValueError, match="^g! - 2k must be positive, got g = 28, k = 10{30}$"):
            PpavInput(g=28, k=10**30)
        assert time.perf_counter() - start < 1


class TestCcOdp:
    def test_genus4_examples(self):
        assert degree(cc_odp(PpavInput(g=4, k=1))) == 22
        assert degree(cc_odp(PpavInput(g=4, k=0))) == 24

    def test_genus5_with_points(self):
        c = cc_odp(PpavInput(g=5, k=2, double_points_sum_zero=True))
        assert degree(c) == 118
        assert [comp.label for comp in c.components] == ["theta", "e1", "e2"]
        assert c.components[0].gauss_degree == 116
        assert c.fiber.coefficient_sum == 118

    def test_even_genus_has_no_point_components(self):
        c = cc_odp(PpavInput(g=4, k=3))
        assert len(c.components) == 1

    def test_divisor_cm_profile(self):
        c = cc_odp(PpavInput(g=5, k=0))
        cm = c.components[0].cm
        assert cm.coords[0] == 120
        assert cm.coords[1] == 24  # [Theta]^4 = 24 mu_1
        assert cm.coords[4] == 1  # [Theta] itself

    def test_gauss_degree_must_be_positive(self):
        with pytest.raises(ValueError):
            cc_odp(PpavInput(g=2, k=1))

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric theta divisor"):
            cc_odp(PpavInput(g=4, k=1, symmetric=False))

    @pytest.mark.parametrize("g", [8, 9, 100])
    def test_oversized_fiber_refused(self, g):
        with pytest.raises(ValueError, match="over the limit of"):
            cc_odp(PpavInput(g=g, k=1))

    def test_fiber_limit_admits_genus_7(self):
        assert factorial(7) * (factorial(7) // 2) <= MAX_FIBER_COORDS
        assert factorial(8) * (factorial(8) // 2) > MAX_FIBER_COORDS

    def test_fiber_keys_are_canonical(self, monkeypatch):
        fibers = [cc_odp(p).fiber for p in odp_inputs()]
        for fiber in fibers:
            assert fiber == GroupRingElement(fiber.group, dict(fiber.coeffs))

        def canonical(self, element):
            raise AssertionError("cc_odp re-canonicalized a key")

        monkeypatch.setattr(FgAbelianGroup, "canonical", canonical)
        assert [cc_odp(p).fiber for p in odp_inputs()] == fibers

    def test_fiber_keys_ascend(self):
        # cc_odp builds its fiber in key order, as GroupRingElement._of requires.
        # A genus-7 fiber takes about 0.3 s; at k = 2 the flags reach every
        # kind of double point: 2-torsion, +/- pairs and free generators
        cases = [(g, k) for g in range(2, 7) for k in range(4) if factorial(g) > 2 * k]
        for g, k in cases + [(7, 2)]:
            for flags in ODP_FLAGS:
                keys = list(cc_odp(PpavInput(g=g, k=k, **flags)).fiber.coeffs)
                assert all(map(operator.lt, keys, keys[1:])), (g, k, flags)

    def test_torsion_fiber_collides(self):
        c = cc_odp(
            PpavInput(
                g=5, k=2,
                double_points_sum_zero=False,
                pairwise_torsion_independent=False,
            )
        )
        assert not essentially_multiplicity_free(c)
        c2 = cc_odp(PpavInput(g=5, k=2, double_points_sum_zero=True))
        assert essentially_multiplicity_free(c2)


class TestThetaGroup:
    def test_even_genus(self):
        assert theta_group(PpavInput(g=4, k=1)).label == "Sp22"
        assert theta_group(PpavInput(g=4, k=0)).label == "Sp24"
        assert theta_group(PpavInput(g=6, k=5)).label == "Sp710"

    def test_exceptional_dimension(self):
        out = theta_group(PpavInput(g=4, k=2))
        assert out.family == "undetermined"
        assert "20" in out.note

    def test_odd_genus_sum_rule(self):
        sum_zero = PpavInput(g=5, k=2, double_points_sum_zero=True)
        sum_nonzero = PpavInput(g=5, k=2, double_points_sum_zero=False)
        assert theta_group(sum_zero).label == "SO118"
        assert theta_group(sum_nonzero).label == "O118"

    def test_torsion_difference_case(self):
        # two 2-torsion double points: handled via the quasi-minuscule search
        p = PpavInput(
            g=5, k=2, double_points_sum_zero=False, pairwise_torsion_independent=False
        )
        assert theta_group(p).label == "O118"
        p0 = PpavInput(
            g=5, k=2, double_points_sum_zero=True, pairwise_torsion_independent=False
        )
        assert theta_group(p0).label == "SO118"

    def test_torsion_unhandled_elsewhere(self):
        p = PpavInput(
            g=7, k=3, double_points_sum_zero=False, pairwise_torsion_independent=False
        )
        assert theta_group(p).family == "undetermined"

    def test_smooth_odd(self):
        assert theta_group(PpavInput(g=5, k=0)).label == "SO120"

    def test_requires_symmetric(self):
        assert theta_group(PpavInput(g=4, k=0, symmetric=False)).family == "undetermined"

    def test_genus_one_refused(self):
        # as theta_target and cc_odp refuse it, whatever the hypotheses
        for symmetric in (True, False):
            with pytest.raises(ValueError, match="a theta divisor needs g >= 2, got g = 1"):
                theta_group(PpavInput(g=1, symmetric=symmetric))

    def test_parity_matches_frobenius_schur_type(self):
        # even genus gives symplectic families, odd genus orthogonal ones
        for g in (4, 6):
            for k in (0, 1, 3):
                out = theta_group(PpavInput(g=g, k=k))
                assert out.family in ("Sp", "undetermined")
        for g in (3, 5, 7):
            for k in (0, 1, 2):
                out = theta_group(PpavInput(g=g, k=k, double_points_sum_zero=(k == 0)))
                assert out.family in ("SO", "O", "undetermined")

    def test_descriptor_validation(self):
        with pytest.raises(ValueError):
            GroupDescriptor("Sp", size=7)
        for family in ("Sp", "SO", "O"):
            with pytest.raises(ValueError, match=f"{family} needs a positive size"):
                GroupDescriptor(family, size=0)
        for family in ("Banana", "SL_mod_mu", "E6", "E7", "G2"):
            with pytest.raises(ValueError, match="unknown family"):
                GroupDescriptor(family, size=4)

    def test_descriptor_json_keeps_mu(self):
        assert GroupDescriptor("Sp", size=20, note="n").to_json() == {
            "family": "Sp", "size": 20, "mu": None, "note": "n", "label": "Sp20"}

    def test_gauss_finite_decides_dimension_20(self):
        finite = theta_group(PpavInput(g=4, k=2, gauss_finite=True))
        assert (finite.label, finite.note) == ("Sp20", "assuming the Gauss map is finite")
        assert theta_group(PpavInput(g=4, k=2)).family == "undetermined"
        # away from dimension 20 the flag changes nothing
        for k in (0, 1, 3, 10):
            assert theta_group(PpavInput(g=4, k=k)) == theta_group(
                PpavInput(g=4, k=k, gauss_finite=True))

    def test_dimension_4_is_sp4(self):
        for g, k in [(4, 10), (6, 358)]:
            out = theta_group(PpavInput(g=g, k=k))
            assert (out.label, out.note) == ("Sp4", "dimension-4 alternative is Sp4 itself")
        # neither rule is widened: 2, 20 and 32 stay exceptional in genus 6
        for k in (359, 350, 344):
            p = PpavInput(g=6, k=k, gauss_finite=True)
            assert theta_group(p).family == "undetermined"

    def test_genus_over_the_limit_refused(self, monkeypatch):
        # refused before g! or the exceptional sets are formed
        monkeypatch.setattr(schottky, "factorial", None)
        monkeypatch.setattr(schottky, "s_sets", None)
        for g in (MAX_CYCLE_GENUS + 1, 10**9):
            with pytest.raises(ValueError, match=f"at g = {g} is over the limit of g <= 100"):
                theta_group(PpavInput(g=g))

    def test_genus_limit_is_inclusive(self):
        out = theta_group(PpavInput(g=MAX_CYCLE_GENUS, k=1))
        assert out.label == f"Sp{factorial(MAX_CYCLE_GENUS) - 2}"

    def test_too_many_double_points_rejected(self):
        with pytest.raises(ValueError):
            theta_group(PpavInput(g=3, k=3))
        with pytest.raises(ValueError):
            theta_group(PpavInput(g=2, k=1))

    def test_fourfold_rows_read_theta_group(self):
        tn = {r["stratum"]: r for r in fourfold_table()["rows"]}["Theta_null^k"]
        assert [i["k"] for i in tn["instances"]] == list(range(1, 11))
        for row in tn["instances"]:
            grp = theta_group(PpavInput(4, row["k"], gauss_finite=True))
            assert (row["group"], row["note"]) == (grp.label, grp.note)


class TestGenus5:
    def test_full_coefficient_chain(self):
        rec = genus5_obstruction(PpavInput(g=5, k=0))
        assert rec["c0"] == 8
        coeffs = rec["partition_cm1_coefficients"]
        assert coeffs == {
            "1,1,1,1": "2048",
            "2,1,1": "384",
            "2,2": "64",
            "3,1": "80",
            "4": "16",
        }
        assert rec["alt4_coefficient"] == "20"
        # the listed products, weighted by e_4 in power sums, give the formula
        e4 = elementary_by_exponential_series(4)
        assert sum(m * Fraction(coeffs[",".join(map(str, beta))]) for beta, m in e4.items()) == 20
        assert rec["left_side"]["coords"][1] == "384"
        assert rec["c1_coefficient"] == "96/5"
        assert rec["integral"] is False
        assert "excluded" in rec["verdict"]

    def test_alt_coefficient_against_partition_sum(self):
        # the closed form C(c0 - 2, j - 1), a generalized binomial for c0 < 2,
        # against the sum over the power-sum expansion of e_j
        for j in range(13):
            for c0 in range(40):
                value = alt_cm1_coefficient(j, c0)
                assert type(value) is Fraction
                assert value == alt_cm1_by_partition_sum(j, c0), (j, c0)
                if j:
                    assert value == generalized_binomial(c0 - 2, j - 1), (j, c0)
        assert alt_cm1_coefficient(4, 8) == comb(6, 3) == 20
        for j, c0 in ((-1, 8), (4, -1)):
            with pytest.raises(ValueError, match="must be nonnegative"):
                alt_cm1_coefficient(j, c0)

    def test_alt4_combination(self):
        # (1/24)(2048 - 6*384 + 3*64 + 8*80 - 6*16) = 20
        assert alt_cm1_coefficient(4, 8) == Fraction(
            2048 - 6 * 384 + 3 * 64 + 8 * 80 - 6 * 16, 24
        )
        assert alt_cm1_coefficient(4, 8) == 20

    def test_verdict_depends_only_on_integrality(self, monkeypatch):
        # a target whose degree-1 class happens to be divisible gives the
        # complementary verdict through the same solver
        sol = fake_jacobian_solve(5, theta_target(5, 70, Fraction(20)))
        assert (sol["c1_coefficient"], sol["c1_integral"]) == ("16", True)
        monkeypatch.setattr(schottky, "fake_jacobian_solve", lambda g, target: sol)
        rec = genus5_obstruction(PpavInput(g=5, k=0))
        assert rec["c1_coefficient"] == "16"
        assert rec["integral"] is True
        assert "no obstruction" in rec["verdict"]

    def test_k_independence(self):
        # double points do not change the degree-1 class
        assert (
            genus5_obstruction(PpavInput(g=5, k=3))["c1_coefficient"] == "96/5"
        )

    def test_wrong_genus(self):
        with pytest.raises(ValueError):
            genus5_obstruction(PpavInput(g=4, k=0))


class TestFakeJacobian:
    @pytest.mark.parametrize(
        "g,hyp,target,expected_c0",
        [
            (3, False, comb(4, 2), 4),
            (3, True, comb(4, 2) - comb(4, 0), 4),
            (4, False, comb(6, 3), 6),
            (4, True, comb(6, 3) - comb(6, 1), 6),
            (5, False, comb(8, 4), 8),
            (5, True, comb(8, 4) - comb(8, 2), 8),
        ],
    )
    def test_degree_equation(self, g, hyp, target, expected_c0):
        sol = fake_jacobian_solve(g, theta_target(g, target), hyperelliptic=hyp)
        assert sol["feasible"] and sol["c0"] == expected_c0
        assert sol["e"] == (2 if (hyp and g % 2 == 1) else 1 if hyp else g - 1)

    def test_target_of_another_genus_refused(self):
        with pytest.raises(ValueError, match="target cycle has the wrong dimension"):
            fake_jacobian_solve(5, theta_target(4, 20))

    def test_infeasible_degree(self):
        sol = fake_jacobian_solve(5, theta_target(5, 69))
        assert sol["feasible"] is False
        assert "no integer c0" in sol["reason"]

    def test_genus5_c1_layer(self):
        sol = fake_jacobian_solve(5, theta_target(5, 70))
        assert sol["c1_coefficient"] == "96/5"
        assert sol["c1_integral"] is False

    def test_higher_layers_unconstrained(self):
        sol = fake_jacobian_solve(4, theta_target(4, 20))
        assert sol["higher_layers"] == "unconstrained"

    @pytest.mark.parametrize("hyp", [False, True], ids=["jacobian", "hyperelliptic"])
    def test_c0_against_linear_scan(self, hyp):
        for g in range(3, 8):
            scan = degree_equation_scan(g, hyp, 2000)
            for t in range(1, 2001):
                sol = fake_jacobian_solve(g, theta_target(g, t), hyperelliptic=hyp)
                assert sol["feasible"] is bool(scan[t]), (g, t)
                if scan[t]:
                    assert (sol["c0"], sol["c0_candidates"]) == (scan[t][0], scan[t]), (g, t)

    def test_huge_degree_returns_quickly(self):
        start = time.perf_counter()
        sol = fake_jacobian_solve(3, theta_target(3, 10**11))
        assert time.perf_counter() - start < 1.0
        assert sol["feasible"] is False  # C(c0, 2) skips 10^11
        sol = fake_jacobian_solve(3, theta_target(3, comb(10**6, 2)))
        assert sol["c0_candidates"] == [10**6]

    @pytest.mark.parametrize("hyp", [False, True], ids=["jacobian", "hyperelliptic"])
    def test_huge_degree_bracketed_by_doubling(self, monkeypatch, hyp):
        # the solution is bracketed by doubling before it is bisected, so a
        # 4,000-digit degree costs a few times log2(c0) ~ 700 evaluations of
        # the degree polynomial, not the 13,000 of a bisection over
        # [rise, t + 2g + 3) on 4,000-digit arguments
        calls = []

        def counting_comb(n, k):
            calls.append(n)
            return comb(n, k)

        monkeypatch.setattr(schottky, "comb", counting_comb)
        per_eval = 2 if hyp else 1
        t = 10**4000 - 1
        sol = fake_jacobian_solve(20, theta_target(20, t), hyperelliptic=hyp)
        assert sol["feasible"] is False and sol["target_degree"] == t
        assert len(calls) <= per_eval * (40 + 2 * max(calls).bit_length())
        assert max(calls) < 10**215
        calls.clear()
        c0 = 10**200
        t = comb(c0, 19) - (comb(c0, 17) if hyp else 0)
        sol = fake_jacobian_solve(20, theta_target(20, t), hyperelliptic=hyp)
        assert sol["c0_candidates"] == [c0]
        assert len(calls) <= per_eval * (40 + 2 * c0.bit_length() + 2)

    def test_genus_over_the_limit_refused(self, monkeypatch):
        # refused before the divisor's Chern-Mather class is formed
        monkeypatch.setattr(schottky, "_theta_cm", None)
        for g in (MAX_CYCLE_GENUS + 1, 10**6):
            with pytest.raises(ValueError, match=f"at g = {g} is over the limit of g <= 100"):
                theta_target(g, 5)

    def test_genus_limit_is_inclusive(self):
        sol = fake_jacobian_solve(MAX_CYCLE_GENUS, theta_target(MAX_CYCLE_GENUS, 5))
        assert sol["g"] == MAX_CYCLE_GENUS


class TestSummandBound:
    def test_jacobian_curve_summands_allowed(self):
        # Ad = delta_(C-C): support dimension 2, delta = 1
        rec = summand_bound([2], d_z=3)
        assert rec["delta"] == "1"
        assert rec["no_decomposition"] is False

    def test_cubic_threefold(self):
        # support dim 4 = g-1 for g=5: delta = 2 = Fano surface dimension
        rec = summand_bound([4], d_z=4)
        assert rec["delta"] == "2"
        assert rec["no_decomposition"] is False

    def test_even_genus_exclusion(self):
        # min positive support dim g-1 with d_z = g-1 and g even
        g = 6
        rec = summand_bound([g - 1, 0], d_z=g - 1)
        assert rec["delta"] == "5/2"
        assert rec["no_decomposition"] is True

    def test_vacuous(self):
        rec = summand_bound([0, 0], d_z=3)
        assert rec["vacuous"] is True
        assert rec["no_decomposition"] is False

    @pytest.mark.parametrize("dims,d_z", [([3], -1), ([-1, 2], 3), ([], -2)])
    def test_negative_dimension_refused(self, dims, d_z):
        with pytest.raises(ValueError, match="dimensions must be nonnegative"):
            summand_bound(dims, d_z=d_z)


class TestSimplicity:
    @pytest.mark.parametrize("m_bound", [0, -1])
    def test_m_bound_below_one_refused(self, m_bound):
        c = cc_odp(PpavInput(g=4, k=0, gauss_finite=True))
        with pytest.raises(ValueError, match=f"m_bound must be >= 1, got {m_bound}"):
            simplicity_criteria(c, "theta", m_bound=m_bound)

    def test_m_bound_over_limit_refused(self, monkeypatch):
        c = cc_odp(PpavInput(g=4, k=0, gauss_finite=True))
        # a missing guard fails at the first push instead of running 10^8 of them
        monkeypatch.setattr(schottky, "pushforward_n", None)
        for m_bound in (MAX_M_BOUND + 1, 10**8):
            with pytest.raises(ValueError, match=f"m_bound {m_bound} is over the limit"):
                simplicity_criteria(c, "theta", m_bound=m_bound)

    def test_m_bound_limit_admitted(self):
        c = cc_odp(PpavInput(g=6, k=1, gauss_finite=True))
        rec = simplicity_criteria(c, "theta", m_bound=MAX_M_BOUND)
        assert rec["criterion_3_note"] == f"verified up to m = {MAX_M_BOUND}, not proved"

    def test_m_bound_limit_at_genus_100(self):
        # one comparison decides criterion 3 for every m; a loop over m took
        # 2.9 s to m = 100 on this cycle (Python 3.11, 2 vCPU)
        fiber = GroupRingElement(FgAbelianGroup(1), {(i,): 1 for i in range(5)})
        c = CleanCycleModel(100, theta_target(100, 5).components, fiber=fiber)
        start = time.perf_counter()
        rec = simplicity_criteria(c, "theta", m_bound=MAX_M_BOUND)
        assert time.perf_counter() - start < 1
        assert rec["criterion_3_note"] == f"verified up to m = {MAX_M_BOUND}, not proved"
        expected = oracle_simplicity_records(c, "theta", 3)
        assert [simplicity_criteria(c, "theta", m_bound=m) for m in range(1, 4)] == expected

    def test_records_match_pushing_oracle(self):
        for p in odp_inputs():
            c = cc_odp(p)
            expected = oracle_simplicity_records(c, "theta", 4)
            got = [simplicity_criteria(c, "theta", m_bound=m) for m in range(1, 5)]
            assert got == expected, p

    def test_hand_built_cycle_matches_pushing_oracle(self):
        # a divisor of mult 2 and points of mult 3 and 1 over a group with
        # 2-torsion: degree 2 * 4 + 3 + 1 = 12
        cm = ChowVector(3, (Fraction(4), Fraction(2), Fraction(1)))
        theta = CycleComponent("theta", dim=2, mult=2, cm=cm, gauss_finite=True)
        e1 = CycleComponent("e1", dim=0, mult=3, cm=ChowVector.point(3), gauss_finite=True)
        comps = (theta, e1, point_component(3, "e2"))
        group = FgAbelianGroup(1, (2,))
        fibers = [
            {(1, 0): 2, (-1, 0): 2, (0, 1): 3, (2, 1): 1, (1, 1): 4},  # not reduced
            {(i, t): 1 for i in range(-3, 3) for t in (0, 1)},  # collides under [2]
            {(i, 0): 1 for i in range(-6, 6)},  # torsion-free support
        ]
        crit4 = []
        for coeffs in fibers:
            c = CleanCycleModel(3, comps, fiber=GroupRingElement(group, coeffs))
            for m_bound, expected in enumerate(oracle_simplicity_records(c, "theta", 4), 1):
                assert simplicity_criteria(c, "theta", m_bound=m_bound) == expected
            crit4.append(expected["criterion_4_essentially_multiplicity_free"])
            divisor_first = CleanCycleModel(3, comps[::-1], fiber=c.fiber)
            assert simplicity_criteria(divisor_first, "theta") == expected
        assert crit4 == [False, False, True]

    @pytest.mark.parametrize("mult, points", [(0, 3), (0, 0), (-1, 3)])
    def test_criterion3_with_a_zero_or_negative_divisor(self, mult, points):
        # mult 0 makes the divisor's side the zero vector, which the cycle's
        # total matches when no point carries degree; mult -1 makes both
        # sides virtual
        cm = ChowVector(3, (Fraction(4), Fraction(2), Fraction(1)))
        theta = CycleComponent("theta", dim=2, mult=mult, cm=cm, gauss_finite=True)
        e1 = CycleComponent("e1", dim=0, mult=points, cm=ChowVector.point(3), gauss_finite=True)
        fiber = {(1, 0): 1, (0, 1): 4 * mult + points - 1}  # coefficient sum = degree
        c = CleanCycleModel(3, (theta, e1),
                            fiber=GroupRingElement(FgAbelianGroup(1, (2,)), fiber))
        expected = oracle_simplicity_records(c, "theta", 4)
        assert [simplicity_criteria(c, "theta", m_bound=m) for m in range(1, 5)] == expected
        verdicts = {r["criterion_3_not_a_self_convolution"] for r in expected}
        assert verdicts == ({False} if points == 0 else {True})

    def test_self_convolution_fails_criterion_3(self):
        # [2m]_* of theta + 2 points has the Chern-Mather total of the square
        # of [m]_* theta when theta has cm = (2, e): both are (4, 4 m^2 e)
        theta = CycleComponent("theta", dim=1, mult=1, cm=ChowVector(2, (2, 1)),
                               gauss_finite=True)
        e1 = CycleComponent("e1", dim=0, mult=2, cm=ChowVector.point(2), gauss_finite=True)
        fiber = GroupRingElement(FgAbelianGroup(1), {(1,): 1, (-1,): 1, (0,): 2})
        c = CleanCycleModel(2, (theta, e1), fiber=fiber)
        expected = oracle_simplicity_records(c, "theta", 4)
        assert [simplicity_criteria(c, "theta", m_bound=m) for m in range(1, 5)] == expected
        assert {r["criterion_3_note"] for r in expected} == {"failed"}

    def test_no_cycle_pushes_a_fiber(self, monkeypatch):
        def gr_adams(n, x):
            raise AssertionError(f"Psi^{n} of a fiber")

        monkeypatch.setattr("thetacycles.cycles.gr_adams", gr_adams)
        monkeypatch.setattr("thetacycles.schottky.gr_adams", gr_adams)
        for p in (PpavInput(g=6, k=1, gauss_finite=True),
                  PpavInput(g=5, k=2, double_points_sum_zero=True, gauss_finite=True)):
            rec = simplicity_criteria(cc_odp(p), "theta", m_bound=4)
            assert rec["criterion_4_essentially_multiplicity_free"] is True
        # the torsion-dependent double points collide under [2]
        torsion = cc_odp(PpavInput(g=5, k=2, pairwise_torsion_independent=False))
        assert torsion.fiber.group.torsion
        rec = simplicity_criteria(torsion, "theta")
        assert rec["criterion_4_essentially_multiplicity_free"] is False

    def test_genus5_odp_cycle(self):
        c = cc_odp(PpavInput(g=5, k=2, double_points_sum_zero=True, gauss_finite=True))
        rec = simplicity_criteria(c, "theta")
        assert rec["criterion_1_degree_dominance"] is True  # 116 > 118/3
        assert rec["criterion_2_isolated_companions"] is True
        assert rec["criterion_3_not_a_self_convolution"] is True
        assert rec["criterion_4_essentially_multiplicity_free"] is True
        assert rec["established"] is True

    def test_criterion3_needs_finiteness(self):
        c = cc_odp(PpavInput(g=5, k=2, double_points_sum_zero=True, gauss_finite=False))
        rec = simplicity_criteria(c, "theta")
        assert rec["criterion_3_not_a_self_convolution"] is None

    def test_criterion4_needs_fiber(self):
        c = cc_odp(PpavInput(g=4, k=0, gauss_finite=True))
        stripped = CleanCycleModel(g=4, components=c.components)
        with pytest.raises(ValueError):
            simplicity_criteria(stripped, "theta")

    def test_divisor_label_checked(self):
        c = cc_odp(PpavInput(g=4, k=0))
        with pytest.raises(KeyError):
            simplicity_criteria(c, "nonexistent")


class TestFourfoldTable:
    def test_matches_table_one(self):
        table = fourfold_table()
        by_stratum = {r["stratum"]: r for r in table["rows"]}
        sm = by_stratum["A4_smooth"]
        assert (sm["gauss_degree"], sm["dim_omega"], sm["weight"], sm["group"]) == (
            24, 24, "w1", "Sp24",
        )
        nh = by_stratum["J4_nonhyperelliptic"]
        assert (nh["gauss_degree"], nh["dim_omega"], nh["weight"], nh["group"]) == (
            20, 20, "w3", "Sl6/mu3",
        )
        h = by_stratum["J4_hyperelliptic"]
        assert (h["gauss_degree"], h["dim_omega"], h["weight"], h["group"]) == (
            8, 14, "w3", "Sp6",
        )
        tn = by_stratum["Theta_null^k"]
        assert tn["group"] == "Sp_{24-2k}"
        assert [i["gauss_degree"] for i in tn["instances"]] == [
            24 - 2 * k for k in range(1, 11)
        ]
        assert all(i["group"] == f"Sp{24 - 2 * i['k']}" for i in tn["instances"])

    def test_degree_equals_dim_except_hyperelliptic(self):
        table = fourfold_table()
        for row in table["rows"]:
            if row["stratum"] == "J4_hyperelliptic":
                assert row["gauss_degree"] != row["dim_omega"]
                assert (row["gauss_degree"], row["dim_omega"]) == (8, 14)
            elif row["stratum"] != "Theta_null^k":
                assert row["gauss_degree"] == row["dim_omega"]

    def test_csv(self):
        csv = fourfold_table_csv(fourfold_table())
        assert csv.splitlines()[0] == "stratum,gauss_degree,dim_omega,weight,group"
        assert len(csv.strip().splitlines()) == 5


class TestInverseGalois:
    def test_definitional_lambda2(self):
        grp = FgAbelianGroup(1)
        lam = gr_element(grp, (1,)) + gr_element(grp, (-1,)) + gr_element(grp, (2,))
        target = lambda_op(2, lam)
        S = TensorConstruction.schur((1, 1), TensorConstruction.var(0))
        assert verify_inverse_galois(target, S, 1, [lam])

    def test_adams_shift(self):
        grp = FgAbelianGroup(1)
        target = gr_element(grp, (1,)) + gr_element(grp, (-1,))
        cand = gr_element(grp, (2,)) + gr_element(grp, (-2,))
        S = TensorConstruction.var(0)
        assert verify_inverse_galois(target, S, 2, [cand])

    def test_degree_mismatch_fails(self):
        grp = FgAbelianGroup(1)
        target = gr_element(grp, (1,)) + gr_element(grp, (-1,))
        cand = gr_element(grp, (2,))
        S = TensorConstruction.var(0)
        assert not verify_inverse_galois(target, S, 2, [cand])

    def test_group_mismatch_rejected(self):
        a = gr_element(FgAbelianGroup(1), (0,))
        b = gr_element(FgAbelianGroup(2), (0, 0))
        with pytest.raises(ValueError):
            verify_inverse_galois(a, TensorConstruction.var(0), 1, [b])


class TestWeightDictionary:
    def test_pushforward_is_multiplicative(self):
        # the commutative square at the fiber level: pushing characters into
        # a group ring intertwines tensor product and convolution
        rs = root_system("B2")
        x = freudenthal_character(rs, (1, 0))
        y = freudenthal_character(rs, (0, 1))
        grp = FgAbelianGroup(2)
        images = [(1, 0), (0, 1)]
        fx = push_character_to_group_ring(x, grp, images)
        fy = push_character_to_group_ring(y, grp, images)
        fxy = push_character_to_group_ring(char_tensor(x, y), grp, images)
        assert fxy == gr_multiply(fx, fy)
        assert fx.coefficient_sum == x.dimension
        with pytest.raises(ValueError, match="need one image per fundamental-weight"):
            push_character_to_group_ring(x, grp, images[:1])

    def test_pushforward_against_oracle_on_torsion(self):
        # image coordinates up to 5 times weight coordinates up to 3 pass
        # the torsion orders 3 and 6, so keys meet only after reduction
        grp = FgAbelianGroup(1, (3, 6))
        for name, lam, images in [
            ("A2", (2, 1), [(1, 2, 5), (-2, 1, 4)]),
            ("B2", (1, 1), [(0, 2, 5), (3, 2, 3)]),
            ("G2", (1, 0), [(1, 1, 1), (0, 2, 5)]),
        ]:
            x = freudenthal_character(root_system(name), lam)
            got = push_character_to_group_ring(x, grp, images)
            assert got.coeffs == push_character_oracle(grp, x.weights, images), name
            assert got.coefficient_sum == x.dimension

    def test_pushforward_commutes_with_adams(self):
        rs = root_system("A2")
        x = freudenthal_character(rs, (1, 1))
        grp = FgAbelianGroup(1, (2,))
        images = [(1, 0), (1, 1)]
        fx = push_character_to_group_ring(x, grp, images)
        for n in (2, 3):
            # Psi^n of a character: each weight scaled by n
            psi = Character(rs, {tuple(n * v for v in w): m for w, m in x.weights.items()})
            lhs = push_character_to_group_ring(psi, grp, images)
            assert lhs == gr_adams(n, fx)
