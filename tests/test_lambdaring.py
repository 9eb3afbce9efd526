import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetacycles.lambdaring import (
    FgAbelianGroup,
    GroupMismatchError,
    GroupRingElement,
    TensorConstruction,
    eval_construction,
    gr_adams,
    gr_element,
    gr_multiply,
    gr_one,
    lambda_op,
    schur_apply,
    sym_op,
)

from thetacycles.schottky import PpavInput, cc_odp

from oracles import (
    gr_adams_oracle,
    gr_add_oracle,
    gr_multiply_oracle,
    schur_apply_oracle,
    subset_exterior_power_with_add,
)

Z = FgAbelianGroup(1)
Z2 = FgAbelianGroup(0, (2,))


def elem(group, *coords, c=1):
    return gr_element(group, coords, c)


class TestGroup:
    def test_invariant_factors(self):
        FgAbelianGroup(2, (2, 4))
        with pytest.raises(ValueError):
            FgAbelianGroup(0, (4, 2))
        with pytest.raises(ValueError):
            FgAbelianGroup(0, (1,))

    def test_canonicalization(self):
        g = FgAbelianGroup(1, (3,))
        assert g.canonical((5, 7)) == (5, 1)
        assert g.canonical((-2, -1)) == (-2, 2)

    def test_json_roundtrip(self):
        g = FgAbelianGroup(2, (2, 6))
        assert FgAbelianGroup.from_json(g.to_json()) == g

    @pytest.mark.parametrize("bad", [1.5, True, "1", None])
    def test_non_integer_coordinates_rejected(self, bad):
        with pytest.raises(ValueError, match="integers"):
            FgAbelianGroup(1, (3,)).canonical((0, bad))
        with pytest.raises(ValueError, match="integers"):
            GroupRingElement(Z, {(bad,): 1})

    @pytest.mark.parametrize("bad", [1.5, 2.0, True, "1"])
    def test_non_integer_group_rejected(self, bad):
        with pytest.raises(ValueError, match="integers"):
            FgAbelianGroup(bad)
        with pytest.raises(ValueError, match="integers"):
            FgAbelianGroup(0, (bad,))

    def test_coordinate_limit(self):
        import thetacycles.lambdaring as lr

        assert FgAbelianGroup(lr.MAX_GROUP_COORDS - 1, (2,)).ncoords == lr.MAX_GROUP_COORDS
        for rank, torsion in ((lr.MAX_GROUP_COORDS, (2,)), (10**9, ())):
            with pytest.raises(ValueError, match="coordinates is over the limit of 1000000"):
                FgAbelianGroup(rank, torsion)

    def test_exterior_power_degree_checked_first(self, monkeypatch):
        import thetacycles.lambdaring as lr

        # a missing guard fails at the partition instead of making 10^12 parts
        monkeypatch.setattr(lr, "Partition", None)
        with pytest.raises(ValueError, match=r"^p\(1000000000000\) is over the limit"):
            lambda_op(10**12, elem(Z, 1))


class TestEquality:
    def test_equality_compares_group_and_coefficients(self):
        z5 = FgAbelianGroup(0, (5,))
        x = GroupRingElement(Z, {(1,): 2})
        assert x == GroupRingElement(Z, {(1,): 1}) + GroupRingElement(Z, {(1,): 1})
        assert x != GroupRingElement(Z, {(1,): 3})
        assert x != GroupRingElement(Z, {(2,): 2})
        # the same keys over another group are another element
        assert x != GroupRingElement(z5, {(1,): 2})
        assert x != x.coeffs and not x == 2


class TestMultiply:
    def test_identity(self):
        x = elem(Z, 3) + elem(Z, -1, c=2)
        assert gr_multiply(gr_one(Z), x) == x

    def test_binomial_in_laurent_ring(self):
        x = elem(Z, 1) + elem(Z, -1)
        sq = gr_multiply(x, x)
        assert sq == GroupRingElement(Z, {(2,): 1, (0,): 2, (-2,): 1})

    def test_torsion_square(self):
        x = gr_one(Z2) + elem(Z2, 1)
        sq = gr_multiply(x, x)
        assert sq == GroupRingElement(Z2, {(0,): 2, (1,): 2})

    def test_group_mismatch(self):
        with pytest.raises(GroupMismatchError):
            gr_multiply(gr_one(Z), gr_one(Z2))


class TestAdams:
    def test_identity(self):
        x = elem(Z, 1) + elem(Z, 4, c=-2)
        assert gr_adams(1, x) == x

    def test_power_map(self):
        x = elem(Z, 1) + elem(Z, -1)
        assert gr_adams(2, x) == GroupRingElement(Z, {(2,): 1, (-2,): 1})

    def test_torsion_collision(self):
        x = gr_one(Z2) + elem(Z2, 1)
        assert gr_adams(2, x) == GroupRingElement(Z2, {(0,): 2})


def random_element(rng, group, size=4, lo=-3, hi=3, coeff_lo=-2, coeff_hi=3):
    coeffs = {}
    for _ in range(size):
        g = tuple(rng.randint(lo, hi) for _ in range(group.ncoords))
        coeffs[g] = coeffs.get(g, 0) + rng.randint(coeff_lo, coeff_hi)
    return GroupRingElement(group, coeffs)


def random_effective(rng, group, size=4):
    return random_element(rng, group, size=size, coeff_lo=0, coeff_hi=2)


small_groups = st.sampled_from(
    [FgAbelianGroup(1), FgAbelianGroup(2), FgAbelianGroup(1, (2,)), FgAbelianGroup(0, (2, 4))]
)


@st.composite
def group_ring_elements(draw, effective=False):
    group = draw(small_groups)
    n = draw(st.integers(1, 4))
    coeffs = {}
    for _ in range(n):
        g = tuple(
            draw(st.integers(-3, 3)) for _ in range(group.ncoords)
        )
        lo = 0 if effective else -3
        coeffs[g] = draw(st.integers(lo, 3))
    return GroupRingElement(group, coeffs)


@st.composite
def element_pairs(draw, effective=False):
    group = draw(small_groups)
    out = []
    for _ in range(2):
        n = draw(st.integers(1, 4))
        coeffs = {}
        for _ in range(n):
            g = tuple(draw(st.integers(-3, 3)) for _ in range(group.ncoords))
            lo = 0 if effective else -3
            coeffs[g] = draw(st.integers(lo, 3))
        out.append(GroupRingElement(group, coeffs))
    return out


class TestLambdaRingAxioms:
    @given(element_pairs())
    @settings(max_examples=60, deadline=None)
    def test_adams_ring_endomorphism(self, pair):
        x, y = pair
        for n in (2, 3, 5):
            assert gr_adams(n, gr_multiply(x, y)) == gr_multiply(
                gr_adams(n, x), gr_adams(n, y)
            )
            assert gr_adams(n, x + y) == gr_adams(n, x) + gr_adams(n, y)

    @given(group_ring_elements())
    @settings(max_examples=60, deadline=None)
    def test_adams_composition(self, x):
        for m in range(1, 7):
            for n in range(1, 7):
                assert gr_adams(m, gr_adams(n, x)) == gr_adams(m * n, x)

    @given(element_pairs(effective=True))
    @settings(max_examples=40, deadline=None)
    def test_lambda_addition_axiom(self, pair):
        x, y = pair
        for k in range(5):
            lhs = lambda_op(k, x + y)
            rhs = None
            for i in range(k + 1):
                term = gr_multiply(lambda_op(i, x), lambda_op(k - i, y))
                rhs = term if rhs is None else rhs + term
            assert lhs == rhs

    @given(group_ring_elements(effective=True))
    @settings(max_examples=40, deadline=None)
    def test_dimension_count(self, x):
        d = x.coefficient_sum
        for k in range(min(d, 4) + 1):
            assert lambda_op(k, x).coefficient_sum == comb(d, k)

    @given(group_ring_elements(effective=True))
    @settings(max_examples=40, deadline=None)
    def test_exterior_powers_of_effective_are_effective(self, x):
        for k in range(4):
            assert all(c >= 0 for c in lambda_op(k, x).coeffs.values())


class TestExteriorPowerValues:
    def test_lambda2_of_three_consecutive_characters(self):
        x = elem(Z, 0) + elem(Z, 1) + elem(Z, 2)
        assert lambda_op(2, x) == GroupRingElement(Z, {(1,): 1, (2,): 1, (3,): 1})

    def test_subset_oracle_on_five_distinct_characters(self):
        rng = random.Random(7)
        for _ in range(10):
            support = rng.sample(range(-6, 7), 5)
            x = GroupRingElement(Z, {(s,): 1 for s in support})
            for k in (1, 2, 3, 4, 5):
                oracle = subset_exterior_power_with_add(
                    [(s,) for s in support], k, gr_add_oracle(Z), Z.zero()
                )
                assert lambda_op(k, x).coeffs == oracle

    def test_exterior_beyond_dimension_vanishes(self):
        x = elem(Z, 1) + elem(Z, 2)
        assert lambda_op(3, x).coeffs == {}
        assert lambda_op(5, x).coeffs == {}

    def test_multiplicities_treated_as_repeats(self):
        # lambda^2(2*x^0) = C(2,2) products = x^0 once
        x = GroupRingElement(Z, {(0,): 2})
        assert lambda_op(2, x) == gr_one(Z)

    @given(group_ring_elements())
    @settings(max_examples=40, deadline=None)
    def test_lambda_closure_on_virtual_elements(self, x):
        # Z[Gamma] is a lambda-ring: lambda operations stay integral even on
        # virtual (negative-coefficient) elements, so the integrality guard
        # never fires here (it exists for the Chern-Mather aggregates).
        for k in (2, 3):
            lambda_op(k, x)
            sym_op(k, x)


class TestSchurAndConstructions:
    def test_schur_hook_on_two_characters(self):
        # s_(2,1) of a 2-dim object is the "mixed" rep: dim count C group
        x = elem(Z, 0) + elem(Z, 1)
        s21 = schur_apply((2, 1), x)
        # dimension of s_(2,1) at 2 variables = 2 (standard tableaux count SSYT)
        assert s21.coefficient_sum == 2

    def test_sym2_plus_alt2_is_square(self):
        x = elem(Z, 1) + elem(Z, -1) + elem(Z, 2)
        assert sym_op(2, x) + lambda_op(2, x) == gr_multiply(x, x)

    def test_eval_construction(self):
        x = elem(Z, 1) + elem(Z, -1)
        y = elem(Z, 2)
        t = TensorConstruction("sum", children=(
            TensorConstruction("product", children=(
                TensorConstruction.var(0), TensorConstruction.var(1)
            )),
            TensorConstruction.schur((1, 1), TensorConstruction.var(0)),
        ))
        expect = gr_multiply(x, y) + lambda_op(2, x)
        assert eval_construction(t, [x, y]) == expect

    def test_construction_json_roundtrip(self):
        data = {"kind": "schur", "alpha": [2, 1], "child": {
            "kind": "sum", "children": [{"kind": "var", "index": 0}, {"kind": "var", "index": 1}]}}
        t = TensorConstruction.schur((2, 1), TensorConstruction("sum", children=(
            TensorConstruction.var(0), TensorConstruction.var(1))))
        assert TensorConstruction.from_json(data) == t


class TestSerialization:
    def test_element_roundtrip(self):
        g = FgAbelianGroup(1, (2,))
        x = GroupRingElement(g, {(1, 0): 2, (0, 1): -1})
        assert GroupRingElement.from_json(x.to_json()) == x

    def test_duplicate_key_rejected(self):
        data = {"group": Z.to_json(), "coeffs": [[[1], 1], [[1], 1]]}
        with pytest.raises(ValueError, match="listed twice"):
            GroupRingElement.from_json(data)

    def test_key_equal_after_reduction_rejected(self):
        data = {"group": Z2.to_json(), "coeffs": [[[1], 1], [[3], 1]]}
        with pytest.raises(ValueError, match="listed twice"):
            GroupRingElement.from_json(data)

    @pytest.mark.parametrize(
        "coeffs, message",
        [
            ([[[0, 1], 1], [[1.5, 0], 1]], r"coordinates must be integers: \(1\.5, 0\)"),
            ([[[0, 1], 1], [[1], 1]], "element length 1 != rank\\+torsion 2"),
            ([[[0, 1], 1], [[2, 3], 2.0]], r"coefficient of \(2, 1\) must be an integer: 2\.0"),
            ([[[0, 1], 1], [[0, 3], 1]], r"group element \[0, 1\] is listed twice"),
        ],
        ids=["coordinate", "length", "coefficient", "duplicate"],
    )
    def test_each_fault_named(self, coeffs, message):
        data = {"group": {"rank": 1, "torsion": [2]}, "coeffs": coeffs}
        with pytest.raises(ValueError, match=message):
            GroupRingElement.from_json(data)

    def test_key_coordinates_checked_as_is_int(self):
        class Int(int):
            pass

        g = FgAbelianGroup(1, (3,))
        assert g.canonical([Int(2), Int(5)]) == (2, 2)
        for bad in ([True, 0], [0, False], [1, 1.0], ["1", 0], [Int(1), True]):
            with pytest.raises(ValueError, match=r"coordinates must be integers: \("):
                g.canonical(bad)

    def test_loaded_keys_canonical_and_zeros_dropped(self):
        data = {"group": {"rank": 1, "torsion": [3]},
                "coeffs": [[[2, 5], 4], [[-1, -1], 0], [[0, 0], -2]]}
        x = GroupRingElement.from_json(data)
        assert x.coeffs == {(2, 2): 4, (0, 0): -2}
        assert x == GroupRingElement(x.group, {(2, 5): 4, (0, 0): -2})


class TestInputValues:
    @pytest.mark.parametrize("bad", [2.7, 1.0, True, "1", None])
    def test_non_integer_coefficients_rejected(self, bad):
        with pytest.raises(ValueError, match="integer"):
            GroupRingElement(Z, {(1,): bad})
        with pytest.raises(ValueError, match="integer"):
            GroupRingElement.from_json({"group": Z.to_json(), "coeffs": [[[1], bad]]})

    def test_keys_equal_after_reduction_sum(self):
        x = GroupRingElement(Z2, {(1,): 1, (3,): 1})
        assert x.coeffs == {(1,): 2}
        y = GroupRingElement(Z2, {(1,): 1, (3,): -1, (0,): 2})
        assert y.coeffs == {(0,): 2}


ORACLE_GROUPS = [
    FgAbelianGroup(2), FgAbelianGroup(1, (2,)), FgAbelianGroup(0, (2, 4)), FgAbelianGroup(0, (3,)),
]


@st.composite
def oracle_elements(draw, group):
    """Up to four terms with possibly non-canonical keys and negative coefficients."""
    keys = st.tuples(*[st.integers(-4, 4)] * group.ncoords)
    coeffs = draw(st.dictionaries(keys, st.integers(-3, 3), min_size=1, max_size=4))
    return GroupRingElement(group, coeffs)


# coordinates at the edges of the packed slot widths: 127 and 128 straddle
# one byte, 2^15, 2^31 and 2^63 the struct widths, 10^30 needs 13 bytes
EDGES = [127, 128, 2**15, 2**31, 2**63, 10**30]
EDGE_GROUPS = [FgAbelianGroup(1), FgAbelianGroup(2), FgAbelianGroup(1, (3,))]


def edge_element(group, e):
    """Terms at +-e and +-(e - 1) in every free coordinate, the torsion
    coordinates given unreduced."""
    coeffs = {}
    for i, v in enumerate((e, -e, e - 1, 1 - e)):
        key = tuple(v if j % 2 == i % 2 else -v for j in range(group.rank))
        coeffs[key + (v,) * len(group.torsion)] = i - 1
    return GroupRingElement(group, coeffs)


def small_element(group, *coords):
    """Unit terms at each coordinate value in every coordinate."""
    return GroupRingElement(group, {(v,) * group.ncoords: 1 for v in coords})


class TestKernelsAgainstOracle:
    """The packed kernels against the route that reduces every key and
    accumulates Fractions.  Multiplication and Adams operations must also
    keep the oracle's key order, the order of first occurrence."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_multiply_and_adams(self, data):
        group = data.draw(st.sampled_from(ORACLE_GROUPS))
        x, y = data.draw(oracle_elements(group)), data.draw(oracle_elements(group))
        assert_same_terms(gr_multiply(x, y), gr_multiply_oracle(group, x.coeffs, y.coeffs))
        for n in (-1, 0, 2, 3, 4):
            assert_same_terms(gr_adams(n, x), gr_adams_oracle(group, n, x.coeffs))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_schur_operations(self, data):
        group = data.draw(st.sampled_from(ORACLE_GROUPS))
        x = data.draw(oracle_elements(group))
        cases = [(lambda_op, k, (1,) * k) for k in (1, 2, 3, 4)]
        cases += [(sym_op, k, (k,)) for k in (2, 3)]
        for op, k, alpha in cases:
            assert op(k, x).coeffs == schur_apply_oracle(group, alpha, x.coeffs)
        assert schur_apply((2, 1), x).coeffs == schur_apply_oracle(group, (2, 1), x.coeffs)

    @pytest.mark.parametrize("e", EDGES)
    @pytest.mark.parametrize("group", EDGE_GROUPS, ids=str)
    def test_slot_width_edges(self, group, e):
        x = edge_element(group, e)
        # products reaching exactly max|x| = e, and one past it
        for y in (small_element(group, 0), small_element(group, 0, 1, -1)):
            assert_same_terms(gr_multiply(x, y), gr_multiply_oracle(group, x.coeffs, y.coeffs))
            assert_same_terms(gr_multiply(y, x), gr_multiply_oracle(group, y.coeffs, x.coeffs))
        assert_same_terms(gr_multiply(x, x), gr_multiply_oracle(group, x.coeffs, x.coeffs))
        for n in (-1, 0, 2, 3):
            assert_same_terms(gr_adams(n, x), gr_adams_oracle(group, n, x.coeffs))
        x = x + small_element(group, 1, 2)
        self.assert_schur_operations(group, x)

    @pytest.mark.parametrize(
        "group, x",
        [
            (FgAbelianGroup(0), GroupRingElement(FgAbelianGroup(0), {(): 3})),
            (FgAbelianGroup(0), GroupRingElement(FgAbelianGroup(0), {(): -2})),
            (FgAbelianGroup(0, (2, 4)),
             GroupRingElement(FgAbelianGroup(0, (2, 4)),
                              {(10**30, -(2**63)): 2, (1, 3): -1, (127, 128): 1})),
            (FgAbelianGroup(1, (3,)),
             GroupRingElement(FgAbelianGroup(1, (3,)),
                              {(-128, 10**30): 1, (127, -1): -2, (0, 0): 1})),
        ],
        ids=["rank0", "rank0-negative", "torsion-only", "mixed"],
    )
    def test_small_groups(self, group, x):
        y = x + gr_one(group)
        assert_same_terms(gr_multiply(x, y), gr_multiply_oracle(group, x.coeffs, y.coeffs))
        for n in (-1, 0, 2, 3):
            assert_same_terms(gr_adams(n, x), gr_adams_oracle(group, n, x.coeffs))
        self.assert_schur_operations(group, x)

    def test_cancelling_terms(self):
        # (x^1 - x^2)(x^1 + x^2) = x^2 - x^4: the x^3 terms cancel
        a = GroupRingElement(Z, {(1,): 1, (2,): -1})
        b = GroupRingElement(Z, {(1,): 1, (2,): 1})
        assert gr_multiply(a, b).coeffs == {(2,): 1, (4,): -1}
        # over Z/2 the lifts 0 and 2 of one key cancel: (1 + t)(1 - t) = 0
        c = GroupRingElement(Z2, {(0,): 1, (1,): 1})
        d = GroupRingElement(Z2, {(0,): 1, (1,): -1})
        assert gr_multiply(c, d).coeffs == {}
        mixed = FgAbelianGroup(1, (3,))
        for group, x in [
            (Z, a), (Z2, d), (FgAbelianGroup(0, (2, 4)),
                              GroupRingElement(FgAbelianGroup(0, (2, 4)), {(1, 1): 1, (1, 3): -1})),
            (mixed, GroupRingElement(mixed, {(1, 1): 2, (-1, 2): -2, (0, 0): 1})),
        ]:
            assert_same_terms(gr_multiply(x, x), gr_multiply_oracle(group, x.coeffs, x.coeffs))
            self.assert_schur_operations(group, x)

    def test_genus5_theta_fiber_lambda2(self):
        x = cc_odp(PpavInput(g=5, k=0, gauss_finite=True)).fiber
        out = lambda_op(2, x)
        assert len(out.coeffs) == 7081
        assert out.coeffs == schur_apply_oracle(x.group, (1, 1), x.coeffs)

    @staticmethod
    def assert_schur_operations(group, x):
        for k in (2, 3):
            assert lambda_op(k, x).coeffs == schur_apply_oracle(group, (1,) * k, x.coeffs)
        assert sym_op(2, x).coeffs == schur_apply_oracle(group, (2,), x.coeffs)
        assert schur_apply((2, 1), x).coeffs == schur_apply_oracle(group, (2, 1), x.coeffs)

    def test_non_integral_check_over_the_lcm(self, monkeypatch):
        # Z[Gamma] is a lambda-ring, so a real expansion never trips the
        # check, which guards the code and raises AssertionError; a made-up
        # one, (1/2) p_1 + (1/3) p_(1,1), trips it where the integer sum over
        # D = 6 is not divisible by 6
        import thetacycles.lambdaring as lr
        from thetacycles.symfun import SymExpr

        fake = SymExpr({(1,): Fraction(1, 2), (1, 1): Fraction(1, 3)})
        monkeypatch.setattr(lr, "schur_to_powersum", lambda alpha: fake)
        # 2*x^0: (1/2)*2 + (1/3)*4 = 7/3 at the identity
        with pytest.raises(AssertionError, match=r"coefficient 7/3 at \(0,\)"):
            schur_apply((2,), GroupRingElement(Z, {(0,): 2}))
        # 6*x^0: 3 + 12 = 15, integral
        assert schur_apply((2,), GroupRingElement(Z, {(0,): 6})).coeffs == {(0,): 15}
        # over Z/2 the check runs on projected keys: 1 + t gives 3 + 3 t from
        # p_1 and 2 (1 + 2 t + t^2) from p_(1,1), whose lift t^2 lands on 1,
        # so the identity carries (3 + 4) / 6 and not the lift's (3 + 2) / 6
        with pytest.raises(AssertionError, match=r"coefficient 7/6 at \(0,\)"):
            schur_apply((2,), GroupRingElement(Z2, {(0,): 1, (1,): 1}))


def assert_same_terms(element, oracle):
    """Equal terms, listed in the same order."""
    assert list(element.coeffs.items()) == list(oracle.items())
