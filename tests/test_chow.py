from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetacycles.chow import (
    ChowVector,
    pontryagin,
    pushforward_n,
    theta_power,
)


def vec(g, *coords):
    return ChowVector(g, tuple(Fraction(c) for c in coords))


@st.composite
def chow_vectors(draw, g=None):
    if g is None:
        g = draw(st.integers(2, 6))
    coords = tuple(
        Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
        for _ in range(g)
    )
    return ChowVector(g, coords)


@st.composite
def chow_triples(draw):
    g = draw(st.integers(2, 6))
    return tuple(draw(chow_vectors(g=g)) for _ in range(3))


class TestBasics:
    def test_point_degree(self):
        x = ChowVector.point(5, 3)
        assert x.coords[0] == 3

    def test_zero_integral_effective(self):
        z = ChowVector.zero(4)
        assert z.is_integral() and z.is_effective()

    def test_non_integral(self):
        x = ChowVector.monomial(5, 1, Fraction(96, 5))
        assert not x.is_integral()

    def test_json_roundtrip(self):
        x = vec(3, 2, Fraction(1, 3), -1)
        assert x.to_json() == {"g": 3, "coords": ["2", "1/3", "-1"]}

    def test_equality_compares_g_and_coordinates(self):
        x = vec(3, 2, Fraction(1, 3), -1)
        assert x == ChowVector(3, (2, Fraction(1, 3), -1))  # ints become Fractions
        assert x != vec(3, 2, Fraction(1, 3), 1)
        assert ChowVector.zero(2) != ChowVector.zero(3)
        assert x != x.coords and not x == [3]

    def test_refusals(self):
        with pytest.raises(ValueError, match="g must be >= 1"):
            ChowVector(0, ())
        with pytest.raises(ValueError, match="index 3 out of range for g=3"):
            ChowVector.monomial(3, 3)
        with pytest.raises(ValueError, match="dimension mismatch: g=3 vs g=4"):
            ChowVector.zero(3) + ChowVector.zero(4)
        with pytest.raises(ValueError, match=r"d_trunc must be in \[1, 2\], got 0"):
            pontryagin(ChowVector.zero(3), ChowVector.zero(3), 0)

    def test_zero_has_no_top_index(self):
        assert ChowVector.zero(3).top_index() is None
        assert ChowVector.point(3).top_index() == 0


class TestStructureConstants:
    def test_point_acts_by_degree(self):
        # degree-(0,*) products are forced: a point class of degree d sends y
        # to d*y (numerically a translate)
        y = vec(5, 8, 24, 6, 2, 1)
        x = ChowVector.point(5, 3)
        out = pontryagin(x, y, 4)
        assert out == y.scale(3)

    def test_minimal_class_product(self):
        # mu_1 * mu_1 = 2 mu_2: frozen from the binomial structure constants,
        # cross-checked by the genus-5 chain in test_schottky
        g = 5
        m1 = ChowVector.monomial(g, 1)
        out = pontryagin(m1, m1, g - 1)
        assert out == ChowVector.monomial(g, 2, 2)

    def test_genus5_degree_one_bookkeeping(self):
        g = 5
        c = Fraction(24)
        x = vec(g, 8, c, 0, 0, 0)
        out = pontryagin(x, x, 1)
        assert out.coords[0] == 64
        assert out.coords[1] == 16 * c
        assert all(v == 0 for v in out.coords[2:])

    def test_truncation(self):
        g = 4
        x = vec(g, 1, 1, 1, 1)
        out = pontryagin(x, x, 2)
        assert out.coords[3] == 0
        assert out.coords[2] == sum(comb(2, a) for a in range(3))


class TestPushforward:
    def test_identity(self):
        x = vec(4, 1, 2, 3, 4)
        assert pushforward_n(1, x) == x

    def test_sixteen_theta4(self):
        # g=5: [4]_* scales the degree-1 coordinate by 16
        x = vec(5, 8, 24, 0, 0, 0)
        assert pushforward_n(4, x).coords[1] == 16 * 24

    def test_three_squared_squared(self):
        x = ChowVector.monomial(5, 2, 1)
        assert pushforward_n(3, x).coords[2] == 81


class TestThetaPower:
    def test_theta4_in_genus5(self):
        assert theta_power(5, 4) == ChowVector.monomial(5, 1, 24)

    def test_full_power_is_gfact_points(self):
        assert theta_power(4, 4) == ChowVector.point(4, factorial(4))

    def test_bounds(self):
        with pytest.raises(ValueError):
            theta_power(4, 5)
        with pytest.raises(ValueError):
            theta_power(4, 0)


class TestRingProperties:
    @given(chow_triples())
    @settings(max_examples=80, deadline=None)
    def test_commutative_associative(self, triple):
        x, y, z = triple
        g = x.g
        d = g - 1
        assert pontryagin(x, y, d) == pontryagin(y, x, d)
        assert pontryagin(pontryagin(x, y, d), z, d) == pontryagin(
            x, pontryagin(y, z, d), d
        )

    @given(chow_triples())
    @settings(max_examples=80, deadline=None)
    def test_pushforward_is_ring_endomorphism(self, triple):
        x, y, _ = triple
        g = x.g
        d = g - 1
        for n in (2, 3):
            assert pushforward_n(n, pontryagin(x, y, d)) == pontryagin(
                pushforward_n(n, x), pushforward_n(n, y), d
            )

    @given(chow_triples())
    @settings(max_examples=80, deadline=None)
    def test_degree_multiplicative(self, triple):
        x, y, _ = triple
        out = pontryagin(x, y, x.g - 1)
        assert out.coords[0] == x.coords[0] * y.coords[0]

    @given(chow_triples())
    @settings(max_examples=60, deadline=None)
    def test_effectivity_preserved(self, triple):
        x, y, _ = triple
        xe = ChowVector(x.g, tuple(abs(c) for c in x.coords))
        ye = ChowVector(y.g, tuple(abs(c) for c in y.coords))
        assert pontryagin(xe, ye, x.g - 1).is_effective()
        assert pushforward_n(3, xe).is_effective()
