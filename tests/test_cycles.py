import random
from fractions import Fraction
from math import comb, factorial

import pytest

from thetacycles.chow import ChowVector
from thetacycles.cycles import (
    MAX_CYCLE_GENUS,
    CleanCycleModel,
    CycleComponent,
    adams_push,
    cm1_partition_product,
    convolve,
    degree,
    essentially_multiplicity_free,
    point_component,
    schur_cycle,
)
from thetacycles.lambdaring import (
    FgAbelianGroup,
    GroupRingElement,
    NonIntegralResultError,
    gr_element,
    gr_one,
)

from oracles import multiplicity_free_by_push


def theta_like(g, gauss_degree, mult=1, finite=False, label="theta"):
    """Divisor component with cm_i = (g-i)! mu_i for i >= 1 (isolated sings)."""
    coords = [Fraction(factorial(g - i)) for i in range(g)]
    coords[0] = Fraction(gauss_degree)
    return CycleComponent(
        label=label,
        dim=g - 1,
        mult=mult,
        cm=ChowVector(g, tuple(coords)),
        gauss_finite=finite,
    )


class TestComponentInvariants:
    def test_cm_vanishes_above_dim(self):
        with pytest.raises(ValueError):
            CycleComponent(
                label="bad",
                dim=1,
                mult=1,
                cm=ChowVector(4, (Fraction(2), Fraction(1), Fraction(1), Fraction(0))),
            )

    def test_cm_nonzero_at_dim(self):
        with pytest.raises(ValueError):
            CycleComponent(
                label="bad",
                dim=2,
                mult=1,
                cm=ChowVector(4, (Fraction(2), Fraction(1), Fraction(0), Fraction(0))),
            )

    def test_gauss_degree_positive_integer(self):
        with pytest.raises(ValueError):
            CycleComponent(
                label="bad",
                dim=1,
                mult=1,
                cm=ChowVector(3, (Fraction(1, 2), Fraction(1), Fraction(0))),
            )

    def test_point_shape(self):
        with pytest.raises(ValueError):
            CycleComponent(
                label="bad", dim=0, mult=1, cm=ChowVector.point(3, 2)
            )
        point_component(3)

    def test_fiber_degree_consistency(self):
        g = FgAbelianGroup(1)
        fiber = gr_element(g, (1,)) + gr_element(g, (-1,))
        with pytest.raises(ValueError):
            CleanCycleModel(g=4, components=(point_component(4),), fiber=fiber)


class TestCycleGenus:
    @pytest.mark.parametrize("g", ["3", 3.0, True, None, 0, -1, 101, 10**6])
    def test_refused(self, g):
        with pytest.raises(ValueError, match=r"^g must be an integer in \[1, 100\]"):
            CleanCycleModel(g=g)

    def test_theta_targets_fit(self):
        from thetacycles.schottky import MAX_THETA_GENUS, theta_target

        assert MAX_THETA_GENUS <= MAX_CYCLE_GENUS == 100
        assert theta_target(MAX_THETA_GENUS, 5).g == MAX_THETA_GENUS


class TestDegree:
    def test_table_one_genus4(self):
        c = CleanCycleModel(4, (theta_like(4, 20),))
        assert degree(c) == 20

    def test_empty(self):
        assert degree(CleanCycleModel(3)) == 0

    def test_genus5_with_two_points(self):
        comps = (
            theta_like(5, 116),
            point_component(5, "e1"),
            point_component(5, "e2"),
        )
        assert degree(CleanCycleModel(5, comps)) == 118


class TestConvolve:
    def test_unit(self):
        c = CleanCycleModel(5, (theta_like(5, 120, finite=True),))
        u = CleanCycleModel(5, (point_component(5, "origin"),))
        out = convolve(c, u, 4)
        assert degree(out) == 120
        assert out.total_cm() == c.total_cm()

    def test_degree_multiplicative(self):
        c1 = CleanCycleModel(4, (theta_like(4, 6, finite=True),))
        c2 = CleanCycleModel(4, (theta_like(4, 4, finite=True),))
        assert degree(convolve(c1, c2, 1)) == 24

    def test_schottky_partition_22(self):
        # degree-1 coefficient of Lambda_[2,2] is 64 c_1 for c_0 = 8
        g = 5
        lam = CleanCycleModel(
            g,
            (
                CycleComponent(
                    "lam",
                    dim=1,
                    mult=1,
                    cm=ChowVector(g, (Fraction(8), Fraction(1), 0, 0, 0)),
                ),
            ),
        )
        p2 = adams_push(2, lam)
        out = convolve(p2, p2, 1)
        assert out.total_cm().coords[1] == 64

    def test_trunc_requires_finiteness(self):
        c1 = CleanCycleModel(5, (theta_like(5, 10, finite=False),))
        c2 = CleanCycleModel(5, (theta_like(5, 12, finite=False),))
        with pytest.raises(ValueError):
            convolve(c1, c2, 2)
        convolve(c1, c2, 1)
        c3 = CleanCycleModel(5, (theta_like(5, 12, finite=True),))
        convolve(c1, c3, 4)

    def test_fiber_multiplies(self):
        grp = FgAbelianGroup(1)
        x = gr_element(grp, (1,)) + gr_element(grp, (-1,))
        comp = CycleComponent(
            "c", dim=1, mult=1, cm=ChowVector(3, (Fraction(2), Fraction(1), 0)),
            gauss_finite=True,
        )
        c = CleanCycleModel(3, (comp,), fiber=x)
        out = convolve(c, c, 2)
        assert out.fiber.coefficient_sum == 4
        assert degree(out) == 4


class TestAdamsPush:
    def test_identity(self):
        c = CleanCycleModel(5, (theta_like(5, 24),))
        assert adams_push(1, c).total_cm() == c.total_cm()

    def test_gauss_degree_and_dims_preserved(self):
        c = CleanCycleModel(5, (theta_like(5, 24), point_component(5)))
        out = adams_push(3, c)
        assert degree(out) == degree(c)
        assert [k.dim for k in out.components] == [k.dim for k in c.components]
        assert out.components[0].cm.coords[1] == 9 * factorial(4)

    def test_cm_vanishing_maintained(self):
        c = CleanCycleModel(4, (theta_like(4, 24),))
        out = adams_push(2, c)
        for comp in out.components:
            for i in range(comp.dim + 1, 4):
                assert comp.cm.coords[i] == 0


class TestSchurCycle:
    def test_genus5_alt4_coefficient(self):
        g = 5
        lam = CleanCycleModel(
            g,
            (
                CycleComponent(
                    "lam",
                    dim=1,
                    mult=1,
                    cm=ChowVector(g, (Fraction(8), Fraction(1), 0, 0, 0)),
                ),
            ),
        )
        out = schur_cycle((1, 1, 1, 1), lam, 1)
        assert out.total_cm().coords[1] == 20
        assert degree(out) == comb(8, 4)

    def test_dimension_count_via_fiber(self):
        # degree of lambda^k equals C(deg, k), checked against the group-ring
        # fiber oracle carried along
        grp = FgAbelianGroup(2)
        fiber = (
            gr_element(grp, (1, 0))
            + gr_element(grp, (-1, 0))
            + gr_element(grp, (0, 1))
            + gr_element(grp, (0, -1))
        )
        comp = CycleComponent(
            "c", dim=1, mult=1,
            cm=ChowVector(4, (Fraction(4), Fraction(2), 0, 0)),
            gauss_finite=True,
        )
        c = CleanCycleModel(4, (comp,), fiber=fiber)
        for k in (1, 2, 3):
            out = schur_cycle((1,) * k, c, 1)
            assert degree(out) == comb(4, k)
            assert out.fiber.coefficient_sum == comb(4, k)

    def test_non_integral_rejected(self):
        # a fractional degree-1 class that no tensor construction can repair
        # certifies the input is not the Chern-Mather data of a real object:
        # cm_1 = 1/3 gives lambda^4 coefficient 20/3
        g = 5
        comp = CycleComponent(
            "c",
            dim=1,
            mult=1,
            cm=ChowVector(g, (8, Fraction(1, 3), 0, 0, 0)),
            gauss_finite=True,
        )
        c = CleanCycleModel(g, (comp,))
        with pytest.raises(NonIntegralResultError):
            schur_cycle((1, 1, 1, 1), c, 1)


class TestPartitionCoefficients:
    def test_frozen_coefficients(self):
        assert cm1_partition_product((1, 1, 1, 1), 8) == 2048
        assert cm1_partition_product((2, 1, 1), 8) == 384
        assert cm1_partition_product((2, 2), 8) == 64
        assert cm1_partition_product((3, 1), 8) == 80
        assert cm1_partition_product((4,), 8) == 16
        assert cm1_partition_product((4,), 123) == 16

    def test_matches_cycle_computation(self):
        g = 5
        from thetacycles.symfun import partitions

        lam = CleanCycleModel(
            g,
            (
                CycleComponent(
                    "lam", dim=1, mult=1,
                    cm=ChowVector(g, (Fraction(8), Fraction(1), 0, 0, 0)),
                ),
            ),
        )
        for beta in partitions(4):
            pieces = [adams_push(b, lam) for b in beta]
            acc = pieces[0]
            for p in pieces[1:]:
                acc = convolve(acc, p, 1)
            assert acc.total_cm().coords[1] == cm1_partition_product(beta, 8)


class TestPredicates:
    def test_reduced(self):
        # a doubled point doubles its fiber coefficient: the fiber is not
        # reduced, and [1]_* of the cycle already is not
        grp = FgAbelianGroup(1)
        double = CycleComponent("p", dim=0, mult=2, cm=ChowVector.point(3), gauss_finite=True)
        c = CleanCycleModel(3, (double,), fiber=gr_element(grp, (1,)) + gr_element(grp, (1,)))
        assert not c.fiber.is_reduced and not essentially_multiplicity_free(c)
        c = CleanCycleModel(3, (point_component(3),), fiber=gr_element(grp, (1,)))
        assert c.fiber.is_reduced and essentially_multiplicity_free(c)

    def test_torsion_collision(self):
        grp = FgAbelianGroup(0, (2,))
        fiber = gr_one(grp) + gr_element(grp, (1,))
        comp = point_component(3, "a")
        comp2 = CycleComponent(
            "b", dim=0, mult=1, cm=ChowVector.point(3), gauss_finite=True
        )
        c = CleanCycleModel(3, (comp, comp2), fiber=fiber)
        assert c.fiber.is_reduced
        assert not essentially_multiplicity_free(c)

    def test_free_supports_are_emf(self):
        grp = FgAbelianGroup(1)
        fiber = gr_element(grp, (1,)) + gr_element(grp, (-1,))
        comp = CycleComponent(
            "c", dim=1, mult=1, cm=ChowVector(3, (Fraction(2), Fraction(1), 0)),
        )
        c = CleanCycleModel(3, (comp,), fiber=fiber)
        assert essentially_multiplicity_free(c)

    def test_emf_matches_pushing_oracle(self):
        # random fibers, reduced or not, over groups with and without torsion
        rng = random.Random(12)
        groups = [FgAbelianGroup(0, (2,)), FgAbelianGroup(1, (2, 4)),
                  FgAbelianGroup(0, (3, 6)), FgAbelianGroup(2), FgAbelianGroup(1, (5,)),
                  FgAbelianGroup(2, (2, 2)), FgAbelianGroup(0), FgAbelianGroup(1, (4,))]
        verdicts = set()
        for group in groups:
            for _ in range(100):
                coeffs = {}
                for _ in range(rng.randint(1, 6)):
                    key = tuple(rng.randint(-3, 3) for _ in range(group.ncoords))
                    coeffs[group.canonical(key)] = rng.choice((1, 1, 1, 2))
                fiber = GroupRingElement(group, coeffs)
                point = CycleComponent("p", dim=0, mult=fiber.coefficient_sum,
                                       cm=ChowVector.point(3), gauss_finite=True)
                c = CleanCycleModel(3, (point,), fiber=fiber)
                expected = multiplicity_free_by_push(group, fiber.coeffs)
                assert essentially_multiplicity_free(c) == expected, (group, fiber.coeffs)
                verdicts.add((fiber.is_reduced, expected))
        # reduced fibers that do and do not collide, and fibers that are not reduced
        assert verdicts >= {(True, True), (True, False), (False, False)}

    def test_emf_requires_fiber(self):
        c = CleanCycleModel(3, (point_component(3),))
        with pytest.raises(ValueError):
            essentially_multiplicity_free(c)


class TestEffectivity:
    def test_preserved_by_operations(self):
        c1 = CleanCycleModel(4, (theta_like(4, 6, finite=True),))
        c2 = CleanCycleModel(4, (theta_like(4, 4, finite=True),))
        for out in (convolve(c1, c2, 3), adams_push(2, c1), schur_cycle((1, 1), c1, 3)):
            assert all(comp.mult >= 0 for comp in out.components)


class TestFiberConsistency:
    def test_degree_equals_fiber_sum_after_every_operation(self):
        grp = FgAbelianGroup(1, (2,))
        fiber = (
            gr_element(grp, (1, 0))
            + gr_element(grp, (-1, 0))
            + gr_element(grp, (0, 1))
        )
        comp = CycleComponent(
            "c", dim=2, mult=1,
            cm=ChowVector(4, (Fraction(3), Fraction(2), Fraction(1), 0)),
            gauss_finite=True,
        )
        c = CleanCycleModel(4, (comp,), fiber=fiber)
        assert degree(c) == c.fiber.coefficient_sum == 3
        for out in (
            adams_push(2, c),
            adams_push(3, c),
            convolve(c, c, 3),
            schur_cycle((1, 1), c, 3),
            schur_cycle((2,), c, 3),
        ):
            assert degree(out) == out.fiber.coefficient_sum


class TestJson:
    def test_roundtrip(self):
        grp = FgAbelianGroup(1)
        fiber = gr_element(grp, (1,)) + gr_element(grp, (-1,))
        comp = CycleComponent(
            "c", dim=1, mult=1, cm=ChowVector(3, (Fraction(2), Fraction(1), 0)),
        )
        c = CleanCycleModel(3, (comp,), fiber=fiber)
        assert CleanCycleModel.from_json(c.to_json()).to_json() == c.to_json()
