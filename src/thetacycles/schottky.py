"""Application layer: theta-divisor Tannaka groups, the summand obstruction,
simplicity criteria, fake-Jacobian equations, and the genus-5 Schottky
obstruction, wired through the cycle, Chow and representation modules.

Geometric hypotheses (very general point, trivial stabilizer, geometric
nondegeneracy, symmetry of the theta divisor) are input flags throughout:
the models cannot verify them and never try to infer them.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb, factorial, gcd, prod

from .chow import ChowVector, pontryagin, pushforward_n, theta_power
from .cycles import (
    MAX_CYCLE_GENUS,
    CleanCycleModel,
    CycleComponent,
    cm1_partition_product,
    degree,
    essentially_multiplicity_free,
    point_component,
)
from .lambdaring import (
    MAX_FIBER_COORDS,
    FgAbelianGroup,
    GroupRingElement,
    TensorConstruction,
    eval_construction,
    gr_adams,
)
from .lierep import (
    Character,
    char_alt,
    classify_wmf,
    decompose,
    freudenthal_character,
    image_group_label,
    quasi_minuscule_dim_search,
    root_system,
)
from .symfun import partitions


# ---------------------------------------------------------------------------
# inputs and group descriptors
# ---------------------------------------------------------------------------


class PpavInput(namedtuple("PpavInput", "g k symmetric double_points_sum_zero "
                                        "pairwise_torsion_independent gauss_finite")):
    """Hypotheses about a ppav with a theta divisor smooth except for
    finitely many ordinary double points."""

    __slots__ = ()

    def __new__(cls, g: int, k: int = 0, symmetric: bool = True,
                double_points_sum_zero: bool = False,
                pairwise_torsion_independent: bool = True, gauss_finite: bool = False):
        if g < 1:
            raise ValueError("g must be >= 1")
        if k < 0:
            raise ValueError("k must be >= 0")
        # g! > 2k, with the factorial built only until it passes 2k
        order, i = 1, 1
        while order <= 2 * k and i < g:
            i += 1
            order *= i
        if order <= 2 * k:
            raise ValueError(f"g! - 2k must be positive, got g = {g}, k = {k}")
        return super().__new__(cls, g, k, symmetric, double_points_sum_zero,
                               pairwise_torsion_independent, gauss_finite)


_FAMILIES = ("Sp", "SO", "O", "undetermined")

# Largest m_bound simplicity_criteria accepts, the m its criterion-3 note
# names: an input contract only, as one comparison decides criterion 3 for
# every m at once, so the bound sets no work.
MAX_M_BOUND = 1000


def _check_m_bound(m_bound: int) -> None:
    """Refuse an m_bound outside [1, MAX_M_BOUND]."""
    if m_bound < 1:
        raise ValueError(f"m_bound must be >= 1, got {m_bound}")
    if m_bound > MAX_M_BOUND:
        raise ValueError(f"m_bound {m_bound} is over the limit of {MAX_M_BOUND}")


class GroupDescriptor(namedtuple("GroupDescriptor", "family size note")):
    __slots__ = ()

    def __new__(cls, family: str, size: int | None = None, note: str = ""):
        if family not in _FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if family in ("Sp", "SO", "O"):
            if size is None or size < 1:
                raise ValueError(f"{family} needs a positive size")
            if family == "Sp" and size % 2:
                raise ValueError("Sp size must be even")
        return super().__new__(cls, family, size, note)

    @property
    def label(self) -> str:
        if self.family == "undetermined":
            return f"undetermined: {self.note}"
        return f"{self.family}{self.size}"

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "size": self.size,
            "mu": None,  # kept by the v1 schema
            "note": self.note,
            "label": self.label,
        }


# ---------------------------------------------------------------------------
# the exceptional dimension sets
# ---------------------------------------------------------------------------


def s_sets(bound: int) -> tuple[list[int], list[int]]:
    """S- and S+ up to a bound.

    S- = {C(2n,n) : n odd} + {2^n : n = 1,2 mod 4} + {56}: dimensions of
    symplectic minuscule representations other than the standard ones.
    S+ = {C(2n,n) : n even} + {2^n : n = 0,3 mod 4} + {7}: dimensions of
    orthogonal weight multiplicity free representations other than the
    standard ones.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    s_minus: set[int] = set()
    s_plus: set[int] = set()
    n, central = 1, 2  # central = C(2n, n)
    while central <= bound:
        (s_minus if n % 2 == 1 else s_plus).add(central)
        central = central * 2 * (2 * n + 1) // (n + 1)
        n += 1
    n = 1
    while 2**n <= bound:
        if n % 4 in (1, 2):
            s_minus.add(2**n)
        else:
            s_plus.add(2**n)
        n += 1
    if 56 <= bound:
        s_minus.add(56)
    if 7 <= bound:
        s_plus.add(7)
    return sorted(s_minus), sorted(s_plus)


def s_sets_from_classification(bound: int, max_rank: int) -> tuple[list[int], list[int]]:
    """The same two sets extracted from the weight-multiplicity-free sweep:
    dimensions of symplectic minuscule resp. orthogonal wmf entries, with the
    classical standard representations excluded.  The symmetric-power family
    is excluded as well: its table verdict is 'not self-dual' (the rank-one
    degeneration is self-dual but realizes no new group, its image acting
    through the classical series)."""
    rows = classify_wmf(max_rank, bound)
    s_minus = sorted(
        {
            r.dim
            for r in rows
            if r.minuscule
            and r.fs == "symplectic"
            and not r.is_standard
            and r.family != "A-sym"
        }
    )
    s_plus = sorted(
        {
            r.dim
            for r in rows
            if r.fs == "orthogonal" and not r.is_standard and r.family != "A-sym"
        }
    )
    return s_minus, s_plus


# ---------------------------------------------------------------------------
# characteristic cycles of ODP theta divisors
# ---------------------------------------------------------------------------


def _theta_cm(g: int, gauss_degree: int) -> ChowVector:
    """Chern-Mather vector of the conormal to a theta divisor with isolated
    singularities: degree in CH_0, [Theta]^(g-i) = (g-i)! mu_i above."""
    coords = [Fraction(factorial(g - i)) for i in range(g)]
    coords[0] = Fraction(gauss_degree)
    return ChowVector(g, tuple(coords))


def theta_target(g: int, gauss_degree: int, cm1: Fraction | None = None) -> CleanCycleModel:
    """Target of the fake-Jacobian equations: the conormal to a theta
    divisor with isolated singularities and a finite Gauss map, as a
    one-component cycle; cm1, when given, replaces its degree-1 class."""
    if g < 2:
        raise ValueError(f"a theta divisor needs g >= 2, got g = {g}")
    if g > MAX_CYCLE_GENUS:
        raise ValueError(
            f"a theta divisor at g = {g} is over the limit of g <= {MAX_CYCLE_GENUS}"
        )
    cm = _theta_cm(g, gauss_degree)
    if cm1 is not None:
        coords = list(cm.coords)
        coords[1] = cm1
        cm = ChowVector(g, tuple(coords))
    return CleanCycleModel(
        g=g,
        components=(CycleComponent("theta", dim=g - 1, mult=1, cm=cm, gauss_finite=True),),
    )


def cc_odp(p: PpavInput) -> CleanCycleModel:
    """Clean characteristic cycle of the intersection-complex module of a
    theta divisor with k ordinary double points: the conormal of the divisor
    with Gauss degree g! - 2k, plus one conormal per double point when g is
    odd.

    The divisor must be symmetric (a non-symmetric one is refused) and is
    assumed to have trivial stabilizer: with a positive-dimensional
    stabilizer the conormal variety is negligible and there is no clean cycle.

    The group-ring fiber is synthesized from the point flags: +/- pairs of
    free generators for the symmetric divisor fiber; double points become
    +/- paired free generators when the sum is zero and their count even,
    distinct free generators when torsion-independent otherwise, and
    distinct 2-torsion generators in the torsion-dependent case.  The fiber
    carries degree and reducedness bookkeeping only; downstream verdicts
    read the hypothesis flags, not the synthesized sum."""
    g, k = p.g, p.k
    if g < 2:
        raise ValueError("cc_odp needs g >= 2")
    if not p.symmetric:
        raise ValueError("cc_odp requires a symmetric theta divisor")
    order = 1  # g!, built up so that a huge g is refused at once
    for i in range(2, g + 1):
        order *= i
        if order * (order // 2) > MAX_FIBER_COORDS:
            raise ValueError(
                f"cc_odp at g = {g} would build a dense fiber of g! keys of rank "
                f"g!/2, over the limit of {MAX_FIBER_COORDS} coordinates"
            )
    n = order - 2 * k
    points_count = k if g % 2 == 1 else 0
    m = n // 2  # Gauss fiber of a symmetric divisor comes in +/- pairs

    # fiber generators as (coordinate, sign): the +/- pairs of the divisor,
    # then the double points
    gens = [(i, sign) for i in range(m) for sign in (1, -1)]
    free_rank = m
    torsion: tuple[int, ...] = ()
    if points_count:
        if not p.pairwise_torsion_independent:
            torsion = (2,) * points_count
            gens += [(i, 1) for i in range(m, m + points_count)]
        elif p.double_points_sum_zero and points_count % 2 == 0:
            free_rank += points_count // 2
            gens += [(i, sign) for i in range(m, free_rank) for sign in (1, -1)]
        else:
            free_rank += points_count
            gens += [(i, 1) for i in range(m, free_rank)]

    group = FgAbelianGroup(free_rank, torsion)
    # keys are built in key order, as GroupRingElement._of requires: -e_i by
    # rising i, then the torsion points and +e_i by falling i
    gens.sort(key=lambda gen: (gen[1] > 0, -gen[1] * gen[0]))
    coeffs: dict = {}
    e = [0] * group.ncoords
    for idx, sign in gens:
        e[idx] = sign
        coeffs[tuple(e)] = 1
        e[idx] = 0

    components = [
        CycleComponent(
            label="theta",
            dim=g - 1,
            mult=1,
            cm=_theta_cm(g, n),
            gauss_finite=p.gauss_finite,
        )
    ]
    for i in range(points_count):
        components.append(point_component(g, f"e{i + 1}"))

    # each key is +/-1 in a free slot or 1 in a Z/2 slot: canonical already
    return CleanCycleModel(
        g=g, components=tuple(components), fiber=GroupRingElement._of(group, coeffs)
    )


def theta_group(p: PpavInput) -> GroupDescriptor:
    """Tannaka group of the theta divisor under the ODP hypotheses.

    Even g: Sp_(g!-2k) unless that dimension is in S-, where Sp4 is still
    Sp4 (the spin representation of Spin5 = Sp4 is the standard pair) and a
    finite Gauss map makes dimension 20 in genus 4 Sp20 (it excludes the
    nonhyperelliptic Jacobian pair).  Odd g with pairwise torsion-independent
    double points: SO/O_(g!-k) by the sum of the points, unless the
    dimension is in S+.  The torsion-dependent genus-5, k=2 case is settled
    by the emptiness of the quasi-minuscule dimension search.
    """
    g, k = p.g, p.k
    if g < 2:
        raise ValueError(f"a theta divisor needs g >= 2, got g = {g}")
    if not p.symmetric:
        return GroupDescriptor(
            "undetermined", note="requires a symmetric theta divisor"
        )
    if g > MAX_CYCLE_GENUS:
        raise ValueError(
            f"theta_group at g = {g} is over the limit of g <= {MAX_CYCLE_GENUS}"
        )
    if g % 2 == 0:
        n = factorial(g) - 2 * k
        if n == 4:
            return GroupDescriptor("Sp", size=4, note="dimension-4 alternative is Sp4 itself")
        if (g, n) == (4, 20) and p.gauss_finite:
            return GroupDescriptor("Sp", size=20, note="assuming the Gauss map is finite")
        if n in s_sets(n)[0]:
            return GroupDescriptor("undetermined", note=f"exceptional dimension {n} in S-")
        return GroupDescriptor("Sp", size=n)
    n = factorial(g) - k
    if k > 0 and not p.pairwise_torsion_independent:
        if (g, k) == (5, 2):
            # the double points differ by torsion; the weights still form a
            # single orbit plus zeros because no quasi-minuscule module has
            # dimension 118
            if quasi_minuscule_dim_search(118, 20):
                return GroupDescriptor(
                    "undetermined", note="quasi-minuscule search not empty"
                )
            family = "SO" if p.double_points_sum_zero else "O"
            return GroupDescriptor(family, size=n)
        return GroupDescriptor(
            "undetermined",
            note="double points differing by torsion are not covered for "
            f"(g, k) = ({g}, {k})",
        )
    if n in s_sets(n)[1]:
        return GroupDescriptor("undetermined", note=f"exceptional dimension {n} in S+")
    if k == 0 or p.double_points_sum_zero:
        return GroupDescriptor("SO", size=n)
    return GroupDescriptor("O", size=n)


# ---------------------------------------------------------------------------
# genus-5 Schottky obstruction
# ---------------------------------------------------------------------------


def alt_cm1_coefficient(j: int, c0: int) -> Fraction:
    """Coefficient of c_1 in the degree-1 Chern-Mather class of the j-th
    exterior convolution power of a cycle with cm = (c0, c1, 0, ...).

    In degrees <= 1, [b]_* acts as c0 + eps b^2 c1 with eps^2 = 0, so the
    exponential formula sum_j Lambda^j t^j = exp(sum_b (-1)^(b+1) [b]_* t^b / b)
    gives (1 + t)^c0 (1 + eps c1 t / (1 + t)^2), and the coefficient is that
    of t^j in t (1 + t)^(c0 - 2): the generalized binomial C(c0 - 2, j - 1).
    """
    if j < 0 or c0 < 0:
        raise ValueError(f"j and c0 must be nonnegative, got j = {j}, c0 = {c0}")
    if j == 0:
        return Fraction(0)
    return Fraction(prod(range(c0 - 2, c0 - 1 - j, -1)), factorial(j - 1))


def genus5_obstruction(p: PpavInput) -> dict:
    """The weak Schottky obstruction in genus five, as a report on
    fake_jacobian_solve for the nonhyperelliptic Jacobian's theta divisor:
    Gauss degree C(2g - 2, g - 1) = 70 and cm_1 = [Theta]^4.

    For a nonhyperelliptic fake Jacobian with at most isolated singularities
    the exterior fourth power of the solved curve cycle must reproduce
    [4]_* of the theta conormal in degree one; solving for the curve class
    c_1 gives (96/5) mu_1, which is not integral.  Such a ppav therefore
    cannot exist: fake Jacobians have singular locus of dimension >= 1.
    """
    if p.g != 5:
        raise ValueError("the obstruction is a genus-5 computation")
    g = 5
    sol = fake_jacobian_solve(g, theta_target(g, comb(2 * g - 2, g - 1)))
    e, c0, integral = sol["e"], sol["c0"], sol["c1_integral"]
    part_coeffs = {beta: cm1_partition_product(beta, c0) for beta in partitions(g - 1)}
    return {
        "g": g,
        "e": e,
        "c0": c0,
        "partition_cm1_coefficients": {
            ",".join(map(str, b)): str(v) for b, v in sorted(part_coeffs.items(), reverse=True)
        },
        "alt4_coefficient": sol["cm1_equation_coefficient"],
        "left_side": pushforward_n(e, theta_power(g, g - 1)).to_json(),
        "solved_c1": sol["solved_c1"],
        "c1_coefficient": sol["c1_coefficient"],
        "integral": integral,
        "verdict": (
            "consistent: no obstruction from degree one"
            if integral
            else "excluded: no nonhyperelliptic fake Jacobian with isolated "
            "singularities; fake Jacobians lie in the Andreotti-Mayer locus N_1"
        ),
    }


# ---------------------------------------------------------------------------
# fake-Jacobian equations
# ---------------------------------------------------------------------------


def fake_jacobian_solve(
    g: int, target: CleanCycleModel, hyperelliptic: bool = False
) -> dict:
    """Solve the exterior-power equation for the candidate curve cycle.

    Degree layer: deg(target) = C(c0, g-1), resp. C(c0, g-1) - C(c0, g-3)
    in the hyperelliptic case, solved for an integer c0.  Degree-one layer:
    e^2 cm_1(target) = K(c0) c1 with the exterior-power coefficient K.
    Higher Chern-Mather layers are reported as unconstrained.
    """
    if g < 3:
        raise ValueError("fake-Jacobian solving needs g >= 3")
    if target.g != g:
        raise ValueError("target cycle has the wrong dimension")
    e = gcd(2, g - 1) if hyperelliptic else g - 1
    t = degree(target)

    def degree_eq(c0: int) -> int:
        val = comb(c0, g - 1)
        if hyperelliptic:
            val -= comb(c0, g - 3)
        return val

    # c0 ranges over [0, end).  From c0 = rise on the degree polynomial
    # strictly increases: its step C(c0, g-2) [- C(c0, g-4)] is positive for
    # c0 >= g-2 [resp. c0 > 2g-6].  The stretch below rise is scanned; for
    # the rest, hi doubles until the polynomial reaches t there, and [lo, hi)
    # is bisected for its one possible solution.
    end = t + 2 * g + 3
    rise = 2 * g - 4 if hyperelliptic else g - 2
    solutions = [c0 for c0 in range(0, min(rise, end)) if degree_eq(c0) == t]
    lo, hi = rise, rise + 1
    while hi < end and degree_eq(hi) < t:
        lo, hi = hi + 1, 2 * hi
    hi = min(hi, end)
    while lo < hi:
        mid = (lo + hi) // 2
        if degree_eq(mid) < t:
            lo = mid + 1
        else:
            hi = mid
    if lo < end and degree_eq(lo) == t:
        solutions.append(lo)
    if not solutions:
        return {
            "feasible": False,
            "g": g,
            "hyperelliptic": hyperelliptic,
            "e": e,
            "target_degree": t,
            "reason": "no integer c0 solves the degree equation; "
            "not a fake Jacobian",
        }
    c0 = solutions[0]
    k_coeff = alt_cm1_coefficient(g - 1, c0)
    if hyperelliptic:
        k_coeff -= alt_cm1_coefficient(g - 3, c0)
    cm1_target = target.total_cm().coords[1]
    record: dict = {
        "feasible": True,
        "g": g,
        "hyperelliptic": hyperelliptic,
        "e": e,
        "target_degree": t,
        "c0": c0,
        "c0_candidates": solutions,
        "cm1_equation_coefficient": str(k_coeff),
        "higher_layers": "unconstrained",
    }
    if k_coeff != 0:
        c1_coefficient = Fraction(e) ** 2 * cm1_target / k_coeff
        c1 = ChowVector.monomial(g, 1, c1_coefficient)
        record.update(
            {
                "c1_coefficient": str(c1_coefficient),
                "solved_c1": c1.to_json(),
                "c1_integral": c1.is_integral(),
                "c1_effective": c1.is_effective(),
            }
        )
    return record


# ---------------------------------------------------------------------------
# summands and simplicity
# ---------------------------------------------------------------------------


def summand_bound(ad_support_dims: list[int], d_z: int) -> dict:
    """Bound min(dim X, dim Y) >= delta = half the minimal positive support
    dimension inside the adjoint module; no decomposition if
    delta > floor(d_z / 2)."""
    if d_z < 0 or any(d < 0 for d in ad_support_dims):
        raise ValueError("dimensions must be nonnegative")
    positive = [d for d in ad_support_dims if d > 0]
    if not positive:
        return {
            "vacuous": True,
            "delta": None,
            "d_z": d_z,
            "no_decomposition": False,
            "note": "no positive-dimensional support; the bound is vacuous",
        }
    delta = Fraction(min(positive), 2)
    return {
        "vacuous": False,
        "delta": str(delta),
        "d_z": d_z,
        "floor_half_dz": d_z // 2,
        "no_decomposition": delta > d_z // 2,
    }


def simplicity_criteria(
    c: CleanCycleModel, divisor_label: str, m_bound: int = 4
) -> dict:
    """The four sufficient criteria for the Lie algebra of the Tannaka group
    to be simple modulo its center.

    Geometric hypotheses (geometrically nondegenerate symmetric reduced
    divisor, trivial stabilizer, Albanese equal to the ambient variety) are
    the caller's responsibility.  Criterion 3 quantifies over all m >= 1.  It
    compares Chern-Mather totals, on which [2m]_* acts linearly (CH_i scales
    by (2m)^(2i)): the cycle's side is [2m]_* of its total T and the
    divisor's side the Pontryagin square of [m]_* of its cm * mult = D,
    truncated at g - 1, whose c-th coordinate is m^(2c) (D*D)_c.  The sides
    differ for some m exactly when 4^c T_c != (D*D)_c for some c, and then
    for every m, so one comparison, at m = 1, decides them all; neither
    components nor fibers are pushed.  The report keeps its note "verified
    up to m = m_bound", and m_bound must lie in [1, MAX_M_BOUND].
    Criterion 4 is essentially_multiplicity_free on the fiber.
    """
    _check_m_bound(m_bound)
    div = c.component(divisor_label)
    if div.dim != c.g - 1:
        raise ValueError(f"component {divisor_label!r} is not a divisor")
    crit1 = 3 * div.mult * div.gauss_degree > degree(c)
    crit2 = all(
        comp.dim == 0 for comp in c.components if comp.label != divisor_label
    )
    crit3 = None
    if div.gauss_finite:
        div_total = div.cm.scale(div.mult)
        crit3 = pushforward_n(2, c.total_cm()) != pontryagin(div_total, div_total, c.g - 1)
    if c.fiber is None:
        raise ValueError("criterion (4) needs a fiber model on the cycle")
    crit4 = essentially_multiplicity_free(c)
    return {
        "criterion_1_degree_dominance": crit1,
        "criterion_2_isolated_companions": crit2,
        "criterion_3_not_a_self_convolution": crit3,
        "criterion_3_note": (
            f"verified up to m = {m_bound}, not proved"
            if crit3
            else ("gauss map not finite; criterion unavailable" if crit3 is None else "failed")
        ),
        "criterion_4_essentially_multiplicity_free": crit4,
        "established": bool(crit1 or crit2 or crit4),
    }


# ---------------------------------------------------------------------------
# the abelian-fourfold table
# ---------------------------------------------------------------------------


def fourfold_table() -> dict:
    """Invariants of principally polarized abelian fourfolds, recomputed from
    the other modules: Gauss degree, dimension of the theta representation,
    fundamental-weight label and Tannaka group for every stratum."""
    g = 4
    rows = []

    # smooth stratum
    p = PpavInput(g=g, k=0, gauss_finite=True)
    cc = cc_odp(p)
    grp = theta_group(p)
    rows.append(
        {
            "stratum": "A4_smooth",
            "gauss_degree": degree(cc),
            "dim_omega": degree(cc),
            "weight": "w1",
            "group": grp.label,
        }
    )

    # nonhyperelliptic Jacobians: solve the fake-Jacobian degree equation
    rsA5 = root_system("A5")
    w3 = (0, 0, 1, 0, 0)
    dim_nh = rsA5.weyl_dim(w3)
    sol_nh = fake_jacobian_solve(g, theta_target(g, dim_nh), hyperelliptic=False)
    assert sol_nh["feasible"] and sol_nh["c0"] == 2 * g - 2
    rows.append(
        {
            "stratum": "J4_nonhyperelliptic",
            "gauss_degree": dim_nh,
            "dim_omega": dim_nh,
            "weight": "w3",
            "group": image_group_label(rsA5, w3),
        }
    )

    # hyperelliptic Jacobians: quotient character of C3
    rsC3 = root_system("C3")
    std = freudenthal_character(rsC3, (1, 0, 0))
    alt3 = char_alt(3, std)
    constituents = decompose(alt3)
    assert constituents == {(0, 0, 1): 1, (1, 0, 0): 1}
    dim_h = rsC3.weyl_dim((0, 0, 1))
    curve_dim = rsC3.weyl_dim((1, 0, 0))
    sol_h = fake_jacobian_solve(g, theta_target(g, dim_h), hyperelliptic=True)
    assert sol_h["feasible"] and sol_h["c0"] == 2 * g - 2
    rows.append(
        {
            "stratum": "J4_hyperelliptic",
            # the curve constituent of the exterior cube accounts for the
            # difference between the cycle degree and the classical Gauss map
            "gauss_degree": dim_h - curve_dim,
            "dim_omega": dim_h,
            "weight": "w3",
            "group": image_group_label(rsC3, (0, 0, 1)),
        }
    )

    # theta-null strata, k = 1..10 vanishing thetanulls
    instances = []
    for k in range(1, 11):
        pk = PpavInput(g=g, k=k, gauss_finite=True)
        cck = cc_odp(pk)
        grp_k = theta_group(pk)
        n = factorial(g) - 2 * k
        assert grp_k.family == "Sp" and grp_k.size == n, (k, grp_k)
        assert degree(cck) == n
        instances.append(
            {
                "k": k,
                "gauss_degree": degree(cck),
                "dim_omega": degree(cck),
                "weight": "w1",
                "group": grp_k.label,
                "note": grp_k.note,
            }
        )
    rows.append(
        {
            "stratum": "Theta_null^k",
            "gauss_degree": "24-2k",
            "dim_omega": "24-2k",
            "weight": "w1",
            "group": "Sp_{24-2k}",
            "instances": instances,
        }
    )
    return {"g": g, "rows": rows}


def fourfold_table_csv(table: dict) -> str:
    """The rows of a fourfold_table() record as CSV."""
    lines = ["stratum,gauss_degree,dim_omega,weight,group"]
    for row in table["rows"]:
        lines.append(
            f"{row['stratum']},{row['gauss_degree']},{row['dim_omega']},"
            f"{row['weight']},{row['group']}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# inverse Galois verification and the weight dictionary
# ---------------------------------------------------------------------------


def verify_inverse_galois(
    target_fiber: GroupRingElement,
    construction: TensorConstruction,
    e: int,
    candidates: list[GroupRingElement],
) -> bool:
    """Check [e]_* target = S(candidates) exactly in the group ring."""
    for cand in candidates:
        if cand.group != target_fiber.group:
            raise ValueError("all elements must live over one group")
    lhs = gr_adams(e, target_fiber)
    rhs = eval_construction(construction, candidates)
    return lhs == rhs


def push_character_to_group_ring(
    x: Character, group: FgAbelianGroup, images: list
) -> GroupRingElement:
    """Push a character along a homomorphism of its weight lattice into an
    abelian group, given by the images of the lattice basis vectors.  This is
    the fiber-level dictionary between representations and clean cycles."""
    if len(images) != x.rs.rank:
        raise ValueError("need one image per fundamental-weight basis vector")
    images = [group.canonical(im) for im in images]
    coeffs: dict = {}
    zero = group.zero()
    for w, m in x.weights.items():
        # plain integer sums: GroupRingElement reduces and merges the keys
        acc = zero
        for coord, image in zip(w, images):
            if coord:
                acc = tuple(a + coord * b for a, b in zip(acc, image))
        coeffs[acc] = coeffs.get(acc, 0) + m
    return GroupRingElement(group, coeffs)
