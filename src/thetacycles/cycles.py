"""Clean conic Lagrangian cycle models.

A cycle is a formal sum of components, each carrying the dimension of its
base subvariety, an integer multiplicity, and a ChowVector of Chern-Mather
classes of the underlying conormal variety (multiplicity not folded in).
An optional group-ring element models the fiber of the cycle over a very
general point of the Gauss projection; when present its coefficient sum
must equal the total Gauss degree, and that consistency is preserved by
every operation here.

Convolution and Schur operations never invent component decompositions:
the Chern-Mather bookkeeping only controls totals modulo classes above the
truncation index, so results are returned as a single aggregate component
(plus the exact fiber when both inputs carry one).  Schur operations
evaluate `symfun.JacobiTrudi`, as `lambdaring` does, over the h_j or e_j of
Newton's identity in the truncated Pontryagin ring.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .chow import ChowVector, pontryagin, pushforward_n
from .lambdaring import (
    GroupRingElement,
    NonIntegralResultError,
    gr_adams,
    gr_multiply,
    schur_apply,
)
from .symfun import JacobiTrudi, Partition, _is_int

# Largest g of a cycle, whose Pontryagin products cost g^2 Fractions, and of
# a theta divisor that schottky.theta_group decides or theta_target builds:
# the exceptional sets reach g!, and their binomials grow with it (4 ms at
# g = 100, 8.8 s at g = 1000), and the divisor's Chern-Mather class takes
# 0.5 ms at g = 100 and 0.4 s at g = 3000 (Python 3.11, 2 vCPU).
MAX_CYCLE_GENUS = 100

# the most Chern-Mather work schur_cycle takes on: Newton's identity up to the
# largest index k of the Jacobi-Trudi minors is counted as k(k + 1)/2
# Pontryagin products, the minors symfun.JacobiTrudi.products more, and a
# product (d_trunc + 1)(d_trunc + 2)/2 multiply-adds and g coordinates, one
# unit each.  Newton's identity now takes k(k - 1)/2 products, as its k terms
# by the unit only truncate, so the count is k products too many; it is kept
# until the table below is re-measured, so that no input's verdict moves.
# schur_cycle on the one-component theta_target(g, 5), best of two (Python
# 3.11, 2 vCPU):
#     g  d_trunc  alpha         products    units  time
#   100       99  (1^4)               10   51,500  0.25 s
#   100       99  (2,2,2)             12   61,800  0.30 s
#   100       99  (6,4,1)             41  211,150  1.18 s
#   100       99  (9)                 45  231,750  1.25 s
#   100       99  (8,1)               46  236,900  1.21 s
#   100       99  (6,4,3)             45  231,750  1.45 s
#   100       99  (4,4,2,2)           48  247,200  1.78 s
#   100       99  (1^10)              55  283,250  refused
#   100        1  (1^17)             153   15,759  0.04 s
#     3        1  (1^28)             406    2,436  0.01 s
#     3        1  (12,10,1^10)       789    4,734  0.02 s
MAX_SCHUR_CYCLE_WORK = 250_000


class CycleComponent(namedtuple("CycleComponent", "label dim mult cm gauss_finite")):
    """One irreducible (or aggregate) piece of a clean cycle."""

    __slots__ = ()

    def __new__(cls, label: str, dim: int, mult: int, cm: ChowVector,
                gauss_finite: bool = False):
        if not isinstance(label, str):
            raise ValueError(f"component 'label' must be a string, got {label!r}")
        for name, value in (("dim", dim), ("mult", mult)):
            if not _is_int(value):
                raise ValueError(f"component {name!r} must be an integer, got {value!r}")
        if not isinstance(gauss_finite, bool):
            raise ValueError(
                f"component 'gauss_finite' must be true or false, got {gauss_finite!r}"
            )
        g = cm.g
        if not 0 <= dim <= g - 1:
            raise ValueError(f"component dim must be in [0, {g - 1}], got {dim}")
        for i in range(dim + 1, g):
            if cm.coords[i] != 0:
                raise ValueError(f"cm coordinate {i} nonzero above component dim {dim}")
        if cm.coords[dim] == 0:
            raise ValueError(f"cm coordinate at dim {dim} must be nonzero")
        gd = cm.coords[0]
        if gd.denominator != 1 or gd <= 0:
            raise ValueError(
                f"Gauss degree (cm coordinate 0) must be a positive integer, got {gd}"
            )
        if dim == 0 and any(cm.coords[i] != (1 if i == 0 else 0) for i in range(g)):
            raise ValueError("a point component must have cm = (1, 0, ..., 0)")
        return super().__new__(cls, label, dim, mult, cm, gauss_finite)

    @property
    def g(self) -> int:
        return self.cm.g

    @property
    def gauss_degree(self) -> int:
        return int(self.cm.coords[0])

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "dim": self.dim,
            "mult": self.mult,
            "cm": [str(c) for c in self.cm.coords],
            "gauss_finite": self.gauss_finite,
        }


def point_component(g: int, label: str = "point") -> CycleComponent:
    return CycleComponent(
        label=label, dim=0, mult=1, cm=ChowVector.point(g), gauss_finite=True
    )


class CleanCycleModel(namedtuple("CleanCycleModel", "g components fiber")):
    __slots__ = ()

    def __new__(cls, g: int, components: tuple = (), fiber: GroupRingElement | None = None):
        if not _is_int(g) or not 1 <= g <= MAX_CYCLE_GENUS:
            raise ValueError(f"g must be an integer in [1, {MAX_CYCLE_GENUS}], got {g!r}")
        self = super().__new__(cls, g, tuple(components), fiber)
        for c in self.components:
            if c.g != g:
                raise ValueError(f"component {c.label} has g={c.g}, cycle has g={g}")
        if fiber is not None and fiber.coefficient_sum != degree(self):
            raise ValueError(
                f"fiber coefficient sum {fiber.coefficient_sum} != cycle degree {degree(self)}"
            )
        return self

    @property
    def all_gauss_finite(self) -> bool:
        return all(c.gauss_finite for c in self.components)

    def total_cm(self) -> ChowVector:
        """Multiplicity-weighted total Chern-Mather vector."""
        total = ChowVector.zero(self.g)
        for c in self.components:
            total = total + c.cm.scale(c.mult)
        return total

    def component(self, label: str) -> CycleComponent:
        for c in self.components:
            if c.label == label:
                return c
        raise KeyError(f"no component labeled {label!r}")

    def to_json(self) -> dict:
        out = {
            "g": self.g,
            "components": [c.to_json() for c in self.components],
        }
        if self.fiber is not None:
            out["fiber"] = self.fiber.to_json()
        return out

    @classmethod
    def from_json(cls, data: dict) -> "CleanCycleModel":
        comps = tuple(
            CycleComponent(
                label=c["label"],
                dim=c["dim"],
                mult=c["mult"],
                cm=_cm_from_json(data["g"], c["cm"]),
                gauss_finite=c.get("gauss_finite", False),
            )
            for c in data["components"]
        )
        fiber = None
        if "fiber" in data:
            fiber = GroupRingElement.from_json(data["fiber"])
        return cls(g=data["g"], components=comps, fiber=fiber)


def _cm_from_json(g, coords) -> ChowVector:
    if not isinstance(coords, list):
        raise TypeError(f"'cm' must be a list of rationals, got {coords!r}")
    for v in coords:
        if not (isinstance(v, str) or _is_int(v)):
            raise TypeError(f"'cm' entries must be \"p/q\" strings or integers, got {v!r}")
    return ChowVector(g, tuple(map(Fraction, coords)))


def degree(c: CleanCycleModel) -> int:
    """Total Gauss-map degree: sum of mult * (degree of each component)."""
    return sum(comp.mult * comp.gauss_degree for comp in c.components)


def _aggregate(
    g: int,
    label: str,
    cm: ChowVector,
    gauss_finite: bool,
    fiber: GroupRingElement | None,
) -> CleanCycleModel:
    """Package an aggregate Chern-Mather total as a one-component cycle.

    Aggregates supported on points are folded into the multiplicity of a
    single point component; virtual aggregates of negative degree are stored
    with mult = -1.  A degree-zero aggregate with surviving higher classes
    cannot be represented by a clean component and is rejected.  The degree
    is an integer: the product of two cycles' degrees for convolve, and
    checked by schur_cycle's integrality verdict.
    """
    top = cm.top_index()
    if top is None:
        return CleanCycleModel(g=g, components=(), fiber=fiber)
    deg = cm.coords[0]
    if top == 0:
        comp = CycleComponent(
            label=label, dim=0, mult=int(deg), cm=ChowVector.point(g), gauss_finite=True
        )
        return CleanCycleModel(g=g, components=(comp,), fiber=fiber)
    if deg == 0:
        raise ValueError(
            "aggregate has Gauss degree zero but nonzero higher Chern-Mather "
            "classes; it cannot be represented by a clean component"
        )
    mult = 1 if deg > 0 else -1
    comp = CycleComponent(
        label=label, dim=top, mult=mult, cm=cm.scale(mult), gauss_finite=gauss_finite
    )
    return CleanCycleModel(g=g, components=(comp,), fiber=fiber)


def _require_trunc_valid(c1: CleanCycleModel, c2: CleanCycleModel, d_trunc: int):
    g = c1.g
    if not 1 <= d_trunc <= g - 1:
        raise ValueError(f"d_trunc must be in [1, {g - 1}]")
    if d_trunc > 1 and not (c1.all_gauss_finite or c2.all_gauss_finite):
        raise ValueError(
            f"d_trunc={d_trunc} needs a finite projectivized Gauss map on every "
            "component of one factor; only d_trunc=1 is unconditional"
        )


def convolve(c1: CleanCycleModel, c2: CleanCycleModel, d_trunc: int) -> CleanCycleModel:
    """Convolution at the level of aggregate invariants.

    The total Chern-Mather vector of the result is the Pontryagin product of
    the factors' totals, valid up to the truncation index; the fiber (when
    both present) is the exact group-ring product.  No component-level
    splitting is synthesized.
    """
    if c1.g != c2.g:
        raise ValueError("dimension mismatch")
    _require_trunc_valid(c1, c2, d_trunc)
    cm = pontryagin(c1.total_cm(), c2.total_cm(), d_trunc)
    fiber = None
    if c1.fiber is not None and c2.fiber is not None:
        fiber = gr_multiply(c1.fiber, c2.fiber)
    finite = c1.all_gauss_finite and c2.all_gauss_finite
    return _aggregate(c1.g, "convolution", cm, finite, fiber)


def adams_push(n: int, c: CleanCycleModel) -> CleanCycleModel:
    """[n]_* componentwise: CH_i scales by n^(2i); dims and Gauss degrees
    are preserved; the fiber is pushed along g -> n*g."""
    comps = tuple(
        CycleComponent(
            label=comp.label,
            dim=comp.dim,
            mult=comp.mult,
            cm=pushforward_n(n, comp.cm),
            gauss_finite=comp.gauss_finite,
        )
        for comp in c.components
    )
    fiber = gr_adams(n, c.fiber) if c.fiber is not None else None
    return CleanCycleModel(g=c.g, components=comps, fiber=fiber)


def schur_cycle(alpha, c: CleanCycleModel, d_trunc: int) -> CleanCycleModel:
    """Schur operation on a cycle at the aggregate Chern-Mather level.

    The Jacobi-Trudi determinant, as in `lambdaring.schur_apply`, over the
    h_j (or e_j) of Newton's identity
    j f_j = sum_i (+-1)^(i-1) [i]_*c o f_(j-i), f_0 the point class
    (Macdonald I (2.11)); every product truncated at d_trunc as in
    convolve, exact in rationals.  Checks integrality and applies the same
    Schur operation to the fiber model when present.  Work over
    MAX_SCHUR_CYCLE_WORK is refused before any product.
    """
    alpha = Partition(alpha)
    g = c.g
    _require_trunc_valid(c, c, d_trunc)
    jt = JacobiTrudi(alpha)
    products = jt.k * (jt.k + 1) // 2 + jt.products
    work = products * ((d_trunc + 1) * (d_trunc + 2) // 2 + g)
    if work > MAX_SCHUR_CYCLE_WORK:
        raise ValueError(
            f"schur_cycle({alpha}) at g = {g}, d_trunc = {d_trunc} would take {products} "
            f"Pontryagin products, {work} units of work, over the limit of "
            f"{MAX_SCHUR_CYCLE_WORK}")

    def signed_sum(terms):
        out = ChowVector.zero(g)
        for sign, x, y in terms:
            x = x if y is None else pontryagin(x, y, d_trunc)
            out += x if sign > 0 else x.scale(-1)
        return out
    total = c.total_cm()
    # the [i]_*c truncated at d_trunc: the i = j term's f_0 is the Pontryagin
    # unit, so that term is p[j] itself, and the other products truncate anyway
    zeros = (Fraction(0),) * (g - 1 - d_trunc)
    p = [None] + [ChowVector._of(g, pushforward_n(i, total).coords[:d_trunc + 1] + zeros)
                  for i in range(1, jt.k + 1)]
    f = [None]
    for j in range(1, jt.k + 1):
        terms = [(1 if jt.complete or i % 2 else -1, p[i], f[j - i] if i < j else None)
                 for i in range(1, j + 1)]
        f.append(signed_sum(terms).scale(Fraction(1, j)))
    cm = jt.evaluate(f, signed_sum)
    bad = [i for i in range(d_trunc + 1) if cm.coords[i].denominator != 1]
    if bad:
        raise NonIntegralResultError(
            f"schur_cycle({alpha}) has non-integral Chern-Mather coordinates "
            f"at indices {bad}: {[str(cm.coords[i]) for i in bad]}"
        )
    fiber = None if c.fiber is None else schur_apply(alpha, c.fiber)
    return _aggregate(g, f"s_{alpha}", cm, c.all_gauss_finite, fiber)


def cm1_partition_product(beta, c0: int) -> Fraction:
    """Coefficient of c_1 in the degree-1 Chern-Mather class of
    [b1]_*L o ... o [bl]_*L for a cycle L with cm = (c0, c1, ...).

    Closed form (sum_i beta_i^2) * c0^(len(beta)-1); each factor [b]_* scales
    c_1 by b^2 and the degree-1 Pontryagin coefficient is multilinear.
    """
    beta = Partition(beta)
    if c0 < 0:
        raise ValueError("c0 must be nonnegative")
    return Fraction(sum(b * b for b in beta) * c0 ** (len(beta) - 1))


def essentially_multiplicity_free(c: CleanCycleModel) -> bool:
    """Whether [n]_* of the cycle stays reduced for n = 1..e, e the torsion
    exponent of the fiber group; requires the fiber model.

    Closed form, so no fiber is pushed: two keys sharing their free part
    key[:rank] differ by torsion of order dividing e and collide under [e],
    leaving a coefficient 2 in a reduced fiber; keys with different free
    parts never collide, as n times a nonzero free difference is nonzero.
    """
    if c.fiber is None:
        raise ValueError("essentially_multiplicity_free requires a fiber model")
    fiber = c.fiber
    if not fiber.is_reduced:
        return False
    rank, keys = fiber.group.rank, fiber.coeffs
    return not fiber.group.torsion or len({key[:rank] for key in keys}) == len(keys)
