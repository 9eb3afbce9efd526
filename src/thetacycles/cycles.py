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
(plus the exact fiber when both inputs carry one).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .chow import ChowVector, pontryagin, pushforward_n
from .lambdaring import (
    GroupRingElement,
    NonIntegralResultError,
    gr_adams,
    gr_multiply,
    schur_apply,
)
from .symfun import Partition, _is_int, schur_to_powersum

# Largest g of a cycle, whose Pontryagin products cost g^2 Fractions;
# theta_target builds cycles up to schottky.MAX_THETA_GENUS, the same value.
MAX_CYCLE_GENUS = 100


@dataclass(frozen=True)
class CycleComponent:
    """One irreducible (or aggregate) piece of a clean cycle."""

    label: str
    dim: int
    mult: int
    cm: ChowVector
    gauss_finite: bool = False

    def __post_init__(self):
        for name in ("dim", "mult"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ValueError(f"component {name!r} must be an integer, got {value!r}")
        g = self.cm.g
        if not 0 <= self.dim <= g - 1:
            raise ValueError(f"component dim must be in [0, {g - 1}], got {self.dim}")
        for i in range(self.dim + 1, g):
            if self.cm.coords[i] != 0:
                raise ValueError(
                    f"cm coordinate {i} nonzero above component dim {self.dim}"
                )
        if self.cm.coords[self.dim] == 0:
            raise ValueError(f"cm coordinate at dim {self.dim} must be nonzero")
        gd = self.cm.coords[0]
        if gd.denominator != 1 or gd <= 0:
            raise ValueError(
                f"Gauss degree (cm coordinate 0) must be a positive integer, got {gd}"
            )
        if self.dim == 0 and any(
            self.cm.coords[i] != (1 if i == 0 else 0) for i in range(g)
        ):
            raise ValueError("a point component must have cm = (1, 0, ..., 0)")

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


@dataclass(frozen=True)
class CleanCycleModel:
    g: int
    components: tuple = ()
    fiber: GroupRingElement | None = None

    def __post_init__(self):
        if not _is_int(self.g) or not 1 <= self.g <= MAX_CYCLE_GENUS:
            raise ValueError(f"g must be an integer in [1, {MAX_CYCLE_GENUS}], got {self.g!r}")
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        for c in comps:
            if c.g != self.g:
                raise ValueError(f"component {c.label} has g={c.g}, cycle has g={self.g}")
        if self.fiber is not None:
            if self.fiber.coefficient_sum != degree(self):
                raise ValueError(
                    f"fiber coefficient sum {self.fiber.coefficient_sum} != "
                    f"cycle degree {degree(self)}"
                )

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
    return ChowVector(g, tuple(Fraction(v) for v in coords))


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
    cannot be represented by a clean component and is rejected.
    """
    top = cm.top_index()
    if top is None:
        return CleanCycleModel(g=g, components=(), fiber=fiber)
    deg = cm.coords[0]
    if deg.denominator != 1:
        raise ValueError(f"aggregate Gauss degree {deg} is not an integer")
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


def _partition_cm(beta, pushed: dict, d_trunc: int) -> ChowVector:
    """Total Chern-Mather vector of [b1]_*c o [b2]_*c o ... (truncated) for
    a nonempty beta, from pushed[b] = [b]_* of the total of c."""
    total = pushed[beta[0]]
    for b in beta[1:]:
        total = pontryagin(total, pushed[b], d_trunc)
    return total


def schur_cycle(alpha, c: CleanCycleModel, d_trunc: int) -> CleanCycleModel:
    """Schur operation on a cycle at the aggregate Chern-Mather level.

    Computes sum_beta m(alpha,beta) * cm([beta_1]_*c o ...) exactly in
    rationals, checks integrality, and applies the same Schur operation to
    the fiber model when present.
    """
    alpha = Partition(alpha)
    g = c.g
    _require_trunc_valid(c, c, d_trunc)
    terms = schur_to_powersum(alpha).terms
    total = c.total_cm()
    pushed = {b: pushforward_n(b, total) for b in set(chain.from_iterable(terms))}
    coords = [Fraction(0)] * g
    for beta, m in terms.items():
        cm_beta = _partition_cm(beta, pushed, d_trunc)
        for i in range(g):
            coords[i] += m * cm_beta.coords[i]
    cm = ChowVector(g, tuple(coords))
    bad = [i for i in range(d_trunc + 1) if cm.coords[i].denominator != 1]
    if bad:
        raise NonIntegralResultError(
            f"schur_cycle({alpha}) has non-integral Chern-Mather coordinates "
            f"at indices {bad}: {[str(cm.coords[i]) for i in bad]}"
        )
    fiber = None
    if c.fiber is not None:
        fiber = schur_apply(alpha, c.fiber)
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
