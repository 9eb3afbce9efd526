"""Lambda-rings driven by Adams operations, modeled on group rings Z[Gamma].

Gamma is a finitely generated abelian group Z^r + Z/d_1 + ... + Z/d_t in
invariant-factor form (d_i | d_{i+1}).  Elements of the group ring are
finite integer-coefficient sums of group elements; the Adams operation
Psi^n pushes coefficients forward along g -> n*g.  Exterior powers and
general Schur operations are *defined* from the Adams operations through
the power-sum expansions of `symfun` -- legitimate because Z[Gamma] has no
Z-torsion -- and an integrality check at the end.  A non-integral result is
reported as an error: it certifies that the input is not the fiber of an
actual effective object.

Keys are canonical at the boundary: a `GroupRingElement` built from outside
(JSON, tests, other modules) has its keys reduced and validated once, and
every key it then holds is a canonical tuple, so the kernels below add and
scale keys without re-reducing the free part and build their results
through `GroupRingElement._of`, which trusts its keys.  A Schur operation
scales the power-sum coefficients by D, the lcm of their denominators, and
accumulates integers; the integrality check is c % D == 0.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .symfun import Partition, _is_int, schur_to_powersum


@dataclass(frozen=True)
class FgAbelianGroup:
    """Z^rank + Z/torsion[0] + ... in invariant-factor form."""

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "torsion", tuple(self.torsion))
        if not _is_int(self.rank) or not all(map(_is_int, self.torsion)):
            raise ValueError(
                f"rank and torsion must be integers: {self.rank!r}, {self.torsion!r}"
            )
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        for d in self.torsion:
            if d < 2:
                raise ValueError("torsion invariant factors must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError(
                    f"invariant factors must divide in order: {self.torsion}"
                )

    @property
    def ncoords(self) -> int:
        return self.rank + len(self.torsion)

    def canonical(self, element) -> tuple[int, ...]:
        """Validate and reduce an element given from outside: integer
        coordinates, free coords exact, torsion residues mod d_i."""
        element = tuple(element)
        if not all(map(_is_int, element)):
            raise ValueError(f"element coordinates must be integers: {element!r}")
        if len(element) != self.ncoords:
            raise ValueError(
                f"element length {len(element)} != rank+torsion {self.ncoords}"
            )
        return self._reduce(element)

    def _reduce(self, element: tuple) -> tuple[int, ...]:
        """Torsion coordinates mod d_i; the free ones are exact already."""
        if not self.torsion:
            return element
        r = self.rank
        return element[:r] + tuple(map(operator.mod, element[r:], self.torsion))

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.ncoords

    def add(self, a, b) -> tuple[int, ...]:
        """Sum of two canonical keys."""
        return self._reduce(tuple(map(operator.add, a, b)))

    def scale(self, n: int, a) -> tuple[int, ...]:
        """n times a canonical key."""
        return self._reduce(tuple([n * x for x in a]))

    def torsion_exponent(self) -> int:
        return self.torsion[-1] if self.torsion else 1

    def to_json(self) -> dict:
        return {"rank": self.rank, "torsion": list(self.torsion)}

    @classmethod
    def from_json(cls, data: dict) -> "FgAbelianGroup":
        return cls(rank=data["rank"], torsion=tuple(data.get("torsion", ())))


class GroupMismatchError(ValueError):
    pass


class NonIntegralResultError(ArithmeticError):
    """A Schur/lambda operation produced non-integer coefficients.

    This is a mathematical verdict, not a bug: the input cannot be the
    fiber of an effective clean cycle for the requested construction.
    """


@dataclass(frozen=True)
class GroupRingElement:
    """Finite integer combination of elements of a FgAbelianGroup."""

    group: FgAbelianGroup
    coeffs: dict = field(default_factory=dict)  # element tuple -> int

    def __post_init__(self):
        canonical = self.group.canonical
        summed: dict = {}
        for g, c in self.coeffs.items():
            if not _is_int(c):
                raise ValueError(f"coefficient of {g} must be an integer: {c!r}")
            g = canonical(g)
            summed[g] = summed.get(g, 0) + c
        object.__setattr__(self, "coeffs", {g: c for g, c in summed.items() if c})

    @classmethod
    def _of(cls, group: FgAbelianGroup, coeffs: dict) -> "GroupRingElement":
        """An element whose keys are already canonical; zero terms dropped."""
        self = object.__new__(cls)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coeffs", {g: c for g, c in coeffs.items() if c})
        return self

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check(other)
        coeffs = dict(self.coeffs)
        for g, c in other.coeffs.items():
            coeffs[g] = coeffs.get(g, 0) + c
        return GroupRingElement._of(self.group, coeffs)

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + other.scale(-1)

    def scale(self, n: int) -> "GroupRingElement":
        return GroupRingElement._of(self.group, {g: n * c for g, c in self.coeffs.items()})

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        return gr_multiply(self, other)

    def _check(self, other: "GroupRingElement"):
        if self.group != other.group:
            raise GroupMismatchError(f"{self.group} != {other.group}")

    # -- inspection ----------------------------------------------------------

    @property
    def coefficient_sum(self) -> int:
        return sum(self.coeffs.values())

    @property
    def is_effective(self) -> bool:
        return all(c >= 0 for c in self.coeffs.values())

    @property
    def is_reduced(self) -> bool:
        return all(c == 1 for c in self.coeffs.values())

    def __eq__(self, other):
        return (
            isinstance(other, GroupRingElement)
            and self.group == other.group
            and self.coeffs == other.coeffs
        )

    def __str__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(
            f"{c}*x{g}" for g, c in sorted(self.coeffs.items())
        )

    def to_json(self) -> dict:
        return {
            "group": self.group.to_json(),
            "coeffs": [[list(g), c] for g, c in sorted(self.coeffs.items())],
        }

    @classmethod
    def from_json(cls, data: dict) -> "GroupRingElement":
        """Parse an element; each group element may be listed only once."""
        group = FgAbelianGroup.from_json(data["group"])
        coeffs: dict = {}
        for g, c in data["coeffs"]:
            key = group.canonical(g)
            if key in coeffs:
                raise ValueError(f"group element {list(key)} is listed twice")
            coeffs[key] = c
        return cls(group, coeffs)


def gr_one(group: FgAbelianGroup) -> GroupRingElement:
    return GroupRingElement._of(group, {group.zero(): 1})


def gr_element(group: FgAbelianGroup, element, coeff: int = 1) -> GroupRingElement:
    return GroupRingElement(group, {tuple(element): coeff})


def gr_multiply(x: GroupRingElement, y: GroupRingElement) -> GroupRingElement:
    """Convolution product: group addition on supports, coefficients multiply."""
    x._check(y)
    add = x.group.add
    coeffs: dict = {}
    get = coeffs.get
    y_terms = list(y.coeffs.items())
    for g1, c1 in x.coeffs.items():
        for g2, c2 in y_terms:
            g = add(g1, g2)
            coeffs[g] = get(g, 0) + c1 * c2
    return GroupRingElement._of(x.group, coeffs)


def gr_adams(n: int, x: GroupRingElement) -> GroupRingElement:
    """Adams operation Psi^n: pushforward of coefficients along g -> n*g."""
    scale = x.group.scale
    coeffs: dict = {}
    for g, c in x.coeffs.items():
        h = scale(n, g)
        coeffs[h] = coeffs.get(h, 0) + c
    return GroupRingElement._of(x.group, coeffs)


def schur_apply(alpha, x: GroupRingElement) -> GroupRingElement:
    """Apply the Schur operation s_alpha, defined through Adams operations:
    sum_beta m(alpha,beta) * prod_i Psi^(beta_i) x, accumulated as integers
    over D, the lcm of the denominators of the m(alpha,beta).

    Raises NonIntegralResultError when the exact rational combination fails
    to have integer coefficients.
    """
    if not isinstance(alpha, Partition):
        alpha = Partition(tuple(alpha))
    terms = schur_to_powersum(alpha).terms
    den = lcm(*(m.denominator for m in terms.values()))
    group = x.group
    acc: dict = {}
    get = acc.get
    adams_cache: dict[int, GroupRingElement] = {}
    for beta, m in terms.items():
        weight = m.numerator * (den // m.denominator)
        prod = gr_one(group)
        for b in beta:
            if b not in adams_cache:
                adams_cache[b] = gr_adams(b, x)
            prod = gr_multiply(prod, adams_cache[b])
        for g, c in prod.coeffs.items():
            acc[g] = get(g, 0) + weight * c
    coeffs = {}
    for g, c in acc.items():
        if c % den:
            raise NonIntegralResultError(
                f"s_{alpha} produced non-integral coefficient {Fraction(c, den)} at {g}"
            )
        coeffs[g] = c // den
    return GroupRingElement._of(group, coeffs)


def lambda_op(k: int, x: GroupRingElement) -> GroupRingElement:
    """Exterior power lambda^k = s_(1^k)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return gr_one(x.group)
    return schur_apply(Partition((1,) * k), x)


def sym_op(k: int, x: GroupRingElement) -> GroupRingElement:
    """Symmetric power sym^k = s_(k)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return gr_one(x.group)
    return schur_apply(Partition((k,)), x)


# -- tensor constructions ----------------------------------------------------


@dataclass(frozen=True)
class TensorConstruction:
    """Expression tree over variable leaves: direct sums, tensor products
    and Schur functors, evaluated in any lambda-ring carrier we supply."""

    kind: str  # "var" | "sum" | "product" | "schur"
    children: tuple = ()
    index: int | None = None  # for "var": leaf index 0..r-1
    alpha: Partition | None = None  # for "schur"

    KINDS = ("var", "sum", "product", "schur")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown node kind {self.kind!r}")
        if self.kind == "var":
            if not _is_int(self.index) or self.index < 0:
                raise ValueError(f"var leaf needs a nonnegative integer index: {self.index!r}")
        elif self.kind == "schur":
            if self.alpha is None or len(self.children) != 1:
                raise ValueError("schur node needs alpha and exactly one child")
        elif not self.children:
            raise ValueError(f"{self.kind} node needs children")

    @classmethod
    def var(cls, index: int) -> "TensorConstruction":
        return cls("var", index=index)

    @classmethod
    def sum(cls, *children) -> "TensorConstruction":
        return cls("sum", children=tuple(children))

    @classmethod
    def product(cls, *children) -> "TensorConstruction":
        return cls("product", children=tuple(children))

    @classmethod
    def schur(cls, alpha, child) -> "TensorConstruction":
        if not isinstance(alpha, Partition):
            alpha = Partition(tuple(alpha))
        return cls("schur", children=(child,), alpha=alpha)

    @classmethod
    def alt(cls, k: int, child) -> "TensorConstruction":
        return cls.schur(Partition((1,) * k), child)

    def to_json(self) -> dict:
        if self.kind == "var":
            return {"kind": "var", "index": self.index}
        if self.kind == "schur":
            return {
                "kind": "schur",
                "alpha": list(self.alpha.parts),
                "child": self.children[0].to_json(),
            }
        return {"kind": self.kind, "children": [c.to_json() for c in self.children]}

    @classmethod
    def from_json(cls, data: dict) -> "TensorConstruction":
        kind = data["kind"]
        if kind == "var":
            return cls.var(data["index"])
        if kind == "schur":
            return cls.schur(data["alpha"], cls.from_json(data["child"]))
        return cls(kind, children=tuple(cls.from_json(c) for c in data["children"]))


def eval_construction(
    construction: TensorConstruction, xs: list[GroupRingElement]
) -> GroupRingElement:
    """Evaluate a tensor construction on group-ring elements."""
    if construction.kind == "var":
        if construction.index >= len(xs):
            raise ValueError(
                f"construction uses variable {construction.index} but only "
                f"{len(xs)} arguments were supplied"
            )
        return xs[construction.index]
    if construction.kind == "sum":
        out = eval_construction(construction.children[0], xs)
        for child in construction.children[1:]:
            out = out + eval_construction(child, xs)
        return out
    if construction.kind == "product":
        out = eval_construction(construction.children[0], xs)
        for child in construction.children[1:]:
            out = gr_multiply(out, eval_construction(child, xs))
        return out
    # schur
    return schur_apply(construction.alpha, eval_construction(construction.children[0], xs))
