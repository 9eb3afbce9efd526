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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .symfun import Partition, schur_to_powersum


@dataclass(frozen=True)
class FgAbelianGroup:
    """Z^rank + Z/torsion[0] + ... in invariant-factor form."""

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "torsion", tuple(int(d) for d in self.torsion))
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
        """Reduce an element tuple: free coords exact, torsion residues mod d_i."""
        element = tuple(int(x) for x in element)
        if len(element) != self.ncoords:
            raise ValueError(
                f"element length {len(element)} != rank+torsion {self.ncoords}"
            )
        free = element[: self.rank]
        tors = tuple(
            x % d for x, d in zip(element[self.rank:], self.torsion)
        )
        return free + tors

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.ncoords

    def add(self, a, b) -> tuple[int, ...]:
        return self.canonical(tuple(x + y for x, y in zip(a, b)))

    def scale(self, n: int, a) -> tuple[int, ...]:
        return self.canonical(tuple(n * x for x in a))

    def free_part(self, a) -> tuple[int, ...]:
        return tuple(a[: self.rank])

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
        clean = {}
        for g, c in self.coeffs.items():
            c = int(c)
            if c != 0:
                clean[self.group.canonical(g)] = c
        object.__setattr__(self, "coeffs", clean)

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check(other)
        coeffs = dict(self.coeffs)
        for g, c in other.coeffs.items():
            coeffs[g] = coeffs.get(g, 0) + c
        return GroupRingElement(self.group, coeffs)

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + other.scale(-1)

    def scale(self, n: int) -> "GroupRingElement":
        return GroupRingElement(self.group, {g: n * c for g, c in self.coeffs.items()})

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

    def support(self):
        return self.coeffs.keys()

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
        group = FgAbelianGroup.from_json(data["group"])
        return cls(group, {tuple(g): c for g, c in data["coeffs"]})


def gr_one(group: FgAbelianGroup) -> GroupRingElement:
    return GroupRingElement(group, {group.zero(): 1})


def gr_element(group: FgAbelianGroup, element, coeff: int = 1) -> GroupRingElement:
    return GroupRingElement(group, {tuple(element): coeff})


def gr_multiply(x: GroupRingElement, y: GroupRingElement) -> GroupRingElement:
    """Convolution product: group addition on supports, coefficients multiply."""
    x._check(y)
    group = x.group
    coeffs: dict = {}
    for g1, c1 in x.coeffs.items():
        for g2, c2 in y.coeffs.items():
            g = group.add(g1, g2)
            coeffs[g] = coeffs.get(g, 0) + c1 * c2
    return GroupRingElement(group, coeffs)


def gr_adams(n: int, x: GroupRingElement) -> GroupRingElement:
    """Adams operation Psi^n: pushforward of coefficients along g -> n*g."""
    group = x.group
    coeffs: dict = {}
    for g, c in x.coeffs.items():
        h = group.scale(n, g)
        coeffs[h] = coeffs.get(h, 0) + c
    return GroupRingElement(group, coeffs)


def _rational_combination(alpha: Partition, x: GroupRingElement) -> dict:
    """sum_beta m(alpha,beta) * prod_i Psi^(beta_i) x, as Fraction coefficients."""
    group = x.group
    acc: dict = {}
    adams_cache: dict[int, GroupRingElement] = {}

    def adams(n):
        if n not in adams_cache:
            adams_cache[n] = gr_adams(n, x)
        return adams_cache[n]

    for beta, m in schur_to_powersum(alpha).terms.items():
        prod = gr_one(group)
        for b in beta:
            prod = gr_multiply(prod, adams(b))
        for g, c in prod.coeffs.items():
            acc[g] = acc.get(g, Fraction(0)) + m * c
    return {g: c for g, c in acc.items() if c != 0}


def schur_apply(alpha, x: GroupRingElement) -> GroupRingElement:
    """Apply the Schur operation s_alpha, defined through Adams operations.

    Raises NonIntegralResultError when the exact rational combination fails
    to have integer coefficients.
    """
    if not isinstance(alpha, Partition):
        alpha = Partition(tuple(alpha))
    acc = _rational_combination(alpha, x)
    coeffs = {}
    for g, c in acc.items():
        if c.denominator != 1:
            raise NonIntegralResultError(
                f"s_{alpha} produced non-integral coefficient {c} at {g}"
            )
        coeffs[g] = c.numerator
    return GroupRingElement(x.group, coeffs)


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
            if self.index is None or self.index < 0:
                raise ValueError("var leaf needs a nonnegative index")
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

    def arity(self) -> int:
        if self.kind == "var":
            return self.index + 1
        return max((c.arity() for c in self.children), default=0)

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
            return cls.schur(tuple(data["alpha"]), cls.from_json(data["child"]))
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
