"""Lambda-rings of group rings Z[Gamma]: Adams and Schur operations.

Gamma is a finitely generated abelian group Z^r + Z/d_1 + ... + Z/d_t in
invariant-factor form (d_i | d_{i+1}).  Elements of the group ring are
finite integer-coefficient sums of group elements; the Adams operation
Psi^n pushes coefficients forward along g -> n*g.  A group element is a
line element (lambda^i [g] = 0 for i >= 2) and lambda_t turns sums into
products, so e_j = lambda^j and h_j = Sym^j are the t^j coefficients of
prod_g (1 + [g]t)^(c_g) and prod_g (1 - [g]t)^(-c_g), summed in integers.
Every other Schur operation is an integer polynomial in them, its
Jacobi-Trudi determinant, evaluated through its minors (`symfun.JacobiTrudi`),
so it is computed in integers too, on any element, virtual ones included.
The verdict on integrality is `cycles.schur_cycle`'s NonIntegralResultError.

Keys are canonical at the boundary: a `GroupRingElement` built from outside
(JSON, tests, other modules) has its keys reduced and validated once, and
every key it then holds is a canonical tuple.  An element holds its terms
in ascending key order: the constructor, `from_json` and `+` sort them,
and every kernel result leaves `_Packing.project` sorted.  The kernels
below work in Z[Z^n], n = rank + len(torsion), on keys packed big-endian
into single integers sum_i v_i 2^(s*(n-1-i)) (Kronecker substitution):
group addition is one integer addition, Psi^b one multiplication by b,
and since every slot is a balanced signed digit, packed integers order as
their key tuples do.  The slot width s is a whole number of bytes, chosen
from the largest |coordinate| the result can reach (max|x| + max|y| for a
product, |alpha| max|x| for s_alpha), so no slot overflows into the next;
it has no upper limit.  Torsion coordinates ride along as unreduced lifts
and each result key is reduced mod d_i once, when it is unpacked; keys
that meet there are summed and sorted again as tuples, which is sound as
the projection Z[Z^n] -> Z[Gamma] is a ring map commuting with every Psi^b.

An element's JSON is its to_json(): the group and its (key tuple,
coefficient) pairs in key order, a pair list that the standard encoder
writes as [key, coefficient] arrays and `cli._dumps` writes from the
tuples.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, repeat
from math import comb
from struct import Struct

from .symfun import JacobiTrudi, Partition, _check_schur_degree, _is_int

# Most coordinates a group may have: every key, and the zero key of an empty
# element, is a tuple of this length (8 MB at the limit); the genus-7 theta
# fiber has 2,520.
MAX_GROUP_COORDS = 1_000_000

# Most key coordinates a dense element may hold, its term count times the
# group's coordinates, checked for schottky.cc_odp's fibers and for every
# kernel result before it is computed: the genus-7 theta fiber has
# 12,700,800, lambda^3 of the genus-5 one at most 17,714,400 (0.6 s); the
# genus-8 fiber would need 812,851,200 (about 6.5 GB of tuple slots).
MAX_FIBER_COORDS = 20_000_000


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
        if self.ncoords > MAX_GROUP_COORDS:
            raise ValueError(
                f"a group of {self.ncoords} coordinates is over the limit of {MAX_GROUP_COORDS}")
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
        # one pass over the types first; bools and int subclasses take the
        # per-coordinate check, which keeps its verdict and its message
        if not (set(map(type, element)) <= {int} or all(map(_is_int, element))):
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

    def to_json(self) -> dict:
        return {"rank": self.rank, "torsion": list(self.torsion)}

    @classmethod
    def from_json(cls, data: dict) -> "FgAbelianGroup":
        return cls(rank=data["rank"], torsion=tuple(data.get("torsion", ())))


class GroupMismatchError(ValueError):
    pass


class NonIntegralResultError(ArithmeticError):
    """A Schur operation on a cycle has non-integral Chern-Mather classes.

    Raised by `cycles.schur_cycle` alone, it is a mathematical verdict: no
    clean cycle has those aggregate classes.
    """


@dataclass(frozen=True)
class GroupRingElement:
    """Finite integer combination of elements of a FgAbelianGroup, its
    terms held in ascending key order."""

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
        object.__setattr__(self, "coeffs", {g: c for g, c in sorted(summed.items()) if c})

    @classmethod
    def _of(cls, group: FgAbelianGroup, coeffs: dict) -> "GroupRingElement":
        """An element that takes over `coeffs`, whose keys are already
        canonical and in ascending order; zero terms dropped."""
        if not all(coeffs.values()):
            coeffs = {g: c for g, c in coeffs.items() if c}
        self = object.__new__(cls)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check(other)
        coeffs = dict(self.coeffs)
        for g, c in other.coeffs.items():
            coeffs[g] = coeffs.get(g, 0) + c
        return GroupRingElement._of(self.group, dict(sorted(coeffs.items())))

    def _check(self, other: "GroupRingElement"):
        if self.group != other.group:
            raise GroupMismatchError(f"{self.group} != {other.group}")

    # -- inspection ----------------------------------------------------------

    @property
    def coefficient_sum(self) -> int:
        return sum(self.coeffs.values())

    @property
    def is_reduced(self) -> bool:
        return all(c == 1 for c in self.coeffs.values())

    def __str__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c}*x{g}" for g, c in self.coeffs.items())

    def to_json(self) -> dict:
        return {"group": self.group.to_json(), "coeffs": list(self.coeffs.items())}

    @classmethod
    def from_json(cls, data: dict) -> "GroupRingElement":
        """Parse an element; each group element may be listed only once."""
        group = FgAbelianGroup.from_json(data["group"])
        entries = data["coeffs"]
        if not isinstance(entries, list):
            raise TypeError(f"'coeffs' must be a list of [key, coefficient] pairs, got {entries!r}")
        pairs = []
        for entry in entries:
            try:
                g, c = entry
            except (TypeError, ValueError):
                raise TypeError(
                    f"'coeffs' entries must be [key, coefficient] pairs, got {entry!r}") from None
            key = group.canonical(g)
            if not _is_int(c):
                raise ValueError(f"coefficient of {key} must be an integer: {c!r}")
            pairs.append((key, c))
        pairs.sort(key=operator.itemgetter(0))  # a repeated key sorts next to itself
        coeffs = dict(pairs)
        if len(coeffs) < len(pairs):
            key = next(a for (a, _), (b, _) in zip(pairs, pairs[1:]) if a == b)
            raise ValueError(f"group element {list(key)} is listed twice")
        return cls._of(group, coeffs)


def gr_one(group: FgAbelianGroup) -> GroupRingElement:
    return GroupRingElement._of(group, {group.zero(): 1})


def gr_element(group: FgAbelianGroup, element, coeff: int = 1) -> GroupRingElement:
    return GroupRingElement(group, {tuple(element): coeff})


# -- packed kernels ------------------------------------------------------------


class _Packing:
    """Keys of `group` whose coordinates stay within +-bound, packed as
    integers P = sum_i v_i B^(n-1-i) with B = 2^(8 * width), the first
    coordinate in the top slot.  P is converted to and from the slots'
    big-endian two's-complement bytes T by T = (P + bias) ^ bias, where bias
    holds B/2 in every slot: adding it makes every slot nonnegative and the
    xor turns v_i + B/2 into v_i mod B.  As |v_i| < B/2, P < P' exactly
    when the key tuples compare so.

    A result of more than MAX_FIBER_COORDS key coordinates is refused before
    anything is packed.  Its keys number at most `terms`, the kernel's count
    of lifts, and at most (2 bound + 1)^n, the box the slots are sized from,
    formed only as far as it can undercut `terms`."""

    def __init__(self, group: FgAbelianGroup, bound: int, terms: int):
        n = group.ncoords
        if terms * n > MAX_FIBER_COORDS:
            box, side = 1, 2 * bound + 1
            for _ in range(n):
                if box >= terms:
                    break
                box *= side
            keys = min(terms, box)
            if keys * n > MAX_FIBER_COORDS:
                raise ValueError(
                    f"a result of up to {keys} keys of {n} coordinates is over "
                    f"the limit of {MAX_FIBER_COORDS} key coordinates"
                )
        width = (bound.bit_length() + 8) // 8  # bytes per slot, sign bit included
        self.struct = None
        if width <= 8:  # round up to struct's b, h, i or q
            width = 1 << (width - 1).bit_length()
            self.struct = Struct(f">{n}{'bhiq'[width.bit_length() - 1]}")
        s = 8 * width
        self.group, self.n, self.width = group, n, width
        self.bias = ((1 << s * n) - 1) // ((1 << s) - 1) << (s - 1)

    def _encode(self, key) -> bytes:
        if self.struct is not None:
            return self.struct.pack(*key)
        return b"".join(v.to_bytes(self.width, "big", signed=True) for v in key)

    def _decode(self, buf: bytes):
        """The keys of a buffer of n-slot keys."""
        if self.struct is not None:
            return self.struct.iter_unpack(buf)
        w = self.width
        coords = [
            int.from_bytes(buf[i:i + w], "big", signed=True)
            for i in range(0, len(buf), w)
        ]
        return zip(*[iter(coords)] * self.n)

    def pack(self, x: GroupRingElement) -> dict:
        """x as packed key -> coefficient, in x's order."""
        bias, encode = self.bias, self._encode
        return {
            (int.from_bytes(encode(g), "big") ^ bias) - bias: c
            for g, c in x.coeffs.items()
        }

    def project(self, acc: dict):
        """(canonical key, summed coefficient of its lifts) pairs of a packed
        accumulator in ascending key order, zero sums kept."""
        bias, nbytes = self.bias, self.n * self.width
        ps = sorted(acc)
        if self.n:
            keys = self._decode(b"".join([
                ((p + bias) ^ bias).to_bytes(nbytes, "big") for p in ps
            ]))
        else:
            keys = repeat((), len(ps))
        coeffs = map(acc.__getitem__, ps)
        group = self.group
        if not group.torsion:  # distinct lifts are distinct keys
            return zip(keys, coeffs)
        out: dict = {}
        get = out.get
        for g, c in zip(map(group._reduce, keys), coeffs):
            out[g] = get(g, 0) + c
        return sorted(out.items())  # reduction reorders the lifts


def _max_abs(x: GroupRingElement) -> int:
    return max(map(abs, chain.from_iterable(x.coeffs)), default=0)


def _signed_sum(terms: list) -> dict:
    """Sum sign * xs * ys over (sign, xs, ys) on packed lifts, ys None for 1."""
    acc: dict = {}
    get = acc.get
    for sign, xs, ys in terms:
        ys = [(0, 1)] if ys is None else list(ys.items())
        for p, c in xs.items():
            c *= sign
            for q, d in ys:
                k = p + q
                acc[k] = get(k, 0) + c * d
    return acc


def gr_multiply(x: GroupRingElement, y: GroupRingElement) -> GroupRingElement:
    """Convolution product: group addition on supports, coefficients multiply."""
    x._check(y)
    packing = _Packing(x.group, _max_abs(x) + _max_abs(y), len(x.coeffs) * len(y.coeffs))
    acc = _signed_sum([(1, packing.pack(x), packing.pack(y))])
    return GroupRingElement._of(x.group, dict(packing.project(acc)))


def gr_adams(n: int, x: GroupRingElement) -> GroupRingElement:
    """Adams operation Psi^n: pushforward of coefficients along g -> n*g."""
    packing = _Packing(x.group, max(abs(n), 1) * _max_abs(x), len(x.coeffs))  # x must fit
    xs = packing.pack(x)  # lifts that stay distinct under Psi^n unless n = 0
    acc = {n * p: c for p, c in xs.items()} if n else {0: sum(xs.values())}
    return GroupRingElement._of(x.group, dict(packing.project(acc)))


def schur_apply(alpha, x: GroupRingElement) -> GroupRingElement:
    """Apply the Schur operation s_alpha, in integers: its Jacobi-Trudi
    determinant (`symfun.JacobiTrudi`) over the t^j coefficients f[j] of the
    product formula.  Refuses the empty shape and a degree over the limit."""
    jt = JacobiTrudi(alpha)
    k = sum(alpha)  # each key is the sum of a k-multiset of x's support
    # a minor of degree m <= k has lifts that are sums of m-multisets of x's
    # support, at most C(len + m - 1, m) <= C(len + k - 1, k) of them and
    # within +-k max|x|: every minor stays within this packing's bound
    packing = _Packing(x.group, k * _max_abs(x), comb(len(x.coeffs) + k - 1, k))
    acc = jt.evaluate(_coefficients(jt.k, packing.pack(x), jt.complete), _signed_sum)
    return GroupRingElement._of(x.group, dict(packing.project(acc)))


def _coefficients(k: int, xs: dict, sym: bool) -> list:
    """The t^j coefficients [e_0, ..., e_k] of prod_g (1 + [g]t)^(c_g) on
    packed lifts xs, or the h_j of prod_g (1 - [g]t)^(-c_g) if sym.  The
    factor of g is sum_i b_i [ig] t^i, b_i = C(c_g, i), or C(c_g + i - 1, i)
    for Sym.  e[j], the t^j coefficient of the product so far, is updated
    from j = k down, so that e[j - i] is still the old one."""
    e = [{0: 1}] + [{} for _ in range(k)]
    for p, c in xs.items():
        b = [1]
        for i in range(1, k + 1):  # b_i = b_(i-1) (c -+ (i - 1)) / i, exact
            b.append(b[-1] * (c + i - 1 if sym else c - i + 1) // i)
        for j in range(k, 0, -1):
            acc = e[j]
            get = acc.get
            for i in range(1, j + 1):
                bi, shift = b[i], i * p
                if not bi:  # nor is any later b_i nonzero
                    break
                for q, d in e[j - i].items():
                    q += shift
                    acc[q] = get(q, 0) + bi * d
    return e


def lambda_op(k: int, x: GroupRingElement) -> GroupRingElement:
    """Exterior power lambda^k = s_(1^k)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return gr_one(x.group)
    _check_schur_degree(k)  # before the k parts of (1^k) are made
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
    def schur(cls, alpha, child) -> "TensorConstruction":
        return cls("schur", children=(child,), alpha=Partition(alpha))

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
    if construction.kind == "schur":
        return schur_apply(construction.alpha, eval_construction(construction.children[0], xs))
    combine = operator.add if construction.kind == "sum" else gr_multiply
    return reduce(combine, (eval_construction(child, xs) for child in construction.children))
