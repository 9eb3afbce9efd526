"""Lambda-rings driven by Adams operations, modeled on group rings Z[Gamma].

Gamma is a finitely generated abelian group Z^r + Z/d_1 + ... + Z/d_t in
invariant-factor form (d_i | d_{i+1}).  Elements of the group ring are
finite integer-coefficient sums of group elements; the Adams operation
Psi^n pushes coefficients forward along g -> n*g.  A group element is a
line element (lambda^i [g] = 0 for i >= 2) and lambda_t turns sums into
products, so the one-column and one-row Schur operations lambda^k and Sym^k
are the t^k coefficients of prod_g (1 + [g]t)^(c_g) and
prod_g (1 - [g]t)^(-c_g), summed in integers.  Every other Schur operation
is *defined* from the Adams operations through the power-sum expansions of
`symfun` -- legitimate because Z[Gamma] has no Z-torsion -- and an
integrality check at the end.  Z[Gamma] is a lambda-ring, so a Schur
operation on any element, virtual ones included, has integer coefficients:
the check guards the implementation, raises AssertionError and says
nothing about the input.  The mathematical verdict on integrality
is the Chern-Mather check of `cycles.schur_cycle`, which raises
NonIntegralResultError.

Keys are canonical at the boundary: a `GroupRingElement` built from outside
(JSON, tests, other modules) has its keys reduced and validated once, and
every key it then holds is a canonical tuple.  The kernels below work in
Z[Z^n], n = rank + len(torsion), on keys packed into single integers
sum_i v_i 2^(s*i) (Kronecker substitution): group addition is one integer
addition and Psi^b one multiplication by b.  The slot width s is a whole
number of bytes, chosen from the largest |coordinate| the result can reach
(max|x| + max|y| for a product, |alpha| max|x| for s_alpha), so no slot
overflows into the next; it has no upper limit.  Torsion coordinates ride
along as unreduced lifts and each result key is reduced mod d_i once, when
it is unpacked; keys that meet there are summed in first-occurrence order.
The projection Z[Z^n] -> Z[Gamma] is a ring map commuting with every Psi^b,
so the Adams route scales the power-sum coefficients by D, the lcm of
their denominators, accumulates integers over the lifts, and checks
c % D == 0 after the projection.

An element's JSON is its to_json(): the group and its (key tuple,
coefficient) pairs, a pair list that the standard encoder writes as
[key, coefficient] arrays and `cli._dumps` writes from the tuples.

Output lists the terms in key order.  When every coordinate fits in a
signed byte, a key sorts by its coordinates packed as big-endian signed
bytes with each sign bit flipped (offset binary): one bytes comparison,
in C, orders two keys as the tuples compare, where a tuple comparison
walks the mostly-zero prefix of a dense key element by element.  Keys
with a larger coordinate are sorted as tuples.  An element whose keys are
already held in key order, as `schottky.cc_odp` builds its fiber, is
checked pair by pair and written as it is; the check stops at the first
pair out of order, so on a kernel result it costs little next to the sort.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice, repeat
from math import comb, lcm
from struct import Struct
from struct import error as struct_error

from .symfun import Partition, _check_schur_degree, _is_int, schur_to_powersum

# byte b -> b ^ 0x80: a signed byte's two's complement to offset binary,
# so that memcmp orders the bytes as the signed values
_FLIP_SIGN = bytes(b ^ 0x80 for b in range(256))

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
        """An element that takes over `coeffs`, whose keys are already
        canonical; zero terms dropped."""
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
        return GroupRingElement._of(self.group, coeffs)

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
        return " + ".join(
            f"{c}*x{g}" for g, c in sorted(self.coeffs.items())
        )

    def _sorted_items(self) -> list:
        """(key, coefficient) pairs in key order, sorted(self.coeffs.items()).
        Keys already held in ascending order are returned as they are.
        Otherwise keys whose coordinates all fit in a signed byte sort by
        their big-endian bytes with the sign bit flipped, which memcmp
        orders as the tuples; a coordinate outside [-128, 127] makes pack
        raise and the tuples are sorted instead."""
        keys = self.coeffs.keys()
        if all(map(operator.lt, keys, islice(keys, 1, None))):
            return list(self.coeffs.items())
        pack = Struct(f">{self.group.ncoords}b").pack
        try:
            return sorted(
                self.coeffs.items(), key=lambda kv: pack(*kv[0]).translate(_FLIP_SIGN)
            )
        except struct_error:
            return sorted(self.coeffs.items())

    def to_json(self) -> dict:
        return {"group": self.group.to_json(), "coeffs": self._sorted_items()}

    @classmethod
    def from_json(cls, data: dict) -> "GroupRingElement":
        """Parse an element; each group element may be listed only once."""
        group = FgAbelianGroup.from_json(data["group"])
        coeffs: dict = {}
        for g, c in data["coeffs"]:
            key = group.canonical(g)
            if key in coeffs:
                raise ValueError(f"group element {list(key)} is listed twice")
            if not _is_int(c):
                raise ValueError(f"coefficient of {key} must be an integer: {c!r}")
            coeffs[key] = c
        return cls._of(group, coeffs)


def gr_one(group: FgAbelianGroup) -> GroupRingElement:
    return GroupRingElement._of(group, {group.zero(): 1})


def gr_element(group: FgAbelianGroup, element, coeff: int = 1) -> GroupRingElement:
    return GroupRingElement(group, {tuple(element): coeff})


# -- packed kernels ------------------------------------------------------------


class _Packing:
    """Keys of `group` whose coordinates stay within +-bound, packed as
    integers P = sum_i v_i B^i with B = 2^(8 * width).  P is converted to
    and from the slots' two's-complement bytes T by T = (P + bias) ^ bias,
    where bias holds B/2 in every slot: adding it makes every slot
    nonnegative and the xor turns v_i + B/2 into v_i mod B.

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
            self.struct = Struct(f"={n}{'bhiq'[width.bit_length() - 1]}")
        s = 8 * width
        self.group, self.n, self.width = group, n, width
        self.bias = ((1 << s * n) - 1) // ((1 << s) - 1) << (s - 1)

    def _encode(self, key) -> bytes:
        if self.struct is not None:
            return self.struct.pack(*key)
        return b"".join(v.to_bytes(self.width, sys.byteorder, signed=True) for v in key)

    def _decode(self, buf: bytes):
        """The keys of a buffer of n-slot keys."""
        if self.struct is not None:
            return self.struct.iter_unpack(buf)
        w = self.width
        coords = [
            int.from_bytes(buf[i:i + w], sys.byteorder, signed=True)
            for i in range(0, len(buf), w)
        ]
        return zip(*[iter(coords)] * self.n)

    def pack(self, x: GroupRingElement) -> dict:
        """x as packed key -> coefficient, in x's order."""
        bias, encode = self.bias, self._encode
        return {
            (int.from_bytes(encode(g), sys.byteorder) ^ bias) - bias: c
            for g, c in x.coeffs.items()
        }

    def project(self, acc: dict):
        """(canonical key, summed coefficient of its lifts) pairs of a packed
        accumulator, keys in the order of their first lift, zero sums kept."""
        bias, nbytes = self.bias, self.n * self.width
        if self.n:
            keys = self._decode(b"".join([
                ((p + bias) ^ bias).to_bytes(nbytes, sys.byteorder) for p in acc
            ]))
        else:
            keys = repeat((), len(acc))
        group = self.group
        if not group.torsion:  # distinct lifts are distinct keys
            return zip(keys, acc.values())
        out: dict = {}
        get = out.get
        for g, c in zip(map(group._reduce, keys), acc.values()):
            out[g] = get(g, 0) + c
        return out.items()


def _max_abs(x: GroupRingElement) -> int:
    return max(map(abs, chain.from_iterable(x.coeffs)), default=0)


def _adams(n: int, xs: dict) -> dict:
    """Psi^n on packed lifts, which stay distinct unless n = 0."""
    if n:
        return {n * p: c for p, c in xs.items()}
    return {0: sum(xs.values())}


def _convolve(acc: dict, xs: dict, ys: dict) -> dict:
    """acc + xs * ys on packed lifts; new keys in pair order."""
    get = acc.get
    ys = list(ys.items())
    for p, c in xs.items():
        for q, d in ys:
            k = p + q
            acc[k] = get(k, 0) + c * d
    return acc


def gr_multiply(x: GroupRingElement, y: GroupRingElement) -> GroupRingElement:
    """Convolution product: group addition on supports, coefficients multiply."""
    x._check(y)
    packing = _Packing(x.group, _max_abs(x) + _max_abs(y), len(x.coeffs) * len(y.coeffs))
    acc = _convolve({}, packing.pack(x), packing.pack(y))
    return GroupRingElement._of(x.group, {g: c for g, c in packing.project(acc) if c})


def gr_adams(n: int, x: GroupRingElement) -> GroupRingElement:
    """Adams operation Psi^n: pushforward of coefficients along g -> n*g."""
    packing = _Packing(x.group, max(abs(n), 1) * _max_abs(x), len(x.coeffs))  # x must fit
    acc = _adams(n, packing.pack(x))
    return GroupRingElement._of(x.group, {g: c for g, c in packing.project(acc) if c})


def schur_apply(alpha, x: GroupRingElement) -> GroupRingElement:
    """Apply the Schur operation s_alpha: a one-row or one-column shape by the
    product formula (`_power`, integers only), every other shape through
    Adams operations (`_schur_by_adams`, the route with the integrality
    check).  Both routes refuse the empty shape and a degree over the limit."""
    alpha = Partition(alpha)
    _check_schur_degree(alpha.degree)
    if len(alpha) == 1 or alpha[0] == 1:
        return _power(alpha.degree, x, sym=len(alpha) == 1)
    return _schur_by_adams(alpha, x)


def _power(k: int, x: GroupRingElement, sym: bool) -> GroupRingElement:
    """lambda^k x, or Sym^k x if sym: the t^k coefficient of prod_g (1 + [g]t)^(c_g),
    or of prod_g (1 - [g]t)^(-c_g).  The factor of g is sum_i b_i [ig] t^i, b_i
    the generalized binomial C(c_g, i), or C(c_g + i - 1, i) for Sym.  e[j],
    the t^j coefficient of the product so far on packed lifts, is updated
    from j = k down, so that e[j - i] is still the old one."""
    # each key of the result is the sum of a k-multiset of x's support
    packing = _Packing(x.group, k * _max_abs(x), comb(len(x.coeffs) + k - 1, k))
    e = [{0: 1}] + [{} for _ in range(k)]
    for p, c in packing.pack(x).items():
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
    return GroupRingElement._of(x.group, dict(packing.project(e[k])))


def _schur_by_adams(alpha: Partition, x: GroupRingElement) -> GroupRingElement:
    """s_alpha x through Adams operations:
    sum_beta m(alpha,beta) * prod_i Psi^(beta_i) x, accumulated as integers
    over D, the lcm of the denominators of the m(alpha,beta).

    Raises AssertionError if the exact rational combination fails to have
    integer coefficients, which in the lambda-ring Z[Gamma] only a fault of
    this code can cause.
    """
    terms = schur_to_powersum(alpha).terms
    den = lcm(*(m.denominator for m in terms.values()))
    k = alpha.degree  # each key is the sum of a k-multiset of x's support
    packing = _Packing(x.group, k * _max_abs(x), comb(len(x.coeffs) + k - 1, k))
    xs = packing.pack(x)
    adams = {b: _adams(b, xs) for b in set(chain.from_iterable(terms))}
    acc: dict = {}
    for beta, m in terms.items():
        prod = {0: m.numerator * (den // m.denominator)}
        for b in beta[:-1]:
            prod = _convolve({}, prod, adams[b])
        _convolve(acc, prod, adams[beta[-1]])
    coeffs = {}
    for g, c in packing.project(acc):
        if c % den:
            raise AssertionError(
                f"s_{alpha} produced non-integral coefficient {Fraction(c, den)} at {g}"
            )
        if c:
            coeffs[g] = c // den
    return GroupRingElement._of(x.group, coeffs)


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
