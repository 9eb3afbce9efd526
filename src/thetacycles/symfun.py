"""Exact symmetric-function engine.

Partitions, and transition coefficients between the power-sum, elementary
and Schur bases.  Everything is exact:
coefficients are `fractions.Fraction` over arbitrary-precision integers,
and no floating point appears anywhere in this module.

The central operation is the expansion of a Schur polynomial in power sums,

    s_alpha = sum_beta  m(alpha, beta) * p_beta,

whose coefficients are computed as m = chi^alpha(beta) / z_beta with the
symmetric-group character value chi^alpha(beta) evaluated by the
Murnaghan-Nakayama rule.  The elementary symmetric polynomial e_n = s_(1^n)
is read from the sign character instead, chi^(1^n)(beta) = (-1)^(n - l(beta)),
which gives a cross-check of the rule on one column.  The `symfun`
subcommand prints these expansions; both lambda-rings, `lambdaring` and the
Chern-Mather classes of `cycles`, evaluate s_alpha instead as its
Jacobi-Trudi determinant, through the memoised minors of `JacobiTrudi`.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import factorial
from operator import ge


def _is_int(x) -> bool:
    """x is an int and not a bool: the one integer check for all input."""
    return isinstance(x, int) and not isinstance(x, bool)


class Partition(tuple):
    """A weakly decreasing tuple of positive integers, checked once when it
    is made; it equals, and hashes as, the plain tuple of its parts."""

    __slots__ = ()

    def __new__(cls, parts):
        if type(parts) is cls:
            return parts
        self = super().__new__(cls, parts)
        if not {int}.issuperset(map(type, self)) and not all(map(_is_int, self)):
            raise ValueError(f"partition parts must be integers: {self!r}")
        if self and min(self) <= 0:
            raise ValueError(f"partition parts must be positive: {self!r}")
        if not all(map(ge, self, self[1:])):
            raise ValueError(f"partition parts must be weakly decreasing: {self!r}")
        return self

    @property
    def degree(self) -> int:
        return sum(self)

    def __str__(self):
        return "(" + ",".join(map(str, self)) + ")"


# the largest degree `partitions` lists: through cli.run, p(45) = 89,134
# partitions take 0.9 to 1.2 s to list and print and e_45 1.4 to 1.6 s to
# expand and print, and p(46) = 105,558 (Python 3.11, 2 vCPU)
MAX_PARTITION_DEGREE = 45

# the largest degree schur_to_powersum expands, one Murnaghan-Nakayama
# character per partition: p(32) = 8,349 take up to 1.6 s (s_(4^8)) and
# p(33) = 10,143 up to 2.0 s (Python 3.11, 2 vCPU)
MAX_SCHUR_DEGREE = 32


def partitions(n: int) -> list[Partition]:
    """All partitions of ``n``, in lexicographically descending order.

    The order starts at ``(n)`` and ends at ``(1,...,1)``; for ``n = 0``
    the list is ``[()]``.  An ``n`` over MAX_PARTITION_DEGREE is refused
    before any partition is listed.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > MAX_PARTITION_DEGREE:
        raise ValueError(f"degree {n} is over the limit of {MAX_PARTITION_DEGREE} for partitions")
    out: list[Partition] = []
    make = tuple.__new__  # each prefix is a partition: made once, unchecked

    def rec(remaining: int, maxpart: int, prefix: list[int]):
        if remaining == 0:
            out.append(make(Partition, prefix))
            return
        for p in range(min(maxpart, remaining), 0, -1):
            prefix.append(p)
            rec(remaining - p, p, prefix)
            prefix.pop()

    rec(n, n, [])
    return out


def zee(beta: Partition) -> int:
    """Order of the centralizer of a permutation of cycle type ``beta``.

    z_beta = prod_i i^{m_i} m_i!  where m_i is the number of parts equal i.
    """
    mult: dict[int, int] = {}
    for p in beta:
        mult[p] = mult.get(p, 0) + 1
    z = 1
    for i, m in mult.items():
        z *= i**m * factorial(m)
    return z


@lru_cache(maxsize=None)
def _mn_character(alpha: tuple[int, ...], beta: tuple[int, ...]) -> int:
    """chi^alpha(beta) by recursive border-strip removal (Murnaghan-Nakayama).

    Border strips of size k are enumerated through the beta-set (first-column
    hook length) encoding: with B = {alpha_i + (l-1-i)}, removing a strip of
    size k is replacing some b in B by b-k not in B, with sign (-1)^(number
    of elements of B strictly between b-k and b).
    """
    if not beta:
        return 1 if not alpha else 0
    k = beta[0]
    rest = beta[1:]
    ell = len(alpha) + k
    padded = list(alpha) + [0] * (ell - len(alpha))
    bset = [padded[i] + (ell - 1 - i) for i in range(ell)]
    present = set(bset)
    total = 0
    for b in bset:
        if b >= k and (b - k) not in present:
            height = sum(1 for c in bset if b - k < c < b)
            newb = sorted((present - {b}) | {b - k}, reverse=True)
            newalpha = tuple(
                x for x in (newb[i] - (ell - 1 - i) for i in range(ell)) if x > 0
            )
            total += (-1) ** height * _mn_character(newalpha, rest)
    return total


def symmetric_group_character(alpha: Partition, beta: Partition) -> int:
    """Irreducible character of the symmetric group, chi^alpha at class beta."""
    if alpha.degree != beta.degree:
        raise ValueError("alpha and beta must have equal degree")
    return _mn_character(alpha, beta)


class SymExpr(namedtuple("SymExpr", "terms")):
    """A finite linear combination of power sums p_beta: ``terms`` maps
    Partition -> Fraction and never stores zeros.  Partition keys and
    Fraction coefficients are kept as given; anything else is converted."""

    __slots__ = ()

    def __new__(cls, terms: dict):
        clean = {}
        for part, coeff in terms.items():
            part = Partition(part)
            if type(coeff) is not Fraction:
                coeff = Fraction(coeff)
            if coeff:
                clean[part] = coeff
        return super().__new__(cls, clean)

    def __str__(self):
        return " + ".join(
            f"{self.terms[p]}*p{p}"
            for p in sorted(self.terms, key=lambda q: (q.degree, q), reverse=True)
        ) or "0"

    def to_json(self) -> dict:
        """The power-sum basis and the (partition, "p/q") terms, in
        descending order of the partitions: a pair list, which the standard
        encoder writes as [parts, "p/q"] arrays."""
        return {
            "basis": "powersum",
            "terms": [(p, str(c)) for p, c in sorted(self.terms.items(), reverse=True)],
        }


def _check_schur_degree(n: int) -> None:
    """Refuse a Schur expansion of degree n: the empty partition's, or one
    over MAX_SCHUR_DEGREE, before any partition is listed.  JacobiTrudi
    lists none; it keeps this as its degree guard, so the refusals of both
    lambda-rings stand."""
    if n == 0:
        raise ValueError("alpha must be a nonempty partition")
    if n > MAX_SCHUR_DEGREE:
        raise ValueError(
            f"degree {n} is over the limit of {MAX_SCHUR_DEGREE} for a Schur expansion")


def schur_to_powersum(alpha) -> SymExpr:
    """Expand the Schur function s_alpha in the power-sum basis.

    Coefficients are chi^alpha(beta)/z_beta, exact rationals.
    """
    alpha = Partition(alpha)
    _check_schur_degree(alpha.degree)
    terms = {}
    for beta in partitions(alpha.degree):
        chi = symmetric_group_character(alpha, beta)
        if chi:
            terms[beta] = Fraction(chi, zee(beta))
    return SymExpr(terms)


class JacobiTrudi:
    """The Jacobi-Trudi determinant s_alpha = det(f_(rows_r - r + c)), f_j =
    h_j over the rows of alpha, or e_j over those of alpha' when it has no
    more rows (Macdonald I (3.4), (3.5)), held as its minors memoised on
    column sets from the last row up.  levels[n] holds the minors of the top
    l - n rows, one per set of columns the rows below take, each expanded
    along its last row r into entries (sign, j, sub): f_j times minor sub of
    the next level, for each free column c with j = rows_r - r + c >= 0 (a
    bound that falls going up, so no minor is a dead end), sign -1 to the
    free columns right of c.  k, the largest j, is the corner's hook length:
    the top row takes the last column when each row r below takes r - 1."""

    def __init__(self, alpha):
        alpha = Partition(alpha)
        _check_schur_degree(alpha.degree)
        conj = [sum(a > j for a in alpha) for j in range(max(alpha, default=0))]
        self.complete = len(conj) > len(alpha)
        rows = alpha if self.complete else conj
        width = len(rows)
        self.k, self.levels = rows[0] + width - 1, []
        below = [0]  # the column sets, as bitmasks, that the rows below take
        for r in range(width - 1, -1, -1):
            index, level = {}, []  # index: column set -> its minor one level down
            for used in below:
                free = [c for c in range(width) if not used >> c & 1]
                level.append([
                    ((-1) ** (len(free) - 1 - pos), j, index.setdefault(used | 1 << c, len(index)))
                    for pos, c in enumerate(free) if (j := rows[r] - r + c) >= 0])
            self.levels.append(level)
            below = list(index)
        self.products = sum(  # the top row's entries are by the empty minor
            j > 0 for level in self.levels[:-1] for entries in level for _, j, _ in entries)

    def evaluate(self, f: list, signed_sum):
        """The determinant, f[j] being f_j and signed_sum(terms) the sum of sign
        x y over the (sign, x, y) of terms, y None for a lone x.  Forms no
        product by f_0 or the empty minor (products counts the others), and a
        minor of one entry, on its last free column so of sign +, is its term."""
        below = [None]  # the empty minor: f_j alone; two levels alive at once
        for level in reversed(self.levels):
            sums = [[(sign, f[j], below[sub]) if j else (sign, below[sub], None)
                     for sign, j, sub in entries] for entries in level]
            below = [terms[0][1] if len(terms) == 1 and terms[0][2] is None
                     else signed_sum(terms) for terms in sums]
        return below[0]


def elementary_to_powersum(n: int) -> SymExpr:
    """Expand e_n in power sums from the sign character,

    e_n = sum_(beta |- n) (-1)^(n - l(beta)) p_beta / z_beta.

    Independent of the Murnaghan-Nakayama recursion; e_n = s_(1^n) is used
    as a cross-check in the test suite.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return SymExpr(
        {beta: Fraction((-1) ** (n - len(beta)), zee(beta)) for beta in partitions(n)}
    )
