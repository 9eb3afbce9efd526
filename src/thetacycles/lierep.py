"""Root systems and representation rings for the simple Dynkin types.

Weights are integer tuples in the fundamental-weight basis.  The simple
root alpha_i is row i of the Cartan matrix in this basis, so the simple
reflection is s_i(w) = w - w[i] * cartan[i]; it is applied on the nonzero
entries of the row alone, node i and its neighbours, at most four.  The
invariant bilinear form is normalized so short simple roots have squared
length 2.

Each simple type is one plate (_plate, after Bourbaki, Lie VI, Plates
I-IX): its Dynkin edges, the symmetrizers d_i = (alpha_i, alpha_i)/2, the
closed form of its inverse Cartan matrix, -w0 and its number of positive
roots.  The Cartan matrix comes from the diagram and d: joined nodes have
(alpha_i, alpha_j) = -max(d_i, d_j).

All lattice arithmetic is in integers.  Each concept has one integer form
per root system: the inverse Cartan matrix as N / den with C N = den I,
which gives den (u, u) = sum_ij u_i N_ij d_j u_j and 2 rho^vee as twice the
row sums of N / den, and one table of positive roots, each a tuple of its
fundamental and simple-root coordinates, half its squared length, its
height and its support, built on first use: the closures, orbit sizes and
Freudenthal read it.  A weight lam pairs with the positive root alpha =
sum_i r_i alpha_i as (lam, alpha) = sum_i r_i (d_i lam_i).  The
Weyl numerators (lam + rho, alpha) come from one routine
(RootSystem._pairings): for A-D the pairings of epsilon-coordinates,
x_i - x_k and x_i + x_k and x_i or 2 x_i, which read no table, and for
E6-E8, F4 and G2 the table.

A Weyl orbit is described by its dominant representative, so Weyl-invariant
questions are answered in the dominant chamber, with closed forms where a
theorem gives one:

- the dominant representative of a weight of type A-D comes from sorting its
  epsilon-coordinates, on which W acts by permutations (A), signed
  permutations (B, C) and signed permutations with an even number of sign
  changes (D) (Bourbaki, Lie VI, Plates I-IV); E6-E8, F4 and G2 reflect at
  the first negative coordinate until none is left;
- an orbit is listed as a tree rooted at its dominant weight: every other
  weight w has one parent, s_j w for j its first negative coordinate, so each
  weight is formed once and no set of those seen is kept;
- the dominant weights of dimension at most a bound are walked once each,
  in sorted order, raising coordinates in index order (_walk); the Weyl
  dimension grows with every coordinate, so a branch ends at the first
  weight over the bound, a coordinate whose fundamental weight is over the
  bound, by its closed-form dimension for A-D, is never raised, and the
  Weyl product the walk forms to test the bound gives the dimension;
- the dominant weights of an irreducible are the closure of the highest
  weight under "subtract a positive root, keep the result if it is
  dominant" (covers in the dominance order on dominant weights differ by
  positive roots: Stembridge, Adv. Math. 136, 1998); for dominant mu,
  mu - alpha is dominant exactly when mu_i >= alpha_i wherever alpha_i > 0,
  so only those differences are formed, and each weight's depth below the
  highest one is the sum of the root heights subtracted.  The closure of
  lam with lam_i >= 1 holds that of lam - varpi_i shifted by varpi_i, at
  the same depths, as its weights with nu_i >= 1, so a closure seeded with
  it searches only for the rest, those with nu_i = 0;
- multiplicities come from Freudenthal's recursion on dominant weights,
  checked once against sum_mu m(mu) |W mu| = dim V_lam, and a character is
  decomposed by peeling dominant weights, largest (w + rho, w + rho) first;
- |W| and orbit sizes |W| / |W_J| are products of (ht a + 1) / ht a over
  positive roots a (Macdonald's Poincare series at q = 1, Math. Ann. 1972);
- -w0 permutes the fundamental weights by the opposition involution of the
  Dynkin diagram (Bourbaki, Lie VI, Plates), so duals are permuted
  coordinates;
- the Frobenius-Schur sign of a self-dual irreducible is
  (-1)^<lam, 2 rho^vee> (Steinberg; Bourbaki, Lie VIII, 7.5);
- [P : Q + Z lam] = gcd(den, lam N), as den = det C = [P : Q];
- a weight of V_lam lies on a root line iff a dominant one lies on the line
  of a dominant root (the highest root or the highest short root);
- multiplicities only grow along dominant shifts: V_lam is U(n-) modulo the
  left ideal of the f_i^(lam_i + 1) (Humphreys, Introduction to Lie Algebras
  and Representation Theory, 21.4), so for dominant nu the multiplicity of
  lam + nu - beta in V_(lam + nu) is at least that of lam - beta in V_lam,
  and a weight above a non-wmf lam - varpi_i is not wmf either;
- a nontrivial irreducible of a simple algebra of rank n is faithful, so its
  Cartan subalgebra embeds in the traceless diagonal matrices and its
  dimension is at least n + 1: a sweep to dimension max_dim stops at rank
  max_dim - 1.

Public functions check the weights they are given.  The sweeps
(classify_wmf, quasi_minuscule_dim_search) make their weights themselves, so
they call unchecked kernels on them, and each root system keeps two tables
that later sweeps, and enumerate_dominant_weights, read instead of redoing
the work:

- the walk table: the (weight, dimension) walk to the largest bound asked
  so far, which a smaller bound filters and a larger one replaces;
- the rows table: the wmf rows to the largest bound asked so far, whose rows
  of dimension at most D' are the rows to any bound D' below it.

A sweep reads each weight's facts from one uncached closure, built by one
routine, RootSystem._closure (rank 1 has closed forms): classify_wmf seeds
it with the closure of the weight's walk parent, keeps it only while a walk
child of a wmf weight is still to come, and takes its orbit sum from the
parent's too, which is the parent's dimension: only the weights whose zero
pattern the shift by varpi_i changes, and the new ones, are sized.
quasi_minuscule_dim_search and the predicate is_wmf build it whole and drop
it once read.  The one cached closure entry, dominant_weights_below, serves
Freudenthal.

Characters are operated on in the group ring Z[P] of the weight lattice
with the `lambdaring` kernels.  freudenthal_character's characters are
trusted (Character._of): each weight is an orbit weight of a Freudenthal
multiplicity, Weyl-invariant by construction.  The public Character
constructor, and char_tensor, char_alt and char_sym through it, check every
weight and multiplicity and the invariance.

RootSystem instances are immutable after construction apart from internal
memo tables, and tables built on first use, whose entries are deterministic
functions of their keys (a weight, or a bound for the walk and rows tables,
stored with it); concurrent races can at worst recompute a value or keep a
smaller bound's table, never change one.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate, compress, islice, repeat
from math import comb, gcd, prod
from operator import add, floordiv, mul, not_, sub

from .lambdaring import (
    FgAbelianGroup,
    GroupRingElement,
    gr_multiply,
    lambda_op,
    sym_op,
)
from .symfun import _is_int

SIMPLE_TYPES = ("A", "B", "C", "D", "E", "F", "G")

# the largest rank a weight sweep builds root systems for: all types up to
# rank 40 take 0.10 s to construct, and 0.49 s with their positive-root
# tables, which a sweep builds only where a closure reads them (best of 3,
# Python 3.11, 2 vCPU)
MAX_SWEEP_RANK = 40

# the largest dimension a weight sweep walks to: A1 alone has max_dim - 1
# weights up to it, so no sweep is shorter than the bound, and
# classify_wmf(40, MAX_SWEEP_DIM) takes 7 s and a peak RSS of 130 MB
# (Python 3.11, 2 vCPU)
MAX_SWEEP_DIM = 100_000

# the largest rank a root system is built for: a classical type of rank 100
# takes 8-15 ms to construct, and its positive-root table, built on first use
# by a closure, an orbit size or Freudenthal, 0.08-0.17 s; B150 takes 0.07 s
# and 0.58 s (best of 2-3, Python 3.11, 2 vCPU)
MAX_ROOT_SYSTEM_RANK = 100

# the largest dimension of a character whose weights are listed.  A cold
# rep-char with the limit lifted takes (dimension, seconds; Python 3.11,
# 2 vCPU; runs spread by about 25%):
#
#   type   2 varpi_1        varpi_2          varpi_1 + varpi_2 (A: + varpi_n)
#   A50     1,326  0.13      1,275  0.09       2,600  0.14
#   B50     5,150  0.43      5,050  0.34     343,299  3.0
#   C50     5,050  0.28      4,949  0.23     333,200  2.1
#   D50     5,049  0.34      4,950  0.26     333,200  2.1
#   A100    5,151  0.47      5,050  0.30      10,200  0.52
#   B100   20,300  2.0      20,100  2.0      (2.7 million weights, not run)
#   C100   20,100  1.5      19,899  1.4
#   D100   20,099  1.5      19,900  1.3
#
# and E8 2 varpi_8 (27,000) 0.11 s.  The slowest inputs admitted are
# B85 2 varpi_1 (14,705) and B86 varpi_2 (14,878), 1.3-1.5 s; B92 2 varpi_1
# (17,204) took up to 1.8 s and B99 2 varpi_1 (19,899) 2.0-2.4 s.
MAX_CHARACTER_DIM = 15_000


def _plate(letter: str, rank: int) -> tuple:
    """Bourbaki's plate of the simple type letter_rank (Lie VI, Plates
    I-IX): (C, d, N, den, p, number of positive roots).

    Each type states its Dynkin edges, the symmetrizers d_i = (alpha_i,
    alpha_i)/2 (short roots 1), N / den = C^-1 (closed forms in 1-based
    indices, the Plates' integer tables for E6-E8, F4, G2) and p with
    w0(varpi_i) = -varpi_p(i).  Row i of N / den is varpi_i in simple-root
    coordinates, and den = det C = [P : Q].  Row i of C is alpha_i in
    fundamental coordinates, C_ij = (alpha_i, alpha_j) / d_j, and joined
    nodes have (alpha_i, alpha_j) = -max(d_i, d_j), so C comes from the
    diagram and d alone.
    """
    n = rank
    chain = [(i, i + 1) for i in range(n - 1)]
    p = list(range(n))
    table = None
    if letter == "A":
        if n < 1:
            raise ValueError("A_n needs n >= 1")
        edges, d, den, count = chain, [1] * n, n + 1, n * (n + 1) // 2
        p.reverse()

        def entry(i, j):
            return min(i, j) * (n + 1 - max(i, j))
    elif letter == "B":
        if n < 2:
            raise ValueError("B_n needs n >= 2")
        edges, d, den, count = chain, [2] * (n - 1) + [1], 2, n * n

        def entry(i, j):
            return 2 * min(i, j) if i < n else j
    elif letter == "C":
        if n < 2:
            raise ValueError("C_n needs n >= 2")
        edges, d, den, count = chain, [1] * (n - 1) + [2], 2, n * n

        def entry(i, j):
            return 2 * min(i, j) if j < n else i
    elif letter == "D":
        if n < 3:
            raise ValueError("D_n needs n >= 3")
        edges, d, den, count = chain[:-1] + [(n - 3, n - 1)], [1] * n, 4, n * (n - 1)
        if n % 2:
            p[-2], p[-1] = p[-1], p[-2]

        def entry(i, j):
            if i > n - 2 and j > n - 2:
                return n if i == j else n - 2
            return (2 if max(i, j) > n - 2 else 4) * min(i, j)
    elif letter == "E":
        if n not in (6, 7, 8):
            raise ValueError("E_n needs n in {6,7,8}")
        # Bourbaki: chain 1-3-4-5-6(-7)(-8), node 2 attached to 4
        edges, d = [(0, 2), (1, 3)] + chain[2:], [1] * n
        if n == 6:
            p = [5, 1, 4, 3, 2, 0]
            den, count, table = 3, 36, (
                (4, 3, 5, 6, 4, 2), (3, 6, 6, 9, 6, 3), (5, 6, 10, 12, 8, 4),
                (6, 9, 12, 18, 12, 6), (4, 6, 8, 12, 10, 5), (2, 3, 4, 6, 5, 4))
        elif n == 7:
            den, count, table = 2, 63, (
                (4, 4, 6, 8, 6, 4, 2), (4, 7, 8, 12, 9, 6, 3), (6, 8, 12, 16, 12, 8, 4),
                (8, 12, 16, 24, 18, 12, 6), (6, 9, 12, 18, 15, 10, 5),
                (4, 6, 8, 12, 10, 8, 4), (2, 3, 4, 6, 5, 4, 3))
        else:
            den, count, table = 1, 120, (
                (4, 5, 7, 10, 8, 6, 4, 2), (5, 8, 10, 15, 12, 9, 6, 3),
                (7, 10, 14, 20, 16, 12, 8, 4), (10, 15, 20, 30, 24, 18, 12, 6),
                (8, 12, 16, 24, 20, 15, 10, 5), (6, 9, 12, 18, 15, 12, 8, 4),
                (4, 6, 8, 12, 10, 8, 6, 3), (2, 3, 4, 6, 5, 4, 3, 2))
    elif letter == "F":
        if n != 4:
            raise ValueError("F_n needs n = 4")
        edges, d, den, count = chain, [2, 2, 1, 1], 1, 24
        table = ((2, 3, 4, 2), (3, 6, 8, 4), (2, 4, 6, 3), (1, 2, 3, 2))
    elif letter == "G":
        if n != 2:
            raise ValueError("G_n needs n = 2")
        edges, d, den, count = chain, [1, 3], 1, 6
        table = ((2, 1), (3, 2))
    else:
        raise ValueError(f"unknown type {letter!r}")
    C = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        inner = -max(d[i], d[j])
        C[i][j], C[j][i] = inner // d[j], inner // d[i]
    if table is None:
        nodes = range(1, n + 1)
        table = tuple(tuple(entry(i, j) for j in nodes) for i in nodes)
    return tuple(map(tuple, C)), tuple(d), table, den, tuple(p), count


def _eps(letter: str, w) -> list:
    """The epsilon-coordinates of the weight w of a type A-D (Bourbaki, Lie
    VI, Plates I-IV), doubled for B and D.  With s_i = w_i + ... + w_(n-1):

    - A_n: e = (s_0, ..., s_(n-1), 0), up to a common shift;
    - B_n, doubled: E_i = 2 s_i - w_(n-1);
    - C_n: e_i = s_i;
    - D_n, doubled: E_i = 2 s_i - w_(n-2) - w_(n-1), so E_(n-1) =
      w_(n-1) - w_(n-2).

    rho, all ones, is (n, ..., 0) for A, (2n-1, ..., 1) for B, (n, ..., 1)
    for C and (2n-2, ..., 0) for D.
    """
    if letter == "A":
        e = list(accumulate(reversed(w), initial=0))
    elif letter == "C":
        e = list(accumulate(reversed(w)))
    else:
        # E_(n-1) = w_(n-1) (B) or w_(n-1) - w_(n-2) (D), and E_i = E_(i+1) + 2 w_i
        doubled = list(map(add, w, w))
        doubled[-1] = w[-1] if letter == "B" else w[-1] - w[-2]
        e = list(accumulate(reversed(doubled)))
    e.reverse()
    return e


def _sorted_dominant(letter: str, w) -> tuple:
    """The dominant weight in the Weyl orbit of w for a type A-D, which acts
    on the epsilon-coordinates e = _eps(letter, w) by permutations (A),
    signed permutations (B, C) and signed permutations with an even number
    of sign changes (D) (Bourbaki, Lie VI, Plates I-IV).  They are sorted
    descending, by |e| for B-D, D's last one negated when an odd number were
    negative (a zero, sorted last, takes the sign), and converted back:
    w_i = e_i - e_(i+1) (halved when doubled), with w_(n-1) = e_(n-1) for B
    and C and (E_(n-2) + E_(n-1)) / 2 for D.
    """
    signed = _eps(letter, w)
    if letter == "A":
        signed.sort(reverse=True)
        return tuple(map(sub, signed, signed[1:]))
    e = sorted(map(abs, signed), reverse=True)
    if letter == "C":
        e.append(0)
        return tuple(map(sub, e, e[1:]))
    if letter == "B":
        return tuple(map(floordiv, map(sub, e, e[1:]), repeat(2))) + (e[-1],)
    if sum(map((0).__gt__, signed)) % 2:
        e[-1] = -e[-1]
    return tuple(map(floordiv, map(sub, e, e[1:]), repeat(2))) + ((e[-2] + e[-1]) // 2,)


class RootSystem:
    """Immutable simple root system data."""

    def __init__(self, letter: str, rank: int):
        if rank > MAX_ROOT_SYSTEM_RANK:
            raise ValueError(
                f"a root system of rank {rank} is over the limit of {MAX_ROOT_SYSTEM_RANK}"
            )
        self.letter = letter
        self.rank = rank
        # the Cartan matrix, d, N / den = C^-1 (den = det C = [P : Q]) and
        # p with w0(varpi_i) = -varpi_p(i)
        (self.cartan, self.d, self._inv_num, self._inv_den, self.w0_permutation,
         self._root_count) = _plate(letter, rank)
        # the columns j with C_ij != 0 of each Cartan row, at most four: a
        # simple reflection moves only node i and its neighbours
        self._cartan_support = tuple(
            tuple(j for j, c in enumerate(row) if c) for row in self.cartan
        )
        # den * (w_i, w_j) = N_ij d_j, from (w_i, alpha_j) = delta_ij d_j
        N, d = self._inv_num, self.d
        assert all(
            N[i][j] * d[j] == N[j][i] * d[i] for i in range(rank) for j in range(i)
        ), "inner product must be symmetric"
        self._inv_num_columns = tuple(zip(*N))  # for center_kernel_index
        # dominant_weights_below's closures: no benchmark workload hits it; it
        # stays for bench/tracing.py, which counts its hits (ROADMAP item 5,
        # library-native tracing)
        self._dominant_below_cache: dict = {}
        # the weight sweeps' tables (see _walk and _wmf_rows):
        # (bound, (lam, dim) walk to it) and (bound, wmf rows up to it)
        self._walk_table = None
        self._rows_table = None
        # positive_roots and _closure_steps(), each built on first use
        self._roots = self._steps = None
        self._freudenthal_cache: dict = {}
        self._orbit_index_cache: dict = {}
        # the product of the (rho, alpha), in the scale of _pairings: E6-E8,
        # F4 and G2 build their root table for it, A-D need none
        self._weyl_dim_den = prod(self._pairings((1,) * rank))
        # 2 rho^vee, the sum of the positive coroots, in simple-coroot
        # coordinates: rho^vee is the sum of the fundamental coweights, whose
        # simple-coroot coordinates are the columns of C^-1 = N / den, so
        # 2 rho^vee_i is twice the sum of row i of N over den
        self._two_rho_vee = tuple(2 * sum(row) // self._inv_den for row in N)

    # -- construction helpers ------------------------------------------------

    @property
    def positive_roots(self) -> tuple:
        """The positive roots, lowest first, one tuple per root alpha:
        (fundamental coordinates w, simple-root coordinates r,
        d_alpha = (alpha, alpha)/2, height, support bitmask);
        a weight pairs as (lam, alpha) = sum_i r_i (d_i lam_i).  Built on
        first use and set by plain assignment, as _closure_steps() is, and
        counted against the plate."""
        if self._roots is None:
            roots = self._enumerate_positive_roots()
            if len(roots) != self._root_count:
                raise AssertionError(f"{self.name}: found {len(roots)} positive roots, "
                                     f"expected {self._root_count}")
            self._roots = roots
        return self._roots

    def _enumerate_positive_roots(self):
        """Close the simple roots under the simple reflections, upwards.

        s_i permutes the positive roots other than alpha_i, and a root beta
        with <beta, alpha_i^vee> = k < 0 maps to the higher root beta - k
        alpha_i; every non-simple positive root is reached this way from a
        lower one.  Fundamental coordinates are formed only for a new root,
        by a sparse reflection; the height and the support grow with the
        coordinate r_i raised.
        """
        d, n = self.d, self.rank
        # r -> (w, d_alpha, height, support)
        found = {(0,) * i + (1,) + (0,) * (n - 1 - i): (self.cartan[i], d[i], 1, 1 << i)
                 for i in range(n)}
        layer = list(found)
        while layer:
            nxt = []
            for r in layer:
                w, length, height, support = found[r]
                for i, k in enumerate(w):
                    if k < 0:
                        up = r[:i] + (r[i] - k,) + r[i + 1:]
                        if up not in found:
                            found[up] = (self.reflect(i, w), length, height - k, support | 1 << i)
                            nxt.append(up)
            layer = nxt
        return tuple(
            (w, r, length, height, support)
            for r, (w, length, height, support)
            in sorted(found.items(), key=lambda item: (item[1][2], item[0]))
        )

    # -- basic weight operations ----------------------------------------------

    @property
    def name(self) -> str:
        return f"{self.letter}{self.rank}"

    def zero(self):
        return (0,) * self.rank

    def check_weight(self, w) -> tuple:
        w = tuple(w)
        if not all(map(_is_int, w)):
            raise ValueError(f"weight coordinates must be integers: {w!r}")
        if len(w) != self.rank:
            raise ValueError(
                f"weight {w} has length {len(w)}, expected rank {self.rank}"
            )
        return w

    def _check_dominant(self, lam) -> tuple:
        lam = self.check_weight(lam)
        if min(lam) < 0:
            raise ValueError(f"{lam} is not dominant")
        return lam

    def reflect(self, i: int, w):
        k = w[i]
        if k == 0:
            return tuple(w)
        row = self.cartan[i]
        w = list(w)
        for j in self._cartan_support[i]:
            w[j] -= k * row[j]
        return tuple(w)

    def dominant_representative(self, w):
        """The unique dominant weight in the Weyl orbit of w: for A-D by
        sorting its epsilon-coordinates (_sorted_dominant), for E-G by
        reflecting at the first negative coordinate until none is left."""
        if self.letter in "ABCD":
            return _sorted_dominant(self.letter, w)
        w = tuple(w)
        while True:
            for i in range(self.rank):
                if w[i] < 0:
                    w = self.reflect(i, w)
                    break
            else:
                return w

    def negate_dominant(self, w):
        """-w0(w) for dominant w, the dominant representative of -w: the
        coordinates permuted by the opposition involution."""
        return tuple(w[i] for i in self.w0_permutation)

    def _scaled_norm(self, u) -> int:
        """den * (u, u) = sum_ij u_i N_ij d_j u_j; den is self._inv_den."""
        du = tuple(map(mul, self.d, u))
        return sum(x * sum(map(mul, row, du)) for x, row in zip(u, self._inv_num) if x)

    # -- orbits ---------------------------------------------------------------

    def weyl_orbit(self, w) -> set:
        """The Weyl orbit of w."""
        return set(self._orbit(self.dominant_representative(self.check_weight(w))))

    def _orbit(self, dom) -> list:
        """The Weyl orbit of the dominant weight dom, each weight formed once.

        A weight w != dom has one parent, s_j w for j its first negative
        coordinate, and the parent is higher by -w_j alpha_j, so the orbit is
        a tree rooted at dom.  The children of v are the s_i v with v_i > 0
        whose coordinates before i stay nonnegative.  A reflection raises only
        the neighbours of i, so such an i lies before v's first negative
        coordinate f, where every child qualifies, or is a neighbour of f
        after it, where the child is tested.
        """
        reflect, support, rank = self.reflect, self._cartan_support, self.rank
        out = [dom]
        stack = [(dom, rank)]
        while stack:
            v, first = stack.pop()
            for i in range(first):
                if v[i] > 0:
                    u = reflect(i, v)
                    out.append(u)
                    stack.append((u, i))
            if first < rank:
                for i in support[first]:
                    if i > first and v[i] > 0:
                        u = reflect(i, v)
                        if min(u[:i]) >= 0:
                            out.append(u)
                            stack.append((u, i))
        return out

    def orbit_size(self, w) -> int:
        """Size of the Weyl orbit of w without enumerating it, from its
        dominant representative."""
        return self._orbit_index(self.dominant_representative(self.check_weight(w)))

    def _orbit_index(self, dom) -> int:
        """[W : W_J], the size of the orbit of the dominant weight dom, for J
        the nodes on which dom vanishes.

        |W| is the product of (ht a + 1) / ht a over the positive roots a
        (Macdonald, "The Poincare series of a Coxeter group", Math. Ann.
        1972, at q = 1).  The positive roots of W_J are those supported on
        J, so the index is the same product over the other positive roots.
        """
        zeros = tuple(map(not_, dom))
        index = self._orbit_index_cache.get(zeros)
        if index is None:
            fixed = sum(1 << i for i, z in enumerate(zeros) if z)
            num = den = 1
            for _, _, _, height, support in self.positive_roots:
                if support & ~fixed:
                    num *= height + 1
                    den *= height
            index = self._orbit_index_cache[zeros] = num // den
        return index

    # -- dimensions and dominant weight systems --------------------------------

    def _pairings(self, w) -> list:
        """The pairings (w, alpha) of the weight w with the positive roots,
        each times a positive constant of its root, so the Weyl dimension is
        prod _pairings(lam + rho) / prod _pairings(rho).

        For A-D they come from x = _eps(letter, w): x_i - x_k for i < k, plus
        x_i + x_k for B-D, plus x_i for B or 2 x_i for C (Bourbaki, Lie VI,
        Plates I-IV), and no root table is read; E6-E8, F4 and G2 pair
        through the table, sum_i r_i (d_i w_i)."""
        letter = self.letter
        if letter in "ABCD":
            x = _eps(letter, w)
            out = [a - b for k, a in enumerate(x, 1) for b in x[k:]]
            if letter != "A":
                out += [a + b for k, a in enumerate(x, 1) for b in x[k:]]
                out += x if letter == "B" else [a + a for a in x] if letter == "C" else ()
            return out
        dw = tuple(map(mul, self.d, w))
        return [sum(map(mul, r, dw)) for _, r, _, _, _ in self.positive_roots]

    def _fundamental_dim(self, j: int) -> int:
        """dim V_(varpi_j) for 0-based j, in closed form for A-D with k = j + 1
        (the exterior powers of the standard representations, their primitive
        parts for C, and the spin representations): C(n + 1, k) for A_n;
        C(2n + 1, k), k < n, and 2^n for B_n; C(2n, k) - C(2n, k - 2) for C_n;
        C(2n, k), k <= n - 2, and 2^(n - 1) for D_n.  E6-E8, F4 and G2 take
        the Weyl product."""
        n, k = self.rank, j + 1
        if self.letter == "A":
            return comb(n + 1, k)
        if self.letter == "B":
            return comb(2 * n + 1, k) if k < n else 1 << n
        if self.letter == "C":
            return comb(2 * n, k) - comb(2 * n, k - 2) if k > 1 else 2 * n
        if self.letter == "D":
            return comb(2 * n, k) if k < n - 1 else 1 << (n - 1)
        return prod(self._pairings([1] * j + [2] + [1] * (n - k))) // self._weyl_dim_den

    def weyl_dim(self, lam) -> int:
        """Weyl dimension formula, exact, from _pairings."""
        lam = self._check_dominant(lam)
        num = prod(self._pairings([x + 1 for x in lam]))
        assert num % self._weyl_dim_den == 0
        return num // self._weyl_dim_den

    def dominant_weights_below(self, lam) -> list:
        """All dominant mu with lam - mu a nonnegative root combination,
        highest first (by height, ties by weight).

        By saturation these are exactly the dominant weights of V_lam.  Two
        such weights differ by a chain of positive roots through dominant
        weights (covers in the dominance order on dominant weights are
        positive roots: Stembridge, "The partial order of dominant weights",
        Adv. Math. 1998), so the set is the closure of lam under "subtract a
        positive root, keep the result if it is dominant"; each weight mu's
        depth ht(lam - mu) from the closure orders it.
        """
        lam = self._check_dominant(lam)
        cached = self._dominant_below_cache.get(lam)
        if cached is None:
            depths = self._closure(lam)
            cached = self._dominant_below_cache[lam] = [
                mu for _, mu in sorted(((-depth, mu) for mu, depth in depths.items()),
                                       reverse=True)]
        return cached

    def _closure(self, lam, seed=None) -> dict:
        """The dominant weights mu of V_lam, each with its depth ht(lam - mu),
        for a dominant tuple lam: unchecked, unordered and uncached.  The
        sweeps read each weight's facts from its keys (see the module notes).

        For dominant mu, mu - alpha is dominant exactly when mu_i >= alpha_i
        at the coordinates where alpha_i > 0, so each root is tested on those
        coordinates before its difference is formed.  lam has depth 0, and
        subtracting alpha adds ht(alpha), so the order needs no height of its
        own.  Without a seed every weight is expanded by every root.

        A seed (below, i, steps) for lam_i >= 1 holds below = _closure(lam -
        varpi_i) and steps = _seed_steps(i).  For dominant nu with nu_i >= 1,
        lam - nu lies in Q+ exactly when (lam - varpi_i) - (nu - varpi_i)
        does, so the weights with nu_i >= 1 are those of below shifted by
        varpi_i, at the same depth.  A step from a shifted weight mu lands on
        nu_i = 0 exactly when alpha_i = mu_i, and one from nu_i = 0 stays
        there exactly when alpha_i = 0 (alpha_i < 0 lands on a shifted
        weight), so only the shifted weights whose mu_i is the i-th
        coordinate of a positive root are expanded, each by steps[mu_i], and
        the weights they reach by steps[0].  The shifted weights are inserted
        first, in the order of below, so the entries after the first
        len(below) are the weights with nu_i = 0 (_wmf_rows reads them so).
        """
        if seed is None:
            seen = {lam: 0}
            frontier = [lam]
        else:
            below, i, by_coord = seed
            seen = {mu[:i] + (mu[i] + 1,) + mu[i + 1:]: depth for mu, depth in below.items()}
            frontier = [mu for mu in seen if mu[i] in by_coord]
        steps = self._closure_steps()
        while frontier:
            nxt = []
            for mu in frontier:
                depth = seen[mu]
                for a, positive, height in steps if seed is None else by_coord[mu[i]]:
                    for j in positive:
                        if mu[j] < a[j]:
                            break
                    else:
                        cand = tuple(map(sub, mu, a))
                        if cand not in seen:
                            seen[cand] = depth + height
                            nxt.append(cand)
            frontier = nxt
        return seen

    def _closure_steps(self) -> tuple:
        """The closure steps (alpha, coordinates where alpha is positive,
        height) of the positive roots, set on first use by plain assignment
        (a cached_property's store through __dict__ slows every later load)."""
        if self._steps is None:
            self._steps = tuple((a, tuple(i for i, x in enumerate(a) if x > 0), height)
                                for a, _, _, height, _ in self.positive_roots)
        return self._steps

    def _seed_steps(self, i: int) -> dict:
        """A seeded closure's steps at coordinate i: alpha_i -> the closure
        steps of the roots alpha with that i-th coordinate, for alpha_i >= 0."""
        by_coord: dict = {0: []}
        for step in self._closure_steps():
            if step[0][i] >= 0:
                by_coord.setdefault(step[0][i], []).append(step)
        return by_coord

    def freudenthal_dominant(self, lam) -> dict:
        """Dominant weight -> multiplicity for the irreducible V_lam."""
        lam = self._check_dominant(lam)
        cached = self._freudenthal_cache.get(lam)
        if cached is not None:
            return cached
        if self.rank == 1:
            out = {(lam[0] - 2 * i,): 1 for i in range(lam[0] // 2 + 1)}
            self._freudenthal_cache[lam] = out
            return out
        doms = self.dominant_weights_below(lam)
        mults: dict = {lam: 1}
        # m(mu) = 2 sum_alpha sum_j m(mu + j alpha) (mu + j alpha, alpha)
        #         / ((lam + rho, lam + rho) - (mu + rho, mu + rho)),
        # with both forms scaled by den to integers
        den = self._inv_den
        dominant = self.dominant_representative
        norm_top = self._scaled_norm(tuple(x + 1 for x in lam))
        roots = self.positive_roots
        for mu in doms[1:]:
            denom = norm_top - self._scaled_norm(tuple(x + 1 for x in mu))
            dmu = tuple(map(mul, self.d, mu))
            total = 0
            for a, r, length, _, _ in roots:
                # (mu + j alpha, alpha) = (mu, alpha) + 2 j d_alpha
                mu_alpha = sum(map(mul, r, dmu))
                nu, j = mu, 1
                while True:
                    nu = tuple(map(add, nu, a))
                    m = mults.get(dominant(nu))
                    if m is None:
                        break
                    total += m * (mu_alpha + 2 * j * length)
                    j += 1
            val, rem = divmod(2 * den * total, denom)
            if rem or val <= 0:
                raise AssertionError(f"dominant weight closure of {lam} incomplete: "
                                     f"no positive integer multiplicity at {mu}")
            mults[mu] = val
        # a weight missing from the closure drops its orbit here; it can only
        # lower the multiplicities above it, as each (mu + j alpha, alpha) > 0
        if sum(m * self._orbit_index(mu) for mu, m in mults.items()) != self.weyl_dim(lam):
            raise AssertionError(f"dominant weight closure of {lam} incomplete")
        self._freudenthal_cache[lam] = mults
        return mults

    def __repr__(self):
        return f"RootSystem({self.name})"


_ROOT_SYSTEM_CACHE: dict = {}


def root_system(name, rank: int | None = None) -> RootSystem:
    """Factory: root_system("B5") or root_system("B", 5); cached."""
    if rank is None:
        letter, digits = name[:1].upper(), name[1:]
        if letter not in SIMPLE_TYPES or not digits.isdigit():
            raise ValueError(
                f"bad root system name {name!r}: expected a type letter A-G "
                "followed by the rank, e.g. B5"
            )
        rank = int(digits)
    else:
        letter = name.upper()
    key = (letter, rank)
    if key not in _ROOT_SYSTEM_CACHE:
        _ROOT_SYSTEM_CACHE[key] = RootSystem(letter, rank)
    return _ROOT_SYSTEM_CACHE[key]


def canonical_simple_types(max_rank: int):
    """Non-redundant list of simple types up to a rank bound:
    A_n (n>=1), B_n (n>=2), C_n (n>=3), D_n (n>=4), plus exceptionals."""
    out = []
    for n in range(1, max_rank + 1):
        out.append(("A", n))
    for n in range(2, max_rank + 1):
        out.append(("B", n))
    for n in range(3, max_rank + 1):
        out.append(("C", n))
    for n in range(4, max_rank + 1):
        out.append(("D", n))
    for letter, n in (("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)):
        if n <= max_rank:
            out.append((letter, n))
    return out


def _sweep_types(max_rank: int, max_dim: int):
    """canonical_simple_types for a sweep to dimension max_dim: ranks above
    max_dim - 1 have no nontrivial irreducible that small.  A sweep still
    above MAX_SWEEP_RANK, or to a dimension above MAX_SWEEP_DIM, is refused
    before any root system is built, as is a rank or dimension below 1."""
    if max_rank < 1 or max_dim < 1:
        raise ValueError(
            f"a sweep needs a rank and a dimension of at least 1, got rank "
            f"{max_rank} and dimension {max_dim}"
        )
    rank = min(max_rank, max_dim - 1)
    if rank > MAX_SWEEP_RANK:
        raise ValueError(
            f"a sweep to rank {rank} (the least of max_rank and dim - 1) is "
            f"over the limit of {MAX_SWEEP_RANK}"
        )
    if max_dim > MAX_SWEEP_DIM:
        raise ValueError(
            f"a sweep to dimension {max_dim} is over the limit of {MAX_SWEEP_DIM}"
        )
    return canonical_simple_types(rank)


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------


class NotACharacterError(ArithmeticError):
    """A decomposition or lambda-operation exposed the input as corrupted."""


class Character(namedtuple("Character", "rs weights")):
    """Weyl-invariant weight multiplicity map with positive multiplicities:
    weights maps weight tuple -> positive int."""

    __slots__ = ()

    def __new__(cls, rs: RootSystem, weights: dict):
        clean = {}
        for w, m in weights.items():
            w = tuple(w)
            if not _is_int(m):
                raise NotACharacterError(f"multiplicity at {w} must be an integer: {m!r}")
            if not all(map(_is_int, w)):
                raise NotACharacterError(f"weight coordinates must be integers: {w!r}")
            if len(w) != rs.rank:
                raise NotACharacterError(
                    f"weight {w} has length {len(w)}, expected rank {rs.rank}"
                )
            if m < 0:
                raise NotACharacterError(f"negative multiplicity {m} at {w}")
            if m:
                clean[w] = m
        for w, m in clean.items():
            for i in range(rs.rank):
                if w[i] != 0 and clean.get(rs.reflect(i, w), 0) != m:
                    raise NotACharacterError(
                        f"weight map is not Weyl-invariant at {w}, reflection {i}"
                    )
        return super().__new__(cls, rs, clean)

    @classmethod
    def _of(cls, rs: RootSystem, weights: dict) -> "Character":
        """A character that takes over `weights`, built by the library as int
        tuples of the rank's length with positive multiplicities, invariant
        by construction."""
        return tuple.__new__(cls, (rs, weights))

    @property
    def dimension(self) -> int:
        return sum(self.weights.values())

    def to_json(self) -> dict:
        return {"type": self.rs.name, "weights": sorted(self.weights.items())}


def freudenthal_character(rs: RootSystem, lam) -> Character:
    """Full weight multiplicity map of the irreducible with highest weight lam,
    trusted: each weight is an orbit weight of a Freudenthal multiplicity.
    A V_lam of dimension over MAX_CHARACTER_DIM is refused before any
    closure is built."""
    dim = rs.weyl_dim(lam)
    if dim > MAX_CHARACTER_DIM:
        raise ValueError(
            f"a character of dimension {dim} is over the limit of {MAX_CHARACTER_DIM}"
        )
    weights: dict = {}
    for mu, m in rs.freudenthal_dominant(lam).items():
        weights.update(dict.fromkeys(rs._orbit(mu), m))
    return Character._of(rs, weights)


def _group_ring(x: Character) -> GroupRingElement:
    """x as an element of the group ring Z[P] of the weight lattice, in key
    order: Character checked each weight as an int tuple of the rank's
    length, and Z[P] has no torsion to reduce, so the keys are canonical."""
    return GroupRingElement._of(FgAbelianGroup(x.rs.rank), dict(sorted(x.weights.items())))


def char_tensor(x: Character, y: Character) -> Character:
    if x.rs is not y.rs:
        raise ValueError("characters live on different root systems")
    return Character(x.rs, gr_multiply(_group_ring(x), _group_ring(y)).coeffs)


def char_alt(k: int, x: Character) -> Character:
    """Exterior power lambda^k in Z[P]."""
    return Character(x.rs, lambda_op(k, _group_ring(x)).coeffs)


def char_sym(k: int, x: Character) -> Character:
    """Symmetric power sym^k in Z[P]."""
    return Character(x.rs, sym_op(k, _group_ring(x)).coeffs)


def decompose(x: Character) -> dict:
    """Highest weights with multiplicities, by peeling maximal weights.

    A character is Weyl-invariant, so its dominant part determines it.
    Repeatedly removes mult * (dominant Freudenthal multiplicities) of the
    dominant weight present with the largest (w + rho, w + rho), ties by
    weight; on dominant weights this norm strictly grows along the dominance
    order (Humphreys, 13.4), so the weight peeled is maximal.  Peeling only
    removes weights, so they are ordered once.  Raises NotACharacterError
    if any multiplicity goes negative.  Reconstruction equals the input by
    construction.
    """
    rs = x.rs
    remaining = {w: m for w, m in x.weights.items() if min(w) >= 0}
    out: dict = {}
    order = sorted(remaining, reverse=True,
                   key=lambda w: (rs._scaled_norm(tuple(v + 1 for v in w)), w))
    for top in order:
        mult = remaining.get(top)
        if mult is None:
            continue
        out[top] = mult
        for w, m in rs.freudenthal_dominant(top).items():
            new = remaining.get(w, 0) - mult * m
            if new < 0:
                raise NotACharacterError(
                    f"peeling produced negative multiplicity at {w}"
                )
            if new == 0:
                remaining.pop(w, None)
            else:
                remaining[w] = new
    return out


def fs_type(rs: RootSystem, lam) -> str:
    """Frobenius-Schur type: 'orthogonal', 'symplectic' or 'none'.

    A self-dual irreducible V_lam carries a unique invariant bilinear form
    up to scalars; it is symmetric or alternating as (-1)^<lam, 2 rho^vee>
    is +1 or -1, where 2 rho^vee is the sum of the positive coroots
    (Steinberg; Bourbaki, Lie VIII, 7.5).  The trivial
    representation is orthogonal.
    """
    return _fs_type(rs, rs._check_dominant(lam))


def _fs_type(rs: RootSystem, lam) -> str:
    """fs_type for a dominant tuple lam, unchecked."""
    if rs.negate_dominant(lam) != lam:
        return "none"
    odd = sum(map(mul, lam, rs._two_rho_vee)) % 2
    return "symplectic" if odd else "orthogonal"


# ---------------------------------------------------------------------------
# classifiers
# ---------------------------------------------------------------------------


def is_wmf(rs: RootSystem, lam) -> bool:
    """Every multiplicity is one (always at rank 1): the orbit sizes of the
    dominant weights add up to the dimension."""
    lam = rs._check_dominant(lam)
    return rs.rank == 1 or sum(map(rs._orbit_index, rs._closure(lam))) == rs.weyl_dim(lam)


def enumerate_dominant_weights(rs: RootSystem, max_dim: int) -> list:
    """All nonzero dominant weights with Weyl dimension <= max_dim, sorted."""
    return [lam for lam, _ in _walk(rs, max_dim)]


def _walk(rs: RootSystem, max_dim: int) -> list:
    """(lam, dim V_lam) for every nonzero dominant lam with dim V_lam <=
    max_dim, sorted, from the walk table: the walk to the largest bound
    asked so far, which a smaller bound filters and a larger one replaces.

    A weight raised at coordinate j is raised further only at coordinates
    >= j, so each is reached once, and is listed before the weights raised
    from it, the last coordinate's first: below it the coordinates before j
    are fixed, so the order is lexicographic.  Raising lam_j adds the
    pairings of varpi_j (RootSystem._pairings) to the numerators of the Weyl
    product, so a branch ends at the first weight over max_dim, and the
    product of a weight kept is its dimension times that of rho's pairings.
    Every numerator grows with lam, so dim V_(lam + varpi_j) >= dim V_varpi_j,
    and a coordinate j with varpi_j over max_dim (RootSystem._fundamental_dim)
    is never raised: only the live ones get a column of pairings."""
    table = rs._walk_table
    if table is not None and max_dim <= table[0]:
        bound, walk = table
        return walk if bound == max_dim else [(lam, d) for lam, d in walk if d <= max_dim]
    n = rs.rank
    den = rs._weyl_dim_den
    bound = max_dim * den
    live = [(j, rs._pairings([0] * j + [1] + [0] * (n - 1 - j)))
            for j in range(n) if rs._fundamental_dim(j) <= max_dim]
    walk = []
    stack = [(rs.zero(), 0, rs._pairings((1,) * n), 1)]
    while stack:
        lam, start, nums, dim = stack.pop()
        walk.append((lam, dim))
        for k in range(start, len(live)):
            j, col = live[k]
            raised = tuple(map(add, nums, col))
            num = prod(raised)
            if num <= bound:
                dim, rem = divmod(num, den)
                assert rem == 0
                stack.append((lam[:j] + (lam[j] + 1,) + lam[j + 1:], k, raised, dim))
    del walk[0]  # the zero weight
    rs._walk_table = (max_dim, walk)
    return walk


def center_kernel_index(rs: RootSystem, lam) -> int:
    """Index [P : Q + Z*lam]: order of the center kernel of V_lam, i.e. the
    mu_k by which the simply connected group is divided in the image.

    [P : Q] = den = det C, and lam has order den / gcd(den, lam N) in P / Q
    because lam N / den are its simple-root coordinates.
    """
    return gcd(rs._inv_den, *(sum(map(mul, lam, col)) for col in rs._inv_num_columns))


def _fundamental_index(lam) -> int | None:
    """i (0-based) if lam = varpi_i, else None."""
    nz = [i for i, x in enumerate(lam) if x != 0]
    if len(nz) == 1 and lam[nz[0]] == 1:
        return nz[0]
    return None


def wmf_family(rs: RootSystem, lam) -> str:
    """Which row family of the minuscule/wmf classification a pair belongs to."""
    n, lam = rs.rank, tuple(lam)
    fund = _fundamental_index(lam)
    if rs.letter == "A":
        if fund is not None:
            return "A-fund"
        nz = [i for i, x in enumerate(lam) if x != 0]
        return "A-sym" if len(nz) == 1 and nz[0] in (0, n - 1) else "other"
    if fund is None:
        return "other"
    get = _FUNDAMENTAL_FAMILIES.get
    return (get((rs.letter, fund)) or get((rs.letter, fund - n))
            or get((rs.name, fund), "other"))


# the family of each fundamental weight varpi_(i+1) of types B-G that has
# one, by (letter, i), by (letter, i - rank) for the last nodes, or by
# (type, i)
_FUNDAMENTAL_FAMILIES = {
    ("B", 0): "B-std", ("B", -1): "B-spin", ("C", 0): "C-std", ("C3", 2): "C3-wedge3",
    ("D", 0): "D-std", ("D", -2): "D-halfspin", ("D", -1): "D-halfspin",
    ("E6", 0): "E6-27", ("E6", 5): "E6-27", ("E7", 6): "E7-56", ("G", 0): "G2-7",
}


def image_group_label(rs: RootSystem, lam) -> str:
    """Image of the simply connected group in Gl(V_lam), in the notation of
    the classification tables: in type D it is Spin when the center acts
    faithfully (d = 1) or lam is a half-spin weight, SO otherwise."""
    n = rs.rank
    d = center_kernel_index(rs, lam)
    if rs.letter == "A":
        return f"Sl{n + 1}" + (f"/mu{d}" if d > 1 else "")
    if rs.letter == "B":
        return f"Spin{2 * n + 1}" if d == 1 else f"SO{2 * n + 1}"
    if rs.letter == "C":
        return f"Sp{2 * n}" if d == 1 else f"PSp{2 * n}"
    if rs.letter == "D":
        if d == 1 or _fundamental_index(lam) in (n - 2, n - 1):
            return f"Spin{2 * n}"
        return f"SO{2 * n}"
    if rs.letter == "E":
        return f"E{n}"
    if rs.letter == "F":
        return "F4"
    return "G2"


class WmfEntry(namedtuple(
        "WmfEntry", "letter rank weight dim minuscule quasi_minuscule fs family group")):
    __slots__ = ()

    @property
    def is_standard(self) -> bool:
        """Standard representation of a classical group (Sp/SO defining rep)."""
        return self.family in ("B-std", "C-std", "D-std")

    def to_json(self) -> dict:
        return {
            "type": f"{self.letter}{self.rank}",
            "weight": list(self.weight),
            "dim": self.dim,
            "minuscule": self.minuscule,
            "quasi_minuscule": self.quasi_minuscule,
            "fs": self.fs,
            "family": self.family,
            "group": self.group,
        }


def classify_wmf(max_rank: int, max_dim: int):
    """All weight multiplicity free irreducibles of the simple types with
    rank <= max_rank and dimension <= max_dim, ordered by type, as
    canonical_simple_types lists them in (letter, rank) order, then by weight
    (see _wmf_rows)."""
    rows = []
    for letter, n in _sweep_types(max_rank, max_dim):
        rows += _wmf_rows(root_system(letter, n), max_dim)
    return rows


def quasi_minuscule_dim_search(dim: int, max_rank: int) -> list:
    """Quasi-minuscule irreducibles of exactly the given dimension, over all
    simple types of rank <= max_rank: lam and 0 are the only dominant
    weights, which at rank 1 is lam_0 <= 2."""
    matches = []
    for letter, n in _sweep_types(max_rank, dim):
        rs = root_system(letter, n)
        matches += [(f"{letter}{n}", lam) for lam, d in _walk(rs, dim) if d == dim and (
            lam[0] <= 2 if n == 1 else rs._closure(lam).keys() <= {lam, rs.zero()})]
    return matches


def _wmf_rows(rs: RootSystem, max_dim: int) -> list:
    """The wmf rows of rs with dimension at most max_dim, sorted by weight.

    Each weight's dimension comes from the walk and its flags from its
    closure, or at rank 1, where every irreducible is wmf, from lam_0:
    minuscule for 1 and quasi-minuscule up to 2.  Frobenius-Schur types come
    from the closed-form sign (-1)^<lam, 2 rho^vee> of fs_type.  A weight
    lam with some lam - varpi_i not wmf is not wmf either, as multiplicities
    only grow along dominant shifts, and is skipped untested: lam - varpi_i
    sorts before lam and has a smaller dimension, so it is decided first.
    The pruning only looks at weights of smaller dimension, so the rows to a
    bound D' <= D are those to D of dimension at most D'; the rows table
    keeps those to the largest bound asked so far.

    Above rank 1 a weight's closure (RootSystem._closure) is seeded with
    that of its walk parent lam - varpi_i, i its last nonzero coordinate,
    and the sweep's step table for i: the parent is walked, sorts before
    lam, and is wmf unless lam is skipped.  The closures of wmf weights are
    kept, with their dimensions, for their walk children, and a parent's is
    dropped at the child with lam_i >= 2, the last of its children to sort.

    The orbit sum comes from the parent's too.  A wmf parent's orbit sizes
    add up to its dimension, and shifting mu by varpi_i keeps |W mu| where
    mu_i >= 1, so the sum is dim V_parent, plus |W(mu + varpi_i)| - |W mu|
    for each mu of the parent's closure with mu_i = 0, plus |W nu| for each
    new weight nu, the entries of the closure after the shifted ones.
    """
    table = rs._rows_table
    if table is not None and max_dim <= table[0]:
        return [row for row in table[1] if row.dim <= max_dim]
    rows = []
    not_wmf = set()
    zero = rs.zero()
    orbit = rs._orbit_index
    closures = {zero: ({zero: 0}, 1)}
    seed_steps: dict = {}  # i -> rs._seed_steps(i), for this sweep alone
    for lam, dim in _walk(rs, max_dim):
        i = max(compress(range(rs.rank), lam))
        parent = lam[:i] + (lam[i] - 1,) + lam[i + 1:]
        kept = closures.pop(parent, None) if lam[i] > 1 else closures.get(parent)
        if any(x and lam[:j] + (x - 1,) + lam[j + 1:] in not_wmf for j, x in enumerate(lam)):
            not_wmf.add(lam)
            continue
        if rs.rank == 1:
            minuscule, quasi_minuscule = lam[0] == 1, lam[0] <= 2
        else:
            if i not in seed_steps:
                seed_steps[i] = rs._seed_steps(i)
            below, orbit_sum = kept  # the parent's closure and dimension
            doms = rs._closure(lam, (below, i, seed_steps[i]))
            for mu in below:
                if not mu[i]:
                    orbit_sum += orbit(mu[:i] + (1,) + mu[i + 1:]) - orbit(mu)
            orbit_sum += sum(map(orbit, islice(doms, len(below), None)))
            if orbit_sum != dim:
                not_wmf.add(lam)
                continue
            closures[lam] = (doms, dim)
            minuscule, quasi_minuscule = len(doms) == 1, doms.keys() <= {lam, zero}
        rows.append(
            WmfEntry(
                letter=rs.letter,
                rank=rs.rank,
                weight=lam,
                dim=dim,
                minuscule=minuscule,
                quasi_minuscule=quasi_minuscule,
                fs=_fs_type(rs, lam),
                family=wmf_family(rs, lam),
                group=image_group_label(rs, lam),
            )
        )
    rs._rows_table = (max_dim, rows)
    return rows


def orbit_rank_bound(rs: RootSystem, w) -> bool:
    """|orbit(w)| >= rank for any nonzero weight."""
    if tuple(w) == rs.zero():
        raise ValueError("w must be nonzero")
    return rs.orbit_size(w) >= rs.rank


def root_multiple_condition(rs: RootSystem, lam) -> bool:
    """Some weight of V_lam is a nonzero rational multiple of a root.

    Weights and roots are Weyl-invariant sets, so it suffices to test the
    nonzero dominant weights of V_lam against the dominant roots (the highest
    root and the highest short root).
    """
    dominant_roots = [a for a, _, _, _, _ in rs.positive_roots if min(a) >= 0]
    for w in rs.dominant_weights_below(lam):
        if not any(w):
            continue
        k = next(i for i, x in enumerate(w) if x)
        for a in dominant_roots:
            # w = (w_k / a_k) a, by cross-multiplication
            if a[k] and all(x * a[k] == y * w[k] for x, y in zip(w, a)):
                return True
    return False


# ---------------------------------------------------------------------------
# table emitters
# ---------------------------------------------------------------------------

MINUSCULE_TABLE_LAYOUT = [
    # family, G, dim W, symplectic?, orthogonal?
    ("A-fund", "Sl_n/mu_(k,n)", "C(n,k) for 1<=k<=n", "n = 2k not in 4Z", "n = 2k in 4Z"),
    ("B-spin", "Spin_2n+1", "2^n", "n = 1,2 mod 4", "n = 0,3 mod 4"),
    ("C-std", "Sp_2n", "2n", "yes", "no"),
    ("D-std", "SO_2n", "2n", "no", "yes"),
    ("D-halfspin", "Spin_2n", "2^(n-1)", "n = 2 mod 4", "n = 0 mod 4"),
    ("E6-27", "E6", "27", "no", "no"),
    ("E7-56", "E7", "56", "yes", "no"),
]

WMF_TABLE_LAYOUT = [
    ("A-sym", "Sl_n/mu_(k,n)", "C(n+k-1,k) for k>1", "no", "no"),
    ("B-std", "SO_2n+1", "2n+1", "no", "yes"),
    ("C3-wedge3", "Sp_6", "14", "yes", "no"),
    ("G2-7", "G_2", "7", "no", "yes"),
]


def wmf_tables_csv(max_rank: int, max_dim: int) -> str:
    """CSV mirror of the two classification tables, instance rows grouped by
    family after the layout header rows."""
    rows = classify_wmf(max_rank, max_dim)
    lines = ["table,family,G,dimW,symplectic,orthogonal"]
    for fam, g, dimw, sy, orth in MINUSCULE_TABLE_LAYOUT:
        lines.append(f"minuscule,{fam},{g},{dimw},{sy},{orth}")
    for fam, g, dimw, sy, orth in WMF_TABLE_LAYOUT:
        lines.append(f"wmf,{fam},{g},{dimw},{sy},{orth}")
    for r in rows:
        lines.append(
            f"instance,{r.family},{r.group},{r.dim},"
            f"{'yes' if r.fs == 'symplectic' else 'no'},"
            f"{'yes' if r.fs == 'orthogonal' else 'no'}"
        )
    return "\n".join(lines) + "\n"
