"""Independent brute-force oracles shared by the test modules.

Everything here is deliberately written from first principles, with no reuse
of the library's production code paths, so that agreement between the two is
meaningful.
"""

from fractions import Fraction
from itertools import combinations


def brute_partitions(n):
    """All weakly decreasing positive tuples summing to n, by exhaustion."""
    if n == 0:
        return [()]
    out = []

    def rec(rem, mx, acc):
        if rem == 0:
            out.append(tuple(acc))
            return
        for p in range(min(mx, rem), 0, -1):
            rec(rem - p, p, acc + [p])

    rec(n, n, [])
    return out


def ssyt_monomials(shape, nvars):
    """Monomial expansion of the Schur polynomial s_shape(x_1..x_nvars).

    Enumerates semistandard tableaux (rows weakly increasing, columns
    strictly increasing) and returns a dict exponent-tuple -> count.
    """
    shape = tuple(shape)
    rows = len(shape)
    out = {}

    def fill(r, c, tab):
        if r == rows:
            expo = [0] * nvars
            for row in tab:
                for v in row:
                    expo[v - 1] += 1
            key = tuple(expo)
            out[key] = out.get(key, 0) + 1
            return
        nr, nc = (r, c + 1) if c + 1 < shape[r] else (r + 1, 0)
        lo = 1
        if c > 0:
            lo = max(lo, tab[r][c - 1])
        if r > 0:
            lo = max(lo, tab[r - 1][c] + 1)
        for v in range(lo, nvars + 1):
            tab[r].append(v)
            fill(nr, nc, tab)
            tab[r].pop()

    if rows == 0:
        return {tuple([0] * nvars): 1}
    fill(0, 0, [[] for _ in range(rows)])
    return out


_powersum_cache = {}


def powersum_monomials(beta, nvars):
    """Monomial expansion of p_beta = prod_i (x_1^{beta_i}+...+x_n^{beta_i})."""
    key = (tuple(beta), nvars)
    if key in _powersum_cache:
        return _powersum_cache[key]
    acc = {tuple([0] * nvars): 1}
    for b in beta:
        nxt = {}
        for expo, c in acc.items():
            for j in range(nvars):
                e2 = list(expo)
                e2[j] += b
                k2 = tuple(e2)
                nxt[k2] = nxt.get(k2, 0) + c
        acc = nxt
    _powersum_cache[key] = acc
    return acc


def expand_powersum_expr(expr_terms, nvars):
    """Monomial expansion of sum_beta c_beta p_beta, c_beta rational.

    Internally scales by the common denominator and merges with integer
    arithmetic, then divides back out.
    """
    coeffs = {tuple(beta): Fraction(c) for beta, c in expr_terms.items()}
    den = 1
    for c in coeffs.values():
        den = den * c.denominator // gcd_int(den, c.denominator)
    out = {}
    for beta, coeff in coeffs.items():
        scaled = int(coeff * den)
        if not scaled:
            continue
        mono = powersum_monomials(beta, nvars)
        for expo, mult in mono.items():
            out[expo] = out.get(expo, 0) + scaled * mult
    return {k: Fraction(v, den) for k, v in out.items() if v != 0}


def gcd_int(a, b):
    while b:
        a, b = b, a % b
    return a


_assign_memo = {}


def _powersum_coefficient(beta, expo):
    """Coefficient of x^expo in p_beta over len(expo) variables: the number
    of assignments of each part of beta to a variable with the right sums.
    Symmetric in expo, so the memo key is the sorted exponent vector."""
    key = (beta, tuple(sorted(expo, reverse=True)))
    if key in _assign_memo:
        return _assign_memo[key]
    if not beta:
        out = 1 if all(e == 0 for e in expo) else 0
    else:
        b, rest = beta[0], beta[1:]
        out = 0
        seen_entries = set()
        for v, e in enumerate(expo):
            if e >= b and e not in seen_entries:
                seen_entries.add(e)
                mult = sum(1 for x in expo if x == e)
                out += mult * _powersum_coefficient(
                    rest, expo[:v] + (e - b,) + expo[v + 1:]
                )
    _assign_memo[key] = out
    return out


def frobenius_character(alpha, beta):
    """chi^alpha(beta) via the classical alternant coefficient formula.

    chi^alpha(beta) = [x^(alpha+delta)] a_delta * p_beta
                    = sum_w sign(w) [x^(alpha+delta-w(delta))] p_beta
    with delta = (l-1, ..., 0) in l = len(alpha) variables.  Independent of
    the Murnaghan-Nakayama recursion; only single coefficients of p_beta are
    ever computed (no full expansion), and permutations are built
    recursively with a nonnegativity prune.
    """
    alpha = tuple(alpha)
    beta = tuple(beta)
    ell = len(alpha)
    if ell == 0:
        return 1 if len(beta) == 0 else 0
    delta = tuple(ell - 1 - i for i in range(ell))
    target = tuple(alpha[i] + delta[i] for i in range(ell))
    total = 0

    def rec(pos, used, expo_prefix, inversions):
        nonlocal total
        if pos == ell:
            coeff = _powersum_coefficient(beta, tuple(expo_prefix))
            if coeff:
                total += (-1 if inversions % 2 else 1) * coeff
            return
        for j in range(ell):
            if j in used:
                continue
            e = target[pos] - delta[j]
            if e < 0:
                continue
            added = sum(1 for u in used if u > j)
            used.add(j)
            expo_prefix.append(e)
            rec(pos + 1, used, expo_prefix, inversions + added)
            expo_prefix.pop()
            used.discard(j)

    rec(0, set(), [], 0)
    return total


def subset_exterior_power_with_add(elements, k, add, zero):
    """lambda^k of a formal sum of group elements by subset enumeration:
    sums over k-subsets of the element list (repeats = multiplicities)."""
    out = {}
    for combo in combinations(range(len(elements)), k):
        s = zero
        for i in combo:
            s = add(s, elements[i])
        out[s] = out.get(s, 0) + 1
    return {g: c for g, c in out.items() if c != 0}


# -- group-ring kernels ---------------------------------------------------------
# Elements are taken as (group, {key: coeff}) with the library's group object
# used only for its rank and torsion; every key is reduced afresh after each
# operation and the power-sum coefficients chi^alpha(beta)/z_beta come from
# frobenius_character, accumulated as Fractions.


def _gr_reduce(group, coords):
    free = tuple(coords[: group.rank])
    return free + tuple(x % d for x, d in zip(coords[group.rank:], group.torsion))


def _gr_clean(acc):
    return {g: c for g, c in acc.items() if c != 0}


def gr_multiply_oracle(group, x, y):
    acc = {}
    for g1, c1 in x.items():
        for g2, c2 in y.items():
            g = _gr_reduce(group, [a + b for a, b in zip(g1, g2)])
            acc[g] = acc.get(g, 0) + c1 * c2
    return _gr_clean(acc)


def gr_adams_oracle(group, n, x):
    acc = {}
    for g, c in x.items():
        h = _gr_reduce(group, [n * a for a in g])
        acc[h] = acc.get(h, 0) + c
    return _gr_clean(acc)


def _zee(beta):
    out = 1
    for part in set(beta):
        m = beta.count(part)
        out *= part ** m
        for i in range(2, m + 1):
            out *= i
    return out


def schur_apply_oracle(group, alpha, x):
    """sum over beta |- |alpha| of chi^alpha(beta)/z_beta prod_i Psi^(beta_i) x,
    as a dict of Fractions (non-integral values are kept)."""
    acc = {}
    for beta in brute_partitions(sum(alpha)):
        m = Fraction(frobenius_character(alpha, beta), _zee(beta))
        if not m:
            continue
        prod = {(0,) * (group.rank + len(group.torsion)): 1}
        for b in beta:
            prod = gr_multiply_oracle(group, prod, gr_adams_oracle(group, b, x))
        for g, c in prod.items():
            acc[g] = acc.get(g, Fraction(0)) + m * c
    return _gr_clean(acc)
