"""Independent brute-force oracles shared by the test modules.

Everything here is deliberately written from first principles, with no reuse
of the library's production code paths, so that agreement between the two is
meaningful.
"""

import operator
from fractions import Fraction
from itertools import combinations, product
from math import comb, prod


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


_content_memo = {}


def _compositions_by_content(n, nvars):
    """The weak compositions of n into nvars parts (exponent vectors), grouped
    by content: the nonzero parts sorted into a partition."""
    key = (n, nvars)
    if key in _content_memo:
        return _content_memo[key]
    groups = {}

    def rec(rem, acc):
        if len(acc) == nvars:
            if rem == 0:
                content = tuple(sorted((e for e in acc if e), reverse=True))
                groups.setdefault(content, []).append(tuple(acc))
            return
        for e in range(rem + 1):
            acc.append(e)
            rec(rem - e, acc)
            acc.pop()

    rec(n, [])
    _content_memo[key] = groups
    return groups


def _strip_removals(shape, k):
    """The shapes inside ``shape`` that leave a horizontal strip of k cells:
    shape[i + 1] <= inner[i] <= shape[i] in each row i."""
    out = []

    def rec(i, rem, acc):
        if i == len(shape):
            if rem == 0:
                out.append(tuple(p for p in acc if p))
            return
        low = shape[i + 1] if i + 1 < len(shape) else 0
        for p in range(max(low, shape[i] - rem), shape[i] + 1):
            acc.append(p)
            rec(i + 1, rem - (shape[i] - p), acc)
            acc.pop()

    rec(0, k, [])
    return out


_tableau_memo = {}


def _tableau_count(shape, content):
    """The number of semistandard tableaux of ``shape`` with content[i]
    entries equal to i + 1.  The cells holding the largest entry form a
    horizontal strip on the rim: strip it off and count the rest."""
    key = (shape, content)
    if key in _tableau_memo:
        return _tableau_memo[key]
    if not content:
        out = 1 if not shape else 0
    else:
        out = sum(
            _tableau_count(inner, content[:-1])
            for inner in _strip_removals(shape, content[-1])
        )
    _tableau_memo[key] = out
    return out


def ssyt_monomials(shape, nvars):
    """Monomial expansion of the Schur polynomial s_shape(x_1..x_nvars).

    Counts semistandard tableaux (rows weakly increasing, columns strictly
    increasing) and returns a dict exponent-tuple -> count.  The count is
    symmetric in the exponents (Bender-Knuth), so it is taken once per
    content and copied to each exponent vector with that content.
    """
    shape = tuple(shape)
    out = {}
    for content, expos in _compositions_by_content(sum(shape), nvars).items():
        count = _tableau_count(shape, content)
        if count:
            out.update(dict.fromkeys(expos, count))
    return out


def expand_powersum_expr(expr_terms, nvars):
    """Monomial expansion of sum_beta c_beta p_beta, c_beta rational.

    Internally scales by the common denominator and sums with integer
    arithmetic, then divides back out.  A sum of power sums is symmetric, so
    each coefficient is taken once per content, from the coefficients of
    the p_beta at the sorted exponent vector, and copied to each exponent
    vector with that content.
    """
    coeffs = {tuple(beta): Fraction(c) for beta, c in expr_terms.items()}
    den = 1
    for c in coeffs.values():
        den = den * c.denominator // gcd_int(den, c.denominator)
    out = {}
    for n in sorted({sum(beta) for beta in coeffs}):
        scaled = [(beta, int(c * den)) for beta, c in coeffs.items() if sum(beta) == n]
        for content, expos in _compositions_by_content(n, nvars).items():
            expo = content + (0,) * (nvars - len(content))
            v = sum(m * _powersum_coefficient(beta, expo) for beta, m in scaled)
            if v:
                out.update(dict.fromkeys(expos, Fraction(v, den)))
    return out


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


_alternant_memo = {}


def _alternant_terms(alpha):
    """The pairs (sign(w), alpha+delta-w(delta)) over the permutations w
    that leave no exponent negative, delta = (l-1, ..., 0) in l = len(alpha)
    variables; permutations are built recursively with a nonnegativity
    prune."""
    if alpha in _alternant_memo:
        return _alternant_memo[alpha]
    ell = len(alpha)
    delta = tuple(ell - 1 - i for i in range(ell))
    target = tuple(alpha[i] + delta[i] for i in range(ell))
    terms = []

    def rec(pos, used, expo_prefix, inversions):
        if pos == ell:
            terms.append((-1 if inversions % 2 else 1, tuple(expo_prefix)))
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
    _alternant_memo[alpha] = terms
    return terms


def frobenius_character(alpha, beta):
    """chi^alpha(beta) via the classical alternant coefficient formula.

    chi^alpha(beta) = [x^(alpha+delta)] a_delta * p_beta
                    = sum_w sign(w) [x^(alpha+delta-w(delta))] p_beta
    with delta = (l-1, ..., 0) in l = len(alpha) variables.  Independent of
    the Murnaghan-Nakayama recursion; only single coefficients of p_beta are
    ever computed (no full expansion), and the alternant terms of each alpha
    are listed once.
    """
    alpha = tuple(alpha)
    beta = tuple(beta)
    if not alpha:
        return 1 if len(beta) == 0 else 0
    return sum(sign * _powersum_coefficient(beta, expo) for sign, expo in _alternant_terms(alpha))


def jacobi_trudi_terms(alpha):
    """s_alpha = sum_nu c_nu prod_i f_(nu_i) in integers, f_j the complete
    symmetric function h_j or the elementary e_j: the Jacobi-Trudi
    determinant det(h_(alpha_i - i + j)), or det(e_(alpha'_i - i + j)) when
    the conjugate alpha' has no more rows (Macdonald I (3.4), (3.5)),
    expanded over its permutations.  Returns (whether f is h, {nu: c}),
    each nu descending without f_0 = 1, no c zero.  Rows are placed from the
    last up, on free columns j with alpha_i - i + j >= 0; each free column
    right of the one taken goes to a row above, an inversion."""
    alpha = tuple(alpha)
    conj = [sum(a > j for a in alpha) for j in range(max(alpha, default=0))]
    complete = len(conj) > len(alpha)
    rows = alpha if complete else conj
    terms = {}

    def expand(i, free, sign, nu):
        if i < 0:
            nu = tuple(sorted(nu, reverse=True))
            terms[nu] = terms.get(nu, 0) + sign
            return
        for pos, j in enumerate(free):
            m = rows[i] - i + j
            if m >= 0:
                rest = free[:pos] + free[pos + 1:]
                expand(i - 1, rest, sign * (-1) ** (len(rest) - pos), nu + [m] if m else nu)

    expand(len(rows) - 1, list(range(len(rows))), 1, [])
    return complete, {nu: c for nu, c in terms.items() if c}


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


def gr_add_oracle(group):
    """The group law of ``group`` on key tuples: coordinatewise sum, torsion
    coordinates reduced."""
    return lambda a, b: _gr_reduce(group, [x + y for x, y in zip(a, b)])


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


def multiplicity_free_by_push(group, x):
    """Whether Psi^n x is reduced (every coefficient 1) for each n = 1..e,
    e the torsion exponent of the group (1 without torsion), pushing the
    element once per n, Psi^1 included."""
    e = group.torsion[-1] if group.torsion else 1
    return all(
        all(c == 1 for c in gr_adams_oracle(group, n, x).values())
        for n in range(1, e + 1)
    )


def _pontryagin_square(cm, g):
    """The Pontryagin square of a Chern-Mather vector, truncated at g - 1:
    (x*x)_c = sum_{a+b=c} C(c, a) x_a x_b."""
    return [
        sum(comb(c, a) * cm[a] * cm[c - a] for a in range(c + 1)) for c in range(g)
    ]


def criterion3_by_push(components, g, fiber, divisor, m_max):
    """The self-convolution test of the simplicity criteria for m = 1..m_max,
    pushing the whole cycle as a list: for each m, [2m]_* of every component
    (CH_i scaled by (2m)^(2i)) and of the fiber, whose coefficient sum must
    survive the push, then the multiplicity-weighted total against the
    square of [m]_* of the divisor.  ``components`` are (mult, cm) pairs with
    cm a list of Fractions, ``fiber`` a (group, {key: coeff}) pair or None,
    ``divisor`` the divisor's (mult, cm)."""
    out = []
    for m in range(1, m_max + 1):
        n = 2 * m
        pushed = [(mult, [n ** (2 * i) * a for i, a in enumerate(cm)])
                  for mult, cm in components]
        if fiber is not None:
            group, x = fiber
            assert sum(gr_adams_oracle(group, n, x).values()) == sum(x.values())
        lhs = [sum(mult * cm[i] for mult, cm in pushed) for i in range(g)]
        mult, cm = divisor
        rhs = _pontryagin_square(
            [mult * m ** (2 * i) * a for i, a in enumerate(cm)], g)
        out.append(lhs != rhs)
    return out


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


_powersum_cm_memo = {}


def schur_cycle_oracle(alpha, c, d_trunc):
    """cycles.schur_cycle by the power-sum route, with no work bound: the
    sum over beta |- |alpha| of chi^alpha(beta)/z_beta times
    [beta_1]_* c o ... o [beta_l]_* c, every Pontryagin product truncated
    at d_trunc, checked for integrality and packaged as the library does;
    the fiber is dropped.  Each product of a (total, d_trunc, beta) is
    formed once."""
    from thetacycles.chow import ChowVector, pontryagin, pushforward_n
    from thetacycles.cycles import _aggregate
    from thetacycles.lambdaring import NonIntegralResultError
    from thetacycles.symfun import Partition, schur_to_powersum

    alpha = Partition(alpha)
    g = c.g
    terms = schur_to_powersum(alpha).terms
    total = c.total_cm()
    coords = [Fraction(0)] * g
    for beta, m in terms.items():
        key = (total, d_trunc, beta)
        if key not in _powersum_cm_memo:
            cm_beta = ChowVector.point(g)  # the Pontryagin unit
            for b in beta:
                cm_beta = pontryagin(cm_beta, pushforward_n(b, total), d_trunc)
            _powersum_cm_memo[key] = cm_beta
        for i in range(g):
            coords[i] += m * _powersum_cm_memo[key].coords[i]
    cm = ChowVector(g, tuple(coords))
    bad = [i for i in range(d_trunc + 1) if cm.coords[i].denominator != 1]
    if bad:
        raise NonIntegralResultError(
            f"schur_cycle({alpha}) has non-integral Chern-Mather coordinates "
            f"at indices {bad}: {[str(cm.coords[i]) for i in bad]}"
        )
    return _aggregate(g, f"s_{alpha}", cm, c.all_gauss_finite, None)


# -- weight lattice -------------------------------------------------------------
# A root system is read for its rank, its Cartan matrix (row i is alpha_i in
# fundamental coordinates) and, where a height is needed, its integer inverse
# Cartan matrix N / den.  Orbits and dominant representatives are rebuilt here
# by simple reflections; these are the general searches that the library
# replaced with closed forms.


def _reflect(cartan, i, w):
    k = w[i]
    return tuple(a - k * b for a, b in zip(w, cartan[i]))


def dominant_by_reflections(cartan, w):
    """The dominant weight in the Weyl orbit of w: reflect while some
    coordinate is negative."""
    w = tuple(w)
    while True:
        for i, x in enumerate(w):
            if x < 0:
                w = _reflect(cartan, i, w)
                break
        else:
            return w


def brauer_klimyk_coefficients(cartan, lam, weights):
    """{kappa: c_kappa} with V_lam (x) V = sum c_kappa V_kappa, for weights
    the weight multiplicities of V, by the Brauer-Klimyk formula (Racah's
    formula, Humphreys, Introduction to Lie Algebras and Representation
    Theory, 24.4): each weight nu of V adds sgn(w) m(nu) at kappa = w(lam +
    nu + rho) - rho, w taking lam + nu + rho to the dominant chamber by
    reflections at a negative coordinate, each flipping the sign; a lam + nu
    + rho on a wall, with a zero coordinate once dominant, adds nothing.
    Coefficients that cancel to zero are dropped."""
    out = {}
    for nu, m in weights.items():
        v, sign = tuple(x + y + 1 for x, y in zip(lam, nu)), 1
        while min(v) < 0:
            v, sign = _reflect(cartan, next(i for i, x in enumerate(v) if x < 0), v), -sign
        if min(v) > 0:
            kappa = tuple(x - 1 for x in v)
            out[kappa] = out.get(kappa, 0) + sign * m
    return {kappa: c for kappa, c in out.items() if c}


def weyl_orbit(cartan, w):
    """The full Weyl orbit of w by closure under simple reflections."""
    w = tuple(w)
    seen = {w}
    stack = [w]
    while stack:
        v = stack.pop()
        for i in range(len(v)):
            if v[i]:
                u = _reflect(cartan, i, v)
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
    return seen


def saturation_weights(rs, lam):
    """All weights of V_lam: close the highest weight under root strings
    (for each simple root, walk down <w, alpha_i^vee> steps).  A string is
    walked from its top only: when w + alpha_i is known, its own walk covers
    the string of w."""
    lam = tuple(lam)
    seen = {lam}
    stack = [lam]
    while stack:
        v = stack.pop()
        for i, row in enumerate(rs.cartan):
            if v[i] <= 0 or tuple(a + b for a, b in zip(v, row)) in seen:
                continue
            w = v
            for _ in range(v[i]):
                w = tuple(a - b for a, b in zip(w, row))
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return seen


def dominant_weights_below_unfiltered(rs, lam):
    """The dominant weights of V_lam, highest first (by height, ties by
    weight): the closure of lam under subtracting every positive root, each
    difference formed and kept if it is dominant, heights summed afresh."""
    lam = tuple(lam)
    seen = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for mu in frontier:
            for a, _, _, _, _, _ in rs.positive_roots:
                cand = tuple(map(operator.sub, mu, a))
                if cand not in seen and min(cand) >= 0:
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
    height = [sum(row) for row in rs._inv_num]
    return sorted(seen, key=lambda m: (sum(map(operator.mul, m, height)), m), reverse=True)


def w0_permutation_by_dominantizing(rs):
    """p with w0(varpi_i) = -varpi_p(i): dominantize each -varpi_i."""
    n = rs.rank
    return tuple(
        dominant_by_reflections(rs.cartan, [-int(j == i) for j in range(n)]).index(1)
        for i in range(n)
    )


def negate_dominant_by_dominantizing(rs, w):
    """-w0(w) as the dominant representative of -w."""
    return dominant_by_reflections(rs.cartan, [-x for x in w])


def center_kernel_index_echelon(rs, lam):
    """[P : Q + Z lam] as the product of the pivots of an integer row
    echelon form of the Cartan rows and lam (Euclid on each column)."""
    n = rs.rank
    mat = [list(r) for r in rs.cartan] + [list(lam)]
    index = 1
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            return 0
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(r + 1, len(mat)):
            while mat[i][col] != 0:
                q = mat[r][col] // mat[i][col]
                mat[r] = [a - q * b for a, b in zip(mat[r], mat[i])]
                mat[r], mat[i] = mat[i], mat[r]
        index *= abs(mat[r][col])
        r += 1
    return index


def inverse_cartan_bareiss(cartan):
    """(N, den) with C N = den I: the adjugate and determinant of C by
    fraction-free Gauss-Jordan elimination (Bareiss).  Every entry after
    step k is a (k+1)-minor of [C | I], so each division is exact; the
    pivots are the leading principal minors, positive for a Cartan matrix,
    so no pivoting is needed."""
    n = len(cartan)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(cartan)]
    prev = 1
    for k in range(n):
        pivot_row = a[k]
        p = pivot_row[k]
        assert p > 0, "leading principal minors of a Cartan matrix are positive"
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], pivot_row)]
        prev = p
    return tuple(tuple(row[n:]) for row in a), prev


def two_rho_vee_by_coroots(rs):
    """2 rho^vee, the sum of the positive coroots, in simple-coroot
    coordinates, summed over the root table: the coroot of alpha = sum_i
    r_i alpha_i with (alpha, alpha) = 2 d_alpha is sum_i r_i d_i / d_alpha
    alpha_i^vee."""
    total = [0] * rs.rank
    for _, r, length, _, _, _ in rs.positive_roots:
        for i, (ri, di) in enumerate(zip(r, rs.d)):
            q, rem = divmod(ri * di, length)
            assert rem == 0, "coroot coordinates are integers"
            total[i] += q
    return tuple(total)


def fundamental_heights(cartan):
    """The height of each fundamental weight in the simple-root basis, the
    row sums of the inverse Cartan matrix: the solution h of C h = (1, ...,
    1), by Gaussian elimination in Fractions with row swaps on rows kept as
    their nonzero entries, then back substitution.  The nonzero entries off
    the diagonal form the Dynkin diagram, a tree, so the rows barely fill in
    and rank 40 stays cheap."""
    n = len(cartan)
    rows = [{j: Fraction(x) for j, x in enumerate(row) if x} for row in cartan]
    rhs = [Fraction(1)] * n
    for k in range(n):
        piv = next(i for i in range(k, n) if rows[i].get(k))
        rows[k], rows[piv] = rows[piv], rows[k]
        rhs[k], rhs[piv] = rhs[piv], rhs[k]
        for i in range(k + 1, n):
            if rows[i].get(k):
                f = rows[i][k] / rows[k][k]
                for j, x in rows[k].items():
                    rows[i][j] = rows[i].get(j, 0) - f * x
                rhs[i] -= f * rhs[k]
    h = [Fraction(0)] * n
    for k in reversed(range(n)):
        h[k] = (rhs[k] - sum(x * h[j] for j, x in rows[k].items() if j > k)) / rows[k][k]
    return h


def push_character_oracle(group, weights, images):
    """{key: coefficient} of a weight map pushed along the homomorphism that
    sends fundamental weight i to images[i]: each weight's image summed in
    full, then reduced."""
    acc = {}
    for w, m in weights.items():
        key = _gr_reduce(group, [sum(c * im[j] for c, im in zip(w, images))
                                 for j in range(group.ncoords)])
        acc[key] = acc.get(key, 0) + m
    return _gr_clean(acc)


def _line(v):
    """The primitive vector of the rational line through v != 0, with its
    first nonzero coordinate positive."""
    g = 0
    for x in v:
        g = gcd_int(g, abs(x))
    sign = 1 if next(x for x in v if x) > 0 else -1
    return tuple(sign * x // g for x in v)


def root_multiple_full_orbit(rs, lam):
    """Some weight of V_lam lies on the line of a root: every weight against
    every root, the roots being the orbits of the simple roots."""
    lines = {_line(a) for row in rs.cartan for a in weyl_orbit(rs.cartan, row)}
    return any(any(w) and _line(w) in lines for w in saturation_weights(rs, lam))


def decompose_full_orbit(x):
    """Highest weights with multiplicities of a character, peeling the full
    weight system (every orbit of every dominant weight) of a highest weight
    at each step; multiplicities from the library's Freudenthal recursion."""
    rs = x.rs
    height = [sum(row) for row in rs._inv_num]
    remaining = dict(x.weights)
    out = {}
    while remaining:
        top = max(remaining, key=lambda w: (sum(map(operator.mul, w, height)), w))
        assert min(top) >= 0, f"maximal weight {top} is not dominant"
        mult = remaining[top]
        out[top] = mult
        for mu, m in rs.freudenthal_dominant(top).items():
            for w in weyl_orbit(rs.cartan, mu):
                new = remaining.get(w, 0) - mult * m
                if new < 0:
                    raise ArithmeticError(f"negative multiplicity at {w}")
                if new:
                    remaining[w] = new
                else:
                    remaining.pop(w, None)
    return out


def dominant_weights_by_bfs(rs, max_dim):
    """All nonzero dominant weights with Weyl dimension <= max_dim, by a
    breadth-first search from 0 that raises one coordinate at a time, keeps
    a seen set and evaluates the Weyl dimension of every candidate."""
    zero = rs.zero()
    seen = {zero}
    frontier = [zero]
    out = []
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(rs.rank):
                cand = tuple(x + (1 if j == i else 0) for j, x in enumerate(w))
                if cand in seen:
                    continue
                seen.add(cand)
                if rs.weyl_dim(cand) <= max_dim:
                    out.append(cand)
                    nxt.append(cand)
        frontier = nxt
    return sorted(out)


def dominant_weights_in_box(rs, max_dim):
    """(lam, dim V_lam) for every nonzero dominant lam with dim V_lam <=
    max_dim, sorted: every weight of the box 0 <= lam_j <= b_j, b_j the
    largest k with dim V_(k varpi_j) <= max_dim, through the public
    weyl_dim.  Each factor (lam + rho, alpha) of the Weyl product grows with
    every coordinate, so dim V_lam >= dim V_(lam_j varpi_j) and nothing
    outside the box is within max_dim."""
    n = rs.rank
    sides = []
    for j in range(n):
        k = 0
        while rs.weyl_dim(tuple(k + 1 if i == j else 0 for i in range(n))) <= max_dim:
            k += 1
        sides.append(range(k + 1))
    out = []
    for lam in product(*sides):
        if any(lam):
            dim = rs.weyl_dim(lam)
            if dim <= max_dim:
                out.append((lam, dim))
    return out


def weyl_dim_by_root_table(rs, lam):
    """The Weyl dimension of V_lam as the product over the positive-root table
    of (lam + rho, alpha) / (rho, alpha), with (lam, alpha) = sum_i r_i d_i
    lam_i over the nonzero lam_i and (rho, alpha) read from the table."""
    scaled = [(i, rs.d[i] * x) for i, x in enumerate(lam) if x]
    num = den = 1
    for _, r, _, rho_alpha, _, _ in rs.positive_roots:
        num *= rho_alpha + sum(r[i] * x for i, x in scaled)
        den *= rho_alpha
    assert num % den == 0
    return num // den


def walk_by_root_table(rs, max_dim):
    """(lam, dim V_lam) for every nonzero dominant lam with dim V_lam <=
    max_dim, in the order of the library's walk, built from the positive-root
    table: column j holds r_j d_j for every root, the simple-root coordinates
    transposed and scaled, and j is live when the product of rho + column j
    is within max_dim times that of rho.  The same depth-first walk then
    raises the live coordinates in index order, each from the last one
    raised."""
    roots = rs.positive_roots
    rho = tuple(rho_alpha for _, _, _, rho_alpha, _, _ in roots)
    den = prod(rho)
    bound = max_dim * den
    live = []
    for j, (col, dj) in enumerate(zip(zip(*(r for _, r, _, _, _, _ in roots)), rs.d)):
        col = tuple(dj * x for x in col)
        if prod(map(operator.add, rho, col)) <= bound:
            live.append((j, col))
    out = []
    stack = [((0,) * rs.rank, 0, rho)]
    while stack:
        lam, start, nums = stack.pop()
        for k in range(start, len(live)):
            j, col = live[k]
            raised = tuple(map(operator.add, nums, col))
            num = prod(raised)
            if num <= bound:
                dim, rem = divmod(num, den)
                assert rem == 0
                cand = lam[:j] + (lam[j] + 1,) + lam[j + 1:]
                out.append((cand, dim))
                stack.append((cand, k, raised))
    return out


def wmf_family_by_table(rs, lam):
    """The row family of V_lam from a table of every fundamental weight that
    has one, by type letter and 0-based index; any other weight of B-G is
    'other', and type A is decided by its nonzero coordinates."""
    n, letter = rs.rank, rs.letter
    nz = [i for i, x in enumerate(lam) if x]
    if letter == "A":
        if len(nz) == 1 and lam[nz[0]] == 1:
            return "A-fund"
        return "A-sym" if len(nz) == 1 and nz[0] in (0, n - 1) else "other"
    table = {
        "B": {0: "B-std", n - 1: "B-spin"},
        "C": {0: "C-std", 2: "C3-wedge3" if n == 3 else "other"},
        "D": {0: "D-std", n - 2: "D-halfspin", n - 1: "D-halfspin"},
        "E": {0: "E6-27", 5: "E6-27"} if n == 6 else {6: "E7-56"} if n == 7 else {},
        "G": {0: "G2-7"},
    }.get(letter, {})
    if len(nz) == 1 and lam[nz[0]] == 1:
        return table.get(nz[0], "other")
    return "other"


def is_wmf_by_orbit_sizes(rs, lam):
    """Weight multiplicity free: the orbit sizes of the dominant weights of
    V_lam, each through the validating public orbit_size, add up to the
    Weyl dimension."""
    return sum(rs.orbit_size(mu) for mu in rs.dominant_weights_below(lam)) == rs.weyl_dim(lam)


def wmf_weights_unpruned(max_rank, max_dim):
    """(letter, rank, weight) of every weight multiplicity free irreducible of
    the simple types of rank <= max_rank and dimension <= max_dim: the sweep
    tests every enumerated weight with is_wmf, skipping none.  It shares the
    walk and is_wmf with classify_wmf, which have their own oracles above, so
    what it checks is classify_wmf's pruning."""
    from thetacycles.lierep import (
        canonical_simple_types,
        enumerate_dominant_weights,
        is_wmf,
        root_system,
    )

    out = []
    for letter, n in canonical_simple_types(max_rank):
        rs = root_system(letter, n)
        out += [(letter, n, lam) for lam in enumerate_dominant_weights(rs, max_dim)
                if is_wmf(rs, lam)]
    return sorted(out)


def _positive_roots_by_orbits(cartan):
    """The positive roots as (fundamental coordinates, simple-root
    coordinates) pairs: the Weyl orbits of the simple roots, each root's
    simple-root coordinates a C^-1 = a N / den, kept where they are
    nonnegative."""
    n = len(cartan)
    N, den = inverse_cartan_bareiss(cartan)
    out = []
    for a in set().union(*(weyl_orbit(cartan, row) for row in cartan)):
        c = [sum(x * N[j][i] for j, x in enumerate(a)) // den for i in range(n)]
        if min(c) >= 0:
            out.append((a, c))
    return out


def _symmetrizer(cartan):
    """Integers d with a_ij d_j = a_ji d_i, a_ij = <alpha_i, alpha_j^vee>
    being row i, proportional to the squared lengths of the simple roots:
    walked along the Dynkin diagram from d_0 = 1, then cleared of
    denominators."""
    d = [None] * len(cartan)
    d[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j, a in enumerate(cartan[i]):
            if a and d[j] is None:
                d[j] = d[i] * cartan[j][i] / a
                stack.append(j)
    den = 1
    for x in d:
        den = den * x.denominator // gcd_int(den, x.denominator)
    return [int(x * den) for x in d]


def weyl_character_formula_sides(cartan, weights, lam):
    """Both sides of the Weyl character formula (Humphreys, Introduction to
    Lie Algebras, 24.3) for a character ``weights`` claimed to be V_lam's:
    chi * prod_(alpha > 0) (1 - e^-alpha), multiplied out, and
    sum_w sgn(w) e^(w(lam + rho) - rho), with sgn(w) = (-1) to the number of
    positive roots alpha with (w(lam + rho), alpha) < 0.  In fundamental
    coordinates rho is all ones and (v, alpha) = sum_i c_i d_i v_i for
    alpha = sum_i c_i alpha_i."""
    roots = _positive_roots_by_orbits(cartan)
    lhs = dict(weights)
    for a, _ in roots:
        out = dict(lhs)
        for w, m in lhs.items():
            u = tuple(map(operator.sub, w, a))
            out[u] = out.get(u, 0) - m
        lhs = _gr_clean(out)
    d = _symmetrizer(cartan)
    forms = [list(map(operator.mul, c, d)) for _, c in roots]  # v -> (v, alpha)
    rhs = {}
    for v in weyl_orbit(cartan, [x + 1 for x in lam]):
        negative = sum(sum(map(operator.mul, f, v)) < 0 for f in forms)
        rhs[tuple(x - 1 for x in v)] = (-1) ** negative
    return lhs, rhs


# -- fake-Jacobian degree equation ------------------------------------------------


def degree_equation_scan(g, hyperelliptic, max_degree):
    """degree t -> every c0 in [0, t + 2g + 3) with C(c0, g-1) [- C(c0, g-3)]
    = t, for 1 <= t <= max_degree, by one linear scan of c0."""
    out = {t: [] for t in range(1, max_degree + 1)}
    for c0 in range(0, max_degree + 2 * g + 3):
        t = comb(c0, g - 1) - (comb(c0, g - 3) if hyperelliptic else 0)
        if t in out and c0 < t + 2 * g + 3:
            out[t].append(c0)
    return out


# -- elementary symmetric functions and exterior-power coefficients ---------------


def _series_exp(coeffs, n):
    """exp of a power series truncated at X^n, by E' = A' E.

    ``coeffs[k]`` maps partition tuples to the Fraction coefficients of the
    power-sum terms of X^k, with coeffs[0] = {} (no constant term)."""
    exp = [dict() for _ in range(n + 1)]
    exp[0] = {(): Fraction(1)}
    for m in range(1, n + 1):
        acc = {}
        for k in range(1, m + 1):
            a_k = coeffs[k] if k < len(coeffs) else {}
            for p1, c1 in a_k.items():
                for p2, c2 in exp[m - k].items():
                    merged = tuple(sorted(p1 + p2, reverse=True))
                    acc[merged] = acc.get(merged, Fraction(0)) + Fraction(k, m) * c1 * c2
        exp[m] = {p: c for p, c in acc.items() if c != 0}
    return exp


def elementary_by_exponential_series(n):
    """e_n in power sums, {partition tuple: Fraction}, from the generating
    series sum_n e_n X^n = exp( sum_nu (-1)^(nu+1)/nu * p_nu X^nu )."""
    log_coeffs = [dict()] + [
        {(nu,): Fraction((-1) ** (nu + 1), nu)} for nu in range(1, n + 1)
    ]
    return _series_exp(log_coeffs, n)[n]


def generalized_binomial(x, m):
    """C(x, m) = x (x-1) ... (x-m+1) / m! for any integer x; 0 for m < 0."""
    if m < 0:
        return Fraction(0)
    out = Fraction(1)
    for i in range(m):
        out = out * (x - i) / (i + 1)
    return out


def alt_cm1_by_partition_sum(j, c0):
    """The c1-coefficient of the j-th exterior convolution power of a cycle
    L with cm = (c0, c1, 0, ...): e_j expanded in power sums, each p_beta
    read as [b1]_*L o ... o [bl]_*L, whose c1-coefficient is
    (sum_i b_i^2) c0^(l - 1) as [b]_* scales c_1 by b^2."""
    if j == 0:
        return Fraction(0)
    return sum(
        (m * sum(b * b for b in beta) * c0 ** (len(beta) - 1)
         for beta, m in elementary_by_exponential_series(j).items()),
        Fraction(0),
    )
