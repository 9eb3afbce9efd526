import re
from fractions import Fraction

import pytest

import thetacycles.symfun as symfun
from thetacycles.symfun import (
    MAX_PARTITION_DEGREE,
    MAX_SCHUR_DEGREE,
    JacobiTrudi,
    Partition,
    SymExpr,
    elementary_to_powersum,
    partitions,
    schur_to_powersum,
    symmetric_group_character,
    zee,
)

from oracles import (
    brute_partitions,
    elementary_by_exponential_series,
    expand_powersum_expr,
    frobenius_character,
    jacobi_trudi_terms,
    partition_counts,
    ssyt_monomials,
)


def P(*parts):
    return Partition(tuple(parts))


class TestPartition:
    def test_validation(self):
        with pytest.raises(ValueError, match=r"^partition parts must be weakly "
                           r"decreasing: \(3, 1, 2\)$"):
            Partition((3, 1, 2))
        with pytest.raises(ValueError, match=r"^partition parts must be positive: \(2, 0\)$"):
            Partition((2, 0))
        assert P(3, 1).degree == 4

    @pytest.mark.parametrize(
        "parts", [(2.5, 1), (2.0, 1), ("2",), (True,), (2, False)],
        ids=["float", "integral-float", "string", "bool", "bool-zero"],
    )
    def test_non_integer_parts_rejected(self, parts):
        message = "^partition parts must be integers: " + re.escape(repr(parts)) + "$"
        with pytest.raises(ValueError, match=message):
            Partition(parts)

    def test_is_its_tuple(self):
        p = Partition((3, 2, 1))
        assert isinstance(p, tuple)
        assert p == (3, 2, 1) and hash(p) == hash((3, 2, 1))
        assert {(3, 2, 1): "key"}[p] == "key"
        assert Partition(p) is p
        assert tuple(p) == (3, 2, 1) and type(tuple(p)) is tuple
        assert str(p) == "(3,2,1)" and str(Partition(())) == "()"
        assert all(type(q) is Partition for q in partitions(6))

    def test_schur_expansion_rejects_float_parts(self):
        with pytest.raises(ValueError, match="integers"):
            schur_to_powersum((1.9, 1))

    def test_enumeration_small(self):
        assert partitions(0) == [Partition(())]
        assert partitions(4) == [
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        ]

    def test_enumeration_degree8_count(self):
        # frozen from the brute-force oracle: p(8) = 22
        assert len(partitions(8)) == 22
        assert sorted(partitions(8)) == sorted(brute_partitions(8))

    def test_lex_descending_order(self):
        for n in range(1, 9):
            ps = partitions(n)
            assert ps == sorted(ps, reverse=True)


class TestPartitionGuard:
    def test_count_matches_brute_force(self):
        assert partition_counts(19) == [len(brute_partitions(n)) for n in range(20)]

    def test_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(symfun, "MAX_PARTITION_DEGREE", 8)
        assert len(partitions(8)) == 22
        with pytest.raises(ValueError, match=r"^degree 9 is over the limit of 8 for partitions$"):
            partitions(9)

    def test_limit_admits_degree_45(self):
        # the degrees with at most 100,000 partitions: p(45) = 89,134 and
        # p(46) = 105,558
        assert MAX_PARTITION_DEGREE == 45
        assert partition_counts(46)[45:] == [89134, 105558]

    def test_refused_before_listing(self, monkeypatch):
        with pytest.raises(ValueError, match=r"^degree 50 is over the limit"):
            schur_to_powersum(P(50))
        # a missing guard fails at the first partition instead of listing p(n)
        monkeypatch.setattr(symfun, "Partition", None)
        for call in (lambda: partitions(10**6), lambda: elementary_to_powersum(200)):
            with pytest.raises(ValueError, match="over the limit of 45 for partitions"):
                call()

    def test_schur_limit_admits_degree_32(self):
        # the degrees with at most 10,000 partitions: p(32) = 8,349 and
        # p(33) = 10,143
        assert MAX_SCHUR_DEGREE == 32
        assert partition_counts(33)[32:] == [8349, 10143]

    def test_schur_refused_before_any_character(self, monkeypatch):
        # a missing guard fails at the first character instead of forming p(n)
        monkeypatch.setattr(symfun, "symmetric_group_character", None)
        for alpha in ((33,), (15, 15, 15), (45,), (1,) * 40):
            with pytest.raises(ValueError, match=(
                    rf"^degree {sum(alpha)} is over the limit of 32 for a Schur expansion$")):
                schur_to_powersum(alpha)


class TestSchurToPowersum:
    def test_lambda2(self):
        # coefficients fixed by the exterior-square expansion
        e2 = schur_to_powersum(P(1, 1))
        assert e2.terms == {P(1, 1): Fraction(1, 2), P(2): Fraction(-1, 2)}

    def test_lambda4(self):
        e4 = schur_to_powersum(P(1, 1, 1, 1))
        expected = {
            P(1, 1, 1, 1): Fraction(1, 24),
            P(2, 1, 1): Fraction(-6, 24),
            P(2, 2): Fraction(3, 24),
            P(3, 1): Fraction(8, 24),
            P(4): Fraction(-6, 24),
        }
        assert e4.terms == expected

    def test_sym2(self):
        # derived from S_2 characters: chi^{(2)} = trivial
        h2 = schur_to_powersum(P(2))
        assert h2.terms == {P(1, 1): Fraction(1, 2), P(2): Fraction(1, 2)}

    def test_homogeneity(self):
        for n in range(1, 7):
            for alpha in partitions(n):
                ex = schur_to_powersum(alpha)
                assert {beta.degree for beta in ex.terms} == {n}


class TestCharacterOracle:
    def test_against_frobenius_alternant(self):
        # the Murnaghan-Nakayama values equal the alternant-coefficient values
        for n in range(1, 8):
            for alpha in partitions(n):
                for beta in partitions(n):
                    assert symmetric_group_character(alpha, beta) == frobenius_character(
                        alpha, beta
                    ), (alpha, beta)

    def test_dimension_column(self):
        # chi^alpha(1^n) is the number of standard Young tableaux; spot values
        assert symmetric_group_character(P(2, 2), P(1, 1, 1, 1)) == 2
        assert symmetric_group_character(P(3, 2), P(1, 1, 1, 1, 1)) == 5
        assert symmetric_group_character(P(4, 4), P(*([1] * 8))) == 14

    def test_degrees_must_agree(self):
        with pytest.raises(ValueError, match="alpha and beta must have equal degree"):
            symmetric_group_character(P(2), P(1))


class TestMonomialOracle:
    def test_schur_matches_ssyt_expansion_deg_le_8(self):
        nvars = 8
        for n in range(1, 9):
            for alpha in partitions(n):
                ours = expand_powersum_expr(schur_to_powersum(alpha).terms, nvars)
                oracle = {k: Fraction(v) for k, v in ssyt_monomials(alpha, nvars).items()}
                assert ours == oracle, alpha

    def test_principal_specialization_counts_tableaux(self):
        # evaluating at x_1=...=x_k=1 gives the number of SSYT with entries <= k
        for k in range(1, 5):
            for n in range(1, 7):
                for alpha in partitions(n):
                    value = sum(
                        c * Fraction(k) ** len(beta)
                        for beta, c in schur_to_powersum(alpha).terms.items()
                    )
                    count = sum(ssyt_monomials(alpha, k).values())
                    assert value == count, (alpha, k)


def _poly_product(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(sum, zip(ea, eb)))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _symbolic_sum(terms):
    """JacobiTrudi.evaluate's signed_sum in the polynomial ring over the
    f_j, a monomial being its descending tuple of indices."""
    out = {}
    for sign, x, y in terms:
        for a, c in x.items():
            for b, d in ({(): 1} if y is None else y).items():
                nu = tuple(sorted(a + b, reverse=True))
                out[nu] = out.get(nu, 0) + sign * c * d
    return {nu: c for nu, c in out.items() if c}


class TestJacobiTrudi:
    """The permutation expansion of the oracle against s_alpha, and the
    library's minors against the oracle."""

    def test_matches_ssyt_expansion_deg_le_7(self):
        # sum_nu c_nu prod_i h_(nu_i) (or e_(nu_i)) in n variables is the
        # monomial expansion of s_alpha, for every alpha |- n <= 7
        for n in range(1, 8):
            h = [ssyt_monomials((k,), n) for k in range(n + 1)]
            e = [ssyt_monomials((1,) * k, n) for k in range(n + 1)]
            for alpha in partitions(n):
                complete, terms = jacobi_trudi_terms(alpha)
                factors = h if complete else e
                total = {}
                for nu, c in terms.items():
                    prod = {(0,) * n: c}
                    for j in nu:
                        prod = _poly_product(prod, factors[j])
                    for m, v in prod.items():
                        total[m] = total.get(m, 0) + v
                total = {m: v for m, v in total.items() if v}
                assert total == ssyt_monomials(alpha, n), alpha
                # each nu descending, positive and of degree n
                assert all(list(nu) == sorted(nu, reverse=True) and min(nu) > 0
                           and sum(nu) == n for nu in terms), alpha

    def test_branch_and_terms(self):
        # a tie between alpha and its conjugate takes e; h_0 = e_0 is left out
        assert jacobi_trudi_terms(P(2, 1)) == (False, {(2, 1): 1, (3,): -1})
        assert jacobi_trudi_terms(P(1)) == (False, {(1,): 1})
        assert jacobi_trudi_terms(P(3)) == (True, {(3,): 1})
        assert jacobi_trudi_terms(P(1, 1, 1)) == (False, {(3,): 1})
        assert jacobi_trudi_terms(P(3, 1)) == (True, {(3, 1): 1, (4,): -1})
        assert jacobi_trudi_terms(P(2, 2)) == (False, {(2, 2): 1, (3, 1): -1})
        # (16, 16) has two rows, its conjugate (2^16) sixteen
        assert jacobi_trudi_terms(P(16, 16)) == (True, {(16, 16): 1, (17, 15): -1})
        for alpha in ((2, 1), (1,), (3,), (1, 1, 1), (3, 1), (2, 2), (16, 16)):
            assert JacobiTrudi(alpha).complete == jacobi_trudi_terms(alpha)[0], alpha

    def test_minors_match_oracle_deg_le_10(self):
        # the minors evaluated over formal f_j give the oracle's terms, for
        # every alpha |- n <= 10, on both branches; k is the largest index
        # of a term, and no more products are formed than the terms' own
        # l(nu) - 1 each
        branches = set()
        for n in range(1, 11):
            for alpha in partitions(n):
                jt = JacobiTrudi(alpha)
                complete, terms = jacobi_trudi_terms(alpha)
                f = [None] + [{(j,): 1} for j in range(1, jt.k + 1)]
                assert (jt.complete, jt.evaluate(f, _symbolic_sum)) == (complete, terms), alpha
                assert jt.k == max(max(nu) for nu in terms), alpha
                assert jt.products <= sum(len(nu) - 1 for nu in terms), alpha
                branches.add(complete)
        assert branches == {False, True}

    def test_minor_counts(self):
        # a 1 x 1 determinant is f_k itself, with no product and no sum
        f = [None, {(1,): 1}, {(2,): 1}, {(3,): 1}]
        for alpha in ((3,), (1, 1, 1)):
            jt = JacobiTrudi(alpha)
            assert (jt.k, jt.products, jt.levels) == (3, 0, [[[(1, 3, 0)]]])
            assert jt.evaluate(f, None) is f[3]
        # near-hooks, minors per shape and products: 270 and 513 against the
        # 2,098 terms' 13,624 for (12,10,1^10), 136 and 120 for (16,1^16)
        for alpha, minors, products, k in (
            ((12, 10) + (1,) * 10, 270, 513, 23),
            ((16,) + (1,) * 16, 136, 120, 32),
            ((8, 6, 5, 4, 3, 2, 1), 77, 200, 14),
        ):
            jt = JacobiTrudi(alpha)
            assert (sum(map(len, jt.levels)), jt.products, jt.k) == (minors, products, k)


class TestElementary:
    def test_e1(self):
        assert elementary_to_powersum(1).terms == {P(1): Fraction(1)}

    def test_e3(self):
        assert elementary_to_powersum(3).terms == {
            P(1, 1, 1): Fraction(1, 6),
            P(2, 1): Fraction(-1, 2),
            P(3): Fraction(1, 3),
        }

    def test_agrees_with_schur_column(self):
        for n in range(1, 9):
            assert elementary_to_powersum(n) == schur_to_powersum(P(*([1] * n)))

    def test_agrees_with_exponential_series(self):
        for n in range(1, 13):
            assert elementary_to_powersum(n).terms == elementary_by_exponential_series(n), n


class TestZee:
    def test_values(self):
        assert zee(P(1, 1, 1)) == 6
        assert zee(P(2, 1)) == 2
        assert zee(P(3)) == 3
        # sum over classes of n!/z_beta = number of permutations
        from math import factorial

        for n in range(1, 8):
            assert sum(factorial(n) // zee(b) for b in partitions(n)) == factorial(n)


class TestSymExpr:
    def test_zero_coefficients_dropped(self):
        ex = SymExpr({P(2): Fraction(0), P(1, 1): Fraction(1)})
        assert P(2) not in ex.terms

    def test_equality_compares_terms(self):
        a = SymExpr({P(2): Fraction(1, 2), P(1, 1): 1})
        assert a == SymExpr({(2,): Fraction(1, 2), (1, 1): Fraction(1), (1,): 0})
        assert a != SymExpr({P(2): Fraction(1, 2), P(1, 1): 2})
        assert a != SymExpr({P(2): Fraction(1, 2), P(2, 1): 1})
        assert a != a.terms and not a == "p"
