import gc
import itertools
import os
import random
import re
import subprocess
import sys
import tracemalloc
from math import lcm
from operator import mul, sub

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import thetacycles.lierep as lierep
from thetacycles.lambdaring import FgAbelianGroup
from thetacycles.lierep import (
    MAX_CHARACTER_DIM,
    MAX_ROOT_SYSTEM_RANK,
    MAX_SWEEP_RANK,
    Character,
    NotACharacterError,
    RootSystem,
    _plate,
    _walk,
    canonical_simple_types,
    center_kernel_index,
    char_alt,
    char_sym,
    char_tensor,
    classify_wmf,
    decompose,
    enumerate_dominant_weights,
    freudenthal_character,
    fs_type,
    image_group_label,
    is_wmf,
    orbit_rank_bound,
    quasi_minuscule_dim_search,
    root_multiple_condition,
    root_system,
    wmf_tables_csv,
)

from oracles import (
    _reflect,
    brauer_klimyk_coefficients,
    center_kernel_index_echelon,
    decompose_full_orbit,
    dominant_by_reflections,
    dominant_weights_below_unfiltered,
    dominant_weights_by_bfs,
    dominant_weights_in_box,
    fundamental_heights,
    gr_add_oracle,
    inverse_cartan_bareiss,
    is_wmf_by_orbit_sizes,
    negate_dominant_by_dominantizing,
    root_multiple_full_orbit,
    saturation_weights,
    subset_exterior_power_with_add,
    two_rho_vee_by_coroots,
    w0_permutation_by_dominantizing,
    walk_by_root_table,
    weyl_character_formula_sides,
    weyl_dim_by_root_table,
    weyl_orbit,
    wmf_family_by_table,
    wmf_weights_unpruned,
)


# every type up to rank 40, the repeats B2 = C2 and A3 = D3 included
TYPES_TO_RANK_40 = [(letter, n) for letter, low in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
                    for n in range(low, 41)]
TYPES_TO_RANK_40 += [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]

SMALL_CASES = [
    ("A1", (4,)),
    ("A2", (1, 1)),
    ("A3", (1, 0, 1)),
    ("A3", (0, 2, 0)),
    ("B2", (1, 1)),
    ("B3", (0, 0, 1)),
    ("B3", (1, 0, 1)),
    ("C3", (0, 0, 1)),
    ("C3", (2, 0, 0)),
    ("D4", (0, 1, 0, 0)),
    ("D4", (1, 0, 0, 1)),
    ("G2", (1, 0)),
    ("G2", (0, 1)),
    ("G2", (1, 1)),
    ("F4", (0, 0, 0, 1)),
    ("F4", (1, 0, 0, 0)),
    ("A5", (0, 0, 1, 0, 0)),
    ("E6", (1, 0, 0, 0, 0, 0)),
    # a few larger ones, up to dimension 2000
    ("E6", (0, 1, 0, 0, 0, 0)),  # adjoint, 78
    ("F4", (1, 0, 0, 0)),  # adjoint, 52
    ("A2", (3, 3)),  # 64
    ("C3", (1, 1, 1)),  # 512
    ("B4", (0, 1, 0, 1)),  # 768
    ("E7", (1, 0, 0, 0, 0, 0, 0)),  # adjoint, 133
    ("D5", (0, 1, 0, 0, 0)),  # adjoint, 45
    ("C4", (0, 0, 0, 1)),  # 42
]


class TestRootSystemInvariants:
    def test_positive_root_counts(self):
        expected = {"A4": 10, "B5": 25, "C6": 36, "D7": 42, "E6": 36,
                    "E7": 63, "E8": 120, "F4": 24, "G2": 6}
        for name, count in expected.items():
            assert len(root_system(name).positive_roots) == count

    def test_cartan_symmetrizable(self):
        for letter, n in canonical_simple_types(8):
            rs = root_system(letter, n)
            for i in range(n):
                for j in range(n):
                    assert rs.cartan[i][j] * rs.d[j] == rs.cartan[j][i] * rs.d[i]

    def test_w0_is_an_involution(self):
        for letter, n in canonical_simple_types(8):
            rs = root_system(letter, n)
            p = rs.w0_permutation
            assert sorted(p) == list(range(n))
            assert all(p[p[i]] == i for i in range(n))

    def test_weyl_orders(self):
        # the orbit of the regular weight rho is the whole Weyl group
        for name, order in [("A3", 24), ("B4", 2**4 * 24), ("D5", 2**4 * 120), ("G2", 12),
                            ("F4", 1152), ("E6", 51840), ("E7", 2903040), ("E8", 696729600)]:
            rs = root_system(name)
            assert rs.orbit_size((1,) * rs.rank) == order, name

    def test_against_sympy(self):
        # independent oracle: sympy's Weyl groups and root systems
        pytest.importorskip("sympy")
        from sympy import Rational
        from sympy.liealgebras.cartan_matrix import CartanMatrix
        from sympy.liealgebras.root_system import RootSystem as SympyRootSystem
        from sympy.liealgebras.weyl_group import WeylGroup

        for letter, n in canonical_simple_types(8):
            rs = root_system(letter, n)
            assert rs.orbit_size((1,) * rs.rank) == WeylGroup(rs.name).group_order(), rs.name
            all_roots = SympyRootSystem(rs.name).all_roots()
            assert 2 * len(rs.positive_roots) == len(all_roots), rs.name
            if n == 1:
                continue  # sympy's CartanMatrix("A1") raises
            # the Cartan matrix the plate derives from the diagram and d
            cartan = CartanMatrix(rs.name)
            assert all(
                rs.cartan[i][j] == cartan[i, j] for i in range(n) for j in range(n)
            ), rs.name
            inv = cartan.inv()
            N, den = rs._inv_num, rs._inv_den
            assert all(
                inv[i, j] == Rational(N[i][j], den) for i in range(n) for j in range(n)
            ), rs.name

    def test_closed_form_inverse_cartan_against_elimination(self):
        # C N = den I with den = det C, and the same N / den as elimination
        for letter, n in TYPES_TO_RANK_40:
            C, d, N, den, _, _ = _plate(letter, n)
            assert (N, den) == inverse_cartan_bareiss(C), (letter, n)
            for i in range(n):
                for j in range(n):
                    entry = sum(C[i][k] * N[k][j] for k in range(n))
                    assert entry == (den if i == j else 0), (letter, n, i, j)
                    # den (varpi_i, varpi_j) = N_ij d_j is symmetric
                    assert N[i][j] * d[j] == N[j][i] * d[i], (letter, n, i, j)
        assert len(TYPES_TO_RANK_40) == 161

    def test_two_rho_vee_against_coroot_sum(self):
        # 2 rho^vee from the row sums of N / den against the sum of the
        # positive coroots over the root table
        for letter, n in TYPES_TO_RANK_40:
            rs = root_system(letter, n)
            assert rs._two_rho_vee == two_rho_vee_by_coroots(rs), rs.name

    def test_bad_type_names_rejected(self):
        for name in ("", "X3", "A", "Ax"):
            with pytest.raises(ValueError):
                root_system(name)
        with pytest.raises(ValueError, match="unknown type 'X'"):
            RootSystem("X", 3)

    def test_rank_guard(self, monkeypatch):
        assert MAX_SWEEP_RANK <= MAX_ROOT_SYSTEM_RANK
        # a missing guard fails at the plate instead of building a Cartan
        # matrix with 10^16 entries
        monkeypatch.setattr(lierep, "_plate", None)
        with pytest.raises(ValueError, match="rank 99999999 is over the limit of 100$"):
            root_system("A99999999")
        with pytest.raises(ValueError, match="rank 101 is over the limit"):
            RootSystem("D", MAX_ROOT_SYSTEM_RANK + 1)

    def test_rank_guard_only_on_build(self, monkeypatch):
        rs = root_system("B3")
        monkeypatch.setattr(lierep, "MAX_ROOT_SYSTEM_RANK", 2)
        assert root_system("B3") is rs
        with pytest.raises(ValueError, match="rank 3 is over the limit of 2"):
            RootSystem("B", 3)

    def test_dominant_closure_matches_saturation(self):
        # the positive-root closure must find exactly the dominant weights of
        # the saturated weight system
        for name, lam in SMALL_CASES:
            rs = root_system(name)
            sat = saturation_weights(rs, lam)
            dom_sat = sorted(w for w in sat if min(w) >= 0)
            dom = sorted(rs.dominant_weights_below(lam))
            assert dom == dom_sat, (name, lam)

    def test_weight_system_equals_saturation(self):
        for name, lam in SMALL_CASES:
            rs = root_system(name)
            assert set(freudenthal_character(rs, lam).weights) == saturation_weights(rs, lam)

    def test_character_dim_guard(self, monkeypatch):
        def closure(self, lam):
            raise AssertionError(f"closure of {lam} built")

        # a missing guard fails at the closure instead of listing billions
        # of weights
        monkeypatch.setattr(RootSystem, "freudenthal_dominant", closure)
        with pytest.raises(ValueError, match="dimension 2642777280 is over the limit"):
            freudenthal_character(root_system("E8"), (0,) * 7 + (5,))
        with pytest.raises(ValueError, match=f"dimension {10**210} is over the limit"):
            freudenthal_character(root_system("A20"), (9,) * 20)
        limit = f"over the limit of {MAX_CHARACTER_DIM}"
        with pytest.raises(ValueError, match=limit):
            freudenthal_character(root_system("A1"), (MAX_CHARACTER_DIM,))
        with pytest.raises(AssertionError, match="closure"):
            freudenthal_character(root_system("A1"), (MAX_CHARACTER_DIM - 1,))
        # the largest benchmark input, E8 varpi_1, is admitted
        assert root_system("E8").weyl_dim((1,) + (0,) * 7) == 3875 <= MAX_CHARACTER_DIM


class TestWeylOrbit:
    def test_zero(self):
        rs = root_system("B3")
        assert rs.weyl_orbit((0, 0, 0)) == {(0, 0, 0)}

    def test_rank_one(self):
        rs = root_system("A1")
        assert rs.weyl_orbit((1,)) == {(1,), (-1,)}

    def test_c3_third_fundamental(self):
        rs = root_system("C3")
        orbit = rs.weyl_orbit((0, 0, 1))
        assert len(orbit) == 8
        # 14 = 8 + 6: the standard orbit has size 6
        assert len(rs.weyl_orbit((1, 0, 0))) == 6

    def test_orbit_size_formula_matches_enumeration(self):
        rng = random.Random(11)
        for letter, n in canonical_simple_types(4):
            rs = root_system(letter, n)
            for _ in range(8):
                w = tuple(rng.randint(-2, 2) for _ in range(n))
                assert rs.orbit_size(w) == len(weyl_orbit(rs.cartan, w)), (letter, n, w)

    def test_dominant_representative_unique(self):
        rs = root_system("B3")
        orbit = weyl_orbit(rs.cartan, (1, -1, 2))
        doms = [w for w in orbit if min(w) >= 0]
        assert len(doms) == 1
        assert rs.dominant_representative((1, -1, 2)) == doms[0]


def weight_from_epsilon(letter, e):
    """The weight of epsilon-coordinates e (n + 1 of them for A_n, n doubled
    ones of one parity for B_n and D_n), by the Plates of Bourbaki, Lie VI:
    differences of consecutive coordinates, halved when doubled, then the
    last coordinate for B and C and the half sum of the last two for D."""
    diffs = [x - y for x, y in zip(e, e[1:])]
    if letter == "A":
        return tuple(diffs)
    if letter == "C":
        return tuple(diffs + [e[-1]])
    if letter == "B":
        return tuple([x // 2 for x in diffs] + [e[-1]])
    return tuple([x // 2 for x in diffs] + [(e[-2] + e[-1]) // 2])


class TestEpsilonKernels:
    @pytest.mark.parametrize("letter, low", [("A", 1), ("B", 2), ("C", 2), ("D", 3)])
    def test_sorting_against_reflections(self, letter, low):
        # random weights, and weights drawn as epsilon-coordinates: for D an
        # odd number of negative ones with none zero, and for every type
        # some with a zero coordinate
        rng = random.Random(letter)
        for n in range(low, 41):
            rs = root_system(letter, n)
            size = n + 1 if letter == "A" else n
            weights = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(3)]
            for _ in range(3):
                parity = rng.randint(0, 1) if letter in "BD" else 0
                e = [2 * rng.randint(-4, 4) + parity if letter in "BD" else rng.randint(-4, 4)
                     for _ in range(size)]
                if not parity:
                    e[rng.randrange(size)] = 0
                weights.append(weight_from_epsilon(letter, e))
                if letter == "D":
                    odd = [2 * rng.randint(0, 4) + 1 for _ in range(size)]
                    for i in rng.sample(range(size), rng.randrange(1, size + 1, 2)):
                        odd[i] = -odd[i]
                    weights.append(weight_from_epsilon(letter, odd))
            for w in weights:
                assert rs.dominant_representative(w) == dominant_by_reflections(rs.cartan, w), \
                    (rs.name, w)

    def test_small_ranks_exhaustively(self):
        for name in ("A1", "B2", "C2", "D3"):
            rs = root_system(name)
            for w in itertools.product(range(-4, 5), repeat=rs.rank):
                assert rs.dominant_representative(w) == dominant_by_reflections(rs.cartan, w)

    def test_orbits_against_reflection_closure(self):
        cases = [(root_system(letter, n), lam) for letter, n in canonical_simple_types(6)
                 for lam in enumerate_dominant_weights(root_system(letter, n), 300)]
        for name in ("E6", "E7", "E8", "F4", "G2"):
            rs = root_system(name)
            cases += [(rs, lam) for lam in enumerate_dominant_weights(rs, 3875)]
        assert (root_system("E8"), (1,) + (0,) * 7) in cases
        for rs, lam in cases:
            orbit = rs._orbit(lam)
            assert len(orbit) == len(set(orbit)) == rs.orbit_size(lam), (rs.name, lam)
            assert set(orbit) == weyl_orbit(rs.cartan, lam), (rs.name, lam)


class TestWeylCharacterFormula:
    def test_every_multiplicity(self):
        # chi_lam prod_(alpha > 0) (1 - e^-alpha) = sum_w sgn(w) e^(w(lam + rho) - rho)
        # holds for one character only, so it checks every multiplicity and
        # not only their total; E6-E8 wait for an oracle whose cost does not
        # grow with |W|, Kostant's or Brauer-Klimyk's
        for letter, n in TYPES_TO_RANK_40:
            if n > 4:
                continue
            rs = root_system(letter, n)
            for lam in enumerate_dominant_weights(rs, 200):
                ch = freudenthal_character(rs, lam)
                lhs, rhs = weyl_character_formula_sides(rs.cartan, ch.weights, lam)
                assert lhs == rhs, (rs.name, lam)


class TestBrauerKlimyk:
    # V_lam (x) V_mu = sum_kappa c_kappa V_kappa, with c_kappa by the
    # Brauer-Klimyk formula from the weights of V_mu: the dominant part of
    # the product of two Freudenthal characters is sum_kappa c_kappa m_kappa,
    # m_kappa the Freudenthal multiplicities, which checks E6-E8
    # multiplicities at a cost that does not grow with |W|.  Dominant parts
    # alone are compared, as 2 varpi_8 of E8 (27,000) is over
    # MAX_CHARACTER_DIM
    PAIRS = [
        ("E6", (1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0), 27 * 27),
        ("E6", (0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0), 78 * 27),
        ("E7", (0, 0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 0, 1), 56 * 56),
        ("E7", (1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 1), 133 * 56),
        ("E8", (0, 0, 0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 0, 0, 1), 248 * 248),
    ]

    def test_e_type_tensor_products(self):
        for name, lam, mu, dim in self.PAIRS:
            rs = root_system(name)
            x, y = freudenthal_character(rs, lam), freudenthal_character(rs, mu)
            coefficients = brauer_klimyk_coefficients(rs.cartan, lam, y.weights)
            assert min(coefficients.values()) > 0, (name, lam, mu)
            assert sum(c * rs.weyl_dim(kappa) for kappa, c in coefficients.items()) == dim
            expected = {}
            for kappa, c in coefficients.items():
                for w, m in rs.freudenthal_dominant(kappa).items():
                    expected[w] = expected.get(w, 0) + c * m
            product = char_tensor(x, y).weights
            assert {w: m for w, m in product.items() if min(w) >= 0} == expected, (
                name, lam, mu)


# the comparisons of freudenthal_character's output with oracles and identities
CHARACTER_COMPARISONS = [
    "TestWeylDim.test_matches_freudenthal_total",
    "TestWeylCharacterFormula.test_every_multiplicity",
    "TestBrauerKlimyk.test_e_type_tensor_products",
    "TestFreudenthal.test_a2_adjoint_against_tensor_arithmetic",
    "TestFreudenthal.test_minuscule_all_ones",
    "TestFreudenthal.test_c3_wedge3_multiplicity_free",
    "TestCharacterOps.test_alt_matches_subset_enumeration",
    "TestCharacterOps.test_decompose_reconstructs_random_tensors",
    "TestCharacterOps.test_equality_compares_root_system_and_weights",
    "TestSelfDualAndFs.test_fs_against_direct_decomposition",
    "TestClosedFormsAgainstOracles.test_decompose_against_full_orbit_peeling",
]


class TestCheckedCharacters:
    @pytest.mark.parametrize("comparison", CHARACTER_COMPARISONS)
    def test_comparison_with_checked_constructor(self, comparison, monkeypatch):
        # freudenthal_character trusts its output (Character._of); built by
        # the checked constructor instead, it passes the same comparisons
        monkeypatch.setattr(Character, "_of",
                            classmethod(lambda cls, rs, weights: cls(rs, weights)))
        class_name, method = comparison.split(".")
        getattr(globals()[class_name](), method)()


class TestWeylDim:
    def test_known_dimensions(self):
        assert root_system("A5").weyl_dim((0, 0, 1, 0, 0)) == 20
        assert root_system("B5").weyl_dim((0, 0, 0, 0, 1)) == 32
        assert root_system("E7").weyl_dim((0, 0, 0, 0, 0, 0, 1)) == 56

    def test_non_dominant_rejected(self):
        with pytest.raises(ValueError):
            root_system("A2").weyl_dim((1, -1))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            root_system("A5").weyl_dim((0, 0, 1))
        with pytest.raises(ValueError):
            root_system("B3").weyl_orbit((1, 0))

    def test_matches_freudenthal_total(self):
        cases = [(root_system(name), lam) for name, lam in SMALL_CASES]
        for letter, n in canonical_simple_types(5):
            rs = root_system(letter, n)
            cases += [(rs, lam) for lam in enumerate_dominant_weights(rs, 300)]
        for rs, lam in cases:
            assert freudenthal_character(rs, lam).dimension == rs.weyl_dim(lam), (rs, lam)

    def test_non_integer_weight_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            root_system("A1").check_weight((1.7,))
        with pytest.raises(ValueError, match="integers"):
            root_system("A2").weyl_dim((1.0, 0))


class TestFreudenthal:
    def test_a2_adjoint_against_tensor_arithmetic(self):
        # weights of C^3 tensor its dual minus the trivial line, by hand
        rs = root_system("A2")
        std = {(1, 0): 1, (-1, 1): 1, (0, -1): 1}
        dual = {tuple(-x for x in w): m for w, m in std.items()}
        prod = {}
        for a in std:
            for b in dual:
                key = tuple(x + y for x, y in zip(a, b))
                prod[key] = prod.get(key, 0) + 1
        prod[(0, 0)] -= 1
        adjoint = freudenthal_character(rs, (1, 1))
        assert adjoint.weights == prod
        assert adjoint.weights[(0, 0)] == 2

    def test_minuscule_all_ones(self):
        for name, lam in [("A3", (0, 1, 0)), ("D4", (0, 0, 0, 1)), ("E6", (1, 0, 0, 0, 0, 0))]:
            ch = freudenthal_character(root_system(name), lam)
            assert set(ch.weights.values()) == {1}

    def test_c3_wedge3_multiplicity_free(self):
        ch = freudenthal_character(root_system("C3"), (0, 0, 1))
        assert ch.dimension == 14
        assert set(ch.weights.values()) == {1}

    def test_incomplete_closure_refused(self):
        # a weight dropped from the closure leaves a weight below it whose
        # multiplicity is no positive integer, or drops its orbit from
        # sum m(mu) |W mu|, which then falls short of the Weyl dimension; the
        # lowest weight feeds no other multiplicity, so only the identity can
        # see it gone
        for name, lam in [("A2", (2, 2)), ("B3", (1, 1, 0)), ("G2", (1, 1)), ("F4", (1, 0, 0, 0))]:
            doms = root_system(name).dominant_weights_below(lam)
            assert len(doms) >= 3
            for k in range(1, len(doms)):
                rs = RootSystem(name[0], int(name[1:]))  # empty memo tables
                rs._dominant_below_cache[lam] = doms[:k] + doms[k + 1:]
                match = re.escape(f"dominant weight closure of {lam} incomplete")
                with pytest.raises(AssertionError, match=match):
                    rs.freudenthal_dominant(lam)

    def test_incomplete_closure_refused_under_optimize(self):
        # python -O strips assert statements; dropping (1, 1) from A2 2 rho
        # leaves (0, 0) with no integer multiplicity, a check that must stay
        child = (
            "from thetacycles.lierep import RootSystem\n"
            "rs = RootSystem('A', 2)\n"
            "rs._dominant_below_cache[(2, 2)] = [(2, 2), (3, 0), (0, 3), (0, 0)]\n"
            "try:\n"
            "    rs.freudenthal_dominant((2, 2))\n"
            "except AssertionError as exc:\n"
            "    print(exc)\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        proc = subprocess.run([sys.executable, "-O", "-c", child], capture_output=True,
                              text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == ("dominant weight closure of (2, 2) incomplete: "
                               "no positive integer multiplicity at (0, 0)\n")

    def test_e8_adjoint_zero_weight(self):
        # the adjoint is the unique 248-dimensional irreducible; its zero
        # weight space is a Cartan subalgebra, so multiplicity = rank = 8
        rs = root_system("E8")
        candidates = [w for w in enumerate_dominant_weights(rs, 248) if rs.weyl_dim(w) == 248]
        assert len(candidates) == 1
        zero_mult = rs.freudenthal_dominant(candidates[0])[(0,) * 8]
        assert zero_mult == 8


class TestCharacterOps:
    def test_tensor_dimension_multiplicative(self):
        rs = root_system("A2")
        x = freudenthal_character(rs, (1, 0))
        y = freudenthal_character(rs, (1, 1))
        assert char_tensor(x, y).dimension == x.dimension * y.dimension

    def test_alt3_a5_is_w3(self):
        rs = root_system("A5")
        std = freudenthal_character(rs, (1, 0, 0, 0, 0))
        alt3 = char_alt(3, std)
        assert alt3.dimension == 20
        assert decompose(alt3) == {(0, 0, 1, 0, 0): 1}

    def test_alt3_c3_splits(self):
        rs = root_system("C3")
        std = freudenthal_character(rs, (1, 0, 0))
        alt3 = char_alt(3, std)
        assert alt3.dimension == 20
        assert decompose(alt3) == {(0, 0, 1): 1, (1, 0, 0): 1}

    def test_alt_matches_subset_enumeration(self):
        # on a multiplicity-free character the exterior power is literally
        # the sum over weight subsets; check through the group-ring oracle
        for name, lam in [("A2", (1, 0)), ("B2", (1, 0)), ("C3", (1, 0, 0)), ("A3", (0, 1, 0))]:
            rs = root_system(name)
            x = freudenthal_character(rs, lam)
            assert is_wmf(rs, lam)
            grp = FgAbelianGroup(rs.rank)
            elems = list(x.weights)
            for k in (2, 3):
                oracle = subset_exterior_power_with_add(elems, k, gr_add_oracle(grp), grp.zero())
                ours = char_alt(k, x)
                assert ours.weights == oracle, (name, k)

    def test_group_ring_in_key_order(self):
        # a character lists its weights orbit by orbit; Z[P] holds them sorted
        for name, lam in [("A2", (1, 1)), ("B2", (1, 0)), ("G2", (1, 0))]:
            x = freudenthal_character(root_system(name), lam)
            assert list(x.weights) != sorted(x.weights)
            assert list(lierep._group_ring(x).coeffs.items()) == sorted(x.weights.items())

    def test_sym2_plus_alt2(self):
        rs = root_system("B2")
        x = freudenthal_character(rs, (0, 1))
        lhs = char_tensor(x, x).weights
        rhs = {}
        for part in (char_sym(2, x), char_alt(2, x)):
            for w, m in part.weights.items():
                rhs[w] = rhs.get(w, 0) + m
        assert lhs == rhs

    def test_clebsch_gordan_smallest(self):
        rs = root_system("A1")
        std = freudenthal_character(rs, (1,))
        sq = char_tensor(std, std)
        assert decompose(sq) == {(2,): 1, (0,): 1}

    def test_decompose_reconstructs_random_tensors(self):
        rng = random.Random(5)
        for letter, n in canonical_simple_types(4):
            rs = root_system(letter, n)
            lams = enumerate_dominant_weights(rs, 30)
            if len(lams) < 2:
                continue
            a, b = rng.sample(lams, 2)
            x = char_tensor(freudenthal_character(rs, a), freudenthal_character(rs, b))
            parts = decompose(x)
            rebuilt = {}
            for lam, m in parts.items():
                for w, mult in freudenthal_character(rs, lam).weights.items():
                    rebuilt[w] = rebuilt.get(w, 0) + m * mult
            assert rebuilt == x.weights, (letter, n, a, b)

    @pytest.mark.parametrize(
        "weights",
        [{(1,): 1.5, (-1,): 1.7}, {(1,): 1.0, (-1,): 1.0}, {(1.0,): 1, (-1.0,): 1},
         {(True,): 1, (-1,): 1}, {(1,): True, (-1,): True}],
        ids=["float-mults", "integral-float-mults", "float-weights", "bool-weight",
             "bool-mults"],
    )
    def test_non_integer_input_rejected(self, weights):
        with pytest.raises(NotACharacterError, match="integer"):
            Character(root_system("A1"), weights)

    def test_wrong_length_and_negative_rejected(self):
        rs = root_system("A1")
        with pytest.raises(NotACharacterError, match="has length 2, expected rank 1"):
            Character(rs, {(1, 0): 1})
        with pytest.raises(NotACharacterError, match="negative multiplicity -1"):
            Character(rs, {(1,): -1, (-1,): -1})

    def test_tensor_of_two_root_systems_refused(self):
        x = freudenthal_character(root_system("A1"), (1,))
        with pytest.raises(ValueError, match="characters live on different root systems"):
            char_tensor(x, freudenthal_character(root_system("A2"), (1, 0)))

    def test_equality_compares_root_system_and_weights(self):
        rs = root_system("A2")
        x = freudenthal_character(rs, (1, 0))
        assert x == Character(rs, dict(x.weights))
        assert x != freudenthal_character(rs, (0, 1))
        # the same weights on another instance of A2 are another character
        assert x != Character(RootSystem("A", 2), dict(x.weights))
        assert x != x.weights and not x == "A2"

    def test_decompose_rejects_corrupted(self):
        rs = root_system("A2")
        with pytest.raises(NotACharacterError):
            Character(rs, {(1, 0): 1})  # not Weyl invariant
        # invariant but not a character: the full orbit of (1,0) without the
        # required interior structure is fine (it IS the std character), so
        # remove dominance consistency instead: multiplicity 1 at orbit of
        # (1,1) but nothing inside
        orbit_only = {w: 1 for w in rs.weyl_orbit((1, 1))}
        with pytest.raises(NotACharacterError):
            decompose(Character(rs, orbit_only))


class TestSelfDualAndFs:
    def test_self_duality(self):
        # V_lam is self-dual exactly when it has a Frobenius-Schur type
        def self_dual(name, lam):
            return fs_type(root_system(name), lam) != "none"

        assert self_dual("C4", (1, 0, 0, 0))
        assert not self_dual("A2", (1, 0))
        assert self_dual("A2", (1, 1))
        assert not self_dual("E6", (1, 0, 0, 0, 0, 0))
        assert not self_dual("D5", (0, 0, 0, 0, 1))

    def test_fs_against_direct_decomposition(self):
        # the closed-form sign agrees with literally decomposing the squares
        for name, lam in [("C2", (1, 0)), ("B2", (0, 1)), ("A1", (2,)),
                          ("A3", (0, 1, 0)), ("G2", (1, 0)), ("C3", (0, 0, 1)),
                          ("B3", (0, 0, 1)), ("A2", (1, 1)),
                          # not weight multiplicity free
                          ("A3", (1, 0, 1)), ("C3", (2, 0, 0)), ("G2", (0, 1)),
                          ("B2", (1, 1)), ("C2", (1, 1))]:
            rs = root_system(name)
            x = freudenthal_character(rs, lam)
            triv = rs.zero()
            in_sym = decompose(char_sym(2, x)).get(triv, 0)
            in_alt = decompose(char_alt(2, x)).get(triv, 0)
            assert in_sym + in_alt <= 1
            expected = (
                "orthogonal" if in_sym else "symplectic" if in_alt else "none"
            )
            assert fs_type(rs, lam) == expected, (name, lam)

    def test_classical_spot_values(self):
        assert fs_type(root_system("C5"), (1, 0, 0, 0, 0)) == "symplectic"
        assert fs_type(root_system("B5"), (0, 0, 0, 0, 1)) == "symplectic"
        assert fs_type(root_system("A5"), (0, 0, 1, 0, 0)) == "symplectic"


class TestClassifiers:
    @staticmethod
    def minuscule(name, lam):
        return len(root_system(name)._closure(lam)) == 1

    @staticmethod
    def quasi_minuscule(name, lam):
        rs = root_system(name)
        return rs._closure(lam).keys() <= {lam, rs.zero()}

    def test_minuscule(self):
        assert self.minuscule("A5", (0, 0, 1, 0, 0))
        assert not self.minuscule("A2", (1, 1))
        assert not self.minuscule("G2", (1, 0))
        assert self.minuscule("D5", (0, 0, 0, 0, 1))

    def test_quasi_minuscule(self):
        assert self.quasi_minuscule("A2", (1, 1))
        assert self.quasi_minuscule("G2", (1, 0))
        assert not self.quasi_minuscule("A2", (2, 1))
        orbit = root_system("G2").weyl_orbit((1, 0))
        assert len(orbit) == 6  # six short roots plus the zero weight

    def test_wmf(self):
        assert is_wmf(root_system("C3"), (0, 0, 1))
        assert not is_wmf(root_system("A2"), (1, 1))
        assert is_wmf(root_system("B4"), (1, 0, 0, 0))

    @pytest.mark.parametrize("name, lam", [("A1", (-3,)), ("A2", (-1, 0))])
    @pytest.mark.parametrize(
        "check",
        [is_wmf, lambda rs, lam: rs.freudenthal_dominant(lam)],
        ids=["is_wmf", "freudenthal_dominant"],
    )
    def test_non_dominant_rejected(self, check, name, lam):
        with pytest.raises(ValueError, match="is not dominant"):
            check(root_system(name), lam)

    def test_predicates_keep_no_closure(self, monkeypatch):
        rs = RootSystem("B", 3)  # empty tables
        closures = []
        closure = rs._closure
        monkeypatch.setattr(rs, "_closure", lambda lam: closures.append(lam) or closure(lam))
        lam = (1, 0, 1)
        doms = rs._closure(lam)
        assert (len(doms) == 1, doms.keys() <= {lam, rs.zero()}, is_wmf(rs, lam)) == (
            False, False, False)
        assert closures == [lam] * 2 and rs._dominant_below_cache == {}
        assert enumerate_dominant_weights(rs, 30) == [lam for lam, _ in rs._walk_table[1]]
        assert is_wmf(rs, rs.zero())

    def test_classify_contains_expected(self):
        rows = classify_wmf(3, 40)
        keyed = {(r.letter, r.rank, r.weight): r for r in rows}
        c3 = keyed[("C", 3, (0, 0, 1))]
        assert (c3.dim, c3.fs, c3.minuscule) == (14, "symplectic", False)
        g2 = keyed[("G", 2, (1, 0))]
        assert (g2.dim, g2.fs) == (7, "orthogonal")
        assert all(r.family != "other" for r in rows)

    @pytest.mark.parametrize("sweep", [
        lambda r: classify_wmf(r, 10 ** 9), lambda r: quasi_minuscule_dim_search(10 ** 9, r),
    ], ids=["classify_wmf", "quasi_minuscule_dim_search"])
    def test_sweep_rank_over_the_limit_refused(self, sweep, monkeypatch):
        import thetacycles.lierep as lierep

        monkeypatch.setattr(lierep, "root_system", None)  # any build fails the test
        with pytest.raises(ValueError, match="over the limit of 40"):
            sweep(lierep.MAX_SWEEP_RANK + 1)

    @pytest.mark.parametrize("sweep", [
        lambda: classify_wmf(40, 10 ** 12), lambda: quasi_minuscule_dim_search(10 ** 12, 1),
    ], ids=["classify_wmf", "quasi_minuscule_dim_search"])
    def test_sweep_dim_over_the_limit_refused(self, sweep, monkeypatch):
        # A1 alone has max_dim - 1 weights to walk
        import thetacycles.lierep as lierep

        monkeypatch.setattr(lierep, "root_system", None)  # any build fails the test
        with pytest.raises(ValueError, match="dimension 1000000000000 is over the limit of 100000"):
            sweep()

    def test_sweep_dim_limit_is_inclusive(self):
        import thetacycles.lierep as lierep

        assert lierep._sweep_types(1, lierep.MAX_SWEEP_DIM) == [("A", 1)]
        with pytest.raises(ValueError, match="over the limit"):
            lierep._sweep_types(1, lierep.MAX_SWEEP_DIM + 1)

    def test_sweep_rank_clamped_by_dimension(self, monkeypatch):
        # rank n has no nontrivial irreducible of dimension <= n
        import thetacycles.lierep as lierep

        expected = [classify_wmf(4, 5), quasi_minuscule_dim_search(7, 6), [], []]
        ranks = []
        real_types = lierep.canonical_simple_types

        def canonical_simple_types(max_rank):
            ranks.append(max_rank)
            assert max_rank <= lierep.MAX_SWEEP_RANK  # before listing a billion types
            return real_types(max_rank)

        monkeypatch.setattr(lierep, "canonical_simple_types", canonical_simple_types)
        got = [classify_wmf(10 ** 9, 5), quasi_minuscule_dim_search(7, 10 ** 9),
               classify_wmf(10 ** 9, 1), quasi_minuscule_dim_search(1, 10 ** 9)]
        assert got == expected and ranks == [4, 6, 0, 0]

    def test_qm_search_finds_the_standard(self):
        matches = quasi_minuscule_dim_search(7, 3)
        assert ("G2", (1, 0)) in matches
        matches118 = quasi_minuscule_dim_search(118, 8)
        assert matches118 == []

    def test_orbit_rank_bound(self):
        rng = random.Random(3)
        for letter, n in canonical_simple_types(5):
            rs = root_system(letter, n)
            for _ in range(10):
                w = tuple(rng.randint(-4, 4) for _ in range(n))
                if w == rs.zero():
                    continue
                assert orbit_rank_bound(rs, w)
        with pytest.raises(ValueError, match="w must be nonzero"):
            orbit_rank_bound(root_system("A2"), (0, 0))

    def test_root_multiple_condition(self):
        for m in (2, 3, 4):
            rs = root_system("C", m)
            std_weight = tuple(1 if i == 0 else 0 for i in range(m))
            assert root_multiple_condition(rs, std_weight)
        # the standard rep of A2 has no weight on a root line
        assert not root_multiple_condition(root_system("A2"), (1, 0))
        # the trivial representation's one weight is zero, on no root line
        assert not root_multiple_condition(root_system("A2"), (0, 0))


class TestClosedFormsAgainstOracles:
    """The closed forms of the library against the general searches they
    replaced, kept as oracles in tests/oracles.py."""

    TYPES_20 = canonical_simple_types(20) + [("D", 3), ("C", 2)]

    def test_w0_permutation_is_the_opposition_involution(self):
        assert len(canonical_simple_types(20)) == 79
        for letter, n in self.TYPES_20:
            rs = root_system(letter, n)
            assert rs.w0_permutation == w0_permutation_by_dominantizing(rs), rs.name

    def test_negate_dominant_permutes_coordinates(self):
        rng = random.Random(7)
        for letter, n in self.TYPES_20:
            rs = root_system(letter, n)
            for _ in range(10):
                w = tuple(rng.randint(0, 4) for _ in range(n))
                assert rs.negate_dominant(w) == negate_dominant_by_dominantizing(rs, w)
                self_dual = fs_type(rs, w) != "none"
                assert self_dual == (negate_dominant_by_dominantizing(rs, w) == w)

    def test_center_index_and_root_multiples_on_dominant_weights(self):
        count = 0
        for letter, n in canonical_simple_types(6):
            rs = root_system(letter, n)
            for lam in enumerate_dominant_weights(rs, 400):
                assert center_kernel_index(rs, lam) == center_kernel_index_echelon(rs, lam)
                assert root_multiple_condition(rs, lam) == root_multiple_full_orbit(rs, lam), (
                    rs.name, lam)
                count += 1
        assert count == 936

    def test_enumeration_walk_against_bfs(self):
        cases = [(t, dim) for t in self.TYPES_20 for dim in (-1, 0, 1, 2, 118, 600)]
        cases += [(t, 3000) for t in canonical_simple_types(10)]
        cases += [(("A", 1), 10000)]
        for (letter, n), dim in cases:
            rs = root_system(letter, n)
            assert enumerate_dominant_weights(rs, dim) == dominant_weights_by_bfs(rs, dim), (
                rs.name, dim)

    def test_is_wmf_against_orbit_size_sum(self):
        count = 0
        for letter, n in canonical_simple_types(6):
            rs = root_system(letter, n)
            for lam in enumerate_dominant_weights(rs, 400):
                assert is_wmf(rs, lam) == is_wmf_by_orbit_sizes(rs, lam), (rs.name, lam)
                count += 1
        assert count == 936

    @pytest.mark.parametrize("max_rank, max_dim", [(10, 3000), (14, 2000)])
    def test_pruned_wmf_sweep_against_unpruned(self, max_rank, max_dim):
        rows = classify_wmf(max_rank, max_dim)
        assert [(r.letter, r.rank, r.weight) for r in rows] == wmf_weights_unpruned(
            max_rank, max_dim)

    def test_multiplicities_grow_along_fundamental_shifts(self):
        """The lemma behind the pruned sweep: m_(lam + varpi_i)(mu + varpi_i)
        >= m_lam(mu) for every dominant mu of V_lam."""
        count = 0
        for letter, n in canonical_simple_types(4):
            rs = root_system(letter, n)
            for lam in enumerate_dominant_weights(rs, 300):
                below = rs.freudenthal_dominant(lam)
                for i in range(n):
                    above = rs.freudenthal_dominant(lam[:i] + (lam[i] + 1,) + lam[i + 1:])
                    for mu, m in below.items():
                        assert above.get(mu[:i] + (mu[i] + 1,) + mu[i + 1:], 0) >= m, (
                            rs.name, lam, i, mu)
                    count += len(below)
        assert count == 31159

    def test_dominant_closure_against_unfiltered(self):
        count = 0
        for letter, n in canonical_simple_types(20):
            rs = RootSystem(letter, n)  # empty memo tables
            for lam in enumerate_dominant_weights(rs, 700):
                expected = dominant_weights_below_unfiltered(rs, lam)
                assert rs.dominant_weights_below(lam) == expected, (rs.name, lam)
                count += 1
        assert count == 1791

    @staticmethod
    def seed_steps(rs, i) -> dict:
        """rs._seed_steps(i), checked: a shifted weight is expanded by the
        roots alpha with alpha_i its i-th coordinate, for every positive value
        alpha_i takes, and a new weight by those with alpha_i = 0."""
        steps = rs._seed_steps(i)
        assert sorted(steps) == sorted(
            {a[i] for a, _, _, _, _ in rs.positive_roots if a[i] >= 0} | {0}), (rs.name, i)
        return steps

    @classmethod
    def closure_modes_against_unfiltered(cls, types, max_dim) -> int:
        """Both modes of RootSystem._closure on every lam of dimension <=
        max_dim of the given types: the whole closure, and for every i with
        lam_i >= 1 the closure seeded with the unfiltered closure of lam -
        varpi_i, are the unfiltered closure of lam, with each depth
        ht(lam - mu) from the heights of the fundamental weights in
        Fractions.  Returns the number of seeded cases."""
        count = 0
        for letter, n in types:
            rs = RootSystem(letter, n)  # empty memo tables
            heights = fundamental_heights(rs.cartan)
            scale = lcm(*(h.denominator for h in heights))
            scaled = [int(h * scale) for h in heights]

            def closure(lam):
                out = {}
                for mu in dominant_weights_below_unfiltered(rs, lam):
                    depth, rem = divmod(sum(map(mul, map(sub, lam, mu), scaled)), scale)
                    assert rem == 0
                    out[mu] = depth
                return out

            tables = {}
            # the weight before lam and its closure: lam - varpi_i for rank 1
            # and often for rank 2
            previous = previous_closure = None
            for lam in enumerate_dominant_weights(rs, max_dim):
                expected = closure(lam)
                assert rs._closure(lam) == expected, (rs.name, lam)
                for i, x in enumerate(lam):
                    if x:
                        parent = lam[:i] + (x - 1,) + lam[i + 1:]
                        below = previous_closure if parent == previous else closure(parent)
                        if i not in tables:
                            tables[i] = cls.seed_steps(rs, i)
                        seeded = rs._closure(lam, (below, i, tables[i]))
                        assert seeded == expected, (rs.name, lam, i)
                        count += 1
                previous, previous_closure = lam, expected
        return count

    def test_seeded_closure_against_unfiltered(self):
        # every type of rank <= 6, E6, F4 and G2 among them, to dimension 2,000
        assert self.closure_modes_against_unfiltered(canonical_simple_types(6), 2000) == 4587
        for letter, n in canonical_simple_types(6):
            for i in range(n):
                self.seed_steps(root_system(letter, n), i)
        # G2's 3 alpha_1 + alpha_2 is 3 varpi_1 - varpi_2: the one seed over 2.
        # No closure needs it, as mu - alpha_1 is dominant for mu_1 = 3 and
        # reaches the same weight by 2 alpha_1 + alpha_2 = varpi_1, so only
        # the table shows it
        assert sorted(root_system("G2")._seed_steps(0)) == [0, 1, 2, 3]

    def test_closure_steps_plain_attribute(self):
        # the steps table is a plain attribute, set on first use: no
        # cached_property, which stores through the instance __dict__ and
        # slows every later attribute load of the instance
        from functools import cached_property

        assert not any(isinstance(v, cached_property) for v in vars(RootSystem).values())
        for letter, n in canonical_simple_types(6):
            rs = RootSystem(letter, n)
            assert rs._steps is None
            steps = rs._closure_steps()
            assert steps == tuple(
                (a, tuple(i for i, x in enumerate(a) if x > 0), height)
                for a, _, _, height, _ in rs.positive_roots), rs.name
            assert rs._closure_steps() is steps and rs._steps is steps

    def test_closure_modes_on_every_sweep_rank(self):
        # every type a sweep builds, to rank 40, at dimension 118: mostly
        # fundamental weights and their small sums at high rank
        assert self.closure_modes_against_unfiltered(canonical_simple_types(40), 118) == 648

    def test_walk_against_box(self):
        # the walk, dimensions included, against every weight of a box that
        # bounds each coordinate by its own fundamental weight's dimension:
        # the types of rank <= 6 at 3,000, and those of rank 11-20 at 118,
        # where most fundamental weights are over the bound and the walk
        # never raises their coordinates
        cases = [(t, 3000) for t in canonical_simple_types(6)]
        cases += [(t, 118) for t in canonical_simple_types(20) if t[1] > 10]
        count = 0
        for (letter, n), max_dim in cases:
            rs = RootSystem(letter, n)  # no walk table
            walked = _walk(rs, max_dim)
            assert walked == dominant_weights_in_box(rs, max_dim), (rs.name, max_dim)
            count += len(walked)
        assert count == 4930

    def test_walk_dimensions_are_weyl_dimensions(self):
        cases = [(t, 700) for t in self.TYPES_20] + [(t, 3000) for t in canonical_simple_types(10)]
        count = 0
        for (letter, n), max_dim in cases:
            rs = RootSystem(letter, n)  # no walk table
            walked = _walk(rs, max_dim)
            # the cached system's weights, filtered from any larger walk table
            assert [lam for lam, _ in walked] == enumerate_dominant_weights(
                root_system(letter, n), max_dim)
            for lam, dim in walked:
                assert dim == rs.weyl_dim(lam), (rs.name, lam)
            count += len(walked)
        assert count == 7143

    def test_walk_against_root_table_walk(self):
        # the walk over epsilon-pairings (A-D) and over the root table
        # (E6-E8, F4, G2), weights, dimensions and sorted order, against the
        # walk over the transposed root table, on every type to rank 40
        count = 0
        for letter, n in TYPES_TO_RANK_40:
            rs = RootSystem(letter, n)  # no walk table, and 3,000 walks afresh
            for max_dim in (118, 3000):
                walked = _walk(rs, max_dim)
                assert walked == sorted(walk_by_root_table(rs, max_dim)), (rs.name, max_dim)
                count += len(walked)
        assert count == 6857

    def test_fundamental_dims_against_root_product(self):
        for letter, n in TYPES_TO_RANK_40:
            rs = root_system(letter, n)
            for j in range(n):
                unit = (0,) * j + (1,) + (0,) * (n - 1 - j)
                assert rs._fundamental_dim(j) == weyl_dim_by_root_table(rs, unit), (rs.name, j)

    @given(st.sampled_from([("A", 1), ("B", 2), ("C", 2), ("D", 3)]), st.integers(0, 14),
           st.data())
    @settings(max_examples=150, deadline=None)
    def test_weyl_dim_against_root_product(self, letter_low, extra, data):
        letter, low = letter_low
        n = low + extra
        lam = tuple(data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)))
        rs = root_system(letter, n)
        assert rs.weyl_dim(lam) == weyl_dim_by_root_table(rs, lam), (rs.name, lam)

    def test_sparse_reflection_against_dense(self):
        rng = random.Random(17)
        for letter, n in self.TYPES_20:
            rs = root_system(letter, n)
            for _ in range(10):
                w = [rng.randint(-6, 6) for _ in range(n)]
                w[rng.randrange(n)] = -rng.randint(1, 6)
                for i in range(n):
                    expected = _reflect(rs.cartan, i, w)
                    assert rs.reflect(i, w) == rs.reflect(i, tuple(w)) == expected, (
                        rs.name, w, i)

    def test_classify_flags_against_unfiltered_closure(self):
        # the rows read their flags from their closures; they are checked
        # against the closure that forms every root difference
        rows = classify_wmf(10, 3000) + classify_wmf(20, 118)
        for r in rows:
            rs = root_system(r.letter, r.rank)
            doms = dominant_weights_below_unfiltered(rs, r.weight)
            assert (r.dim, r.minuscule, r.quasi_minuscule, r.fs) == (
                rs.weyl_dim(r.weight), doms == [r.weight],
                set(doms) <= {r.weight, rs.zero()}, fs_type(rs, r.weight)), (rs.name, r.weight)
        assert len(rows) == 3383 + 320

    def test_rank_one_sweeps_build_no_closure(self, monkeypatch):
        import thetacycles.lierep as lierep

        monkeypatch.setattr(lierep, "_ROOT_SYSTEM_CACHE", {})
        rows = classify_wmf(1, 3000)
        assert [r.weight for r in rows] == [(k,) for k in range(1, 3000)]
        assert [(r.minuscule, r.quasi_minuscule) for r in rows[:3]] == [
            (True, True), (False, True), (False, False)]
        assert quasi_minuscule_dim_search(3, 1) == [("A1", (2,))]
        assert root_system("A1")._dominant_below_cache == {}

    def test_classical_sweeps_build_no_root_table_unread(self, monkeypatch):
        # no weight of rank >= 11 has dimension 118, so no closure reads a
        # table of those ranks, and Weyl dimensions of A-D read none
        monkeypatch.setattr(lierep, "_ROOT_SYSTEM_CACHE", {})
        assert quasi_minuscule_dim_search(118, 20) == []
        built = [name for name, rs in lierep._ROOT_SYSTEM_CACHE.items() if rs._roots is not None]
        assert len(lierep._ROOT_SYSTEM_CACHE) == 79
        assert not [(letter, n) for letter, n in built if letter in "ABCD" and n >= 11]
        rs = root_system("B100")
        assert rs.weyl_dim((2,) + (0,) * 99) == 20300 and rs._roots is None
        assert len(rs.positive_roots) == 10000 and rs._roots is rs.positive_roots

    @pytest.mark.parametrize("dim", [3, 7, 8, 26, 27, 56, 78, 118, 248])
    def test_qm_search_against_bfs_and_unfiltered_closure(self, dim):
        expected = [
            (f"{letter}{n}", lam)
            for letter, n in canonical_simple_types(min(8, dim - 1))
            for lam in dominant_weights_by_bfs(root_system(letter, n), dim)
            if root_system(letter, n).weyl_dim(lam) == dim
            and set(dominant_weights_below_unfiltered(root_system(letter, n), lam))
            <= {lam, root_system(letter, n).zero()}
        ]
        assert quasi_minuscule_dim_search(dim, 8) == expected

    def test_center_index_on_arbitrary_weights(self):
        rng = random.Random(13)
        for letter, n in canonical_simple_types(10):
            rs = root_system(letter, n)
            for _ in range(20):
                w = tuple(rng.randint(-6, 6) for _ in range(n))
                assert center_kernel_index(rs, w) == center_kernel_index_echelon(rs, w)

    def test_closure_order_against_fraction_heights(self):
        # highest first by height, ties by weight, with the heights from an
        # inverse Cartan matrix in Fractions and the set from saturation
        count = 0
        for letter, n in canonical_simple_types(8):
            rs = RootSystem(letter, n)  # empty memo tables
            heights = fundamental_heights(rs.cartan)
            for lam in enumerate_dominant_weights(rs, 400):
                doms = [w for w in saturation_weights(rs, lam) if min(w) >= 0]
                expected = sorted(
                    doms, key=lambda w: (sum(map(mul, w, heights)), w), reverse=True)
                assert rs.dominant_weights_below(lam) == expected, (rs.name, lam)
                count += 1
        assert count == 1008

    def test_decompose_against_full_orbit_peeling(self):
        count = 0
        for letter, n in canonical_simple_types(4):
            rs = root_system(letter, n)
            irreps = [freudenthal_character(rs, lam)
                      for lam in enumerate_dominant_weights(rs, 40)[:6]]
            small = [x for x in irreps if x.dimension <= 10]
            chars = [char_tensor(x, y) for x in irreps for y in irreps]
            chars += [op(k, x) for x in small for op in (char_alt, char_sym) for k in (2, 3)]
            for ch in chars:
                assert decompose(ch) == decompose_full_orbit(ch), (rs.name, ch.weights)
            count += len(chars)
        assert count == 393

    def test_positive_root_table_is_closed(self):
        for letter, n in self.TYPES_20:
            rs = root_system(letter, n)
            C, d = rs.cartan, rs.d
            table = {r: (w, length) for w, r, length, _, _ in rs.positive_roots}
            for w, r, length, height, support in rs.positive_roots:
                assert w == tuple(sum(r[i] * C[i][j] for i in range(n)) for j in range(n))
                assert 2 * length == sum(r[i] * d[i] * w[i] for i in range(n))
                assert height == sum(r) and min(r) >= 0
                assert support == sum(1 << i for i in range(n) if r[i])
                for i in range(n):
                    if r == tuple(int(j == i) for j in range(n)):
                        continue  # s_i alpha_i = -alpha_i
                    image = r[:i] + (r[i] - w[i],) + r[i + 1:]
                    assert table.get(image, (None, None))[1] == length, (rs.name, r, i)


class TestGroupLabels:
    def test_center_indexes(self):
        assert center_kernel_index(root_system("A5"), (0, 0, 1, 0, 0)) == 3
        assert center_kernel_index(root_system("A5"), (1, 0, 0, 0, 0)) == 1
        assert center_kernel_index(root_system("B5"), (0, 0, 0, 0, 1)) == 1
        assert center_kernel_index(root_system("B5"), (1, 0, 0, 0, 0)) == 2
        assert center_kernel_index(root_system("A1"), (2,)) == 2

    def test_labels(self):
        assert image_group_label(root_system("A5"), (0, 0, 1, 0, 0)) == "Sl6/mu3"
        assert image_group_label(root_system("C3"), (0, 0, 1)) == "Sp6"
        assert image_group_label(root_system("B3"), (1, 0, 0)) == "SO7"
        assert image_group_label(root_system("B3"), (0, 0, 1)) == "Spin7"
        assert image_group_label(root_system("E7"), (0,) * 6 + (1,)) == "E7"
        assert image_group_label(root_system("F4"), (0, 0, 0, 1)) == "F4"

    def test_type_d_labels_against_families(self):
        # the family rule the label used to read: D-std is SO, a half-spin
        # weight Spin, and any other weight Spin exactly when d = 1
        cases = [(r.rank, r.weight) for r in classify_wmf(10, 3000) if r.letter == "D"]
        cases += [(n, lam) for n in range(4, 15)
                  for lam in enumerate_dominant_weights(root_system("D", n), 300)]
        for n, lam in cases:
            rs = root_system("D", n)
            family = lierep.wmf_family(rs, lam)
            spin = family == "D-halfspin" or (
                family != "D-std" and center_kernel_index(rs, lam) == 1)
            assert image_group_label(rs, lam) == f"{'Spin' if spin else 'SO'}{2 * n}", (n, lam)


    def test_families_against_table(self):
        # every fundamental weight of every type to rank 9, D3 and C2
        # included, and the weights of dimension <= 300
        count = 0
        for letter, n in canonical_simple_types(9) + [("D", 3), ("C", 2)]:
            rs = root_system(letter, n)
            weights = [(0,) * j + (1,) + (0,) * (n - 1 - j) for j in range(n)]
            for lam in weights + enumerate_dominant_weights(rs, 300):
                assert lierep.wmf_family(rs, lam) == wmf_family_by_table(rs, lam), (rs.name, lam)
                count += lierep.wmf_family(rs, lam) != "other"
        assert count == 585


class TestTables:
    def test_csv_layout(self):
        csv = wmf_tables_csv(3, 20)
        lines = csv.strip().split("\n")
        assert lines[0] == "table,family,G,dimW,symplectic,orthogonal"
        assert sum(1 for l in lines if l.startswith("minuscule,")) == 7
        assert sum(1 for l in lines if l.startswith("wmf,")) == 4
        assert any(l.startswith("instance,") for l in lines)


class TestSweepMemory:
    def test_qm_search_peak_memory(self, monkeypatch):
        """qm-search --dim 118 --max-rank 20 builds all 79 root systems of
        rank <= 20 and walks each.  A table per positive root built with
        every root system (10,175 roots here) would add 0.6 MB or more.  The
        sweep peaks at 5.28 MB, the walk tables' 0.07 MB included, which
        leaves 0.12 MB of room under the bound (Python 3.11).  A full
        collection first empties the free lists of earlier tests, whose
        reused objects tracemalloc would not see."""
        import thetacycles.lierep as lierep

        monkeypatch.setattr(lierep, "_ROOT_SYSTEM_CACHE", {})
        gc.collect()
        tracemalloc.start()
        try:
            assert quasi_minuscule_dim_search(118, 20) == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(lierep._ROOT_SYSTEM_CACHE) == 79
        assert peak < 5_400_000

    # short sequences of sweeps with small bounds: classify_wmf(rank, dim)
    # and quasi_minuscule_dim_search(dim, rank)
    SWEEPS = st.one_of(
        st.tuples(st.just("classify"), st.integers(1, 5), st.integers(1, 400)),
        st.tuples(st.just("qm"), st.integers(1, 400), st.integers(1, 5)),
    )

    @staticmethod
    def _sweep(kind, a, b):
        return classify_wmf(a, b) if kind == "classify" else quasi_minuscule_dim_search(a, b)

    @given(st.lists(SWEEPS, min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    @example([("classify", 4, 100), ("classify", 5, 400), ("classify", 3, 60),
              ("qm", 26, 4), ("qm", 400, 5)])
    @example([("classify", 5, 400), ("classify", 5, 27), ("qm", 27, 5), ("classify", 5, 400)])
    @example([("qm", 56, 5), ("qm", 8, 5), ("classify", 5, 300), ("qm", 56, 5)])
    def test_tables_answer_as_cold_sweeps(self, sweeps):
        """Each sweep of a sequence, with bounds growing and shrinking and
        qm-search after classify, equals the same sweep made cold, and no
        sweep leaves a closure behind."""
        import thetacycles.lierep as lierep

        cold = []
        for sweep in sweeps:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(lierep, "_ROOT_SYSTEM_CACHE", {})
                cold.append(self._sweep(*sweep))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lierep, "_ROOT_SYSTEM_CACHE", {})
            for sweep, expected in zip(sweeps, cold):
                assert self._sweep(*sweep) == expected, sweep
                assert all(rs._dominant_below_cache == {}
                           for rs in lierep._ROOT_SYSTEM_CACHE.values()), sweep

    def test_cold_sweep_peak_memory(self, monkeypatch):
        """A cold classify_wmf(14, 10000) keeps the closures of the wmf
        weights whose walk children are still to come, each until the last
        of them, and peaks at 7.43 MB, with the 10,680 rows it returns; when
        no closure outlived its weight it peaked at 7.47 MB, and keeping
        every wmf weight's closure to the end of its type read 19.9 MB.  The
        bound leaves 0.37 MB of room (Python 3.11)."""
        import thetacycles.lierep as lierep

        monkeypatch.setattr(lierep, "_ROOT_SYSTEM_CACHE", {})
        gc.collect()
        tracemalloc.start()
        try:
            rows = classify_wmf(14, 10000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 10680
        assert peak < 7_800_000, peak

    def test_cold_sweep_keeps_no_closure(self, monkeypatch):
        """A cold classify_wmf(10, 3000) builds 647 closures, unseeded or
        seeded from the walk parent's, and keeps none: what stays in the 39
        root systems is their tables, the walk to 3000 (5,177 weights) and
        3,383 rows, 2.79 MB with the rows the sweep returns.  When each
        closure was kept, this read 4.53 MB.  The bound leaves 0.31 MB of
        room (Python 3.11)."""
        import thetacycles.lierep as lierep

        monkeypatch.setattr(lierep, "_ROOT_SYSTEM_CACHE", {})
        closures = [0]
        closure = RootSystem._closure

        def counted(rs, *args):
            closures[0] += 1
            return closure(rs, *args)

        monkeypatch.setattr(RootSystem, "_closure", counted)
        gc.collect()
        tracemalloc.start()
        try:
            rows = classify_wmf(10, 3000)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        systems = lierep._ROOT_SYSTEM_CACHE.values()
        assert len(rows) == 3383 and len(systems) == 39
        assert all(rs._dominant_below_cache == {} for rs in systems)
        assert closures == [647]
        assert kept < 3_100_000, kept
