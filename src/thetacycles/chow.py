"""Numerical Chow vectors of a very general principally polarized abelian
variety, with the Pontryagin product.

A class in CH_*(A) (the CH_g piece quotiented away) is stored by its exact
rational coordinates a_0..a_{g-1} in the minimal-class basis

    mu_i = [Theta]^(g-i) / (g-i)!   in CH_i(A),

which for a very general ppav generates the numerical cycle lattice in each
degree; integrality verdicts below are relative to this genericity
assumption.  The Pontryagin structure constants are

    mu_a * mu_b = C(a+b, a) mu_{a+b},

validated in the tests two ways: point classes act by their degree, and the
full genus-5 coefficient chain 2048/384/64/80/16 -> 20 c_1 is reproduced.
Products are truncated at a chosen index d (quotient CH_{<=d}).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial


@dataclass(frozen=True)
class ChowVector:
    """Coordinates a_0..a_{g-1} of sum a_i mu_i; exact rationals."""

    g: int
    coords: tuple  # of Fraction, length g

    def __post_init__(self):
        if self.g < 1:
            raise ValueError("g must be >= 1")
        coords = tuple(Fraction(c) for c in self.coords)
        if len(coords) != self.g:
            raise ValueError(f"need {self.g} coordinates, got {len(coords)}")
        object.__setattr__(self, "coords", coords)

    @classmethod
    def zero(cls, g: int) -> "ChowVector":
        return cls(g, (Fraction(0),) * g)

    @classmethod
    def point(cls, g: int, degree=1) -> "ChowVector":
        return cls(g, (Fraction(degree),) + (Fraction(0),) * (g - 1))

    @classmethod
    def monomial(cls, g: int, i: int, coeff=1) -> "ChowVector":
        """coeff * mu_i."""
        if not 0 <= i < g:
            raise ValueError(f"index {i} out of range for g={g}")
        coords = [Fraction(0)] * g
        coords[i] = Fraction(coeff)
        return cls(g, tuple(coords))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "ChowVector") -> "ChowVector":
        self._check(other)
        return ChowVector(self.g, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def scale(self, c) -> "ChowVector":
        c = Fraction(c)
        return ChowVector(self.g, tuple(c * a for a in self.coords))

    def _check(self, other: "ChowVector"):
        if self.g != other.g:
            raise ValueError(f"dimension mismatch: g={self.g} vs g={other.g}")

    # -- predicates ----------------------------------------------------------

    @property
    def degree(self) -> Fraction:
        """The CH_0 degree a_0 (mu_0 is a single point)."""
        return self.coords[0]

    def is_integral(self) -> bool:
        """All coordinates integral in the minimal-class lattice.

        Only meaningful for a very general ppav, where mu_i generates the
        integral lattice of numerical classes in CH_i.
        """
        return all(c.denominator == 1 for c in self.coords)

    def is_effective(self) -> bool:
        return all(c >= 0 for c in self.coords)

    def top_index(self) -> int | None:
        """Largest i with a_i != 0, or None for the zero vector."""
        for i in range(self.g - 1, -1, -1):
            if self.coords[i] != 0:
                return i
        return None

    def to_json(self) -> dict:
        return {"g": self.g, "coords": [str(c) for c in self.coords]}


def pontryagin(x: ChowVector, y: ChowVector, d_trunc: int) -> ChowVector:
    """Pontryagin product truncated at index d_trunc (quotient CH_{<=d}).

    (x*y)_c = sum_{a+b=c} C(c, a) x_a y_b for c <= d_trunc; higher
    coordinates are set to zero.
    """
    x._check(y)
    g = x.g
    if not 1 <= d_trunc <= g - 1:
        raise ValueError(f"d_trunc must be in [1, {g - 1}], got {d_trunc}")
    coords = [Fraction(0)] * g
    for c in range(min(d_trunc, g - 1) + 1):
        s = Fraction(0)
        for a in range(c + 1):
            s += comb(c, a) * x.coords[a] * y.coords[c - a]
        coords[c] = s
    return ChowVector(g, tuple(coords))


def pushforward_n(n: int, x: ChowVector) -> ChowVector:
    """[n]_* multiplies CH_i by n^(2i)."""
    return ChowVector(
        x.g, tuple(Fraction(n) ** (2 * i) * a for i, a in enumerate(x.coords))
    )


def theta_power(g: int, k: int) -> ChowVector:
    """[Theta]^k = k! * mu_{g-k} as a ChowVector, for 1 <= k <= g.

    (k = g would be g! points, which lives in the quotiented CH_0 piece as
    degree g!; it is representable here since g - g = 0 is a valid index.)
    """
    if not 1 <= k <= g:
        raise ValueError(f"k must be in [1, {g}]")
    return ChowVector.monomial(g, g - k, factorial(k))
