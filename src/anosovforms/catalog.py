"""Frozen, verified Galois data used by the built-in constructions.

The automorphism polynomials were derived once (numerically, by mapping
the ordered real roots onto each other and rationalizing the interpolation)
and are re-proven exact here, once per process: verification checks
min_poly(q(theta)) = 0 for each, derives the group table from their
matrices and rejects anything that fails, so the numerical provenance
never enters the trusted base.  Each datum is built and verified on its
first call and the same frozen object is returned after that; what it
keeps (root paths, automorphism matrices) is deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .exactmath import Interval, Polynomial
from .numfield import GaloisDatum, datum_from_automorphism_polys


@cache
def quartic_z4_datum() -> GaloisDatum:
    """The cyclic quartic field generated by the largest root of
    X^4 - 4X^3 - 4X^2 + X + 1, with the generator of the Galois group
    cycling the four real roots in descending order."""
    p = Polynomial([1, 1, -4, -4, 1])
    sigma = Polynomial([-6, 2, 19, -4])
    sigma2 = Polynomial([7, -7, -18, 4])
    sigma3 = Polynomial([3, 4, -1])
    enclosures = [
        Interval(Fraction(478, 100), Fraction(479, 100)),
        Interval(Fraction(51, 100), Fraction(52, 100)),
        Interval(Fraction(-55, 100), Fraction(-54, 100)),
        Interval(Fraction(-75, 100), Fraction(-74, 100)),
    ]
    return datum_from_automorphism_polys(
        p, [Polynomial.x(), sigma, sigma2, sigma3], enclosures
    )


@cache
def cyclic_cubic_datum() -> GaloisDatum:
    """The cyclic cubic field of X^3 - 3X - 1 (the real subfield of the
    ninth cyclotomic field); sigma(theta) = theta^2 - theta - 2 cycles the
    descending roots, and sigma^2(theta) = 2 - theta^2."""
    p = Polynomial([-1, -3, 0, 1])
    sigma = Polynomial([-2, -1, 1])
    sigma2 = Polynomial([2, 0, -1])
    enclosures = [
        Interval(Fraction(187, 100), Fraction(188, 100)),
        Interval(Fraction(-35, 100), Fraction(-34, 100)),
        Interval(Fraction(-154, 100), Fraction(-153, 100)),
    ]
    return datum_from_automorphism_polys(
        p, [Polynomial.x(), sigma, sigma2], enclosures
    )


def cubic_pisot_unit(datum: GaloisDatum | None = None):
    """1 + theta in the cyclic cubic field: a unit Pisot number with
    minimal polynomial X^3 - 3X^2 + 1."""
    d = datum if datum is not None else cyclic_cubic_datum()
    return d.element((1, 1, 0))


@cache
def sqrt2_datum() -> GaloisDatum:
    """Q(sqrt(2)) with the conjugation automorphism."""
    return datum_from_automorphism_polys(
        Polynomial([-2, 0, 1]),
        [Polynomial.x(), Polynomial([0, -1])],
        [Interval(Fraction(5, 4), Fraction(3, 2)),
         Interval(Fraction(-3, 2), Fraction(-5, 4))],
    )


# Frozen result of searching the quartic field at height 2 under the Pisot
# cone plus the constraint |lambda sigma^2(lambda)^2| < 1 (smallest trace);
# re-certified on every use by the recipe that consumes it.
CSIG_N2_UNIT_COORDS = (0, -1, -1, 1)


def csig_fixture():
    """(datum, lambda) for the minimal-signature construction at n = 2."""
    datum = quartic_z4_datum()
    return datum, datum.element(CSIG_N2_UNIT_COORDS)
