"""Certification: integer-like, hyperbolic, signature, type constraints.

Certificates are unconditional modulo the recorded assumptions: eigenvalue
moduli are decided from the characteristic polynomial by the exact
unit-circle and unit-disk counters, never from numerics and never from the
labels the construction happened to use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NonSquare, NotAutomorphism, RootOnCircle
from .exactmath import Polynomial, RationalMatrix, count_roots_inside_unit_disk
from .liealg import LieAlgebra, is_automorphism


@dataclass(frozen=True)
class AnosovCertificate:
    charpoly: Polynomial
    determinant: Fraction
    integer_like: bool
    hyperbolic: bool
    signature: tuple[int, int] | None  # sorted ascending; None if not hyperbolic
    algebra_type: tuple[int, ...]
    nilpotency_class: int
    minimal_signature: bool
    assumptions: tuple[str, ...] = ()

    def summary(self) -> str:
        sig = "{%d,%d}" % self.signature if self.signature else "-"
        return (
            f"integer_like={self.integer_like} hyperbolic={self.hyperbolic} "
            f"signature={sig} type={self.algebra_type} "
            f"class={self.nilpotency_class} minimal={self.minimal_signature}"
        )


def is_integer_like(m: RationalMatrix) -> bool:
    """Characteristic polynomial has integer coefficients and constant term
    of absolute value one (equivalently |det| = 1)."""
    if not m.is_square:
        raise NonSquare("integer-like is defined for square matrices")
    p = m.charpoly()
    return p.is_integer and abs(p.constant) == 1


def certify(a: LieAlgebra, m: RationalMatrix,
            assumptions: tuple[str, ...] = ()) -> AnosovCertificate:
    """Full certificate for the map m on the rational algebra a.

    Raises NotAutomorphism when m does not preserve the brackets; a
    negative hyperbolicity verdict is a result, not an error.
    """
    if m.rows != a.dim or m.cols != a.dim:
        raise NonSquare("map dimension must equal the algebra dimension")
    if not is_automorphism(a, m):
        raise NotAutomorphism("map is not a Lie algebra automorphism")
    p = m.charpoly()  # kept by is_automorphism
    det = (-1) ** a.dim * p.constant
    integer_like = is_integer_like(m)
    try:
        inside = count_roots_inside_unit_disk(p)
        signature = tuple(sorted((inside, a.dim - inside)))
    except RootOnCircle:
        signature = None
    hyperbolic = signature is not None
    _, algebra_type, nclass = a.central_series()
    minimal = bool(signature) and min(signature) == nclass
    return AnosovCertificate(
        charpoly=p,
        determinant=det,
        integer_like=integer_like,
        hyperbolic=hyperbolic,
        signature=signature,
        algebra_type=algebra_type,
        nilpotency_class=nclass,
        minimal_signature=minimal,
        assumptions=tuple(assumptions),
    )


def check_type_constraints(type_tuple: tuple[int, ...]) -> str:
    """Classify a type tuple against the known constraints on Anosov types:
    abelian, or n_1 >= 4 with every later entry >= 2, or n_1 = n_2 = 3 with
    3 dividing every later entry.  Types matching none cannot be Anosov."""
    if not type_tuple or any(n <= 0 for n in type_tuple):
        raise ValueError("type must be a nonempty tuple of positive integers")
    if len(type_tuple) == 1:
        return "abelian"
    if type_tuple[0] >= 4 and all(n >= 2 for n in type_tuple[1:]):
        return "case_ii"
    if type_tuple[0] == 3 and type_tuple[1] == 3 and \
            all(n % 3 == 0 for n in type_tuple[2:]):
        return "case_iii"
    return "infeasible"
