"""Exception hierarchy.

Every domain failure raises a subclass of AnosovError so the CLI can map
mathematical errors to exit code 1 and keep usage errors (exit 2) separate.
"""


class AnosovError(Exception):
    """Base class for all domain errors raised by this package."""


# --- exact arithmetic ---------------------------------------------------

class NonSquare(AnosovError):
    pass


class ZeroPolynomial(AnosovError):
    pass


class EndpointIsRoot(AnosovError):
    pass


class RootOnCircle(AnosovError):
    pass


class OddWindingIndex(AnosovError):
    """The exact winding count over the unit circle came out odd."""


# --- number fields ------------------------------------------------------

class NotIrreducible(AnosovError):
    pass


class IrreducibilityBudgetExceeded(AnosovError):
    """Factor search too large; the datum must carry assume_irreducible."""


class AutomorphismFailsMinPoly(AnosovError):
    pass


class TableNotAGroup(AnosovError):
    pass


class WrongAutomorphismCount(AnosovError):
    pass


class EnclosuresOverlap(AnosovError):
    pass


class BadEnclosure(AnosovError):
    pass


class DatumMismatch(AnosovError):
    pass


class PrecisionUnreachable(AnosovError):
    pass


class BadParameters(AnosovError):
    pass


class MalformedInput(BadParameters):
    """Input data that does not fit its file format; the CLI exits 2."""


# --- pisot search -------------------------------------------------------

class Undecidable(AnosovError):
    pass


class SearchBudgetExceeded(AnosovError):
    """A unit search box holds more points than the candidate budget."""


class PisotNotFound(AnosovError):
    pass


class DimensionBudgetExceeded(AnosovError):
    """A construction's algebra would exceed the dimension budget."""


class ConstraintFailed(AnosovError):
    pass


# --- Lie algebras -------------------------------------------------------

class NotNilpotent(AnosovError):
    pass


class FieldMismatch(AnosovError):
    pass


class JacobiViolation(AnosovError):
    pass


class NotGraded(AnosovError):
    pass


class NotPisot(AnosovError):
    pass


# --- rational forms -----------------------------------------------------

class NotHomomorphism(AnosovError):
    pass


class NotAutomorphism(AnosovError):
    pass


class DimensionMismatch(AnosovError):
    pass


class IrrationalStructureConstant(AnosovError):
    pass


class CommutationViolation(AnosovError):
    pass


class LabelMismatch(AnosovError):
    pass


class LabelCollision(AnosovError):
    pass


class NotGenerating(AnosovError):
    pass


class ExtensionInconsistent(AnosovError):
    pass


class NonUnitLabel(AnosovError):
    pass


class EigenvalueMismatch(AnosovError):
    """A transported matrix's charpoly differs from the label product."""


# --- pfaffian / duality -------------------------------------------------

class NotTwoStep(AnosovError):
    pass


class BasisNotAdapted(AnosovError):
    pass


class OddDimension(AnosovError):
    pass


class DegeneratePfaffian(AnosovError):
    pass


class BadDiscriminant(AnosovError):
    pass


class PellBudgetExceeded(AnosovError):
    """The continued fraction ran past its step budget unsolved."""


class SquarefreeBudgetExceeded(AnosovError):
    """Trial division for a squarefree part ran past its divisor budget."""


class SolutionMismatch(AnosovError):
    pass


class JNotInjective(AnosovError):
    pass


class DoesNotPreserveW(AnosovError):
    pass
