"""Exception types shared across the package."""


class JacobiBandsError(Exception):
    """Base class for all errors raised by jacobibands."""


class LengthMismatch(JacobiBandsError):
    """Coefficient sequences have different lengths or are empty."""


class NonPositiveOffDiagonal(JacobiBandsError):
    """An off-diagonal entry is zero or negative."""


class NonFiniteEntry(JacobiBandsError):
    """A coefficient, or a scale derived from the coefficients (a Gershgorin
    end, the diagonal spread, the off-diagonal product), is not a finite
    number."""


class NonConvergence(JacobiBandsError):
    """An iterative refinement exhausted its budget."""


class PropertyViolation(JacobiBandsError):
    """A structural invariant of the discriminant failed beyond tolerance.

    Signals a numerical-conditioning failure, not a mathematical one.
    """


class EdgeCountMismatch(JacobiBandsError):
    """Band-edge bookkeeping is inconsistent with the expected 2p edges."""


class CapacityMismatch(JacobiBandsError):
    """The capacity computed from the Chebyshev number disagrees with the
    geometric mean of the off-diagonal entries."""


class AlternationFailure(JacobiBandsError):
    """The extremal set of the scaled discriminant is not a valid
    alternating set: a band edge has no record that the discriminant
    crosses there the target +/-2 its label gives it."""


class ConfigInvalid(JacobiBandsError):
    """An ensemble configuration violates its invariants."""
