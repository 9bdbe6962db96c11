"""Exception hierarchy shared across the package.

Two families: validation errors signal bad user input (parameters,
designs, CLI specs), numerical errors signal computations that cannot
produce a trustworthy double-precision result.  The CLI maps the two
families to distinct exit codes (2 and 3).
"""

__all__ = [
    "ValidationError",
    "CollapsedDesignError",
    "NumericalError",
    "NearSingularDesignError",
    "SingularFimError",
]


class ValidationError(ValueError):
    """Invalid parameters, designs, or configuration."""


class CollapsedDesignError(ValidationError):
    """The requested computation needs a non-collapsing optimal design,
    but at these covariance parameters the optimum sits on the boundary
    of the design space (observation points merge)."""


class NumericalError(ArithmeticError):
    """A numerical routine cannot produce a trustworthy result."""


class NearSingularDesignError(NumericalError):
    """Scaled gaps between design points are below the configured floor,
    so the correlation matrix is numerically singular."""


class SingularFimError(NumericalError):
    """Information matrix is singular (or nearly so) for the requested
    objective."""

