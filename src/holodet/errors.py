"""Exception types shared across the library."""


class HolodetError(Exception):
    """Base class for all library-specific failures."""


class DomainError(HolodetError):
    """A point lies outside the domain an operation is defined on, or an input
    text (catalog, recipe, samples CSV, CLI value) is malformed."""


class BudgetError(HolodetError):
    """A certified accuracy target cannot be met within the configured budget."""


class QuadratureError(HolodetError):
    """Adaptive quadrature failed to converge, or a node hit a singularity guard."""


class FitRankError(HolodetError):
    """A least-squares fit is rank deficient (insufficient samples or dispersion)."""


class NotPluriharmonicError(HolodetError):
    """Input function fails the pluriharmonicity residual check."""
