"""Exception types shared across the library."""


class TwistlabError(Exception):
    """Base class for all library-specific errors."""


class PoleError(TwistlabError):
    """An evaluation point collided with (or came too close to) a pole."""


class SectorError(TwistlabError):
    """Asymptotic formula requested below its validity threshold in t."""


class BudgetError(TwistlabError):
    """Estimated cost of an operation exceeds the configured budget."""


class ResonanceError(TwistlabError):
    """Resonance condition m = C Q^2 alpha^d violated, or no usable index."""


class QuadratureError(TwistlabError):
    """Oscillatory quadrature failed to converge within the panel budget."""
