"""Exception hierarchy shared by all modules."""


class DuopolyError(Exception):
    """Base class for all package errors."""


class ParamDomainError(DuopolyError):
    """A primitive parameter violates its domain (r<=0, gamma<=1, sigma=0, ...)."""


class IntegrabilityError(DuopolyError):
    """Discounting too weak: equilibrium values would be infinite."""


class ZeroCapacityError(DuopolyError):
    """Inverse demand requested at zero aggregate capacity."""


class BelowFloorError(DuopolyError):
    """Capital below the admissible floor of a capital-dependent trigger."""


class RootBracketError(DuopolyError):
    """Internal root bracketing failed to enclose a solution."""


class KindMismatchError(DuopolyError):
    """An outcome construction received boundaries of an unsupported kind."""


class InvalidSplitError(DuopolyError):
    """Aggregate-investment split weights would make some capital path decrease."""


class QuadratureNotConvergedError(DuopolyError):
    """Estimated quadrature error stayed above tolerance after maximum refinement."""


class UsageError(DuopolyError):
    """Malformed configuration or command line."""
