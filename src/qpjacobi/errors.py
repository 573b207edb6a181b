"""Exception types shared across the package."""


class PoleProximity(Exception):
    """A phase landed within pole_tol of a diagonal denominator zero."""

    def __init__(self, message, phase=None, site=None):
        super().__init__(message)
        self.phase = phase
        self.site = site


class DegenerateSymbol(Exception):
    """All Fourier coefficients vanish where a nonzero symbol is required."""


class AllDegenerate(Exception):
    """No nondegeneracy witness found for at least one spectral parameter t."""

    def __init__(self, message, failed=()):
        super().__init__(message)
        self.failed = tuple(failed)


class NearSingular(Exception):
    """Linear-solve residual too large; the energy sits too close to an eigenvalue."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class TooManyExclusions(Exception):
    """More than the allowed fraction of quadrature nodes underflowed."""

    def __init__(self, message, excluded=0, total=0):
        super().__init__(message)
        self.excluded = excluded
        self.total = total


class AllZero(Exception):
    """Every deviation report had bad_fraction == 0; nothing to fit."""


class ModelFormatError(Exception):
    """A model config file failed validation; carries the offending field path."""

    def __init__(self, message, field=None):
        super().__init__(f"{field}: {message}" if field else message)
        self.field = field
