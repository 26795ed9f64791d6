"""Exception types shared across the package."""


class NuGammaError(Exception):
    """Base class for package-specific failures."""


class IntegrationError(NuGammaError):
    """Adaptive quadrature failed to reach its tolerance."""


class FitError(NuGammaError):
    """A parametric fit could not be carried out on the given window."""


class OutOfRegimeError(NuGammaError, ValueError):
    """A parameter outside the domain where a result is valid or tested:
    the unimodal bound's regime d^2 >= 4 sigma^2 / 3, the symmetrized gamma
    density's m in [1e-3, 1e4], or a counting family's p so small that its
    summand counts would overflow int64."""


class DataError(NuGammaError, ValueError):
    """Input data is missing, unparseable or degenerate."""
