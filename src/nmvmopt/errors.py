"""Exception types shared across the package."""


class MixingDomainError(ValueError):
    """Laplace-transform argument at or below the finiteness boundary."""


class InvalidMomentOrderError(ValueError):
    """Requested mixing moment does not exist (integral diverges)."""


class SingularModelError(ValueError):
    """Structure matrix numerically singular / not usable."""


class DegenerateModelError(ValueError):
    """Excess-return vector vanishes (C scalar is zero): the closed-form
    exponential optimizer has no well-defined reduction coordinate."""


class InfeasiblePortfolioError(ValueError):
    """Portfolio lies outside the finite-expected-utility set, or no
    portfolio in it is optimal."""


class InfeasiblePointError(ValueError):
    """Reduced point (phi, psi, rho) is not realizable by any portfolio."""


class NoRootError(RuntimeError):
    """First-order condition has no bracketed root in range."""


class SpecFileError(ValueError):
    """Market-spec file failed schema validation."""
