"""Expected-utility portfolio optimization under normal mean-variance
mixture return models: closed-form exponential-utility optima via Laplace
transforms, a moment-expansion optimizer for general smooth utilities, a
large-market convergence study, and a Monte Carlo verification path."""

from .mixing import GIG, BoundedUniform, Constant, Exponential, MixingDistribution
from .model import MarketModel, Portfolio, TransformedModel, transform

__version__ = "0.1.0"

# Submodules that load on first access (PEP 562), so that importing the
# package, or the CLI, loads no scipy module it does not use.
_LAZY_SUBMODULES = frozenset({"cli", "exp_opt", "general_opt", "large_market", "mc_oracle"})


def __getattr__(name: str):
    if name in _LAZY_SUBMODULES:
        import importlib

        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "MixingDistribution",
    "Constant",
    "Exponential",
    "GIG",
    "BoundedUniform",
    "MarketModel",
    "TransformedModel",
    "Portfolio",
    "transform",
    "__version__",
]
