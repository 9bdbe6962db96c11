"""Optimal sampling designs for linear regression driven by
Ornstein-Uhlenbeck processes (1D) and sheets (2D).

The library computes exact Fisher information matrices for the
linear-trend models, evaluates and optimizes the determinant and
condition-number design criteria over restricted and equidistant design
families, derives the asymptotic ratios of the criteria when designs are
refined or have their windows doubled, and reproduces the Monte Carlo
efficiency comparison of the two criteria through generalized least
squares simulation.

The public names are each module's ``__all__``; this package re-exports
them all.
"""

from . import asymptotics, exceptions, fim, mc, model, objectives, search
from .asymptotics import *  # noqa: F403
from .exceptions import *  # noqa: F403
from .fim import *  # noqa: F403
from .mc import *  # noqa: F403
from .model import *  # noqa: F403
from .objectives import *  # noqa: F403
from .search import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *model.__all__,
    *fim.__all__,
    *objectives.__all__,
    *search.__all__,
    *asymptotics.__all__,
    *mc.__all__,
    *exceptions.__all__,
]
