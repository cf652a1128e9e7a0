"""Cyclic closest-point projections in CAT(0) spaces.

The library builds the spaces (plane, star trees, their products, and a
twisted disc chain), projects onto their convex subsets, iterates the
cyclic composition of projections, and classifies whether the step sizes
d(P^n x, P^{n+1} x) die out or stall at a positive level.
"""

from . import engine, projections, scenarios, spaces
from .engine import *  # noqa: F403
from .projections import *  # noqa: F403
from .scenarios import *  # noqa: F403
from .spaces import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*engine.__all__, *projections.__all__, *scenarios.__all__, *spaces.__all__]
