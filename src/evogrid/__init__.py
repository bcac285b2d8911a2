"""Finite-dimensional operator algebras on product grids.

Block matrix algebras with their automorphisms and normal functionals,
finite evolution spaces of grid-indexed contractions, diagonal pure
representations carrying projection-valued measures, and evolution
unitaries built from action weights or Lagrangian densities.  Every
structural law ships as an executable check; see the `suites` module and
the `evogrid` command line tool.

The package exports the `__all__` names of each module below, so every
public name is listed once, in the module that defines it.
"""

from . import algebra, dynamics, errors, evolution, lagrangian, representation, rng, scenario, suites
from .algebra import *  # noqa: F403
from .dynamics import *  # noqa: F403
from .errors import *  # noqa: F403
from .evolution import *  # noqa: F403
from .lagrangian import *  # noqa: F403
from .representation import *  # noqa: F403
from .rng import *  # noqa: F403
from .scenario import *  # noqa: F403
from .suites import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (algebra, dynamics, errors, evolution, lagrangian, representation, rng, scenario, suites)
    for name in module.__all__
] + ["__version__"]
