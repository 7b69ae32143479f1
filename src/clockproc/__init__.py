"""Simulation laboratory for rescaled clock processes of random hopping dynamics.

The package simulates a nearest-neighbour random walk on the hypercube whose
waiting times come from a Gaussian random field, aggregates the resulting
clock process into blocks, estimates the convergence conditions that drive
its heavy-tailed limit, samples the limiting pure-jump process directly, and
compares two-time correlation functions against the arcsine law.

The top level re-exports the public names of the modules below, each listed
once, in its module's ``__all__``.
"""

__version__ = "0.1.0"

from .errors import *
from .seeding import *
from .environment import *
from .chain import *
from .parallel import *
from .subordinator import *
from .conditions import *
from .aging import *
from .config import *
from . import aging, chain, conditions, config, environment, errors, parallel, seeding, subordinator

_MODULES = (errors, seeding, environment, chain, parallel, subordinator, conditions, aging, config)

__all__ = ["__version__", *(name for module in _MODULES for name in module.__all__)]
