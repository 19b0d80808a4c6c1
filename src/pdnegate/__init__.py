"""Negations of finite discrete probability distributions.

Implements the Yager, uniform, linear, Tsallis, and involutive negator
families on the probability simplex, together with iterated-negation
orbits, convergence analysis against the uniform distribution, and
contracting/expanding/involutive classification.
"""

from . import analysis, dynamics, errors, negators, simplex
from .errors import *
from .simplex import *
from .negators import *
from .dynamics import *
from .analysis import *

__all__ = [
    *errors.__all__,
    *simplex.__all__,
    *negators.__all__,
    *dynamics.__all__,
    *analysis.__all__,
]
