"""Energy-stable variable-step IMEX BDF2 solver for the periodic Cahn-Hilliard equation.

The package binds the names of the README's library quick start; every
other name is imported from its module (chsolver.stepper.advance,
chsolver.timestep.kernel_matrices, ...).
"""

from .policies import AdaptiveStep, run_with_policy
from .scenarios import ic_random
from .spectral import Grid
from .stepper import init_state

__version__ = "0.1.0"
