"""Wavefront tracking for a 2x2 triangular system with runtime verification
of the transversal and quadratic interaction functionals."""

from .flux import make_flux
from .wavefield import StepFunction
from .simulator import run
from .verifier import run_verifier
from .scenario import ScenarioConfig, batch, run_scenario

__version__ = "0.1.0"
