"""Solver hierarchy for Sylvester-type quaternion matrix systems."""

from .families import (CASCADE_EPS, DEFAULT_TOL, Condition, FreeParam,
                       Inconsistent, LinearSolutionFamily, RankCondition,
                       SolvabilityReport, cascade_floor)
from .basic import PairInstance
from .two_term import TwoTermInstance
from .master import MASTER_PARAM_NAMES, MasterInstance, MasterSolution
from .specials import FiveTermInstance, MixedInstance, ThreeTermInstance

__all__ = [
    "Condition", "RankCondition", "SolvabilityReport", "FreeParam",
    "Inconsistent", "LinearSolutionFamily", "DEFAULT_TOL", "CASCADE_EPS",
    "cascade_floor",
    "PairInstance", "TwoTermInstance", "FiveTermInstance", "MasterInstance",
    "MasterSolution", "MASTER_PARAM_NAMES", "ThreeTermInstance",
    "MixedInstance",
]
