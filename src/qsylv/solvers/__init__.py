"""Solver hierarchy for Sylvester-type quaternion matrix systems."""

from .families import (CASCADE_EPS, DEFAULT_TOL, Condition, FreeParam,
                       Inconsistent, LinearSolutionFamily, RankCondition,
                       SolvabilityReport, cascade_floor)
from .basic import (PairInstance, check_pair, solve_left, solve_pair,
                    solve_right)
from .two_term import TwoTermInstance, check_two_term, solve_two_term
from .master import (MASTER_PARAM_NAMES, MasterInstance, MasterSolution,
                     check_master, solve_master)
from .specials import (FiveTermInstance, MixedInstance, ThreeTermInstance,
                       check_five_term, check_mixed, check_three_term,
                       solve_five_term, solve_mixed_system,
                       solve_three_term_system)

__all__ = [
    "Condition", "RankCondition", "SolvabilityReport", "FreeParam",
    "Inconsistent", "LinearSolutionFamily", "DEFAULT_TOL", "CASCADE_EPS",
    "cascade_floor",
    "PairInstance", "check_pair", "solve_left", "solve_right", "solve_pair",
    "TwoTermInstance", "check_two_term", "solve_two_term",
    "FiveTermInstance", "check_five_term", "solve_five_term",
    "MasterInstance", "MasterSolution", "MASTER_PARAM_NAMES", "check_master",
    "solve_master",
    "ThreeTermInstance", "check_three_term", "solve_three_term_system",
    "MixedInstance", "check_mixed", "solve_mixed_system",
]
