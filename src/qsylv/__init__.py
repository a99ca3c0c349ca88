"""Dense quaternion matrix computations and Sylvester-type equation solvers."""

from .qcore import ETAS, Quaternion, quat_eta_conj, quat_mul
from .qmatrix import DimensionError, QMatrix, block, hstack, vstack
from .decomp import NumericError, PinvBundle, pinv, rank, singular_values
from .solvers import (FiveTermInstance, Inconsistent, LinearSolutionFamily,
                      MasterInstance, MasterSolution, MixedInstance,
                      PairInstance, SolvabilityReport, ThreeTermInstance,
                      TwoTermInstance, check_five_term, check_master,
                      check_mixed, check_pair, check_three_term,
                      check_two_term, solve_five_term, solve_left,
                      solve_master, solve_mixed_system, solve_pair,
                      solve_right, solve_three_term_system, solve_two_term)
from .eta import (EtaFullInstance, EtaMixedInstance, EtaThreeInstance,
                  EtaTwoInstance, check_eta_full, check_eta_mixed,
                  check_eta_three, check_eta_two, solve_eta_full,
                  solve_eta_mixed, solve_eta_three, solve_eta_two,
                  symmetrize)
from .harness import (DimensionProfile, ResidualReport, gen_consistent,
                      gen_inconsistent, gen_planted, gen_unsolvable,
                      verify_solution)

__all__ = [
    "ETAS", "Quaternion", "quat_mul", "quat_eta_conj",
    "QMatrix", "DimensionError", "block", "hstack", "vstack",
    "NumericError", "PinvBundle", "pinv", "rank", "singular_values",
    "Inconsistent", "LinearSolutionFamily", "SolvabilityReport",
    "PairInstance", "check_pair", "solve_left", "solve_right", "solve_pair",
    "TwoTermInstance", "check_two_term", "solve_two_term",
    "FiveTermInstance", "check_five_term", "solve_five_term",
    "MasterInstance", "MasterSolution", "check_master", "solve_master",
    "ThreeTermInstance", "check_three_term", "solve_three_term_system",
    "MixedInstance", "check_mixed", "solve_mixed_system",
    "EtaFullInstance", "EtaThreeInstance", "EtaTwoInstance",
    "EtaMixedInstance", "check_eta_full", "check_eta_three",
    "check_eta_two", "check_eta_mixed", "solve_eta_full", "solve_eta_three",
    "solve_eta_two", "solve_eta_mixed", "symmetrize",
    "DimensionProfile", "ResidualReport", "gen_consistent",
    "gen_inconsistent", "gen_planted", "gen_unsolvable", "verify_solution",
]

__version__ = "0.1.0"
