"""Dense quaternion matrix computations and Sylvester-type equation solvers.

One driver, :func:`check` and :func:`solve`, decides every system of the
hierarchy.  The per-system spellings are bound here and nowhere else:
fifteen are the driver itself, and seven build the instance from loose
matrices first.
"""

from .qcore import ETAS, Quaternion, quat_eta_conj, quat_mul
from .qmatrix import DimensionError, QMatrix, block, hstack, vstack
from .decomp import NumericError, PinvBundle, pinv, rank, singular_values
from .solvers.families import (DEFAULT_TOL, Inconsistent,
                               LinearSolutionFamily, SolvabilityReport, check,
                               solve)
from .solvers.basic import PairInstance
from .solvers.two_term import TwoTermInstance
from .solvers.master import MasterInstance, MasterSolution
from .solvers.specials import (FiveTermInstance, MixedInstance,
                               ThreeTermInstance)
from .eta import (EtaFullInstance, EtaMixedInstance, EtaThreeInstance,
                  EtaTwoInstance, symmetrize)
from .harness import (DimensionProfile, ResidualReport, gen_consistent,
                      gen_planted, gen_unsolvable, verify_solution)

check_pair = check_master = check
check_five_term = check_three_term = check_mixed = check
check_eta_full = check_eta_three = check_eta_two = check_eta_mixed = check
solve_master = solve_five_term = solve_three_term_system = solve
solve_mixed_system = solve_eta_full = solve_eta_three = solve


def solve_left(a: QMatrix, c: QMatrix, tol: float = DEFAULT_TOL):
    """General solution of A X = C: X = pinv(A) C + L_A U1."""
    return solve(PairInstance(a, c, QMatrix.zeros(c.cols, 0),
                              QMatrix.zeros(a.cols, 0)), tol)


def solve_right(a: QMatrix, c: QMatrix, tol: float = DEFAULT_TOL):
    """General solution of X A = C: X = C pinv(A) + U1 R_A."""
    return solve(PairInstance(QMatrix.zeros(0, c.rows),
                              QMatrix.zeros(0, a.rows), a, c), tol)


def solve_pair(a: QMatrix, c: QMatrix, b: QMatrix, d: QMatrix,
               tol: float = DEFAULT_TOL):
    """General solution of the pair A X = C, X B = D, or Inconsistent."""
    return solve(PairInstance(a, c, b, d), tol)


def check_two_term(c3: QMatrix, d3: QMatrix, c4: QMatrix, d4: QMatrix,
                   e1: QMatrix, tol: float = DEFAULT_TOL) -> SolvabilityReport:
    return check(TwoTermInstance(c3, d3, c4, d4, e1), tol)


def solve_two_term(c3: QMatrix, d3: QMatrix, c4: QMatrix, d4: QMatrix,
                   e1: QMatrix, tol: float = DEFAULT_TOL):
    """General solution (X3, X4) of C3 X3 D3 + C4 X4 D4 = E1, or
    Inconsistent."""
    return solve(TwoTermInstance(c3, d3, c4, d4, e1), tol)


def solve_eta_two(b1: QMatrix, c1: QMatrix, d1: QMatrix, eta: str,
                  tol: float = DEFAULT_TOL):
    """Eta-Hermitian pair (Y, Z) solving B1 Y B1^{eta*} + C1 Z C1^{eta*} = D1,
    or Inconsistent; D1 must be eta-Hermitian."""
    return solve(EtaTwoInstance(eta, b1, c1, d1), tol)


def solve_eta_mixed(a1, c1, b1, d1, a2, a3, d3, eta, tol: float = DEFAULT_TOL):
    """Eta-Hermitian pair (X, Y) for the mixed system, or Inconsistent."""
    return solve(EtaMixedInstance(eta, a1, c1, b1, d1, a2, a3, d3), tol)


__all__ = [
    "ETAS", "Quaternion", "quat_mul", "quat_eta_conj",
    "QMatrix", "DimensionError", "block", "hstack", "vstack",
    "NumericError", "PinvBundle", "pinv", "rank", "singular_values",
    "Inconsistent", "LinearSolutionFamily", "SolvabilityReport",
    "check", "solve",
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
    "DimensionProfile", "ResidualReport", "gen_consistent", "gen_planted",
    "gen_unsolvable", "verify_solution",
]

__version__ = "0.1.0"
