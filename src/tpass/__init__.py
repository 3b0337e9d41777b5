"""Solver and verification toolkit for two-person additively separable
sum (TPASS) games: LP-based equilibrium computation with certificates,
support-enumeration ground truth, and recognition of separable structure
inside arbitrary bimatrix games."""

from .decompose import (
    BimatrixGame,
    DecompositionResult,
    compose,
    decompose,
    is_separable_sum,
)
from .equilibrium import (
    EquilibriumSolution,
    build_dual_lp,
    build_joint_lp,
    build_primal_lp,
    check_joint_lp,
    solve_equilibrium,
    solve_joint_lp,
    verify_lp_pair,
)
from .errors import (
    CertificationFailure,
    InputError,
    NotSeparable,
    SolverFailure,
    TpassError,
)
from .game import (
    EquilibriumReport,
    MixedStrategy,
    TpassGame,
    build_payoff_matrices,
    is_equilibrium,
    payoff_col,
    payoff_row,
    pure_payoffs,
    random_tpass,
)
from .gamefile import dumps_game, load_game, parse_game, save_game
from .lp import (
    LpModel,
    LpSolution,
    check_complementary_slackness,
    dualize,
    solve,
)
from .oracle import cross_check, enumerate_equilibria

__version__ = "0.1.0"

__all__ = [
    "BimatrixGame",
    "CertificationFailure",
    "DecompositionResult",
    "EquilibriumReport",
    "EquilibriumSolution",
    "InputError",
    "LpModel",
    "LpSolution",
    "MixedStrategy",
    "NotSeparable",
    "SolverFailure",
    "TpassError",
    "TpassGame",
    "build_dual_lp",
    "build_joint_lp",
    "build_payoff_matrices",
    "build_primal_lp",
    "check_complementary_slackness",
    "check_joint_lp",
    "compose",
    "cross_check",
    "decompose",
    "dualize",
    "dumps_game",
    "enumerate_equilibria",
    "is_equilibrium",
    "is_separable_sum",
    "load_game",
    "parse_game",
    "payoff_col",
    "payoff_row",
    "pure_payoffs",
    "random_tpass",
    "save_game",
    "solve",
    "solve_equilibrium",
    "solve_joint_lp",
    "verify_lp_pair",
]
