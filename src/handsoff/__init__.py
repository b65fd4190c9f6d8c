"""Sparse minimum-fuel (maximum hands-off) controls for LTI plants.

The horizon is divided into N slots with a held control; the resulting
L1 problem is an LP solved by an interior-point method with a vertex
crossover, so the returned control is both fuel-optimal and sparse.
"""

from .analysis import (
    EquivalenceReport,
    L0OracleResult,
    SparsityReport,
    l0_oracle,
    min_energy_baseline,
    simulate_continuous,
    simulate_discrete,
    sparsity,
    verify_equivalence,
)
from .discretize import (
    DiscretizedPlant,
    build_reachability,
    matrix_exponential,
    zoh_discretize,
)
from .errors import (
    DimensionMismatch,
    ExhaustiveBoundExceeded,
    HandsOffError,
    InfeasibleProblem,
    LengthMismatch,
    NonFiniteInput,
    NonpositiveHorizon,
    NonpositiveWeight,
    ParseError,
    ProblemTooLarge,
    RankDeficient,
)
from .interior_point import IPResult, L1Program, SolveStatus, solve_ip
from .model import (
    ControlProblem,
    ControlSignal,
    PlantModel,
    read_problem,
    validate_problem,
    write_problem,
    write_signal,
)
from .solver import (
    SolveReport,
    build_lp,
    polish_to_vertex,
    recompute_objective,
    solve,
    solve_discretized,
)

__version__ = "0.1.0"

__all__ = [
    "ControlProblem",
    "ControlSignal",
    "DimensionMismatch",
    "DiscretizedPlant",
    "EquivalenceReport",
    "ExhaustiveBoundExceeded",
    "HandsOffError",
    "InfeasibleProblem",
    "IPResult",
    "L0OracleResult",
    "L1Program",
    "LengthMismatch",
    "NonFiniteInput",
    "NonpositiveHorizon",
    "NonpositiveWeight",
    "ParseError",
    "PlantModel",
    "ProblemTooLarge",
    "RankDeficient",
    "SolveReport",
    "SolveStatus",
    "SparsityReport",
    "build_lp",
    "build_reachability",
    "l0_oracle",
    "matrix_exponential",
    "min_energy_baseline",
    "polish_to_vertex",
    "read_problem",
    "recompute_objective",
    "simulate_continuous",
    "simulate_discrete",
    "solve",
    "solve_discretized",
    "solve_ip",
    "sparsity",
    "validate_problem",
    "verify_equivalence",
    "write_problem",
    "write_signal",
    "zoh_discretize",
]
