"""Sparsity accounting, simulation, baselines, and the exhaustive
minimum-support search that cross-checks the L1 route on small instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .discretize import DiscretizedPlant, build_reachability, zoh_discretize
from .errors import (
    DimensionMismatch,
    ExhaustiveBoundExceeded,
    HandsOffError,
    InfeasibleProblem,
    ProblemTooLarge,
    RankDeficient,
)
from .interior_point import L1Program, SolveStatus, solve_ip
from .model import MEMORY_GUARD, ControlProblem, ControlSignal, PlantModel
from .solver import SolveReport, SolverOptions, solve_discretized

# Exhaustive support enumeration is capped at this many atoms.
EXHAUSTIVE_BOUND = 24


@dataclass(frozen=True)
class SparsityReport:
    """Support accounting for a piecewise-constant control.

    support_measure is h times the number of grid slots where any channel
    exceeds the threshold; per_channel_measure applies the same count per
    channel, which is the discrete stand-in for the support measure of
    each u_i.
    """

    support_measure: float
    hands_off_ratio: float
    per_channel_measure: np.ndarray
    threshold: float


@dataclass(frozen=True)
class EquivalenceReport:
    """Comparison of the polished L1 support against the exhaustive minimum."""

    l1_support: int
    l0_support: int
    l1_objective: float
    l0_certified_objective: float
    agree: bool
    witness_supports: list[tuple[int, ...]]
    l1_support_unpolished: int
    polish_applied: bool


@dataclass(frozen=True)
class L0OracleResult:
    """Minimum-cardinality feasible support data from exhaustive search."""

    min_support: int
    witness_supports: list[tuple[int, ...]]
    certified_objective: float
    supports_checked: int


def sparsity(signal: ControlSignal, threshold: float = 1e-6) -> SparsityReport:
    """Count active grid slots at the given threshold."""
    if not threshold > 0:
        raise HandsOffError(f"threshold must be positive, got {threshold}")
    steps = np.abs(signal.as_steps())
    active_slots = np.any(steps > threshold, axis=1)
    support = signal.h * int(np.count_nonzero(active_slots))
    T = signal.T
    per_channel = signal.h * np.count_nonzero(steps > threshold, axis=0).astype(float)
    return SparsityReport(
        support_measure=support,
        hands_off_ratio=(T - support) / T,
        per_channel_measure=per_channel,
        threshold=threshold,
    )


def simulate_discrete(dp: DiscretizedPlant, signal: ControlSignal,
                      x0: np.ndarray) -> np.ndarray:
    """Run the one-step recursion x[k+1] = Ad x[k] + Bd u[k].

    Returns the (N+1) x n trajectory; the last row is the terminal state.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    if signal.m != dp.m or signal.N != dp.N:
        raise DimensionMismatch(
            f"signal is ({signal.N}, {signal.m}), plant expects ({dp.N}, {dp.m})")
    if x0.size != dp.n:
        raise DimensionMismatch(f"x0 must have length {dp.n}, got {x0.size}")
    steps = signal.as_steps()
    traj = np.empty((dp.N + 1, dp.n))
    traj[0] = x0
    x = x0
    for k in range(dp.N):
        x = dp.Ad @ x + dp.Bd @ steps[k]
        traj[k + 1] = x
    return traj


def check_fine_grid(N: int, substeps: int) -> None:
    """Raise ProblemTooLarge if N * substeps fine steps pass the memory guard."""
    if N * substeps > MEMORY_GUARD:
        raise ProblemTooLarge(
            f"N*substeps = {N * substeps} exceeds the memory guard of {MEMORY_GUARD}")


def simulate_continuous(plant: PlantModel, signal: ControlSignal,
                        x0: np.ndarray, substeps: int) -> np.ndarray:
    """Integrate the continuous-time plant under the held control.

    Each slot is advanced with the exact flow at step h/substeps, which
    is exact for an LTI plant under a held input.  Returns the fine
    trajectory with N*substeps + 1 rows; more than the memory guard
    raises ProblemTooLarge before anything is allocated.
    """
    if int(substeps) != substeps or substeps < 1:
        raise DimensionMismatch(f"substeps must be a positive integer, got {substeps}")
    substeps = int(substeps)
    check_fine_grid(signal.N, substeps)
    x0 = np.asarray(x0, dtype=float).ravel()
    n = plant.n
    if x0.size != n:
        raise DimensionMismatch(f"x0 must have length {n}, got {x0.size}")
    if signal.m != plant.m:
        raise DimensionMismatch(
            f"signal has {signal.m} channels, plant has {plant.m}")
    steps = signal.as_steps()
    Adf, Bdf = zoh_discretize(plant, signal.h / substeps)
    traj = np.empty((signal.N * substeps + 1, n))
    traj[0] = x0
    x = x0
    row = 1
    for k in range(signal.N):
        bu = Bdf @ steps[k]
        for _ in range(substeps):
            x = Adf @ x + bu
            traj[row] = x
            row += 1
    return traj


def min_energy_baseline(dp: DiscretizedPlant) -> tuple[ControlSignal, bool]:
    """Least-squares minimum-norm control, as a density contrast.

    Returns (signal, bound_violation); the flag is set when the baseline
    exceeds the unit magnitude bound, in which case it is inadmissible
    but still useful for comparison.  Raises RankDeficient when
    Phi @ Phi^T is singular to working precision.
    """
    try:
        L = np.linalg.cholesky(dp.Phi @ dp.Phi.T)
        U = dp.Phi.T @ np.linalg.solve(L.T, np.linalg.solve(L, -dp.c))
    except np.linalg.LinAlgError as exc:
        raise RankDeficient("reachability rows are linearly dependent") from exc
    if not np.all(np.isfinite(U)):
        raise RankDeficient("normal equations produced non-finite values")
    residual = float(np.linalg.norm(dp.Phi @ U + dp.c))
    if residual > 1e-8 * (1.0 + float(np.linalg.norm(dp.c))):
        raise RankDeficient(
            f"normal equations residual {residual:.3e} exceeds working precision")
    violation = bool(np.max(np.abs(U), initial=0.0) > 1.0)
    return ControlSignal(U=U, h=dp.h, m=dp.m, N=dp.N), violation


def _support_feasible(dp: DiscretizedPlant, support: tuple[int, ...],
                      feas_tol: float, tol: float) -> bool:
    """Does some |U| <= 1 on the support hit the target?

    Independent columns admit at most one control, the least-squares one;
    clipped to the box, it must miss by at most feas_tol in the phase-1
    L1 measure.  Only a rank-deficient support solves the phase-1 LP.
    """
    n = dp.n
    target = -dp.c
    if not support:
        return bool(np.max(np.abs(target), initial=0.0) <= feas_tol)
    Phi_S = dp.Phi[:, list(support)]
    # quick reject: a row whose restricted absolute sum cannot reach the
    # target magnitude rules the support out without an LP
    if np.any(np.abs(target) > np.abs(Phi_S).sum(axis=1) + feas_tol):
        return False
    k = len(support)
    U, _, rank, _ = np.linalg.lstsq(Phi_S, target, rcond=None)
    if rank == k:
        return float(np.abs(Phi_S @ np.clip(U, -1.0, 1.0) - target).sum()) <= feas_tol
    tmax = max(1.0, float(np.max(np.abs(target))) + float(np.max(np.abs(Phi_S).sum(axis=1))))
    # min sum |t| subject to Phi_S U + t == target, |U| <= 1
    lp = L1Program(
        M=np.hstack([Phi_S, np.eye(n)]),
        b=target,
        w=np.concatenate([np.zeros(k), np.ones(n)]),
        ub=np.concatenate([np.ones(k), np.full(n, tmax)]),
    )
    result = solve_ip(lp, tol=tol)
    if result.status is not SolveStatus.OPTIMAL:
        raise HandsOffError(f"phase-1 LP for support {support}: {result.status.value}")
    return result.objective <= feas_tol


def _support_fuel(dp: DiscretizedPlant, support: tuple[int, ...],
                  lam: np.ndarray, tol: float) -> float:
    """Minimum weighted fuel attainable on a fixed feasible support.

    Independent columns allow exactly one control on the support, which
    is priced directly; only a rank-deficient support needs an LP.  (An
    overdetermined support is consistent only to roundoff, and the LP
    would read that as infeasible.)
    """
    if not support:
        return 0.0
    idx = list(support)
    Phi_S = dp.Phi[:, idx]
    k = len(idx)
    cost = dp.h * lam[idx]
    U, _, rank, _ = np.linalg.lstsq(Phi_S, -dp.c, rcond=None)
    if rank == k:
        return float(cost @ np.abs(U))
    result = solve_ip(L1Program(M=Phi_S, b=-dp.c, w=cost, ub=1.0), tol=tol)
    if result.status is not SolveStatus.OPTIMAL:
        return float("inf")
    return result.objective


def l0_oracle(dp: DiscretizedPlant, weights: np.ndarray | None = None,
              options: SolverOptions = SolverOptions()) -> L0OracleResult:
    """Exhaustive minimum-support search over channel-time atoms.

    Enumerates supports by increasing cardinality; an atom is one
    channel-slot pair, i.e. one column of Phi.  Stops at the first
    cardinality admitting a feasible control, returns every witness
    support of that size, and certifies the best weighted fuel value
    attainable on any witness.  ``weights`` holds one weight per channel
    (default 1 each).
    """
    K = dp.Phi.shape[1]
    if K > EXHAUSTIVE_BOUND:
        raise ExhaustiveBoundExceeded(
            f"m*N = {K} exceeds the exhaustive enumeration bound of {EXHAUSTIVE_BOUND}")
    lam = np.tile(np.ones(dp.m) if weights is None else weights, dp.N)
    feas_tol = options.feas_tol * (1.0 + float(np.linalg.norm(dp.c)))
    lp_tol = min(options.opt_tol, 1e-9)

    checked = 0
    for k in range(K + 1):
        witnesses = []
        for support in itertools.combinations(range(K), k):
            checked += 1
            if _support_feasible(dp, support, feas_tol, lp_tol):
                witnesses.append(support)
        if witnesses:
            best = min(_support_fuel(dp, s, lam, lp_tol) for s in witnesses)
            return L0OracleResult(
                min_support=k,
                witness_supports=witnesses,
                certified_objective=best,
                supports_checked=checked,
            )
    raise InfeasibleProblem(
        f"no support of size <= {K} admits a feasible control")


def verify_equivalence(problem: ControlProblem,
                       options: SolverOptions = SolverOptions(),
                       ) -> tuple[EquivalenceReport, SolveReport]:
    """Solve, run the exhaustive oracle, and compare support cardinalities.

    The verdict is cardinality equality plus membership of the reported
    support in the minimal-cardinality feasible family; solution identity
    is deliberately not compared since ties are common.  Returns the
    report pair (equivalence, solve).
    """
    K = problem.plant.m * int(problem.N)
    if K > EXHAUSTIVE_BOUND:
        raise ExhaustiveBoundExceeded(
            f"m*N = {K} exceeds the exhaustive enumeration bound of {EXHAUSTIVE_BOUND}")
    dp = build_reachability(problem)
    report = solve_discretized(dp, problem.weights, options)
    if report.status is not SolveStatus.OPTIMAL:
        raise HandsOffError(
            f"equivalence check needs an optimal solve, got {report.status.value}")
    oracle = l0_oracle(dp, weights=problem.weights, options=options)

    thr = options.sparsity_threshold
    support_set = tuple(np.flatnonzero(np.abs(report.signal.U) > thr).tolist())
    l1_support = len(support_set)
    agree = (l1_support == oracle.min_support
             and support_set in set(oracle.witness_supports))
    equivalence = EquivalenceReport(
        l1_support=l1_support,
        l0_support=oracle.min_support,
        l1_objective=report.objective,
        l0_certified_objective=oracle.certified_objective,
        agree=agree,
        witness_supports=oracle.witness_supports,
        l1_support_unpolished=report.unpolished_support,
        polish_applied=report.polish_applied,
    )
    return equivalence, report
