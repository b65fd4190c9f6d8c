"""Sparsity accounting, simulation, baselines, and the exhaustive
minimum-support search that cross-checks the L1 route on small instances.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
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
# l0_oracle decides at most this many supports of one size at a time.
_CHUNK = 4096


class Supports(Sequence):
    """Supports of one size, read as tuples of atom indices.

    Kept as one read-only (count, size) integer array, ``array``, rather
    than one tuple per support; each item is built on access as a tuple
    of Python ints.  Compares equal to a list of the same tuples.  An
    index is below EXHAUSTIVE_BOUND, so one byte holds it.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        array = np.array(array, dtype=np.uint8, ndmin=2)
        array.flags.writeable = False
        self.array = array

    def __len__(self) -> int:
        return len(self.array)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Supports(self.array[i])
        return tuple(self.array[i].tolist())

    def __iter__(self):
        return map(tuple, self.array.tolist())

    def __eq__(self, other):
        if isinstance(other, Supports):
            other = list(other)
        return list(self) == other if isinstance(other, list) else NotImplemented

    def __repr__(self) -> str:
        return f"Supports({list(self)!r})"


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
    """Comparison of the polished L1 support against the exhaustive minimum.

    The L1 side's objective and unpolished support are in the
    ``SolveReport`` that ``verify_equivalence`` returns with it.
    """

    l1_support: int
    l0_support: int
    l0_certified_objective: float
    agree: bool
    witness_supports: Supports


@dataclass(frozen=True)
class L0OracleResult:
    """Minimum-cardinality feasible support data from exhaustive search."""

    min_support: int
    witness_supports: Supports
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
    """Phase-1 LP: does some |U| <= 1 on the support hit the target?

    For a support whose columns are dependent, which ``l0_oracle`` cannot
    decide by least squares: feasible when the least L1 miss is at most
    feas_tol.  A non-optimal LP raises HandsOffError.
    """
    n, k = dp.n, len(support)
    target = -dp.c
    Phi_S = dp.Phi[:, list(support)]
    tmax = max(1.0, float(np.max(np.abs(target))) + float(np.max(np.abs(Phi_S).sum(axis=1))))
    # min sum |t| subject to Phi_S U + t == target, |U| <= 1, |t| <= tmax,
    # posed in the unit box through t = tmax t'
    lp = L1Program(
        M=np.hstack([Phi_S, tmax * np.eye(n)]),
        b=target,
        w=np.concatenate([np.zeros(k), np.full(n, tmax)]),
    )
    result = solve_ip(lp, tol=tol)
    if result.status is not SolveStatus.OPTIMAL:
        raise HandsOffError(f"phase-1 LP for support {support}: {result.status.value}")
    return result.objective <= feas_tol


def _support_fuel(dp: DiscretizedPlant, support: tuple[int, ...],
                  lam: np.ndarray, tol: float) -> float:
    """Minimum weighted fuel on a feasible support with dependent columns.

    The LP of ``l0_oracle``'s witnesses that least squares cannot price.
    A non-optimal LP raises HandsOffError.
    """
    idx = list(support)
    result = solve_ip(L1Program(M=dp.Phi[:, idx], b=-dp.c, w=dp.h * lam[idx]), tol=tol)
    if result.status is not SolveStatus.OPTIMAL:
        raise HandsOffError(f"fuel LP for support {support}: {result.status.value}")
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

    The supports of one size are decided together, up to _CHUNK of them
    at a time.  A support whose absolute row sums cannot reach the target
    is rejected outright.  Independent columns admit at most one control,
    the least-squares one, which one SVD of the stacked columns gives for
    the whole chunk: the support is feasible when that control, clipped
    to the box, misses by at most feas_tol in the L1 measure, and its
    fuel is priced directly.  (An overdetermined support is consistent
    only to roundoff, and an LP would read that as infeasible.)  Only a
    support with dependent columns goes to the phase-1 and fuel LPs.
    """
    K = dp.Phi.shape[1]
    if K > EXHAUSTIVE_BOUND:
        raise ExhaustiveBoundExceeded(
            f"m*N = {K} exceeds the exhaustive enumeration bound of {EXHAUSTIVE_BOUND}")
    lam = np.tile(np.ones(dp.m) if weights is None else weights, dp.N)
    feas_tol = options.feas_tol * (1.0 + float(np.linalg.norm(dp.c)))
    lp_tol = min(options.opt_tol, 1e-9)
    target = -dp.c
    if np.max(np.abs(target), initial=0.0) <= feas_tol:
        return L0OracleResult(min_support=0, witness_supports=Supports(np.empty((1, 0))),
                              certified_objective=0.0, supports_checked=1)

    n = dp.n
    abs_target = np.abs(target)[:, None]
    abs_Phi = np.abs(dp.Phi)
    cost = dp.h * lam
    checked = 1
    for k in range(1, K + 1):
        combinations = itertools.combinations(range(K), k)
        witnesses, fuels = [], []
        # cap a chunk's stacked columns near 8 MB however large n is
        size = max(1, min(_CHUNK, 2**20 // (n * k)))
        while chunk := list(itertools.islice(combinations, size)):
            checked += len(chunk)
            idx = np.array(chunk, dtype=np.intp)
            idx = idx[~np.any(abs_target > abs_Phi[:, idx].sum(axis=2) + feas_tol, axis=0)]
            feasible = np.zeros(len(idx), dtype=bool)
            fuel = np.zeros(len(idx))
            dependent = np.ones(len(idx), dtype=bool)
            if k <= n and len(idx):
                P = np.moveaxis(dp.Phi[:, idx], 0, 1)
                W, sv, Vt = np.linalg.svd(P, full_matrices=False)
                # lstsq's rank rule at its default rcond
                full = sv[:, -1] > np.finfo(float).eps * max(n, k) * sv[:, 0]
                U = (((target @ W[full]) / sv[full])[:, None, :] @ Vt[full])[:, 0]
                miss = (P[full] @ np.clip(U, -1.0, 1.0)[:, :, None])[:, :, 0] - target
                feasible[full] = np.abs(miss).sum(axis=1) <= feas_tol
                fuel[full] = (cost[idx[full]] * np.abs(U)).sum(axis=1)
                dependent = ~full
            for i in np.flatnonzero(dependent):
                support = tuple(idx[i].tolist())
                if _support_feasible(dp, support, feas_tol, lp_tol):
                    feasible[i] = True
                    fuel[i] = _support_fuel(dp, support, lam, lp_tol)
            witnesses.append(idx[feasible])
            fuels.append(fuel[feasible])
        witnesses = np.concatenate(witnesses)
        if len(witnesses):
            return L0OracleResult(
                min_support=k,
                witness_supports=Supports(witnesses),
                certified_objective=float(np.concatenate(fuels).min()),
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
        l0_certified_objective=oracle.certified_objective,
        agree=agree,
        witness_supports=oracle.witness_supports,
    )
    return equivalence, report
