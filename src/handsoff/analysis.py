"""Sparsity accounting, simulation, baselines, and the exhaustive
minimum-support search that cross-checks the L1 route on small instances.

An entry is zero within the interior point's band ``_BAND``, a rank is
its ``numerical_rank``, and both simulations run one held-input recursion.
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
from .interior_point import _BAND, numerical_rank
from .model import MEMORY_GUARD, ControlProblem, ControlSignal, PlantModel
from .solver import FEAS_TOL, SolveReport, SolveStatus, build_lp, solve_discretized

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
    exceeds ``threshold``, the interior point's band ``_BAND``;
    per_channel_measure applies the same count per channel, which is the
    discrete stand-in for the support measure of each u_i.
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


def sparsity(signal: ControlSignal) -> SparsityReport:
    """Count the active grid slots: those with an entry above ``_BAND``,
    the band within which the interior point's endgame and the crossover
    read an entry as zero.
    """
    active = np.abs(signal.as_steps()) > _BAND
    support = signal.h * int(np.count_nonzero(np.any(active, axis=1)))
    return SparsityReport(
        support_measure=support,
        hands_off_ratio=(signal.T - support) / signal.T,
        per_channel_measure=signal.h * np.count_nonzero(active, axis=0).astype(float),
        threshold=_BAND,
    )


def _zoh_trajectory(Ad: np.ndarray, Bd: np.ndarray, signal: ControlSignal, x0,
                    substeps: int) -> np.ndarray:
    """The N*substeps + 1 states from x0 of x <- Ad x + Bd u[k], taken
    ``substeps`` times in each slot k."""
    x0 = np.asarray(x0, dtype=float).ravel()
    n = Ad.shape[0]
    if x0.size != n:
        raise DimensionMismatch(f"x0 must have length {n}, got {x0.size}")
    traj = np.empty((signal.N * substeps + 1, n))
    traj[0] = x = x0
    for k, u in enumerate(signal.as_steps()):
        bu = Bd @ u
        for i in range(1, substeps + 1):
            traj[k * substeps + i] = x = Ad @ x + bu
    return traj


def simulate_discrete(dp: DiscretizedPlant, signal: ControlSignal,
                      x0: np.ndarray) -> np.ndarray:
    """Run the one-step recursion x[k+1] = Ad x[k] + Bd u[k].

    Returns the (N+1) x n trajectory; the last row is the terminal state.
    """
    if signal.m != dp.m or signal.N != dp.N:
        raise DimensionMismatch(
            f"signal is ({signal.N}, {signal.m}), plant expects ({dp.N}, {dp.m})")
    return _zoh_trajectory(dp.Ad, dp.Bd, signal, x0, 1)


def check_fine_grid(N: int, substeps: int, n: int) -> None:
    """Raise ProblemTooLarge if the fine trajectory's floats pass the memory guard.

    N * substeps fine steps of an n-state plant hold (N * substeps + 1) * n.
    """
    floats = (N * substeps + 1) * n
    if floats > MEMORY_GUARD:
        raise ProblemTooLarge(
            f"(N*substeps + 1)*n = {floats} exceeds the memory guard of {MEMORY_GUARD}")


def simulate_continuous(plant: PlantModel, signal: ControlSignal,
                        x0: np.ndarray, substeps: int) -> np.ndarray:
    """Integrate the continuous-time plant under the held control.

    Each slot is advanced with the exact flow at step h/substeps, which
    is exact for an LTI plant under a held input; at one substep this is
    ``simulate_discrete`` on the plant's own discretization, bit for bit.
    Returns the fine trajectory with N*substeps + 1 rows; more floats than
    the memory guard raises ProblemTooLarge before anything is allocated.
    """
    if int(substeps) != substeps or substeps < 1:
        raise DimensionMismatch(f"substeps must be a positive integer, got {substeps}")
    substeps = int(substeps)
    check_fine_grid(signal.N, substeps, plant.n)
    if signal.m != plant.m:
        raise DimensionMismatch(
            f"signal has {signal.m} channels, plant has {plant.m}")
    Adf, Bdf = zoh_discretize(plant, signal.h / substeps)
    return _zoh_trajectory(Adf, Bdf, signal, x0, substeps)


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


def _vertex_fuel(P: np.ndarray, cost: np.ndarray, r: int, target: np.ndarray,
                 feas_tol: float) -> np.ndarray:
    """Least accepted fuel of each support of ``P``, over its vertex candidates.

    ``P`` stacks the supports' columns, (count, n, k), all of rank r < k,
    and ``cost`` their atoms' h * lambda; ``l0_oracle`` states the rule.
    Returns inf where no candidate is accepted.
    """
    count, n, k = P.shape
    fuel = np.full(count, np.inf)
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=r)))
    for basis in itertools.combinations(range(k), r):
        rest = [j for j in range(k) if j not in basis]
        W, sv, Vt = np.linalg.svd(P[:, :, basis], full_matrices=False)
        ok = np.flatnonzero(numerical_rank(sv, n, r) == r)
        W, sv, Vt, cols, price = W[ok], sv[ok], Vt[ok], P[ok], cost[ok]
        fixed = cols[:, :, rest]
        u = np.empty((len(ok), k))
        for sigma in signs:
            y = W @ ((Vt @ (price[:, basis] * sigma)[:, :, None]) / sv[:, :, None])
            u[:, rest] = np.sign(np.swapaxes(fixed, 1, 2) @ y)[:, :, 0]
            rhs = target - (fixed @ u[:, rest, None])[:, :, 0]
            u[:, basis] = (((rhs[:, None, :] @ W) / sv[:, None, :]) @ Vt)[:, 0]
            miss = (cols @ np.clip(u, -1.0, 1.0)[:, :, None])[:, :, 0] - target
            accepted = np.abs(miss).sum(axis=1) <= feas_tol
            best = ok[accepted]
            fuel[best] = np.minimum(fuel[best], (price[accepted] * np.abs(u[accepted])).sum(axis=1))
    return fuel


def l0_oracle(dp: DiscretizedPlant, weights: np.ndarray | None = None) -> L0OracleResult:
    """Exhaustive minimum-support search over channel-time atoms.

    Enumerates supports by increasing cardinality; an atom is one
    channel-slot pair, i.e. one column of Phi.  Stops at the first
    cardinality admitting a feasible control, returns every witness
    support of that size, and certifies the best weighted fuel value
    attainable on any witness.  ``weights`` holds one weight per channel
    (default 1 each), checked as ``validate_problem`` checks them.

    The supports of one size are decided together, up to _CHUNK at a
    time, with no LP.  A support whose absolute row sums cannot reach the
    target is rejected outright; one SVD of the stacked columns gives the
    rank r of every other.  A support of k atoms is feasible exactly when
    one of its vertices u is: clipped to the box, u misses the target by
    at most FEAS_TOL (1 + |c|) in the L1 measure, and its fuel is
    h * lambda @ |u|.  For r = k the one candidate is the least-squares
    control, from the same SVD.  For r < k each r-subset F of independent columns and each
    sign vector sigma in {-1, +1}^r give one: the basis costate
    y = pinv(Phi_F^T)(h lambda_F sigma) fixes every other atom j at
    sign(Phi_j^T y), the maximum principle's sign law, and F takes the
    least-squares rest.  This is exact under two preconditions.  k is the
    minimum cardinality: no feasible point then has a zero entry, so the
    fuel LP on a witness has an optimal basis F whose other atoms sit at
    +-1, where |Phi_j^T y| >= h lambda_j.  Every weight is positive, so
    that bound is above 0 and fixes the sign.
    """
    K = dp.Phi.shape[1]
    if K > EXHAUSTIVE_BOUND:
        raise ExhaustiveBoundExceeded(
            f"m*N = {K} exceeds the exhaustive enumeration bound of {EXHAUSTIVE_BOUND}")
    lp = build_lp(dp, np.ones(dp.m) if weights is None else weights)
    cost, target = lp.w, lp.b
    feas_tol = FEAS_TOL * (1.0 + float(np.linalg.norm(dp.c)))
    if np.max(np.abs(target), initial=0.0) <= feas_tol:
        return L0OracleResult(min_support=0, witness_supports=Supports(np.empty((1, 0))),
                              certified_objective=0.0, supports_checked=1)

    n = dp.n
    abs_target = np.abs(target)[:, None]
    abs_Phi = np.abs(dp.Phi)
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
            fuel = np.full(len(idx), np.inf)
            if len(idx):
                P = np.moveaxis(dp.Phi[:, idx], 0, 1)
                W, sv, Vt = np.linalg.svd(P, full_matrices=False)
                rank = numerical_rank(sv, n, k)
                full = rank == k
                U = (((target @ W[full]) / sv[full])[:, None, :] @ Vt[full])[:, 0]
                miss = (P[full] @ np.clip(U, -1.0, 1.0)[:, :, None])[:, :, 0] - target
                fuel[full] = np.where(np.abs(miss).sum(axis=1) <= feas_tol,
                                      (cost[idx[full]] * np.abs(U)).sum(axis=1), np.inf)
                for r in np.unique(rank[~full]).tolist():
                    part = np.flatnonzero(rank == r)
                    fuel[part] = _vertex_fuel(P[part], cost[idx[part]], r, target, feas_tol)
            feasible = fuel < np.inf
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


def verify_equivalence(problem: ControlProblem, *,
                       polish: bool = True) -> tuple[EquivalenceReport, SolveReport]:
    """Run the exhaustive oracle, solve, and compare support cardinalities.

    The oracle runs first, so an instance past ``EXHAUSTIVE_BOUND`` or
    with no feasible control raises its typed error before any solve.
    The verdict is cardinality equality plus membership of the reported
    support in the minimal-cardinality feasible family; solution identity
    is deliberately not compared since ties are common.  The support is
    the entries above ``_BAND``, and ``polish`` is ``solve``'s.  Returns
    the report pair (equivalence, solve).
    """
    dp = build_reachability(problem)
    oracle = l0_oracle(dp, weights=problem.weights)
    report = solve_discretized(dp, problem.weights, polish=polish)
    if report.status is not SolveStatus.OPTIMAL:
        raise HandsOffError(
            f"equivalence check needs an optimal solve, got {report.status.value}: "
            f"{report.reason}")

    support_set = tuple(np.flatnonzero(np.abs(report.signal.U) > _BAND).tolist())
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
