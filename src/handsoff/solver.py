"""Pipeline from a control problem to a sparse minimum-fuel control.

The finite-dimensional program
    minimize    h * sum_k sum_i lambda_i |u_i[k]|
    subject to  ||U||_inf <= 1,   c + Phi @ U == 0,
is handed to the interior-point engine as one weighted L1 program in the
unit box.  Interior-point methods land in the relative interior of the
optimal face, its least sparse point, so a purification crossover (Megiddo
1991) then steps along null directions of the fractional columns of Phi
to a vertex of that face: every entry in {-1, 0, +1} except at most n,
the discrete bang-off-bang control.

The optimum touches few columns of Phi: by the maximum principle a slot
is active only where the costate clears the dead zone,
|Phi_j^T y| >= h lambda_j.  A program with more than ``_WORKING_SET``
columns is therefore solved by column generation (Desrosiers & Lubbecke,
"A Primer in Column Generation", 2005).  The working set starts from
every r-th slot, r = ceil(m N / _WORKING_SET), with all its channels and
the last slot.  Each round solves the program restricted to the set and
prices every column with one Phi^T y: the reduced cost |Phi_j^T y| - w_j
is the dead-zone law, and
    D = b @ y - sum_j (|Phi_j^T y| - w_j)_+
over all columns bounds the full optimum from below for any y.  The
loop stops once the restricted primal P, which is feasible for the full
program, is within ``opt_tol * (1 + |P|)`` of D; otherwise the columns
with the largest relative reduced cost join the set.  An infeasible
round's Farkas ray certifies the full program when
b @ y > sum_j |Phi_j^T y| over all columns; otherwise the columns
with the largest |Phi_j^T y| join.  The crossover runs on the last
round's program.  On this path the reported ``lp_objective`` and
``dual_objective`` are P and D.  Up to ``_WORKING_SET`` columns r = 1:
the one round is the full program with nothing to price, and the pair
is the interior point's own certified primal/dual values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretize import DiscretizedPlant, build_reachability, feasibility_radius
from .errors import DimensionMismatch
from .interior_point import IPResult, L1Program, SolveStatus, solve_ip
from .model import ControlProblem, ControlSignal

# Fuel a crossover vertex may add over the interior point and still be
# accepted, relative to 1 + |fuel|.
_ACCEPT = 1e-7
# A null direction whose fuel slope is below this fraction of its
# absolute fuel weight is flat: its sign is roundoff, not a fuel change.
_FLAT = 1e-12
# Pending columns the crossover solves against one held basis at a time.
_CHUNK = 128
# Column count of the first restricted program, and the most columns one
# pricing round adds; a program this small is solved whole.
_WORKING_SET = 2048
# Times the restricted tolerance is cut 10x when pricing finds no column
# but the gap is still open.
_TIGHTENINGS = 2
# How far a control may leave the box |u| <= 1 and still be clipped to it
# rather than rejected; the interior point stays inside to roundoff.
_OVERSHOOT = 1e-9


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances and switches for the solve pipeline."""

    opt_tol: float = 1e-8
    feas_tol: float = 1e-6
    sparsity_threshold: float = 1e-6
    polish: bool = True


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve: status, certified objective data, signal.

    ``objective`` is recomputed from the returned signal; ``lp_objective``
    and ``dual_objective`` bracket the true optimum regardless of what
    the crossover did afterwards.  On a program solved whole they are the
    primal/dual values certified by the interior-point termination; under
    column generation they are the restricted primal P, feasible for the
    full program, and the dual value D priced over every column.  The
    three residuals are the last round's relative interior-point
    residuals; ``primal_residual`` covers the equality rows only, since
    the interior point keeps its bound rows exactly.
    ``unpolished_support`` counts the entries of the interior-point
    control above the sparsity threshold, before the crossover.
    ``iterations`` sums the interior-point iterations of every round,
    and ``pricing_rounds`` counts the rounds (``solve_ip`` calls).
    """

    status: SolveStatus
    objective: float
    lp_objective: float
    dual_objective: float
    primal_residual: float
    dual_residual: float
    gap_residual: float
    iterations: int
    signal: ControlSignal | None
    unpolished_support: int
    terminal_error: float
    polish_applied: bool
    feasibility_slack: float
    polish_rounds: int = 0
    pricing_rounds: int = 1


def build_lp(dp: DiscretizedPlant, weights: np.ndarray) -> L1Program:
    """The discretized fuel problem as an L1 program.

    min h * lambda @ |U| subject to Phi @ U == -c and |U| <= 1; the h
    factor makes the optimal value approximate the continuous-time fuel
    integral.  ``weights`` holds one weight per channel.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (dp.m,):
        raise DimensionMismatch(
            f"weights have shape {weights.shape}, plant has {dp.m} channels")
    return L1Program(M=dp.Phi, b=-dp.c, w=dp.h * np.tile(weights, dp.N))


def _first_block(u: np.ndarray, d: np.ndarray) -> tuple[float, int, bool]:
    """Step along d at which the first fractional entry reaches a level.

    An entry that d moves toward 0 reaches 0; any other reaches the +-1
    on its side.  Returns (step, index into u, whether it reaches 0).
    """
    shrinks = u * d < 0.0
    with np.errstate(divide="ignore"):
        ratio = np.where(shrinks, np.abs(u), 1.0 - np.abs(u)) / np.abs(d)
    i = int(np.argmin(ratio))
    return float(ratio[i]), i, bool(shrinks[i])


def _pin_against_basis(u: np.ndarray, v: np.ndarray, D: np.ndarray,
                       cost_u: np.ndarray, cost_v: np.ndarray
                       ) -> tuple[int, np.ndarray, np.ndarray]:
    """Crossover steps that enter v one by one against the held basis u.

    The basic entries u have independent columns B, and D = B^-1 times
    the entering columns, so entering entry k moves along [-D_k; 1].
    Each step takes the way that lowers the fuel, or, when the slope is
    flat, the way that shrinks the entering entry, and runs until that
    entry reaches its level.  The basic entries keep their signs until
    one reaches a level, so every slope is fixed and the basic entries
    after each step are a cumulative sum.  Returns the number k of steps
    before the first one in which a basic entry would reach a level (a
    tie blocks), the levels of v[:k], and the basic entries after them.
    """
    sign_u = np.sign(u)
    slope = cost_v * np.sign(v) - (cost_u * sign_u) @ D
    flat = np.abs(slope) <= _FLAT * (cost_v + cost_u @ np.abs(D))
    move = -np.sign(np.where(flat, v, slope))
    shrinks = move * v < 0.0
    step = np.where(shrinks, np.abs(v), 1.0 - np.abs(v)) * move
    basic = sign_u[:, None] * (u[:, None] - np.cumsum(D * step, axis=1))
    blocked = np.any((basic <= 0.0) | (basic >= 1.0), axis=0)
    k = int(np.argmax(blocked)) if blocked.any() else v.size
    levels = np.where(shrinks[:k], 0.0, np.sign(v[:k]))
    return k, levels, (sign_u * basic[:, k - 1] if k else u)


def polish_to_vertex(lp: L1Program, interior_U: np.ndarray,
                     options: SolverOptions = SolverOptions(), *,
                     rhs_scale: float) -> tuple[np.ndarray, bool, int]:
    """Purify an optimal-face point to a vertex of that face, with no LP.

    Entries within ``sparsity_threshold`` of a level in {-1, 0, +1} are
    snapped to it; the rest are fractional.  The interior point lies in
    the relative interior of the optimal face, so moving the fractional
    entries along a null vector d of their columns of Phi keeps the
    terminal equality and changes the fuel linearly.  Every step never
    goes the way that raises the fuel and pins one entry at its level.

    Fractional entries enter in decreasing |u| order (Bixby & Saltzman
    1994), so the largest form the basis and the many small ones are
    pinned against it.  While the working set S holds n entries with
    independent columns B, a chunk of up to ``_CHUNK`` pending columns
    is solved against B at once, and ``_pin_against_basis`` pins every
    entering entry up to the first step k that a basic entry blocks.
    That step takes d = [-D_k; 1] from the same solve; a step while S is
    not such a basis takes d from an SVD of the first n + 1 fractional
    columns.  Either single step prefers (when both ways are flat) the
    way whose first blocking entry reaches 0, and pins that entry, which
    may change the basis.  The loop ends once the fractional columns are
    linearly independent, which is a vertex with at most n fractional
    entries; those are then re-solved by least squares against the
    pinned ones, which restores the equality to roundoff.

    Returns (control, accepted, steps), steps counting the entries
    pinned.  The vertex is accepted only if it stays within the bounds,
    its fuel is at most the interior point's plus the acceptance slack,
    and it keeps the terminal equality to ``feas_tol * (1 + rhs_scale)``;
    otherwise the caller falls back to ``interior_U``.
    """
    Phi = lp.M
    cost = lp.w
    n = Phi.shape[0]
    U0 = np.asarray(interior_U, dtype=float)
    J0 = float(cost @ np.abs(U0))
    thr = options.sparsity_threshold
    rank_tol = n * np.finfo(float).eps  # relative to the largest singular value

    U = np.where(np.abs(U0) <= thr, 0.0, U0)
    U = np.where(np.abs(U) >= 1.0 - thr, np.sign(U), U)
    frac = np.flatnonzero((U != 0.0) & (np.abs(U) < 1.0))
    pending = frac[np.argsort(-np.abs(U[frac]), kind="stable")].tolist()
    p = 0  # pending[:p] have entered
    S: list[int] = []
    steps = 0
    while True:
        S = [j for j in S if 0.0 < abs(U[j]) < 1.0]
        d = None
        if len(S) == n and p < len(pending):
            W, sv, Vt = np.linalg.svd(Phi[:, S])
            if sv[-1] > rank_tol * sv[0]:
                chunk = pending[p:p + _CHUNK]
                D = Vt.T @ ((W.T @ Phi[:, chunk]) / sv[:, None])
                k, levels, basic = _pin_against_basis(U[S], U[chunk], D, cost[S], cost[chunk])
                U[chunk[:k]] = levels
                U[S] = basic
                p += k
                steps += k
                if k == len(chunk):
                    continue
                d = np.append(-D[:, k], 1.0)  # null vector of S + [chunk[k]]
        entering = pending[p:p + n + 1 - len(S)]
        S.extend(entering)
        p += len(entering)
        if not S:
            break
        if d is None:
            _, sv, Vt = np.linalg.svd(Phi[:, S])
            if sv.size == len(S) and sv[-1] > rank_tol * sv[0]:
                break  # independent columns: a vertex
            d = Vt[-1]
        u = U[S]
        slope = float(cost[S] * np.sign(u) @ d)
        if abs(slope) > _FLAT * float(cost[S] @ np.abs(d)):
            d = -np.sign(slope) * d
            t, i, zero = _first_block(u, d)
        else:
            t, i, zero = _first_block(u, d)
            t_neg, i_neg, zero_neg = _first_block(u, -d)
            if zero_neg and not zero:
                d, t, i, zero = -d, t_neg, i_neg, zero_neg
        U[S] = u + t * d
        U[S[i]] = 0.0 if zero else np.sign(u[i])
        steps += 1

    if S:
        rhs = lp.b - Phi @ U + Phi[:, S] @ U[S]
        U[S] = np.linalg.lstsq(Phi[:, S], rhs, rcond=None)[0]

    within = float(np.max(np.abs(U), initial=0.0)) <= 1.0 + _OVERSHOOT
    U = np.clip(U, -1.0, 1.0)
    ok = (within
          and float(cost @ np.abs(U)) <= J0 + _ACCEPT * (1.0 + abs(J0))
          and float(np.linalg.norm(Phi @ U - lp.b)) <= options.feas_tol * (1.0 + rhs_scale))
    return (U, True, steps) if ok else (U0, False, steps)


@dataclass(frozen=True)
class _L1Solve:
    """Outcome of the column-generation loop.

    ``lp`` is the program of the last round and ``cols`` its columns in
    the full program, None when it is the full program itself.
    """

    status: SolveStatus
    ip: IPResult
    lp: L1Program
    cols: np.ndarray | None
    dual_objective: float
    rounds: int
    iterations: int


def _initial_columns(m: int, N: int) -> np.ndarray | None:
    """Every r-th slot with all its channels, and the last slot.

    r = ceil(m N / _WORKING_SET); None when r = 1, i.e. every column.
    """
    r = -(-m * N // _WORKING_SET)
    if r == 1:
        return None
    slots = np.union1d(np.arange(0, N, r), [N - 1])
    return (slots[:, None] * m + np.arange(m)).ravel()


def _column_generation(lp: L1Program, m: int, N: int, opt_tol: float) -> _L1Solve:
    """Solve ``lp`` on a working set of columns priced by the dead-zone law.

    See the module docstring.  An optimal status always carries
    P - D <= opt_tol * (1 + |P|) with D priced over every column; when
    pricing finds nothing while the gap is open, the restricted tolerance
    is cut 10x, at most ``_TIGHTENINGS`` times, before the loop gives up
    with a numerical failure.
    """
    K = lp.M.shape[1]
    cols = _initial_columns(m, N)
    tol = opt_tol
    tightenings = rounds = iterations = 0
    while True:
        sub = lp if cols is None else L1Program(lp.M[:, cols], lp.b, lp.w[cols])
        ip = solve_ip(sub, tol=tol)
        rounds += 1
        iterations += ip.iterations
        status, dual = ip.status, ip.dual_objective
        if cols is None:
            break
        outside = np.ones(K, dtype=bool)
        outside[cols] = False
        if status is SolveStatus.OPTIMAL:
            reduced = np.abs(lp.M.T @ ip.y) - lp.w
            dual = float(lp.b @ ip.y - np.maximum(reduced, 0.0).sum())
            if ip.objective - dual <= opt_tol * (1.0 + abs(ip.objective)):
                break
            with np.errstate(divide="ignore", invalid="ignore"):
                score = np.where(outside & (reduced > 0.0), reduced / lp.w, 0.0)
        elif status is SolveStatus.INFEASIBLE:
            reach = np.abs(lp.M.T @ ip.farkas_y)
            if float(lp.b @ ip.farkas_y) > float(reach.sum()):
                break
            score = np.where(outside, reach, 0.0)
        else:
            break
        new = np.flatnonzero(score > 0.0)
        if new.size == 0:
            if tightenings == _TIGHTENINGS:
                status = SolveStatus.NUMERICAL_FAILURE
                break
            tightenings += 1
            tol /= 10.0
            continue
        if new.size > _WORKING_SET:
            new = new[np.argpartition(score[new], -_WORKING_SET)[-_WORKING_SET:]]
        cols = np.union1d(cols, new)
    return _L1Solve(status, ip, sub, cols, dual, rounds, iterations)


def solve(problem: ControlProblem,
          options: SolverOptions = SolverOptions()) -> SolveReport:
    """Full pipeline: discretize, pre-check, solve, crossover, report."""
    return solve_discretized(build_reachability(problem), problem.weights, options)


def solve_discretized(dp: DiscretizedPlant, weights: np.ndarray,
                      options: SolverOptions = SolverOptions()) -> SolveReport:
    """Pre-check, solve, crossover and report on already discretized data.

    For callers that hold ``build_reachability(problem)`` and reuse it;
    ``weights`` are the problem's per-channel weights.  The crossover runs
    on the last round's program and its control is scattered into the
    full U.  The reported objective is always recomputed from the returned
    signal as h * sum lambda |u|, and the terminal error is the Euclidean
    norm of c + Phi @ U.
    """
    slack = feasibility_radius(dp)
    m, N, h = dp.m, dp.N, dp.h

    def failure(status, sol: _L1Solve | None = None):
        ip = sol.ip if sol else None
        return SolveReport(
            status=status,
            objective=float("nan"),
            lp_objective=ip.objective if ip else float("nan"),
            dual_objective=sol.dual_objective if sol else float("nan"),
            primal_residual=ip.primal_residual if ip else float("nan"),
            dual_residual=ip.dual_residual if ip else float("nan"),
            gap_residual=ip.gap_residual if ip else float("nan"),
            iterations=sol.iterations if sol else 0,
            signal=None,
            unpolished_support=0,
            terminal_error=float("nan"),
            polish_applied=False,
            feasibility_slack=slack,
            pricing_rounds=sol.rounds if sol else 0,
        )

    if slack < 0:
        return failure(SolveStatus.INFEASIBLE)

    lp = build_lp(dp, weights)
    sol = _column_generation(lp, m, N, options.opt_tol)
    if sol.status is not SolveStatus.OPTIMAL:
        return failure(sol.status, sol)
    result = sol.ip

    U_raw = result.x
    overshoot = float(np.max(np.abs(U_raw))) - 1.0
    if overshoot > _OVERSHOOT:
        return failure(SolveStatus.NUMERICAL_FAILURE, sol)
    U_raw = np.clip(U_raw, -1.0, 1.0)
    x0_norm = float(np.linalg.norm(dp.x0))

    rounds = 0
    applied = False
    U_final = U_raw
    if options.polish:
        U_final, applied, rounds = polish_to_vertex(
            sol.lp, U_raw, options, rhs_scale=x0_norm)
    if sol.cols is not None:
        U_final, U_sub = np.zeros(m * N), U_final
        U_final[sol.cols] = U_sub

    terminal_error = float(np.linalg.norm(dp.c + dp.Phi @ U_final))
    objective = float(lp.w @ np.abs(U_final))
    status = SolveStatus.OPTIMAL
    if terminal_error > options.feas_tol * (1.0 + x0_norm):
        status = SolveStatus.NUMERICAL_FAILURE

    return SolveReport(
        status=status,
        objective=objective,
        lp_objective=result.objective,
        dual_objective=sol.dual_objective,
        primal_residual=result.primal_residual,
        dual_residual=result.dual_residual,
        gap_residual=result.gap_residual,
        iterations=sol.iterations,
        signal=ControlSignal(U=U_final, h=h, m=m, N=N),
        unpolished_support=int(np.count_nonzero(
            np.abs(U_raw) > options.sparsity_threshold)),
        terminal_error=terminal_error,
        polish_applied=applied,
        feasibility_slack=slack,
        polish_rounds=rounds,
        pricing_rounds=sol.rounds,
    )


def recompute_objective(signal: ControlSignal, weights: np.ndarray) -> float:
    """h * sum_k sum_i lambda_i |u_i[k]| for an arbitrary signal."""
    lam = np.tile(weights, signal.N)
    return float(signal.h * (lam @ np.abs(signal.U)))
