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
|Phi_j^T y| >= h lambda_j.  Every program is therefore solved by column
generation (Desrosiers & Lubbecke, "A Primer in Column Generation",
2005).  Each round solves the program restricted to a working set and
prices every column with one Phi^T y: the reduced cost |Phi_j^T y| - w_j
is the dead-zone law, and
    D = b @ y - sum_j (|Phi_j^T y| - w_j)_+
over all columns bounds the full optimum from below for any y.  A
program of at most ``_WORKING_SET`` columns is its own working set: its
one round prices D and settles it.

On a larger program round 1 is the coarse program: the same plant with
each channel held over r = ceil(m N / ``_COARSE``) consecutive slots,
whose columns and weights are sums of r fine ones, the program on a grid
r times coarser (mesh refinement, as in direct transcription; Betts,
"Practical Methods for Optimal Control", 2010, ch. 4).  The costate
belongs to the continuous problem, so the coarse y prices the fine
columns nearly as the fine optimum's would.  A held coarse control is a
fine control of the same fuel, but no fine vertex, so the coarse round
never ends the loop as optimal.  The first working set is every fine
column of the coarse blocks that its control uses, which keeps it
feasible, and the priced columns; when both are empty it is the last
slot.

From then on the loop stops once the restricted primal P, which is
feasible for the full program, is within ``OPT_TOL * (1 + |P|)`` of D;
otherwise the columns with the largest relative reduced cost, at most
``_WORKING_SET``, join the set, and the columns deep in the round's dead
zone, reduced cost <= -``_DEEP`` w_j, leave it.  A column leaves at most
once, so the loop still ends.  When pricing finds no column while the
gap is open, the loop ends with a numerical failure.  Every round's y,
an optimal round's costate or an infeasible round's ray, certifies the
full program infeasible when b @ y > sum_j |Phi_j^T y| over all columns;
an infeasible round that does not prunes nothing, and the columns with
the largest |Phi_j^T y| join.  A round, coarse or fine, that ends
without a verdict ends the loop with its status.  The crossover runs on
the last round's program.  The reported ``lp_objective`` and
``dual_objective`` are P and D.

One check decides the returned control.  Each candidate is clipped into
the box |u| <= 1 and judged on the full program: its terminal error
||c + Phi U|| is at most FEAS_TOL * (1 + |x0|), and its fuel is within
OPT_TOL * (1 + |fuel|) of D on either side.  D bounds the fuel of every
exactly feasible control from below, so a fuel above it is the loop's
open gap, and a fuel below it was paid for with terminal error, not
found in a cheaper control.  The crossover's vertex is kept only if it
passes; otherwise the interior point's control is checked, and the check
that it fails names a numerical failure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretize import DiscretizedPlant, build_reachability
from .interior_point import _BAND, IPResult, L1Program, SolveStatus, _is_farkas_ray, solve_ip
from .model import ControlProblem, ControlSignal, validate_weights

# A null direction whose fuel slope is below this fraction of its
# absolute fuel weight is flat: its sign is roundoff, not a fuel change.
_FLAT = 1e-12
# The most columns one pricing round adds; a program this small is its
# own working set.
_WORKING_SET = 2048
# Column count of the coarse program that opens column generation.
_COARSE = 256
# A coarse entry above this is held: its block's fine columns join the
# first working set.
_HELD = 1e-9
# A column leaves the working set once an optimal round's costate puts it
# this deep in the dead zone: |Phi_j^T y| <= (1 - _DEEP) w_j.
_DEEP = 0.01
# The certificate's tolerances: an optimal control's fuel is within
# OPT_TOL (1 + |fuel|) of D and its terminal error within
# FEAS_TOL (1 + |x0|).
OPT_TOL = 1e-8
FEAS_TOL = 1e-6


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve: status, certified objective data, signal.

    ``objective`` is recomputed from the returned signal; ``lp_objective``
    and ``dual_objective`` bracket the true optimum regardless of what
    the crossover did afterwards: the restricted primal P, feasible for
    the full program, and the dual value D priced over every column.
    ``costate`` is the last round's y, n floats in the coordinates of Phi,
    or None when that round gave no verdict: for an optimal status the y
    that priced D, for an infeasible one the Farkas ray.
    ``unpolished_support`` counts the entries of the interior-point
    control above ``_BAND``, before the crossover.
    ``iterations`` sums the interior-point iterations of every round,
    the endgame steps of ``solve_ip`` included, and ``pricing_rounds``
    counts the rounds (``solve_ip`` calls), the coarse round included.
    ``reason`` names the check that chose a status other than optimal,
    and is empty for an optimal one.  ``polish_applied`` says that the
    crossover's vertex passed the final check and is the signal, and
    ``crossover_pins`` counts the entries it pinned.
    """

    status: SolveStatus
    objective: float
    lp_objective: float
    dual_objective: float
    costate: np.ndarray | None
    iterations: int
    signal: ControlSignal | None
    unpolished_support: int
    terminal_error: float
    polish_applied: bool
    crossover_pins: int = 0
    pricing_rounds: int = 1
    reason: str = ""


def build_lp(dp: DiscretizedPlant, weights: np.ndarray) -> L1Program:
    """The discretized fuel problem as an L1 program.

    min h * lambda @ |U| subject to Phi @ U == -c and |U| <= 1; the h
    factor makes the optimal value approximate the continuous-time fuel
    integral.  ``weights`` holds one weight per channel; bad weights raise
    the typed errors of ``validate_weights``.
    """
    weights = validate_weights(weights, dp.m)
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


def polish_to_vertex(lp: L1Program, interior_U: np.ndarray) -> tuple[np.ndarray, bool, int]:
    """Purify an optimal-face point to a vertex of that face, with no LP.

    Entries within the interior point's endgame band ``_BAND`` of a level
    in {-1, 0, +1} are snapped to it; the rest are fractional.  The
    interior point lies in the relative interior of the optimal face, so
    moving the fractional entries along a null vector d of their columns
    of Phi keeps the terminal equality and changes the fuel linearly.
    Every step never goes the way that raises the fuel and pins one entry
    at its level.

    Fractional entries enter in decreasing |u| order (Bixby & Saltzman
    1994), so the largest are held longest and the many small ones are
    pinned against them.  Each step tops up a working set S of at most
    n + 1 fractional entries from the pending ones and takes d as the
    last right singular vector of Phi[:, S], a null vector once S holds
    n + 1 entries or its columns are dependent.  It goes the way that
    lowers the fuel, or, when both ways are flat, the way whose first
    blocking entry reaches 0, and pins that entry.  The loop ends once
    the fractional columns are linearly independent, which is a vertex
    with at most n fractional entries; those are then re-solved by least
    squares against the pinned ones, which restores the equality to
    roundoff.

    Returns (control, accepted, steps), steps counting the entries
    pinned.  The control is the vertex clipped into the box, and
    ``accepted`` says that the restore left it there before the clip.  The
    solve's final check decides whether it is kept.
    """
    Phi, cost = lp.M, lp.w
    n = Phi.shape[0]
    U = np.asarray(interior_U, dtype=float)
    rank_tol = n * np.finfo(float).eps  # relative to the largest singular value

    U = np.where(np.abs(U) <= _BAND, 0.0, U)
    U = np.where(np.abs(U) >= 1.0 - _BAND, np.sign(U), U)
    frac = np.flatnonzero((U != 0.0) & (np.abs(U) < 1.0))
    pending = frac[np.argsort(-np.abs(U[frac]), kind="stable")].tolist()
    p = 0  # pending[:p] have entered
    S: list[int] = []
    steps = 0
    while True:
        S = [j for j in S if 0.0 < abs(U[j]) < 1.0]
        entering = pending[p:p + n + 1 - len(S)]
        S.extend(entering)
        p += len(entering)
        if not S:
            break
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

    return np.clip(U, -1.0, 1.0), float(np.max(np.abs(U), initial=0.0)) <= 1.0, steps


@dataclass(frozen=True)
class _L1Solve:
    """Outcome of the column-generation loop.

    ``lp`` is the program of the last round and ``cols`` its columns in
    the full program, empty when it is the coarse program.
    """

    status: SolveStatus
    ip: IPResult
    lp: L1Program
    cols: np.ndarray | None
    dual_objective: float
    rounds: int
    iterations: int


def _coarse_program(lp: L1Program, m: int, N: int) -> tuple[L1Program, int]:
    """``lp`` with each channel held over r consecutive slots, and r.

    r = ceil(m N / _COARSE).  Column (q, i) and its weight are the sums
    of channel i's columns and weights over slots q r .. q r + r - 1 (the
    last block may be shorter), so a coarse control held on its slots is
    a fine control with the same fuel and the same terminal state.
    """
    r = -(-m * N // _COARSE)
    n = lp.M.shape[0]
    starts = np.arange(0, N, r)
    M = np.add.reduceat(lp.M.reshape(n, N, m), starts, axis=1).reshape(n, -1)
    w = np.add.reduceat(lp.w.reshape(N, m), starts).ravel()
    return L1Program(M, lp.b, w), r


def _block_columns(blocks: np.ndarray, m: int, N: int, r: int) -> np.ndarray:
    """The fine columns of coarse columns ``blocks`` of ``_coarse_program``."""
    q, i = np.divmod(blocks, m)
    slots = q[:, None] * r + np.arange(r)
    return (slots * m + i[:, None])[slots < N]


def _best(score: np.ndarray) -> np.ndarray:
    """The columns of positive score, at most ``_WORKING_SET`` of the highest."""
    new = np.flatnonzero(score > 0.0)
    if new.size > _WORKING_SET:
        new = new[np.argpartition(score[new], -_WORKING_SET)[-_WORKING_SET:]]
    return new


def _column_generation(lp: L1Program, m: int, N: int) -> _L1Solve:
    """Solve ``lp`` on a working set of columns priced by the dead-zone law.

    See the module docstring.  The coarse control's support is its entries
    above ``_HELD``.  After a fine optimal round that adds columns, those
    with |Phi_j^T y| <= (1 - ``_DEEP``) w_j leave the set, each at most
    once; the round's support is on the dead-zone edge and stays.  An
    optimal status always carries P - D <= OPT_TOL * (1 + |P|) with D
    priced over every column.
    """
    K = lp.M.shape[1]
    sub, cols = lp, np.arange(K)  # a program this small is its own working set
    if K > _WORKING_SET:
        sub, r = _coarse_program(lp, m, N)
        cols = np.empty(0, dtype=np.intp)  # empty in the coarse round
    left = np.zeros(K, dtype=bool)  # columns that have left the set once
    rounds = iterations = 0
    while True:
        ip = solve_ip(sub, tol=OPT_TOL)
        rounds += 1
        iterations += ip.iterations
        status, dual = ip.status, float("nan")
        if ip.y is None:  # no verdict: an iteration limit or a numerical failure
            break
        reach = np.abs(lp.M.T @ ip.y)
        if _is_farkas_ray(lp.b, ip.y, reach):
            status = SolveStatus.INFEASIBLE
            break
        coarse = cols.size == 0
        outside = np.ones(K, dtype=bool)
        outside[cols] = False
        if status is SolveStatus.OPTIMAL:
            reduced = reach - lp.w
            dual = float(lp.b @ ip.y - np.maximum(reduced, 0.0).sum())
            if not coarse and ip.objective - dual <= OPT_TOL * (1.0 + abs(ip.objective)):
                break
            with np.errstate(divide="ignore", invalid="ignore"):
                new = _best(np.where(outside & (reduced > 0.0), reduced / lp.w, 0.0))
        else:
            new = _best(np.where(outside, reach, 0.0))
        if coarse:
            if status is SolveStatus.OPTIMAL:
                held = np.flatnonzero(np.abs(ip.x) > _HELD)
                new = np.union1d(new, _block_columns(held, m, N, r))
            cols = new if new.size else np.arange(K - m, K)
        elif new.size == 0:
            status = SolveStatus.NUMERICAL_FAILURE
            break
        else:
            if status is SolveStatus.OPTIMAL:
                deep = (reduced[cols] <= -_DEEP * lp.w[cols]) & ~left[cols]
                left[cols[deep]] = True
                cols = cols[~deep]
            cols = np.union1d(cols, new)
        sub = L1Program(lp.M[:, cols], lp.b, lp.w[cols])
    return _L1Solve(status, ip, sub, cols, dual, rounds, iterations)


def solve(problem: ControlProblem, *, polish: bool = True) -> SolveReport:
    """Full pipeline: discretize, solve, crossover, report."""
    return solve_discretized(build_reachability(problem), problem.weights, polish=polish)


def solve_discretized(dp: DiscretizedPlant, weights: np.ndarray, *,
                      polish: bool = True) -> SolveReport:
    """Solve, crossover and report on already discretized data.

    For callers that hold ``build_reachability(problem)`` and reuse it;
    ``weights`` are the problem's per-channel weights.  With ``polish``
    the crossover runs.  Its vertex and then the interior point's
    control, each clipped into the box and scattered into the full U,
    face the check of the module docstring once each; the first that
    passes is returned, and a failing interior control is reported.
    The objective is h * sum lambda |u| of that control, and the terminal
    error is the Euclidean norm of c + Phi @ U, inf past float64.
    """
    lp = build_lp(dp, weights)
    objective = terminal_error = float("nan")
    U = U_raw = None
    applied, pins = False, 0
    sol = _column_generation(lp, dp.m, dp.N)
    ip, status = sol.ip, sol.status
    if status is not SolveStatus.OPTIMAL:
        if status is ip.status:
            reason = f"interior point returned {ip.status.value} in round {sol.rounds}"
        elif status is SolveStatus.INFEASIBLE:
            reason = f"the costate of {ip.status.value} round {sol.rounds} is a Farkas ray"
        else:
            reason = (f"pricing found no column with the gap open after a {ip.status.value} "
                      f"round (P - D = {ip.objective - sol.dual_objective:.3g})")
    else:
        U_raw = np.clip(ip.x, -1.0, 1.0)
        candidates = [U_raw]
        if polish:
            vertex, _, pins = polish_to_vertex(sol.lp, U_raw)
            candidates = [vertex, U_raw]
        bound = FEAS_TOL * (1.0 + float(np.linalg.norm(dp.x0)))
        U = np.zeros(dp.m * dp.N)
        for U_sub in candidates:
            U[sol.cols] = U_sub
            with np.errstate(over="ignore"):
                terminal_error = float(np.linalg.norm(dp.c + dp.Phi @ U))
            objective = float(lp.w @ np.abs(U))
            gap, tol = objective - sol.dual_objective, OPT_TOL * (1.0 + abs(objective))
            if not terminal_error <= bound:
                reason = (f"terminal error {terminal_error:.3g} > "
                          f"feas_tol (1 + |x0|) = {bound:.3g}")
            elif abs(gap) > tol:
                side = "fuel - D" if gap > 0 else "D - fuel"
                reason = f"{side} = {abs(gap):.3g} > opt_tol (1 + |fuel|) = {tol:.3g}"
            else:
                reason = ""
                break
        applied = U_sub is not U_raw and not reason
        if reason:
            status = SolveStatus.NUMERICAL_FAILURE
            reason += ", crossover not applied"

    return SolveReport(
        status=status,
        objective=objective,
        lp_objective=ip.objective,
        dual_objective=sol.dual_objective,
        costate=ip.y,
        iterations=sol.iterations,
        signal=None if U is None else ControlSignal(U=U, h=dp.h, m=dp.m, N=dp.N),
        unpolished_support=0 if U_raw is None else int(np.count_nonzero(np.abs(U_raw) > _BAND)),
        terminal_error=terminal_error,
        polish_applied=applied,
        crossover_pins=pins,
        pricing_rounds=sol.rounds,
        reason=reason,
    )


def recompute_objective(signal: ControlSignal, weights: np.ndarray) -> float:
    """h * sum_k sum_i lambda_i |u_i[k]| for an arbitrary signal.

    Bad weights raise the typed errors of ``validate_weights``.
    """
    lam = np.tile(validate_weights(weights, signal.m), signal.N)
    return float(signal.h * (lam @ np.abs(signal.U)))
