"""Dense primal-dual interior-point solver for the weighted L1 program.

Solves
    minimize    w @ |v|
    subject to  M @ v == b,   |v| <= 1,

the one program the package has: the discretized minimum-fuel control.

Internally v = p - q with p, q in [0, 1], which is the box LP
min [w; w] @ [p; q] subject to [M, -M] @ [p; q] == b.  The split is a
private detail: a split vector is held as a (2, K) array of its p and q
halves, [M, -M] is never formed, and every product with it is one
product with M (``_split_dot``, ``_split_tdot``).  The box LP is solved
with Mehrotra predictor-corrector steps on the homogeneous self-dual
embedding of its standard form, whose upper bounds are rows x + s = tau
with slacks s.  The embedding makes status detection certificate-based:
an infeasible status is reported only with a ray y of the equality rows,
in the program's own units, that meets the Farkas inequality
b @ y > sum_j |M[:, j] @ y| exactly (``_is_farkas_ray``).

The bound rows are kept implicitly (Lustig, Marsten & Shanno 1991;
Wright 1997, ch. 11): the blind start lies on them and every step keeps
them, so each iterate, and the returned v, is inside the box to
roundoff, and their duals are -w, minus the duals of s.  The iterate
x, s, z, w is one stacked array and so is the step, so that an update,
a ratio test or a complementarity residual is one numpy call.  The
equality rows are put in orthonormal form first (Golub & Van Loan 2013,
sec. 5.2-5.3): with M^T = Q R and R^T = W diag(sv) V^T cut to the
numerical rank r, the solver works on G = T M and T b for
T = diag(1 / sv) W^T, each row then scaled by its largest magnitude, so
the normal equations keep the spread of theta but not the conditioning
of M; y maps back as ye @ T.  When r < n, the part of b off the span of
M is tried as a Farkas ray before the first step.  Each KKT solve
eliminates the diagonal blocks first, leaving the r x r Schur complement
G diag(theta_p + theta_q) G^T, whose Cholesky factor L is inverted once
per iteration; an iteration costs O(r^2 K + r^3) for K entries of v.
Each right-hand side takes two products with L^-1, never one with S^-1
(``_make_kkt_solver``).  An iteration makes two solve calls: the step
per unit tau and the predictor, whose complementarity residuals are
closed-form (-z and -w after division by x and s), go through one call
as two stacked right-hand sides, and the corrector is the second.

Near the optimum the normal equations reach an accuracy floor (Wright
1997, ch. 11) at which the primal residual can stall above the
tolerance.  Once mu is below 1e-6 and the relative primal residual
fails to halve in a step, every later KKT solve is refined once: one
more call of the same solver, with r1 = 0, on its equality residual
r2 - A dx.

The stop (relative residuals and a gap relative to 1 + |primal|) is
nearly absolute when the fuel is small, so once it holds an endgame
measures the gap relative to the fuel, floored at the smallest weight,
and keeps stepping while that gap stays above the tolerance or more
than r entries of v are fractional, strictly inside (1e-6, 1 - 1e-6) in
magnitude, the crossover's band: a vertex of the box program
has at most r.  The iterate that met the stop is kept, and each later
step replaces it only if it meets the stop again and halves the
fuel-relative gap; any other step ends the solve with the kept iterate.
Interior-point iterates identify the optimal face in their last steps
(Mehrotra & Ye 1993; Ye 1992), so these few steps usually put v on the
vertex of a unique optimum and leave the crossover little to pin; on a
face that is not a vertex they end at the first step that does not
halve the gap.  Since the kept iterate always meets the stop, the
endgame can never turn an optimal status into another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput

# Step-length damping for accepted steps; probing predictor steps use 1.
_ALPHA0 = 0.99995
# An endgame step is kept only if it cuts the fuel-relative gap at least
# this much.  Near the optimal face the steps converge superlinearly; one
# that does not halve the gap has met the accuracy floor of the normal
# equations, where further steps add roundoff rather than accuracy.
_HALVING = 0.5
# An entry of v inside (_BAND, 1 - _BAND) in magnitude is fractional; the
# endgame does not stop on a gap alone while more than rank(M) entries are.
_BAND = 1e-6
# Refinement of the KKT solves starts once mu is below this and the
# primal residual fails to halve in a step.
_REFINE_MU = 1e-6


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    ITERATION_LIMIT = "iteration_limit"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass(frozen=True)
class L1Program:
    """min w @ |v| subject to M @ v == b and |v| <= 1.

    A program with another box |v_j| <= u_j is this one in the
    variables v_j / u_j, with columns M_j u_j and weights w_j u_j.
    """

    M: np.ndarray
    b: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.M, dtype=float)
        b = np.asarray(self.b, dtype=float).ravel()
        w = np.asarray(self.w, dtype=float).ravel()
        if M.ndim != 2:
            raise DimensionMismatch(f"equality matrix must be 2-D, got shape {M.shape}")
        n, K = M.shape
        if K == 0:
            raise DimensionMismatch("the program has no columns")
        if w.size != K or b.size != n:
            raise DimensionMismatch(
                f"inconsistent program dimensions: M is {n} x {K}, "
                f"b has {b.size}, w has {w.size}")
        if not all(np.all(np.isfinite(a)) for a in (M, b, w)):
            raise NonFiniteInput("program data contains non-finite entries")
        if np.any(w < 0):
            raise DimensionMismatch("all weights must be nonnegative")
        for name, arr in (("M", M), ("b", b), ("w", w)):
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class IPResult:
    """Raw interior-point outcome for an L1 program."""

    status: SolveStatus
    x: np.ndarray | None          # the signed v
    y: np.ndarray | None          # equality duals, or the Farkas ray if infeasible
    objective: float
    iterations: int


_SIGNS = np.array([[1.0], [-1.0]])


def _split_dot(G, x):
    """[G, -G] @ x for split vectors x = [p; q], held as (..., 2, K) arrays."""
    return (x[..., 0, :] - x[..., 1, :]) @ G.T


def _split_tdot(G, y):
    """[G, -G].T @ y as a (..., 2, K) array, for y of shape (..., n)."""
    return _SIGNS * (y @ G)[..., None, :]


def _make_kkt_solver(G, theta):
    """Factor the normal equations for the current scaling.

    G is the transformed r x K equality matrix, A = [G, -G], and theta the
    diagonal scaling of the 2K split box variables, a (2, K) array.
    Returns a solver (r1, r2) -> (dx, dy) for A dx = r2 with
    dx = theta (A^T dy - r1), through the Schur complement
    S = G diag(theta_p + theta_q) G^T.  Right-hand sides may be stacked
    along leading axes, r1 as (..., 2, K) and r2 as (..., r), and are
    then solved in one call.  S = L L^T is inverted once as L^-1, and
    each right-hand side takes two products with it; S^-1 = L^-T L^-1 is
    never formed, since its product loses the accuracy of the two
    triangular steps once theta spans many decades.  When S is not
    numerically positive definite every step is NaN, which ends the solve.
    """
    S = (G * (theta[0] + theta[1])) @ G.T
    try:
        Li = np.linalg.inv(np.linalg.cholesky(S))
    except np.linalg.LinAlgError:
        Li = np.full_like(S, np.nan)

    def solve(r1, r2):
        dy = ((r2 + _split_dot(G, theta * r1)) @ Li.T) @ Li
        return theta * (_split_tdot(G, dy) - r1), dy

    return solve


def solve_ip(lp: L1Program, tol: float = 1e-8, maxiter: int = 200) -> IPResult:
    """Solve an L1 program to the requested relative tolerance.

    Is optimal once the relative primal residual of the equality rows,
    the relative dual residual and the duality gap relative to
    1 + |primal| all drop below ``tol``; the returned v lies in the box to
    roundoff, and ``objective`` is its fuel w @ |v|.  Then, while the gap
    relative to max(|primal|, min w) is above ``tol`` or more entries of
    v than the rank of M are fractional, inside (``_BAND``, 1 - ``_BAND``) in
    magnitude, the endgame keeps that iterate and steps on: a step that
    again meets the stop and halves that gap is kept in its place, and the
    first step that does neither, is not finite or reaches ``maxiter``
    returns the kept iterate, still optimal.  ``iterations`` counts every
    step taken, a last step not kept included.  An infeasible status
    carries in ``y`` the equality-row ray, an n-vector in the original row
    units with b @ y > sum_j |M[:, j] @ y| (``_is_farkas_ray``): no v in
    the box reaches b; the part of b off the span of M, if it is one, is
    found in 0 iterations.  When the embedding stops on tau -> 0 with a
    ray that fails it, the status is a numerical failure.

    Each iteration factors the normal equations once and makes two solve
    calls, the step per unit tau with the predictor, then the corrector.
    From the first step at which mu is below ``_REFINE_MU`` and rho_p has
    not fallen to ``_HALVING`` times its last value, each solve is
    followed by one refinement solve of its equality residual.
    """
    n, K = lp.M.shape

    # the orthonormal rows G = T M of the module docstring, and beq = T b
    W, sv, _ = np.linalg.svd(np.linalg.qr(lp.M.T, mode="r").T, full_matrices=False)
    rank = int(np.count_nonzero(sv > max(n, K) * np.finfo(float).eps * sv[0]))
    W = W[:, :rank]
    T = W.T / sv[:rank, None]
    if rank < n:
        ray = lp.b - W @ (W.T @ lp.b)
        if _is_farkas_ray(lp.b, ray, lp.M.T @ ray):
            return IPResult(SolveStatus.INFEASIBLE, None, ray, math.nan, 0)
    G, beq = T @ lp.M, T @ lp.b
    scale = np.maximum(np.max(np.abs(G), axis=1), np.abs(beq))
    G /= scale[:, None]
    beq /= scale
    T /= scale[:, None]
    cscale = float(np.max(lp.w)) or 1.0
    c = np.stack([lp.w, lp.w]) / cscale
    c_min = float(np.min(c))

    # Blind start of the homogeneous embedding: on the bound rows
    # x + s = tau, and centred, x z = s w = tau kappa = 1.  The rows of
    # the iterate V and of the step dV are views that updates keep; X and
    # Z are the primal (x, s) and dual (z, w) halves.
    V = np.ones((4, 2, K))
    dV = np.empty_like(V)
    ratio = np.empty_like(V)
    x, s, z, w = V
    X, Z = V[:2], V[2:]
    dX, dZ = dV[:2], dV[2:]
    dx, ds = dX
    # the two right-hand sides of each iteration's first KKT solve, the
    # step per unit dtau and the predictor, and the corrector's
    # complementarity residuals divided by X
    rhs1 = np.empty((2, 2, K))
    rhs2 = np.empty((2, rank))
    rhs2[0] = beq
    RX = np.empty((2, 2, K))
    ye = np.zeros(rank)
    tau, kappa = 2.0, 0.5
    pairs = 4 * K + 1  # x z, s w and tau kappa

    def residuals():
        rp = beq * tau - _split_dot(G, x)
        rd = c * tau - _split_tdot(G, ye) + (w - z)
        cx = np.vdot(c, x)
        by = beq @ ye - w.sum()
        return rp, rd, cx, by, cx - by + kappa

    rp, rd, _, _, rg = residuals()
    rp_norm0 = max(1.0, float(np.linalg.norm(rp)))
    rd_norm0 = max(1.0, float(np.linalg.norm(rd)))
    rg_norm0 = max(1.0, abs(rg))

    def kkt(solve, r1, r2):
        # once refining, one more solve of the equality rows' residual
        d, dy = solve(r1, r2)
        if refine:
            dd, ddy = solve(0.0, r2 - _split_dot(G, d))
            d += dd
            dy += ddy
        return d, dy

    def finish(status, it, ray=None):
        if status is SolveStatus.OPTIMAL:
            v = (x[0] - x[1]) / tau
            y = cscale * (ye @ T) / tau
            return IPResult(status, v, y, float(lp.w @ np.abs(v)), it)
        return IPResult(status, None, ray, math.nan, it)

    # the last iterate that met the stop, kept while the endgame steps on
    kept, kept_rel = None, 0.0
    # iterative refinement of the KKT solves, on for good once rho_p stalls
    refine, last_rho_p = False, math.inf
    iteration = 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        while True:
            rp, rd, cx, by, rg = residuals()
            mu = (np.vdot(X, Z) + tau * kappa) / pairs  # 1 at the blind start
            # The iterate may drift along the (x, tau) scaling ray; optimality
            # is judged on the scaled candidate point, so residual norms are
            # divided by tau.  The raw norms feed the infeasibility tests.
            raw_p = math.sqrt(rp @ rp) / rp_norm0
            raw_d = math.sqrt(np.vdot(rd, rd)) / rd_norm0
            rho_p, rho_d = raw_p / tau, raw_d / tau
            # relative duality gap in the original objective units, so that a
            # converged solve certifies |primal - dual| <= tol * (1 + |primal|)
            rho_A = float(cscale * abs(cx - by) / (tau + cscale * abs(cx)))

            # The embedding converges with tau -> 0 exactly when no finite
            # optimal pair exists; ye @ T is then the Farkas ray, in
            # the program's units, that witnesses primal infeasibility.
            if kept is None and iteration and (
                    (raw_p <= tol and raw_d <= tol and abs(rg) / rg_norm0 <= tol
                     and tau <= tol * max(1.0, kappa))
                    or (mu <= tol and tau <= tol * min(1.0, kappa))):
                ray = ye @ T
                if _is_farkas_ray(lp.b, ray, lp.M.T @ ray):
                    return finish(SolveStatus.INFEASIBLE, iteration, ray)
                return finish(SolveStatus.NUMERICAL_FAILURE, iteration)
            optimal = rho_p <= tol and rho_d <= tol and rho_A <= tol
            # the gap relative to the fuel, floored at the smallest weight (one
            # slot's fuel); weights all zero leave no fuel to measure by
            fuel = max(abs(cx), tau * c_min)
            rel = float(abs(cx - by) / fuel) if fuel else 0.0
            if kept is not None and not (optimal and rel <= _HALVING * kept_rel):
                return replace(kept, iterations=iteration)
            if optimal:
                kept, kept_rel = finish(SolveStatus.OPTIMAL, iteration), rel
                v = np.abs(kept.x)
                if rel <= tol and np.count_nonzero((v > _BAND) & (v < 1.0 - _BAND)) <= rank:
                    return kept
            if iteration >= maxiter:
                return kept or finish(SolveStatus.ITERATION_LIMIT, iteration)
            iteration += 1
            refine = refine or (mu < _REFINE_MU and rho_p > _HALVING * last_rho_p)
            last_rho_p = rho_p

            # Mehrotra predictor-corrector on the embedding.  The bound rows
            # hold exactly, so ds = dtau - dx keeps them, and their duals are
            # -w.  Eliminating dz and dw leaves the normal equations in dx, dy
            # with theta = 1 / (z/x + w/s), capped so that it stays finite
            # after an underflow of z and w in the endgame; dtau follows from
            # the gap row, with (dx1, dy1) the step per unit dtau.  A step with
            # centring gamma has complementarity residuals R = gamma mu - X Z
            # (minus the predictor's dX dZ in the corrector) and the right-hand
            # side (eta rd + R_s / s - R_x / x, eta rp), eta = 1 - gamma.  The
            # predictor's gamma = 0 gives R / X = -(z, w): its right-hand side
            # is (rd - w + z, rp) and its (dz, dw) = -Z (1 + dX / X), so it
            # shares one solve with the step per unit dtau.
            ws = w / s
            theta = np.fmin(1.0 / (z / x + ws), 1e16)
            solve_kkt = _make_kkt_solver(G, theta)
            np.subtract(c, ws, out=rhs1[0])
            np.subtract(rd, w, out=rhs1[1])
            rhs1[1] += z
            rhs2[1] = rp
            d, dy = kkt(solve_kkt, rhs1, rhs2)
            dx1, dy1 = d[0], dy[0]
            cc = c + ws
            cd = d.reshape(2, -1) @ cc.ravel()
            bd = dy @ beq
            den = cd[0] - bd[0] - ws.sum() - kappa / tau

            # the predictor, whose gap row has R_s / s = -w and rtk = -tau kappa
            dtau = (bd[1] - cd[1] - rg + w.sum() + kappa) / den
            np.multiply(dx1, dtau, out=dx)
            dx += d[1]
            np.subtract(dtau, dx, out=ds)
            # dZ / Z = -(1 + dX / X) and dkappa / kappa = -(1 + dtau / tau),
            # so the ratio test needs the extremes of dX / X alone
            q = ratio[:2]
            np.divide(dX, X, out=q)
            np.subtract(-1.0, q, out=dZ)
            dZ *= Z
            dkappa = -kappa * (1.0 + dtau / tau)
            alpha = 1.0 / max(1.0, -float(q.min()), 1.0 + float(q.max()),
                              -dtau / tau, 1.0 + dtau / tau)
            gamma = (1.0 - alpha) ** 2 * min(0.1, 1.0 - alpha)
            eta = 1.0 - gamma

            # the corrector, RX = R / X with R = gamma mu - X Z - dX dZ
            dZ *= dX
            np.multiply(X, Z, out=RX)
            RX += dZ
            np.subtract(gamma * mu, RX, out=RX)
            RX /= X
            rtk = gamma * mu - tau * kappa - dtau * dkappa
            dx0, dy0 = kkt(solve_kkt, eta * rd + RX[1] - RX[0], eta * rp)
            dtau = (beq @ dy0 - np.vdot(cc, dx0) - eta * rg - RX[1].sum() - rtk / tau) / den
            np.multiply(dx1, dtau, out=dx)
            dx += dx0
            np.subtract(dtau, dx, out=ds)
            np.divide(dX, X, out=dZ)
            dZ *= Z
            np.subtract(RX, dZ, out=dZ)
            dye = dy0 + dtau * dy1
            dkappa = (rtk - kappa * dtau) / tau
            if not (np.isfinite(dkappa) and np.isfinite(dV).all() and np.isfinite(dye).all()):
                if kept is not None:
                    return replace(kept, iterations=iteration)
                return finish(SolveStatus.NUMERICAL_FAILURE, iteration)
            # the fastest relative rate at which a variable falls toward zero
            np.divide(dV, V, out=ratio)
            rate = max(-float(ratio.min(initial=0.0)), -dtau / tau, -dkappa / kappa)
            alpha = min(1.0, _ALPHA0 / rate) if rate > 0 else 1.0

            dV *= alpha
            V += dV
            ye = ye + alpha * dye
            tau += alpha * dtau
            kappa += alpha * dkappa


def _is_farkas_ray(b, y, My) -> bool:
    """b @ y > sum_j |My_j| for My = M^T y: then no v in the box has M v = b."""
    return float(b @ y) > float(np.abs(My).sum())
