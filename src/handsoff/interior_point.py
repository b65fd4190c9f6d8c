"""Dense primal-dual interior-point solver for the weighted L1 program.

Solves
    minimize    w @ |v|
    subject to  M @ v == b,   |v| <= 1,

the one program the package has: the discretized minimum-fuel control,
and the phase-1 and fixed-support programs of the exhaustive oracle.

Internally v = p - q with p, q in [0, 1], which is the box LP
min [w; w] @ [p; q] subject to [M, -M] @ [p; q] == b.  The split is a
private detail: [M, -M] is never formed, and every product with it is
one product with M (``_split_dot``, ``_split_tdot``).  The box LP is
solved with Mehrotra predictor-corrector steps on the homogeneous
self-dual embedding of its standard form, whose upper bounds are rows
x + s = tau with slacks s.  The embedding makes status detection
certificate-based: an infeasible flag is only reported after the scaled
dual iterate passes an explicit Farkas check.

The bound rows are kept implicitly (Lustig, Marsten & Shanno 1991;
Wright 1997, ch. 11): the blind start lies on them and every step keeps
them, so each iterate, and the returned v, is inside the box to
roundoff, and their duals are -w, minus the duals of s.  Each KKT solve
eliminates the diagonal blocks first, leaving the n x n Schur complement
M diag(theta_p + theta_q) M^T (n = number of equality rows), factored
once per iteration and solved once per right-hand side, so one
iteration costs O(n^2 K + n^3) for K entries of v.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput

# Step-length damping for accepted steps; probing predictor steps use 1.
_ALPHA0 = 0.99995
# Reject an infeasibility verdict unless the Farkas violation is this
# small relative to the certificate's objective gap.
_FARKAS_RTOL = 1e-6


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
    y: np.ndarray | None          # equality duals
    objective: float
    dual_objective: float
    primal_residual: float
    dual_residual: float
    gap_residual: float
    iterations: int
    farkas_y: np.ndarray | None = None


def _split_dot(G, x):
    """[G, -G] @ x for a split vector x = [p; q]."""
    K = G.shape[1]
    return G @ (x[:K] - x[K:])


def _split_tdot(G, y):
    """[G, -G].T @ y."""
    t = G.T @ y
    return np.concatenate([t, -t])


def _make_kkt_solver(G, theta):
    """Factor the normal equations for the current scaling.

    G is the row-scaled n x K equality matrix, A = [G, -G], and theta the
    diagonal scaling of the 2K split box variables.  Returns a solver
    (r1, r2) -> (dx, dy) for A dx = r2 with dx = theta (A^T dy - r1),
    through the Schur complement S = G diag(theta_p + theta_q) G^T.
    S = L L^T takes two triangular solves per right-hand side, or least
    squares when S is not numerically positive definite.
    """
    K = G.shape[1]
    S = (G * (theta[:K] + theta[K:])) @ G.T
    try:
        L = np.linalg.cholesky(S)

        def ssolve(r):
            return np.linalg.solve(L.T, np.linalg.solve(L, r))
    except np.linalg.LinAlgError:
        def ssolve(r):
            return np.linalg.lstsq(S, r, rcond=None)[0]

    def solve(r1, r2):
        dy = ssolve(r2 + _split_dot(G, theta * r1))
        return theta * (_split_tdot(G, dy) - r1), dy

    return solve


def solve_ip(lp: L1Program, tol: float = 1e-8, maxiter: int = 200) -> IPResult:
    """Solve an L1 program to the requested relative tolerance.

    Terminates optimal when the relative primal residual of the equality
    rows, the relative dual residual and the relative duality gap all
    drop below ``tol``; the returned v lies in the box to roundoff, and
    ``objective`` is its fuel w @ |v|.  An infeasible status carries the
    equality-row ray ``farkas_y``, an n-vector in the original row units
    with b @ y > sum_j |M[:, j] @ y|: no v in the box reaches b.
    """
    n, K = lp.M.shape

    # Row equilibration of the equality block; solutions are unchanged and
    # the duals are rescaled on exit.
    row_scale = np.maximum(np.max(np.abs(lp.M), axis=1), np.abs(lp.b))
    row_scale[row_scale == 0] = 1.0
    G = lp.M / row_scale[:, None]
    beq = lp.b / row_scale
    cscale = float(np.max(lp.w)) if K else 1.0
    if cscale == 0.0:
        cscale = 1.0
    c = np.concatenate([lp.w, lp.w]) / cscale

    # Blind start of the homogeneous embedding: on the bound rows
    # x + s = tau, and centred, x z = s w = tau kappa = 1.
    x = s = z = w = np.ones(2 * K)
    ye = np.zeros(n)
    tau, kappa = 2.0, 0.5
    pairs = 4 * K + 1  # x z, s w and tau kappa

    def residuals():
        rp = beq * tau - _split_dot(G, x)
        rd = c * tau - _split_tdot(G, ye) + w - z
        cx = c @ x
        by = beq @ ye - w.sum()
        return rp, rd, cx, by, cx - by + kappa

    rp, rd, _, _, rg = residuals()
    rp_norm0 = max(1.0, float(np.linalg.norm(rp)))
    rd_norm0 = max(1.0, float(np.linalg.norm(rd)))
    rg_norm0 = max(1.0, abs(rg))

    def max_step(dx, ds, dz, dw, dtau, dkappa, damp):
        # the fastest relative rate at which a variable falls toward zero
        rate = max(float(np.max(-dx / x, initial=0.0)), float(np.max(-ds / s, initial=0.0)),
                   float(np.max(-dz / z, initial=0.0)), float(np.max(-dw / w, initial=0.0)),
                   -dtau / tau, -dkappa / kappa)
        return min(1.0, damp / rate) if rate > 0 else 1.0

    def finish(status, it, rho_p, rho_d, rho_A):
        if status is SolveStatus.OPTIMAL:
            v = (x[:K] - x[K:]) / tau
            y = cscale * (ye / row_scale) / tau
            dobj = cscale * (beq @ ye - w.sum()) / tau
            return IPResult(status, v, y, float(lp.w @ np.abs(v)), float(dobj),
                            rho_p, rho_d, rho_A, it)
        farkas = ye / row_scale if status is SolveStatus.INFEASIBLE else None
        return IPResult(status, None, None, float("nan"), float("nan"),
                        rho_p, rho_d, rho_A, it, farkas_y=farkas)

    iteration = 0
    while True:
        rp, rd, cx, by, rg = residuals()
        mu = (x @ z + s @ w + tau * kappa) / pairs  # 1 at the blind start
        # The iterate may drift along the (x, tau) scaling ray; optimality
        # is judged on the scaled candidate point, so residual norms are
        # divided by tau.  The raw norms feed the infeasibility tests.
        raw_p = float(np.linalg.norm(rp)) / rp_norm0
        raw_d = float(np.linalg.norm(rd)) / rd_norm0
        rho_p, rho_d = raw_p / tau, raw_d / tau
        # relative duality gap in the original objective units, so that a
        # converged solve certifies |primal - dual| <= tol * (1 + |primal|)
        rho_A = float(cscale * abs(cx - by) / (tau + cscale * abs(cx)))

        # The embedding converges with tau -> 0 exactly when no finite
        # optimal pair exists; by > 0 then witnesses primal infeasibility.
        if iteration and ((raw_p <= tol and raw_d <= tol and abs(rg) / rg_norm0 <= tol
                           and tau <= tol * max(1.0, kappa))
                          or (mu <= tol and tau <= tol * min(1.0, kappa))):
            if by > tol and _farkas_certified(G, ye, w, by):
                return finish(SolveStatus.INFEASIBLE, iteration, rho_p, rho_d, rho_A)
            return finish(SolveStatus.NUMERICAL_FAILURE, iteration, rho_p, rho_d, rho_A)
        if rho_p <= tol and rho_d <= tol and rho_A <= tol:
            return finish(SolveStatus.OPTIMAL, iteration, rho_p, rho_d, rho_A)
        if iteration >= maxiter:
            return finish(SolveStatus.ITERATION_LIMIT, iteration, rho_p, rho_d, rho_A)
        iteration += 1

        # Mehrotra predictor-corrector on the embedding.  The bound rows
        # hold exactly, so ds = dtau - dx keeps them, and their duals are
        # -w.  Eliminating dz and dw leaves the normal equations in dx, dy
        # with theta = 1 / (z/x + w/s), capped where a variable is
        # numerically pinned so that the scaling stays finite even after
        # an underflow of z and w in the endgame; dtau then follows from
        # the gap row, with (dx1, dy1) the part of the step per unit dtau.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            ws = w / s
            theta = np.fmin(1.0 / (z / x + ws), 1e16)
            solve_kkt = _make_kkt_solver(G, theta)
            dx1, dy1 = solve_kkt(c - ws, beq)
            cc = c + ws
            den = cc @ dx1 - beq @ dy1 - ws.sum() - kappa / tau
            gamma = 0.0
            for corrector in (False, True):
                eta = 1.0 - gamma
                rxz = gamma * mu - x * z
                rsw = gamma * mu - s * w
                rtk = gamma * mu - tau * kappa
                if corrector:
                    rxz -= dx * dz
                    rsw -= ds * dw
                    rtk -= dtau * dkappa
                rsw_s = rsw / s
                dx0, dy0 = solve_kkt(eta * rd + rsw_s - rxz / x, eta * rp)
                dtau = (beq @ dy0 - cc @ dx0 - eta * rg - rsw_s.sum() - rtk / tau) / den
                dx = dx0 + dtau * dx1
                dye = dy0 + dtau * dy1
                ds = dtau - dx
                dz = (rxz - z * dx) / x
                dw = (rsw - w * ds) / s
                dkappa = (rtk - kappa * dtau) / tau
                if not corrector:
                    alpha = max_step(dx, ds, dz, dw, dtau, dkappa, 1.0)
                    gamma = (1.0 - alpha) ** 2 * min(0.1, 1.0 - alpha)
        if not (np.isfinite(dkappa) and all(np.all(np.isfinite(a)) for a in (dx, ds, dz, dw, dye))):
            return finish(SolveStatus.NUMERICAL_FAILURE, iteration, rho_p, rho_d, rho_A)

        alpha = max_step(dx, ds, dz, dw, dtau, dkappa, _ALPHA0)
        x = x + alpha * dx
        s = s + alpha * ds
        z = z + alpha * dz
        w = w + alpha * dw
        ye = ye + alpha * dye
        tau += alpha * dtau
        kappa += alpha * dkappa


def _farkas_certified(G, ye, w, by) -> bool:
    """Check A^T ye <= w to eps and by = b @ ye - sum(w) > 0 for the witness."""
    return float(np.max(_split_tdot(G, ye) - w, initial=0.0)) <= _FARKAS_RTOL * by
