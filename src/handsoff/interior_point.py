"""Dense primal-dual interior-point solver for the weighted L1 program.

Solves
    minimize    w @ |v|
    subject to  M @ v == b,   |v| <= ub,

the one program the package has: the discretized minimum-fuel control,
and the phase-1 and fixed-support programs of the exhaustive oracle.

Internally v = p - q with p, q in [0, ub], which is the box LP
min [w; w] @ [p; q] subject to [M, -M] @ [p; q] == b.  The split is a
private detail: [M, -M] is never formed, and every product with it is
one product with M (``_split_dot``, ``_split_tdot``).  The box LP is
solved with Mehrotra predictor-corrector steps on the homogeneous
self-dual embedding of its standard form (upper bounds become rows
x + s = u with slack variables s).  The embedding makes status
detection certificate-based: an infeasible flag is only reported after
the scaled dual iterate passes an explicit Farkas check.

The bound rows are never materialized.  Each KKT solve eliminates the
diagonal slack blocks first, leaving the n x n Schur complement
M diag(d_p + d_q) M^T (n = number of equality rows), factored once per
iteration and solved once per right-hand side, so one iteration costs
O(n^2 K + n^3) for K entries of v.
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
    """min w @ |v| subject to M @ v == b and |v| <= ub.

    ``ub`` may be a scalar, shared by every entry of v.
    """

    M: np.ndarray
    b: np.ndarray
    w: np.ndarray
    ub: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.M, dtype=float)
        b = np.asarray(self.b, dtype=float).ravel()
        w = np.asarray(self.w, dtype=float).ravel()
        ub = np.asarray(self.ub, dtype=float)
        if M.ndim != 2:
            raise DimensionMismatch(f"equality matrix must be 2-D, got shape {M.shape}")
        n, K = M.shape
        ub = np.full(K, float(ub)) if ub.ndim == 0 else ub.ravel()
        if w.size != K or ub.size != K or b.size != n:
            raise DimensionMismatch(
                f"inconsistent program dimensions: M is {n} x {K}, "
                f"b has {b.size}, w has {w.size}, ub has {ub.size}")
        if not all(np.all(np.isfinite(a)) for a in (M, b, w, ub)):
            raise NonFiniteInput("program data contains non-finite entries")
        if np.any(ub <= 0):
            raise DimensionMismatch("all bounds must be strictly positive")
        if np.any(w < 0):
            raise DimensionMismatch("all weights must be nonnegative")
        for name, arr in (("M", M), ("b", b), ("w", w), ("ub", ub)):
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


def _make_kkt_solver(G, dw, ds):
    """Factor the normal-equations operator for the current scaling.

    G is the row-scaled n x K equality matrix; dw and ds are the diagonal
    primal/dual ratios of the 2K split box variables and of their slacks.
    Returns a solver for M v = r with A = [G, -G] and
    M = [[A Dw A^T, A Dw], [Dw A^T, Dw + Ds]].
    The slack block is eliminated, leaving the Schur complement
    S = G diag(d_p + d_q) G^T, the split halves of the harmonic
    combination of dw and ds summed.  S = L L^T takes two triangular
    solves per right-hand side, or least squares when S is not
    numerically positive definite.
    """
    K = G.shape[1]
    E = dw + ds
    dtil = dw * (ds / E)  # harmonic combination without the overflowing product
    S = (G * (dtil[:K] + dtil[K:])) @ G.T
    try:
        L = np.linalg.cholesky(S)

        def ssolve(r):
            return np.linalg.solve(L.T, np.linalg.solve(L, r))
    except np.linalg.LinAlgError:
        def ssolve(r):
            return np.linalg.lstsq(S, r, rcond=None)[0]

    def solve(re, rb):
        ve = ssolve(re - _split_dot(G, dw / E * rb))
        vb = (rb - dw * _split_tdot(G, ve)) / E
        return ve, vb

    return solve


def solve_ip(lp: L1Program, tol: float = 1e-8, maxiter: int = 200) -> IPResult:
    """Solve an L1 program to the requested relative tolerance.

    Terminates optimal when the relative primal and dual residuals and
    the relative duality gap all drop below ``tol``.  An infeasible
    status carries the equality-row ray ``farkas_y``, an n-vector in the
    original row units with b @ y > sum_j ub_j |M[:, j] @ y|: no v in the
    box reaches b.
    """
    n, K = lp.M.shape
    nv = 2 * K

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
    u = np.concatenate([lp.ub, lp.ub])

    def A_dot(xw, xs):
        return _split_dot(G, xw), xw + xs

    def AT_dot(ye, yb):
        return _split_tdot(G, ye) + yb, yb

    # Blind start of the homogeneous embedding.
    xw = np.ones(nv)
    xs = np.ones(nv)
    zw = np.ones(nv)
    zs = np.ones(nv)
    ye = np.zeros(n)
    yb = np.zeros(nv)
    tau = 1.0
    kappa = 1.0
    mu0 = 1.0  # complementarity measure at the blind start

    def residuals():
        ax_e, ax_b = A_dot(xw, xs)
        rp_e = beq * tau - ax_e
        rp_b = u * tau - ax_b
        at_w, at_s = AT_dot(ye, yb)
        rd_w = c * tau - at_w - zw
        rd_s = -at_s - zs
        cx = c @ xw
        by = beq @ ye + u @ yb
        rg = cx - by + kappa
        mu = (xw @ zw + xs @ zs + tau * kappa) / (2 * nv + 1)
        return rp_e, rp_b, rd_w, rd_s, rg, cx, by, mu

    rp_e0, rp_b0, rd_w0, rd_s0, rg0, _, _, _ = residuals()
    rp_norm0 = max(1.0, float(np.hypot(np.linalg.norm(rp_e0), np.linalg.norm(rp_b0))))
    rd_norm0 = max(1.0, float(np.hypot(np.linalg.norm(rd_w0), np.linalg.norm(rd_s0))))
    rg_norm0 = max(1.0, abs(rg0))

    def indicators():
        rp_e, rp_b, rd_w, rd_s, rg, cx, by, mu = residuals()
        # The iterate may drift along the (x, tau) scaling ray; optimality
        # is judged on the scaled candidate point, so residual norms are
        # divided by tau.  The raw norms feed the infeasibility tests.
        raw_p = np.hypot(np.linalg.norm(rp_e), np.linalg.norm(rp_b))
        raw_d = np.hypot(np.linalg.norm(rd_w), np.linalg.norm(rd_s))
        rho_p = raw_p / (tau * rp_norm0)
        rho_d = raw_d / (tau * rd_norm0)
        rho_g = abs(rg) / rg_norm0
        # relative duality gap in the original objective units, so that a
        # converged solve certifies |primal - dual| <= tol * (1 + |primal|)
        rho_A = cscale * abs(cx - by) / (tau + cscale * abs(cx))
        rho_mu = mu / mu0
        return (rp_e, rp_b, rd_w, rd_s, rg, cx, by, mu,
                float(rho_p), float(rho_d), float(rho_g), float(rho_A), float(rho_mu),
                float(raw_p / rp_norm0), float(raw_d / rd_norm0))

    def max_step(dxw, dxs, dzw, dzs, dtau, dkappa, damp):
        alpha = 1.0
        for val, dval in ((tau, dtau), (kappa, dkappa)):
            if dval < 0:
                alpha = min(alpha, damp * val / -dval)
        for arr, darr in ((xw, dxw), (xs, dxs), (zw, dzw), (zs, dzs)):
            neg = darr < 0
            if np.any(neg):
                alpha = min(alpha, damp * float(np.min(arr[neg] / -darr[neg])))
        return alpha

    def finish(status, it, rho_p, rho_d, rho_A):
        if status is SolveStatus.OPTIMAL:
            x = xw / tau
            y = cscale * (ye / row_scale) / tau
            obj = cscale * (c @ xw) / tau
            dobj = cscale * (beq @ ye + u @ yb) / tau
            return IPResult(status, x[:K] - x[K:], y, float(obj), float(dobj),
                            rho_p, rho_d, rho_A, it)
        farkas = ye / row_scale if status is SolveStatus.INFEASIBLE else None
        return IPResult(status, None, None, float("nan"), float("nan"),
                        rho_p, rho_d, rho_A, it, farkas_y=farkas)

    iteration = 0
    (rp_e, rp_b, rd_w, rd_s, rg, cx, by, mu,
     rho_p, rho_d, rho_g, rho_A, rho_mu, raw_p, raw_d) = indicators()

    while rho_p > tol or rho_d > tol or rho_A > tol:
        if iteration >= maxiter:
            return finish(SolveStatus.ITERATION_LIMIT, iteration, rho_p, rho_d, rho_A)
        iteration += 1

        # Past ~1e16 a ratio means the variable is numerically pinned;
        # capping it keeps the scaling matrices finite even after an
        # underflow of z in the endgame.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            dw = xw / zw
            ds = xs / zs
        dw = np.where(np.isfinite(dw), np.minimum(dw, 1e16), 1e16)
        ds = np.where(np.isfinite(ds), np.minimum(ds, 1e16), 1e16)
        solve_kkt = _make_kkt_solver(G, dw, ds)

        def apply_kkt(r1w, r1s, r2e, r2b):
            # M v = r2 + A D r1 ; then u = D (A^T v - r1).
            tw = dw * r1w
            ts = ds * r1s
            ve, vb = solve_kkt(r2e + _split_dot(G, tw), r2b + tw + ts)
            at_w, at_s = AT_dot(ve, vb)
            return dw * (at_w - r1w), ds * (at_s - r1s), ve, vb

        # Constant right-hand side (c, b); reused by both passes.
        pw, ps, qe, qb = apply_kkt(c, np.zeros(nv), beq, u)
        denom_cp = -(c @ pw) + (beq @ qe + u @ qb)

        gamma = 0.0
        dxw = dxs = dzw = dzs = None
        dtau = dkappa = 0.0
        failed = False
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for pass_idx in range(2):
                eta = 1.0 - gamma
                rhat_xs_w = gamma * mu - xw * zw
                rhat_xs_s = gamma * mu - xs * zs
                rhat_tk = gamma * mu - tau * kappa
                if pass_idx == 1:
                    rhat_xs_w = rhat_xs_w - dxw * dzw
                    rhat_xs_s = rhat_xs_s - dxs * dzs
                    rhat_tk = rhat_tk - dtau * dkappa
                uw, us, ve, vb = apply_kkt(eta * rd_w - rhat_xs_w / xw,
                                           eta * rd_s - rhat_xs_s / xs,
                                           eta * rp_e, eta * rp_b)
                num = (eta * rg + rhat_tk / tau
                       - (-(c @ uw) + (beq @ ve + u @ vb)))
                den = kappa / tau + denom_cp
                if den == 0 or not np.isfinite(den):
                    failed = True
                    break
                dtau = num / den
                dxw = uw + pw * dtau
                dxs = us + ps * dtau
                dye = ve + qe * dtau
                dyb = vb + qb * dtau
                dzw = (rhat_xs_w - zw * dxw) / xw
                dzs = (rhat_xs_s - zs * dxs) / xs
                dkappa = (rhat_tk - kappa * dtau) / tau
                if not all(np.all(np.isfinite(a)) for a in (dxw, dxs, dye, dyb, dzw, dzs)) \
                        or not (np.isfinite(dtau) and np.isfinite(dkappa)):
                    failed = True
                    break
                if pass_idx == 0:
                    alpha = max_step(dxw, dxs, dzw, dzs, dtau, dkappa, 1.0)
                    gamma = (1.0 - alpha) ** 2 * min(0.1, 1.0 - alpha)
        if failed:
            return finish(SolveStatus.NUMERICAL_FAILURE, iteration, rho_p, rho_d, rho_A)

        alpha = max_step(dxw, dxs, dzw, dzs, dtau, dkappa, _ALPHA0)
        xw = xw + alpha * dxw
        xs = xs + alpha * dxs
        ye = ye + alpha * dye
        yb = yb + alpha * dyb
        zw = zw + alpha * dzw
        zs = zs + alpha * dzs
        tau = tau + alpha * dtau
        kappa = kappa + alpha * dkappa

        (rp_e, rp_b, rd_w, rd_s, rg, cx, by, mu,
         rho_p, rho_d, rho_g, rho_A, rho_mu, raw_p, raw_d) = indicators()

        # The embedding converges with tau -> 0 exactly when no finite
        # optimal pair exists; by > 0 then witnesses primal infeasibility.
        inf1 = (raw_p <= tol and raw_d <= tol and rho_g <= tol
                and tau <= tol * max(1.0, kappa))
        inf2 = rho_mu <= tol and tau <= tol * min(1.0, kappa)
        if inf1 or inf2:
            if by > tol and _farkas_certified(G, ye, yb, by):
                return finish(SolveStatus.INFEASIBLE, iteration, rho_p, rho_d, rho_A)
            return finish(SolveStatus.NUMERICAL_FAILURE, iteration, rho_p, rho_d, rho_A)

    return finish(SolveStatus.OPTIMAL, iteration, rho_p, rho_d, rho_A)


def _farkas_certified(G, ye, yb, by) -> bool:
    """Check A^T y <= eps and b^T y > 0 for the infeasibility witness."""
    at_w = _split_tdot(G, ye) + yb
    viol = max(float(np.max(at_w, initial=0.0)), float(np.max(yb, initial=0.0)), 0.0)
    return viol <= _FARKAS_RTOL * by
