"""Dense primal-dual interior-point solver for box-constrained LPs.

Solves
    minimize    c @ x
    subject to  A @ x == b,   0 <= x <= u,

with Mehrotra predictor-corrector steps on the homogeneous self-dual
embedding of the equivalent standard-form program (upper bounds become
rows x + s = u with slack variables s).  The embedding makes status
detection certificate-based: an infeasible flag is only reported after
the scaled dual iterate passes an explicit Farkas check.

The bound rows are never materialized.  Each KKT solve eliminates the
diagonal slack blocks first, leaving an ne x ne Schur complement (ne =
number of equality rows), so one iteration costs O(ne^2 nv + ne^3) for
nv variables.
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
class LPProblem:
    """min c @ x subject to A @ x == b and 0 <= x <= u."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float).ravel()
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float).ravel()
        u = np.asarray(self.u, dtype=float).ravel()
        if A.ndim != 2:
            raise DimensionMismatch(f"equality matrix must be 2-D, got shape {A.shape}")
        ne, nv = A.shape
        if c.size != nv or u.size != nv or b.size != ne:
            raise DimensionMismatch(
                f"inconsistent LP dimensions: A is {ne} x {nv}, "
                f"c has {c.size}, b has {b.size}, u has {u.size}")
        if not all(np.all(np.isfinite(a)) for a in (c, A, b, u)):
            raise NonFiniteInput("LP data contains non-finite entries")
        if np.any(u <= 0):
            raise DimensionMismatch("all upper bounds must be strictly positive")
        for name, arr in (("c", c), ("A", A), ("b", b), ("u", u)):
            object.__setattr__(self, name, arr)

    @property
    def n_rows(self) -> int:
        return self.A.shape[0]

    @property
    def n_vars(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class IPResult:
    """Raw interior-point outcome for a box-constrained LP."""

    status: SolveStatus
    x: np.ndarray | None
    y: np.ndarray | None          # equality duals
    z_lower: np.ndarray | None    # duals of x >= 0
    z_upper: np.ndarray | None    # duals of x <= u
    objective: float
    dual_objective: float
    primal_residual: float
    dual_residual: float
    gap_residual: float
    iterations: int
    farkas_y: np.ndarray | None = None


def _make_kkt_solver(G, dw, ds):
    """Factor the normal-equations operator for the current scaling.

    dw and ds are the diagonal primal/dual ratios of the box variables
    and their slacks.  Returns a solver for M v = r with
    M = [[G Dw G^T, G Dw], [Dw G^T, Dw + Ds]],
    with one pass of iterative refinement: M gets very ill-conditioned on
    degenerate faces and the refined solve buys several digits there.
    The Schur complement S = L L^T takes two triangular solves, or least
    squares when S is not numerically positive definite.
    """
    E = dw + ds
    dtil = dw * (ds / E)  # harmonic combination without the overflowing product
    S = (G * dtil) @ G.T
    try:
        L = np.linalg.cholesky(S)

        def ssolve(r):
            return np.linalg.solve(L.T, np.linalg.solve(L, r))
    except np.linalg.LinAlgError:
        def ssolve(r):
            return np.linalg.lstsq(S, r, rcond=None)[0]

    def solve_once(re, rb):
        ve = ssolve(re - G @ (dw / E * rb))
        vb = (rb - dw * (G.T @ ve)) / E
        return ve, vb

    def solve(re, rb):
        ve, vb = solve_once(re, rb)
        res_e = re - (G @ (dw * (G.T @ ve)) + G @ (dw * vb))
        res_b = rb - (dw * (G.T @ ve) + E * vb)
        if np.all(np.isfinite(res_e)) and np.all(np.isfinite(res_b)):
            ce, cb = solve_once(res_e, res_b)
            ve = ve + ce
            vb = vb + cb
        return ve, vb

    return solve


def solve_ip(lp: LPProblem, tol: float = 1e-8, maxiter: int = 200) -> IPResult:
    """Solve a box-constrained LP to the requested relative tolerance.

    Terminates optimal when the relative primal and dual residuals and
    the relative duality gap all drop below ``tol``.  An infeasible
    status carries a Farkas certificate in ``farkas_y``: A^T farkas_y <=
    eps componentwise (treating the bound rows) while b^T farkas_y > 0.
    """
    ne, nv = lp.A.shape

    # Row equilibration of the equality block; solutions are unchanged and
    # the duals are rescaled on exit.
    row_scale = np.maximum(np.max(np.abs(lp.A), axis=1), np.abs(lp.b))
    row_scale[row_scale == 0] = 1.0
    G = lp.A / row_scale[:, None]
    beq = lp.b / row_scale
    cscale = float(np.max(np.abs(lp.c))) if nv else 1.0
    if cscale == 0.0:
        cscale = 1.0
    c = lp.c / cscale
    u = lp.u

    def A_dot(xw, xs):
        return G @ xw, xw + xs

    def AT_dot(ye, yb):
        return G.T @ ye + yb, yb

    # Blind start of the homogeneous embedding.
    xw = np.ones(nv)
    xs = np.ones(nv)
    zw = np.ones(nv)
    zs = np.ones(nv)
    ye = np.zeros(ne)
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
            z_lo = cscale * zw / tau
            z_up = cscale * (-yb) / tau
            obj = cscale * (c @ xw) / tau
            dobj = cscale * (beq @ ye + u @ yb) / tau
            return IPResult(status, x, y, z_lo, z_up, float(obj), float(dobj),
                            rho_p, rho_d, rho_A, it)
        farkas = None
        if status is SolveStatus.INFEASIBLE:
            farkas = np.concatenate([ye / row_scale, yb])
        return IPResult(status, None, None, None, None, float("nan"), float("nan"),
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
            ve, vb = solve_kkt(r2e + G @ tw, r2b + tw + ts)
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
            if by > tol and _farkas_certified(G, beq, u, ye, yb, by):
                return finish(SolveStatus.INFEASIBLE, iteration, rho_p, rho_d, rho_A)
            return finish(SolveStatus.NUMERICAL_FAILURE, iteration, rho_p, rho_d, rho_A)

    return finish(SolveStatus.OPTIMAL, iteration, rho_p, rho_d, rho_A)


def _farkas_certified(G, beq, u, ye, yb, by) -> bool:
    """Check A^T y <= eps and b^T y > 0 for the infeasibility witness."""
    at_w = G.T @ ye + yb
    viol = max(float(np.max(at_w, initial=0.0)), float(np.max(yb, initial=0.0)), 0.0)
    return viol <= _FARKAS_RTOL * by
