"""Answers computed apart from the program, and the checks that use them.

Nothing here imports handsoff.  Plants are discretized with
``scipy.linalg.expm`` of the augmented matrix, LP optima come from HiGHS
(``scipy.optimize.linprog``) with a dual bound evaluated over every column,
minimum supports from a HiGHS MILP (``scipy.optimize.milp``), and two
instance families have closed forms.  Each check returns a list of
violations; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import functools
import io
import json
from dataclasses import dataclass

import numpy as np

# The program's documented defaults (SolverOptions): interior-point gap
# tolerance, terminal feasibility tolerance, polish acceptance slack and
# the sparsity threshold that defines a support atom.
OPT_TOL = 1e-8
FEAS_TOL = 1e-6
POLISH_ACCEPT = 1e-7
THRESHOLD = 1e-6
# Objective slack a correct answer may carry above the LP optimum.
SLACK = OPT_TOL + POLISH_ACCEPT


@dataclass(frozen=True)
class Instance:
    """One control problem as the benchmark hands it to the program."""

    name: str
    A: np.ndarray
    B: np.ndarray
    x0: np.ndarray
    T: float
    N: int
    witness_support: int | None = None

    @property
    def h(self) -> float:
        return self.T / self.N

    def as_document(self) -> str:
        """The problem-file form read by ``handsoff solve --input``."""
        return json.dumps({"A": self.A.tolist(), "B": self.B.tolist(),
                           "x0": self.x0.tolist(), "T": self.T, "N": self.N},
                          indent=2) + "\n"


# scipy's subpackages are imported where they are used: scipy.optimize
# takes about 0.3 s to import and scipy.linalg about 0.4 s, which would
# otherwise land in every setup_s sample, and cli_solve's parent process
# needs neither to build its inputs.


def discretize(A: np.ndarray, B: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Zero-order-hold pair (Ad, Bd) from one exponential of [[A, B], [0, 0]] h."""
    import scipy.linalg

    n, m = B.shape
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = A
    aug[:n, n:] = B
    E = scipy.linalg.expm(aug * h)
    return E[:n, :n], E[:n, n:]


def reachability(A, B, x0, T, N) -> tuple[np.ndarray, np.ndarray]:
    """(Phi, c) with terminal state c + Phi @ U; block j of Phi is Ad^(N-1-j) Bd."""
    Ad, Bd = discretize(A, B, T / N)
    n, m = Bd.shape
    Phi = np.empty((n, m * N))
    block = Bd
    for j in range(N - 1, -1, -1):
        Phi[:, j * m:(j + 1) * m] = block
        block = Ad @ block
    c = np.asarray(x0, dtype=float)
    for _ in range(N):
        c = Ad @ c
    return Phi, c


@dataclass(frozen=True)
class LPOptimum:
    """Bracket [lower, upper] on the fuel LP optimum and the dual behind it."""

    lower: float
    upper: float
    y: np.ndarray


def _dual_value(Phi, w, b, y) -> float:
    # Lagrangian dual of min w|U| s.t. Phi U = b, |U| <= 1: valid for any y.
    return float(b @ y - np.sum(np.maximum(0.0, np.abs(Phi.T @ y) - w)))


def lp_optimum(Phi: np.ndarray, w: np.ndarray, b: np.ndarray,
               rel_gap: float = 1e-10) -> LPOptimum:
    """Optimum of min w @ |U| s.t. Phi U = b, |U| <= 1, by column generation.

    HiGHS solves the LP restricted to a column set, with elastic rows so
    every restriction is feasible.  Its equality duals y price every
    column; the dual value at y is a lower bound on the full optimum and
    the restricted optimum an upper bound.  Columns that y prices beyond
    their weight join the set until the two bounds meet.  Only a few
    thousand of the mN columns are ever handed to HiGHS, which keeps an
    n=8, N=20000 instance near one second instead of ten or more.
    """
    from scipy.optimize import linprog

    n, K = Phi.shape
    y0 = np.linalg.lstsq(Phi @ Phi.T, b, rcond=None)[0]
    cols = np.sort(np.argsort(-np.abs(Phi.T @ y0) / w)[:max(4 * n, 50)])
    penalty = 1e3 * (1.0 + float(np.max(w)))
    for _ in range(200):
        P = Phi[:, cols]
        k = cols.size
        res = linprog(np.concatenate([w[cols], w[cols], np.full(2 * n, penalty)]),
                      A_eq=np.hstack([P, -P, np.eye(n), -np.eye(n)]), b_eq=b,
                      bounds=[(0.0, 1.0)] * (2 * k) + [(0.0, None)] * (2 * n),
                      method="highs-ds")
        if res.status != 0:
            raise RuntimeError(f"HiGHS restricted LP failed: {res.message}")
        y = res.eqlin.marginals
        upper = float(w[cols] @ (res.x[:k] + res.x[k:2 * k]))
        lower = _dual_value(Phi, w, b, y)
        elastic = float(np.sum(res.x[2 * k:]))
        priced = np.abs(Phi.T @ y) - w
        priced[cols] = -np.inf
        entering = np.flatnonzero(priced > 1e-12 * float(np.max(w)))
        if elastic == 0.0 and upper - lower <= rel_gap * (1.0 + abs(upper)):
            return LPOptimum(lower, upper, y)
        if entering.size == 0:
            if elastic > 0.0:
                penalty *= 1e3
                continue
            return LPOptimum(lower, upper, y)
        top = entering[np.argsort(-priced[entering])][:max(2 * n, 200)]
        cols = np.union1d(cols, top)
    raise RuntimeError("column generation did not converge")


def lp_infeasible(Phi: np.ndarray, b: np.ndarray) -> bool:
    """HiGHS verdict on whether some |U| <= 1 reaches Phi U = b."""
    from scipy.optimize import linprog

    K = Phi.shape[1]
    res = linprog(np.zeros(K), A_eq=Phi, b_eq=b, bounds=(-1.0, 1.0), method="highs")
    if res.status not in (0, 2):
        raise RuntimeError(f"HiGHS feasibility LP failed: {res.message}")
    return res.status == 2


def min_support(Phi: np.ndarray, c: np.ndarray) -> int:
    """Fewest atoms whose |U| <= 1 reaches the target, by HiGHS MILP.

    Feasible means the phase-1 residual ||Phi U + c||_1 is within the
    tolerance the program documents for its oracle, FEAS_TOL (1 + ||c||).
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    n, K = Phi.shape
    tol = FEAS_TOL * (1.0 + float(np.linalg.norm(c)))
    # variables: U (K), z (K, binary), s+ (n), s- (n)
    eye_k, eye_n = np.eye(K), np.eye(n)
    rows = [
        LinearConstraint(np.hstack([Phi, np.zeros((n, K)), -eye_n, eye_n]), -c, -c),
        LinearConstraint(np.hstack([eye_k, -eye_k, np.zeros((K, 2 * n))]), -np.inf, 0.0),
        LinearConstraint(np.hstack([-eye_k, -eye_k, np.zeros((K, 2 * n))]), -np.inf, 0.0),
        LinearConstraint(np.concatenate([np.zeros(2 * K), np.ones(2 * n)])[None, :], 0.0, tol),
    ]
    res = milp(np.concatenate([np.zeros(K), np.ones(K), np.zeros(2 * n)]),
               constraints=rows,
               integrality=np.concatenate([np.zeros(K), np.ones(K), np.zeros(2 * n)]),
               bounds=Bounds(np.concatenate([-np.ones(K), np.zeros(K + 2 * n)]),
                             np.concatenate([np.ones(2 * K), np.full(2 * n, np.inf)])))
    if res.status != 0:
        raise RuntimeError(f"HiGHS MILP failed: {res.message}")
    return int(round(res.fun))


def rest_to_rest_fuel(T: float, N: int) -> float:
    """Certified optimal fuel for the double integrator from (1, 0), LP-free.

    The constraints reduce to sum(u) = 0 and sum(u_j a_j) = -1/h^2 with
    levers a_j = N - j - 1/2.  Mass goes greedily on the widest (early,
    late) slot pairs, and multipliers (y, z) pricing every slot prove the
    construction optimal.
    """
    h = T / N
    a = N - np.arange(N) - 0.5
    u = np.zeros(N)
    remaining = 1.0 / h**2
    last = None
    for i in range(N // 2):
        lever = a[i] - a[N - 1 - i]
        if lever <= 0 or remaining <= 0:
            break
        mass = min(1.0, remaining / lever)
        u[i], u[N - 1 - i] = -mass, mass
        remaining -= mass * lever
        last = i
        if mass < 1.0:
            break
    if last is None or remaining > 1e-9:
        raise ValueError(f"horizon T={T} too short for the rest-to-rest construction")
    y = -2.0 / (a[last] - a[N - 1 - last])
    price = y * a + (1.0 - y * a[N - 1 - last])
    ok = np.where(u <= -1.0, price <= -1.0 + 1e-12,
                  np.where(u >= 1.0, price >= 1.0 - 1e-12,
                           np.where(u != 0.0, np.abs(np.abs(price) - 1.0) <= 1e-9,
                                    np.abs(price) <= 1.0 + 1e-12)))
    if not np.all(ok):
        raise ValueError("multipliers do not certify the rest-to-rest control")
    return h * float(np.abs(u).sum())


def unstable_scalar_optimum(a: float, b: float, x0: float, T: float, N: int,
                            ) -> tuple[float, np.ndarray, np.ndarray]:
    """Discrete optimum of x' = a x + b u steering x0 to 0, in closed form.

    In initial-state coordinates the target reads sum_j g_j u_j = -x0 with
    g_j = Bd Ad^-(j+1), which falls with j, so the fuel-optimal control
    spends full thrust on the earliest slots (a fractional knapsack).
    Returns (fuel, U, g).
    """
    h = T / N
    Ad = np.exp(a * h)
    Bd = b * np.expm1(a * h) / a
    g = Bd * Ad ** -(np.arange(N) + 1.0)
    sign = np.sign(x0 * Bd)
    g_abs = np.abs(g)
    u = np.zeros(N)
    remaining = abs(x0)
    for j in range(N):
        take = min(1.0, remaining / g_abs[j])
        u[j] = -sign * take
        remaining -= take * g_abs[j]
        if remaining <= 0.0:
            break
    if remaining > 1e-12 * abs(x0):
        raise ValueError("target not reachable with |u| <= 1")
    return h * float(np.abs(u).sum()), u, g


# ---- checks -------------------------------------------------------------


def atoms(U) -> int:
    """Support atoms: (channel, slot) entries above the sparsity threshold."""
    return 0 if U is None else int(np.count_nonzero(np.abs(U) > THRESHOLD))


class Reference:
    """Independent answers for one instance, each computed on first use."""

    def __init__(self, inst: Instance):
        self.inst = inst

    @functools.cached_property
    def reach(self) -> tuple[np.ndarray, np.ndarray]:
        i = self.inst
        return reachability(i.A, i.B, i.x0, i.T, i.N)

    @functools.cached_property
    def optimum(self) -> LPOptimum:
        Phi, c = self.reach
        return lp_optimum(Phi, np.full(Phi.shape[1], self.inst.h), -c)

    @functools.cached_property
    def infeasible(self) -> bool:
        Phi, c = self.reach
        return lp_infeasible(Phi, -c)

    @functools.cached_property
    def min_support(self) -> int:
        return min_support(*self.reach)


def check_control(known: Reference, U, objective: float) -> list[str]:
    """Admissible, reaches the origin, and prices at the LP optimum."""
    inst = known.inst
    Phi, c = known.reach
    if U is None:
        return ["no control returned"]
    U = np.asarray(U, dtype=float)
    if U.shape != (Phi.shape[1],) or not np.all(np.isfinite(U)):
        return [f"control has shape {U.shape} or non-finite entries"]
    out = []
    if np.max(np.abs(U)) > 1.0 + 1e-9:
        out.append(f"bound: max |u| = {np.max(np.abs(U)):.12g}")
    fuel = inst.h * float(np.abs(U).sum())
    if abs(objective - fuel) > 1e-9 * (1.0 + abs(fuel)):
        out.append(f"objective: reported {objective!r}, control prices at {fuel!r}")
    residual = c + Phi @ U
    tol = FEAS_TOL * (1.0 + float(np.linalg.norm(inst.x0)))
    if np.linalg.norm(residual) > tol:
        out.append(f"terminal: |x(T)| = {np.linalg.norm(residual):.3e} > {tol:.3e}")
    opt = known.optimum
    low = opt.lower - float(np.linalg.norm(opt.y) * np.linalg.norm(residual)) \
        - 1e-12 * (1.0 + abs(opt.lower))
    high = opt.upper + SLACK * (1.0 + abs(opt.upper))
    if not low <= objective <= high:
        out.append(f"optimum: objective {objective!r} outside HiGHS bracket [{low!r}, {high!r}]")
    return out


def check_certified(objective: float, certified: float) -> list[str]:
    if abs(objective - certified) > SLACK * (1.0 + certified):
        return [f"certified: objective {objective!r} vs certified fuel {certified!r}"]
    return []


def check_nonincreasing(objectives: list[float]) -> list[str]:
    bad = [(a, b) for a, b in zip(objectives, objectives[1:]) if b > a + 1e-12]
    return [f"monotone: objective rose with the horizon {bad}"] if bad else []


def check_unstable(inst: Instance, status: str, U, objective: float) -> list[str]:
    fuel, U_star, g = unstable_scalar_optimum(float(inst.A[0, 0]), float(inst.B[0, 0]),
                                              float(inst.x0[0]), inst.T, inst.N)
    out = [] if status == "optimal" else [f"status: {status}, expected optimal"]
    if U is None:
        return out + ["no control returned"]
    U = np.asarray(U, dtype=float)
    residual = abs(float(inst.x0[0]) + float(g @ U))
    if residual > FEAS_TOL * (1.0 + abs(float(inst.x0[0]))):
        out.append(f"initial-coordinate residual {residual:.3e}")
    out += check_certified(objective, fuel)
    if np.max(np.abs(U - U_star)) > 1e-6:
        out.append(f"control differs from the greedy optimum by {np.max(np.abs(U - U_star)):.3e}")
    return out


def parse_cli_outputs(document: str, table: str, m: int):
    """(doc, U, X) from a `handsoff solve` result document and trajectory CSV."""
    doc = json.loads(document)
    rows = list(csv.reader(io.StringIO(table)))
    header, body = rows[0], np.array(rows[1:], dtype=float)
    n = len(header) - 1 - m
    expected = ["t"] + [f"u{i + 1}" for i in range(m)] + [f"x{i + 1}" for i in range(n)]
    if header != expected:
        raise ValueError(f"CSV header {header}, expected {expected}")
    return doc, body[:-1, 1:1 + m].ravel(), body[:, 1 + m:]


def check_trajectory(inst: Instance, U, X) -> list[str]:
    """The reported state rows follow x[k+1] = Ad x[k] + Bd u[k] and end at 0."""
    Ad, Bd = discretize(inst.A, inst.B, inst.h)
    steps = np.asarray(U).reshape(inst.N, -1)
    x = np.asarray(inst.x0, dtype=float)
    worst = float(np.max(np.abs(X[0] - x)))
    for k in range(inst.N):
        x = Ad @ x + Bd @ steps[k]
        worst = max(worst, float(np.max(np.abs(X[k + 1] - x))))
    tol = FEAS_TOL * (1.0 + float(np.linalg.norm(inst.x0)))
    out = []
    if worst > tol:
        out.append(f"trajectory: reported states differ from the recursion by {worst:.3e}")
    if np.linalg.norm(X[-1]) > tol:
        out.append(f"terminal: reported |x(T)| = {np.linalg.norm(X[-1]):.3e}")
    return out
