"""Zero-order-hold discretization and finite-horizon reachability data.

Converts a continuous-time problem into the data the optimizer consumes:
the one-step pair (Ad, Bd), the reachability matrix Phi whose block j is
Ad^(N-1-j) Bd, and the terminal offset c = Ad^N x0, so that the terminal
state of any stacked control U is c + Phi @ U.  A command builds this
once and hands the same DiscretizedPlant to every later stage.

Phi and c are built by doubling: with the last L blocks of Phi known,
Ad^L times them gives the next L, and Ad^L is then squared; c takes the
binary powers of Ad that N needs from the same squarings.  A horizon of
N slots costs O(log N) small matrix products (34 at N = 20000) rather
than 2N.  Each block is a product of O(log N) factors instead of
N - 1 - j, so it differs from the step-by-step recursion only by
roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput, NonpositiveHorizon, ProblemTooLarge
from .model import MEMORY_GUARD, ControlProblem, PlantModel

# Degree-13 diagonal Pade coefficients and the matching 1-norm threshold
# (the standard choice for double precision).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.4


def matrix_exponential(M: np.ndarray) -> np.ndarray:
    """e^M by scaling-and-squaring with the degree-13 Pade approximant.

    The input is scaled by 2^-s until its 1-norm drops below the degree-13
    threshold, the rational approximant is evaluated, and the result is
    squared s times.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"matrix exponential needs a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise NonFiniteInput("matrix exponential of a non-finite matrix")
    norm = np.linalg.norm(M, 1)
    if norm == 0.0:
        return np.eye(M.shape[0])
    squarings = int(np.ceil(np.log2(norm / _THETA13))) if norm > _THETA13 else 0
    A = M / (2.0 ** squarings) if squarings else M
    b = _PADE13
    ident = np.eye(A.shape[0])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A2 @ A4
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
    E = np.linalg.solve(V - U, V + U)
    for _ in range(squarings):
        E = E @ E
    return E


def zoh_discretize(plant: PlantModel, h: float) -> tuple[np.ndarray, np.ndarray]:
    """One-step transition pair (Ad, Bd) under a piecewise-constant input.

    Both blocks come from a single exponential of the augmented matrix
    [[A, B], [0, 0]] * h, which needs no invertibility assumption on A.
    The plant checked its shapes when it was built; only h is checked here.
    """
    if not (np.isfinite(h) and h > 0):
        raise NonpositiveHorizon(f"step length must be positive, got {h}")
    n, m = plant.n, plant.m
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = plant.A
    aug[:n, n:] = plant.B
    E = matrix_exponential(aug * h)
    return E[:n, :n].copy(), E[:n, n:].copy()


@dataclass(frozen=True)
class DiscretizedPlant:
    """Finite-horizon data: terminal state = c + Phi @ U."""

    Ad: np.ndarray
    Bd: np.ndarray
    h: float
    Phi: np.ndarray  # n x (m*N); block j equals Ad^(N-1-j) Bd
    c: np.ndarray    # Ad^N x0
    x0: np.ndarray   # initial state

    def __post_init__(self):
        for name in ("Ad", "Bd", "Phi", "c", "x0"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.Ad.shape[0]

    @property
    def m(self) -> int:
        return self.Bd.shape[1]

    @property
    def N(self) -> int:
        return self.Phi.shape[1] // self.Bd.shape[1]


def build_reachability(problem: ControlProblem) -> DiscretizedPlant:
    """Assemble the reachability matrix and terminal offset for a problem.

    Phi is filled right to left by doubling (see the module docstring):
    its last block is Bd, and while L < N slots are filled, P = Ad^L
    times the last min(L, N - L) blocks fills the ones before them.  The
    same P = Ad^(2^i) multiply x0 for each bit 2^i of N, giving c = Ad^N x0.
    A plant that grows too fast for float64 over the horizon raises
    NonFiniteInput here, before any later stage sees the overflow.  Phi's
    n*m*N floats past the memory guard raise ProblemTooLarge before
    anything is allocated.
    """
    n, m, N = problem.plant.n, problem.plant.m, int(problem.N)
    K = m * N
    if n * K > MEMORY_GUARD:
        raise ProblemTooLarge(f"n*m*N = {n * K} exceeds the memory guard of {MEMORY_GUARD}")
    h = problem.T / N
    Phi = np.empty((n, K))
    with np.errstate(over="ignore", invalid="ignore"):
        Ad, Bd = zoh_discretize(problem.plant, h)
        Phi[:, K - m:] = Bd
        c = problem.x0
        power, L = Ad, 1  # power = Ad^L
        while True:
            if N & L:
                c = power @ c
            take = min(L, N - L)
            if take > 0:
                Phi[:, K - (L + take) * m:K - L * m] = power @ Phi[:, K - take * m:]
            L *= 2
            if L > N:
                break
            power = power @ power
    if not all(np.isfinite(a).all() for a in (Ad, Bd, Phi, c)):
        raise NonFiniteInput(
            f"reachability data overflows float64: e^(A t) is too large over T = {problem.T}")
    return DiscretizedPlant(Ad=Ad, Bd=Bd, h=h, Phi=Phi, c=c, x0=problem.x0)

