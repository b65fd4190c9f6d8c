"""Plant and problem data types plus the problem-file and CSV formats.

Problem files carry continuous-time data only (A, B, x0, T, N, weights);
discretization always happens inside the tool so the step length h = T/N
is consistent by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    LengthMismatch,
    NonFiniteInput,
    NonpositiveHorizon,
    NonpositiveWeight,
    ParseError,
)

# Reject problems whose stacked control vector would exceed this length;
# the reachability matrix is dense n x (m*N).
MEMORY_GUARD = 10**7


def _frozen_array(values) -> np.ndarray:
    a = np.array(values, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class PlantModel:
    """Continuous-time LTI pair: dx/dt = A x + B u.

    Construction checks the pair: DimensionMismatch unless A is n x n
    and B is n x m with n, m >= 1, NonFiniteInput for NaN/inf entries.
    """

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A, B = _frozen_array(self.A), _frozen_array(self.B)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
            raise DimensionMismatch(f"A must be square and nonempty, got shape {A.shape}")
        n = A.shape[0]
        if B.ndim != 2 or B.shape[0] != n or B.shape[1] < 1:
            raise DimensionMismatch(f"B must be {n} x m with m >= 1, got shape {B.shape}")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
            raise NonFiniteInput("plant matrices contain non-finite entries")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class ControlProblem:
    """Steering task: drive x0 to the origin over [0, T] on an N-slot grid.

    ``weights`` are the per-channel fuel weights; omitted weights default
    to 1 for every channel (uniform weighting).  Construction runs
    ``validate_problem``, so every ControlProblem is well formed.
    """

    plant: PlantModel
    x0: np.ndarray
    T: float
    N: int
    weights: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "x0", _frozen_array(np.atleast_1d(self.x0)))
        if self.weights is None:
            w = np.ones(self.plant.m)
        else:
            w = np.atleast_1d(self.weights)
        object.__setattr__(self, "weights", _frozen_array(w))
        validate_problem(self)

    @property
    def h(self) -> float:
        return self.T / self.N


@dataclass(frozen=True, init=False)
class ControlSignal:
    """Piecewise-constant control on the grid, stored by its support.

    ``U`` stacks u[0], ..., u[N-1], each block of length m, so it has
    exactly m*N entries; ``h`` is the slot length.  A hands-off control
    is mostly zero, so the signal keeps only ``support``, the indices of
    U's nonzero entries, and ``values``, those entries: 16 bytes per
    nonzero instead of 8 per slot and channel.  ``U`` is rebuilt on each
    access as a read-only array, bit for bit the one given (a -0.0 entry
    is kept).  ``dataclasses.replace(signal, U=...)`` builds a new signal.
    """

    support: np.ndarray = field(init=False)
    values: np.ndarray = field(init=False)
    h: float
    m: int
    N: int

    def __init__(self, U: np.ndarray, h: float, m: int, N: int):
        U = np.asarray(U, dtype=float).ravel()
        if U.size != m * N:
            raise LengthMismatch(
                f"signal has {U.size} entries, expected m*N = {m * N}")
        if not np.all(np.isfinite(U)):
            raise NonFiniteInput("control signal contains non-finite entries")
        support = np.flatnonzero(U.view(np.uint64))  # nonzero bits, so -0.0 too
        values = U[support]
        support.flags.writeable = values.flags.writeable = False
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "N", N)

    @property
    def U(self) -> np.ndarray:
        U = np.zeros(self.m * self.N)
        U[self.support] = self.values
        U.flags.writeable = False
        return U

    @property
    def T(self) -> float:
        return self.h * self.N

    def as_steps(self) -> np.ndarray:
        """The control as an (N, m) array, one row per grid slot."""
        return self.U.reshape(self.N, self.m)


def validate_problem(problem: ControlProblem) -> ControlProblem:
    """Check x0, T, N and the weights against the plant; return the problem.

    Malformed input is reported, never repaired: DimensionMismatch for an
    x0 or weights shape that does not fit the plant, NonpositiveHorizon for
    T <= 0 or N < 1, NonpositiveWeight for any weight <= 0, NonFiniteInput
    for NaN/inf.  The plant checked itself when it was built.
    """
    n = problem.plant.n
    if problem.x0.ndim != 1 or problem.x0.size != n:
        raise DimensionMismatch(f"x0 must have length n = {n}, got shape {problem.x0.shape}")
    if not np.all(np.isfinite(problem.x0)):
        raise NonFiniteInput("x0 contains non-finite entries")
    if not (np.isfinite(problem.T) and problem.T > 0):
        raise NonpositiveHorizon(f"horizon T must be positive, got {problem.T}")
    if int(problem.N) != problem.N or problem.N < 1:
        raise NonpositiveHorizon(f"grid size N must be a positive integer, got {problem.N}")
    validate_weights(problem.weights, problem.plant.m)
    return problem


def validate_weights(weights, m: int) -> np.ndarray:
    """One weight per channel as a float array, checked as ``validate_problem`` says."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (m,):
        raise DimensionMismatch(f"weights must have length m = {m}, got shape {weights.shape}")
    if not np.all(np.isfinite(weights)):
        raise NonFiniteInput("weights contain non-finite entries")
    if np.any(weights <= 0):
        raise NonpositiveWeight("all weights must be strictly positive")
    return weights


_REQUIRED_FIELDS = ("A", "B", "x0", "T", "N")


def _field_array(doc: dict, key: str) -> np.ndarray:
    try:
        a = np.asarray(doc[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(key, f"field {key!r} is not a numeric array: {exc}") from exc
    if not np.all(np.isfinite(a)):
        raise ParseError(key, f"field {key!r} contains non-finite values")
    return a


def read_problem(text: str) -> ControlProblem:
    """Parse a problem document (JSON object) into a validated problem.

    Schema: {"A": [[...]], "B": [[...]], "x0": [...], "T": number,
    "N": integer, "weights": [...] (optional)}.  Matrices are arrays of
    rows.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("<document>", f"not valid JSON (line {exc.lineno}): {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError("<document>", "top level must be a JSON object")
    for key in _REQUIRED_FIELDS:
        if key not in doc:
            raise ParseError(key)
    A = _field_array(doc, "A")
    B = _field_array(doc, "B")
    x0 = _field_array(doc, "x0")
    T = doc["T"]
    if isinstance(T, bool) or not isinstance(T, (int, float)):
        raise ParseError("T", "field 'T' must be a number")
    N = doc["N"]
    if isinstance(N, bool) or not isinstance(N, int):
        raise ParseError("N", "field 'N' must be an integer")
    weights = None
    if "weights" in doc and doc["weights"] is not None:
        weights = _field_array(doc, "weights")
    return ControlProblem(plant=PlantModel(A=A, B=B), x0=x0, T=float(T), N=N,
                          weights=weights)


def write_problem(problem: ControlProblem) -> str:
    """Serialize a problem back to the document format.

    Uses shortest round-trip float formatting, so read_problem recovers
    every field bit-exactly.
    """
    doc = {
        "A": problem.plant.A.tolist(),
        "B": problem.plant.B.tolist(),
        "x0": problem.x0.tolist(),
        "T": problem.T,
        "N": int(problem.N),
        "weights": problem.weights.tolist(),
    }
    return json.dumps(doc, indent=2) + "\n"


def write_signal(signal: ControlSignal, trajectory: np.ndarray) -> str:
    """Render a control signal and its state trajectory as CSV.

    One row per grid point, header "t,u1,...,um,x1,...,xn".  The last row
    repeats the final control value so every row carries m control
    entries.  Floats use 17 significant digits.
    """
    traj = np.asarray(trajectory, dtype=float)
    if traj.ndim != 2 or traj.shape[0] != signal.N + 1:
        raise LengthMismatch(
            f"trajectory must be (N+1) x n with N+1 = {signal.N + 1}, got shape {traj.shape}")
    n = traj.shape[1]
    steps = signal.as_steps()
    header = ("t,"
              + ",".join(f"u{i + 1}" for i in range(signal.m)) + ","
              + ",".join(f"x{i + 1}" for i in range(n)))
    lines = [header]
    for k in range(signal.N + 1):
        u = steps[min(k, signal.N - 1)]
        row = [k * signal.h, *u, *traj[k]]
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"
