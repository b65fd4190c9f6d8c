"""Shared instance generators and oracles for the test suite.

Feasible instances are built backwards from an admissible witness
control, so feasibility holds by construction.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from handsoff import ControlProblem, PlantModel, build_reachability, zoh_discretize


def stable_plant(rng: np.random.Generator, n: int, m: int) -> PlantModel:
    A = rng.normal(size=(n, n))
    shift = float(np.max(np.real(np.linalg.eigvals(A)))) + rng.uniform(0.2, 1.0)
    A = A - shift * np.eye(n)
    B = rng.normal(size=(n, m))
    return PlantModel(A=A, B=B)


def priced_dual(lp, y) -> float:
    """The dead-zone bound D = b @ y - sum_j (|M_j @ y| - w_j)_+ of ``lp``.

    The dual of the L1 program is unconstrained in y, so any y gives a
    lower bound on the optimum.
    """
    return float(lp.b @ y - np.maximum(np.abs(lp.M.T @ y) - lp.w, 0.0).sum())


def feasible_problem(rng: np.random.Generator, n: int, m: int, N: int,
                     T: float, witness_scale: float = 0.5,
                     witness_support: int | None = None) -> ControlProblem:
    """Problem whose target is reachable by a known admissible control."""
    plant = stable_plant(rng, n, m)
    probe = ControlProblem(plant=plant, x0=np.zeros(n), T=T, N=N)
    dp = build_reachability(probe)
    U = rng.uniform(-witness_scale, witness_scale, m * N)
    if witness_support is not None:
        keep = rng.choice(m * N, size=witness_support, replace=False)
        mask = np.zeros(m * N, dtype=bool)
        mask[keep] = True
        U = np.where(mask, U, 0.0)
    Ad, _ = zoh_discretize(plant, T / N)
    x0 = -np.linalg.solve(np.linalg.matrix_power(Ad, N), dp.Phi @ U)
    return ControlProblem(plant=plant, x0=x0, T=T, N=N)


def equivalence_instance(seed: int) -> ControlProblem:
    """One instance of the exhaustive-search set (criterion 4), m*N <= 16."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 3))
    N = int(rng.integers(4, 16 // m + 1))
    T = float(rng.uniform(1.0, 5.0))
    return feasible_problem(rng, n, m, N, T, witness_scale=0.8,
                            witness_support=int(rng.integers(1, min(4, m * N))))


def double_integrator(x0, T: float, N: int) -> ControlProblem:
    plant = PlantModel(A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]])
    return ControlProblem(plant=plant, x0=x0, T=T, N=N)


def scalar_integrator(x0: float, T: float, N: int) -> ControlProblem:
    plant = PlantModel(A=[[0.0]], B=[[1.0]])
    return ControlProblem(plant=plant, x0=[x0], T=T, N=N)


def reference_instances():
    """Seeded random plants with n <= 5, m <= 2 and m*N <= 20, then the
    scalar integrator and a plant whose two channels share one column."""
    for seed in range(100):
        rng = np.random.default_rng(700 + seed)
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 3))
        N = int(rng.integers(2, 20 // m + 1))
        # wide witnesses only where the enumeration stays short
        widest = min(6 if m * N <= 8 else 3, m * N)
        yield feasible_problem(rng, n, m, N, T=float(rng.uniform(0.5, 5.0)),
                               witness_scale=0.8,
                               witness_support=int(rng.integers(1, widest + 1)))
    yield scalar_integrator(1.0, 2.0, 8)
    yield twin_channel_problem()


def twin_channel_problem() -> ControlProblem:
    """A plant whose two channels share one column, so every slot's two
    atoms are one column and pairs of them are dependent."""
    rng = np.random.default_rng(800)
    plant = stable_plant(rng, 3, 1)
    twin = PlantModel(A=plant.A, B=np.hstack([plant.B, plant.B]))
    probe = build_reachability(ControlProblem(plant=twin, x0=np.zeros(3), T=2.0, N=5))
    x0 = -np.linalg.solve(np.linalg.matrix_power(probe.Ad, 5),
                          probe.Phi @ np.array([0.9, 0.9, 0, 0, 0, 0, 0, 0, 0.9, 0.9]))
    return ControlProblem(plant=twin, x0=x0, T=2.0, N=5)


def certified_rest_to_rest_fuel(T, N):
    """Certified optimal fuel and control for the double integrator from (1, 0).

    The constraints reduce to sum(u) = 0 and sum(u_j * a_j) = -1/h^2 with
    lever coefficients a_j = N - j - 1/2.  Mass is placed greedily on the
    widest (early, late) slot pairs; optimality of the construction is
    then proved by exhibiting multipliers (y, z) that price every slot
    consistently, so the pair is an oracle independent of any LP solver.
    Returns the fuel and the control U, one entry per slot.
    """
    h = T / N
    a = N - np.arange(N) - 0.5
    M = 1.0 / h**2
    u = np.zeros(N)
    remaining = M
    last_pair = None
    for i in range(N // 2):
        lever = a[i] - a[N - 1 - i]
        if lever <= 0 or remaining <= 0:
            break
        mass = min(1.0, remaining / lever)
        u[i] = -mass
        u[N - 1 - i] = mass
        remaining -= mass * lever
        last_pair = i
        if mass < 1.0:
            break
    assert remaining <= 1e-9, "horizon too short for the greedy construction"
    f = last_pair
    y = -2.0 / (a[f] - a[N - 1 - f])
    z = 1.0 - y * a[N - 1 - f]
    # multiplier consistency: saturated slots priced beyond +-1, empty
    # slots priced inside, the fractional pair priced exactly at +-1
    price = y * a + z
    for j in range(N):
        if u[j] <= -1.0:
            assert price[j] <= -1.0 + 1e-12
        elif u[j] >= 1.0:
            assert price[j] >= 1.0 - 1e-12
        elif u[j] != 0.0:
            assert abs(abs(price[j]) - 1.0) <= 1e-9
        else:
            assert abs(price[j]) <= 1.0 + 1e-12
    assert abs(u.sum()) <= 1e-12 and abs(u @ a - (-M)) <= 1e-9 * M
    return h * float(np.abs(u).sum()), u


def column_generation_draws():
    """The column-generation sweep: (name, problem) for 235 seeded draws.

    Each draw takes n in 1..8 and m in 1..2, then a horizon, then
    ``feasible_problem`` at T in [0.5, 2) with a witness scale in
    [0.3, 0.95).  ``r11_i`` are the draws of ``default_rng(11)``, whose
    horizon is past 2048 / m with probability 0.4 and otherwise in
    20..999; of its 120 draws only the 55 with m N > 2048 are yielded.
    ``r7_i``, ``r12_i`` and ``r13_i`` are 40, 70 and 70 draws of
    ``default_rng(7)``, ``(12)`` and ``(13)`` with the horizon always
    past 2048 / m.  Every yielded problem is past the working set, so
    ``solve`` takes it through column generation.
    """
    for seed, draws in ((11, 120), (7, 40), (12, 70), (13, 70)):
        rng = np.random.default_rng(seed)
        for i in range(draws):
            n, m = int(rng.integers(1, 9)), int(rng.integers(1, 3))
            large = seed != 11 or rng.random() < 0.4
            N = int(rng.integers(2049 // m + 1, 20000 // m) if large
                    else rng.integers(20, 1000))
            problem = feasible_problem(rng, n, m, N, T=float(rng.uniform(0.5, 2.0)),
                                       witness_scale=float(rng.uniform(0.3, 0.95)))
            if m * N > 2048:
                yield f"r{seed}_{i}", problem


def whole_program_draws():
    """The whole-program set: (name, problem) for 400 seeded draws ``w{i}``.

    Draw i of ``default_rng(2222)`` takes n in 1..8, m in 1..2, N in
    20..2048 // m and T in [0.5, 2), so each program is at most the
    working set and is solved whole.  Every third draw (i % 3 == 2) has a
    random stable plant and a random x0, a target that may be out of
    reach; the others are ``feasible_problem``.
    """
    rng = np.random.default_rng(2222)
    for i in range(400):
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 3))
        N = int(rng.integers(20, 2048 // m + 1))
        T = float(rng.uniform(0.5, 2.0))
        if i % 3 == 2:
            problem = ControlProblem(stable_plant(rng, n, m), x0=rng.normal(size=n), T=T, N=N)
        else:
            problem = feasible_problem(rng, n, m, N, T)
        yield f"w{i}", problem


def _exact_solve(A, b):
    """x with A x = b in Fractions by Gauss-Jordan elimination; None if A is singular."""
    n = len(b)
    rows = [[Fraction(a) for a in A[i]] + [Fraction(b[i])] for i in range(n)]
    for k in range(n):
        p = next((i for i in range(k, n) if rows[i][k] != 0), None)
        if p is None:
            return None
        rows[k], rows[p] = rows[p], rows[k]
        for i in range(n):
            if i != k and rows[i][k] != 0:
                f = rows[i][k] / rows[k][k]
                rows[i] = [a - f * c for a, c in zip(rows[i], rows[k])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def exact_vertex_audit(lp, U):
    """Certify a returned vertex of the L1 program ``lp`` in exact arithmetic.

    Every float of M, b, w and U is taken exactly as a Fraction.  U may
    have at most n fractional entries F (0 < |u| < 1); every other entry
    is held at its level in {-1, 0, +1}.  The exact vertex solves
    M_F u_F = b - sum_j M_j u_j over the held entries, and its costate
    solves M_F^T y = w_F sign(u_F).  The vertex is optimal when |u_F| <= 1
    and every column keeps the dead-zone law: |M_j^T y| <= w_j where
    u_j = 0 and u_j M_j^T y >= w_j where |u_j| = 1 (it holds with
    equality on F by construction).  A violation fails an assert.

    Returns (F, exact u_F, exact objective w @ |u|), or None for a
    degenerate vertex: fewer than n fractional entries, a singular M_F or
    an exact u_F entry of 0, none of which fixes a costate.
    """
    M, b, w = lp.M, lp.b, lp.w
    n, K = M.shape
    U = np.asarray(U, dtype=float)
    F = np.flatnonzero((U != 0.0) & (np.abs(U) != 1.0))
    assert F.size <= n, f"{F.size} fractional entries: not a vertex"
    if F.size < n:
        return None
    held = np.flatnonzero(np.abs(U) == 1.0)
    rhs = [Fraction(float(b[i])) - sum(Fraction(float(M[i, j])) * int(U[j]) for j in held)
           for i in range(n)]
    u_F = _exact_solve([[float(M[i, j]) for j in F] for i in range(n)], rhs)
    if u_F is None or 0 in u_F:
        return None
    assert all(abs(u) <= 1 for u in u_F), "exact vertex leaves the box"
    sign = np.sign(U)
    for j, u in zip(F, u_F):
        sign[j] = 1.0 if u > 0 else -1.0
    y = _exact_solve([[float(M[i, j]) for i in range(n)] for j in F],
                     [Fraction(float(w[j])) * int(sign[j]) for j in F])
    for j in range(K):
        price = sum(Fraction(float(M[i, j])) * y[i] for i in range(n))
        if sign[j] == 0.0:
            assert abs(price) <= Fraction(float(w[j])), f"column {j} leaves the dead zone"
        else:
            assert price * int(sign[j]) >= Fraction(float(w[j])), f"column {j} under-priced"
    objective = (sum(Fraction(float(w[j])) * abs(u) for j, u in zip(F, u_F))
                 + sum(Fraction(float(w[j])) for j in held))
    return F, u_F, objective


def exact_farkas_check(lp, y):
    """Certify in exact arithmetic that ``y`` is a Farkas ray of ``lp``.

    Every float of M, b and y is taken exactly as a Fraction, and
    b @ y > sum_j |M_j^T y| must hold: then no v in the box |v| <= 1 has
    M v = b.  A violation fails an assert.
    """
    M, b = lp.M, lp.b
    y = [Fraction(float(v)) for v in y]
    assert len(y) == M.shape[0], f"ray of {len(y)} entries for {M.shape[0]} rows"
    by = sum(Fraction(float(bi)) * yi for bi, yi in zip(b, y))
    reach = sum(abs(sum(Fraction(float(mi)) * yi for mi, yi in zip(col, y))) for col in M.T)
    assert by > reach, f"b @ y = {float(by)} <= sum_j |M_j^T y| = {float(reach)}"
