"""Shared instance generators and oracles for the test suite.

Feasible instances are built backwards from an admissible witness
control, so feasibility holds by construction and the certificate slack
is nonnegative.
"""

from __future__ import annotations

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
