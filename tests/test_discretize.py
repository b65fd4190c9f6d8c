import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from handsoff import (
    ControlProblem,
    DimensionMismatch,
    NonFiniteInput,
    PlantModel,
    ProblemTooLarge,
    build_reachability,
    feasibility_radius,
    matrix_exponential,
    zoh_discretize,
)

from _instances import double_integrator, scalar_integrator, stable_plant


def taylor_expm(M: np.ndarray, terms: int = 50) -> np.ndarray:
    """Truncated-series oracle, accurate to far below 1e-12 for ||M||_1 <= 1."""
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, terms + 1):
        term = term @ M / k
        out = out + term
    return out


def test_expm_zero_matrix_is_exact_identity():
    assert np.array_equal(matrix_exponential(np.zeros((2, 2))), np.eye(2))


def test_expm_nilpotent_closed_form():
    h = 0.7
    M = np.array([[0.0, 1.0], [0.0, 0.0]]) * h
    expected = np.array([[1.0, h], [0.0, 1.0]])
    assert np.allclose(matrix_exponential(M), expected, rtol=0, atol=1e-15)


def test_expm_matches_taylor_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        M = rng.uniform(-1.0, 1.0, (4, 4))
        M *= rng.uniform(0.1, 1.0) / max(np.linalg.norm(M, 1), 1e-12)
        expected = taylor_expm(M)
        got = matrix_exponential(M)
        assert np.linalg.norm(got - expected, 1) <= 1e-12 * np.linalg.norm(expected, 1)


def test_expm_matches_scipy_with_squaring():
    # exercises the scaling path (1-norm above the degree-13 threshold)
    rng = np.random.default_rng(2)
    for scale in (6.0, 20.0, 50.0):
        M = rng.normal(size=(5, 5))
        M *= scale / np.linalg.norm(M, 1)
        got = matrix_exponential(M)
        expected = scipy.linalg.expm(M)
        assert np.linalg.norm(got - expected, 1) <= 1e-10 * np.linalg.norm(expected, 1)


def test_expm_inverse_property():
    rng = np.random.default_rng(3)
    for _ in range(10):
        M = rng.normal(size=(4, 4))
        M *= rng.uniform(0.5, 5.0) / np.linalg.norm(M, 1)
        prod = matrix_exponential(M) @ matrix_exponential(-M)
        assert np.linalg.norm(prod - np.eye(4), 1) <= 1e-10


def test_expm_does_not_mutate_input():
    M = np.full((3, 3), 4.0)  # 1-norm 12 forces scaling
    M_copy = M.copy()
    matrix_exponential(M)
    assert np.array_equal(M, M_copy)


def test_expm_rejects_bad_input():
    with pytest.raises(DimensionMismatch):
        matrix_exponential(np.zeros((2, 3)))
    with pytest.raises(NonFiniteInput):
        matrix_exponential(np.array([[np.nan, 0.0], [0.0, 0.0]]))


def test_zoh_scalar_zero_plant():
    Ad, Bd = zoh_discretize(PlantModel(A=[[0.0]], B=[[1.0]]), 0.5)
    assert Ad[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert Bd[0, 0] == pytest.approx(0.5, abs=1e-15)


def test_zoh_double_integrator_closed_form():
    plant = PlantModel(A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]])
    for h in (0.01, 0.1, 1.0):
        Ad, Bd = zoh_discretize(plant, h)
        assert np.allclose(Ad, [[1.0, h], [0.0, 1.0]], rtol=0, atol=1e-14)
        assert np.allclose(Bd, [[h * h / 2.0], [h]], rtol=0, atol=1e-14)


def test_zoh_scalar_decay():
    Ad, Bd = zoh_discretize(PlantModel(A=[[-1.0]], B=[[1.0]]), 1.0)
    assert Ad[0, 0] == pytest.approx(np.exp(-1.0), rel=1e-14)
    assert Bd[0, 0] == pytest.approx(1.0 - np.exp(-1.0), rel=1e-14)


def test_zoh_integral_identity_for_invertible_A():
    # A @ Bd == (Ad - I) @ B whenever A is invertible
    rng = np.random.default_rng(4)
    for _ in range(5):
        plant = stable_plant(rng, 3, 2)
        Ad, Bd = zoh_discretize(plant, 0.3)
        lhs = plant.A @ Bd
        rhs = (Ad - np.eye(3)) @ plant.B
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


def test_zoh_half_step_composition():
    rng = np.random.default_rng(5)
    for _ in range(5):
        plant = stable_plant(rng, 3, 1)
        h = rng.uniform(0.05, 0.5)
        Ad, Bd = zoh_discretize(plant, h)
        Ah, Bh = zoh_discretize(plant, h / 2)
        assert np.allclose(Ad, Ah @ Ah, rtol=1e-10, atol=1e-14)
        assert np.allclose(Bd, Ah @ Bh + Bh, rtol=1e-10, atol=1e-14)


def test_reachability_single_step():
    p = scalar_integrator(1.0, 1.0, 1)
    dp = build_reachability(p)
    assert np.allclose(dp.Phi, dp.Bd)
    assert np.allclose(dp.c, dp.Ad @ p.x0)


def test_reachability_double_integrator_two_steps():
    # hand multiplication of [Ad @ Bd, Bd] at h = 1
    p = double_integrator([1.0, 0.0], 2.0, 2)
    dp = build_reachability(p)
    assert np.allclose(dp.Phi, [[1.5, 0.5], [1.0, 1.0]], rtol=0, atol=1e-14)


def test_reachability_pure_gain_plant():
    p = scalar_integrator(1.0, 1.0, 4)
    dp = build_reachability(p)
    assert np.allclose(dp.Phi, [[0.25, 0.25, 0.25, 0.25]], rtol=0, atol=1e-15)
    assert dp.c[0] == pytest.approx(1.0, abs=1e-15)


def _sequential_reachability(problem):
    """Phi block by block, Ad times the block after it, and c by N products."""
    Ad, Bd = zoh_discretize(problem.plant, problem.h)
    blocks = [Bd]
    for _ in range(problem.N - 1):
        blocks.append(Ad @ blocks[-1])
    c = problem.x0
    for _ in range(problem.N):
        c = Ad @ c
    return np.hstack(blocks[::-1]), c


@pytest.mark.parametrize("N", [1, 2, 3, 8, 1000, 1024, 1025])
@pytest.mark.parametrize("A, B", [
    ([[-1.0, 2.0], [-0.5, -0.3]], [[1.0], [0.5]]),          # stable
    ([[5.0]], [[1.0]]),                                       # unstable
    ([[0.0, 1.0], [-4.0, -0.1]], [[0.0, 1.0], [1.0, 0.3]]),  # oscillatory
], ids=["stable", "unstable", "oscillatory"])
def test_reachability_by_doubling_matches_sequential_recursion(A, B, N):
    problem = ControlProblem(plant=PlantModel(A=A, B=B), x0=np.ones(len(A)), T=4.0, N=N)
    dp = build_reachability(problem)
    Phi, c = _sequential_reachability(problem)
    m = problem.plant.m
    # block j of each, as a row, compared relative to its own size
    blocks = lambda P: P.reshape(P.shape[0], N, m).transpose(1, 0, 2).reshape(N, -1)
    err = np.max(np.abs(blocks(dp.Phi) - blocks(Phi)), axis=1)
    assert np.all(err <= 1e-12 * np.max(np.abs(blocks(Phi)), axis=1))
    assert np.max(np.abs(dp.c - c)) <= 1e-12 * np.max(np.abs(c))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("a", [40.0, 1e4])
def test_reachability_overflow_is_one_typed_error(a):
    # e^(20 a) overflows float64 in the doubling at a = 40 and inside the
    # exponential at a = 1e4; either is NonFiniteInput, with no warning
    problem = ControlProblem(plant=PlantModel(A=[[a]], B=[[1.0]]), x0=[0.01],
                             T=20.0, N=200)
    with pytest.raises(NonFiniteInput, match="overflows"):
        build_reachability(problem)


def test_reachability_memory_guard():
    p = ControlProblem(plant=PlantModel(A=[[0.0]], B=[[1.0]]), x0=[1.0],
                       T=1.0, N=10**7 + 1)
    with pytest.raises(ProblemTooLarge):
        build_reachability(p)


def test_feasibility_radius_certifies_unreachable_target():
    dp = build_reachability(scalar_integrator(2.0, 1.0, 10))
    assert feasibility_radius(dp) == pytest.approx(-1.0, abs=1e-12)


def test_feasibility_radius_zero_state_has_nonnegative_slack():
    dp = build_reachability(scalar_integrator(0.0, 1.0, 10))
    assert feasibility_radius(dp) >= 0.0


def test_feasibility_radius_has_no_full_size_temporary():
    rng = np.random.default_rng(808)
    problem = ControlProblem(plant=stable_plant(rng, 8, 2), x0=rng.normal(size=8),
                             T=1.0, N=20000)
    dp = build_reachability(problem)
    tracemalloc.start()
    try:
        radius = feasibility_radius(dp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * dp.Phi.nbytes
    whole = np.abs(dp.Phi).sum(axis=1) - np.abs(dp.c)
    assert radius == pytest.approx(float(np.min(whole)), rel=1e-13)


def test_feasibility_radius_in_one_block_is_the_plain_row_sum():
    rng = np.random.default_rng(809)
    problem = ControlProblem(plant=stable_plant(rng, 3, 2), x0=rng.normal(size=3),
                             T=2.0, N=500)
    dp = build_reachability(problem)
    assert feasibility_radius(dp) == float(np.min(np.abs(dp.Phi).sum(axis=1) - np.abs(dp.c)))


def test_feasibility_radius_reachable_example():
    dp = build_reachability(scalar_integrator(1.0, 2.0, 4))
    assert feasibility_radius(dp) == pytest.approx(1.0, abs=1e-12)
