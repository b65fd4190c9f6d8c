import numpy as np
import pytest
from scipy.optimize import linprog

from handsoff import DimensionMismatch, L1Program, NonFiniteInput, SolveStatus, solve_ip


def random_l1_program(rng, feasible=True):
    n = int(rng.integers(1, 5))
    K = int(rng.integers(n, 14))
    M = rng.normal(size=(n, K))
    w = rng.uniform(0.05, 2.0, K)
    ub = rng.uniform(0.4, 2.5, K)
    if feasible:
        b = M @ (rng.uniform(-1.0, 1.0, K) * ub)
    else:
        # push every row of the target strictly past what the box can produce
        reach = np.abs(M) @ ub
        direction = rng.normal(size=n)
        direction /= np.linalg.norm(direction)
        b = direction * reach * 1.5 + direction
    return L1Program(M=M, b=b, w=w, ub=ub)


def highs_reference(lp):
    """HiGHS on the split form v = p - q, p, q in [0, ub]."""
    return linprog(np.concatenate([lp.w, lp.w]), A_eq=np.hstack([lp.M, -lp.M]), b_eq=lp.b,
                   bounds=list(zip(np.zeros(2 * lp.w.size), np.concatenate([lp.ub, lp.ub]))),
                   method="highs")


def test_lp_problem_validates_shapes():
    with pytest.raises(DimensionMismatch):
        L1Program(M=[[1.0]], b=[1.0], w=[1.0, 1.0], ub=1.0)
    with pytest.raises(DimensionMismatch):
        L1Program(M=[[1.0, 1.0]], b=[1.0], w=[1.0, 1.0], ub=[1.0, 1.0, 1.0])
    with pytest.raises(DimensionMismatch):
        L1Program(M=[[1.0]], b=[1.0], w=[1.0], ub=[0.0])  # zero-width box
    with pytest.raises(DimensionMismatch):
        L1Program(M=[[1.0]], b=[1.0], w=[1.0], ub=-1.0)
    with pytest.raises(DimensionMismatch):
        L1Program(M=[[1.0, 1.0]], b=[1.0], w=[1.0, -0.5], ub=1.0)
    with pytest.raises(NonFiniteInput):
        L1Program(M=[[1.0, np.inf]], b=[1.0], w=[1.0, 1.0], ub=1.0)
    with pytest.raises(NonFiniteInput):
        L1Program(M=[[1.0]], b=[np.nan], w=[1.0], ub=1.0)
    # a scalar bound is shared by every entry
    assert np.array_equal(L1Program(M=[[1.0, 2.0]], b=[1.0], w=[0.0, 1.0], ub=2.0).ub,
                          [2.0, 2.0])


def test_simple_lp_solution():
    # min |v1| with v1 + v2 == 1 puts everything on v2
    lp = L1Program(M=[[1.0, 1.0]], b=[1.0], w=[1.0, 0.0], ub=[1.0, 1.0])
    res = solve_ip(lp)
    assert res.status is SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(0.0, abs=1e-8)
    assert res.x[0] == pytest.approx(0.0, abs=1e-7)
    assert res.x[1] == pytest.approx(1.0, abs=1e-7)


def test_zero_rhs_gives_zero_solution():
    lp = L1Program(M=[[1.0, -1.0, 0.5]], b=[0.0], w=[1.0, 2.0, 3.0], ub=1.0)
    res = solve_ip(lp)
    assert res.status is SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(0.0, abs=1e-9)
    assert np.max(np.abs(res.x)) <= 1e-8


def test_matches_highs_on_random_feasible_instances():
    rng = np.random.default_rng(10)
    for _ in range(30):
        lp = random_l1_program(rng, feasible=True)
        res = solve_ip(lp)
        ref = highs_reference(lp)
        assert ref.status == 0
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(ref.fun, abs=1e-7 * (1 + abs(ref.fun)))
        # the signed point respects the box and the equalities, and its
        # fuel is the reported objective
        assert res.x.shape == lp.w.shape
        assert np.all(np.abs(res.x) <= lp.ub + 1e-8)
        assert np.linalg.norm(lp.M @ res.x - lp.b) <= 1e-7 * (1 + np.linalg.norm(lp.b))
        assert lp.w @ np.abs(res.x) == pytest.approx(ref.fun, abs=1e-7 * (1 + abs(ref.fun)))


def test_optimal_point_stays_inside_the_box():
    # the bound rows x + s = u tau hold from the start, so the box is met
    # to roundoff, not only to the primal tolerance
    rng = np.random.default_rng(15)
    for _ in range(500):
        lp = random_l1_program(rng, feasible=True)
        res = solve_ip(lp)
        assert res.status is SolveStatus.OPTIMAL
        assert np.all(np.abs(res.x) <= lp.ub * (1 + 1e-14))


def test_dual_objective_is_certified_lower_bound():
    rng = np.random.default_rng(11)
    for _ in range(20):
        lp = random_l1_program(rng, feasible=True)
        res = solve_ip(lp)
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective - res.dual_objective <= 1e-8 * (1 + abs(res.objective))
        ref = highs_reference(lp)
        # the dual value never exceeds the true optimum
        assert res.dual_objective <= ref.fun + 1e-7 * (1 + abs(ref.fun))


def test_infeasible_instances_are_certified():
    rng = np.random.default_rng(12)
    for _ in range(15):
        lp = random_l1_program(rng, feasible=False)
        ref = highs_reference(lp)
        assert ref.status == 2
        res = solve_ip(lp)
        assert res.status is SolveStatus.INFEASIBLE
        # Farkas ray on the equality rows: b @ y exceeds the most that any
        # v in the box can give, max (M v) @ y = sum_j ub_j |M_j @ y|
        y = res.farkas_y
        assert y.shape == lp.b.shape
        assert lp.b @ y - lp.ub @ np.abs(lp.M.T @ y) > 0


def test_iteration_limit_status():
    lp = L1Program(M=[[1.0, 1.0]], b=[1.0], w=[1.0, 0.0], ub=1.0)
    res = solve_ip(lp, maxiter=1)
    assert res.status is SolveStatus.ITERATION_LIMIT


def test_deterministic_across_runs():
    rng = np.random.default_rng(13)
    lp = random_l1_program(rng, feasible=True)
    a = solve_ip(lp)
    b = solve_ip(lp)
    assert np.array_equal(a.x, b.x)
    assert a.objective == b.objective
    assert a.iterations == b.iterations


def test_residuals_reported_below_tolerance():
    rng = np.random.default_rng(14)
    lp = random_l1_program(rng, feasible=True)
    res = solve_ip(lp, tol=1e-8)
    assert res.primal_residual <= 1e-8
    assert res.dual_residual <= 1e-8
    assert res.gap_residual <= 1e-8
