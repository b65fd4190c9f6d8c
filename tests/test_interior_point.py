from itertools import islice

import numpy as np
import pytest
from scipy.optimize import linprog

from handsoff import (
    DimensionMismatch,
    L1Program,
    NonFiniteInput,
    SolveStatus,
    build_lp,
    build_reachability,
    solve_ip,
)
from handsoff import interior_point
from handsoff.interior_point import _make_kkt_solver

from _instances import feasible_problem, priced_dual, reference_instances


def random_l1_program(rng, feasible=True):
    """A program drawn in the box |x_j| <= ub_j with varied ub, posed in
    the unit box through x = ub v.  Returns the program and ub."""
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
    return L1Program(M=M * ub, b=b, w=w * ub), ub


def highs_reference(lp, ub):
    """HiGHS on the drawn program in x = ub v, split x = p - q with p, q
    in [0, ub]."""
    M, w = lp.M / ub, lp.w / ub
    return linprog(np.concatenate([w, w]), A_eq=np.hstack([M, -M]), b_eq=lp.b,
                   bounds=list(zip(np.zeros(2 * w.size), np.concatenate([ub, ub]))),
                   method="highs")


def test_lp_problem_validates_shapes():
    with pytest.raises(DimensionMismatch):
        L1Program(M=[[1.0]], b=[1.0], w=[1.0, 1.0])
    with pytest.raises(DimensionMismatch):
        L1Program(M=[[1.0, 1.0]], b=[1.0], w=[1.0, -0.5])
    with pytest.raises(NonFiniteInput):
        L1Program(M=[[1.0, np.inf]], b=[1.0], w=[1.0, 1.0])
    with pytest.raises(NonFiniteInput):
        L1Program(M=[[1.0]], b=[np.nan], w=[1.0])
    with pytest.raises(DimensionMismatch):
        L1Program(M=np.zeros((1, 0)), b=[1.0], w=[])


def test_simple_lp_solution():
    # min |v1| with v1 + v2 == 1 puts everything on v2
    lp = L1Program(M=[[1.0, 1.0]], b=[1.0], w=[1.0, 0.0])
    res = solve_ip(lp)
    assert res.status is SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(0.0, abs=1e-8)
    assert res.x[0] == pytest.approx(0.0, abs=1e-7)
    assert res.x[1] == pytest.approx(1.0, abs=1e-7)


def test_zero_rhs_gives_zero_solution():
    lp = L1Program(M=[[1.0, -1.0, 0.5]], b=[0.0], w=[1.0, 2.0, 3.0])
    res = solve_ip(lp)
    assert res.status is SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(0.0, abs=1e-9)
    assert np.max(np.abs(res.x)) <= 1e-8


def test_matches_highs_on_random_feasible_instances():
    rng = np.random.default_rng(10)
    for _ in range(30):
        lp, ub = random_l1_program(rng, feasible=True)
        res = solve_ip(lp)
        ref = highs_reference(lp, ub)
        assert ref.status == 0
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(ref.fun, abs=1e-7 * (1 + abs(ref.fun)))
        # the drawn point x = ub v respects its box and the equalities,
        # and its fuel is the reported objective
        assert res.x.shape == lp.w.shape
        x = ub * res.x
        assert np.all(np.abs(x) <= ub + 1e-8)
        assert np.linalg.norm(lp.M / ub @ x - lp.b) <= 1e-7 * (1 + np.linalg.norm(lp.b))
        assert lp.w / ub @ np.abs(x) == pytest.approx(ref.fun, abs=1e-7 * (1 + abs(ref.fun)))


def test_optimal_point_stays_inside_the_box():
    # the bound rows x + s = tau hold from the start, so the box is met
    # to roundoff, not only to the primal tolerance
    rng = np.random.default_rng(15)
    for _ in range(500):
        lp, _ = random_l1_program(rng, feasible=True)
        res = solve_ip(lp)
        assert res.status is SolveStatus.OPTIMAL
        assert np.all(np.abs(res.x) <= 1 + 1e-14)


def test_dual_objective_is_certified_lower_bound():
    rng = np.random.default_rng(11)
    for _ in range(20):
        lp, ub = random_l1_program(rng, feasible=True)
        res = solve_ip(lp)
        assert res.status is SolveStatus.OPTIMAL
        # the costate priced by the dead-zone law
        dual = priced_dual(lp, res.y)
        assert res.objective - dual <= 1e-8 * (1 + abs(res.objective))
        ref = highs_reference(lp, ub)
        # the dual value never exceeds the true optimum
        assert dual <= ref.fun + 1e-7 * (1 + abs(ref.fun))


def test_infeasible_instances_are_certified():
    rng = np.random.default_rng(12)
    for _ in range(15):
        lp, ub = random_l1_program(rng, feasible=False)
        ref = highs_reference(lp, ub)
        assert ref.status == 2
        res = solve_ip(lp)
        assert res.status is SolveStatus.INFEASIBLE
        # Farkas ray on the equality rows: b @ y exceeds the most that any
        # v in the box can give, max (M v) @ y = sum_j |M_j @ y|
        y = res.farkas_y
        assert y.shape == lp.b.shape
        assert lp.b @ y > np.abs(lp.M.T @ y).sum()


def test_iteration_limit_status():
    lp = L1Program(M=[[1.0, 1.0]], b=[1.0], w=[1.0, 0.0])
    res = solve_ip(lp, maxiter=1)
    assert res.status is SolveStatus.ITERATION_LIMIT


def test_deterministic_across_runs():
    rng = np.random.default_rng(13)
    lp, _ = random_l1_program(rng, feasible=True)
    a = solve_ip(lp)
    b = solve_ip(lp)
    assert np.array_equal(a.x, b.x)
    assert a.objective == b.objective
    assert a.iterations == b.iterations


def test_residuals_reported_below_tolerance():
    rng = np.random.default_rng(14)
    lp, _ = random_l1_program(rng, feasible=True)
    res = solve_ip(lp, tol=1e-8)
    assert res.primal_residual <= 1e-8
    assert res.dual_residual <= 1e-8
    assert res.gap_residual <= 1e-8


@pytest.mark.parametrize("exit", ["nonfinite_step", "no_halving"])
def test_endgame_exit_returns_the_kept_iterate(exit, monkeypatch):
    # a fuel of 1.3e-2 lets today's stop hold at a gap of 5e-8 relative to
    # the fuel, so the endgame steps on from there
    problem = feasible_problem(np.random.default_rng(808), 4, 2, 500, T=1.0)
    lp = build_lp(build_reachability(problem), problem.weights)
    tol = 1e-8
    k = 1
    while solve_ip(lp, tol=tol, maxiter=k).status is not SolveStatus.OPTIMAL:
        k += 1
    # the stop first holds at iteration k, where maxiter returns that iterate
    kept = solve_ip(lp, tol=tol, maxiter=k)
    assert kept.iterations == k
    assert kept.objective - priced_dual(lp, kept.y) > tol * kept.objective
    assert solve_ip(lp, tol=tol).iterations > k

    if exit == "nonfinite_step":
        factors = []

        def failing(G, theta):
            factors.append(None)
            solve = _make_kkt_solver(G, theta)
            if len(factors) <= k:
                return solve
            return lambda r1, r2: tuple(np.nan * part for part in solve(r1, r2))

        monkeypatch.setattr(interior_point, "_make_kkt_solver", failing)
    else:
        monkeypatch.setattr(interior_point, "_HALVING", 0.0)
        # the refinement gate keys on the same halving of rho_p; keep it
        # off so that the solve reaches the unpatched iterate k
        monkeypatch.setattr(interior_point, "_REFINE_MU", 0.0)
    res = solve_ip(lp, tol=tol)
    assert res.status is SolveStatus.OPTIMAL
    assert res.iterations == k + 1  # the step that was not kept counts
    assert np.array_equal(res.x, kept.x) and np.array_equal(res.y, kept.y)
    assert res.objective == kept.objective
    residuals = (res.primal_residual, res.dual_residual, res.gap_residual)
    assert residuals == (kept.primal_residual, kept.dual_residual, kept.gap_residual)
    assert max(residuals) <= tol


def test_endgame_steps_on_to_a_vertex(monkeypatch):
    # a whole program (n=3, m=2, N=467) whose stop first holds with 18
    # entries fractional: the endgame steps on to at most n of them, and
    # the status, the stop and the fuel to the tolerance stay
    rng = np.random.default_rng(98)
    n, m, N = int(rng.integers(2, 6)), int(rng.integers(1, 3)), int(rng.integers(100, 600))
    problem = feasible_problem(rng, n, m, N, T=float(rng.uniform(0.5, 2.0)))
    lp = build_lp(build_reachability(problem), problem.weights)
    tol = 1e-8

    def fractional(v):
        return int(np.count_nonzero((np.abs(v) > 1e-6) & (np.abs(v) < 1.0 - 1e-6)))

    with monkeypatch.context() as patch:
        # no entry is inside an empty band, so the gap alone ends the solve
        patch.setattr(interior_point, "_BAND", 0.5)
        first = solve_ip(lp, tol=tol)
    res = solve_ip(lp, tol=tol)
    assert first.status is res.status is SolveStatus.OPTIMAL
    assert fractional(first.x) > n >= fractional(res.x)
    assert res.iterations > first.iterations
    assert max(res.primal_residual, res.dual_residual, res.gap_residual) <= tol
    assert res.objective == pytest.approx(first.objective, rel=tol)


def assert_solves_kkt(G, theta, r1, r2):
    """(dx, dy) must satisfy [G, -G] dx = r2 and dx = theta ([G, -G]^T dy - r1),
    each to 1e-10 relative to the size of the terms it sums.  Right-hand
    sides stacked as r1 (s, 2, K) and r2 (s, n) are solved in one call
    and each is checked."""
    A = np.hstack([G, -G])
    dx, dy = _make_kkt_solver(G, theta)(r1, r2)
    assert dx.shape == r1.shape and dy.shape == r2.shape
    theta = theta.ravel()
    for dx, dy, r1, r2 in zip(dx.reshape(-1, A.shape[1]), dy.reshape(-1, A.shape[0]),
                              r1.reshape(-1, A.shape[1]), r2.reshape(-1, A.shape[0])):
        t = A.T @ dy
        terms = theta * (np.abs(t) + np.abs(r1))
        assert np.linalg.norm(A @ dx - r2) <= 1e-10 * (np.linalg.norm(r2)
                                                       + np.linalg.norm(np.abs(A) @ terms))
        assert np.all(np.abs(dx - theta * (t - r1)) <= 1e-10 * terms)


def random_kkt_system(rng, shared_row=False, decades=(-4.0, 4.0), stack=()):
    """G, theta with log10 theta uniform over ``decades``, and right-hand
    sides r1, r2 stacked along the leading shape ``stack``."""
    n = int(rng.integers(2 if shared_row else 1, 9))
    K = int(rng.integers(n, 51))
    G = rng.normal(size=(n, K))
    r2 = rng.normal(size=stack + (n,))
    if shared_row:
        # a consistent system whose Schur complement is singular
        G[1], r2[..., 1] = G[0], r2[..., 0]
    theta = 10.0 ** rng.uniform(*decades, size=(2, K))
    return G, theta, rng.normal(size=stack + (2, K)), r2


def test_kkt_solver_solves_the_normal_equations():
    rng = np.random.default_rng(16)
    for _ in range(100):
        assert_solves_kkt(*random_kkt_system(rng))
    # theta over twenty decades, as in the endgame
    rng = np.random.default_rng(18)
    for _ in range(100):
        assert_solves_kkt(*random_kkt_system(rng, decades=(-8.0, 12.0)))
    # two right-hand sides in one call, as the interior point stacks them
    rng = np.random.default_rng(19)
    for _ in range(100):
        assert_solves_kkt(*random_kkt_system(rng, stack=(2,)))


def test_kkt_solver_falls_back_to_least_squares_on_equal_rows(monkeypatch):
    lstsq, calls = np.linalg.lstsq, []

    def counted(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    rng = np.random.default_rng(17)
    for _ in range(20):
        assert_solves_kkt(*random_kkt_system(rng, shared_row=True))
    # a singular Schur complement may still pass Cholesky on roundoff, but
    # not on every draw
    assert calls
    # least squares takes stacked right-hand sides too
    calls.clear()
    for _ in range(20):
        assert_solves_kkt(*random_kkt_system(rng, shared_row=True, stack=(2,)))
    assert calls


@pytest.mark.parametrize("instance, support", [
    (3, (2, 8, 9, 11, 13, 15)),
    (20, (1, 3, 6, 7, 8)),
    (20, (1, 3, 4, 5, 7, 9)),
    (23, (1, 4, 5, 7, 9)),
])
def test_feasible_fixed_support_fuel_program_is_solved(instance, support):
    # feasible fuel programs on one support of a reference instance, above
    # its minimum support, on which the interior point ran to its iteration
    # limit with the primal residual stalled between 1e-9 and 1e-6, the
    # accuracy floor of the normal equations, until refinement of the KKT
    # solves
    dp = build_reachability(next(islice(reference_instances(), instance, None)))
    M, w = dp.Phi[:, list(support)], np.full(len(support), dp.h)
    ref = linprog(np.concatenate([w, w]), A_eq=np.hstack([M, -M]), b_eq=-dp.c,
                  bounds=(0.0, 1.0), method="highs")
    assert ref.status == 0
    res = solve_ip(L1Program(M, -dp.c, w), tol=1e-9)
    assert res.status is SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(ref.fun, rel=1e-8)


def test_nonfinite_first_step_is_a_numerical_failure(monkeypatch):
    # with no iterate kept yet, a step that is not finite ends the solve
    problem = feasible_problem(np.random.default_rng(808), 4, 2, 500, T=1.0)
    lp = build_lp(build_reachability(problem), problem.weights)

    def failing(G, theta):
        solve = _make_kkt_solver(G, theta)
        return lambda r1, r2: tuple(np.nan * part for part in solve(r1, r2))

    monkeypatch.setattr(interior_point, "_make_kkt_solver", failing)
    res = solve_ip(lp)
    assert res.status is SolveStatus.NUMERICAL_FAILURE
    assert res.iterations == 1
    assert res.x is None
