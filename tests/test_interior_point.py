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
    solve,
    solve_ip,
)
from handsoff import interior_point
from handsoff.interior_point import _make_kkt_solver

from _instances import double_integrator, feasible_problem, priced_dual, reference_instances


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
        y = res.y
        assert y.shape == lp.b.shape
        assert lp.b @ y > np.abs(lp.M.T @ y).sum()


def test_iteration_limit_status(monkeypatch):
    lp = L1Program(M=[[1.0, 1.0]], b=[1.0], w=[1.0, 0.0])
    monkeypatch.setattr(interior_point, "_MAXITER", 1)
    res = solve_ip(lp)
    assert res.status is SolveStatus.ITERATION_LIMIT


def test_deterministic_across_runs():
    rng = np.random.default_rng(13)
    lp, _ = random_l1_program(rng, feasible=True)
    a = solve_ip(lp)
    b = solve_ip(lp)
    assert np.array_equal(a.x, b.x)
    assert a.objective == b.objective
    assert a.iterations == b.iterations


def assert_meets_the_stop(lp, res, tol):
    """The interior point's stop, checked from outside on (x, y): the
    equality rows to tol (1 + ||b||), and the fuel above the priced dual
    bound by at most tol (1 + |fuel|)."""
    assert np.linalg.norm(lp.M @ res.x - lp.b) <= tol * (1.0 + np.linalg.norm(lp.b))
    assert res.objective - priced_dual(lp, res.y) <= tol * (1.0 + abs(res.objective))


def test_returned_point_meets_the_stop():
    rng = np.random.default_rng(14)
    lp, _ = random_l1_program(rng, feasible=True)
    res = solve_ip(lp)
    assert res.status is SolveStatus.OPTIMAL
    assert_meets_the_stop(lp, res, 1e-8)


@pytest.mark.parametrize("exit", ["nonfinite_step", "no_halving"])
def test_endgame_exit_returns_the_kept_iterate(exit, monkeypatch):
    # a fuel of 1.3e-2 lets today's stop hold at a gap of 5e-8 relative to
    # the fuel, so the endgame steps on from there
    problem = feasible_problem(np.random.default_rng(808), 4, 2, 500, T=1.0)
    lp = build_lp(build_reachability(problem), problem.weights)
    tol = 1e-8

    def capped(maxiter):
        with monkeypatch.context() as patch:
            patch.setattr(interior_point, "_MAXITER", maxiter)
            return solve_ip(lp)

    k = 1
    while capped(k).status is not SolveStatus.OPTIMAL:
        k += 1
    # the stop first holds at iteration k, where _MAXITER returns that iterate
    kept = capped(k)
    assert kept.iterations == k
    assert kept.objective - priced_dual(lp, kept.y) > tol * kept.objective
    assert solve_ip(lp).iterations > k

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
    res = solve_ip(lp)
    assert res.status is SolveStatus.OPTIMAL
    assert res.iterations == k + 1  # the step that was not kept counts
    assert np.array_equal(res.x, kept.x) and np.array_equal(res.y, kept.y)
    assert res.objective == kept.objective
    assert_meets_the_stop(lp, res, tol)


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
        first = solve_ip(lp)
    res = solve_ip(lp)
    assert first.status is res.status is SolveStatus.OPTIMAL
    assert fractional(first.x) > n >= fractional(res.x)
    assert res.iterations > first.iterations
    assert_meets_the_stop(lp, res, tol)
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


def random_kkt_system(rng, decades=(-4.0, 4.0), stack=()):
    """G, theta with log10 theta uniform over ``decades``, and right-hand
    sides r1, r2 stacked along the leading shape ``stack``."""
    n = int(rng.integers(1, 9))
    K = int(rng.integers(n, 51))
    G = rng.normal(size=(n, K))
    r2 = rng.normal(size=stack + (n,))
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


def test_failed_cholesky_is_a_numerical_failure(monkeypatch):
    # a Schur complement that is not numerically positive definite gives a
    # NaN step, and a step that is not finite ends the solve
    def failing(S):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", failing)
    res = solve_ip(L1Program(M=[[1.0, 2.0, -1.0]], b=[0.5], w=[1.0, 1.0, 1.0]))
    assert res.status is SolveStatus.NUMERICAL_FAILURE
    assert res.iterations == 1
    assert res.x is None and res.y is None


@pytest.mark.parametrize("b", [[1.0, 0.0], [1.0, -3.0]])
def test_equal_rows_with_target_off_their_span_are_infeasible_at_once(b):
    # rows 0 and 1 are equal, so b - (b0 + b1) / 2 (1, 1) is a ray off their
    # span, found before the first step
    M = np.array([[1.0, 2.0, 3.0, 0.5], [1.0, 2.0, 3.0, 0.5], [0.0, 1.0, -1.0, 2.0]])
    lp = L1Program(M=M, b=[b[0], b[1], 0.2], w=[1.0, 2.0, 1.0, 0.5])
    res = solve_ip(lp)
    assert res.status is SolveStatus.INFEASIBLE
    assert res.iterations == 0 and res.x is None
    assert lp.b @ res.y > np.abs(lp.M.T @ res.y).sum()


def test_equal_rows_with_target_on_their_span_are_solved():
    # the same rows with b on their span: the solve runs on the two
    # independent rows and matches HiGHS on the program
    M = np.array([[1.0, 2.0, 3.0, 0.5], [1.0, 2.0, 3.0, 0.5], [0.0, 1.0, -1.0, 2.0]])
    lp = L1Program(M=M, b=[1.0, 1.0, 0.2], w=[1.0, 2.0, 1.0, 0.5])
    res = solve_ip(lp)
    ref = highs_reference(lp, np.ones(4))
    assert res.status is SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(ref.fun, rel=1e-7)
    assert np.allclose(M @ res.x, lp.b, atol=1e-8)


@pytest.mark.parametrize("b, status", [
    ([0.5, 1.0], SolveStatus.OPTIMAL),
    ([0.5, 0.0], SolveStatus.INFEASIBLE),
], ids=["on_span", "off_span"])
def test_fewer_columns_than_rows(b, status):
    # a 2 x 1 program: one column spans one direction of the plane, so a
    # target off it is certified before the first step, and one on it is
    # reached by v = 0.5
    lp = L1Program(M=[[1.0], [2.0]], b=b, w=[3.0])
    res = solve_ip(lp)
    assert res.status is status
    if status is SolveStatus.OPTIMAL:
        assert res.x == pytest.approx([0.5], abs=1e-8)
        assert res.objective == pytest.approx(1.5, rel=1e-8)
    else:
        assert res.iterations == 0
        assert lp.b @ res.y > np.abs(lp.M.T @ res.y).sum()


def test_zero_matrix_with_zero_target_gives_zero_control():
    # rank 0: no row is left, and the fuel alone drives v to 0
    res = solve_ip(L1Program(M=np.zeros((2, 5)), b=np.zeros(2), w=np.ones(5)))
    assert res.status is SolveStatus.OPTIMAL
    assert np.max(np.abs(res.x)) <= 1e-9
    assert res.objective <= 1e-8


@pytest.mark.parametrize("instance, support", [
    (3, (2, 8, 9, 11, 13, 15)),
    (20, (1, 3, 6, 7, 8)),
    (20, (1, 3, 4, 5, 7, 9)),
    (23, (1, 4, 5, 7, 9)),
])
def test_feasible_fixed_support_fuel_program_is_solved(instance, support, monkeypatch):
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
    monkeypatch.setattr(interior_point, "OPT_TOL", 1e-9)
    res = solve_ip(L1Program(M, -dp.c, w))
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


def test_uncertified_farkas_ray_is_a_numerical_failure(monkeypatch):
    # the embedding converges to infeasibility here (tau -> 0, b @ y > 0);
    # a ray that fails the Farkas check certifies nothing, so the solve
    # ends as a numerical failure with neither a control nor a ray
    problem = double_integrator([-3.3, 1.9], 2.0, 200)
    lp = build_lp(build_reachability(problem), problem.weights)
    monkeypatch.setattr(interior_point, "_is_farkas_ray", lambda *args: False)
    res = solve_ip(lp)
    assert res.status is SolveStatus.NUMERICAL_FAILURE
    assert res.iterations == 5
    assert res.x is None and res.y is None
    report = solve(problem)
    assert report.status is SolveStatus.NUMERICAL_FAILURE
    assert report.reason == "interior point returned numerical_failure in round 1"
