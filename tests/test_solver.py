import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog

from handsoff import (
    ControlProblem,
    DimensionMismatch,
    PlantModel,
    SolveStatus,
    SolverOptions,
    build_lp,
    build_reachability,
    polish_to_vertex,
    recompute_objective,
    solve,
    solve_discretized,
    solve_ip,
)

from _instances import (
    certified_rest_to_rest_fuel,
    double_integrator,
    feasible_problem,
    scalar_integrator,
)


def fuel_reference(problem):
    """Independent optimum via an external solver on the same LP data."""
    dp = build_reachability(problem)
    K = dp.Phi.shape[1]
    lam = dp.h * np.tile(problem.weights, dp.N)
    res = linprog(np.concatenate([lam, lam]),
                  A_eq=np.hstack([dp.Phi, -dp.Phi]), b_eq=-dp.c,
                  bounds=[(0.0, 1.0)] * (2 * K), method="highs")
    return res


def test_build_lp_objective_scaling():
    # one atom, weight 2, step 0.5: its fuel weight is 1
    dp = build_reachability(scalar_integrator(1.0, 0.5, 1))
    lp = build_lp(dp, np.array([2.0]))
    assert np.allclose(lp.w, [1.0])


def test_build_lp_zero_state_rhs():
    dp = build_reachability(scalar_integrator(0.0, 1.0, 4))
    lp = build_lp(dp, np.array([1.0]))
    assert np.array_equal(lp.b, np.zeros(1))


def test_build_lp_equality_blocks():
    dp = build_reachability(double_integrator([1.0, 0.0], 2.0, 2))
    lp = build_lp(dp, np.array([1.0]))
    assert np.array_equal(lp.M, dp.Phi)
    assert np.array_equal(lp.w, np.full(2, dp.h))


def test_build_lp_channel_count_checked():
    dp = build_reachability(scalar_integrator(1.0, 1.0, 2))
    with pytest.raises(DimensionMismatch):
        build_lp(dp, np.array([1.0, 1.0]))


def test_zero_initial_state_solves_to_zero():
    report = solve(scalar_integrator(0.0, 1.0, 10))
    assert report.status is SolveStatus.OPTIMAL
    assert report.objective == pytest.approx(0.0, abs=1e-9)
    assert np.max(np.abs(report.signal.U)) <= 1e-9


def test_certified_infeasible_instance():
    report = solve(scalar_integrator(2.0, 1.0, 10))
    assert report.status is SolveStatus.INFEASIBLE
    assert report.signal is None
    assert report.feasibility_slack < 0


def test_lp_detected_infeasibility_without_certificate():
    # row slacks are nonnegative here but the rows are jointly unreachable
    problem = double_integrator([-1.9, 1.95], 2.0, 4)
    assert solve(problem).status is SolveStatus.INFEASIBLE


def test_double_integrator_matches_simplex_reference():
    problem = double_integrator([1.0, 0.0], 10.0, 100)
    report = solve(problem)
    ref = fuel_reference(problem)
    assert report.status is SolveStatus.OPTIMAL
    assert report.objective == pytest.approx(ref.fun, abs=1e-6 * (1 + ref.fun))


def test_double_integrator_matches_certified_analytic_oracle():
    problem = double_integrator([1.0, 0.0], 5.0, 50)
    report = solve(problem)
    expected, _ = certified_rest_to_rest_fuel(5.0, 50)
    assert report.status is SolveStatus.OPTIMAL
    assert report.objective == pytest.approx(expected, abs=1e-6)


def test_double_integrator_arc_structure():
    # classic fuel-optimal shape: brake arc, coast arc, accelerate arc
    report = solve(double_integrator([1.0, 0.0], 10.0, 100))
    U = report.signal.U
    active = np.flatnonzero(np.abs(U) > 1e-6)
    assert active[0] == 0 and active[-1] == 99
    assert np.all(U[active[U[active] < 0]] < 0)
    leading = U[active[0]:active[0] + 1]
    assert np.all(leading < 0)
    trailing = U[active[-1]:]
    assert np.all(trailing > 0)
    interior = np.abs(U[3:97])
    assert np.max(interior, initial=0.0) <= 1e-6


def test_solver_invariants_on_random_instances():
    rng = np.random.default_rng(20)
    for _ in range(8):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        N = int(rng.integers(5, 60))
        problem = feasible_problem(rng, n, m, N, T=float(rng.uniform(1.0, 6.0)))
        report = solve(problem)
        assert report.status is SolveStatus.OPTIMAL
        x0_norm = np.linalg.norm(problem.x0)
        assert np.max(np.abs(report.signal.U)) <= 1.0 + 1e-9
        assert report.terminal_error <= 1e-6 * (1 + x0_norm)
        # the termination pair brackets the optimum to working tolerance
        assert report.lp_objective - report.dual_objective <= 1e-8 * (1 + abs(report.lp_objective))
        # the polished value never drops below the certified lower bound
        assert report.objective >= report.dual_objective - 1e-8 * (1 + abs(report.objective))
        # reported objective equals its recomputation from the signal
        again = recompute_objective(report.signal, problem.weights)
        assert abs(report.objective - again) <= 1e-12 * (1 + abs(again))


def test_polish_never_degrades():
    rng = np.random.default_rng(21)
    thr = 1e-6
    for _ in range(6):
        problem = feasible_problem(rng, int(rng.integers(1, 4)), 1,
                                   int(rng.integers(6, 30)),
                                   T=float(rng.uniform(1.0, 5.0)))
        report = solve(problem)
        unpolished = solve(problem, SolverOptions(polish=False)).signal
        assert report.status is SolveStatus.OPTIMAL
        raw = unpolished.U
        pol = report.signal.U
        J_raw = recompute_objective(unpolished, problem.weights)
        J_pol = recompute_objective(report.signal, problem.weights)
        assert J_pol <= J_raw + 1e-7 * (1 + abs(J_raw))
        assert np.count_nonzero(np.abs(pol) > thr) <= np.count_nonzero(np.abs(raw) > thr)


def test_polish_recovers_sparse_vertex_on_symmetric_face():
    problem = scalar_integrator(1.0, 2.0, 8)
    report = solve(problem)
    assert report.polish_applied
    unpolished = solve(problem, SolverOptions(polish=False)).signal.U
    polished = report.signal.U
    assert np.count_nonzero(np.abs(unpolished) > 1e-6) == 8
    assert report.unpolished_support == 8
    active = np.abs(polished) > 1e-6
    assert np.count_nonzero(active) == 4
    assert np.allclose(polished[active], -1.0, atol=1e-6)
    assert report.objective == pytest.approx(1.0, abs=1e-7)


def test_polish_disabled_keeps_interior_point():
    problem = scalar_integrator(1.0, 2.0, 8)
    report = solve(problem, SolverOptions(polish=False))
    assert not report.polish_applied
    lp = build_lp(build_reachability(problem), np.array([1.0]))
    assert np.array_equal(report.signal.U, np.clip(solve_ip(lp).x, -1.0, 1.0))
    assert np.count_nonzero(np.abs(report.signal.U) > 1e-6) == 8


def test_polish_to_vertex_direct_call_on_unique_optimum():
    # single-point optimal face: polishing must return the same point
    problem = double_integrator([1.0, 0.0], 5.0, 8)
    dp = build_reachability(problem)
    lp = build_lp(dp, np.array([1.0]))
    report = solve(problem, SolverOptions(polish=False))
    U0 = report.signal.U
    U, accepted, _ = polish_to_vertex(lp, U0, rhs_scale=np.linalg.norm(dp.x0))
    assert accepted
    assert np.allclose(U, U0, atol=1e-6)


def test_weight_scaling_invariance():
    base = scalar_integrator(1.0, 2.0, 8)
    scaled = dataclasses.replace(base, weights=base.weights * 7.0)
    r1 = solve(base)
    r2 = solve(scaled)
    assert r2.objective == pytest.approx(7.0 * r1.objective, rel=1e-6)
    assert np.allclose(r1.signal.U, r2.signal.U, atol=1e-6)


def test_single_slot_grid():
    # N = 1: one held value must do all the work, so u = -x0 / T
    report = solve(scalar_integrator(1.0, 2.0, 1))
    assert report.status is SolveStatus.OPTIMAL
    assert report.signal.U[0] == pytest.approx(-0.5, abs=1e-8)
    assert report.objective == pytest.approx(1.0, abs=1e-8)


def test_unstable_plant_solves():
    # at T = 20 the terminal-coordinate constraint has entries near e^20;
    # the crossover's least-squares step is what keeps its error in bounds
    for a, x0, T, N in ((0.5, 0.1, 2.0, 20), (1.0, 0.5, 20.0, 200)):
        plant = PlantModel(A=[[a]], B=[[1.0]])
        problem = ControlProblem(plant=plant, x0=[x0], T=T, N=N)
        report = solve(problem)
        assert report.status is SolveStatus.OPTIMAL
        assert report.terminal_error <= 1e-6 * (1 + x0)
        assert np.max(np.abs(report.signal.U)) <= 1.0 + 1e-9


def test_solve_is_deterministic():
    problem = double_integrator([1.0, 0.0], 10.0, 100)
    r1 = solve(problem)
    r2 = solve(problem)
    assert np.array_equal(r1.signal.U, r2.signal.U)
    assert r1.objective == r2.objective
    assert r1.iterations == r2.iterations


def test_solve_makes_one_interior_point_call(monkeypatch):
    import handsoff.solver

    calls = []
    original = handsoff.solver.solve_ip

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(handsoff.solver, "solve_ip", counted)
    report = solve(scalar_integrator(1.0, 2.0, 8))
    assert report.polish_applied and report.polish_rounds > 0
    assert len(calls) == 1


def test_large_instance_reaches_simplex_vertex():
    # the discrete bang-off-bang statement: at most n entries off the levels
    problem = feasible_problem(np.random.default_rng(808), 4, 2, 5000, T=1.0)
    report = solve(problem)
    assert report.status is SolveStatus.OPTIMAL
    U = report.signal.U
    assert np.count_nonzero((np.abs(U) > 1e-6) & (np.abs(U) < 1 - 1e-9)) <= 4
    dp = build_reachability(problem)
    K = dp.Phi.shape[1]
    lam = np.full(K, dp.h)
    ref = linprog(np.concatenate([lam, lam]), A_eq=np.hstack([dp.Phi, -dp.Phi]),
                  b_eq=-dp.c, bounds=(0.0, 1.0), method="highs-ds")
    U_ref = ref.x[:K] - ref.x[K:]
    assert np.array_equal(np.abs(U) > 1e-6, np.abs(U_ref) > 1e-6)
    assert report.objective == pytest.approx(ref.fun, rel=1e-8)


def test_solve_discretized_peak_memory():
    # the interior point works on Phi itself: no [Phi, -Phi] and no
    # 2K-column scaled copy, so a warm solve stays within a few Phi-sized
    # arrays plus the split iterate vectors
    problem = feasible_problem(np.random.default_rng(808), 8, 2, 2000, T=1.0)
    dp = build_reachability(problem)
    solve_discretized(dp, problem.weights)
    tracemalloc.start()
    try:
        report = solve_discretized(dp, problem.weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.status is SolveStatus.OPTIMAL
    assert peak <= 12.5 * dp.Phi.nbytes


@pytest.mark.parametrize("seed, n, m, N, working_set", [
    (51, 3, 2, 700, None),   # K = 1400, solved whole
    (52, 4, 1, 1500, None),  # K = 1500, solved whole, mostly bulk steps
    (54, 5, 2, 2500, None),  # K = 5000, column generation
    (65, 2, 2, 300, 16),
    (71, 2, 2, 300, 16),
])
def test_crossover_invariants(seed, n, m, N, working_set, monkeypatch):
    import handsoff.solver

    calls = []
    original = handsoff.solver.polish_to_vertex

    def recorded(lp, U, *args, **kwargs):
        out = original(lp, U, *args, **kwargs)
        calls.append((lp, U, out))
        return out

    monkeypatch.setattr(handsoff.solver, "polish_to_vertex", recorded)
    if working_set is not None:
        monkeypatch.setattr(handsoff.solver, "_WORKING_SET", working_set)
    rng = np.random.default_rng(seed)
    problem = feasible_problem(rng, n, m, N, T=float(rng.uniform(0.5, 2.0)))
    report = solve(problem)
    assert report.status is SolveStatus.OPTIMAL and report.polish_applied
    (lp, U0, (U, accepted, steps)), = calls
    assert accepted and steps == report.polish_rounds > 0
    thr = SolverOptions().sparsity_threshold
    before = np.count_nonzero((np.abs(U0) > thr) & (np.abs(U0) < 1.0 - thr))
    frac = np.flatnonzero((U != 0.0) & (np.abs(U) < 1.0))
    assert frac.size <= n
    assert np.linalg.matrix_rank(lp.M[:, frac]) == frac.size
    assert report.polish_rounds == before - frac.size
    J0 = float(lp.w @ np.abs(U0))
    assert float(lp.w @ np.abs(U)) <= J0 + handsoff.solver._ACCEPT * (1.0 + abs(J0))
    assert report.objective == pytest.approx(fuel_reference(problem).fun, rel=1e-8)


def test_report_stores_the_control_by_its_support():
    # a dense U would be 8 bytes a slot and channel, 320 kB here
    problem = feasible_problem(np.random.default_rng(808), 8, 2, 20000, T=1.0)
    report = solve(problem)
    assert report.status is SolveStatus.OPTIMAL
    nonzeros = int(np.count_nonzero(report.signal.U))
    assert len(pickle.dumps(report)) <= 16 * nonzeros + 2048


def _support(U, thr=1e-6):
    return int(np.count_nonzero(np.abs(U) > thr))


def _bracket_holds(report, highs_fun):
    # the restricted primal is feasible for the full program and the dual
    # value is priced over every column, so together they bracket HiGHS
    slack = 1e-10 * (1 + abs(highs_fun))  # HiGHS's own roundoff
    assert report.dual_objective <= highs_fun + slack
    assert highs_fun <= report.lp_objective + slack
    gap = report.lp_objective - report.dual_objective
    assert gap <= 1e-8 * (1 + abs(report.lp_objective))


def test_column_generation_matches_full_program(monkeypatch):
    import handsoff.solver

    rng = np.random.default_rng(31)
    for _ in range(4):
        n, m = int(rng.integers(2, 5)), int(rng.integers(1, 3))
        N = int(rng.integers(2049 // m + 1, 3000))
        problem = feasible_problem(rng, n, m, N, T=float(rng.uniform(0.5, 1.5)))
        dp = build_reachability(problem)
        report = solve_discretized(dp, problem.weights)
        assert report.status is SolveStatus.OPTIMAL
        assert report.pricing_rounds >= 1
        full = solve_ip(build_lp(dp, problem.weights))
        assert report.objective == pytest.approx(full.objective, rel=1e-8, abs=1e-8)
        _bracket_holds(report, fuel_reference(problem).fun)
        with monkeypatch.context() as patch:
            patch.setattr(handsoff.solver, "_WORKING_SET", dp.Phi.shape[1])
            whole = solve_discretized(dp, problem.weights)
        assert whole.pricing_rounds == 1
        assert _support(report.signal.U) <= _support(whole.signal.U)


def test_column_generation_certifies_infeasibility():
    # the precheck passes (row slacks are nonnegative); the first
    # restricted Farkas ray must certify the full program
    problem = double_integrator([-3.3, 1.9], 2.0, 3000)
    report = solve(problem)
    assert report.feasibility_slack >= 0
    assert report.status is SolveStatus.INFEASIBLE
    assert report.signal is None
    assert report.pricing_rounds >= 1


@pytest.mark.parametrize("seed", [41, 42, 43])
def test_small_working_set_forces_pricing_rounds(seed, monkeypatch):
    import handsoff.solver

    monkeypatch.setattr(handsoff.solver, "_WORKING_SET", 16)
    rng = np.random.default_rng(seed)
    problem = feasible_problem(rng, int(rng.integers(2, 4)), int(rng.integers(1, 3)),
                               int(rng.integers(60, 120)), T=float(rng.uniform(1.0, 4.0)))
    report = solve(problem)
    ref = fuel_reference(problem)
    assert report.status is SolveStatus.OPTIMAL
    assert report.pricing_rounds > 1
    _bracket_holds(report, ref.fun)
    assert report.objective == pytest.approx(ref.fun, rel=1e-7, abs=1e-9)
    assert report.terminal_error <= 1e-6 * (1 + np.linalg.norm(problem.x0))


def test_infeasible_restriction_grows_the_working_set(monkeypatch):
    # the first working set cannot reach the target, and its Farkas ray
    # does not certify the full program: its columns join instead
    import handsoff.solver

    statuses = []
    original = handsoff.solver.solve_ip

    def recorded(*args, **kwargs):
        res = original(*args, **kwargs)
        statuses.append(res.status)
        return res

    monkeypatch.setattr(handsoff.solver, "_WORKING_SET", 16)
    monkeypatch.setattr(handsoff.solver, "solve_ip", recorded)
    rng = np.random.default_rng(64)
    problem = feasible_problem(rng, int(rng.integers(2, 4)), 1, int(rng.integers(60, 120)),
                               T=float(rng.uniform(1.0, 4.0)), witness_scale=0.9)
    report = solve(problem)
    assert statuses[0] is SolveStatus.INFEASIBLE
    assert report.status is SolveStatus.OPTIMAL
    _bracket_holds(report, fuel_reference(problem).fun)


def test_small_working_set_infeasible(monkeypatch):
    import handsoff.solver

    monkeypatch.setattr(handsoff.solver, "_WORKING_SET", 16)
    report = solve(double_integrator([-3.3, 1.9], 2.0, 200))
    assert report.feasibility_slack >= 0
    assert report.status is SolveStatus.INFEASIBLE


def test_open_gap_is_never_reported_optimal(monkeypatch):
    # a restricted solve whose primal value sits above every dual bound:
    # pricing runs out of columns, the tolerance is cut twice, and the
    # loop gives up instead of claiming optimality
    import handsoff.solver

    tols = []
    original = handsoff.solver.solve_ip

    def biased(lp, tol=1e-8, **kwargs):
        tols.append(tol)
        res = original(lp, tol=tol, **kwargs)
        return dataclasses.replace(res, objective=res.objective + 1.0)

    monkeypatch.setattr(handsoff.solver, "_WORKING_SET", 16)
    monkeypatch.setattr(handsoff.solver, "solve_ip", biased)
    report = solve(feasible_problem(np.random.default_rng(44), 2, 1, 80, T=2.0))
    assert report.status is SolveStatus.NUMERICAL_FAILURE
    assert report.signal is None
    assert report.lp_objective - report.dual_objective > 1.0 - 1e-6
    assert tols[-3:] == pytest.approx([1e-8, 1e-9, 1e-10])
    assert report.pricing_rounds == len(tols)


@pytest.mark.parametrize("overshooting_calls", [1, 3])
def test_overshoot_is_rejected_without_a_re_solve(overshooting_calls, monkeypatch):
    # the interior point keeps its control inside the box, so a control
    # 2e-9 outside it is a numerical failure, not a reason to solve again,
    # even when a second call would have come back inside
    import handsoff.solver

    tols = []
    original = handsoff.solver.solve_ip

    def overshooting(lp, tol=1e-8, **kwargs):
        tols.append(tol)
        res = original(lp, tol=tol, **kwargs)
        if len(tols) > overshooting_calls:
            return res
        x = res.x.copy()
        x[int(np.argmax(np.abs(x)))] *= 1.0 + 2e-9 / np.max(np.abs(x))
        return dataclasses.replace(res, x=x)

    monkeypatch.setattr(handsoff.solver, "solve_ip", overshooting)
    report = solve(double_integrator([1.0, 0.0], 10.0, 100))
    assert report.status is SolveStatus.NUMERICAL_FAILURE
    assert tols == [1e-8]
    assert report.pricing_rounds == 1


def test_working_set_sized_program_is_solved_whole(monkeypatch):
    import handsoff.solver

    programs = []
    original = handsoff.solver.solve_ip

    def recorded(lp, *args, **kwargs):
        programs.append(lp)
        return original(lp, *args, **kwargs)

    monkeypatch.setattr(handsoff.solver, "solve_ip", recorded)
    problem = feasible_problem(np.random.default_rng(45), 3, 2, 1024, T=1.0)
    dp = build_reachability(problem)
    assert dp.Phi.shape[1] == handsoff.solver._WORKING_SET
    report = solve_discretized(dp, problem.weights)
    assert report.status is SolveStatus.OPTIMAL and report.pricing_rounds == 1
    assert len(programs) == 1
    assert programs[0].M is dp.Phi
    direct = original(build_lp(dp, problem.weights))
    assert (report.lp_objective, report.dual_objective, report.iterations) == \
        (direct.objective, direct.dual_objective, direct.iterations)


def test_solve_discretized_peak_memory_large_horizon():
    # past the working set the interior point only sees a column subset,
    # so the peak is Phi^T y and a few K-vectors, not the split iterates
    problem = feasible_problem(np.random.default_rng(808), 8, 2, 20000, T=1.0)
    dp = build_reachability(problem)
    solve_discretized(dp, problem.weights)
    tracemalloc.start()
    try:
        report = solve_discretized(dp, problem.weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.status is SolveStatus.OPTIMAL
    assert report.pricing_rounds > 1
    assert peak <= 3.0 * dp.Phi.nbytes
