import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog

from handsoff import (
    ControlProblem,
    ControlSignal,
    DimensionMismatch,
    HandsOffError,
    NonFiniteInput,
    NonpositiveWeight,
    PlantModel,
    SolveStatus,
    build_lp,
    build_reachability,
    polish_to_vertex,
    recompute_objective,
    solve,
    solve_discretized,
    solve_ip,
)
from handsoff.interior_point import _BAND
from handsoff.solver import OPT_TOL

from _instances import (
    certified_rest_to_rest_fuel,
    column_generation_draws,
    double_integrator,
    exact_farkas_check,
    exact_vertex_audit,
    feasible_problem,
    priced_dual,
    scalar_integrator,
    stable_plant,
    twin_channel_problem,
    whole_program_draws,
)


def fuel_reference(problem):
    """Independent optimum via an external solver on the same LP data."""
    dp = build_reachability(problem)
    K = dp.Phi.shape[1]
    lam = dp.h * np.tile(problem.weights, dp.N)
    res = linprog(np.concatenate([lam, lam]),
                  A_eq=np.hstack([dp.Phi, -dp.Phi]), b_eq=-dp.c,
                  bounds=[(0.0, 1.0)] * (2 * K), method="highs")
    # a reference HiGHS did not solve, or whose point misses the target,
    # would judge the solver against the wrong number
    assert res.status == 0, res.message
    x = res.x[:K] - res.x[K:]
    assert np.linalg.norm(dp.Phi @ x + dp.c) <= 1e-9 * (1 + np.linalg.norm(dp.c))
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
    # problems/infeasible_scalar.json; its costate is an exact Farkas ray
    problem = scalar_integrator(2.0, 1.0, 10)
    report = solve(problem)
    assert report.status is SolveStatus.INFEASIBLE
    assert report.signal is None
    assert report.reason == "interior point returned infeasible in round 1"
    exact_farkas_check(build_lp(build_reachability(problem), problem.weights),
                       report.costate)


def test_lp_detected_infeasibility_without_certificate():
    # row slacks are nonnegative here but the rows are jointly unreachable
    problem = double_integrator([-1.9, 1.95], 2.0, 4)
    report = solve(problem)
    assert report.status is SolveStatus.INFEASIBLE
    assert report.reason.startswith("interior point returned infeasible")


def test_interior_point_ray_certifies_whole_program_draw():
    # w65 (n=7, m=1, N=1179): the interior point stops on tau -> 0 before
    # its bound duals converge, and its ray still meets the Farkas
    # inequality with room to spare, b @ y = 2352.6 > sum_j |Phi_j^T y| = 14.3
    problem = next(p for name, p in whole_program_draws() if name == "w65")
    lp = build_lp(build_reachability(problem), problem.weights)
    res = solve_ip(lp)
    assert res.status is SolveStatus.INFEASIBLE
    assert lp.b @ res.y > np.abs(lp.M.T @ res.y).sum()
    report = solve(problem)
    assert report.status is SolveStatus.INFEASIBLE
    assert report.reason == "interior point returned infeasible in round 1"
    exact_farkas_check(lp, report.costate)


@pytest.mark.parametrize("problem, iterations", [
    (double_integrator([-3.3, 1.9], 2.0, 200), 5),
    # A = 0 and B = (1, 1) keep x1 - x2 fixed: a target off that line is
    # decided before the first interior-point step
    (ControlProblem(PlantModel(A=np.zeros((2, 2)), B=[[1.0], [1.0]]), x0=[0.5, -0.5],
                    T=1.0, N=10), 0),
], ids=["double", "rank_deficient"])
def test_unreachable_target_costate_is_an_exact_farkas_ray(problem, iterations):
    # the report's costate alone certifies the status, in exact arithmetic
    # on the program's floats
    report = solve(problem)
    assert report.status is SolveStatus.INFEASIBLE
    assert report.iterations == iterations
    assert report.costate.shape == (problem.plant.n,)
    exact_farkas_check(build_lp(build_reachability(problem), problem.weights),
                       report.costate)


@pytest.mark.parametrize("problem", [
    double_integrator([1.0 + 1e-9, 0.0], 2.0, 200),
    scalar_integrator(1.0 + 1e-9, 1.0, 10),
], ids=["double", "scalar"])
def test_target_just_past_the_reachable_set(problem):
    # 1e-9 past the boundary, within FEAS_TOL: the interior point reaches
    # its optimal stop, but the costate it returns already meets the Farkas
    # inequality b @ y > sum_j |Phi_j^T y| (on the scalar integrator
    # D = 1.0000000019 against a total weight of 1), which certifies the
    # program infeasible
    report = solve(problem)
    assert report.status is SolveStatus.INFEASIBLE
    assert report.signal is None
    assert report.reason == "the costate of optimal round 1 is a Farkas ray"


def test_double_integrator_matches_simplex_reference():
    problem = double_integrator([1.0, 0.0], 10.0, 100)
    report = solve(problem)
    ref = fuel_reference(problem)
    assert report.status is SolveStatus.OPTIMAL and report.reason == ""
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


def test_recompute_objective_rejects_bad_weights():
    signal = ControlSignal(U=[0.5, -1.0, 0.0], h=0.1, m=1, N=3)
    assert recompute_objective(signal, [2.0]) == pytest.approx(0.3)
    with pytest.raises(DimensionMismatch):
        recompute_objective(signal, [1.0, 1.0])
    for weights in ([0.0], [-1.0]):
        with pytest.raises(NonpositiveWeight):
            recompute_objective(signal, weights)


def test_polish_never_degrades():
    rng = np.random.default_rng(21)
    thr = 1e-6
    for _ in range(6):
        problem = feasible_problem(rng, int(rng.integers(1, 4)), 1,
                                   int(rng.integers(6, 30)),
                                   T=float(rng.uniform(1.0, 5.0)))
        report = solve(problem)
        unpolished = solve(problem, polish=False).signal
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
    unpolished = solve(problem, polish=False).signal.U
    polished = report.signal.U
    assert np.count_nonzero(np.abs(unpolished) > 1e-6) == 8
    assert report.unpolished_support == 8
    active = np.abs(polished) > 1e-6
    assert np.count_nonzero(active) == 4
    assert np.allclose(polished[active], -1.0, atol=1e-6)
    assert report.objective == pytest.approx(1.0, abs=1e-7)


def test_polish_disabled_keeps_interior_point():
    problem = scalar_integrator(1.0, 2.0, 8)
    report = solve(problem, polish=False)
    assert not report.polish_applied
    lp = build_lp(build_reachability(problem), np.array([1.0]))
    assert np.array_equal(report.signal.U, np.clip(solve_ip(lp).x, -1.0, 1.0))
    assert np.count_nonzero(np.abs(report.signal.U) > 1e-6) == 8


def test_polish_to_vertex_direct_call_on_unique_optimum():
    # single-point optimal face: polishing must return the same point
    problem = double_integrator([1.0, 0.0], 5.0, 8)
    dp = build_reachability(problem)
    lp = build_lp(dp, np.array([1.0]))
    report = solve(problem, polish=False)
    U0 = report.signal.U
    U, accepted, _ = polish_to_vertex(lp, U0)
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_unstable_plant_past_float64_is_a_typed_error():
    # x' = a x + u over T = 20: Ad^N = e^(20 a) overflows at a = 40, and
    # the solve raises before any LP is built; a = 20 (e^400) still solves
    def problem(a):
        return ControlProblem(plant=PlantModel(A=[[a]], B=[[1.0]]), x0=[0.01],
                              T=20.0, N=200)
    with pytest.raises(NonFiniteInput, match="overflows"):
        solve(problem(40.0))
    report = solve(problem(20.0))
    assert report.status is SolveStatus.OPTIMAL
    assert report.objective == pytest.approx(0.0231304, rel=1e-5)


def test_terminal_check_names_itself():
    # at a = 5, T = 20 the interior point's control misses the origin by
    # e^100-sized roundoff; without the crossover the terminal check fails
    problem = ControlProblem(plant=PlantModel(A=[[5.0]], B=[[1.0]]), x0=[0.1],
                             T=20.0, N=200)
    report = solve(problem, polish=False)
    assert report.status is SolveStatus.NUMERICAL_FAILURE
    assert report.terminal_error > 1e20
    assert report.reason.startswith("terminal error")
    assert report.reason.endswith("crossover not applied")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("polish", [True, False])
@pytest.mark.parametrize("a", [32.0, 35.0])
def test_terminal_norm_past_float64_fails_without_a_warning(a, polish):
    # x' = a x + u over T = 20: the data stay finite, but the norm of the
    # terminal residual overflows; it reads inf and fails the check
    problem = ControlProblem(plant=PlantModel(A=[[a]], B=[[1.0]]), x0=[0.01],
                             T=20.0, N=200)
    report = solve(problem, polish=polish)
    assert report.status is SolveStatus.NUMERICAL_FAILURE
    assert report.terminal_error == np.inf
    assert report.reason.startswith("terminal error inf > ")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_unstable_plant_below_the_norm_overflow_solves():
    # at a = 30 the entries reach e^600 and the norm still stays finite
    problem = ControlProblem(plant=PlantModel(A=[[30.0]], B=[[1.0]]), x0=[0.01],
                             T=20.0, N=200)
    report = solve(problem)
    assert report.status is SolveStatus.OPTIMAL and report.polish_applied


@pytest.mark.parametrize("fake", ["extra_fuel", "misses_target", "below_D"])
def test_final_check_not_the_crossover_decides(fake, monkeypatch):
    # a vertex the crossover calls accepted is still judged by the check:
    # one of fuel 1.5 (the optimum is 1.0), one off the target, and one
    # whose terminal error 1e-7 is inside its bound but whose fuel is 1e-7
    # below D all give way to the interior point's control
    import handsoff.solver

    problem = scalar_integrator(1.0, 2.0, 8)
    interior = solve(problem, polish=False)
    if fake == "extra_fuel":
        V = np.array([-1.0, -1.0, -1.0, -1.0, -1.0, 1.0, 0.0, 0.0])
    elif fake == "misses_target":
        V = interior.signal.U.copy()
        V[0] -= 0.1
    else:
        V = interior.signal.U * (1.0 - 1e-7)
    monkeypatch.setattr(handsoff.solver, "polish_to_vertex", lambda *args, **kwargs: (V, True, 3))
    report = solve(problem)
    assert report.status is SolveStatus.OPTIMAL
    assert not report.polish_applied
    assert np.array_equal(report.signal.U, interior.signal.U)


@pytest.mark.parametrize("make", [
    lambda: double_integrator([1.0, 0.0], 10.0, 100),
    lambda: feasible_problem(np.random.default_rng(808), 4, 2, 500, T=1.0),
], ids=["double_integrator", "n4_m2_N500"])
def test_returned_vertex_is_optimal_in_exact_arithmetic(make):
    # the crossover's vertex, re-solved and priced in rational arithmetic
    # on the same float data, is the float control to roundoff and its
    # costate keeps the dead-zone law on every column
    problem = make()
    dp = build_reachability(problem)
    report = solve_discretized(dp, problem.weights)
    assert report.status is SolveStatus.OPTIMAL and report.polish_applied
    audit = exact_vertex_audit(build_lp(dp, problem.weights), report.signal.U)
    if audit is None:
        pytest.skip("degenerate vertex: fewer than n fractional entries")
    F, u_F, objective = audit
    assert max(abs(report.signal.U[j] - float(u)) for j, u in zip(F, u_F)) <= 1e-12
    assert report.objective == pytest.approx(float(objective), rel=1e-12)


def test_solve_is_deterministic():
    problem = double_integrator([1.0, 0.0], 10.0, 100)
    r1 = solve(problem)
    r2 = solve(problem)
    assert r1.status is r2.status is SolveStatus.OPTIMAL
    assert r1.polish_applied and r2.polish_applied
    assert np.array_equal(r1.signal.U, r2.signal.U)
    assert r1.objective == r2.objective == 0.20206185567010204
    assert r1.crossover_pins == r2.crossover_pins
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
    assert report.polish_applied and report.crossover_pins > 0
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


@pytest.mark.parametrize("n, N", [(4, 5000), (8, 20000)])
def test_interior_point_ends_on_the_vertex(n, N):
    # the two solve_large draws, with fuels of a few 1e-3: the interior
    # point's endgame leaves the crossover at most n entries to pin, and
    # the priced bracket closes to 1e-9 of the fuel
    problem = feasible_problem(np.random.default_rng(808), n, 2, N, T=1.0)
    report = solve(problem)
    assert report.status is SolveStatus.OPTIMAL
    assert report.crossover_pins <= n
    assert report.objective - report.dual_objective <= 1e-9 * report.objective


def test_small_fuel_objective_matches_highs():
    # a fuel of 2.0e-3, at which a gap relative to 1 + |fuel| is in effect
    # absolute; HiGHS (highs-ds) gives 0.0020120443321
    problem = feasible_problem(np.random.default_rng(809), 8, 2, 20000, T=1.0)
    report = solve(dataclasses.replace(problem, T=1.5, N=30000))
    assert report.status is SolveStatus.OPTIMAL
    assert report.objective == pytest.approx(0.0020120443321, rel=1e-9)


def test_feasible_column_generation_draw_is_solved():
    # sweep draw r7_1 (n=8, m=1, N=7724): Phi's singular values span
    # 1.3e-2 to 1.6e-10.  The returned vertex is certified in rational
    # arithmetic on the float data, and its exact optimum 0.0070850723019
    # is the reference: HiGHS's dual simplex gives 0.0070712, 0.2 % below it
    problem = _draw("r7_1")
    dp = build_reachability(problem)
    report = solve_discretized(dp, problem.weights)
    assert report.status is SolveStatus.OPTIMAL and report.polish_applied
    audit = exact_vertex_audit(build_lp(dp, problem.weights), report.signal.U)
    assert audit is not None
    assert report.objective == pytest.approx(float(audit[2]), rel=1e-12)


@pytest.mark.parametrize("name", ["r13_8", "r13_64"])
def test_ill_conditioned_draw_ends_on_its_vertex(name):
    # two more ill-conditioned sweep draws (n=8) that ran to the iteration
    # limit while the equality rows kept Phi's conditioning
    report = solve(_draw(name))
    assert report.status is SolveStatus.OPTIMAL and report.polish_applied


@pytest.mark.parametrize("name", ["w63", "w66", "w130", "w259", "w297", "w349", "w363"])
def test_whole_program_draw_keeps_its_vertex(name):
    # whole-program draws whose crossover vertex failed the final check
    # while the equality rows kept Phi's conditioning, so that the solve
    # returned the interior point's control
    problem = next(p for key, p in whole_program_draws() if key == name)
    report = solve(problem)
    assert report.status is SolveStatus.OPTIMAL and report.polish_applied


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


def _crossover_case(seed, n, m, N):
    rng = np.random.default_rng(seed)
    return feasible_problem(rng, n, m, N, T=float(rng.uniform(0.5, 2.0)))


# at_vertex: the interior point ends on a vertex to the sparsity
# threshold, so the crossover finds at most n fractional entries, pins
# none, and the support is the interior point's.  The others still take
# steps: the last rounds of seeds 174 and 152 stop the endgame with more
# than n entries fractional, as its next step does not halve the gap, and
# leave the crossover a run of pins, and the twin plant's optimal face is
# not a vertex, since its two channels share one column.
@pytest.mark.parametrize("make, working_set, at_vertex", [
    pytest.param(lambda: _crossover_case(51, 3, 2, 700), None, True,
                 id="51-3-2-700-None"),
    pytest.param(lambda: _crossover_case(52, 4, 1, 1500), None, True,
                 id="52-4-1-1500-None"),
    pytest.param(lambda: _crossover_case(56, 5, 2, 2500), None, True,
                 id="56-5-2-2500-None"),
    pytest.param(lambda: _crossover_case(174, 3, 2, 2000), None, False,
                 id="174-3-2-2000-None"),
    pytest.param(lambda: _crossover_case(71, 2, 2, 300), 16, True,
                 id="71-2-2-300-16"),
    pytest.param(lambda: _crossover_case(152, 5, 1, 3000), None, False,
                 id="152-5-1-3000-None"),
    pytest.param(twin_channel_problem, None, False, id="twin"),
])
def test_crossover_invariants(make, working_set, at_vertex, monkeypatch):
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
    problem = make()
    report = solve(problem)
    assert report.status is SolveStatus.OPTIMAL and report.polish_applied
    (lp, U0, (U, accepted, steps)), = calls
    n = lp.M.shape[0]
    assert accepted and steps == report.crossover_pins
    before = np.count_nonzero((np.abs(U0) > _BAND) & (np.abs(U0) < 1.0 - _BAND))
    if at_vertex:
        assert before <= n
        assert report.unpolished_support == _support(report.signal.U, _BAND)
    else:
        assert steps > 0
    frac = np.flatnonzero((U != 0.0) & (np.abs(U) < 1.0))
    assert frac.size <= n
    assert np.linalg.matrix_rank(lp.M[:, frac]) == frac.size
    assert report.crossover_pins == before - frac.size
    J = float(lp.w @ np.abs(U))
    assert J - report.dual_objective <= OPT_TOL * (1.0 + J)
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
    # each state is within reach on its own, but not both together; the
    # first restricted Farkas ray must certify the full program
    problem = double_integrator([-3.3, 1.9], 2.0, 3000)
    report = solve(problem)
    assert report.status is SolveStatus.INFEASIBLE
    assert report.signal is None
    assert report.pricing_rounds >= 1


def _small_working_set(monkeypatch):
    # 16 columns a round, opened by a coarse program of 8 columns, so that
    # programs of a few hundred columns take several fine pricing rounds;
    # a coarse program of 256 would be the whole program
    import handsoff.solver

    monkeypatch.setattr(handsoff.solver, "_WORKING_SET", 16)
    monkeypatch.setattr(handsoff.solver, "_COARSE", 8)


def _small_draw(seed):
    rng = np.random.default_rng(seed)
    return feasible_problem(rng, int(rng.integers(2, 4)), int(rng.integers(1, 3)),
                            int(rng.integers(60, 120)), T=float(rng.uniform(1.0, 4.0)))


@pytest.mark.parametrize("seed", [41, 42, 43])
def test_small_working_set_forces_pricing_rounds(seed, monkeypatch):
    _small_working_set(monkeypatch)
    problem = _small_draw(seed)
    report = solve(problem)
    ref = fuel_reference(problem)
    assert report.status is SolveStatus.OPTIMAL
    assert report.pricing_rounds > 1
    _bracket_holds(report, ref.fun)
    assert report.objective == pytest.approx(ref.fun, rel=1e-7, abs=1e-9)
    assert report.terminal_error <= 1e-6 * (1 + np.linalg.norm(problem.x0))


def _recorded_rounds(monkeypatch):
    # every solve_ip call of a solve, with the program it was given
    import handsoff.solver

    rounds = []
    original = handsoff.solver.solve_ip

    def recorded(lp, *args, **kwargs):
        res = original(lp, *args, **kwargs)
        rounds.append((lp, res))
        return res

    monkeypatch.setattr(handsoff.solver, "solve_ip", recorded)
    return rounds


def _full_columns(Phi, sub):
    # the full-program index of each column of a restricted program; the
    # restriction copies columns of Phi, so they match bit for bit
    index = {Phi[:, j].tobytes(): j for j in range(Phi.shape[1])}
    assert len(index) == Phi.shape[1]
    return np.array([index[col.tobytes()] for col in sub.M.T])


def _draw(name):
    return next(problem for key, problem in column_generation_draws() if key == name)


def test_pruning_keeps_the_dead_zone_edge(monkeypatch):
    # sweep draw r13_66 (n=4, m=2, N=1097) takes two fine rounds after the
    # coarse one: of the first fine round's columns, the second keeps only
    # those at the edge of the first's dead zone, the first's support among
    # them, and the priced bracket still closes on HiGHS
    problem = _draw("r13_66")
    rounds = _recorded_rounds(monkeypatch)
    report = solve(problem)
    assert report.status is SolveStatus.OPTIMAL
    (lp1, res1), (lp2, _) = rounds[1:3]
    assert res1.status is SolveStatus.OPTIMAL
    assert lp2.M.shape[1] < lp1.M.shape[1]
    Phi = build_reachability(problem).Phi
    cols1, cols2 = _full_columns(Phi, lp1), _full_columns(Phi, lp2)
    kept = np.isin(cols1, cols2)
    assert not kept.all()
    assert np.all(np.abs(lp1.M[:, kept].T @ res1.y) > 0.99 * lp1.w[kept])
    assert np.all(kept[np.abs(res1.x) > 1e-6])
    _bracket_holds(report, fuel_reference(problem).fun)


@pytest.mark.parametrize("seed", [43, 55, 56, 58])
def test_pruned_rounds_never_raise_the_primal(seed, monkeypatch):
    # each optimal round keeps the last one's support, the first fine round
    # the coarse round's, so its restricted primal cannot rise, and a column
    # leaves the working set at most once; each seed prunes between fine rounds
    _small_working_set(monkeypatch)
    problem = _small_draw(seed)
    rounds = _recorded_rounds(monkeypatch)
    report = solve(problem)
    assert report.status is SolveStatus.OPTIMAL and len(rounds) > 1
    P = [res.objective for _, res in rounds if res.status is SolveStatus.OPTIMAL]
    assert all(b <= a + OPT_TOL * (1.0 + abs(a)) for a, b in zip(P, P[1:]))
    Phi = build_reachability(problem).Phi
    sets = [set(_full_columns(Phi, lp).tolist()) for lp, _ in rounds[1:]]
    left = [j for a, b in zip(sets, sets[1:]) for j in a - b]
    assert left and len(left) == len(set(left))


def _edge_problem(rng, n, N, T):
    # one channel, with the target 1 % inside a vertex of the reachable set,
    # the image of the bang-bang control sign(Phi^T g): held controls fall
    # short of it
    plant = stable_plant(rng, n, 1)
    dp = build_reachability(ControlProblem(plant=plant, x0=np.zeros(n), T=T, N=N))
    U = 0.99 * np.sign(dp.Phi.T @ rng.normal(size=n))
    x0 = -np.linalg.solve(np.linalg.matrix_power(dp.Ad, N), dp.Phi @ U)
    return ControlProblem(plant=plant, x0=x0, T=T, N=N)


def test_infeasible_restriction_grows_the_working_set(monkeypatch):
    # the coarse program cannot reach the target, and its Farkas ray does
    # not certify the full program: the columns it reaches furthest join
    _small_working_set(monkeypatch)
    rounds = _recorded_rounds(monkeypatch)
    rng = np.random.default_rng(61)
    problem = _edge_problem(rng, int(rng.integers(2, 4)), int(rng.integers(60, 120)),
                            T=float(rng.uniform(1.0, 4.0)))
    report = solve(problem)
    assert rounds[0][1].status is SolveStatus.INFEASIBLE
    assert report.status is SolveStatus.OPTIMAL
    _bracket_holds(report, fuel_reference(problem).fun)


def test_small_working_set_infeasible(monkeypatch):
    _small_working_set(monkeypatch)
    report = solve(double_integrator([-3.3, 1.9], 2.0, 200))
    assert report.status is SolveStatus.INFEASIBLE


def test_open_gap_is_never_reported_optimal(monkeypatch):
    # a restricted solve whose primal value sits above every dual bound:
    # the coarse round opens, pricing adds columns until it finds none, and
    # the loop gives up at once instead of claiming optimality.  A bias of
    # 1.0 dwarfs the fuel; one of 1e-6 leaves the gap open by only 100
    # times the stop's bound, after four fine rounds of real pricing.  A
    # program within the working set is priced too, in its one round
    import handsoff.solver

    _small_working_set(monkeypatch)
    original = handsoff.solver.solve_ip
    for bias, problem, rounds in [
            (1.0, feasible_problem(np.random.default_rng(44), 2, 1, 80, T=2.0), 2),
            (1e-6, _small_draw(43), 5),
            (1e-6, double_integrator([1.0, 0.0], 10.0, 16), 1)]:
        calls = []

        def biased(lp, bias=bias):
            calls.append(lp)
            res = original(lp)
            return dataclasses.replace(res, objective=res.objective + bias)

        monkeypatch.setattr(handsoff.solver, "solve_ip", biased)
        report = solve(problem)
        assert report.status is SolveStatus.NUMERICAL_FAILURE
        assert report.signal is None
        assert report.lp_objective - report.dual_objective > bias * (1.0 - 1e-6)
        assert report.reason.startswith("pricing found no column with the gap open")
        assert len(calls) == rounds
        assert report.pricing_rounds == len(calls)


@pytest.mark.parametrize("overshooting_calls", [1, 3])
def test_overshoot_is_clipped_without_a_re_solve(overshooting_calls, monkeypatch):
    # a control 2e-9 outside the box is clipped into it and faces the final
    # check like any other, with no second call: the crossover's vertex is
    # returned, and without the crossover the clipped interior control
    import handsoff.solver

    problem = double_integrator([1.0, 0.0], 10.0, 100)
    original = handsoff.solver.solve_ip
    for polish in (True, False):
        returned = []

        def overshooting(*args, **kwargs):
            res = original(*args, **kwargs)
            if len(returned) < overshooting_calls:
                x = res.x.copy()
                x[int(np.argmax(np.abs(x)))] *= 1.0 + 2e-9 / np.max(np.abs(x))
                res = dataclasses.replace(res, x=x)
            returned.append(res.x)
            return res

        monkeypatch.setattr(handsoff.solver, "solve_ip", overshooting)
        report = solve(problem, polish=polish)
        x, = returned
        assert np.max(np.abs(x)) > 1.0 + 1e-9
        assert report.status is SolveStatus.OPTIMAL and report.reason == ""
        assert report.pricing_rounds == 1
        assert report.polish_applied is polish
        if polish:
            assert report.objective == 0.20206185567010204
        else:
            assert np.array_equal(report.signal.U, np.clip(x, -1.0, 1.0))


def test_working_set_sized_program_is_solved_whole(monkeypatch):
    import handsoff.solver

    original = handsoff.solver.solve_ip
    rounds = _recorded_rounds(monkeypatch)
    problem = feasible_problem(np.random.default_rng(45), 3, 2, 1024, T=1.0)
    dp = build_reachability(problem)
    assert dp.Phi.shape[1] == handsoff.solver._WORKING_SET
    report = solve_discretized(dp, problem.weights)
    assert report.status is SolveStatus.OPTIMAL and report.pricing_rounds == 1
    assert len(rounds) == 1
    assert rounds[0][0].M is dp.Phi
    lp = build_lp(dp, problem.weights)
    direct = original(lp)
    assert (report.lp_objective, report.dual_objective, report.iterations) == \
        (direct.objective, priced_dual(lp, direct.y), direct.iterations)


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


def test_coarse_program_holds_each_channel_over_r_slots():
    # with N = 128 r the coarse program is the reachability program of the
    # same problem on 128 slots of r h, weighted r h lambda; with a shorter
    # last block, any coarse control held on its slots is a fine control
    # with the same terminal state and fuel
    import handsoff.solver

    base = feasible_problem(np.random.default_rng(808), 4, 2, 2560, T=1.0)
    problem = dataclasses.replace(base, weights=[0.5, 2.0])
    dp = build_reachability(problem)
    lp = build_lp(dp, problem.weights)
    coarse, r = handsoff.solver._coarse_program(lp, 2, 2560)
    assert r == 20
    grid = build_reachability(dataclasses.replace(problem, N=128))
    assert np.abs(coarse.M - grid.Phi).max() <= 1e-12 * np.abs(grid.Phi).max()
    assert np.allclose(coarse.w, np.tile(r * dp.h * problem.weights, 128), rtol=1e-12, atol=0)
    assert np.array_equal(coarse.b, lp.b)

    dp = build_reachability(dataclasses.replace(problem, N=2510))
    lp = build_lp(dp, problem.weights)
    coarse, r = handsoff.solver._coarse_program(lp, 2, 2510)
    assert r == 20 and coarse.M.shape[1] == 2 * 126  # the last block holds 10 slots
    v = np.random.default_rng(1).uniform(-1.0, 1.0, coarse.M.shape[1])
    U = v.reshape(-1, 2)[np.arange(2510) // r].ravel()
    assert np.allclose(lp.M @ U, coarse.M @ v, rtol=0, atol=1e-12 * np.abs(lp.M).sum())
    assert lp.w @ np.abs(U) == pytest.approx(coarse.w @ np.abs(v), rel=1e-12)


def test_first_fine_round_holds_the_coarse_support(monkeypatch):
    # the first fine round holds every fine column of each coarse block the
    # coarse control uses, so the coarse control stays feasible in it
    import handsoff.solver

    problem = feasible_problem(np.random.default_rng(808), 4, 2, 5000, T=1.0)
    rounds = _recorded_rounds(monkeypatch)
    report = solve(problem)
    assert report.status is SolveStatus.OPTIMAL
    (coarse, res), (lp1, _) = rounds[:2]
    assert coarse.M.shape[1] <= handsoff.solver._COARSE
    assert res.status is SolveStatus.OPTIMAL
    dp = build_reachability(problem)
    r = -(-dp.m * dp.N // handsoff.solver._COARSE)
    held = np.flatnonzero(np.abs(res.x) > 1e-9)
    slots = (held // dp.m)[:, None] * r + np.arange(r)
    fine = (slots * dp.m + (held % dp.m)[:, None])[slots < dp.N]
    assert held.size and np.isin(fine, _full_columns(dp.Phi, lp1)).all()


@pytest.mark.parametrize("status", [SolveStatus.ITERATION_LIMIT, SolveStatus.NUMERICAL_FAILURE])
def test_failed_coarse_round_ends_the_pricing_loop(status, monkeypatch):
    # a coarse round without a verdict ends the loop with its status, as a
    # fine round does, and the report names the round
    import handsoff.solver

    rounds = []

    def failing(lp, *args, **kwargs):
        nan = float("nan")
        rounds.append(lp)
        return handsoff.solver.IPResult(status, None, None, nan, 200)

    monkeypatch.setattr(handsoff.solver, "solve_ip", failing)
    report = solve(feasible_problem(np.random.default_rng(808), 4, 2, 5000, T=1.0))
    assert report.status is status
    assert report.reason == f"interior point returned {status.value} in round 1"
    assert report.pricing_rounds == len(rounds) == 1
    assert report.iterations == 200
    assert report.signal is None and report.costate is None


def test_long_crossover_draw_now_ends_on_the_vertex():
    # sweep draw r11_35 (n=4, m=1, N=16556): its last round of 3345 columns
    # left the crossover 1131 pins; from the coarse round the last round
    # is far smaller and the endgame stops only on a vertex
    problem = _draw("r11_35")
    report = solve(problem)
    assert report.status is SolveStatus.OPTIMAL and report.polish_applied
    assert report.crossover_pins <= 4
    _bracket_holds(report, fuel_reference(problem).fun)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_solve_discretized_rejects_bad_weights(bad):
    # the typed error a ControlProblem raises for the same weight, also on
    # an infeasible program
    for x0 in ([1.0, 0.0], [0.0, 5.0]):
        problem = double_integrator(x0, 2.0, 100)
        with pytest.raises(HandsOffError) as expected:
            dataclasses.replace(problem, weights=[bad])
        with pytest.raises(expected.type):
            solve_discretized(build_reachability(problem), np.array([bad]))


def test_zero_state_column_generation_starts_from_the_last_slot(monkeypatch):
    # the coarse control is zero and prices nothing in, so the first fine
    # round holds the last slot alone, and its zero control closes the gap
    rounds = _recorded_rounds(monkeypatch)
    report = solve(scalar_integrator(0.0, 1.0, 3000))
    assert report.status is SolveStatus.OPTIMAL
    assert report.objective == 0.0
    assert [lp.M.shape[1] for lp, _ in rounds] == [250, 1]


@pytest.mark.parametrize("negate", [False, True])
def test_crossover_flat_tie_break_pins_an_entry_at_zero(negate, monkeypatch):
    # the null direction (1, 1, -1) of M is flat under w: one way first
    # pushes entry 0 to 1, the other first pushes entry 1 to 0; the step
    # goes the way that reaches 0, whichever sign the SVD gives d
    from handsoff.interior_point import L1Program

    if negate:
        svd = np.linalg.svd

        def negated(a, *args, **kwargs):
            u, s, vt = svd(a, *args, **kwargs)
            return u, s, -vt
        monkeypatch.setattr(np.linalg, "svd", negated)
    M = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    interior = np.array([0.95, 0.5, 0.3])
    lp = L1Program(M, M @ interior, np.array([1.0, 1.0, 2.0]))
    U, accepted, steps = polish_to_vertex(lp, interior)
    assert accepted and steps == 1
    assert U == pytest.approx([0.45, 0.0, 0.8], abs=1e-12)


def test_failed_fine_round_ends_the_pricing_loop(monkeypatch):
    # a fine round that ends without a verdict ends the loop with its
    # status, and the report says which round it was
    import handsoff.solver

    original = handsoff.solver.solve_ip
    rounds = []

    def failing_second(lp, *args, **kwargs):
        rounds.append(lp)
        if len(rounds) == 2:
            nan = float("nan")
            return handsoff.solver.IPResult(SolveStatus.ITERATION_LIMIT, None, None, nan, 200)
        return original(lp, *args, **kwargs)

    monkeypatch.setattr(handsoff.solver, "solve_ip", failing_second)
    report = solve(feasible_problem(np.random.default_rng(808), 4, 2, 5000, T=1.0))
    assert report.status is SolveStatus.ITERATION_LIMIT
    assert report.reason == "interior point returned iteration_limit in round 2"
    assert report.pricing_rounds == 2
    assert report.signal is None
