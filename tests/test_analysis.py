import itertools
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import handsoff.analysis
import handsoff.interior_point
from handsoff import (
    ControlProblem,
    ControlSignal,
    DimensionMismatch,
    ExhaustiveBoundExceeded,
    InfeasibleProblem,
    NonFiniteInput,
    NonpositiveWeight,
    PlantModel,
    RankDeficient,
    build_reachability,
    l0_oracle,
    min_energy_baseline,
    read_problem,
    simulate_continuous,
    simulate_discrete,
    solve,
    sparsity,
    verify_equivalence,
)

from _instances import (
    double_integrator,
    equivalence_instance,
    feasible_problem,
    reference_instances,
    scalar_integrator,
    twin_channel_problem,
)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def signal_of(values, h=0.1, m=1):
    values = np.asarray(values, dtype=float)
    return ControlSignal(U=values.ravel(), h=h, m=m, N=values.size // m)


def test_sparsity_zero_signal():
    rep = sparsity(signal_of(np.zeros(10)))
    assert rep.support_measure == 0.0
    assert rep.hands_off_ratio == 1.0


def test_sparsity_dense_signal():
    rep = sparsity(signal_of(np.ones(10)))
    assert rep.support_measure == pytest.approx(1.0)
    assert rep.hands_off_ratio == 0.0


def test_sparsity_counts_slots():
    values = np.zeros(10)
    values[[1, 4, 5, 9]] = 0.8
    rep = sparsity(signal_of(values))
    assert rep.support_measure == pytest.approx(0.4)
    assert rep.hands_off_ratio == pytest.approx(0.6)
    assert np.allclose(rep.per_channel_measure, [0.4])


def test_sparsity_per_channel_for_two_inputs():
    steps = np.zeros((5, 2))
    steps[0, 0] = 1.0
    steps[1, 0] = 1.0
    steps[1, 1] = -1.0
    rep = sparsity(signal_of(steps, m=2))
    assert rep.support_measure == pytest.approx(0.2)
    assert np.allclose(rep.per_channel_measure, [0.2, 0.1])


def test_simulate_discrete_homogeneous():
    dp = build_reachability(double_integrator([1.0, 2.0], 1.0, 5))
    traj = simulate_discrete(dp, signal_of(np.zeros(5), h=dp.h), [1.0, 2.0])
    x = np.array([1.0, 2.0])
    for k in range(6):
        assert np.allclose(traj[k], x, atol=1e-14)
        x = dp.Ad @ x
    assert traj.shape == (6, 2)


def test_simulate_discrete_constant_brake():
    dp = build_reachability(scalar_integrator(1.0, 1.0, 10))
    traj = simulate_discrete(dp, signal_of(-np.ones(10), h=dp.h), [1.0])
    assert traj[-1, 0] == pytest.approx(0.0, abs=1e-14)


def test_simulate_discrete_dimension_checks():
    dp = build_reachability(scalar_integrator(1.0, 1.0, 10))
    with pytest.raises(DimensionMismatch):
        simulate_discrete(dp, signal_of(np.zeros(5), h=dp.h), [1.0])
    with pytest.raises(DimensionMismatch):
        simulate_discrete(dp, signal_of(np.zeros(10), h=dp.h), [1.0, 2.0])


def test_solver_output_terminal_state_cross_check():
    # the simulated terminal state of an optimal control matches the
    # reachability-based computation and the reported terminal error
    problem = double_integrator([1.0, 0.0], 10.0, 100)
    report = solve(problem)
    dp = build_reachability(problem)
    traj = simulate_discrete(dp, report.signal, problem.x0)
    x0_norm = np.linalg.norm(problem.x0)
    assert np.linalg.norm(traj[-1]) <= 1e-6 * (1 + x0_norm)
    predicted = dp.c + dp.Phi @ report.signal.U
    assert np.linalg.norm(traj[-1] - predicted) <= 1e-10 * (1 + x0_norm)
    assert np.linalg.norm(predicted) == pytest.approx(report.terminal_error, abs=1e-12)


def test_terminal_state_consistency_with_reachability():
    rng = np.random.default_rng(31)
    for _ in range(6):
        problem = feasible_problem(rng, int(rng.integers(1, 5)),
                                   int(rng.integers(1, 3)),
                                   int(rng.integers(3, 40)),
                                   T=float(rng.uniform(0.5, 4.0)))
        dp = build_reachability(problem)
        U = rng.uniform(-1, 1, dp.Phi.shape[1])
        s = ControlSignal(U=U, h=dp.h, m=dp.m, N=dp.N)
        traj = simulate_discrete(dp, s, problem.x0)
        predicted = dp.c + dp.Phi @ U
        assert np.linalg.norm(traj[-1] - predicted) <= 1e-10 * (1 + np.linalg.norm(predicted))


@pytest.mark.parametrize("problem", [
    *(pytest.param(read_problem(path.read_text()), id=path.stem)
      for path in sorted(PROBLEMS.glob("*.json"))),
    *(pytest.param(feasible_problem(np.random.default_rng(33 + i), i % 3 + 1, i % 2 + 1,
                                    10 + 7 * i, T=1.0 + i), id=f"draw{i}") for i in range(5)),
])
def test_continuous_at_one_substep_is_discrete_bit_for_bit(problem):
    # one substep is the plant's own discretization under the same recursion
    dp = build_reachability(problem)
    U = np.random.default_rng(problem.N).uniform(-1.0, 1.0, dp.m * dp.N)
    s = ControlSignal(U=U, h=dp.h, m=dp.m, N=dp.N)
    assert np.array_equal(simulate_discrete(dp, s, problem.x0),
                          simulate_continuous(problem.plant, s, problem.x0, 1))


def test_continuous_exact_flow_matches_discrete_at_grid():
    problem = double_integrator([1.0, 0.0], 5.0, 20)
    dp = build_reachability(problem)
    rng = np.random.default_rng(32)
    U = rng.uniform(-1, 1, 20)
    s = ControlSignal(U=U, h=dp.h, m=1, N=20)
    coarse = simulate_discrete(dp, s, problem.x0)
    fine = simulate_continuous(problem.plant, s, problem.x0, substeps=7)
    assert fine.shape == (141, 2)
    at_grid = fine[::7]
    assert np.max(np.abs(at_grid - coarse)) <= 1e-10 * (1 + np.max(np.abs(coarse)))


@pytest.mark.parametrize("U, m, x0, substeps", [
    (np.zeros(10), 1, [1.0], 2.5),        # substeps not an integer
    (np.zeros(10), 1, [1.0, 0.0], 2),     # x0 of the wrong length
    (np.zeros(20), 2, [1.0], 2),          # two channels, one-channel plant
])
def test_simulate_continuous_checks_its_inputs(U, m, x0, substeps):
    plant = PlantModel(A=[[-1.0]], B=[[1.0]])
    s = ControlSignal(U=U, h=0.1, m=m, N=10)
    with pytest.raises(DimensionMismatch):
        simulate_continuous(plant, s, x0, substeps=substeps)


def rk4_final_state(plant, signal, x0, substeps):
    """Classical 4th-order Runge-Kutta under the held control: an oracle
    for simulate_continuous that shares none of its discretization."""
    A, B = plant.A, plant.B
    hf = signal.h / substeps
    x = np.asarray(x0, dtype=float)
    for u in signal.as_steps():
        bu = B @ u
        for _ in range(substeps):
            k1 = A @ x + bu
            k2 = A @ (x + 0.5 * hf * k1) + bu
            k3 = A @ (x + 0.5 * hf * k2) + bu
            k4 = A @ (x + hf * k3) + bu
            x = x + (hf / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def test_continuous_rk4_matches_exact_flow():
    rng = np.random.default_rng(33)
    plant_A = rng.normal(size=(3, 3))
    plant_A *= 0.9 / np.linalg.norm(plant_A, 1)  # keep ||A|| h below 1
    plant = PlantModel(A=plant_A, B=rng.normal(size=(3, 1)))
    s = ControlSignal(U=rng.uniform(-1, 1, 3), h=1.0, m=1, N=3)
    x0 = rng.normal(size=3)
    exact = simulate_continuous(plant, s, x0, substeps=100)
    rk4 = rk4_final_state(plant, s, x0, substeps=100)
    assert np.linalg.norm(rk4 - exact[-1]) <= 1e-8


def test_rk4_shows_fourth_order_convergence():
    plant = PlantModel(A=[[-0.6, 0.3], [0.1, -0.4]], B=[[1.0], [0.5]])
    s = ControlSignal(U=[0.7, -0.3, 0.2], h=1.0, m=1, N=3)
    x0 = np.array([1.0, -1.0])
    exact = simulate_continuous(plant, s, x0, substeps=1)[-1]
    errors = []
    for sub in (2, 4, 8, 16):
        approx = rk4_final_state(plant, s, x0, substeps=sub)
        errors.append(np.linalg.norm(approx - exact))
    rates = [np.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert all(rate > 3.5 for rate in rates)


def test_continuous_free_decay():
    plant = PlantModel(A=[[-1.0]], B=[[1.0]])
    s = ControlSignal(U=np.zeros(10), h=0.1, m=1, N=10)
    fine = simulate_continuous(plant, s, [1.0], substeps=3)
    assert fine[-1, 0] == pytest.approx(np.exp(-1.0), rel=1e-12)


def test_min_energy_zero_state():
    dp = build_reachability(scalar_integrator(0.0, 1.0, 5))
    signal, violated = min_energy_baseline(dp)
    assert not violated
    assert np.max(np.abs(signal.U)) <= 1e-12


def test_min_energy_uniform_solution():
    # minimum-norm answer spreads the correction evenly over the grid
    dp = build_reachability(scalar_integrator(1.0, 2.0, 4))
    signal, violated = min_energy_baseline(dp)
    assert not violated
    assert np.allclose(signal.U, -0.5, atol=1e-12)


def test_min_energy_terminal_equality():
    rng = np.random.default_rng(34)
    for _ in range(5):
        problem = feasible_problem(rng, 3, 1, 25, T=3.0)
        dp = build_reachability(problem)
        signal, _ = min_energy_baseline(dp)
        err = np.linalg.norm(dp.Phi @ signal.U + dp.c)
        assert err <= 1e-8 * (1 + np.linalg.norm(problem.x0))


def test_min_energy_rank_deficient():
    problem = ControlProblem(plant=PlantModel(A=[[0.0]], B=[[0.0]]), x0=[0.0],
                             T=1.0, N=4)
    dp = build_reachability(problem)
    with pytest.raises(RankDeficient):
        min_energy_baseline(dp)


def test_min_energy_is_dense_where_l1_is_sparse():
    problem = double_integrator([1.0, 0.0], 10.0, 100)
    dp = build_reachability(problem)
    baseline, _ = min_energy_baseline(dp)
    report = solve(problem)
    dense = sparsity(baseline)
    sparse = sparsity(report.signal)
    assert dense.hands_off_ratio < 0.1
    assert sparse.hands_off_ratio > 0.5


def test_l0_oracle_zero_state():
    dp = build_reachability(scalar_integrator(0.0, 1.0, 6))
    result = l0_oracle(dp)
    assert result.min_support == 0
    assert result.witness_supports == [()]
    assert result.certified_objective == 0.0


def test_l0_oracle_scalar_integrator_counting():
    # budget forces at least 1/h = 4 active slots, and any 4 slots work
    dp = build_reachability(scalar_integrator(1.0, 2.0, 8))
    result = l0_oracle(dp)
    assert result.min_support == 4
    assert len(result.witness_supports) == 70  # all C(8,4) subsets
    assert result.certified_objective == pytest.approx(1.0, abs=1e-7)


def test_l0_oracle_respects_bound():
    dp = build_reachability(scalar_integrator(1.0, 2.0, 25))
    with pytest.raises(ExhaustiveBoundExceeded):
        l0_oracle(dp)


def test_l0_oracle_infeasible_instance():
    dp = build_reachability(scalar_integrator(2.0, 1.0, 6))
    with pytest.raises(InfeasibleProblem):
        l0_oracle(dp)


@pytest.mark.parametrize("problem", [
    double_integrator([1.0, 0.0], 5.0, 8),
    # n = 3: every support below three atoms is overdetermined
    equivalence_instance(4),
    equivalence_instance(5),
    equivalence_instance(18),
    # supports of more atoms than states, or of twin atoms, are dependent
    scalar_integrator(1.0, 2.0, 8),
    twin_channel_problem(),
], ids=["anchor", "seed4", "seed5", "seed18", "scalar", "twin"])
def test_l0_oracle_feasibility_decisions_match_external_lp(problem):
    # cross-check the per-support verdicts against an independent solver
    # over every support of the minimal size and of one size below
    dp = build_reachability(problem)
    result = l0_oracle(dp)
    witnesses = set(result.witness_supports)
    K = dp.Phi.shape[1]
    for k in (result.min_support - 1, result.min_support):
        for support in itertools.combinations(range(K), k):
            cols = dp.Phi[:, list(support)]
            ref = linprog(np.zeros(k), A_eq=cols, b_eq=-dp.c,
                          bounds=[(-1.0, 1.0)] * k, method="highs")
            assert (ref.status == 0) == (support in witnesses), support


def test_l0_oracle_solves_no_lp(monkeypatch):
    # supports with dependent columns are decided by their vertices, so no
    # module of the package reaches the interior point while the oracle runs
    original = handsoff.interior_point.solve_ip

    def no_lp(*args, **kwargs):
        raise AssertionError("l0_oracle called solve_ip")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "handsoff" and getattr(module, "solve_ip", None) is original:
            monkeypatch.setattr(module, "solve_ip", no_lp)
    scalar = l0_oracle(build_reachability(scalar_integrator(1.0, 2.0, 8)))
    assert scalar.min_support == 4 and len(scalar.witness_supports) == 70
    twin = l0_oracle(build_reachability(twin_channel_problem()))
    assert twin.min_support == 4 and twin.witness_supports == [(0, 1, 8, 9)]


@pytest.mark.parametrize("weights, error", [
    ([1.0, 5.0, 9.0], DimensionMismatch),
    ([[1.0]], DimensionMismatch),
    ([np.nan], NonFiniteInput),
    ([np.inf], NonFiniteInput),
    ([0.0], NonpositiveWeight),
    ([-1.0], NonpositiveWeight),
])
def test_l0_oracle_rejects_bad_weights(weights, error):
    dp = build_reachability(scalar_integrator(1.0, 2.0, 8))
    with pytest.raises(error):
        l0_oracle(dp, weights=weights)


def test_l0_certified_objective_of_the_scalar_integrator_is_exact():
    # every witness holds all four slots at -1, so the fuel is |x0| = 1
    path = Path(__file__).resolve().parent.parent / "problems" / "scalar_integrator.json"
    problem = read_problem(path.read_text())
    equivalence, _ = verify_equivalence(problem)
    assert equivalence.l0_support == 4
    assert equivalence.l0_certified_objective == pytest.approx(1.0, rel=1e-12)


def reference_l0_oracle(dp):
    """Per-support minimum-support search: an oracle for l0_oracle that
    decides each support on its own, by numpy's least squares when the
    columns are independent and by HiGHS otherwise.  Returns
    (min_support, witnesses, certified fuel, supports checked, and
    whether the best fuel came from an LP)."""
    target = -dp.c
    feas_tol = 1e-6 * (1.0 + np.linalg.norm(dp.c))
    K = dp.Phi.shape[1]
    checked = 0
    for k in range(K + 1):
        witnesses, fuels = [], []
        for support in itertools.combinations(range(K), k):
            checked += 1
            cols = dp.Phi[:, list(support)]
            cost = np.full(k, dp.h)
            if k == 0:
                feasible, fuel = np.max(np.abs(target)) <= feas_tol, (0.0, False)
            elif np.linalg.matrix_rank(cols) == k:
                U = np.linalg.lstsq(cols, target, rcond=None)[0]
                miss = np.abs(cols @ np.clip(U, -1.0, 1.0) - target).sum()
                feasible, fuel = miss <= feas_tol, (float(cost @ np.abs(U)), False)
            else:
                n = dp.n
                # min sum |t| subject to cols u + t == target, |u| <= 1
                phase1 = linprog(np.concatenate([np.zeros(k), np.ones(2 * n)]),
                                 A_eq=np.hstack([cols, np.eye(n), -np.eye(n)]), b_eq=target,
                                 bounds=[(-1.0, 1.0)] * k + [(0.0, None)] * (2 * n),
                                 method="highs")
                assert phase1.status == 0
                feasible = phase1.fun <= feas_tol
                if feasible:
                    priced = linprog(np.concatenate([cost, cost]),
                                     A_eq=np.hstack([cols, -cols]), b_eq=target,
                                     bounds=(0.0, 1.0), method="highs")
                    assert priced.status == 0
                    fuel = (priced.fun, True)
            if feasible:
                witnesses.append(support)
                fuels.append(fuel)
        if witnesses:
            best, by_lp = min(fuels)
            return k, witnesses, best, checked, by_lp
    raise AssertionError("no feasible support")


def test_l0_oracle_matches_per_support_reference():
    lp_priced = 0
    for problem in reference_instances():
        dp = build_reachability(problem)
        result = l0_oracle(dp)
        k, witnesses, fuel, checked, by_lp = reference_l0_oracle(dp)
        assert result.min_support == k
        assert result.witness_supports == witnesses
        assert result.supports_checked == checked
        # a fuel priced by least squares agrees to roundoff, and so does one
        # the reference prices by HiGHS: the oracle prices the LP's optimal
        # vertex itself
        assert result.certified_objective == pytest.approx(fuel, rel=1e-12)
        lp_priced += by_lp
    assert lp_priced >= 3


@pytest.mark.parametrize("problem", [
    double_integrator([1.0, 0.0], 5.0, 8),
    # 70 witnesses of four atoms on one state, every one decided by its vertices
    scalar_integrator(1.0, 2.0, 8),
], ids=["anchor", "scalar"])
def test_l0_oracle_chunking_keeps_the_answer(problem, monkeypatch):
    dp = build_reachability(problem)
    whole = l0_oracle(dp)
    monkeypatch.setattr(handsoff.analysis, "_CHUNK", 5)
    chunked = l0_oracle(dp)
    assert len(whole.witness_supports) > 5
    assert chunked.min_support == whole.min_support
    assert chunked.witness_supports == whole.witness_supports
    assert chunked.certified_objective == whole.certified_objective
    assert chunked.supports_checked == whole.supports_checked
    assert chunked == whole


def test_witness_supports_keep_one_index_array():
    result = l0_oracle(build_reachability(double_integrator([1.0, 0.0], 5.0, 8)))
    store = result.witness_supports
    assert not hasattr(store, "__dict__")  # the array is all it holds
    assert store.array.dtype == np.uint8
    assert store.array.shape == (15, 2)
    assert not store.array.flags.writeable
    assert store[0] == (0, 3) and store[-1] == (4, 7)
    assert all(type(s) is tuple and all(type(a) is int for a in s) for s in store)


def test_l0_oracle_two_channel_atoms():
    # atoms are channel-slot pairs: a two-channel plant with mN = 12
    plant = PlantModel(A=[[0.0, 1.0], [0.0, 0.0]], B=[[1.0, 0.0], [0.0, 1.0]])
    problem = ControlProblem(plant=plant, x0=[0.4, 0.3], T=3.0, N=6)
    dp = build_reachability(problem)
    result = l0_oracle(dp)
    assert 1 <= result.min_support <= 4
    # verify minimality against an independent check one level below
    for support in itertools.combinations(range(12), result.min_support - 1):
        cols = dp.Phi[:, list(support)]
        ref = linprog(np.zeros(len(support)), A_eq=cols, b_eq=-dp.c,
                      bounds=[(-1.0, 1.0)] * len(support), method="highs")
        assert ref.status != 0


def test_support_ordering_invariant():
    # exhaustive minimum <= polished support <= unpolished support
    for problem in (scalar_integrator(1.0, 2.0, 8),
                    double_integrator([1.0, 0.0], 5.0, 8)):
        report = solve(problem)
        dp = build_reachability(problem)
        oracle = l0_oracle(dp)
        thr = 1e-6
        polished = np.count_nonzero(np.abs(report.signal.U) > thr)
        raw = report.unpolished_support
        assert oracle.min_support <= polished <= raw


def test_verify_equivalence_zero_state():
    equivalence, _ = verify_equivalence(scalar_integrator(0.0, 1.0, 6))
    assert equivalence.agree
    assert equivalence.l0_support == 0
    assert equivalence.l1_support == 0


def test_verify_equivalence_double_integrator():
    equivalence, report = verify_equivalence(double_integrator([1.0, 0.0], 5.0, 8))
    assert equivalence.agree
    assert equivalence.l1_support == equivalence.l0_support == 2
    assert report.objective == pytest.approx(
        equivalence.l0_certified_objective, rel=1e-6)


def test_verify_equivalence_exposes_polish_gap():
    problem = scalar_integrator(1.0, 2.0, 8)
    with_polish, _ = verify_equivalence(problem)
    assert with_polish.agree
    assert with_polish.l1_support == 4
    without, report = verify_equivalence(problem, polish=False)
    assert not without.agree
    assert without.l1_support == 8
    assert report.unpolished_support == 8
    assert without.l0_support == 4


def test_verify_equivalence_certifies_overdetermined_support():
    # the only witness support has a 3 x 2 Phi_S, consistent only to
    # roundoff; its fuel is still certified rather than read as infeasible
    problem = equivalence_instance(4)
    equivalence, _ = verify_equivalence(problem)
    dp = build_reachability(problem)
    fuels = []
    for support in equivalence.witness_supports:
        cols = dp.Phi[:, list(support)]
        cost = np.full(2 * len(support), dp.h)
        ref = linprog(cost, A_eq=np.hstack([cols, -cols]), b_eq=-dp.c,
                      bounds=(0.0, 1.0), method="highs")
        assert ref.status == 0
        fuels.append(ref.fun)
    assert equivalence.l0_certified_objective == pytest.approx(min(fuels), abs=1e-8)


def test_verify_equivalence_bound():
    with pytest.raises(ExhaustiveBoundExceeded):
        verify_equivalence(scalar_integrator(1.0, 2.0, 30))


def test_verify_equivalence_needs_an_optimal_solve(monkeypatch):
    import handsoff.solver

    def failing(lp, *args, **kwargs):
        nan = float("nan")
        return handsoff.solver.IPResult(handsoff.solver.SolveStatus.NUMERICAL_FAILURE,
                                        None, None, nan, 3)

    monkeypatch.setattr(handsoff.solver, "solve_ip", failing)
    with pytest.raises(handsoff.HandsOffError) as raised:
        verify_equivalence(double_integrator([1.0, 0.0], 5.0, 8))
    assert str(raised.value) == (
        "equivalence check needs an optimal solve, got numerical_failure: "
        "interior point returned numerical_failure in round 1")
