"""Property tests: every answer of ``solve`` carries its own certificate.

Small plants (n <= 3, m <= 2, N <= 40) are drawn from the generators of
``_instances``, with targets built reachable or pushed far off.  An
optimal answer must lie in the box, reach the target and have a fuel J
within OPT_TOL (1 + J) of the dual bound D its costate prices; an
infeasible answer's costate must be a Farkas ray in exact arithmetic.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from handsoff import ControlProblem, SolveStatus, build_lp, build_reachability, solve
from handsoff.solver import FEAS_TOL, OPT_TOL, recompute_objective

from _instances import exact_farkas_check, feasible_problem, priced_dual, stable_plant


@st.composite
def problems(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m, N = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(2, 40))
    T = draw(st.floats(0.5, 4.0))
    weights = draw(st.lists(st.floats(0.1, 10.0), min_size=m, max_size=m))
    if draw(st.booleans()):
        problem = feasible_problem(rng, n, m, N, T, witness_scale=draw(st.floats(0.1, 1.0)))
        plant, x0 = problem.plant, problem.x0
    else:
        # a target far off: out of reach for most plants and horizons
        plant = stable_plant(rng, n, m)
        x0 = rng.normal(size=n) * draw(st.floats(1.0, 1e3))
    return ControlProblem(plant=plant, x0=x0, T=T, N=N, weights=weights)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(problems())
def test_every_answer_carries_its_certificate(problem):
    report = solve(problem)
    dp = build_reachability(problem)
    lp = build_lp(dp, problem.weights)
    assert report.status in (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE), report.reason
    if report.status is SolveStatus.INFEASIBLE:
        exact_farkas_check(lp, report.costate)
        return
    U = report.signal.U
    assert np.max(np.abs(U)) <= 1.0
    x0_norm = float(np.linalg.norm(problem.x0))
    assert np.linalg.norm(dp.c + dp.Phi @ U) <= FEAS_TOL * (1.0 + x0_norm)
    J = recompute_objective(report.signal, problem.weights)
    D = priced_dual(lp, report.costate)
    assert abs(J - D) <= OPT_TOL * (1.0 + J)
