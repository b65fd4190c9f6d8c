import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import handsoff.discretize
import handsoff.model
from handsoff.cli import main

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def run(args):
    return main([str(a) for a in args])


def load(path: Path) -> dict:
    return json.loads(path.read_text())


def test_solve_writes_document_and_csv(tmp_path):
    out = tmp_path / "result.json"
    csv = tmp_path / "traj.csv"
    code = run(["solve", "--input", PROBLEMS / "double_integrator.json",
                "--out", out, "--csv", csv])
    assert code == 0
    doc = load(out)
    assert doc["schema"] == "handsoff-result/1"
    assert doc["status"] == "optimal"
    assert doc["problem"]["N"] == 100
    assert doc["sparsity"]["hands_off_ratio"] > 0.9
    lines = csv.read_text().strip().split("\n")
    assert lines[0] == "t,u1,x1,x2"
    assert len(lines) == 102  # header + N+1 grid points


def test_cli_import_loads_no_scipy():
    src = Path(__file__).resolve().parent.parent / "src"
    probe = ("import sys, handsoff.cli; "
             "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.stdout.strip() == "[]"


def test_solve_infeasible_exit_code(tmp_path):
    out = tmp_path / "result.json"
    code = run(["solve", "--input", PROBLEMS / "infeasible_scalar.json", "--out", out])
    assert code == 2
    doc = load(out)
    assert doc["status"] == "infeasible"
    assert doc["objective"] is None


def test_solve_missing_file_exit_code(tmp_path, capsys):
    code = run(["solve", "--input", tmp_path / "nope.json"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_solve_rejects_bad_tolerance(capsys):
    code = run(["solve", "--input", PROBLEMS / "scalar_integrator.json",
                "--opt-tol", "-1"])
    assert code == 1
    # NaN passes a "<= 0" test and inf accepts any control, so both are refused
    for flag in ("--opt-tol", "--feas-tol", "--threshold"):
        for value in ("nan", "inf"):
            code = run(["solve", "--input", PROBLEMS / "double_integrator.json",
                        flag, value])
            assert code == 1, (flag, value)
            assert "must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["sweep", "--input", PROBLEMS / "scalar_integrator.json"],
     "sweep needs --sweep-T or --sweep-scale"),
    (["simulate", "--input", PROBLEMS / "scalar_integrator.json", "--substeps", "0"],
     "--substeps must be >= 1"),
])
def test_command_checks_its_own_flags(args, message, capsys):
    assert run(args) == 1
    assert message in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_plant_exits_1_with_one_error_line(tmp_path, capsys):
    problem = tmp_path / "overflow.json"
    problem.write_text(json.dumps({"A": [[40.0]], "B": [[1.0]], "x0": [0.01],
                                   "T": 20.0, "N": 200}))
    assert run(["solve", "--input", problem]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "overflows" in err


@pytest.mark.parametrize("args", [
    ["solve"],                                              # missing --input
    ["solve", "--input", PROBLEMS / "scalar_integrator.json", "--opt-tol", "abc"],
    ["sweep", "--input", PROBLEMS / "scalar_integrator.json", "--sweep-T", "abc"],
    ["no-such-command"],
])
def test_usage_error_exits_1_not_the_infeasible_code(args, capsys):
    assert run(args) == 1
    assert "usage:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert run(["solve", "--help"]) == 0
    assert "--input" in capsys.readouterr().out


COUNTED = (
    (handsoff.model, "validate_problem"),
    (handsoff.discretize, "build_reachability"),
    (handsoff.discretize, "zoh_discretize"),
)


@pytest.mark.parametrize("command, zoh_calls", [
    ("solve", 1),
    ("compare", 1),
    ("verify-equivalence", 1),
    ("simulate", 2),  # the second is simulate_continuous's fine step
])
def test_each_layer_runs_once_per_command(command, zoh_calls, tmp_path, monkeypatch):
    calls = Counter()
    modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "handsoff"]
    for home, name in COUNTED:
        fn = getattr(home, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        for mod in modules:
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counted)
    args = [command, "--input", PROBLEMS / "double_integrator_n8.json",
            "--out", tmp_path / "doc.json"]
    if command != "verify-equivalence":
        args += ["--csv", tmp_path / "traj.csv"]
    assert run(args) == 0
    assert calls == {"validate_problem": 1, "build_reachability": 1,
                     "zoh_discretize": zoh_calls}


def test_solve_stdout_document(capsys):
    code = run(["solve", "--input", PROBLEMS / "scalar_integrator.json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "optimal"


def test_compare_orders_ratios(tmp_path):
    out = tmp_path / "cmp.json"
    csv = tmp_path / "cmp.csv"
    code = run(["compare", "--input", PROBLEMS / "double_integrator.json",
                "--out", out, "--csv", csv])
    assert code == 0
    doc = load(out)
    l1 = doc["l1"]["sparsity"]["hands_off_ratio"]
    l2 = doc["min_energy"]["sparsity"]["hands_off_ratio"]
    assert l1 > l2
    assert csv.exists()
    assert (tmp_path / "cmp_min_energy.csv").exists()


def test_compare_zero_state_both_idle(tmp_path):
    prob = tmp_path / "p.json"
    prob.write_text(json.dumps({"A": [[0.0]], "B": [[1.0]], "x0": [0.0],
                                "T": 1.0, "N": 5}))
    out = tmp_path / "cmp.json"
    assert run(["compare", "--input", prob, "--out", out]) == 0
    doc = load(out)
    assert doc["l1"]["sparsity"]["hands_off_ratio"] == 1.0
    assert doc["min_energy"]["sparsity"]["hands_off_ratio"] == 1.0


def test_compare_rank_deficient_documented(tmp_path):
    prob = tmp_path / "p.json"
    prob.write_text(json.dumps({"A": [[0.0]], "B": [[0.0]], "x0": [0.0],
                                "T": 1.0, "N": 4}))
    out = tmp_path / "cmp.json"
    code = run(["compare", "--input", prob, "--out", out])
    doc = load(out)  # document stays well-formed
    assert doc["min_energy"]["status"] == "rank_deficient"
    assert code == 0


def test_sweep_horizon_grid(tmp_path):
    prob = tmp_path / "p.json"
    prob.write_text(json.dumps({"A": [[0.0, 1.0], [0.0, 0.0]], "B": [[0.0], [1.0]],
                                "x0": [1.0, 0.0], "T": 5.0, "N": 50}))
    out = tmp_path / "sweep.json"
    code = run(["sweep", "--input", prob, "--sweep-T", "5,7.5,10", "--out", out])
    assert code == 0
    doc = load(out)
    assert [row["T"] for row in doc["rows"]] == [5.0, 7.5, 10.0]
    assert all(row["status"] == "optimal" for row in doc["rows"])
    values = [row["objective"] for row in doc["rows"]]
    assert values[0] >= values[1] >= values[2]
    assert doc["objective_nonincreasing"] is True


def test_sweep_single_point_matches_solve(tmp_path):
    out_sweep = tmp_path / "sweep.json"
    out_solve = tmp_path / "solve.json"
    run(["sweep", "--input", PROBLEMS / "double_integrator.json",
         "--sweep-T", "10", "--out", out_sweep])
    run(["solve", "--input", PROBLEMS / "double_integrator.json",
         "--out", out_solve])
    row = load(out_sweep)["rows"][0]
    solved = load(out_solve)
    assert row["objective"] == solved["objective"]
    assert row["iterations"] == solved["iterations"]


def test_sweep_flags_infeasible_row_and_continues(tmp_path):
    prob = tmp_path / "p.json"
    prob.write_text(json.dumps({"A": [[0.0]], "B": [[1.0]], "x0": [1.5],
                                "T": 2.0, "N": 20}))
    out = tmp_path / "sweep.json"
    code = run(["sweep", "--input", prob, "--sweep-T", "1,2,4", "--out", out])
    assert code == 0
    rows = load(out)["rows"]
    assert rows[0]["status"] == "infeasible"  # reachable set [-1,1] misses 1.5
    assert rows[1]["status"] == "optimal"
    assert rows[2]["status"] == "optimal"


@pytest.mark.parametrize("grid, error", [
    (["--sweep-T", "10,inf"], "is not a multiple of h"),
    (["--sweep-T", "10,nan"], "is not a multiple of h"),
    (["--sweep-scale", "1,nan"], "weights contain non-finite entries"),
])
def test_sweep_reports_unusable_grid_value_as_row_error(grid, error, tmp_path):
    out = tmp_path / "sweep.json"
    code = run(["sweep", "--input", PROBLEMS / "double_integrator.json", *grid,
                "--out", out])
    assert code == 0
    rows = load(out)["rows"]
    assert rows[0]["status"] == "optimal"
    assert rows[1]["status"] == "error"
    assert error in rows[1]["error"]


def test_sweep_requires_grid():
    assert run(["sweep", "--input", PROBLEMS / "double_integrator.json"]) == 1


def test_sweep_weight_scaling(tmp_path):
    out = tmp_path / "sweep.json"
    code = run(["sweep", "--input", PROBLEMS / "scalar_integrator.json",
                "--sweep-scale", "1,10", "--out", out])
    assert code == 0
    rows = load(out)["rows"]
    assert rows[1]["objective"] == pytest.approx(10 * rows[0]["objective"], rel=1e-6)


def test_verify_equivalence_agrees(tmp_path):
    out = tmp_path / "eq.json"
    code = run(["verify-equivalence", "--input", PROBLEMS / "double_integrator_n8.json",
                "--out", out])
    assert code == 0
    doc = load(out)
    assert doc["agree"] is True
    assert doc["l1_support"] == doc["l0_support"] == 2

    assert doc["witness_count"] == 15
    assert doc["witness_supports"] == [
        [0, 3], [0, 4], [0, 5], [0, 6], [0, 7], [1, 4], [1, 5], [1, 6], [1, 7],
        [2, 5], [2, 6], [2, 7], [3, 6], [3, 7], [4, 7]]


def test_verify_equivalence_no_polish_disagrees(tmp_path):
    out = tmp_path / "eq.json"
    code = run(["verify-equivalence", "--input", PROBLEMS / "scalar_integrator.json",
                "--no-polish", "--out", out])
    assert code == 3
    doc = load(out)
    assert doc["agree"] is False
    assert doc["l1_support"] == 8
    assert doc["l0_support"] == 4


def test_verify_equivalence_bound_exceeded(tmp_path):
    prob = tmp_path / "p.json"
    prob.write_text(json.dumps({"A": [[0.0]], "B": [[1.0]], "x0": [1.0],
                                "T": 2.0, "N": 30}))
    assert run(["verify-equivalence", "--input", prob]) == 1


def test_simulate_document_and_fine_csv(tmp_path):
    out = tmp_path / "sim.json"
    csv = tmp_path / "sim.csv"
    code = run(["simulate", "--input", PROBLEMS / "scalar_integrator.json",
                "--substeps", "5", "--out", out, "--csv", csv])
    assert code == 0
    doc = load(out)
    assert doc["substeps"] == 5
    assert doc["continuous_terminal_error"] <= 1e-6
    assert doc["max_gridpoint_gap"] <= 1e-9
    lines = csv.read_text().strip().split("\n")
    assert len(lines) == 8 * 5 + 2  # header + N*substeps + 1 points


def test_simulate_substeps_beyond_memory_guard(tmp_path, capsys, monkeypatch):
    # N = 8, so N * substeps is one past the guard; the fine trajectory
    # would take 8 * MEMORY_GUARD bytes, and nothing of that size is made.
    # The guard fires before the problem is discretized or solved.
    builds = []
    original = handsoff.discretize.build_reachability

    def counted(*args, **kwargs):
        builds.append(1)
        return original(*args, **kwargs)
    for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "handsoff"]:
        if getattr(mod, "build_reachability", None) is original:
            monkeypatch.setattr(mod, "build_reachability", counted)
    substeps = handsoff.model.MEMORY_GUARD // 8 + 1
    out = tmp_path / "sim.json"
    tracemalloc.start()
    try:
        code = run(["simulate", "--input", PROBLEMS / "scalar_integrator.json",
                    "--substeps", substeps, "--out", out])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert "exceeds the memory guard" in capsys.readouterr().err
    assert peak < handsoff.model.MEMORY_GUARD
    assert not out.exists()
    assert builds == []


def test_documents_are_deterministic(tmp_path):
    docs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert run(["solve", "--input", PROBLEMS / "double_integrator.json",
                    "--out", out, "--csv", tmp_path / ("csv_" + name)]) == 0
        doc = load(out)
        doc.pop("wall_time_sec")
        docs.append(json.dumps(doc, sort_keys=True))
    assert docs[0] == docs[1]
    csv_a = (tmp_path / "csv_a.json").read_text()
    csv_b = (tmp_path / "csv_b.json").read_text()
    assert csv_a == csv_b


def test_solve_matches_committed_golden_document(tmp_path):
    golden_path = Path(__file__).resolve().parent / "golden" / "double_integrator.result.json"
    out = tmp_path / "run.json"
    assert run(["solve", "--input", PROBLEMS / "double_integrator.json",
                "--out", out]) == 0
    got = load(out)
    expected = load(golden_path)
    got.pop("wall_time_sec")
    expected.pop("wall_time_sec")
    assert json.dumps(got, sort_keys=True) == json.dumps(expected, sort_keys=True)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_numerical_failure_exits_1_and_still_writes_its_document(tmp_path):
    # x' = 32x + u stays finite over T = 20, but the norm of its terminal
    # residual overflows
    problem = tmp_path / "a32.json"
    problem.write_text(json.dumps({"A": [[32.0]], "B": [[1.0]], "x0": [0.01],
                                   "T": 20.0, "N": 200}))
    out = tmp_path / "a32.result.json"
    assert run(["solve", "--input", problem, "--out", out]) == 1
    doc = load(out)
    assert doc["status"] == "numerical_failure"
    assert doc["terminal_error"] is None
    assert doc["wall_time_sec"] >= 0
