"""Each check of the benchmark must reject a wrong answer.

    PYTHONPATH=src python3 -m pytest benchmarks/test_checks.py

The program's real outputs on small instances are judged correct, and the
same outputs, corrupted one way at a time, must each be judged wrong.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import references as ref  # noqa: E402
import workloads  # noqa: E402


def named(ops, name):
    return next(op for op in ops if op.name == name)


@pytest.fixture(scope="module")
def batch(tmp_path_factory):
    ops = workloads.build("solve_batch", 0, tmp_path_factory.mktemp("batch"))
    return {op.name: (op, op.run(None)) for op in ops
            if op.name in ("sweep_T5", "sweep_T6", "precheck", "farkas", "unstable")}


@pytest.fixture(scope="module")
def anchor(tmp_path_factory):
    op = named(workloads.build("l0_verify", 0, tmp_path_factory.mktemp("l0")), "anchor")
    return op, op.run(None)


@pytest.fixture(scope="module")
def cli(tmp_path_factory):
    op = named(workloads.build("cli_solve", 0, tmp_path_factory.mktemp("cli")), "shipped")
    return op, op.run(None)


def with_control(report, U):
    """The report with another control, its objective priced consistently."""
    signal = dataclasses.replace(report.signal, U=U)
    return dataclasses.replace(report, signal=signal,
                               objective=report.signal.h * float(np.abs(U).sum()))


def violations(op, out):
    failed, bad = op.judge(out)
    assert not failed
    return bad


def test_program_outputs_pass(batch, anchor, cli):
    for name in ("sweep_T5", "sweep_T6", "precheck", "farkas"):
        assert violations(*batch[name]) == [], name
    assert violations(*anchor) == []
    assert violations(*cli) == []
    ops = [batch["sweep_T5"][0], batch["sweep_T6"][0]]
    assert workloads.check_pass(ops, [batch["sweep_T5"][1], batch["sweep_T6"][1]]) == []


def test_objective_raised(batch, cli):
    op, report = batch["sweep_T5"]
    bad = violations(op, dataclasses.replace(report, objective=report.objective * (1 + 1e-4)))
    assert any(v.startswith("objective") for v in bad)
    assert any(v.startswith("certified") for v in bad)

    op, (code, document, table) = cli
    doc = json.loads(document)
    doc["objective"] *= 1 + 1e-4
    bad = violations(op, (code, json.dumps(doc), table))
    assert any(v.startswith("objective") for v in bad)


def test_support_atom_zeroed(batch):
    op, report = batch["sweep_T5"]
    U = report.signal.U.copy()
    U[np.argmax(np.abs(U))] = 0.0
    bad = violations(op, with_control(report, U))
    assert any(v.startswith("terminal") for v in bad)
    assert any(v.startswith("certified") for v in bad)


def test_terminal_state_moved(batch, cli):
    op, report = batch["sweep_T5"]
    Phi, _ = ref.Reference(op.inst).reach
    shift = np.linalg.lstsq(Phi, np.array([1e-3, 0.0]), rcond=None)[0]
    bad = violations(op, with_control(report, report.signal.U + shift))
    assert any(v.startswith("terminal") for v in bad)

    op, (code, document, table) = cli
    lines = table.splitlines()
    last = lines[-1].split(",")
    last[-2] = repr(float(last[-2]) + 1e-3)
    moved = "\n".join(lines[:-1] + [",".join(last)]) + "\n"
    bad = violations(op, (code, document, moved))
    assert any(v.startswith("terminal") for v in bad)
    assert any(v.startswith("trajectory") for v in bad)


def test_infeasible_verdict_flipped(batch):
    optimal = batch["sweep_T5"][1].status
    infeasible = batch["farkas"][1].status
    for name in ("precheck", "farkas"):
        op, report = batch[name]
        assert violations(op, dataclasses.replace(report, status=optimal))
    op, report = batch["sweep_T5"]
    assert violations(op, dataclasses.replace(report, status=infeasible))


def test_l0_support_off_by_one(anchor):
    op, (equivalence, report) = anchor
    for delta in (-1, 1):
        wrong = dataclasses.replace(equivalence, l0_support=equivalence.l0_support + delta)
        assert any(v.startswith("l0") for v in violations(op, (wrong, report)))


def test_sweep_must_not_rise(batch):
    ops = [batch["sweep_T5"][0], batch["sweep_T6"][0]]
    assert workloads.check_pass(ops, [batch["sweep_T6"][1], batch["sweep_T5"][1]])


def test_unstable_scalar_closed_form(batch):
    op, report = batch["unstable"]
    fuel, U, _ = ref.unstable_scalar_optimum(1.0, 1.0, 0.5, 20.0, 200)
    assert abs(fuel - 0.6934617) < 1e-7
    optimal = batch["sweep_T5"][1].status
    right = dataclasses.replace(report, status=optimal, objective=fuel,
                                signal=dataclasses.replace(report.signal, U=U))
    assert violations(op, right) == []
    assert violations(op, dataclasses.replace(right, objective=fuel * (1 + 1e-4)))
    late = np.roll(U, 5)
    assert violations(op, with_control(right, late))


def test_benchmark_json_names_every_metric():
    import run
    from tracer import LAYER_METRICS

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        dict(LAYER_METRICS, **{"trace.overhead_s": "s"})
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out"))
    done = subprocess.run([sys.executable, str(tmp_path / HERE.name / "run.py"),
                           "--workload", "cli_solve", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
