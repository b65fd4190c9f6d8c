"""The four workloads: their instances, their operations and how each is judged.

Every feasible instance is a fixed draw (the constants below) shown to the
program in a change of state coordinates drawn from the run's seed:
A -> Q A Q^T, B -> Q B, x0 -> Q x0 with Q orthonormal.  The program reads
other numbers on every seed, but the optimal controls, their fuel and
their support do not change, and neither does the work a correct solver
must do, so the spread between seeds is run-to-run noise rather than the
spread between instances (which, for fresh draws, was too wide for two
large solves a pass to average out; see README.md).  The infeasible and
unstable operations are the same on every seed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

import references as ref
from references import Instance

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBLEMS = ROOT / "problems"

# Criterion 4 of the acceptance suite: the double-integrator anchor plus
# these instance seeds (tests/test_acceptance.py, EQUIVALENCE_SEEDS).
EQUIVALENCE_SEEDS = [1, 2, 3, 4, 5, 6, 7, 8, 10, 11,
                     12, 13, 14, 15, 16, 18, 19, 21, 22, 23]
LARGE_DRAW = 808
BATCH_DRAW = 2014
BATCH_SIZE = 16
SWEEP_T = (5.0, 6.0, 7.0, 8.0, 9.0, 10.0)
DOUBLE_INTEGRATOR = (np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]))
# `handsoff solve` as its console script runs it
CLI_BOOT = "import sys; from handsoff.cli import main; sys.exit(main())"
FAILED_STATUSES = ("numerical_failure", "iteration_limit")
WORKLOADS = ("cli_solve", "solve_large", "solve_batch", "l0_verify")


@dataclass
class Op:
    """One call into the program and the way its output is judged.

    ``judge`` returns (failed, violations): failed when the program itself
    reported that it could not answer, violations when it answered wrongly.
    """

    inst: Instance
    run: Callable[[object], object]
    judge: Callable[[object], tuple[bool, list[str]]]
    atoms: Callable[[object], int]
    sweep: bool = False

    @property
    def name(self) -> str:
        return self.inst.name


# ---- instances ----------------------------------------------------------


def rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed orthonormal n x n matrix."""
    Q, R = np.linalg.qr(rng.normal(size=(n, n)))
    return Q * np.sign(np.diag(R))


def signed_permutation(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random reordering and sign flips of the n state coordinates."""
    return np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], size=n)


def rotate(inst: Instance, Q: np.ndarray) -> Instance:
    return replace(inst, A=Q @ inst.A @ Q.T, B=Q @ inst.B, x0=Q @ inst.x0)


def stable_plant(rng: np.random.Generator, n: int, m: int):
    A = rng.normal(size=(n, n))
    A = A - (float(np.max(np.real(np.linalg.eigvals(A)))) + rng.uniform(0.2, 1.0)) * np.eye(n)
    return A, rng.normal(size=(n, m))


def feasible_instance(rng, name, n, m, N, T, witness_scale=0.5, witness_support=None):
    """Target back-solved from an admissible witness control.

    The same draws as ``feasible_problem`` in the test suite.  x0 passes
    through Ad^-N, so a long horizon on a stable plant gives an absurd
    target (n=4, m=2, N=5000, T=10 from seed 808 has |x0| near 5e15);
    the horizons here keep |x0| and Ad^N well conditioned.
    """
    A, B = stable_plant(rng, n, m)
    Phi, _ = ref.reachability(A, B, np.zeros(n), T, N)
    U = rng.uniform(-witness_scale, witness_scale, m * N)
    if witness_support is not None:
        keep = np.zeros(m * N, dtype=bool)
        keep[rng.choice(m * N, size=witness_support, replace=False)] = True
        U = np.where(keep, U, 0.0)
    Ad, _ = ref.discretize(A, B, T / N)
    x0 = -np.linalg.solve(np.linalg.matrix_power(Ad, N), Phi @ U)
    return Instance(name, A, B, x0, float(T), int(N), witness_support)


def double_integrator(name, x0, T, N) -> Instance:
    A, B = DOUBLE_INTEGRATOR
    return Instance(name, A, B, np.asarray(x0, dtype=float), float(T), int(N))


def from_file(name: str, path: Path) -> Instance:
    doc = json.loads(path.read_text())
    return Instance(name, np.array(doc["A"], dtype=float), np.array(doc["B"], dtype=float),
                    np.array(doc["x0"], dtype=float), float(doc["T"]), int(doc["N"]))


def call(function: str, inst: Instance):
    """Operation body handsoff.<function>(problem), with the function looked
    up at call time so that the wrappers of a traced pass see the call."""
    # handsoff loads here, not at import: cli_solve's parent never loads
    # it, so that workload's setup is the command's alone
    import handsoff

    prob = handsoff.ControlProblem(plant=handsoff.PlantModel(A=inst.A, B=inst.B),
                                   x0=inst.x0, T=inst.T, N=inst.N)
    return lambda tracer: getattr(handsoff, function)(prob)


# ---- references and judges ---------------------------------------------


def _program_failed(out) -> bool:
    return isinstance(out, Exception) or out.status.value in FAILED_STATUSES


def judge_report(known: ref.Reference, report, certified: float | None = None) -> list[str]:
    """Checks on a SolveReport that should be optimal."""
    if report.status.value != "optimal":
        return [f"status: {report.status.value}, expected optimal"]
    U = None if report.signal is None else report.signal.U
    out = ref.check_control(known, U, report.objective)
    if certified is not None:
        out += ref.check_certified(report.objective, certified)
    return out


def solve_op(inst: Instance, certified: float | None = None, sweep: bool = False) -> Op:
    known = ref.Reference(inst)

    def judge(out):
        if _program_failed(out):
            return True, []
        return False, judge_report(known, out, certified)
    return Op(inst, call("solve", inst), judge, _report_atoms, sweep)


def infeasible_op(inst: Instance) -> Op:
    known = ref.Reference(inst)

    def judge(out):
        if _program_failed(out):
            return True, []
        if not known.infeasible:
            raise RuntimeError(f"{inst.name}: HiGHS finds the instance feasible")
        if out.status.value != "infeasible":
            return False, [f"status: {out.status.value}, expected infeasible"]
        return False, []
    return Op(inst, call("solve", inst), judge, _report_atoms)


def unstable_op(inst: Instance) -> Op:
    def judge(out):
        if _program_failed(out):
            return True, []
        U = None if out.signal is None else out.signal.U
        return False, ref.check_unstable(inst, out.status.value, U, out.objective)
    return Op(inst, call("solve", inst), judge, _report_atoms)


def verify_op(inst: Instance) -> Op:
    known = ref.Reference(inst)

    def judge(out):
        if isinstance(out, Exception):
            return True, []
        equivalence, report = out
        violations = judge_report(known, report)
        if equivalence.l0_support != known.min_support:
            violations.append(f"l0: oracle support {equivalence.l0_support}, "
                              f"HiGHS MILP {known.min_support}")
        if inst.witness_support is not None and equivalence.l0_support > inst.witness_support:
            violations.append(f"l0: oracle support {equivalence.l0_support} exceeds "
                              f"the witness {inst.witness_support}")
        if report.signal is not None and equivalence.l1_support != ref.atoms(report.signal.U):
            violations.append(f"l1: reported support {equivalence.l1_support}, "
                              f"control has {ref.atoms(report.signal.U)}")
        return False, violations

    def atoms(out):
        return 0 if isinstance(out, Exception) else _report_atoms(out[1])
    return Op(inst, call("verify_equivalence", inst), judge, atoms)


def _report_atoms(out) -> int:
    if isinstance(out, Exception) or out.signal is None:
        return 0
    return ref.atoms(out.signal.U)


def cli_op(inst: Instance, path: Path, workdir: Path, env: dict, certified: float) -> Op:
    """A fresh `handsoff solve --input PATH --out ... --csv ...` process."""
    known = ref.Reference(inst)
    out_json = workdir / f"{inst.name}.result.json"
    out_csv = workdir / f"{inst.name}.csv"
    args = ["solve", "--input", str(path), "--out", str(out_json), "--csv", str(out_csv)]

    def run(tracer):
        for stale in (out_json, out_csv):
            stale.unlink(missing_ok=True)
        if tracer is None:
            code = subprocess.run([sys.executable, "-c", CLI_BOOT, *args], env=env).returncode
        else:
            spans = workdir / f"{inst.name}.spans.json"
            code = subprocess.run([sys.executable, str(HERE / "cli_child.py"), str(spans),
                                   repr(time.perf_counter()), *args], env=env).returncode
            tracer.add(json.loads(spans.read_text()))
        read = lambda p: p.read_text() if p.exists() else None
        return code, read(out_json), read(out_csv)

    def judge(out):
        code, document, table = out
        if code == 1:
            return True, []
        if code != 0 or document is None or table is None:
            return False, [f"exit code {code}, outputs present: {document is not None}, "
                           f"{table is not None}"]
        try:
            doc, U, X = ref.parse_cli_outputs(document, table, inst.B.shape[1])
        except (ValueError, KeyError, IndexError) as exc:
            return False, [f"outputs do not parse: {exc}"]
        if doc.get("status") != "optimal":
            return False, [f"status: {doc.get('status')}, expected optimal"]
        violations = ref.check_control(known, U, doc["objective"])
        violations += ref.check_trajectory(inst, U, X)
        violations += ref.check_certified(doc["objective"], certified)
        return False, violations

    def atoms(out):
        code, document, table = out
        if table is None:
            return 0
        return ref.atoms(ref.parse_cli_outputs(document or "{}", table, inst.B.shape[1])[1])
    return Op(inst, run, judge, atoms)


# ---- workloads ----------------------------------------------------------


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    """The operation list of one pass of a workload, for one seed."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])

    def turned(inst):
        return rotate(inst, rotation(rng, inst.A.shape[0]))

    if name == "cli_solve":
        workdir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        shipped_path = PROBLEMS / "double_integrator.json"
        shipped = from_file("shipped", shipped_path)
        moved = replace(turned(shipped), name="rotated")
        moved_path = workdir / "rotated.json"
        moved_path.write_text(moved.as_document())
        fuel = ref.rest_to_rest_fuel(shipped.T, shipped.N)
        return [cli_op(shipped, shipped_path, workdir, env, fuel),
                cli_op(moved, moved_path, workdir, env, fuel)]

    if name == "solve_large":
        return [solve_op(turned(feasible_instance(np.random.default_rng(LARGE_DRAW),
                                                  f"n{n}_N{N}", n, 2, N, 1.0)))
                for n, N in ((4, 5000), (8, 20000))]

    if name == "solve_batch":
        ops = [solve_op(turned(double_integrator(f"sweep_T{T:g}", [1.0, 0.0], T, round(T * 100))),
                        certified=ref.rest_to_rest_fuel(T, round(T * 100)), sweep=True)
               for T in SWEEP_T]
        draw = np.random.default_rng(BATCH_DRAW)
        for k in range(BATCH_SIZE):
            n, m = int(draw.integers(1, 5)), int(draw.integers(1, 3))
            N, T = int(draw.integers(200, 1001)), float(draw.uniform(0.5, 1.5))
            ops.append(solve_op(turned(feasible_instance(draw, f"random{k:02d}", n, m, N, T))))
        ops.append(infeasible_op(from_file("precheck", PROBLEMS / "infeasible_scalar.json")))
        ops.append(infeasible_op(double_integrator("farkas", [-3.3, 1.9], 2.0, 200)))
        ops.append(unstable_op(Instance("unstable", np.array([[1.0]]), np.array([[1.0]]),
                                        np.array([0.5]), 20.0, 200)))
        return ops

    if name == "l0_verify":
        insts = [double_integrator("anchor", [1.0, 0.0], 5.0, 8)]
        for s in EQUIVALENCE_SEEDS:
            draw = np.random.default_rng(s)
            n, m = int(draw.integers(1, 4)), int(draw.integers(1, 3))
            N, T = int(draw.integers(4, 16 // m + 1)), float(draw.uniform(1.0, 5.0))
            insts.append(feasible_instance(draw, f"seed{s}", n, m, N, T, witness_scale=0.8,
                                           witness_support=int(draw.integers(1, min(4, m * N)))))
        # The oracle's quick reject and its phase-1 residual are row-wise, so
        # a rotation changes how many LPs it solves (2183 to 2492 IPM calls
        # over five seeds); a signed permutation keeps both.
        return [verify_op(rotate(inst, signed_permutation(rng, inst.A.shape[0])))
                for inst in insts]


def check_pass(ops: list[Op], outputs: list) -> list[str]:
    """Checks across the operations of one pass: the sweep's objectives
    must not rise with the horizon."""
    sweep = [out.objective for op, out in zip(ops, outputs)
             if op.sweep and not isinstance(out, Exception) and out.status.value == "optimal"]
    return ref.check_nonincreasing(sweep)
