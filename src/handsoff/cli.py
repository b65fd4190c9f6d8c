"""Command-line front end.

Subcommands: solve, compare, sweep, verify-equivalence, simulate.
Each command returns its problem, its result fields and its exit code;
``main`` times the command and writes the one JSON result document, with
a fixed schema version, for every command.  Trajectory CSVs are
plot-ready.  Exit codes: 0 success (or equivalence agreement),
1 error (usage errors included), 2 infeasible, 3 equivalence disagreement.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from .analysis import (
    check_fine_grid,
    min_energy_baseline,
    simulate_continuous,
    simulate_discrete,
    sparsity,
)
from .discretize import build_reachability
from .errors import HandsOffError, RankDeficient
from .interior_point import SolveStatus
from .model import ControlProblem, ControlSignal, read_problem, write_signal
from .solver import solve, solve_discretized
from . import analysis

SCHEMA = "handsoff-result/3"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_DISAGREE = 3

_Outcome = tuple[ControlProblem, dict, int]  # problem, result fields, exit code


def _json_safe(value):
    if isinstance(value, float):
        return value if np.isfinite(value) else None
    if isinstance(value, (np.floating, np.integer)):
        return _json_safe(value.item())
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _emit(args: argparse.Namespace, problem: ControlProblem, fields: dict,
          started: float) -> None:
    document = {
        "schema": SCHEMA,
        "command": args.subcommand,
        "problem": {"n": problem.plant.n, "m": problem.plant.m, "N": int(problem.N),
                    "T": problem.T, "h": problem.h},
        **fields,
        "wall_time_sec": time.perf_counter() - started,
    }
    text = json.dumps(_json_safe(document), indent=2, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)


def _sparsity_doc(signal: ControlSignal) -> dict:
    return dataclasses.asdict(sparsity(signal))


def _solve_doc(report) -> dict:
    doc = {
        "status": report.status.value,
        "objective": report.objective,
        "lp_objective": report.lp_objective,
        "dual_objective": report.dual_objective,
        "costate": report.costate,
        "iterations": report.iterations,
        "pricing_rounds": report.pricing_rounds,
        "terminal_error": report.terminal_error,
        "polish_applied": report.polish_applied,
        "crossover_pins": report.crossover_pins,
        "reason": report.reason,
    }
    if report.signal is not None:
        doc["sparsity"] = _sparsity_doc(report.signal)
    return doc


def _status_exit(status: SolveStatus) -> int:
    if status is SolveStatus.OPTIMAL:
        return EXIT_OK
    if status is SolveStatus.INFEASIBLE:
        return EXIT_INFEASIBLE
    return EXIT_ERROR


def _solve_input(args: argparse.Namespace, substeps: int | None = None):
    """Read the input problem, discretize it once, and solve it.

    ``substeps`` is the fine grid a later simulation needs; it is checked
    against the memory guard before any discretization or solve.
    Returns (problem, dp, report); callers reuse dp for every later stage.
    """
    problem = read_problem(args.input.read_text())
    if substeps is not None:
        check_fine_grid(problem.N, substeps, problem.plant.n)
    dp = build_reachability(problem)
    return problem, dp, solve_discretized(dp, problem.weights, polish=not args.no_polish)


def cmd_solve(args: argparse.Namespace) -> _Outcome:
    problem, dp, report = _solve_input(args)
    if report.signal is not None and args.csv is not None:
        traj = simulate_discrete(dp, report.signal, problem.x0)
        args.csv.write_text(write_signal(report.signal, traj))
    return problem, _solve_doc(report), _status_exit(report.status)


def cmd_compare(args: argparse.Namespace) -> _Outcome:
    problem, dp, report = _solve_input(args)
    fields = {"l1": _solve_doc(report)}
    try:
        baseline, violated = min_energy_baseline(dp)
        fields["min_energy"] = {
            "status": "ok",
            "bound_violation": violated,
            "sparsity": _sparsity_doc(baseline),
        }
    except RankDeficient as exc:
        baseline = None
        fields["min_energy"] = {"status": "rank_deficient", "message": str(exc)}
    if args.csv is not None:
        if report.signal is not None:
            traj = simulate_discrete(dp, report.signal, problem.x0)
            args.csv.write_text(write_signal(report.signal, traj))
        if baseline is not None:
            twin = args.csv.with_name(args.csv.stem + "_min_energy.csv")
            traj = simulate_discrete(dp, baseline, problem.x0)
            twin.write_text(write_signal(baseline, traj))
    return problem, fields, _status_exit(report.status)


def _sweep_instance(problem: ControlProblem, key: str, value: float) -> ControlProblem:
    """The problem at one grid value; HandsOffError if the value is unusable."""
    if key == "T":
        h = problem.h
        N_exact = value / h
        N = round(N_exact) if np.isfinite(N_exact) else 0
        if N < 1 or abs(N_exact - N) > 1e-9 * max(1.0, abs(N_exact)):
            raise HandsOffError(f"T = {value} is not a multiple of h = {h}")
        return dataclasses.replace(problem, T=float(value), N=int(N))
    if value <= 0:
        raise HandsOffError(f"scale {value} is not positive")
    return dataclasses.replace(problem, weights=problem.weights * value)


def cmd_sweep(args: argparse.Namespace) -> _Outcome:
    if not (args.sweep_T or args.sweep_scale):
        raise HandsOffError("sweep needs --sweep-T or --sweep-scale")
    problem = read_problem(args.input.read_text())
    key, grid = ("T", args.sweep_T) if args.sweep_T else ("scale", args.sweep_scale)
    rows = []
    for value in grid:
        row = {key: value}
        try:
            report = solve(_sweep_instance(problem, key, value), polish=not args.no_polish)
        except HandsOffError as exc:
            row.update(status="error", error=str(exc))
            rows.append(row)
            continue
        row.update(status=report.status.value, error=None,
                   objective=report.objective, iterations=report.iterations)
        if report.signal is not None:
            rep = sparsity(report.signal)
            row.update(support_measure=rep.support_measure,
                       hands_off_ratio=rep.hands_off_ratio)
        rows.append(row)
    nonincreasing = True
    if key == "T":
        # in increasing T, whatever the order of the grid
        optimal = sorted((r for r in rows if r["status"] == "optimal"), key=lambda r: r["T"])
        values = [r["objective"] for r in optimal]
        nonincreasing = all(b <= a + 1e-12 * max(1.0, abs(a))
                            for a, b in zip(values, values[1:]))
    return problem, {"rows": rows, "objective_nonincreasing": nonincreasing}, EXIT_OK


def cmd_verify_equivalence(args: argparse.Namespace) -> _Outcome:
    problem = read_problem(args.input.read_text())
    equivalence, report = analysis.verify_equivalence(problem, polish=not args.no_polish)
    fields = {
        "agree": equivalence.agree,
        "l1_support": equivalence.l1_support,
        "l1_support_unpolished": report.unpolished_support,
        "l0_support": equivalence.l0_support,
        "l1_objective": report.objective,
        "l0_certified_objective": equivalence.l0_certified_objective,
        "witness_count": len(equivalence.witness_supports),
        "witness_supports": [list(s) for s in equivalence.witness_supports],
        "polish_applied": report.polish_applied,
        "iterations": report.iterations,
    }
    return problem, fields, EXIT_OK if equivalence.agree else EXIT_DISAGREE


def cmd_simulate(args: argparse.Namespace) -> _Outcome:
    substeps = args.substeps
    if substeps < 1:
        raise HandsOffError("--substeps must be >= 1")
    problem, dp, report = _solve_input(args, substeps)
    fields = {**_solve_doc(report), "substeps": substeps}
    if report.signal is not None:
        coarse = simulate_discrete(dp, report.signal, problem.x0)
        fine = simulate_continuous(problem.plant, report.signal, problem.x0, substeps)
        grid = fine[::substeps]
        fields["discrete_terminal_error"] = float(np.linalg.norm(coarse[-1]))
        fields["continuous_terminal_error"] = float(np.linalg.norm(fine[-1]))
        fields["max_gridpoint_gap"] = float(np.max(np.abs(grid - coarse)))
        if args.csv is not None:
            fine_signal = ControlSignal(
                U=np.repeat(report.signal.as_steps(), substeps, axis=0).ravel(),
                h=report.signal.h / substeps,
                m=report.signal.m,
                N=report.signal.N * substeps,
            )
            args.csv.write_text(write_signal(fine_signal, fine))
    return problem, fields, _status_exit(report.status)


_COMMANDS = {
    "solve": cmd_solve,
    "compare": cmd_compare,
    "sweep": cmd_sweep,
    "verify-equivalence": cmd_verify_equivalence,
    "simulate": cmd_simulate,
}


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="handsoff",
        description="Sparse minimum-fuel controls for LTI plants.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text in (
            ("solve", "solve one problem file"),
            ("compare", "solve and contrast with the minimum-energy baseline"),
            ("sweep", "solve over a grid of horizons or weight scalings"),
            ("verify-equivalence", "compare the sparse solve with exhaustive search"),
            ("simulate", "solve and re-simulate in continuous time"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, type=Path, help="problem file (JSON)")
        p.add_argument("--out", type=Path, default=None,
                       help="result document path (default: stdout)")
        p.add_argument("--csv", type=Path, default=None, help="trajectory CSV path")
        p.add_argument("--no-polish", action="store_true",
                       help="skip the sparse vertex crossover")
        if name == "simulate":
            p.add_argument("--substeps", type=int, default=20,
                           help="integration substeps per grid slot")
        if name == "sweep":
            p.add_argument("--sweep-T", type=_parse_grid, default=(),
                           help='comma-separated horizon grid, e.g. "5,7.5,10"')
            p.add_argument("--sweep-scale", type=_parse_grid, default=(),
                           help="comma-separated weight scalings")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error; 2 means
        # "infeasible" here, so a usage error reports EXIT_ERROR instead
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        started = time.perf_counter()
        problem, fields, code = _COMMANDS[args.subcommand](args)
        _emit(args, problem, fields, started)
        return code
    except (HandsOffError, OSError) as exc:
        print(f"handsoff: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
