"""Run one workload of the handsoff benchmark and print its metrics.

    python3 benchmarks/run.py --workload solve_batch --seed 3 --seconds 15 --trace 0

Run it from the repository root; the program is imported from ``src/``.
A run repeats whole passes over the workload's operation list until
``--seconds`` have gone by, checks every output against answers computed
apart from the program, and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it records the seed, nproc, BLAS threads and library versions;
both also go to ``benchmarks/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from tracer import LAYER_METRICS, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 3
# l0_verify's pass takes about 9 s; four passes give each of its short
# operations enough samples for a steady median
MIN_PASSES = 4
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
              "peak_rss_mb": "MB", "support_atoms": "count"}


@dataclass
class Pass:
    traced: bool
    spans: slice  # this pass's spans in the tracer's list
    times: list
    outputs: list


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="cli_solve, solve_large, solve_batch or l0_verify")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def environment(seed: int, nproc: int, threads: int) -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info['name']} {info['version']}"
        except (TypeError, KeyError):
            return "unknown"
    return {"seed": seed, "nproc": nproc, "blas_threads": threads,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas(numpy), "scipy_blas": blas(scipy),
            "machine": platform.machine()}


def timed(op, tracer):
    """(seconds, output, traceback or None); a crash counts as a failed op."""
    started = time.perf_counter()
    try:
        out, crash = op.run(tracer), None
    except Exception as exc:  # the program's fault, kept and reported
        out, crash = exc, traceback.format_exc()
    return time.perf_counter() - started, out, crash


def measure(ops, seconds: float, tracer) -> tuple[list[Pass], list[str]]:
    """Whole passes until `seconds` have gone by and MIN_PASSES are done;
    with a tracer, passes alternate untraced and traced."""
    passes, crashes = [], []
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        first = len(tracer.spans) if tracer else 0
        if traced:
            tracer.install()
        times, outputs = [], []
        for i, op in enumerate(ops):
            if traced:
                tracer.op = [len(passes), i]
            elapsed, out, crash = timed(op, tracer if traced else None)
            times.append(elapsed)
            outputs.append(out)
            if crash:
                crashes.append(f"{op.name}: {crash}")
        if traced:
            tracer.remove()
        passes.append(Pass(traced, slice(first, len(tracer.spans) if tracer else 0),
                           times, outputs))
        if time.perf_counter() - begin >= seconds and len(passes) >= MIN_PASSES:
            return passes, crashes


def setup_times(args) -> list[float]:
    """Wall time of fresh processes that import, build the inputs and run
    the first operation cold."""
    probe = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    out = []
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        subprocess.run(probe, check=True)
        out.append(time.perf_counter() - started)
    return out


def layer_values(passes: list[Pass], walls: list[float], tracer) -> dict:
    """Per-layer metrics: each traced pass's totals, median over those passes."""
    per_pass = []
    for ps in passes:
        if ps.traced:
            first = ps.spans.start
            per_pass.append(layer_metrics([s[:3] + [None if s[3] is None else s[3] - first] + s[4:]
                                           for s in tracer.spans[ps.spans]]))
    values = {k: (statistics.median_low if unit == "count" else statistics.median)(
        p[k] for p in per_pass) for k, unit in LAYER_METRICS.items()}
    values["trace.overhead_s"] = (
        statistics.median(w for ps, w in zip(passes, walls) if ps.traced)
        - statistics.median(w for ps, w in zip(passes, walls) if not ps.traced))
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "handsoff" / "__init__.py").is_file() \
            or not (ROOT / "problems").is_dir():
        print(f"run.py: no handsoff source tree (src/handsoff, problems/) under {ROOT}",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    threads = min(2, nproc)
    for var in BLAS_VARS:  # before numpy loads; children inherit it
        os.environ[var] = str(threads)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    try:
        ops = workloads.build(args.workload, args.seed,
                              OUT / f"work-{args.workload}-seed{args.seed}")
    except ValueError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        timed(ops[0], None)
        return 0

    timed(ops[0], None)  # cold first operation, paid in setup_s
    tracer = Tracer() if args.trace else None
    passes, crashes = measure(ops, args.seconds, tracer)
    # cli_solve's program runs in child processes, the others' in this one
    in_children = args.workload == "cli_solve"
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if in_children else resource.RUSAGE_SELF)
    peak_mb = usage.ru_maxrss / 1024.0
    setup = [] if args.trace else setup_times(args)

    failed, failures, violations, atoms = 0, {}, [], []
    for p, ps in enumerate(passes):
        for op, out in zip(ops, ps.outputs):
            was_failed, bad = op.judge(out)
            if was_failed:
                failed += 1
                failures[op.name] = failures.get(op.name, 0) + 1
            violations += [f"pass {p} {op.name}: {v}" for v in bad]
        violations += [f"pass {p}: {v}" for v in workloads.check_pass(ops, ps.outputs)]
        atoms.append(sum(op.atoms(out) for op, out in zip(ops, ps.outputs)))

    walls = [sum(ps.times) for ps in passes]
    if args.trace:
        values = layer_values(passes, walls, tracer)
        units = dict(LAYER_METRICS, **{"trace.overhead_s": "s"})
    else:
        values = {"setup_s": statistics.median(setup), "wall_s": statistics.median(walls),
                  "op_p50_s": statistics.median(t for ps in passes for t in ps.times),
                  "peak_rss_mb": peak_mb,
                  "support_atoms": statistics.median_low(atoms)}
        units = END_TO_END

    result = {"correct": not violations, "attempted": len(ops) * len(passes), "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "env": environment(args.seed, nproc, threads), "passes": len(passes),
              "ops": [op.name for op in ops], "op_samples": len(ops) * len(passes),
              "op_times": [ps.times for ps in passes], "wall_samples": walls,
              "setup_samples": setup, "failures": failures, "violations": violations[:50],
              "crashes": crashes[:5]}
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(dict(record, result=result), indent=2) + "\n")
    if tracer:
        with gzip.open(OUT / f"{stem}.spans.jsonl.gz", "wt", compresslevel=1) as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
