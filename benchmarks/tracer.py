"""Spans around calls into handsoff's layers, recorded from outside the program.

``install`` rebinds each wrapped function at every name a loaded handsoff
module binds it to, which is the name its callers look up at call time,
and ``remove`` puts the originals back.  A function the program no longer
defines is skipped, and its metrics read 0.  Spans stay in memory until
the run ends.  Only the traced passes of a ``--trace 1`` run install
wrappers; untraced passes run the program as shipped.
"""

from __future__ import annotations

import sys
import time
from functools import wraps

# span name -> (defining module, function name)
LAYERS = {
    "model.validate": ("handsoff.model", "validate_problem"),
    "model.read_problem": ("handsoff.model", "read_problem"),
    "discretize.zoh": ("handsoff.discretize", "zoh_discretize"),
    "discretize.reachability": ("handsoff.discretize", "build_reachability"),
    "discretize.radius": ("handsoff.discretize", "feasibility_radius"),
    "solver.solve": ("handsoff.solver", "solve"),
    "solver.build_lp": ("handsoff.solver", "build_lp"),
    "solver.polish": ("handsoff.solver", "polish_to_vertex"),
    "solver.restore": ("handsoff.solver", "_min_fuel_on_support"),
    "interior_point.solve_ip": ("handsoff.interior_point", "solve_ip"),
    "interior_point.kkt_factor": ("handsoff.interior_point", "_make_kkt_solver"),
    "analysis.verify_equivalence": ("handsoff.analysis", "verify_equivalence"),
    "analysis.l0": ("handsoff.analysis", "l0_oracle"),
    "analysis.support_feasible": ("handsoff.analysis", "_support_feasible"),
    "analysis.support_fuel": ("handsoff.analysis", "_support_fuel"),
    "analysis.min_energy": ("handsoff.analysis", "min_energy_baseline"),
    "analysis.simulate_discrete": ("handsoff.analysis", "simulate_discrete"),
    "analysis.simulate_continuous": ("handsoff.analysis", "simulate_continuous"),
    "analysis.sparsity": ("handsoff.analysis", "sparsity"),
    "cli.main": ("handsoff.cli", "main"),
}


class Tracer:
    """Span store for one process.  A span is
    [name, start, end, parent index, operation id, attributes]."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name, fn):
        after = _AFTER.get(name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            return after(self, rec, result) if after else result
        return wrapper

    def install(self) -> None:
        loaded = [m for k, m in list(sys.modules.items())
                  if m is not None and (k == "handsoff" or k.startswith("handsoff."))]
        for name, (module, attr) in LAYERS.items():
            fn = getattr(sys.modules.get(module), attr, None)
            if fn is None:
                continue
            wrapper = self.wrap(name, fn)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        self._saved.append((mod, key, fn))

    def remove(self) -> None:
        for mod, key, fn in reversed(self._saved):
            setattr(mod, key, fn)
        self._saved.clear()

    def add(self, spans: list[list]) -> None:
        """Append spans recorded in another process under the current op."""
        base = len(self.spans)
        for name, start, end, parent, _, attrs in spans:
            self.spans.append([name, start, end, None if parent is None else parent + base,
                               self.op, attrs])


def _note_ip(tracer, rec, result):
    rec[5] = {"status": result.status.value, "iterations": int(result.iterations)}
    return result


def _note_polish(tracer, rec, result):
    rec[5] = {"accepted": bool(result[1]), "rounds": int(result[2])}
    return result


def _wrap_kkt_solve(tracer, rec, solve):
    return tracer.wrap("interior_point.kkt_solve", solve)


_AFTER = {
    "interior_point.solve_ip": _note_ip,
    "solver.polish": _note_polish,
    "interior_point.kkt_factor": _wrap_kkt_solve,
}

# per-layer metric -> unit; every one is reported per pass of the workload
LAYER_METRICS = {
    "model.validate_calls": "count",
    "model.read_problem_s": "s",
    "discretize.zoh_s": "s",
    "discretize.zoh_calls": "count",
    "discretize.reachability_s": "s",
    "discretize.reachability_calls": "count",
    "discretize.radius_s": "s",
    "solver.solve_self_s": "s",
    "solver.build_lp_s": "s",
    "solver.polish_self_s": "s",
    "solver.polish_calls": "count",
    "solver.polish_rounds": "count",
    "solver.polish_accepted": "count",
    "solver.restore_s": "s",
    "interior_point.calls": "count",
    "interior_point.iterations": "count",
    "interior_point.main_s": "s",
    "interior_point.polish_s": "s",
    "interior_point.oracle_s": "s",
    "interior_point.nonoptimal_calls": "count",
    "interior_point.kkt_factors": "count",
    "interior_point.kkt_factor_s": "s",
    "interior_point.kkt_solves": "count",
    "interior_point.kkt_solve_s": "s",
    "interior_point.other_s": "s",
    "analysis.l0_s": "s",
    "analysis.support_checks": "count",
    "analysis.support_check_s": "s",
    "analysis.highs_fallbacks": "count",
    "analysis.support_fuel_s": "s",
    "analysis.min_energy_s": "s",
    "analysis.simulate_s": "s",
    "analysis.sparsity_s": "s",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.main_s": "s",
}


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals over one set of spans (one traced pass)."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    parent_name = [None] * len(spans)
    for i, s in enumerate(spans):
        if s[3] is not None:
            child[s[3]] += dur[i]
            parent_name[i] = spans[s[3]][0]

    def total(name, parents=None):
        return sum(d for s, d, p in zip(spans, dur, parent_name)
                   if s[0] == name and (parents is None or p in parents))

    def count(name):
        return sum(1 for s in spans if s[0] == name)

    def self_time(name):
        return sum(d - c for s, d, c in zip(spans, dur, child) if s[0] == name)

    def attr_sum(name, key):
        return sum(s[5][key] for s in spans if s[0] == name and s[5])

    ip = "interior_point.solve_ip"
    nonoptimal = {i for i, s in enumerate(spans)
                  if s[0] == ip and s[5] and s[5]["status"] != "optimal"}
    fallbacks = {spans[i][3] for i in nonoptimal
                 if parent_name[i] == "analysis.support_feasible"}
    return {
        "model.validate_calls": count("model.validate"),
        "model.read_problem_s": total("model.read_problem"),
        "discretize.zoh_s": total("discretize.zoh"),
        "discretize.zoh_calls": count("discretize.zoh"),
        "discretize.reachability_s": total("discretize.reachability"),
        "discretize.reachability_calls": count("discretize.reachability"),
        "discretize.radius_s": total("discretize.radius"),
        "solver.solve_self_s": self_time("solver.solve"),
        "solver.build_lp_s": total("solver.build_lp"),
        "solver.polish_self_s": self_time("solver.polish"),
        "solver.polish_calls": count("solver.polish"),
        "solver.polish_rounds": attr_sum("solver.polish", "rounds"),
        "solver.polish_accepted": attr_sum("solver.polish", "accepted"),
        "solver.restore_s": total("solver.restore"),
        "interior_point.calls": count(ip),
        "interior_point.iterations": attr_sum(ip, "iterations"),
        "interior_point.main_s": total(ip, {"solver.solve"}),
        "interior_point.polish_s": total(ip, {"solver.polish", "solver.restore"}),
        "interior_point.oracle_s": total(ip, {"analysis.support_feasible",
                                              "analysis.support_fuel"}),
        "interior_point.nonoptimal_calls": len(nonoptimal),
        "interior_point.kkt_factors": count("interior_point.kkt_factor"),
        "interior_point.kkt_factor_s": total("interior_point.kkt_factor"),
        "interior_point.kkt_solves": count("interior_point.kkt_solve"),
        "interior_point.kkt_solve_s": total("interior_point.kkt_solve"),
        "interior_point.other_s": self_time(ip),
        "analysis.l0_s": total("analysis.l0"),
        "analysis.support_checks": count("analysis.support_feasible"),
        "analysis.support_check_s": total("analysis.support_feasible"),
        "analysis.highs_fallbacks": len(fallbacks),
        "analysis.support_fuel_s": total("analysis.support_fuel"),
        "analysis.min_energy_s": total("analysis.min_energy"),
        "analysis.simulate_s": total("analysis.simulate_discrete")
        + total("analysis.simulate_continuous"),
        "analysis.sparsity_s": total("analysis.sparsity"),
        "cli.interpreter_s": total("cli.interpreter"),
        "cli.import_s": total("cli.import"),
        "cli.main_s": total("cli.main"),
    }
