"""In-memory span tracer for gptkit's module-level functions.

`Tracer.install()` replaces every public function defined in one of the
traced modules by a wrapper, in every gptkit namespace that holds it, so
by-value imports such as ``cli.sample_special_orthogonal`` or
``composites.get_theory`` are traced too.  Each call records a span
``[span_id, parent_id, name, start, end, extra]``; `extra` holds sizes and
outcomes that some layer metrics need.  Spans stay in memory until
`write_spans` is called after the timed region.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
import types

PACKAGE = "gptkit"
MODULES = ("cli", "composites", "lp", "minkowski", "poincare", "rotations", "zoo", "core")

# (metric, unit, better).  A layer's metrics are named <module>.<function>.<kind>.
LAYER_METRICS = [
    ("lp.exact_linprog.calls", "count", "lower"),
    ("lp.exact_linprog.busy_s", "s", "lower"),
    ("lp.exact_linprog.tableau_cells", "cells", "lower"),
    ("lp.linear_program.calls", "count", "lower"),
    ("lp.linear_program.busy_s", "s", "lower"),
    ("lp.linear_program.rows_mean", "rows", "lower"),
    ("lp.linear_program.cols_mean", "cols", "lower"),
    ("lp.linear_program.nonoptimal", "count", "lower"),
    ("lp.hull_membership.calls", "count", "lower"),
    ("lp.hull_membership.busy_s", "s", "lower"),
    ("lp.hull_membership.self_s", "s", "lower"),
    ("lp.hull_membership.points_mean", "points", "lower"),
    ("lp.exact_hull_membership.calls", "count", "lower"),
    ("lp.exact_hull_membership.busy_s", "s", "lower"),
    ("lp.exact_hull_membership.lps_per_call", "LP/call", "lower"),
    ("composites.maximize_chsh.calls", "count", "lower"),
    ("composites.maximize_chsh.busy_s", "s", "lower"),
    ("composites.maximize_chsh.self_s", "s", "lower"),
    ("composites.maximize_chsh.lps_per_call", "LP/call", "lower"),
    ("composites.maximize_chsh.optimal_lp_ratio", "ratio", "higher"),
    ("composites.is_separable.calls", "count", "lower"),
    ("composites.is_separable.busy_s", "s", "lower"),
    ("composites.is_separable.self_s", "s", "lower"),
    ("composites.run_scenario.calls", "count", "lower"),
    ("composites.run_scenario.busy_s", "s", "lower"),
    ("composites.run_scenario.self_s", "s", "lower"),
    ("composites.in_max_tensor.calls", "count", "lower"),
    ("composites.in_max_tensor.busy_s", "s", "lower"),
    ("composites.no_signalling_check.calls", "count", "lower"),
    ("composites.no_signalling_check.busy_s", "s", "lower"),
    ("minkowski.standard_boost.calls", "count", "lower"),
    ("minkowski.standard_boost.busy_s", "s", "lower"),
    ("minkowski.little_group_element.calls", "count", "lower"),
    ("minkowski.little_group_element.busy_s", "s", "lower"),
    ("minkowski.wigner_rotation.calls", "count", "lower"),
    ("minkowski.wigner_rotation.busy_s", "s", "lower"),
    ("minkowski.compose.calls", "count", "lower"),
    ("minkowski.compose.busy_s", "s", "lower"),
    ("minkowski.random_proper_orthochronous.calls", "count", "lower"),
    ("minkowski.random_proper_orthochronous.busy_s", "s", "lower"),
    ("rotations.sample_special_orthogonal.calls", "count", "lower"),
    ("rotations.sample_special_orthogonal.busy_s", "s", "lower"),
    ("poincare.orbit_ball_reconstruction.busy_s", "s", "lower"),
    ("poincare.detector_sphere_experiment.busy_s", "s", "lower"),
    ("poincare.toy_discrete_spacetime.busy_s", "s", "lower"),
    ("cli.minkowski_suite.self_s", "s", "lower"),
    ("cli.little_group_suite.self_s", "s", "lower"),
    ("cli.invariance_suite.self_s", "s", "lower"),
    ("zoo.get_theory.calls", "count", "lower"),
    ("zoo.get_theory.busy_s", "s", "lower"),
    ("rotations.deterministic_sphere_points.calls", "count", "lower"),
    ("rotations.deterministic_sphere_points.busy_s", "s", "lower"),
    ("core.validate_state.calls", "count", "lower"),
    ("core.validate_state.busy_s", "s", "lower"),
    ("cli.main.cpu_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# Metrics that must repeat exactly between two traced repetitions of one input.
COUNT_KINDS = ("calls", "tableau_cells", "rows_mean", "cols_mean", "nonoptimal",
               "points_mean", "lps_per_call", "optimal_lp_ratio", "spans")


def _rows(a) -> int:
    if a is None:
        return 0
    import numpy as np

    return int(np.atleast_2d(np.asarray(a, dtype=object)).shape[0])


def _exact_linprog_extra(bound, result):
    m_eq = _rows(bound["a_eq"])
    m_le = _rows(bound["a_le"])
    nvar = len(bound["c"])
    nonneg = bound["nonneg"]
    split = 0 if nonneg is None else sum(1 for flag in nonneg if not flag)
    m = m_eq + m_le
    # initial tableau of the two-phase simplex: structural, slack and
    # artificial columns plus the right-hand side
    return {"cells": m * (nvar + split + m_le + m + 1)}


def _linear_program_extra(bound, result):
    return {
        "rows": _rows(bound["a_eq"]) + _rows(bound["a_ub"]),
        "cols": len(bound["c"]),
        "status": result.status,
        "value": result.value,
    }


def _hull_membership_extra(bound, result):
    return {"points": len(bound["points"])}


def _maximize_chsh_extra(bound, result):
    return {
        "value": result.value,
        "locals": (bound["local_a"].name, bound["local_b"].name),
    }


EXTRA_HOOKS = {
    "lp.exact_linprog": _exact_linprog_extra,
    "lp.linear_program": _linear_program_extra,
    "lp.hull_membership": _hull_membership_extra,
    "composites.maximize_chsh": _maximize_chsh_extra,
}
CPU_TIMED = ("cli.main",)


class Tracer:
    """Records one span per call of a traced gptkit function."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._restore: list[tuple[types.ModuleType, str, object]] = []

    def install(self) -> None:
        modules = {short: importlib.import_module(f"{PACKAGE}.{short}") for short in MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for attr, value in vars(mod).items():
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(value)] = (value, self._wrap(value, f"{short}.{attr}"))
        namespaces = [sys.modules[PACKAGE]] + list(modules.values())
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def _wrap(self, fn, name: str):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        hook = EXTRA_HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        cpu = name in CPU_TIMED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1][0] if stack else -1, name, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span)
            cpu0 = time.process_time() if cpu else 0.0
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if cpu:
                span[5] = {"cpu": time.process_time() - cpu0}
            elif hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = hook(bound.arguments, result)
            return result

        return traced

    def write_spans(self, fh) -> None:
        """Write this repetition's spans as CSV: run, span, parent, name, start, end."""
        fh.write("run,span,parent,name,start_s,end_s\n")
        for span_id, parent, name, start, end, _ in self.spans:
            fh.write(f"{self.run_id},{span_id},{parent},{name},{start:.9f},{end:.9f}\n")

    def summarize(self) -> tuple[dict[str, float], dict]:
        """Per-layer metrics of this repetition (see LAYER_METRICS), and the
        LP count of every maximize_chsh call."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        children: dict[int, list[list]] = {}
        for span in spans:
            if span[1] >= 0:
                child_time[span[1]] += span[4] - span[3]
                children.setdefault(span[1], []).append(span)
        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        own: dict[str, float] = {}
        extras: dict[str, list] = {}
        for span in spans:
            name = span[2]
            dur = span[4] - span[3]
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + dur
            own[name] = own.get(name, 0.0) + dur - child_time[span[0]]
            if span[5] is not None:
                extras.setdefault(name, []).append(span)

        def mean(name, key):
            values = [span[5][key] for span in extras.get(name, [])]
            return statistics.fmean(values) if values else 0.0

        def child_count(span, name):
            return sum(1 for child in children.get(span[0], []) if child[2] == name)

        out: dict[str, float] = {}
        for metric, _, _ in LAYER_METRICS:
            fn_name, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls.get(fn_name, 0)
            elif kind == "busy_s":
                out[metric] = busy.get(fn_name, 0.0)
            elif kind == "self_s":
                out[metric] = own.get(fn_name, 0.0)
        out["lp.exact_linprog.tableau_cells"] = sum(
            span[5]["cells"] for span in extras.get("lp.exact_linprog", []))
        out["lp.linear_program.rows_mean"] = mean("lp.linear_program", "rows")
        out["lp.linear_program.cols_mean"] = mean("lp.linear_program", "cols")
        out["lp.linear_program.nonoptimal"] = sum(
            1 for span in extras.get("lp.linear_program", []) if span[5]["status"] != "optimal")
        out["lp.hull_membership.points_mean"] = mean("lp.hull_membership", "points")
        exact_hull_calls = calls.get("lp.exact_hull_membership", 0)
        exact_hull_lps = sum(child_count(span, "lp.exact_linprog")
                             for span in spans if span[2] == "lp.exact_hull_membership")
        out["lp.exact_hull_membership.lps_per_call"] = (
            exact_hull_lps / exact_hull_calls if exact_hull_calls else 0.0)
        lps, reached = 0, 0
        for span in extras.get("composites.maximize_chsh", []):
            best = span[5]["value"]
            for child in children.get(span[0], []):
                if child[2] == "lp.linear_program" and child[5] is not None:
                    lps += 1
                    value = child[5]["value"]
                    if value is not None and value >= best - 1e-9 * max(1.0, abs(best)):
                        reached += 1
        chsh_calls = calls.get("composites.maximize_chsh", 0)
        out["composites.maximize_chsh.lps_per_call"] = lps / chsh_calls if chsh_calls else 0.0
        out["composites.maximize_chsh.optimal_lp_ratio"] = reached / lps if lps else 0.0
        out["cli.main.cpu_s"] = sum(span[5]["cpu"] for span in extras.get("cli.main", []))
        out["trace.spans"] = len(spans)
        anchors = {
            "lps_per_chsh_scenario": [
                [list(span[5]["locals"]), child_count(span, "lp.linear_program")]
                for span in extras.get("composites.maximize_chsh", [])
            ],
            "linear_program_calls": calls.get("lp.linear_program", 0),
        }
        return out, anchors
