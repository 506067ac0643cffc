"""In-memory span tracer that wraps acopt's public functions from outside.

The library has no tracing of its own, so the benchmark rebinds each
traced function in every acopt module that imported it (for example
`acopt.objective.solve_state` and `acopt.optimizer.solve_adjoint`). Calls
made inside the library then pass through the wrapper too, and each span
knows its parent. `SteppedOperator` is counted, not spanned: its solves
run thousands of times per op and a counter is all the metrics need.

The tracer keeps one stack and is meant for single-threaded runs; the
workloads run with ACOPT_THREADS unset.
"""

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

# (module that defines it, attribute) -> span name; the span name's prefix
# before the first dot is the layer.
SPANNED = {
    ("acopt.geometry", "build_grid"): "geometry.build_grid",
    ("acopt.geometry", "build_operators"): "geometry.build_operators",
    ("acopt.pde_state", "solve_state"): "pde_state.solve_state",
    ("acopt.pde_linear", "linearized_operator"): "pde_linear.linearized_operator",
    ("acopt.pde_linear", "solve_adjoint"): "pde_linear.solve_adjoint",
    ("acopt.pde_linear", "solve_linearized"): "pde_linear.solve_linearized",
    ("acopt.objective", "evaluate_cost"): "objective.evaluate_cost",
    ("acopt.objective", "reduced_gradient"): "objective.reduced_gradient",
    ("acopt.objective", "stationarity_norm"): "objective.stationarity_norm",
    ("acopt.objective", "curvature"): "objective.curvature",
    ("acopt.objective", "optimality_report"): "objective.optimality_report",
    ("acopt.optimizer", "minimize"): "optimizer.minimize",
    ("acopt.cli_io", "build_problem"): "cli_io.build_problem",
    ("acopt.cli_io", "write_trajectory_csv"): "cli_io.write_trajectory_csv",
    ("acopt.cli_io", "write_energy_csv"): "cli_io.write_energy_csv",
    ("acopt.cli_io", "write_control_csv"): "cli_io.write_control_csv",
    ("acopt.cli_io", "write_report"): "cli_io.write_report",
}

# (module, class, method) -> counter name
COUNTED = {
    ("acopt.pde_linear", "SteppedOperator", "__init__"): "pde_linear.operators_built",
    ("acopt.pde_linear", "SteppedOperator", "solve"): "pde_linear.step_solves",
    ("acopt.pde_linear", "SteppedOperator", "solve_transposed"): "pde_linear.step_solves",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    op: int  # spans of one op share this id
    info: dict = None  # solve_state only: the returned Trajectory.info


class Tracer:
    """Records spans and counts while installed; `uninstall` restores acopt."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = 0
        self._stack = []
        self._undo = []
        self.missing = []

    # -- installation ----------------------------------------------------

    def install(self):
        for (mod_name, attr), span_name in SPANNED.items():
            original = getattr(importlib.import_module(mod_name), attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._spanned(span_name, original)
            for module in _acopt_modules():
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, name, wrapper)
        for (mod_name, cls_name, method), counter in COUNTED.items():
            cls = getattr(importlib.import_module(mod_name), cls_name, None)
            original = getattr(cls, method, None) if cls is not None else None
            if original is None:
                self.missing.append(f"{mod_name}.{cls_name}.{method}")
                continue
            self._rebind(cls, method, self._counted(counter, original))

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def _rebind(self, owner, name, value):
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _spanned(self, span_name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = Span(span_name, time.perf_counter(), 0.0, parent, self.op)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if span_name == "pde_state.solve_state":
                    span.info = result.info
                return result
            finally:
                stack.pop()
                span.end = time.perf_counter()

        return wrapper

    def _counted(self, counter, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[(self.op, counter)] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- analysis --------------------------------------------------------

    def self_times(self, op):
        """Seconds per span name with the time of traced child spans removed."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span.op == op and span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out = defaultdict(float)
        for index, span in enumerate(self.spans):
            if span.op == op:
                out[span.name] += span.end - span.start - child_time[index]
        return out

    def count(self, op, counter):
        return self.counts[(op, counter)]


def _acopt_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "acopt" or name.startswith("acopt."))]


def layer_of(span_name):
    return span_name.split(".", 1)[0]
