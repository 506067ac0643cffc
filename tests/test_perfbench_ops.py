"""Each benchmark op runs on the library and passes its own check.

`perfbench/workloads.py` reads library names that no other test reads
(`problem.init.bulk`, `problem.solve(newton_tol=..., max_newton=...)`,
`MinimizeResult.reason`, `IterateRecord.clamp_events`). This test loads
the workloads (without the benchmark driver) and runs each op once on
grid.n = 8: optimize-n8's own grid, to which solve-n128 and report-n32
are shrunk so the test stays fast. optimize-n8's optimizer run is also
repeated from the starts of several seeds.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from acopt import minimize
from acopt.cli_io import build_problem, build_run

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH = _workloads()
WORKLOADS = BENCH.WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_op_passes_its_check(tmp_path, name):
    workload = WORKLOADS[name]
    cfg = workload.config()
    cfg.grid_n = 8
    problem = build_problem(cfg)
    inputs = workload.make_input(problem, 0)
    output = workload.run(problem, cfg, inputs, 0, tmp_path)
    failures, _, _ = workload.check(problem, cfg, inputs, output, tmp_path)
    assert failures == []


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 7, 11])
def test_optimize_n8_starts_reach_the_minimum(seed):
    """optimize-n8's start on each seed: stationarity stop, strict descent, the recorded minimum.

    Near the float floor the Armijo test is decided by the state solve's
    leftover error, not by the cost; a Newton tail that wanders there
    shows as a non-decreasing cost or a roundoff stop. Over seeds 0-39
    every run took 7 or 8 iterations; 12 bounds it.
    """
    workload = WORKLOADS["optimize-n8"]
    problem, opt_cfg, _, _ = build_run(workload.config())
    result = minimize(problem, opt_cfg, workload.make_input(problem, seed))
    costs = np.array([r.cost for r in result.history])
    assert result.reason == "stationarity"
    assert (np.diff(costs) < 0).all()
    assert costs[-1] == pytest.approx(BENCH.REFERENCE["optimize-n8"]["min_cost"], rel=1e-9, abs=0)
    assert len(result.history) - 1 <= 12
