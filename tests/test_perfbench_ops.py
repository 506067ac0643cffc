"""Each benchmark op runs on the library and passes its own check.

`perfbench/workloads.py` reads library names that no other test reads
(`problem.init.bulk`, `problem.solve(newton_tol=..., max_newton=...)`,
`MinimizeResult.reason`, `IterateRecord.clamp_events`). This test loads
the workloads (without the benchmark driver) and runs each op once on
grid.n = 8: optimize-n8's own grid, to which solve-n128 and report-n32
are shrunk so the test stays fast.
"""

import importlib.util
from pathlib import Path

import pytest

from acopt.cli_io import build_problem

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _workloads()


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
