"""The benchmark's workloads: seeded inputs, one op each, and its checks.

Each op drives the public API the way the CLI mode of the same name does
(`acopt.cli_io.run`): the solver calls on a problem from `build_problem`,
then the CSV/JSONL writers into a fresh directory. Library functions are
looked up on their modules at call time so that the traced run's
rebinding reaches them.

An op's check returns a list of failure messages (empty when the output
is correct), the exact counters that must repeat between ops on one
seed, and for report-n32 the curvature values compared between ops.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from acopt import cli_io, objective, optimizer
from acopt.pde_state import ControlPair

CONFIGS = Path(__file__).resolve().parent / "configs"
REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())

REPORT_DIRECTIONS = 128
# Cost at the unique minimizer of optimize-n8, recorded at the commit that
# defined the benchmark; runs from different starts agree to ~3e-13.
COST_RTOL = 1e-9
# Curvature values against the recorded ones, relative to their largest
# magnitude: roundoff-level agreement, not bit-identity.
CURVATURE_RTOL = 1e-8
# Step residual of the state solve, relative to the row-sum norm of the
# step matrix. Loose enough for a tolerance scaled by the operator, tight
# enough that a wrong state fails by many orders of magnitude.
RESIDUAL_RTOL = 1e-9


def in_box(problem, rng, widen=0.0):
    """Seeded control uniform on the box widened by `widen` of its width, then clipped."""
    def draw(lo, hi):
        pad = widen * (hi - lo)
        return np.clip(rng.uniform(lo - pad, hi + pad), lo, hi)

    return ControlPair(draw(problem.u_lo, problem.u_hi), draw(problem.u_lo_surf, problem.u_hi_surf))


def output_bytes(outdir):
    return sum(p.stat().st_size for p in Path(outdir).iterdir())


def check_csv_rows(failures, path, rows):
    if not Path(path).is_file():
        failures.append(f"{Path(path).name} missing")
        return
    with open(path, "rb") as fh:
        lines = sum(1 for _ in fh)
    if lines != rows + 1:
        failures.append(f"{Path(path).name}: expected {rows} rows plus a header")


def check_state(failures, traj):
    if not np.isfinite(traj.values).all():
        failures.append("state has non-finite values")
    elif not (traj.values.min() > 0.0 and traj.values.max() < 1.0):
        failures.append("state leaves the open interval (0, 1)")


@dataclass
class Workload:
    name: str
    why: str

    def config(self):
        return cli_io.load_config(CONFIGS / f"{self.name}.cfg")


class OptimizeN8(Workload):
    """`optimize` mode: projected gradient from a seeded start, then the final writers."""

    def make_input(self, problem, seed):
        return in_box(problem, np.random.default_rng(seed))

    def run(self, problem, cfg, start, seed, outdir):
        opt_cfg = optimizer.OptimizerConfig(
            max_iters=cfg.opt_max_iters,
            armijo_c=cfg.opt_armijo_c,
            backtrack_factor=cfg.opt_backtrack_factor,
            initial_step=cfg.opt_initial_step,
            stop_tol=cfg.opt_stop_tol,
            max_backtracks=cfg.opt_max_backtracks,
        )
        with open(outdir / "history.csv", "w", encoding="utf-8") as fh:
            fh.write("iter,cost,stationarity,step\n")

            def stream(record, current):
                fh.write(f"{record.iter},{record.cost:.17g},{record.stationarity:.17g},{record.step:.17g}\n")
                fh.flush()
                every = cfg.opt_checkpoint_every
                if every > 0 and record.iter > 0 and record.iter % every == 0:
                    cli_io.write_control_csv(
                        str(outdir / "control_checkpoint"), current, problem.grid, problem.time
                    )

            result = optimizer.minimize(problem, opt_cfg, start, callback=stream)
        cli_io.write_control_csv(str(outdir / "control_final"), result.control, problem.grid, problem.time)
        cli_io.write_report(outdir, result.report)
        final_state = problem.solve(result.control)
        cli_io.write_trajectory_csv(outdir / "state_bulk.csv", final_state)
        cli_io.write_trajectory_csv(outdir / "state_surface.csv", final_state, surface=True)
        return result, final_state

    def check(self, problem, cfg, start, output, outdir):
        result, final_state = output
        failures = []
        if result.reason != "stationarity":
            failures.append(f"stopped by {result.reason}, not stationarity")
        costs = np.array([r.cost for r in result.history])
        reference = REFERENCE["optimize-n8"]["min_cost"]
        if not abs(costs[-1] - reference) <= COST_RTOL * reference:
            failures.append(f"final cost {costs[-1]!r} differs from the minimum {reference!r}")
        if not (np.diff(costs) < 0).all():
            failures.append("costs do not decrease strictly")
        samples = result.report.curvature_samples
        if not samples or not np.isfinite([s[3] for s in samples]).all():
            failures.append("final report has no finite curvature ratios")
        check_state(failures, final_state)
        grid = problem.grid
        check_csv_rows(failures, outdir / "history.csv", len(result.history))
        check_csv_rows(failures, outdir / "state_bulk.csv", grid.num_nodes)
        check_csv_rows(failures, outdir / "state_surface.csv", grid.num_boundary)
        check_csv_rows(failures, outdir / "control_final_bulk.csv", grid.num_nodes)
        check_csv_rows(failures, outdir / "curvature_samples.csv", len(samples))
        counters = {
            "optimizer.iterations": len(result.history) - 1,
            "potentials.clamp_events": result.history[-1].clamp_events
            + final_state.info["clamp_events"],
            "objective.curvature_samples": len(samples),
            "final_state.newton_iters": sum(final_state.info["newton_iters"]),
            "cli_io.bytes_written": output_bytes(outdir),
        }
        return failures, counters, None


class SolveN128(Workload):
    """`solve` mode: one large state solve, then the state and energy writers."""

    def make_input(self, problem, seed):
        return in_box(problem, np.random.default_rng(seed))

    def run(self, problem, cfg, control, seed, outdir):
        traj = problem.solve(control, newton_tol=cfg.newton_tol, max_newton=cfg.newton_max_iters)
        cli_io.write_trajectory_csv(outdir / "state_bulk.csv", traj)
        cli_io.write_trajectory_csv(outdir / "state_surface.csv", traj, surface=True)
        cli_io.write_energy_csv(outdir / "energy.csv", traj, problem.ops, problem.pf, problem.pg)
        return traj

    def check(self, problem, cfg, control, traj, outdir):
        failures = []
        check_state(failures, traj)
        if not failures:
            residual, scale = step_residual(problem, control, traj)
            if not residual <= RESIDUAL_RTOL * scale:
                failures.append(
                    f"implicit Euler residual {residual:.3e} above {RESIDUAL_RTOL:g} x {scale:.3e}"
                )
        if not np.array_equal(traj.values[0], problem.init.bulk):
            failures.append("level 0 is not the initial data")
        grid = problem.grid
        check_csv_rows(failures, outdir / "state_bulk.csv", grid.num_nodes)
        check_csv_rows(failures, outdir / "state_surface.csv", grid.num_boundary)
        check_csv_rows(failures, outdir / "energy.csv", problem.time.m + 1)
        counters = {
            "pde_state.newton_iters": sum(traj.info["newton_iters"]),
            "potentials.clamp_events": traj.info["clamp_events"],
            "cli_io.bytes_written": output_bytes(outdir),
        }
        return failures, counters, None


def step_residual(problem, control, traj):
    """Max-norm residual of every implicit Euler step, recomputed from the public operators.

    Step k+1 must satisfy (y+ - y)/dt + coupled y+ + f'(y+) = u at interior
    nodes and the same with g' and the surface control at boundary nodes.
    Returns the residual and the row-sum norm of the step matrix.
    """
    grid, time = problem.grid, problem.time
    # A copy: some scipy operations (abs among them) sort a CSR matrix's
    # indices in place, which changes the roundoff of the solver's own
    # products and hence its Newton counts at n=128.
    coupled = problem.ops.coupled.copy()
    interior, cycle = grid.interior_nodes, grid.boundary_cycle
    new, old = traj.values[1:], traj.values[:-1]
    res = (new - old) / time.dt + (coupled @ new.T).T
    res[:, interior] += np.asarray(problem.pf.d1(new[:, interior])) - control.bulk[1:, interior]
    res[:, cycle] += np.asarray(problem.pg.d1(new[:, cycle])) - control.surface[1:]
    scale = 1.0 / time.dt + float(abs(coupled).sum(axis=1).max())
    return float(np.max(np.abs(res))), scale


class ReportN32(Workload):
    """`report` mode: state, adjoint and 128 sampled curvatures, then the report writers."""

    def make_input(self, problem, seed):
        # a third of the entries sit on the bounds, as after a projected step
        return in_box(problem, np.random.default_rng(seed), widen=0.25)

    def run(self, problem, cfg, control, seed, outdir):
        report = objective.optimality_report(problem, control, n_dir=REPORT_DIRECTIONS, seed=seed)
        cli_io.write_report(outdir, report)
        return report

    def check(self, problem, cfg, control, report, outdir):
        failures = []
        samples = report.curvature_samples
        if len(samples) != REPORT_DIRECTIONS:
            failures.append(f"{len(samples)} curvature samples, expected {REPORT_DIRECTIONS}")
        if not np.isfinite([s[3] for s in samples]).all():
            failures.append("non-finite curvature ratio")
        if not np.isfinite([report.cost, report.grad_norm, report.stationarity]).all():
            failures.append("non-finite first-order diagnostics")
        check_csv_rows(failures, outdir / "curvature_samples.csv", len(samples))
        counters = {
            "objective.curvature_samples": len(samples),
            "cli_io.bytes_written": output_bytes(outdir),
        }
        return failures, counters, np.array([s[1] for s in samples])

    def check_reference(self, values):
        """Compare the seed-0 curvature values with those recorded for it."""
        reference = np.array(REFERENCE["report-n32"]["curvature"])
        if values.shape != reference.shape:
            return [f"{values.size} reference curvatures, expected {reference.size}"]
        error = float(np.max(np.abs(values - reference)))
        limit = CURVATURE_RTOL * float(np.max(np.abs(reference)))
        if not error <= limit:
            return [f"curvatures differ from the recorded ones by {error:.3e} (limit {limit:.3e})"]
        return []


WORKLOADS = {
    w.name: w
    for w in (
        OptimizeN8(
            "optimize-n8",
            "paper experiment at n=8: tiny matrices, so per-call overhead in Newton, adjoint and "
            "objective dominates; exercises the optimizer loop",
        ),
        SolveN128(
            "solve-n128",
            "one state solve at n=128: bound by sparse factorization and the CSV/energy writers; "
            "bypasses optimizer, objective and adjoint",
        ),
        ReportN32(
            "report-n32",
            "optimality report at n=32: 128 linearized marches share one set of factorizations, "
            "plus curvature einsums; Newton is a minor share",
        ),
    )
}
