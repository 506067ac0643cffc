"""Configuration parsing, experiment drivers, and file output.

Config files are flat dotted-key text: one `key = value` pair per line,
UTF-8, `#` starts a comment. Unknown keys are rejected with the offending
key named. A resolved copy of the configuration (all defaults filled) is
echoed into the output directory, and loading that copy reproduces the
configuration exactly.

Modes: solve, optimize, verify-gradient, verify-taylor, verify-curvature,
report. CSV is the canonical output format (headers, '.' decimal
separator, 17 significant digits); VTK legacy structured-points output is
display only.

Exit codes: 0 success, 2 config error, 3 solver failure, 4 verification
failure.
"""

import argparse
import json
import sys
import warnings
from dataclasses import dataclass, fields as dc_fields
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    InvalidParameterError,
    OptimizerStalledError,
    SolverFailureError,
    StepSolvabilityWarning,
)
from .geometry import TimeAxis, build_grid, build_operators
from .objective import (
    ControlProblem,
    clip_to_box,
    curvature,
    evaluate_cost,
    hinner,
    optimality_report,
    reduced_gradient,
)
from .optimizer import OptimizerConfig, minimize
from .pde_linear import linearized_operator, solve_adjoint, solve_linearized
from .pde_state import ControlPair, FieldPair, energy, trajectory_space_time_norm
from .potentials import Potential

MODES = ("solve", "optimize", "verify-gradient", "verify-taylor", "verify-curvature", "report")
FORMATS = ("csv", "vtk")
TARGET_PRESETS = ("tanh-moving", "constant")
INIT_PRESETS = ("constant", "tanh-interface", "random-seeded")
CONTROL_PRESETS = ("zero", "constant", "stationary")

_FLOAT_FMT = "%.17g"


@dataclass
class RunConfig:
    """Fully resolved run configuration (see _KEYS for keys and defaults)."""

    mode: str = "solve"
    seed: int = 0
    output_dir: str = "out"
    output_formats: str = "csv"
    grid_n: int = 8
    time_T: float = 0.25
    time_m: int = 20
    pf_alpha: float = 1.0
    pf_c: float = 3.0
    pf_eps_guard: float = 1e-9
    pg_alpha: float = 1.0
    pg_c: float = 3.0
    pg_eps_guard: float = 1e-9
    beta1: float = 1.0
    beta2: float = 1.0
    beta3: float = 1.0
    beta5: float = 1e-2
    beta6: float = 1e-2
    target_preset: str = "tanh-moving"
    target_value: float = 0.5
    box_u1: float = -1.0
    box_u2: float = 1.0
    box_u1_gamma: float = -1.0
    box_u2_gamma: float = 1.0
    init_preset: str = "tanh-interface"
    init_value: float = 0.5
    control_preset: str = "zero"
    control_value: float = 0.0
    newton_tol: float = 1e-11
    newton_max_iters: int = 50
    opt_max_iters: int = 500
    opt_armijo_c: float = 1e-4
    opt_backtrack_factor: float = 0.5
    opt_initial_step: float = 1.0
    opt_stop_tol: float = 1e-8
    opt_max_backtracks: int = 40
    opt_checkpoint_every: int = 50


# key -> (attribute, type)
_KEYS = {
    "mode": ("mode", str),
    "seed": ("seed", int),
    "output.dir": ("output_dir", str),
    "output.formats": ("output_formats", str),
    "grid.n": ("grid_n", int),
    "time.T": ("time_T", float),
    "time.m": ("time_m", int),
    "potential_f.alpha": ("pf_alpha", float),
    "potential_f.c": ("pf_c", float),
    "potential_f.eps_guard": ("pf_eps_guard", float),
    "potential_g.alpha": ("pg_alpha", float),
    "potential_g.c": ("pg_c", float),
    "potential_g.eps_guard": ("pg_eps_guard", float),
    "cost.beta1": ("beta1", float),
    "cost.beta2": ("beta2", float),
    "cost.beta3": ("beta3", float),
    "cost.beta5": ("beta5", float),
    "cost.beta6": ("beta6", float),
    "target.preset": ("target_preset", str),
    "target.value": ("target_value", float),
    "box.u1": ("box_u1", float),
    "box.u2": ("box_u2", float),
    "box.u1_gamma": ("box_u1_gamma", float),
    "box.u2_gamma": ("box_u2_gamma", float),
    "init.preset": ("init_preset", str),
    "init.value": ("init_value", float),
    "control.preset": ("control_preset", str),
    "control.value": ("control_value", float),
    "newton.tol": ("newton_tol", float),
    "newton.max_iters": ("newton_max_iters", int),
    "optimizer.max_iters": ("opt_max_iters", int),
    "optimizer.armijo_c": ("opt_armijo_c", float),
    "optimizer.backtrack_factor": ("opt_backtrack_factor", float),
    "optimizer.initial_step": ("opt_initial_step", float),
    "optimizer.stop_tol": ("opt_stop_tol", float),
    "optimizer.max_backtracks": ("opt_max_backtracks", int),
    "optimizer.checkpoint_every": ("opt_checkpoint_every", int),
}

_ATTR_TO_KEY = {attr: key for key, (attr, _) in _KEYS.items()}


def _parse_value(key, text, typ):
    text = text.strip()
    try:
        if typ is int:
            return int(text)
        if typ is float:
            return float(text)
    except ValueError as exc:
        raise ConfigError(f"key '{key}': cannot parse '{text}' as {typ.__name__}") from exc
    return text


def _validate(cfg):
    if cfg.mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got '{cfg.mode}'")
    fmts = [f.strip() for f in cfg.output_formats.split(",") if f.strip()]
    if not fmts or any(f not in FORMATS for f in fmts):
        raise ConfigError(f"output.formats must be a subset of {FORMATS}, got '{cfg.output_formats}'")
    if cfg.grid_n < 2:
        raise ConfigError("grid.n must be at least 2")
    if cfg.time_T <= 0 or cfg.time_m < 1:
        raise ConfigError("time.T must be positive and time.m at least 1")
    dt = cfg.time_T / cfg.time_m
    for name, alpha, c, eps in (
        ("potential_f", cfg.pf_alpha, cfg.pf_c, cfg.pf_eps_guard),
        ("potential_g", cfg.pg_alpha, cfg.pg_c, cfg.pg_eps_guard),
    ):
        if alpha < 0:
            raise ConfigError(f"{name}.alpha must be nonnegative")
        if not (0 < eps < 0.5):
            raise ConfigError(f"{name}.eps_guard must lie in (0, 0.5)")
        # The step matrix W (I/dt + coupled + diag f'') is positive definite
        # when 1/dt + min f'' > 0, and min f'' = 4 alpha - 2 c on (0, 1).
        # Warn rather than reject: a step can still solve, or fail loudly.
        product = dt * (2.0 * c - 4.0 * alpha)
        if product >= 1.0:
            warnings.warn(
                f"implicit step not guaranteed uniquely solvable: (time.T / time.m) * "
                f"(2 {name}.c - 4 {name}.alpha) = {product:g} >= 1",
                StepSolvabilityWarning,
                stacklevel=3,
            )
    betas = (cfg.beta1, cfg.beta2, cfg.beta3, cfg.beta5, cfg.beta6)
    if any(b < 0 for b in betas):
        raise ConfigError("cost weights must be nonnegative")
    if not any(b > 0 for b in betas):
        raise ConfigError("at least one cost weight must be positive")
    if cfg.box_u1 > cfg.box_u2:
        raise ConfigError(f"(A1): box.u1 > box.u2 ({cfg.box_u1} > {cfg.box_u2})")
    if cfg.box_u1_gamma > cfg.box_u2_gamma:
        raise ConfigError(
            f"(A1): box.u1_gamma > box.u2_gamma ({cfg.box_u1_gamma} > {cfg.box_u2_gamma})"
        )
    if cfg.target_preset not in TARGET_PRESETS:
        raise ConfigError(f"target.preset must be one of {TARGET_PRESETS}")
    if cfg.init_preset not in INIT_PRESETS:
        raise ConfigError(f"init.preset must be one of {INIT_PRESETS}")
    if cfg.control_preset not in CONTROL_PRESETS:
        raise ConfigError(f"control.preset must be one of {CONTROL_PRESETS}")
    if cfg.init_preset == "constant" and not (0 < cfg.init_value < 1):
        raise ConfigError("init.value must lie in (0, 1) for the constant preset")
    if not (np.isfinite(cfg.newton_tol) and cfg.newton_tol > 0):
        raise ConfigError(f"newton.tol must be positive and finite, got {cfg.newton_tol!r}")
    if cfg.newton_max_iters < 1:
        raise ConfigError(f"newton.max_iters must be at least 1, got {cfg.newton_max_iters}")
    _optimizer_config(cfg)
    return cfg


def _optimizer_config(cfg):
    """The OptimizerConfig of a run; a rejected field raises ConfigError naming its key."""
    try:
        return OptimizerConfig(
            max_iters=cfg.opt_max_iters,
            armijo_c=cfg.opt_armijo_c,
            backtrack_factor=cfg.opt_backtrack_factor,
            initial_step=cfg.opt_initial_step,
            stop_tol=cfg.opt_stop_tol,
            max_backtracks=cfg.opt_max_backtracks,
        )
    except InvalidParameterError as exc:
        # OptimizerConfig's messages start with the field name, which is
        # the config key without its "optimizer." prefix
        raise ConfigError(f"optimizer.{exc}") from exc


def load_config(path):
    """Parse and validate a flat dotted-key configuration file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    cfg = RunConfig()
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got '{raw.strip()}'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key == "cost.beta4":
            raise ConfigError(
                "(A6): beta4 is not an independent key; the terminal surface weight equals cost.beta3"
            )
        if key not in _KEYS:
            raise ConfigError(f"unknown key '{key}'")
        attr, typ = _KEYS[key]
        setattr(cfg, attr, _parse_value(key, value, typ))
    return _validate(cfg)


def write_resolved_config(cfg, path):
    """Echo the fully resolved configuration; loading it round-trips."""
    lines = ["# resolved configuration"]
    for f in dc_fields(cfg):
        key = _ATTR_TO_KEY[f.name]
        value = getattr(cfg, f.name)
        if isinstance(value, float):
            value = _FLOAT_FMT % value
        lines.append(f"{key} = {value}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- problem assembly ---------------------------------------------------------


def _tanh_profile(x, center, width=0.15):
    return 0.2 + 0.6 * 0.5 * (1.0 + np.tanh((x - center) / width))


def build_targets(cfg, grid, time):
    """Analytic target presets for the tracking terms.

    tanh-moving: an interface profile in x whose center moves linearly in
    time; the terminal targets are the final frame.
    """
    levels = time.levels
    x = grid.bulk_nodes[:, 0]
    if cfg.target_preset == "constant":
        z_q = np.full((time.m + 1, grid.num_nodes), cfg.target_value)
    else:
        centers = 0.3 + 0.1 * levels / time.T
        z_q = np.stack([_tanh_profile(x, c) for c in centers])
    z_sigma = z_q[:, grid.boundary_cycle]
    z_t = z_q[-1]
    return z_q, z_sigma, z_t


def build_initial(cfg, grid):
    if cfg.init_preset == "constant":
        values = np.full(grid.num_nodes, cfg.init_value)
    elif cfg.init_preset == "tanh-interface":
        values = _tanh_profile(grid.bulk_nodes[:, 0], 0.3)
    else:  # random-seeded
        rng = np.random.default_rng(cfg.seed)
        values = rng.uniform(0.3, 0.7, size=grid.num_nodes)
    return FieldPair(values, grid)


def build_control(cfg, grid, time, pf, pg):
    u = ControlPair.zeros(grid, time)
    if cfg.control_preset == "constant":
        u.bulk[:] = cfg.control_value
        u.surface[:] = cfg.control_value
    elif cfg.control_preset == "stationary":
        if cfg.init_preset != "constant":
            raise ConfigError("control.preset = stationary requires init.preset = constant")
        u.bulk[:] = pf.d1(cfg.init_value)
        u.surface[:] = pg.d1(cfg.init_value)
    return u


def build_problem(cfg):
    """Assemble grid, operators, potentials, and the control problem."""
    grid = build_grid(cfg.grid_n)
    ops = build_operators(grid)
    time = TimeAxis(cfg.time_T, cfg.time_m)
    pf = Potential(cfg.pf_alpha, cfg.pf_c, cfg.pf_eps_guard)
    pg = Potential(cfg.pg_alpha, cfg.pg_c, cfg.pg_eps_guard)
    z_q, z_sigma, z_t = build_targets(cfg, grid, time)
    problem = ControlProblem(
        grid=grid,
        ops=ops,
        time=time,
        pf=pf,
        pg=pg,
        beta1=cfg.beta1,
        beta2=cfg.beta2,
        beta3=cfg.beta3,
        beta5=cfg.beta5,
        beta6=cfg.beta6,
        z_q=z_q,
        z_sigma=z_sigma,
        z_t=z_t,
        init=build_initial(cfg, grid),
        u_lo=cfg.box_u1,
        u_hi=cfg.box_u2,
        u_lo_surf=cfg.box_u1_gamma,
        u_hi_surf=cfg.box_u2_gamma,
        newton_tol=cfg.newton_tol,
        max_newton=cfg.newton_max_iters,
    )
    return problem


# -- writers ------------------------------------------------------------------


def _fmt(value):
    return _FLOAT_FMT % value


def _write_node_table(path, nodes, data):
    """One row per node (with coordinates), one column per time level of data."""
    levels = range(data.shape[0])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["x", "y"] + [f"t{k}" for k in levels]) + "\n")
        for j in range(nodes.shape[0]):
            row = [_fmt(nodes[j, 0]), _fmt(nodes[j, 1])] + [_fmt(data[k, j]) for k in levels]
            fh.write(",".join(row) + "\n")


def write_trajectory_csv(path, traj, surface=False):
    """One row per node (with coordinates), one column per time level."""
    grid = traj.grid
    if surface:
        _write_node_table(path, grid.bulk_nodes[grid.boundary_cycle], traj.surface)
    else:
        _write_node_table(path, grid.bulk_nodes, traj.values)


def write_control_csv(prefix, control, grid, time):
    """Bulk and surface control tables at <prefix>_bulk.csv and <prefix>_surface.csv."""
    _write_node_table(f"{prefix}_bulk.csv", grid.bulk_nodes, control.bulk[: time.m + 1])
    _write_node_table(
        f"{prefix}_surface.csv", grid.bulk_nodes[grid.boundary_cycle], control.surface[: time.m + 1]
    )


def write_energy_csv(path, traj, ops, pf, pg):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("level,time,energy\n")
        for k, t in enumerate(traj.time.levels):
            e = energy(traj.grid, ops, pf, pg, traj.snapshot(k))
            fh.write(f"{k},{_fmt(t)},{_fmt(e)}\n")


def write_vtk_snapshots(outdir, traj, name="state"):
    """Legacy VTK structured-points file per snapshot (display only)."""
    grid = traj.grid
    side = grid.n + 1
    for k in range(traj.time.m + 1):
        lines = [
            "# vtk DataFile Version 3.0",
            f"{name} level {k}",
            "ASCII",
            "DATASET STRUCTURED_POINTS",
            f"DIMENSIONS {side} {side} 1",
            "ORIGIN 0 0 0",
            f"SPACING {grid.h} {grid.h} 1",
            f"POINT_DATA {grid.num_nodes}",
            f"SCALARS {name} double 1",
            "LOOKUP_TABLE default",
        ]
        lines += [_fmt(v) for v in traj.values[k]]
        Path(outdir, f"{name}_{k:04d}.vtk").write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_report(outdir, report):
    payload = {
        "cost": report.cost,
        "grad_norm": report.grad_norm,
        "stationarity": report.stationarity,
        "tau": report.tau,
        "active_set_fraction": report.active_set_fraction,
        "projection_residual": report.projection_residual,
        "projection_supported": report.projection_supported,
        "min_curvature_ratio": report.min_curvature_ratio,
    }
    with open(Path(outdir, "optimality_report.jsonl"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload) + "\n")
        for idx, value, norm_sq, ratio in report.curvature_samples:
            fh.write(
                json.dumps(
                    {"direction": idx, "curvature": value, "norm_sq": norm_sq, "ratio": ratio}
                )
                + "\n"
            )
    with open(Path(outdir, "curvature_samples.csv"), "w", encoding="utf-8") as fh:
        fh.write("direction,curvature,norm_sq,ratio\n")
        for idx, value, norm_sq, ratio in report.curvature_samples:
            fh.write(f"{idx},{_fmt(value)},{_fmt(norm_sq)},{_fmt(ratio)}\n")


def write_verify_table(path, rows):
    """Pass/fail table: (name, observed, threshold, sense, passed)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("test,observed,threshold,sense,passed\n")
        for name, observed, threshold, sense, passed in rows:
            fh.write(f"{name},{_fmt(observed)},{_fmt(threshold)},{sense},{passed}\n")


# -- verification drivers -----------------------------------------------------
#
# The perturbed solves below start cold (no guess), although the base
# operator would predict them. Newton stops at the first iterate below
# newton.tol. From a cold start the last step is quadratic and lands far
# below it; from a tangent start that is already close, Newton stops just
# under the tolerance. The leftover residual then varies with eps and the
# difference quotients amplify it: tangent starts raised the
# verify-curvature errors from 1e-9 to 3e-8 and left a gradient direction
# with too few points above the roundoff plateau to fit an order.


def _random_direction(problem, rng, scale=1.0):
    return ControlPair(
        scale * rng.uniform(-1.0, 1.0, size=(problem.time.m + 1, problem.grid.num_nodes)),
        scale * rng.uniform(-1.0, 1.0, size=(problem.time.m + 1, problem.grid.num_boundary)),
    )


def verify_gradient(problem, seed=0, n_dir=3):
    """Central-difference check of the adjoint gradient. Returns table rows.

    Evaluates at a seeded nonzero base control: around a symmetric flat
    state the odd cost derivatives vanish and the observed order would be
    degenerate.
    """
    rng = np.random.default_rng(seed)
    u = _random_direction(problem, rng, scale=0.3)
    state = problem.solve(u)
    operator = linearized_operator(state, problem.pf, problem.pg, problem.ops)
    adjoint = solve_adjoint(state, problem, operator)
    grad = reduced_gradient(problem, state, adjoint, u)
    rows = []
    eps_list = np.array([1e-2, 3e-3, 1e-3, 3e-4, 1e-4])
    for d in range(n_dir):
        h = _random_direction(problem, rng)
        exact = hinner(problem, grad, h)
        errors = []
        for eps in eps_list:
            up = ControlPair(u.bulk + eps * h.bulk, u.surface + eps * h.surface)
            dn = ControlPair(u.bulk - eps * h.bulk, u.surface - eps * h.surface)
            j_up = evaluate_cost(problem, problem.solve(up), up)
            j_dn = evaluate_cost(problem, problem.solve(dn), dn)
            fd = (j_up - j_dn) / (2.0 * eps)
            errors.append(abs(fd - exact) / max(abs(exact), 1e-30))
        errors = np.array(errors)
        slope = _fit_order(eps_list, errors)
        rows.append((f"gradient_fd_order_dir{d}", slope, 1.9, ">=", slope >= 1.9))
        plateau = float(np.min(errors))
        rows.append((f"gradient_fd_plateau_dir{d}", plateau, 1e-8, "<=", plateau <= 1e-8))
    return rows


def _fit_order(eps_list, errors):
    """Log-log slope of the decaying branch (points on the roundoff plateau
    carry no order information and are excluded)."""
    branch = errors > 50.0 * max(errors.min(), 1e-300)
    if branch.sum() < 2:
        return 2.0  # everything at roundoff: order cannot be resolved
    coeffs = np.polyfit(np.log(eps_list[branch]), np.log(errors[branch]), 1)
    return float(coeffs[0])


def verify_taylor(problem, seed=0):
    """First-order Taylor remainder decay of the control-to-state map."""
    rng = np.random.default_rng(seed)
    u = _random_direction(problem, rng, scale=0.3)
    state = problem.solve(u)
    operator = linearized_operator(state, problem.pf, problem.pg, problem.ops)
    h = _random_direction(problem, rng)
    xi = solve_linearized(operator, h)
    eps_list = np.array([1e-1, 3e-2, 1e-2, 3e-3, 1e-3])
    rem = []
    for eps in eps_list:
        up = ControlPair(u.bulk + eps * h.bulk, u.surface + eps * h.surface)
        pert = problem.solve(up)
        diff = pert.values - state.values - eps * xi.values
        probe = state.__class__(diff, problem.grid, problem.time)
        rem.append(trajectory_space_time_norm(probe))
    slope = _fit_order(eps_list, np.array(rem))
    return [("taylor_remainder_order", slope, 1.9, ">=", slope >= 1.9)]


def verify_curvature(problem, seed=0, n_dir=3):
    """Second-difference check of the curvature form."""
    rng = np.random.default_rng(seed)
    u = _random_direction(problem, rng, scale=0.3)
    state = problem.solve(u)
    operator = linearized_operator(state, problem.pf, problem.pg, problem.ops)
    adjoint = solve_adjoint(state, problem, operator)
    j0 = evaluate_cost(problem, state, u)
    rows = []
    for d in range(n_dir):
        h = _random_direction(problem, rng)
        exact = curvature(problem, state, adjoint, operator, h)
        best = np.inf
        for eps in (1e-2, 3e-3, 1e-3):
            up = ControlPair(u.bulk + eps * h.bulk, u.surface + eps * h.surface)
            dn = ControlPair(u.bulk - eps * h.bulk, u.surface - eps * h.surface)
            j_up = evaluate_cost(problem, problem.solve(up), up)
            j_dn = evaluate_cost(problem, problem.solve(dn), dn)
            fd = (j_up - 2.0 * j0 + j_dn) / (eps * eps)
            best = min(best, abs(fd - exact) / max(abs(exact), 1e-30))
        rows.append((f"curvature_fd_dir{d}", best, 1e-4, "<=", best <= 1e-4))
    return rows


# -- drivers ------------------------------------------------------------------


def run(cfg):
    """Execute one experiment; returns the process exit status."""
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_resolved_config(cfg, outdir / "resolved_config.txt")
    formats = [f.strip() for f in cfg.output_formats.split(",") if f.strip()]

    try:
        problem = build_problem(cfg)
    except Exception as exc:
        _log_error(outdir, exc)
        return 2

    try:
        if cfg.mode == "solve":
            control = build_control(cfg, problem.grid, problem.time, problem.pf, problem.pg)
            traj = problem.solve(control)
            if "csv" in formats:
                write_trajectory_csv(outdir / "state_bulk.csv", traj)
                write_trajectory_csv(outdir / "state_surface.csv", traj, surface=True)
                write_energy_csv(outdir / "energy.csv", traj, problem.ops, problem.pf, problem.pg)
            if "vtk" in formats:
                write_vtk_snapshots(outdir, traj)
            return 0

        if cfg.mode == "optimize":
            start = clip_to_box(
                problem, build_control(cfg, problem.grid, problem.time, problem.pf, problem.pg)
            )
            opt_cfg = _optimizer_config(cfg)
            history_path = outdir / "history.csv"
            with open(history_path, "w", encoding="utf-8") as fh:
                fh.write("iter,cost,stationarity,step\n")

                def stream(record, current):
                    fh.write(
                        f"{record.iter},{_fmt(record.cost)},{_fmt(record.stationarity)},{_fmt(record.step)}\n"
                    )
                    fh.flush()
                    if (
                        cfg.opt_checkpoint_every > 0
                        and record.iter > 0
                        and record.iter % cfg.opt_checkpoint_every == 0
                    ):
                        write_control_csv(
                            str(outdir / "control_checkpoint"), current, problem.grid, problem.time
                        )

                result = minimize(problem, opt_cfg, start, callback=stream)
            write_control_csv(str(outdir / "control_final"), result.control, problem.grid, problem.time)
            write_report(outdir, result.report)
            if "csv" in formats:
                write_trajectory_csv(outdir / "state_bulk.csv", result.state)
                write_trajectory_csv(outdir / "state_surface.csv", result.state, surface=True)
            if "vtk" in formats:
                write_vtk_snapshots(outdir, result.state)
            return 0

        if cfg.mode == "report":
            control = build_control(cfg, problem.grid, problem.time, problem.pf, problem.pg)
            report = optimality_report(problem, clip_to_box(problem, control), seed=cfg.seed)
            write_report(outdir, report)
            return 0

        # verify-* modes
        if cfg.mode == "verify-gradient":
            rows = verify_gradient(problem, seed=cfg.seed)
        elif cfg.mode == "verify-taylor":
            rows = verify_taylor(problem, seed=cfg.seed)
        else:
            rows = verify_curvature(problem, seed=cfg.seed)
        write_verify_table(outdir / f"{cfg.mode}.csv", rows)
        for name, observed, threshold, sense, passed in rows:
            print(f"{name}: observed={observed:.3e} threshold {sense} {threshold:.3e} -> "
                  f"{'pass' if passed else 'FAIL'}")
        return 0 if all(r[4] for r in rows) else 4

    except (SolverFailureError, OptimizerStalledError) as exc:
        _log_error(outdir, exc)
        return 3


def _log_error(outdir, exc):
    payload = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, SolverFailureError):
        payload["step"] = exc.step
        payload["residual"] = exc.residual
    try:
        Path(outdir, "error.jsonl").write_text(json.dumps(payload) + "\n", encoding="utf-8")
    except OSError:
        pass
    print(f"error: {payload}", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="acopt",
        description="Tracking-type optimal control of a coupled bulk/surface phase-field system",
    )
    parser.add_argument("config", help="path to the run configuration file")
    parser.add_argument("--mode", choices=MODES, help="override the config mode")
    parser.add_argument("--output-dir", help="override output.dir")
    parser.add_argument("--seed", type=int, help="override the run seed")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.mode:
            cfg.mode = args.mode
        if args.output_dir:
            cfg.output_dir = args.output_dir
        if args.seed is not None:
            cfg.seed = args.seed
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
