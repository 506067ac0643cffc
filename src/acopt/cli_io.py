"""Configuration parsing, experiment drivers, and file output.

Config files are flat dotted-key text: one `key = value` pair per line,
UTF-8, `#` starts a comment. Unknown keys are rejected with the offending
key named. `load_config` only parses; `main` then applies its command-line
overrides, and `run` calls `build_run`, which checks only `mode`,
`output.formats`, `seed` and `optimizer.checkpoint_every`, then builds
the run's objects once; `run` then creates `output.dir`. Every other
rule and default is stated by the object or builder that owns it; a
rejected value raises ConfigError naming its key or section before
anything is written.
A resolved copy of the configuration (all defaults filled) is echoed into
the output directory, and loading that copy reproduces it exactly.

Modes: solve, optimize, verify-gradient, verify-taylor, verify-curvature,
report. CSV is the canonical output format (headers, '.' decimal
separator, 17 significant digits); VTK legacy structured-points output is
display only. Every warning a run raises is printed to stderr and written
to warnings.jsonl in the output directory (no warning, no file).

Exit codes: 0 success, 2 config error, 3 solver failure, 4 verification
failure.
"""

import argparse
import json
import sys
import warnings
from dataclasses import dataclass, field, fields as dc_fields
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    InvalidParameterError,
    OptimizerStalledError,
    SolverFailureError,
)
from .geometry import TimeAxis, build_grid, build_operators
from .objective import (
    ControlProblem,
    clip_to_box,
    curvature,
    curvature_weights,
    evaluate_cost,
    first_order,
    hinner,
    hnorm,
    optimality_report,
)
from .optimizer import OptimizerConfig, minimize
from .pde_linear import solve_linearized
from .pde_state import ControlPair, FieldPair, Trajectory, energy, trajectory_space_time_norm
from .potentials import Potential

MODES = ("solve", "optimize", "verify-gradient", "verify-taylor", "verify-curvature", "report")
FORMATS = ("csv", "vtk")
TARGET_PRESETS = ("tanh-moving", "constant")
INIT_PRESETS = ("constant", "tanh-interface", "random-seeded")
CONTROL_PRESETS = ("zero", "constant", "stationary")

_FLOAT_FMT = "%.17g"
VERIFY_DIRECTIONS = 3  # random directions checked by verify-gradient and verify-curvature


def _key(key, default):
    """A RunConfig field read from and echoed to the config key `key`."""
    return field(default=default, metadata={"key": key})


@dataclass
class RunConfig:
    """Fully resolved run configuration: each field names its config key and default."""

    mode: str = _key("mode", "solve")
    seed: int = _key("seed", 0)
    output_dir: str = _key("output.dir", "out")
    output_formats: str = _key("output.formats", "csv")
    grid_n: int = _key("grid.n", 8)
    time_T: float = _key("time.T", 0.25)
    time_m: int = _key("time.m", 20)
    pf_alpha: float = _key("potential_f.alpha", Potential.alpha)
    pf_c: float = _key("potential_f.c", Potential.smooth_c)
    pf_eps_guard: float = _key("potential_f.eps_guard", Potential.eps_guard)
    pg_alpha: float = _key("potential_g.alpha", Potential.alpha)
    pg_c: float = _key("potential_g.c", Potential.smooth_c)
    pg_eps_guard: float = _key("potential_g.eps_guard", Potential.eps_guard)
    beta1: float = _key("cost.beta1", 1.0)
    beta2: float = _key("cost.beta2", 1.0)
    beta3: float = _key("cost.beta3", 1.0)
    beta5: float = _key("cost.beta5", 1e-2)
    beta6: float = _key("cost.beta6", 1e-2)
    target_preset: str = _key("target.preset", "tanh-moving")
    target_value: float = _key("target.value", 0.5)
    box_u1: float = _key("box.u1", -1.0)
    box_u2: float = _key("box.u2", 1.0)
    box_u1_gamma: float = _key("box.u1_gamma", -1.0)
    box_u2_gamma: float = _key("box.u2_gamma", 1.0)
    init_preset: str = _key("init.preset", "tanh-interface")
    init_value: float = _key("init.value", 0.5)
    control_preset: str = _key("control.preset", "zero")
    control_value: float = _key("control.value", 0.0)
    newton_tol: float = _key("newton.tol", ControlProblem.newton_tol)
    newton_max_iters: int = _key("newton.max_iters", ControlProblem.max_newton)
    opt_max_iters: int = _key("optimizer.max_iters", OptimizerConfig.max_iters)
    opt_armijo_c: float = _key("optimizer.armijo_c", OptimizerConfig.armijo_c)
    opt_backtrack_factor: float = _key("optimizer.backtrack_factor", OptimizerConfig.backtrack_factor)
    opt_initial_step: float = _key("optimizer.initial_step", OptimizerConfig.initial_step)
    opt_stop_tol: float = _key("optimizer.stop_tol", OptimizerConfig.stop_tol)
    opt_max_backtracks: int = _key("optimizer.max_backtracks", OptimizerConfig.max_backtracks)
    opt_checkpoint_every: int = _key("optimizer.checkpoint_every", 50)


# config key -> RunConfig field
_KEYS = {f.metadata["key"]: f for f in dc_fields(RunConfig)}


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


def _owned(prefix, make, *args, **kwargs):
    """make(*args, **kwargs); a parameter it rejects raises ConfigError naming its key.

    Owners' messages start with the parameter's name, so prefix "section."
    turns that name into its key. ControlProblem's names are not keys: its
    prefix maps the start of each name to the config section put first.
    """
    try:
        return make(*args, **kwargs)
    except (InvalidParameterError, DomainError) as exc:
        message = str(exc)
        if not isinstance(prefix, str):
            prefix = next(p for name, p in prefix.items() if message.startswith(name))
        raise ConfigError(prefix + message) from exc


def load_config(path):
    """Parse a flat dotted-key configuration file; `build_run` checks the values it holds."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    cfg = RunConfig()
    seen = {}  # key -> the line that set it
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
        if key in seen:
            raise ConfigError(f"key '{key}' is set twice, on lines {seen[key]} and {lineno}")
        seen[key] = lineno
        f = _KEYS[key]
        setattr(cfg, f.name, _parse_value(key, value, f.type))
    return cfg


def write_resolved_config(cfg, path):
    """Echo the fully resolved configuration; loading it round-trips."""
    lines = ["# resolved configuration"]
    for f in dc_fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float):
            value = _FLOAT_FMT % value
        lines.append(f"{f.metadata['key']} = {value}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- problem assembly ---------------------------------------------------------


def _tanh_profile(x, center, width=0.15):
    return 0.2 + 0.6 * 0.5 * (1.0 + np.tanh((x - center) / width))


def _tanh_at_nodes(grid, center):
    """`_tanh_profile` at every node: evaluated once per grid column, then tiled over the rows.

    The columns' x values are the nodes' (nodes run x fastest), so the
    result equals _tanh_profile(grid.bulk_nodes[:, 0], center) bit for bit;
    centers of shape (levels, 1) give one row per level.
    """
    side = grid.n + 1
    return np.tile(_tanh_profile(grid.bulk_nodes[:side, 0], center), side)


def build_targets(cfg, grid, time):
    """Analytic target presets for the tracking terms: (z_q, z_sigma, z_t).

    tanh-moving: an interface profile in x whose center moves linearly in
    time; the terminal targets are the final frame. constant: the scalar
    target.value for all three, which `ControlProblem` broadcasts.
    """
    if cfg.target_preset not in TARGET_PRESETS:
        raise ConfigError(f"target.preset must be one of {TARGET_PRESETS}")
    if cfg.target_preset == "constant":
        return (cfg.target_value,) * 3
    centers = 0.3 + 0.1 * time.levels / time.T
    z_q = _tanh_at_nodes(grid, centers[:, None])
    return z_q, z_q[:, grid.boundary_cycle], z_q[-1]


def build_initial(cfg, grid):
    if cfg.init_preset not in INIT_PRESETS:
        raise ConfigError(f"init.preset must be one of {INIT_PRESETS}")
    if cfg.init_preset == "constant":
        values = np.full(grid.num_nodes, cfg.init_value)
    elif cfg.init_preset == "tanh-interface":
        values = _tanh_at_nodes(grid, 0.3)
    else:  # random-seeded
        rng = np.random.default_rng(cfg.seed)
        values = rng.uniform(0.3, 0.7, size=grid.num_nodes)
    return FieldPair(values)


def build_control(cfg, problem):
    """The configured control preset on the problem's grid and time axis."""
    if cfg.control_preset not in CONTROL_PRESETS:
        raise ConfigError(f"control.preset must be one of {CONTROL_PRESETS}")
    if not np.isfinite(cfg.control_value):
        raise ConfigError(f"control.value must be finite, got {cfg.control_value!r}")
    u = ControlPair.zeros(problem.grid, problem.time)
    if cfg.control_preset == "constant":
        u.data[:] = cfg.control_value
    elif cfg.control_preset == "stationary":
        if cfg.init_preset != "constant":
            raise ConfigError("control.preset = stationary requires init.preset = constant")
        u.bulk[:] = problem.pf.d1(cfg.init_value)
        u.surface[:] = problem.pg.d1(cfg.init_value)
    return u


def build_problem(cfg):
    """Assemble grid, operators, potentials and the control problem; rejections raise ConfigError."""
    grid = _owned("grid.", build_grid, cfg.grid_n)
    ops = build_operators(grid)
    time = _owned("time.", TimeAxis, cfg.time_T, cfg.time_m)
    pf = _owned("potential_f.", Potential, cfg.pf_alpha, cfg.pf_c, cfg.pf_eps_guard)
    pg = _owned("potential_g.", Potential, cfg.pg_alpha, cfg.pg_c, cfg.pg_eps_guard)
    z_q, z_sigma, z_t = build_targets(cfg, grid, time)
    return _owned(
        {"beta": "cost: ", "z_": "target: ", "u_": "box: ", "init": "",
         "newton_tol": "newton.tol: ", "max_newton": "newton.max_iters: ",
         "pf": "time.T / time.m, potential_f.c, potential_f.alpha: ",
         "pg": "time.T / time.m, potential_g.c, potential_g.alpha: "},
        ControlProblem,
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


def build_run(cfg):
    """Check the CLI's own keys `mode`, `output.formats`, `seed` and
    `optimizer.checkpoint_every` (0: never), then build the run's objects once.

    Returns (problem, OptimizerConfig, start control, output formats).
    """
    if cfg.mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got '{cfg.mode}'")
    formats = [f.strip() for f in cfg.output_formats.split(",") if f.strip()]
    if not formats or any(f not in FORMATS for f in formats):
        raise ConfigError(f"output.formats must be a subset of {FORMATS}, got '{cfg.output_formats}'")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {cfg.seed}")
    if cfg.opt_checkpoint_every < 0:
        raise ConfigError(
            f"optimizer.checkpoint_every must be nonnegative, got {cfg.opt_checkpoint_every}"
        )
    opt_cfg = _owned(
        "optimizer.",
        OptimizerConfig,
        max_iters=cfg.opt_max_iters,
        armijo_c=cfg.opt_armijo_c,
        backtrack_factor=cfg.opt_backtrack_factor,
        initial_step=cfg.opt_initial_step,
        stop_tol=cfg.opt_stop_tol,
        max_backtracks=cfg.opt_max_backtracks,
    )
    problem = build_problem(cfg)
    return problem, opt_cfg, build_control(cfg, problem), formats


# -- writers ------------------------------------------------------------------


def _fmt(value):
    return _FLOAT_FMT % value


# Every float of the CSV and VTK tables is C's "%.17g", byte for byte Python's
# "%.17g" % v, which costs about 1 µs per value; _format_block forms the same bytes
# for a whole block in numpy. %g prints a value in fixed notation when its 17-digit
# rounding lies in [1e-4, 1e17), with trailing fraction zeros (and a bare '.') cut.
# For ±0 and 1e-4 <= |x| < 2**52 the digits are D = round-half-even(|x| * 10**(16-X)),
# D in [1e16, 1e17) and X the decimal exponent, computed exactly in float64: 10**k is
# exact for k <= 22, and Dekker's product (Numer. Math. 18, 1971), one numpy ufunc per
# operation, splits |x| * 10**k into p + err without rounding. There p >= 1e16 > 2**53
# is an even integer, so D = p + rint(err), ties included. D never rounds up to 1e17:
# that needs |x| within 5e-18 (relative) below a power of ten, and the doubles nearest
# below 1e-4 .. 1e16 lie at least 8e-17 under them. Every other value (exponent
# notation, nan, ±inf, |x| >= 2**52) takes "%.17g" % v itself.
#
# Each value is assembled in a 28-byte slot (seven uint32 words), of which the bytes
# start..end-1 are kept. With z = "0000" + the 17 digits of D, the slot copy a holds
# z[i] at byte i + 3 and the copy b at byte i + 4; the value reads '-' if negative,
# z[first:dot] from a, '.', z[dot:last + 1] from b, then ',' or '\n', where
# dot = 5 + X, first = min(dot - 1, 4) skips the padding zeros and last indexes z's
# last nonzero digit. The tables below hold those byte masks and marks by (dot, end).
_BLOCK_VALUES = 4096  # values per block: its temporaries stay in cache, about 1 MB
_SLOT = 28
_DOTS = 21  # dot = 5 + X for X = -4 .. 15
_POW10 = np.array([float(10**k) for k in range(23)])
_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp's split into two 26-bit halves


def _split(a):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _chunk_tables():
    """The 4-digit chunks "0000" .. "9999", each as one uint32 of 4 ASCII bytes, and their
    trailing zeros (4 for "0000")."""
    i = np.arange(10_000, dtype=np.int16)
    digits = np.empty((10_000, 4), dtype=np.uint8)
    zeros = np.zeros(10_000, dtype=np.int8)
    for j, scale in enumerate((1000, 100, 10, 1)):
        digits[:, j] = 48 + i // scale % 10
        zeros += i % (10 * scale) == 0
    return digits.view(np.uint32).ravel(), zeros


def _slot_tables():
    """Integer and fraction byte masks and '.'/'-'/separator marks by (dot, end), and the kept
    bytes by (start, end), each as a flat array of slot-sized items for np.take."""
    pos = np.arange(_SLOT)
    dot = np.arange(_DOTS)[:, None, None]
    end = np.arange(_SLOT)[:, None]
    first = np.minimum(dot - 1, 4) + 3  # slot byte of the first digit
    before_sep = pos < end - 1
    integer = (pos >= first) & (pos <= dot + 2) & before_sep
    fraction = (pos >= dot + 4) & (pos <= 24) & before_sep
    negative = np.arange(2)[:, None, None, None, None]
    sep = np.frombuffer(b",\n", dtype=np.uint8)[:, None, None, None]
    none = np.uint8(0)
    marks = (  # uint8 by (negative, separator, dot, end), so no temporary exceeds 70 kB
        np.where((pos == dot + 3) & before_sep, np.uint8(ord(".")), none)
        + np.where((pos == first - 1) & (negative == 1), np.uint8(ord("-")), none)
        + np.where(pos == end - 1, sep, none)
    )
    keep = (pos >= np.arange(_SLOT)[:, None, None]) & (pos < end)
    return [
        np.ascontiguousarray(t, dtype=np.uint8).reshape(-1, _SLOT).view(f"V{_SLOT}").ravel()
        for t in (integer * np.uint8(255), fraction * np.uint8(255), marks, keep)
    ]


_POW10_HI, _POW10_LO = _split(_POW10)
_CHUNK, _CHUNK_ZEROS = _chunk_tables()
_INTEGER, _FRACTION, _MARKS, _KEEP = _slot_tables()


def _slot_words(table, index):
    return np.take(table, index).view(np.uint32).reshape(len(index), _SLOT // 4)


def _scaled(a, exponent):
    """a * 10**(16 - exponent) as the exact sum p + err."""
    k = 16 - exponent
    a_hi, a_lo = _split(a)
    b, b_hi, b_lo = _POW10[k], _POW10_HI[k], _POW10_LO[k]
    p = a * b
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _format_block(block):
    """The `%.17g` bytes of a 2-D float block, ',' between columns and '\n' after each row."""
    v = block.ravel()
    n = v.size
    a = np.abs(v)
    fast = ((a >= 1e-4) & (a < 2.0**52)) | (a == 0)
    nonzero = fast & (a != 0)
    a = np.where(nonzero, a, 1.0)
    exponent = np.floor(np.log10(a)).astype(np.intp)  # X, estimated; corrected exactly below
    p, err = _scaled(a, exponent)
    while True:
        below = (p < 1e16) | ((p == 1e16) & (err < 0))
        above = (p > 1e17) | ((p == 1e17) & (err >= 0))
        off = np.flatnonzero(below | above)
        if not off.size:
            break
        exponent[off] += above[off].astype(np.intp) - below[off]
        p[off], err[off] = _scaled(a[off], exponent[off])
    d = p.astype(np.int64) + np.rint(err).astype(np.int64)
    d[~nonzero] = 0
    exponent[~nonzero] = 0
    upper = d // 10**8
    lower = d - upper * 10**8
    lead, mid, low = upper // 10**8, upper // 10**4, lower // 10**4
    chunks = [lead, mid - lead * 10**4, upper - mid * 10**4, low, lower - low * 10**4]
    slot_a = np.empty((n, _SLOT // 4), dtype=np.uint32)
    slot_a[:, 0] = _CHUNK[0]
    for i, chunk in enumerate(chunks):
        slot_a[:, i + 1] = np.take(_CHUNK, chunk)
    slot_b = np.empty_like(slot_a)
    slot_b.view(np.uint8).ravel()[1:] = slot_a.view(np.uint8).ravel()[:-1]
    # trailing zeros of D's last 16 digits, so the index into z of its last nonzero digit
    # (4, the leading digit, where all 16 are zero)
    z1, z2, z3, z4 = (np.take(_CHUNK_ZEROS, chunk) for chunk in chunks[1:])
    last = 20 - (z4 + (z4 == 4) * (z3 + (z3 == 4) * (z2 + (z2 == 4) * z1)))
    dot = 5 + exponent
    negative = np.signbit(v)
    start = np.minimum(dot - 1, 4) + 3 - negative
    # one past the separator, which follows the last nonzero fraction digit or else replaces '.'
    end = np.where(last >= dot, last + 6, dot + 4)
    newline = np.zeros(block.shape, dtype=np.intp)
    newline[:, -1] = 1
    newline = newline.ravel()
    by_dot = dot * _SLOT + end
    words = slot_a & _slot_words(_INTEGER, by_dot)
    words |= slot_b & _slot_words(_FRACTION, by_dot)
    words |= _slot_words(_MARKS, ((2 * negative + newline) * _DOTS) * _SLOT + by_dot)
    out = words.view(np.uint8)
    for i in np.flatnonzero(~fast):
        text = (_FLOAT_FMT % v[i] + ",\n"[newline[i]]).encode()
        out[i, : len(text)] = np.frombuffer(text, dtype=np.uint8)
        start[i], end[i] = 0, len(text)
    return out[np.take(_KEEP, start * _SLOT + end).view(bool).reshape(n, _SLOT)].tobytes()


def _write_table(path, header, table):
    """The header line(s), then one line per row of the 2-D float table, `%.17g` values
    separated by ','; the bytes np.savetxt(fmt="%.17g", delimiter=",") writes."""
    rows = max(1, _BLOCK_VALUES // table.shape[1])
    with open(path, "wb") as fh:
        fh.write(f"{header}\n".encode())
        for r in range(0, table.shape[0], rows):
            fh.write(_format_block(table[r : r + rows]))


def _write_node_table(path, nodes, data):
    """One row per node (with coordinates), one column per time level of data."""
    header = ",".join(["x", "y"] + [f"t{k}" for k in range(data.shape[0])])
    _write_table(path, header, np.column_stack([nodes, data.T]))


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
    potential = Potential.on(traj.grid, pf, pg)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("level,time,energy\n")
        for k, t in enumerate(traj.time.levels):
            e = energy(traj.grid, ops, potential, traj.values[k])
            fh.write(f"{k},{_fmt(t)},{_fmt(e)}\n")


def write_vtk_snapshots(outdir, traj):
    """Legacy VTK structured-points file state_<level>.vtk per snapshot (display only)."""
    grid = traj.grid
    side = grid.n + 1
    for k in range(traj.time.m + 1):
        lines = [
            "# vtk DataFile Version 3.0",
            f"state level {k}",
            "ASCII",
            "DATASET STRUCTURED_POINTS",
            f"DIMENSIONS {side} {side} 1",
            "ORIGIN 0 0 0",
            f"SPACING {_fmt(grid.h)} {_fmt(grid.h)} 1",
            f"POINT_DATA {grid.num_nodes}",
            "SCALARS state double 1",
            "LOOKUP_TABLE default",
        ]
        _write_table(Path(outdir, f"state_{k:04d}.vtk"), "\n".join(lines), traj.values[k][:, None])


def write_state(outdir, traj, formats):
    """The state in each requested format: bulk and surface tables (csv), snapshots (vtk)."""
    if "csv" in formats:
        write_trajectory_csv(outdir / "state_bulk.csv", traj)
        write_trajectory_csv(outdir / "state_surface.csv", traj, surface=True)
    if "vtk" in formats:
        write_vtk_snapshots(outdir, traj)


def _json(payload):
    """One JSON object; a non-finite float, which JSON cannot spell, is written null."""
    return json.dumps(
        {k: None if isinstance(v, float) and not np.isfinite(v) else v for k, v in payload.items()}
    )


def write_report(outdir, report):
    payload = {f.name: getattr(report, f.name) for f in dc_fields(report)}
    del payload["curvature_samples"]
    payload["min_curvature_ratio"] = report.min_curvature_ratio
    with open(Path(outdir, "optimality_report.jsonl"), "w", encoding="utf-8") as fh:
        fh.write(_json(payload) + "\n")
        for idx, value, norm_sq, ratio in report.curvature_samples:
            sample = {"direction": idx, "curvature": value, "norm_sq": norm_sq, "ratio": ratio}
            fh.write(_json(sample) + "\n")
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


def _base_point(problem, seed):
    """The seeded rng, a nonzero base control drawn from it, and its `first_order` system."""
    rng = np.random.default_rng(seed)
    u = _random_direction(problem, rng, scale=0.3)
    return rng, u, first_order(problem, u, problem.solve(u))


def _shifted(u, eps, h):
    """The control u + eps h."""
    return ControlPair.wrap(u.data + eps * h.data, u)


def _shifted_cost(problem, u, eps, h):
    """Cost at the control u + eps h, its state solved from a cold start."""
    control = _shifted(u, eps, h)
    return evaluate_cost(problem, problem.solve(control), control)


def verify_gradient(problem, seed=0):
    """Central-difference check of the adjoint gradient. Returns table rows.

    Evaluates at a seeded nonzero base control: around a symmetric flat
    state the odd cost derivatives vanish and the observed order would be
    degenerate. Errors are in units of |grad| |h|, which bounds the exact
    value but, unlike it, does not vanish when h is nearly orthogonal to grad.
    """
    rng, u, (_, _, _, grad) = _base_point(problem, seed)
    rows = []
    eps_list = np.array([1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4])
    for d in range(VERIFY_DIRECTIONS):
        h = _random_direction(problem, rng)
        exact = hinner(problem, grad, h)
        fd = np.array([_shifted_cost(problem, u, eps, h) - _shifted_cost(problem, u, -eps, h)
                       for eps in eps_list]) / (2.0 * eps_list)
        errors = np.abs(fd - exact) / (hnorm(problem, grad) * hnorm(problem, h))
        slope = _fit_order(eps_list, errors)
        rows.append((f"gradient_fd_order_dir{d}", slope, 1.9, ">=", slope >= 1.9))
        plateau = float(np.min(errors))
        rows.append((f"gradient_fd_plateau_dir{d}", plateau, 1e-8, "<=", plateau <= 1e-8))
    return rows


def _fit_order(eps_list, errors):
    """Log-log slope of the errors over their decaying branch (eps_list decreasing).

    Roundoff in a difference quotient grows like 1/eps, so s = error * eps
    is flat on the plateau and, per eps step of 3 to 10/3, falls by that
    ratio where the error does not decay but by 27 to 37 on an order-2
    branch. The branch is the leading run whose s exceeds 20 times both the
    next s and the floor, the larger s of the two smallest eps (a lucky
    cancellation lowers one, rarely both). It keeps the two largest eps, so
    an error that does not decay fits order 0; a largest eps within 20
    times the floor leaves the order unresolved (2.0).
    """
    s = errors * eps_list
    floor = s[-2:].max()
    if s[0] <= 20.0 * floor:
        return 2.0
    clear = s[:-1] > 20.0 * np.maximum(s[1:], floor)
    k = max(2, int(np.cumprod(clear).sum()))
    return float(np.polyfit(np.log(eps_list[:k]), np.log(errors[:k]), 1)[0])


def verify_taylor(problem, seed=0):
    """First-order Taylor remainder decay of the control-to-state map."""
    rng, u, (state, operator, _, _) = _base_point(problem, seed)
    h = _random_direction(problem, rng)
    xi = solve_linearized(operator, h)
    eps_list = np.array([1e-1, 3e-2, 1e-2, 3e-3, 1e-3])
    rem = []
    for eps in eps_list:
        pert = problem.solve(_shifted(u, eps, h))
        diff = pert.values - state.values - eps * xi.values
        rem.append(trajectory_space_time_norm(Trajectory(diff, problem.grid, problem.time)))
    slope = _fit_order(eps_list, np.array(rem))
    return [("taylor_remainder_order", slope, 1.9, ">=", slope >= 1.9)]


def verify_curvature(problem, seed=0):
    """Second-difference check of the curvature form."""
    rng, u, (state, operator, adjoint, _) = _base_point(problem, seed)
    weights = curvature_weights(problem, state, adjoint)
    j0 = evaluate_cost(problem, state, u)
    rows = []
    for d in range(VERIFY_DIRECTIONS):
        h = _random_direction(problem, rng)
        exact = curvature(problem, operator, weights, h)
        best = np.inf
        for eps in (1e-2, 3e-3, 1e-3):
            j_up, j_dn = _shifted_cost(problem, u, eps, h), _shifted_cost(problem, u, -eps, h)
            fd = (j_up - 2.0 * j0 + j_dn) / (eps * eps)
            best = min(best, abs(fd - exact) / max(abs(exact), 1e-30))
        rows.append((f"curvature_fd_dir{d}", best, 1e-4, "<=", best <= 1e-4))
    return rows


# -- drivers ------------------------------------------------------------------


def run(cfg):
    """Execute one experiment from a parsed config; returns the exit status.

    Every warning the build and the mode raise is printed to stderr as
    usual and, once the output directory exists, written to its
    warnings.jsonl, one JSON line (category, message) each; a run that
    raises none writes no such file.
    """
    outdir = None
    try:
        with warnings.catch_warnings(record=True) as caught:
            problem, opt_cfg, control, formats = build_run(cfg)
            outdir = _output_dir(cfg)
            return _run_mode(cfg, problem, opt_cfg, control, formats, outdir)
    finally:
        _log_warnings(outdir, caught)


def _output_dir(cfg):
    """Create output.dir and echo the resolved configuration into it."""
    outdir = Path(cfg.output_dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output.dir: cannot create directory '{outdir}': {exc.strerror}") from exc
    write_resolved_config(cfg, outdir / "resolved_config.txt")
    return outdir


def _run_mode(cfg, problem, opt_cfg, control, formats, outdir):
    """The configured mode on the built problem, writing into outdir; returns the exit status."""
    try:
        if cfg.mode == "solve":
            traj = problem.solve(control)
            write_state(outdir, traj, formats)
            if "csv" in formats:
                write_energy_csv(outdir / "energy.csv", traj, problem.ops, problem.pf, problem.pg)
            return 0

        if cfg.mode == "optimize":
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

                result = minimize(problem, opt_cfg, control, callback=stream)
            # each record but the last was followed by an accepted step
            steps = len(result.history) - 1
            print(f"optimize: stopped by {result.reason} after {steps} accepted steps: "
                  f"stationarity={result.report.stationarity:.3e} threshold <= {opt_cfg.stop_tol:.3e}")
            write_control_csv(str(outdir / "control_final"), result.control, problem.grid, problem.time)
            write_report(outdir, result.report)
            write_state(outdir, result.state, formats)
            return 0

        if cfg.mode == "report":
            report = optimality_report(problem, clip_to_box(problem, control), seed=cfg.seed)
            write_report(outdir, report)
            return 0

        verify = {"verify-gradient": verify_gradient, "verify-taylor": verify_taylor,
                  "verify-curvature": verify_curvature}[cfg.mode]
        rows = verify(problem, seed=cfg.seed)
        write_verify_table(outdir / f"{cfg.mode}.csv", rows)
        for name, observed, threshold, sense, passed in rows:
            print(f"{name}: observed={observed:.3e} threshold {sense} {threshold:.3e} -> "
                  f"{'pass' if passed else 'FAIL'}")
        return 0 if all(r[4] for r in rows) else 4

    except (SolverFailureError, OptimizerStalledError) as exc:
        _log_error(outdir, exc)
        return 3


def _log_warnings(outdir, caught):
    """Show each recorded warning on stderr, and write them to outdir/warnings.jsonl (if any)."""
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno, line=w.line)
    if caught and outdir is not None:
        lines = (_json({"category": w.category.__name__, "message": str(w.message)}) for w in caught)
        Path(outdir, "warnings.jsonl").write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _log_error(outdir, exc):
    payload = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, SolverFailureError):
        payload["step"] = exc.step
        payload["residual"] = exc.residual
    line = _json(payload)
    try:
        Path(outdir, "error.jsonl").write_text(line + "\n", encoding="utf-8")
    except OSError:
        pass
    print(f"error: {line}", file=sys.stderr)


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
        return run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
