import json
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from acopt import ConfigError, ControlPair, InvalidParameterError, TimeAxis, build_grid
from acopt.cli_io import (
    MODES,
    RunConfig,
    _fit_order,
    _tanh_profile,
    build_initial,
    build_problem,
    build_run,
    build_targets,
    load_config,
    main,
    run,
    verify_gradient,
    write_resolved_config,
)

BASE = """
# minimal experiment
mode = solve
grid.n = 4
time.T = 0.2
time.m = 4
init.preset = constant
init.value = 0.5
"""


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def override(text, *lines):
    """Config text with each 'key = value' of lines in place of that key's line (a key is set once)."""
    keys = {line.partition("=")[0].strip() for line in lines}
    kept = [row for row in text.splitlines() if row.partition("=")[0].strip() not in keys]
    return "\n".join(kept + list(lines)) + "\n"


def test_minimal_config_defaults_and_roundtrip(tmp_path):
    cfg = load_config(write(tmp_path, BASE))
    assert cfg.grid_n == 4
    assert cfg.beta1 == 1.0 and cfg.beta5 == 1e-2  # defaults filled
    assert cfg.opt_max_iters == 500
    resolved = tmp_path / "resolved.txt"
    write_resolved_config(cfg, resolved)
    again = load_config(resolved)
    assert again == cfg


def test_beta4_key_rejected(tmp_path):
    path = write(tmp_path, BASE + "cost.beta4 = 1.0\n")
    with pytest.raises(ConfigError, match=r"\(A6\)"):
        load_config(path)


def test_bound_order_rejected(tmp_path):
    path = write(tmp_path, BASE + "box.u1 = 2.0\nbox.u2 = 1.0\n")
    with pytest.raises(ConfigError, match=r"\(A1\)"):
        build_run(load_config(path))


def test_unknown_key_named(tmp_path):
    path = write(tmp_path, BASE + "grid.nn = 8\n")
    with pytest.raises(ConfigError, match="grid.nn"):
        load_config(path)


def test_repeated_key_is_config_error(tmp_path, capsys):
    """A key set twice names itself and both lines: exit 2, the reason on stderr, no output directory."""
    out = tmp_path / "out"
    path = write(tmp_path, BASE + f"output.dir = {out}\ngrid.n = 8\n")  # BASE sets grid.n on line 4
    with pytest.raises(ConfigError, match=r"^key 'grid\.n' is set twice, on lines 4 and 10$"):
        load_config(path)
    assert main([str(path)]) == 2
    err = capsys.readouterr().err
    assert "key 'grid.n' is set twice, on lines 4 and 10" in err and "Traceback" not in err
    assert not out.exists()


def test_malformed_line(tmp_path):
    path = write(tmp_path, BASE + "just some words\n")
    with pytest.raises(ConfigError, match="key = value"):
        load_config(path)


def test_bad_value_type(tmp_path):
    path = write(tmp_path, BASE.replace("grid.n = 4", "grid.n = four"))
    with pytest.raises(ConfigError, match="grid.n"):
        load_config(path)


def test_solve_mode_writes_outputs(tmp_path):
    text = BASE + f"output.dir = {tmp_path/'out'}\noutput.formats = csv,vtk\n"
    cfg = load_config(write(tmp_path, text))
    assert run(cfg) == 0
    out = tmp_path / "out"
    assert (out / "state_bulk.csv").is_file()
    assert (out / "state_surface.csv").is_file()
    assert (out / "energy.csv").is_file()
    assert (out / "resolved_config.txt").is_file()
    assert (out / "state_0000.vtk").is_file()
    header = (out / "state_bulk.csv").read_text().splitlines()[0]
    assert header.startswith("x,y,t0")
    # the VTK value lines (after 10 header lines) are one `%.17g` per state value
    problem, _, control, _ = build_run(cfg)
    traj = problem.solve(control)
    for k in (0, traj.time.m):
        lines = (out / f"state_{k:04d}.vtk").read_text().splitlines()
        assert lines[10:] == ["%.17g" % v for v in traj.values[k]]


@pytest.mark.parametrize(
    "n, spacing",
    [(3, "0.33333333333333331"), (10, "0.10000000000000001"), (8, "0.125")],
    ids=["n3", "n10", "n8"],
)
def test_vtk_spacing_is_17_significant_digits(tmp_path, n, spacing):
    """The snapshot header's mesh width is `%.17g`, like every other float the CLI writes.

    Python's shortest repr would write 0.3333333333333333 and 0.1; at a
    power of two (the shipped n = 8, 32, 128) both spell the same.
    """
    text = BASE.replace("grid.n = 4", f"grid.n = {n}")
    text += f"output.dir = {tmp_path/'out'}\noutput.formats = vtk\n"
    assert run(load_config(write(tmp_path, text))) == 0
    lines = (tmp_path / "out" / "state_0000.vtk").read_text().splitlines()
    assert lines[6] == f"SPACING {spacing} {spacing} 1"


def test_stationary_preset_constant_trajectory(tmp_path):
    text = override(BASE, f"output.dir = {tmp_path/'out'}", "control.preset = stationary", "init.value = 0.37")
    cfg = load_config(write(tmp_path, text))
    assert run(cfg) == 0
    lines = (tmp_path / "out" / "state_bulk.csv").read_text().splitlines()[1:]
    for line in lines:
        vals = [float(v) for v in line.split(",")[2:]]
        assert max(abs(v - 0.37) for v in vals) < 1e-10
    energy_rows = (tmp_path / "out" / "energy.csv").read_text().splitlines()[1:]
    energies = [float(r.split(",")[2]) for r in energy_rows]
    assert max(energies) - min(energies) < 1e-11


def test_determinism_bit_identical(tmp_path):
    for tag in ("a", "b"):
        text = override(BASE, f"output.dir = {tmp_path/tag}", "init.preset = random-seeded", "seed = 7")
        cfg = load_config(write(tmp_path, text, name=f"{tag}.cfg"))
        assert run(cfg) == 0
    fa = (tmp_path / "a" / "state_bulk.csv").read_bytes()
    fb = (tmp_path / "b" / "state_bulk.csv").read_bytes()
    assert fa == fb


def test_optimize_zero_tracking_gives_projected_zero(tmp_path):
    text = (
        "mode = optimize\n"
        "grid.n = 4\n"
        "time.T = 0.2\n"
        "time.m = 4\n"
        "init.preset = constant\n"
        "init.value = 0.5\n"
        "cost.beta1 = 0\ncost.beta2 = 0\ncost.beta3 = 0\n"
        "cost.beta5 = 1.0\ncost.beta6 = 1.0\n"
        "optimizer.max_iters = 50\n"
        f"output.dir = {tmp_path/'opt'}\n"
    )
    cfg = load_config(write(tmp_path, text))
    assert run(cfg) == 0
    out = tmp_path / "opt"
    assert (out / "history.csv").is_file()
    assert (out / "optimality_report.jsonl").is_file()
    rows = (out / "control_final_bulk.csv").read_text().splitlines()[1:]
    for line in rows:
        assert max(abs(float(v)) for v in line.split(",")[2:]) <= 1e-9


def test_optimize_checkpoint_written(tmp_path):
    text = (
        "mode = optimize\n"
        "grid.n = 4\n"
        "time.T = 0.2\n"
        "time.m = 4\n"
        "init.preset = constant\n"
        "init.value = 0.5\n"
        "optimizer.max_iters = 8\n"
        "optimizer.stop_tol = 1e-14\n"
        "optimizer.checkpoint_every = 2\n"
        f"output.dir = {tmp_path/'ckpt'}\n"
    )
    cfg = load_config(write(tmp_path, text))
    run(cfg)
    assert (tmp_path / "ckpt" / "control_checkpoint_bulk.csv").is_file()
    history = (tmp_path / "ckpt" / "history.csv").read_text().splitlines()
    assert history[0] == "iter,cost,stationarity,step"
    assert len(history) > 1


def test_verify_taylor_and_curvature_modes(tmp_path):
    for mode in ("verify-taylor", "verify-curvature"):
        text = (
            f"mode = {mode}\n"
            "grid.n = 4\n"
            "time.T = 0.2\n"
            "time.m = 5\n"
            "init.preset = constant\n"
            "init.value = 0.5\n"
            f"output.dir = {tmp_path/mode}\n"
        )
        cfg = load_config(write(tmp_path, text, name=f"{mode}.cfg"))
        assert run(cfg) == 0
        assert (tmp_path / mode / f"{mode}.csv").is_file()


def test_failed_verification_exits_nonzero(tmp_path, monkeypatch):
    import acopt.cli_io as cli

    monkeypatch.setattr(
        cli, "verify_gradient", lambda problem, seed=0: [("stub", 0.0, 1.9, ">=", False)]
    )
    text = BASE.replace("mode = solve", "mode = verify-gradient") + (
        f"output.dir = {tmp_path/'fail4'}\n"
    )
    cfg = load_config(write(tmp_path, text))
    assert run(cfg) == 4


def test_verify_gradient_mode_passes(tmp_path):
    text = (
        "mode = verify-gradient\n"
        "grid.n = 4\n"
        "time.T = 0.2\n"
        "time.m = 5\n"
        "init.preset = constant\n"
        "init.value = 0.5\n"
        f"output.dir = {tmp_path/'ver'}\n"
    )
    cfg = load_config(write(tmp_path, text))
    assert run(cfg) == 0
    table = (tmp_path / "ver" / "verify-gradient.csv").read_text().splitlines()
    assert table[0] == "test,observed,threshold,sense,passed"
    assert all(line.endswith("True") for line in table[1:])


OLD_EPS = np.array([1e-2, 3e-3, 1e-3, 3e-4, 1e-4])
EPS = np.array([1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4])


@pytest.mark.parametrize(
    "eps, errors",
    [
        # tracking.cfg --seed 11, dir1: a lucky cancellation at 1e-4 under a 1e-9 plateau
        (OLD_EPS, [8.23e-8, 7.49e-9, 1.06e-9, 8.37e-10, 4.17e-14]),
        (EPS, [8.23e-6, 7.41e-7, 8.23e-8, 7.49e-9, 1.06e-9, 8.37e-10, 4.17e-14]),
        # grid.n = 4, time.m = 4, random-seeded init, --seed 3, dir2
        (OLD_EPS, [7.8e-9, 6.9e-10, 1.1e-10, 1.1e-12, 2.0e-11]),
        # tracking.cfg --seed 18, dir2: the plateau starts at eps = 1e-3
        (EPS, [4.83e-8, 4.35e-9, 4.82e-10, 4.27e-11, 3.19e-13, 1.10e-11, 2.64e-11]),
        # report-n32.cfg --seed 3, dir0 and dir2: roundoff grows toward the smallest eps
        (EPS, [7.47e-6, 6.76e-7, 7.53e-8, 5.36e-9, 3.59e-10, 9.21e-10, 3.58e-8]),
        (EPS, [3.46e-7, 3.09e-8, 3.52e-9, 3.28e-10, 1.97e-10, 1.95e-11, 3.11e-9]),
        # tracking.cfg at grid.n = 16, --seed 7, dir2: both smallest eps are lucky cancellations
        (EPS, [2.73e-6, 2.45e-7, 2.72e-8, 2.43e-9, 1.14e-9, 4.71e-11, 4.33e-11]),
    ],
    ids=["n8-seed11-old-eps", "n8-seed11", "n4-seed3-old-eps", "n8-seed18", "n32-seed3-dir0",
         "n32-seed3-dir2", "n16-seed7"],
)
def test_fit_order_reads_two_on_recorded_gradient_errors(eps, errors):
    assert _fit_order(eps, np.array(errors)) >= 1.95


@pytest.mark.parametrize("eps", [OLD_EPS, EPS])
@pytest.mark.parametrize("order", [0.0, 1.0, 1.5])
def test_fit_order_reads_a_slower_decay(eps, order):
    """Errors c eps^p with p < 2 (p = 0: a wrong gradient) fit p, below the 1.9 gate."""
    assert _fit_order(eps, 1e-3 * eps**order) == pytest.approx(order, abs=1e-9)


def test_verify_gradient_fails_a_wrong_gradient(monkeypatch):
    """A gradient without its beta5 term fails every order and plateau row."""
    import acopt.cli_io as cli
    import acopt.objective
    from acopt.objective import adjoint_as_control

    def without_beta5(problem, adjoint, control):
        rep = adjoint_as_control(problem, adjoint)
        return ControlPair(rep.bulk, problem.beta6 * control.surface + rep.surface)

    problem = build_problem(RunConfig(grid_n=4, time_T=0.2, time_m=5))
    assert all(passed for *_, passed in cli.verify_gradient(problem))
    monkeypatch.setattr(acopt.objective, "reduced_gradient", without_beta5)
    rows = cli.verify_gradient(problem)
    assert len(rows) == 2 * cli.VERIFY_DIRECTIONS
    assert not any(passed for *_, passed in rows)


def test_main_exit_codes(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    assert main([str(missing)]) == 2
    bad = write(tmp_path, BASE + "cost.beta4 = 1\n", name="bad.cfg")
    assert main([str(bad)]) == 2

    good = write(tmp_path, BASE + f"output.dir = {tmp_path/'m'}\n", name="good.cfg")
    assert main([str(good)]) == 0
    # flag overrides
    assert main([str(good), "--output-dir", str(tmp_path / "m2"), "--seed", "3"]) == 0
    assert (tmp_path / "m2" / "state_bulk.csv").is_file()


def failing_newton_config(mode, out):
    """A solvable step, dt (2c - 4 alpha) = 0.025, that one Newton iteration does not finish."""
    return (
        f"mode = {mode}\n"
        "grid.n = 4\n"
        "time.T = 0.25\n"
        "time.m = 20\n"
        "init.preset = constant\n"
        "init.value = 0.5\n"
        "control.preset = constant\n"
        "control.value = 0.9\n"
        "newton.max_iters = 1\n"
        f"output.dir = {out}\n"
    )


@pytest.mark.parametrize("mode", ["solve", "optimize", "report", "verify-gradient"])
def test_solver_failure_exit_code(tmp_path, mode):
    """Every mode solves the state with the configured Newton settings."""
    text = failing_newton_config(mode, tmp_path / "fail")
    cfg = load_config(write(tmp_path, text))
    assert run(cfg) == 3
    error = json.loads((tmp_path / "fail" / "error.jsonl").read_text(encoding="utf-8"))
    assert "after 1 iterations" in error["message"]  # the configured budget, not the default 50


ROOT = Path(__file__).parents[1]


@pytest.mark.parametrize(
    "path",
    sorted(ROOT.glob("configs/*.cfg")) + sorted(ROOT.glob("perfbench/configs/*.cfg")),
    ids=lambda path: str(path.relative_to(ROOT)),
)
def test_shipped_config_loads_without_warnings(path):
    """Building the run checks every rule, so a rule that a shipped config breaks fails here."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_run(load_config(path))


def test_verify_gradient_passes_where_the_rounding_floor_guard_matters():
    """tracking.cfg at grid.n = 16, --seed 3: every row passes.

    dir2's order reads 2.012 with the state solve's rounding-floor guard
    (2.001 with plain chord steps), and it read 1.899, below the 1.9 gate,
    with plain chord steps stopped at newton.tol alone.
    """
    problem = build_problem(replace(load_config(ROOT / "configs" / "tracking.cfg"), grid_n=16))
    rows = verify_gradient(problem, seed=3)
    assert all(passed for *_, passed in rows), rows


@pytest.mark.parametrize(
    "lines, named",
    [
        ("box.u1 = nan", "box: u_lo"),
        ("control.preset = constant; control.value = nan", "control.value"),
        ("init.preset = tanh-interface; control.preset = stationary", "control.preset"),
        ("target.preset = constant; target.value = nan", "target: z_q"),
        ("time.T = inf", "time.T"),
        ("time.m = 0", "time.m"),
        ("potential_f.alpha = nan", "potential_f.alpha"),
        ("potential_f.c = inf", "potential_f.c"),
        ("cost.beta1 = nan", "cost: beta1"),
        ("init.value = 2", "init"),
        ("target.preset = tanh-movng", "target.preset"),
        ("init.preset = random-seedd", "init.preset"),
        ("control.preset = zer0", "control.preset"),
        ("seed = -1", "seed"),
        ("optimizer.checkpoint_every = -3", "optimizer.checkpoint_every"),
        # the step rule dt (2 c - 4 alpha) < 1, checked for pf before pg
        pytest.param(
            "time.T = 50; time.m = 1",
            "time.T / time.m, potential_f.c, potential_f.alpha: pf step rule: dt (2 c - 4 alpha) = 100 >= 1",
            id="step-rule-potential_f",
        ),
        pytest.param(
            "potential_g.c = 20",
            "time.T / time.m, potential_g.c, potential_g.alpha: pg step rule: dt (2 c - 4 alpha) = 1.8 >= 1",
            id="step-rule-potential_g",
        ),
    ],
)
def test_rejected_value_exits_2_at_load(tmp_path, capsys, lines, named):
    """Every rejected value is a ConfigError naming its key or section: exit 2, no output."""
    out = tmp_path / "out"
    path = write(tmp_path, override(BASE, *lines.split("; "), f"output.dir = {out}"))
    with pytest.raises(ConfigError) as info:
        build_run(load_config(path))
    assert str(info.value).startswith(named)
    for mode in ("solve", "optimize"):
        assert main([str(path), "--mode", mode]) == 2
        err = capsys.readouterr().err
        assert f"config error: {named}" in err
        assert "Traceback" not in err
    assert not out.exists()


def test_optimize_from_a_non_finite_start_cost_exits_3(tmp_path, capsys):
    """A constant target of 1e300 overflows the start cost to inf: the run stops with a named
    OptimizerStalledError (exit 3, error.jsonl), not "stopped by roundoff" and exit 0."""
    out = tmp_path / "out"
    text = override(BASE, "mode = optimize", "target.preset = constant", "target.value = 1e300")
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert main([str(write(tmp_path, text)), "--output-dir", str(out)]) == 3
    captured = capsys.readouterr()
    assert "stopped by" not in captured.out and "Traceback" not in captured.err
    error = json.loads((out / "error.jsonl").read_text(encoding="utf-8"))
    assert error == {"error": "OptimizerStalledError", "message": "start cost is not finite: inf"}


def test_error_line_is_the_error_jsonl_line(tmp_path, capsys):
    """The stderr `error:` line is the JSON line that error.jsonl holds, free of numpy reprs."""
    path = write(tmp_path, failing_newton_config("solve", tmp_path / "fail"))
    assert main([str(path)]) == 3
    err = capsys.readouterr().err
    line = next(row for row in err.splitlines() if row.startswith("error: "))[len("error: "):]
    assert "np.float64" not in line
    assert isinstance(json.loads(line)["residual"], float)
    assert line + "\n" == (tmp_path / "fail" / "error.jsonl").read_text(encoding="utf-8")


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    """A latin-1 byte in a comment is a ConfigError naming the file: exit 2, no traceback."""
    path = tmp_path / "latin1.cfg"
    path.write_bytes(BASE.encode("utf-8") + "# café\n".encode("latin-1"))
    with pytest.raises(ConfigError, match=f"config file {path} is not UTF-8"):
        load_config(path)
    assert main([str(path), "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config file {path} is not UTF-8") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_byte_order_mark_is_not_read_into_the_first_key(tmp_path):
    """A config saved with a UTF-8 byte-order mark loads as the same text without one."""
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbf" + b"grid.n = 5\n" + BASE.replace("grid.n = 4\n", "").encode("utf-8"))
    cfg = load_config(path)
    assert cfg.grid_n == 5
    assert cfg == load_config(write(tmp_path, "grid.n = 5\n" + BASE.replace("grid.n = 4\n", "")))


@pytest.mark.parametrize("name", ["o#x", "o\nx", "o\rx", " o", "o "])
def test_output_dir_that_would_not_load_back_exits_2(tmp_path, capsys, name):
    """resolved_config.txt echoes output.dir on one line that must reload as itself: a '#',
    a line break or surrounding spaces do not, so the run exits 2 before it writes anything."""
    path = write(tmp_path, BASE)
    out = f" {tmp_path}/o" if name == " o" else f"{tmp_path}/{name}"
    assert main([str(path), "--output-dir", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: output.dir must hold no '#'") and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_output_dir_with_spaces_and_equals_signs_round_trips(tmp_path):
    """Inner spaces and '=' load back as themselves: the check rejects only what does not."""
    out = tmp_path / "a = b c"
    path = write(tmp_path, BASE + f"output.dir = {out}\n")
    assert main([str(path)]) == 0
    assert load_config(out / "resolved_config.txt") == load_config(path)


@pytest.mark.parametrize("target", ["file", "file/sub"])
def test_output_dir_that_cannot_be_created_exits_2(tmp_path, capsys, target):
    """An output.dir at or under an existing file is a ConfigError naming output.dir."""
    (tmp_path / "file").write_text("", encoding="utf-8")
    path = write(tmp_path, BASE)
    assert main([str(path), "--output-dir", str(tmp_path / target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: output.dir: cannot create directory")
    assert "Traceback" not in err
    assert (tmp_path / "file").read_text(encoding="utf-8") == ""


def test_overrides_apply_before_checks(tmp_path):
    """A file value that a flag replaces is never checked: --mode solve runs a `mode = bogus` file."""
    out = tmp_path / "out"
    path = write(tmp_path, BASE.replace("mode = solve", "mode = bogus") + f"output.dir = {out}\n")
    assert main([str(path), "--mode", "solve"]) == 0
    assert "mode = solve" in (out / "resolved_config.txt").read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize("mode", MODES)
def test_each_mode_builds_one_problem(tmp_path, monkeypatch, mode):
    """Every run builds its problem once, after the overrides: the seed it sees is --seed's."""
    import acopt.cli_io as cli

    seeds = []

    def counted_build(cfg):
        seeds.append(cfg.seed)
        return build_problem(cfg)

    monkeypatch.setattr(cli, "build_problem", counted_build)
    text = override(BASE, "init.preset = random-seeded", "optimizer.max_iters = 5", f"output.dir = {tmp_path/'out'}")
    assert main([str(write(tmp_path, text)), "--mode", mode, "--seed", "3"]) == 0
    assert seeds == [3]


def test_report_mode_emits_files(tmp_path):
    text = BASE.replace("mode = solve", "mode = report") + (
        f"output.dir = {tmp_path/'rep'}\n"
    )
    cfg = load_config(write(tmp_path, text))
    assert run(cfg) == 0
    out = tmp_path / "rep"
    assert (out / "optimality_report.jsonl").is_file()
    assert (out / "curvature_samples.csv").is_file()
    first = (out / "optimality_report.jsonl").read_text().splitlines()[0]
    assert "stationarity" in first and "active_set_fraction" in first


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize(
    "lines, key",
    [
        ("cost.beta5 = 0\n", "projection_residual"),  # the projection identity needs beta5 > 0
        ("box.u1 = 0\nbox.u2 = 0\nbox.u1_gamma = 0\nbox.u2_gamma = 0\n", "min_curvature_ratio"),
    ],
    ids=["beta5-zero", "cone-is-zero"],
)
def test_report_jsonl_is_strict_json(tmp_path, lines, key):
    """A NaN diagnostic is written null: every report line parses as strict JSON."""
    text = BASE.replace("mode = solve", "mode = report").replace("time.m = 4", "time.m = 5")
    assert run(load_config(write(tmp_path, text + lines + f"output.dir = {tmp_path / 'rep'}\n"))) == 0
    report = (tmp_path / "rep" / "optimality_report.jsonl").read_text().splitlines()
    rows = [json.loads(line, parse_constant=_reject_constant) for line in report]
    assert rows[0][key] is None


def test_build_problem_target_consistency():
    cfg = RunConfig(grid_n=4, time_T=0.2, time_m=4)
    prob = build_problem(cfg)
    np.testing.assert_array_equal(prob.z_gamma_t, prob.z_t[prob.grid.boundary_cycle])
    np.testing.assert_array_equal(prob.z_sigma, prob.z_q[:, prob.grid.boundary_cycle])


@pytest.mark.parametrize("n", [4, 12, 128])
def test_tanh_presets_equal_their_per_node_profiles(n):
    """The tanh targets and initial data, formed per grid column, are the per-node profiles bit for bit."""
    cfg = RunConfig(grid_n=n)
    grid, time = build_grid(n), TimeAxis(cfg.time_T, cfg.time_m)
    x = grid.bulk_nodes[:, 0]
    z_q = np.stack([_tanh_profile(x, c) for c in 0.3 + 0.1 * time.levels / time.T])
    got = build_targets(cfg, grid, time)
    for value, want in zip(got, (z_q, z_q[:, grid.boundary_cycle], z_q[-1])):
        np.testing.assert_array_equal(value.view(np.uint64), want.view(np.uint64), strict=True)
    init = build_initial(cfg, grid).bulk
    np.testing.assert_array_equal(init.view(np.uint64), _tanh_profile(x, 0.3).view(np.uint64), strict=True)


def test_constant_target_preset_broadcasts_its_value():
    prob = build_problem(RunConfig(grid_n=4, time_m=3, target_preset="constant", target_value=0.25))
    for name, shape in (("z_q", (4, 25)), ("z_sigma", (4, 16)), ("z_t", (25,))):
        np.testing.assert_array_equal(getattr(prob, name), np.full(shape, 0.25), strict=True)


def test_warnings_reach_the_run_directory(tmp_path):
    """A solve that clamps potential evaluations warns once, on stderr and in warnings.jsonl.

    Initial data 1e-8 lies inside (0, 1) but within eps_guard of 0, so the
    state solve clamps. A run that raises no warning writes no such file.
    """
    from acopt import BoundsViolationWarning

    text = override(
        BASE, "init.value = 1e-8", "potential_f.eps_guard = 1e-6", "potential_g.eps_guard = 1e-6",
        f"output.dir = {tmp_path / 'clamped'}",
    )
    with pytest.warns(BoundsViolationWarning, match="^state solve clamped"):
        assert main([str(write(tmp_path, text))]) == 0
    lines = (tmp_path / "clamped" / "warnings.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["category"] for line in lines] == ["BoundsViolationWarning"]
    assert json.loads(lines[0])["message"].startswith("state solve clamped")
    assert main([str(write(tmp_path, BASE)), "--output-dir", str(tmp_path / "plain")]) == 0
    assert (tmp_path / "plain" / "state_bulk.csv").is_file()
    assert not (tmp_path / "plain" / "warnings.jsonl").exists()


def test_comments_and_blank_lines(tmp_path):
    text = "# a comment\n\nmode = solve   # trailing comment\ngrid.n = 5\n"
    cfg = load_config(write(tmp_path, text))
    assert cfg.mode == "solve"
    assert cfg.grid_n == 5


@pytest.mark.parametrize(
    "key, value",
    [
        ("optimizer.armijo_c", "2"),
        ("optimizer.backtrack_factor", "1"),
        ("optimizer.max_backtracks", "0"),
        ("optimizer.initial_step", "0"),
        ("optimizer.initial_step", "inf"),
        ("optimizer.initial_step", "nan"),
        ("optimizer.stop_tol", "nan"),
        ("optimizer.stop_tol", "inf"),
    ],
)
def test_bad_optimizer_key_is_config_error(tmp_path, capsys, key, value):
    """An out-of-range optimizer setting is rejected before the run, by key, with exit 2."""
    path = write(tmp_path, BASE + f"{key} = {value}\noutput.dir = {tmp_path/'out'}\n")
    with pytest.raises(ConfigError, match=key):
        build_run(load_config(path))
    assert main([str(path), "--mode", "optimize"]) == 2
    err = capsys.readouterr().err
    assert key in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("newton.max_iters", "0"),
        ("newton.tol", "-1"),
        ("newton.tol", "0"),
        ("newton.tol", "nan"),
        ("newton.tol", "inf"),
    ],
)
def test_bad_newton_key_is_config_error(tmp_path, capsys, key, value):
    """The problem owns the Newton settings: `build_problem` rejects them by key, and the CLI exits 2."""
    out = tmp_path / "out"
    path = write(tmp_path, BASE + f"{key} = {value}\noutput.dir = {out}\n")
    with pytest.raises(ConfigError, match=key):
        build_run(load_config(path))
    with pytest.raises(ConfigError, match=f"^{key}: "):
        build_problem(load_config(path))
    assert main([str(path)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "name, key, value",
    [("target_preset", "target.preset", "tanh-movng"), ("init_preset", "init.preset", "random-seedd")],
)
def test_build_problem_rejects_a_misspelled_preset(name, key, value):
    """The library path rejects what the CLI rejects: each preset is checked by its builder."""
    with pytest.raises(ConfigError, match=f"^{key} must be one of"):
        build_problem(RunConfig(grid_n=4, time_T=0.2, time_m=4, **{name: value}))


@pytest.mark.parametrize(
    "setting, message",
    [
        ({"newton_tol": 0.0}, "^newton_tol must be positive and finite"),
        ({"newton_tol": np.nan}, "^newton_tol must be positive and finite"),
        ({"newton_tol": -1.0}, "^newton_tol must be positive and finite"),
        ({"newton_tol": np.inf}, "^newton_tol must be positive and finite"),
        ({"max_newton": 0}, "^max_newton must be a positive integer, got 0$"),
        ({"max_newton": 2.5}, r"^max_newton must be a positive integer, got 2\.5$"),
        ({"max_newton": np.nan}, "^max_newton must be a positive integer, got nan$"),
    ],
    ids=["tol=0", "tol=nan", "tol=-1", "tol=inf", "max=0", "max=2.5", "max=nan"],
)
def test_solve_rejects_bad_newton_overrides(setting, message):
    """A per-call Newton setting obeys the problem's rule: rejected, never a stalled or unsolved state."""
    problem = build_problem(RunConfig(grid_n=4, time_T=0.2, time_m=4))
    with pytest.raises(InvalidParameterError, match=message):
        problem.solve(ControlPair.zeros(problem.grid, problem.time), **setting)


OPTIMIZE = (
    "mode = optimize\n"
    "grid.n = 4\n"
    "time.T = 0.2\n"
    "time.m = 4\n"
    "init.preset = tanh-interface\n"
    "optimizer.max_iters = 100\n"
    "optimizer.stop_tol = 1e-4\n"
)


def test_optimize_solves_each_trial_once(tmp_path, monkeypatch):
    """One state solve for the start and one per line-search trial, none after.

    Every trial starts from the tangent prediction, one linearized march
    each, made by the line search in `acopt.optimizer`; the marches of the
    Newton step's Hessian products run inside `objective.hessian_apply`
    and are not predictions. The run stops by stationarity, so the last
    solve is the accepted state, and that is the state written.
    """
    import acopt.objective as objective
    import acopt.optimizer as optimizer

    solves, predictions = [], []
    solve_state, solve_linearized = objective.solve_state, optimizer.solve_linearized

    def counted_solve(*args, **kwargs):
        solves.append((kwargs.get("guess") is not None, solve_state(*args, **kwargs)))
        return solves[-1][1]

    def counted_prediction(*args, **kwargs):
        predictions.append(1)
        return solve_linearized(*args, **kwargs)

    monkeypatch.setattr(objective, "solve_state", counted_solve)
    monkeypatch.setattr(optimizer, "solve_linearized", counted_prediction)
    cfg = load_config(write(tmp_path, OPTIMIZE + f"output.dir = {tmp_path/'out'}\n"))
    assert run(cfg) == 0
    history = np.loadtxt(tmp_path / "out" / "history.csv", delimiter=",", skiprows=1)
    assert history[-1, 2] <= cfg.opt_stop_tol
    assert len(predictions) >= len(history) - 1  # at least one trial per accepted step
    assert [guessed for guessed, _ in solves] == [False] + [True] * len(predictions)
    state = np.loadtxt(tmp_path / "out" / "state_bulk.csv", delimiter=",", skiprows=1)[:, 2:]
    np.testing.assert_array_equal(state, solves[-1][1].values.T)


@pytest.mark.parametrize("mode", MODES)
def test_each_run_builds_one_step_matrix(tmp_path, monkeypatch, mode):
    """The grid's StepMatrix is built once, inside `build_operators`.

    No state solve, linearization, report or verification builds another.
    """
    import acopt.cli_io as cli
    from acopt.geometry import StepMatrix, build_operators

    log = []
    init = StepMatrix.__init__

    def counted_init(self, *args, **kwargs):
        log.append("step")
        init(self, *args, **kwargs)

    def logged_build(grid):
        log.append("build(")
        ops = build_operators(grid)
        log.append(")")
        return ops

    monkeypatch.setattr(StepMatrix, "__init__", counted_init)
    monkeypatch.setattr(cli, "build_operators", logged_build)
    text = OPTIMIZE.replace("optimizer.max_iters = 100", "optimizer.max_iters = 5")
    # 4 is a completed run whose checks failed (see test_each_mode_builds_one_problem)
    assert main([str(write(tmp_path, text + f"output.dir = {tmp_path/'out'}\n")), "--mode", mode]) in (0, 4)
    assert log == ["build(", "step", ")"]


def test_determinism_optimize_bit_identical(tmp_path):
    """Two optimize runs write byte-identical history, state and control files."""
    for tag in ("a", "b"):
        cfg = load_config(write(tmp_path, OPTIMIZE + f"output.dir = {tmp_path/tag}\n", name=f"{tag}.cfg"))
        assert run(cfg) == 0
    for name in ("history.csv", "state_bulk.csv", "control_final_bulk.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def _per_value_table(nodes, data):
    """Reference CSV bytes: one `%.17g` per value, joined by commas, header first."""
    lines = [",".join(["x", "y"] + [f"t{k}" for k in range(data.shape[0])])]
    for j in range(nodes.shape[0]):
        lines.append(",".join("%.17g" % v for v in [nodes[j, 0], nodes[j, 1], *data[:, j]]))
    return "".join(line + "\n" for line in lines).encode()


def _formatter_values(case, rng):
    """Values that probe the `%.17g` formatter: exact ties, powers of ten and their
    neighbours, the edges of its fixed-notation range, non-finite values."""
    if case == "ties":
        # (integer + 0.5) * 2**-k: many of these have 18 significant digits ending in 5, an
        # exact tie at the 17th that rounds half to even
        ties = rng.integers(10**15, 2**52, size=400) + 0.5
        return np.concatenate([ties * 2.0**-k for k in range(12)])
    if case == "powers-of-ten":
        powers = np.array([float(f"1e{k}") for k in range(-12, 18)])
        return np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    if case == "specials":
        return np.array(
            [np.nextafter(1e-4, 0.0), np.nextafter(1.0, 0.0), 0.0, -0.0, 1.0, -1.0, np.nan, np.inf]
            + [-np.inf, 5e-324, 2.0**52, 2.0**52 - 1.0, 1e-4, -1e-4]
        )
    if case == "grid-coordinates":
        return np.arange(129) / 128
    # random magnitudes from 1e-13 to 1e18, both signs
    return rng.choice([-1.0, 1.0], size=100_002) * 10.0 ** rng.uniform(-13, 18, size=100_002)


@pytest.mark.parametrize(
    "case",
    [
        "random",
        "no-levels",
        "surface",
        "ties",
        "powers-of-ten",
        "specials",
        "grid-coordinates",
        "random-magnitudes",
        "no-rows",
        "one-row",
        "block-minus-one",
        "block-plus-one",
    ],
)
def test_node_tables_match_per_value_format(tmp_path, case):
    from acopt import TimeAxis, build_grid
    from acopt.cli_io import _BLOCK_VALUES, _write_node_table, write_trajectory_csv
    from acopt.pde_state import Trajectory

    rng = np.random.default_rng(5)
    path = tmp_path / "table.csv"
    if case == "surface":
        grid = build_grid(4)
        traj = Trajectory(rng.uniform(size=(4, grid.num_nodes)), grid, TimeAxis(0.2, 3))
        write_trajectory_csv(path, traj, surface=True)
        nodes, data = grid.bulk_nodes[grid.boundary_cycle], traj.surface
    else:
        if case in ("random", "no-levels"):
            levels = 5 if case == "random" else 0
            nodes = rng.uniform(-1.0, 1.0, size=(9, 2))
            data = rng.normal(size=(levels, 9)) * 10.0 ** rng.integers(-30, 30, size=(levels, 9))
            if levels:
                data[0, :3] = [0.0, -0.0, 1.0]
        elif case in ("no-rows", "one-row", "block-minus-one", "block-plus-one"):
            # rows around one block of the writer (its block holds _BLOCK_VALUES // 7 rows)
            block = _BLOCK_VALUES // 7
            rows = {"no-rows": 0, "one-row": 1, "block-minus-one": block - 1, "block-plus-one": block + 1}
            table = rng.uniform(-1.0, 1.0, size=(rows[case], 7))
            nodes, data = table[:, :2], table[:, 2:].T
        else:
            values = _formatter_values(case, rng)
            table = np.resize(values, (-(-values.size // 7), 7))  # 7 columns a row, wrapping
            nodes, data = table[:, :2], table[:, 2:].T
        _write_node_table(path, nodes, data)
    assert path.read_bytes() == _per_value_table(nodes, data)


def test_node_table_writer_memory_is_bounded(tmp_path):
    """Writing solve-n128's state table (16641 nodes, 21 levels) traces under 4x the table.

    The writer formats in blocks (1.4x); formatting the whole table at once traced about 38x.
    """
    import tracemalloc

    from acopt.cli_io import _write_node_table

    rng = np.random.default_rng(0)
    nodes = rng.uniform(size=(16641, 2))
    data = rng.uniform(-1.0, 1.0, size=(21, 16641))
    tracemalloc.start()
    try:
        _write_node_table(tmp_path / "table.csv", nodes, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * (nodes.nbytes + data.nbytes), f"traced peak {peak / 1e6:.1f} MB"


def test_optimize_prints_why_it_stopped(tmp_path, capsys):
    """A run cut by optimizer.max_iters says so on stdout and still exits 0.

    history.csv records the iterate each step reached, the one the run stopped at too.
    """
    path = write(tmp_path, override((ROOT / "configs" / "tracking.cfg").read_text(), "optimizer.max_iters = 3"))
    assert main([str(path), "--mode", "optimize", "--output-dir", str(tmp_path / "out")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("optimize: stopped by max_iters after 3 accepted steps: stationarity=")
    stat = float(lines[0].split("stationarity=")[1].split()[0])
    assert stat > 1e-8
    assert lines[0].endswith("threshold <= 1.000e-08")
    history = (tmp_path / "out" / "history.csv").read_text().splitlines()
    assert len(history) == 1 + 4
