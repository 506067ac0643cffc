import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from acopt import ConfigError, StepSolvabilityWarning
from acopt.cli_io import (
    RunConfig,
    build_problem,
    load_config,
    main,
    run,
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
        load_config(path)


def test_unknown_key_named(tmp_path):
    path = write(tmp_path, BASE + "grid.nn = 8\n")
    with pytest.raises(ConfigError, match="grid.nn"):
        load_config(path)


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


def test_stationary_preset_constant_trajectory(tmp_path):
    text = BASE + (
        f"output.dir = {tmp_path/'out'}\n"
        "control.preset = stationary\n"
        "init.value = 0.37\n"
    )
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
        text = BASE + (
            f"output.dir = {tmp_path/tag}\n"
            "init.preset = random-seeded\n"
            "seed = 7\n"
        )
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
        cli, "verify_gradient", lambda problem, seed=0, n_dir=3: [("stub", 0.0, 1.9, ">=", False)]
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
    """dt * (2c - 4 alpha) = 100 for both potentials: the step is far from convex."""
    return (
        f"mode = {mode}\n"
        "grid.n = 4\n"
        "time.T = 50\n"
        "time.m = 1\n"
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
    with pytest.warns(StepSolvabilityWarning):
        cfg = load_config(write(tmp_path, text))
    assert run(cfg) == 3
    error = json.loads((tmp_path / "fail" / "error.jsonl").read_text(encoding="utf-8"))
    assert "after 1 iterations" in error["message"]  # the configured budget, not the default 50


def test_unsolvable_step_warns_by_name(tmp_path):
    """Configs whose step may not be uniquely solvable load with a warning per potential."""
    path = write(tmp_path, failing_newton_config("solve", tmp_path / "out"))
    with pytest.warns(StepSolvabilityWarning) as record:
        load_config(path)
    messages = [str(w.message) for w in record if w.category is StepSolvabilityWarning]
    assert len(messages) == 2
    for name, message in zip(("potential_f", "potential_g"), messages):
        for key in ("time.T", "time.m", f"{name}.c", f"{name}.alpha"):
            assert key in message
        assert "= 100 >= 1" in message
    with pytest.warns(StepSolvabilityWarning) as record:
        assert main([str(path), "--mode", "solve"]) == 3
    assert sum(w.category is StepSolvabilityWarning for w in record) == 2  # validated once
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        load_config(Path(__file__).parents[1] / "configs" / "tracking.cfg")


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


def test_build_problem_target_consistency():
    cfg = RunConfig(grid_n=4, time_T=0.2, time_m=4)
    prob = build_problem(cfg)
    np.testing.assert_array_equal(prob.z_gamma_t, prob.z_t[prob.grid.boundary_cycle])
    np.testing.assert_array_equal(prob.z_sigma, prob.z_q[:, prob.grid.boundary_cycle])


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
    ],
)
def test_bad_optimizer_key_is_config_error(tmp_path, capsys, key, value):
    """An out-of-range optimizer setting is rejected at load, by key, with exit 2."""
    path = write(tmp_path, BASE + f"{key} = {value}\noutput.dir = {tmp_path/'out'}\n")
    with pytest.raises(ConfigError, match=key):
        load_config(path)
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
def test_bad_newton_key_is_config_error(tmp_path, key, value):
    path = write(tmp_path, BASE + f"{key} = {value}\n")
    with pytest.raises(ConfigError, match=key):
        load_config(path)


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
    each. The run stops by stationarity, so the last solve is the accepted
    state, and that is the state written.
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


def test_determinism_optimize_bit_identical(tmp_path):
    """Two optimize runs write byte-identical history, state and control files."""
    for tag in ("a", "b"):
        cfg = load_config(write(tmp_path, OPTIMIZE + f"output.dir = {tmp_path/tag}\n", name=f"{tag}.cfg"))
        assert run(cfg) == 0
    for name in ("history.csv", "state_bulk.csv", "control_final_bulk.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
