import numpy as np
import pytest

from acopt import (
    ControlPair,
    ControlProblem,
    FieldPair,
    Potential,
    TimeAxis,
    build_grid,
    build_operators,
)


@pytest.fixture(scope="session")
def grid4():
    return build_grid(4)


@pytest.fixture(scope="session")
def ops4(grid4):
    return build_operators(grid4)


@pytest.fixture(scope="session")
def grid8():
    return build_grid(8)


@pytest.fixture(scope="session")
def ops8(grid8):
    return build_operators(grid8)


@pytest.fixture(scope="session")
def grid16():
    return build_grid(16)  # half-bandwidth 17: the first grid whose solves carry a factor


@pytest.fixture(scope="session")
def ops16(grid16):
    return build_operators(grid16)


def default_potentials():
    return Potential(1.0, 3.0), Potential(1.0, 3.0)


def quadratic_potentials(cf=-0.5, cg=-0.25):
    """Log-free variant: f'' = -2*cf, g'' = -2*cg, third derivatives vanish."""
    return Potential(0.0, cf), Potential(0.0, cg)


def make_problem(
    grid,
    ops,
    time,
    pf,
    pg,
    betas=(1.0, 1.0, 1.0, 1e-2, 1e-2),
    box=(-1.0, 1.0),
    init_value=0.5,
    targets="random",
    seed=0,
):
    rng = np.random.default_rng(seed)
    m1 = time.m + 1
    if targets == "random":
        z_q = rng.uniform(0.3, 0.7, size=(m1, grid.num_nodes))
        z_sigma = rng.uniform(0.3, 0.7, size=(m1, grid.num_boundary))
        z_t = rng.uniform(0.3, 0.7, size=grid.num_nodes)
    elif targets == "zero":
        z_q = np.zeros((m1, grid.num_nodes))
        z_sigma = np.zeros((m1, grid.num_boundary))
        z_t = np.zeros(grid.num_nodes)
    else:  # moving tanh interface
        x = grid.bulk_nodes[:, 0]
        centers = 0.3 + 0.1 * time.levels / time.T
        z_q = np.stack([0.2 + 0.3 * (1 + np.tanh((x - c) / 0.15)) for c in centers])
        z_sigma = z_q[:, grid.boundary_cycle]
        z_t = z_q[-1]
    return ControlProblem(
        grid=grid,
        ops=ops,
        time=time,
        pf=pf,
        pg=pg,
        beta1=betas[0],
        beta2=betas[1],
        beta3=betas[2],
        beta5=betas[3],
        beta6=betas[4],
        z_q=z_q,
        z_sigma=z_sigma,
        z_t=z_t,
        init=FieldPair(np.full(grid.num_nodes, init_value)),
        u_lo=box[0],
        u_hi=box[1],
        u_lo_surf=box[0],
        u_hi_surf=box[1],
    )


def random_control(grid, time, rng, scale=0.5):
    return ControlPair(
        rng.uniform(-scale, scale, size=(time.m + 1, grid.num_nodes)),
        rng.uniform(-scale, scale, size=(time.m + 1, grid.num_boundary)),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def small_time():
    return TimeAxis(0.45, 9)
