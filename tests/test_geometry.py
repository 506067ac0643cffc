import numpy as np
import pytest
import scipy.sparse as sp
import sympy

from acopt import (
    InvalidParameterError,
    SolverFailureError,
    TimeAxis,
    build_grid,
    build_operators,
)
from acopt import geometry


def test_counts_n2():
    g = build_grid(2)
    assert g.num_nodes == 9
    assert g.boundary_cycle.size == 8
    assert np.allclose(g.surface_weights, 0.5)


def test_counts_n4():
    g = build_grid(4)
    assert g.num_nodes == 25
    assert g.num_boundary == 16
    assert g.bulk_weights.sum() == pytest.approx(1.0, abs=0)


def test_weight_sums_exact():
    for n in (2, 3, 8, 17):
        g = build_grid(n)
        assert g.bulk_weights.sum() == pytest.approx(1.0, rel=1e-15)
        assert g.surface_weights.sum() == pytest.approx(4.0, rel=1e-15)


def test_invalid_n():
    with pytest.raises(InvalidParameterError):
        build_grid(1)
    with pytest.raises(InvalidParameterError):
        build_grid(0)
    for n in (np.nan, np.inf):
        with pytest.raises(InvalidParameterError):
            build_grid(n)


def test_cycle_starts_at_origin_counterclockwise():
    g = build_grid(3)
    first = g.bulk_nodes[g.boundary_cycle[0]]
    assert np.allclose(first, [0.0, 0.0])
    second = g.bulk_nodes[g.boundary_cycle[1]]
    assert np.allclose(second, [g.h, 0.0])  # along the bottom edge first


@pytest.mark.parametrize("n", [2, 4, 7])
def test_cycle_adjacency_and_uniqueness(n):
    g = build_grid(n)
    cyc = g.boundary_cycle
    assert cyc.size == 4 * n
    assert np.unique(cyc).size == cyc.size
    coords = g.bulk_nodes[cyc]
    for k in range(cyc.size):
        d = coords[(k + 1) % cyc.size] - coords[k]
        assert np.abs(d).sum() == pytest.approx(g.h)  # grid neighbors along the cycle


def test_node_classification_partition():
    g = build_grid(5)
    interior = set(g.interior_nodes.tolist())
    boundary = set(g.boundary_cycle.tolist())
    assert interior.isdisjoint(boundary)
    assert len(interior) + len(boundary) == g.num_nodes


@pytest.mark.parametrize("n", range(2, 10))
def test_interior_nodes_are_the_sorted_complement_of_the_cycle(n):
    """The masked interior is np.setdiff1d's, in values and dtype."""
    g = build_grid(n)
    want = np.setdiff1d(np.arange(g.num_nodes), g.boundary_cycle)
    np.testing.assert_array_equal(g.interior_nodes, want, strict=True)


def _surface_laplacian(grid):
    """Negative surface Laplacian on the cycle: the periodic second difference over h^2."""
    nb = grid.num_boundary
    nxt = sp.csr_matrix((np.ones(nb), (np.arange(nb), np.roll(np.arange(nb), -1))), shape=(nb, nb))
    return (2.0 * sp.identity(nb, format="csr") - nxt - nxt.T) / grid.h**2


def _normal_flux(grid, ops, z):
    """Normal flux at the boundary nodes: boundary rows of `coupled` minus the surface Laplacian."""
    trace = z[grid.boundary_cycle]
    return (ops.coupled @ z)[grid.boundary_cycle] - _surface_laplacian(grid) @ trace


def test_operators_annihilate_constants(grid4, ops4):
    ones = np.ones(grid4.num_nodes)
    assert np.abs(_surface_laplacian(grid4) @ np.ones(grid4.num_boundary)).max() == 0.0
    assert np.abs(_normal_flux(grid4, ops4, ones)).max() == 0.0
    assert np.abs(ops4.coupled @ ones).max() == 0.0
    # non-representable constants: zero up to rounding of the products
    c = np.full(grid4.num_nodes, 3.7)
    assert np.abs(_normal_flux(grid4, ops4, c)).max() <= 1e-13


def test_bulk_stencil_exact_on_quadratic():
    g = build_grid(32)
    ops = build_operators(g)
    field = g.bulk_nodes[:, 0] ** 2
    out = ops.coupled @ field
    assert np.allclose(out[g.interior_nodes], -2.0, atol=1e-11)


def test_surface_eigenvalue_cosine_mode():
    g = build_grid(64)
    ops = build_operators(g)
    s = np.arange(g.num_boundary) * g.h
    mode = np.cos(2 * np.pi * s / 4.0)
    lam_discrete = 2.0 * (1.0 - np.cos(2 * np.pi * g.h / 4.0)) / g.h**2
    out = _surface_laplacian(g) @ mode
    # exact eigenvector of the periodic second difference
    assert np.allclose(out, lam_discrete * mode, atol=1e-10)
    # within 1% of the continuous eigenvalue (2*pi/4)^2
    assert lam_discrete == pytest.approx((np.pi / 2.0) ** 2, rel=1e-2)


def test_surface_laplacian_symmetric_in_weights(grid4, ops4):
    # uniform arclength weights: plain symmetry
    dense = _surface_laplacian(grid4).toarray()
    assert np.abs(dense - dense.T).max() == 0.0


@pytest.mark.parametrize("n", [2, 5, 8])
def test_coupled_symmetric_in_slot_weights(n):
    """W coupled is exactly symmetric: the step solvers store only its upper band."""
    grid = build_grid(n)
    w = grid.bulk_weights.copy()
    w[grid.boundary_cycle] = grid.surface_weights
    assert np.array_equal(w, grid.slot_weights)
    dense = w[:, None] * build_operators(grid).coupled.toarray()
    assert np.abs(dense - dense.T).max() == 0.0


def test_operators_canonical_csr(grid4, ops4):
    for name in ("coupled", "coupled_abs"):
        assert getattr(ops4, name).has_canonical_format, name


def _edges_per_edge(grid):
    """The per-edge reference edge list: grid rows, then grid columns, then the boundary cycle."""
    n, side, cycle = grid.n, grid.n + 1, grid.boundary_cycle
    edges = []
    for j in range(side):
        for i in range(n):
            edges.append((j * side + i, j * side + i + 1, 1.0 if 0 < j < n else 0.5))
    for i in range(side):
        for j in range(n):
            edges.append((j * side + i, (j + 1) * side + i, 1.0 if 0 < i < n else 0.5))
    for i in range(cycle.size):
        edges.append((cycle[i], cycle[(i + 1) % cycle.size], 1.0 / grid.h))
    a, b, k = zip(*edges)
    return np.array(a, dtype=np.int32), np.array(b, dtype=np.int32), np.array(k)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 32])
def test_bulk_stiffness_matches_per_edge_assembly(n, monkeypatch):
    """The indexed edge list assembles the per-edge loop's coupled and step entries, bit for bit."""
    grid = build_grid(n)
    ops = build_operators(grid)
    monkeypatch.setattr(geometry, "_edges", _edges_per_edge)
    reference = build_operators(grid)
    for ours, theirs in zip(ops.edges, reference.edges):
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(ops.coupled, part), getattr(reference.coupled, part)), part
    assert ops.step.bandwidth == reference.step.bandwidth
    assert np.array_equal(ops.step._k, reference.step._k)


def _exact_gradient_pairing(fy, fv):
    """Exact integral of grad(y).grad(v) over the unit square via sympy."""
    x, y = sympy.symbols("x y")
    gy = (sympy.diff(fy, x), sympy.diff(fy, y))
    gv = (sympy.diff(fv, x), sympy.diff(fv, y))
    integrand = gy[0] * gv[0] + gy[1] * gv[1]
    return float(sympy.integrate(sympy.integrate(integrand, (x, 0, 1)), (y, 0, 1)))


def test_green_identity_residual_decays():
    """<L y, v>_bulk + <B_flux y, v>_surf ~ int grad y . grad v, O(h^2).

    L is the interior rows of `coupled` (the 5-point negative Laplacian)
    with the boundary entries zeroed and B_flux the normal flux; the
    pairing is then the discrete Dirichlet form y' A v.
    """
    x, y = sympy.symbols("x y")
    family = [x**2, y**2, x * y, x**2 * y**2]
    sizes = (8, 16, 32, 64)
    grids = {n: build_grid(n) for n in sizes}
    operators = {n: build_operators(grids[n]) for n in sizes}
    for fy in family:
        for fv in family:
            exact = _exact_gradient_pairing(fy, fv)
            residuals = []
            for n in sizes:
                g, ops = grids[n], operators[n]
                yy = sympy.lambdify((x, y), fy)(g.bulk_nodes[:, 0], g.bulk_nodes[:, 1])
                vv = sympy.lambdify((x, y), fv)(g.bulk_nodes[:, 0], g.bulk_nodes[:, 1])
                yy = np.broadcast_to(np.asarray(yy, dtype=float), (g.num_nodes,))
                vv = np.broadcast_to(np.asarray(vv, dtype=float), (g.num_nodes,))
                bulk = ops.coupled @ yy
                bulk[g.boundary_cycle] = 0.0
                pairing = float(np.dot(bulk * g.bulk_weights, vv))
                flux = _normal_flux(g, ops, yy)
                pairing += float(np.dot(flux * g.surface_weights, vv[g.boundary_cycle]))
                residuals.append(abs(pairing - exact))
            residuals = np.asarray(residuals)
            if residuals.max() < 1e-12:
                continue  # discretely exact member of the family
            # order on the finest pair (the coarse grids are pre-asymptotic)
            order = np.log2(residuals[-2] / residuals[-1])
            assert order >= 1.9, f"Green residual order {order} for y={fy}, v={fv}"


def test_time_axis():
    t = TimeAxis(1.0, 4)
    assert t.dt == pytest.approx(0.25)
    assert np.allclose(t.levels, [0, 0.25, 0.5, 0.75, 1.0])
    w = t.weights()
    assert w.sum() == pytest.approx(1.0)
    assert w[0] == w[-1] == pytest.approx(0.125)
    with pytest.raises(InvalidParameterError):
        TimeAxis(0.0, 4)
    with pytest.raises(InvalidParameterError):
        TimeAxis(1.0, 0)
    for T in (np.nan, np.inf):
        with pytest.raises(InvalidParameterError, match="T must be positive and finite"):
            TimeAxis(T, 4)


def test_time_axis_rejects_a_non_integer_step_count():
    """m = 2.5 (dt = 0.1) is refused by name, not left to fail in weights()."""
    with pytest.raises(InvalidParameterError, match=r"^m must be an integer >= 1, got 2\.5$"):
        TimeAxis(0.25, 2.5)


def test_grid_arrays_immutable(grid4):
    with pytest.raises(ValueError):
        grid4.bulk_weights[0] = 2.0


@pytest.mark.parametrize("n", [8, 104], ids=["band", "superlu"])
def test_factor_never_writes_the_stored_stiffness(n):
    """Each factorization forms S from a copy of the stored K: a factorization that raises on
    c = -2/dt (S = K - W/dt, indefinite) leaves K as it was, and two factors of one c solve one
    right-hand side to the same bits."""
    grid = build_grid(n)
    step = build_operators(grid).step
    assert step.sparse == (n == 104)
    rng = np.random.default_rng(n)
    dt, c, rhs = 0.0125, rng.uniform(-1.0, 5.0, grid.num_nodes), rng.normal(size=grid.num_nodes)
    stored = step._k.copy()
    first = step.solve(step.factor(c, dt), rhs)
    with pytest.raises(SolverFailureError, match="^step matrix is not positive definite at step 2$"):
        step.factor(np.full(grid.num_nodes, -2.0 / dt), dt, level=2)
    assert np.array_equal(step._k, stored)
    assert np.array_equal(step.solve(step.factor(c, dt), rhs), first)


# -- the band factorization's OpenBLAS thread scope ----------------------------


@pytest.fixture(scope="module", params=[16, 32])
def band_step(request):
    """A band-path StepMatrix (n = 16, 32) and seeded SPD slot coefficients at dt = 0.0125."""
    grid = build_grid(request.param)
    step = build_operators(grid).step
    assert not step.sparse
    return step, np.random.default_rng(request.param).uniform(-1.0, 5.0, grid.num_nodes), 0.0125


@pytest.fixture
def two_threads():
    """The caller's scipy OpenBLAS count set to 2 for the test, the original restored after."""
    if geometry._set_threads is None:
        pytest.skip("the running scipy's OpenBLAS exports no thread-count symbols")
    original = geometry._get_threads()
    geometry._set_threads(2)
    yield geometry._get_threads()
    geometry._set_threads(original)


def test_band_factor_runs_on_one_thread_and_restores_the_count(band_step, two_threads, monkeypatch):
    step, c, dt = band_step
    seen = []
    dpbtrf = geometry.lapack.dpbtrf

    def spy(*args, **kwargs):
        seen.append(geometry._get_threads())
        return dpbtrf(*args, **kwargs)

    monkeypatch.setattr(geometry.lapack, "dpbtrf", spy)
    step.factor(c, dt)
    assert two_threads == 2
    assert seen == [1]
    assert geometry._get_threads() == two_threads


def test_band_factor_restores_the_count_when_it_raises(band_step, two_threads):
    """c = -2/dt makes S = K - W/dt indefinite: dpbtrf fails and the count is still the caller's."""
    step, c, dt = band_step
    with pytest.raises(SolverFailureError, match="^step matrix is not positive definite at step 3$"):
        step.factor(np.full(c.size, -2.0 / dt), dt, level=3)
    assert geometry._get_threads() == two_threads


def test_band_factor_equals_one_made_on_the_callers_threads(band_step, two_threads, monkeypatch):
    step, c, dt = band_step
    limited = step.factor(c, dt)
    monkeypatch.setattr(geometry, "_set_threads", lambda threads: None)  # the limit bypassed
    assert np.array_equal(step.factor(c, dt), limited)


def test_band_factor_without_the_thread_symbols(band_step, monkeypatch):
    """Where scipy's OpenBLAS exports neither symbol, factor makes the same factor unscoped."""
    step, c, dt = band_step
    scoped = step.factor(c, dt)
    monkeypatch.setattr(geometry, "_get_threads", None)
    monkeypatch.setattr(geometry, "_set_threads", None)
    assert np.array_equal(step.factor(c, dt), scoped)
