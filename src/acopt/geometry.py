"""Structured unit-square domain with an ordered boundary cycle.

The domain is (0,1)^2 meshed with n cells per side (h = 1/n). Boundary
nodes are traversed once counterclockwise starting at the origin, so the
boundary is a closed discrete curve of length 4 on which a surface
Laplacian acts as a periodic second difference in arclength.

Quadrature is node based: tensor-product trapezoid in the bulk, composite
trapezoid on the boundary cycle, trapezoid along the time axis. All mass
matrices are therefore diagonal, which keeps discrete adjoints plain
(weighted) matrix transposes. `space_time_inner` pairs trajectories with
these weights; `objective.ControlProblem.metric` holds the controls'.

The discrete model is one edge list (a, b, k): the bulk grid's edges and
the boundary cycle's, whose graph energy 0.5 sum k (z_a - z_b)^2 is the
Dirichlet energy of the bulk plus that of the surface. Its matrix, the
symmetric stiffness K, is assembled from the same list. The coupled
evolution operator is W^-1 K, W the slot weights, so it is exactly the
gradient of the discrete Dirichlet energy in the node-weight metric and
the implicit time stepper inherits an exact energy-dissipation property.
Its boundary rows are the surface Laplacian plus the summation-by-parts
normal flux: the bulk edges' part of the boundary rows of K divided by
the arclength weights.

What every implicit step reads from the grid is built once per grid: the
slot weights W (`Grid.slot_weights`), |coupled| and the `StepMatrix`, whose
choice of factorization (banded Cholesky, or SuperLU on wide bands) and
map of K every step factorization of every solve shares.
"""

import ctypes
import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

from .errors import InvalidParameterError, SolverFailureError


@dataclass(frozen=True)
class Grid:
    """Discrete unit square with boundary cycle and quadrature weights.

    Attributes:
        n: cells per side (mesh width h = 1/n).
        h: mesh width.
        bulk_nodes: ((n+1)^2, 2) node coordinates, x fastest.
        boundary_cycle: (4n,) global indices of boundary nodes, ordered
            counterclockwise starting at (0, 0).
        interior_nodes: ((n-1)^2,) global indices of interior nodes.
        bulk_weights: (N,) area quadrature weights, sum exactly 1.
        surface_weights: (4n,) arclength weights along the cycle, sum
            exactly 4.
        slot_weights: (N,) per equation slot: area weights, arclength weights on the cycle.
    """

    n: int
    h: float
    bulk_nodes: np.ndarray
    boundary_cycle: np.ndarray
    interior_nodes: np.ndarray
    bulk_weights: np.ndarray
    surface_weights: np.ndarray
    slot_weights: np.ndarray

    @property
    def num_nodes(self):
        return (self.n + 1) ** 2

    @property
    def num_boundary(self):
        return 4 * self.n


@dataclass(frozen=True)
class TimeAxis:
    """Uniform time grid on [0, T] with m steps (m+1 levels)."""

    T: float
    m: int

    def __post_init__(self):
        if not (0 < self.T < np.inf):
            raise InvalidParameterError(f"T must be positive and finite, got {self.T}")
        if not isinstance(self.m, (int, np.integer)) or self.m < 1:
            raise InvalidParameterError(f"m must be an integer >= 1, got {self.m!r}")

    @property
    def dt(self):
        return self.T / self.m

    @property
    def levels(self):
        return np.linspace(0.0, self.T, self.m + 1)

    def weights(self):
        """Trapezoidal quadrature weights over the m+1 time levels."""
        w = np.full(self.m + 1, self.dt)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w


@dataclass(frozen=True)
class OperatorSet:
    """Sparse operators attached to a grid.

    Attributes:
        edges: the edge list (a, b, k) of `_edges`, frozen int32, int32
            and float arrays: 0.5 sum k (z_a - z_b)^2 is the Dirichlet
            energy of z, bulk and surface, and K its matrix.
        coupled: (N, N) evolution operator W^-1 K used by the solvers (see
            module docstring): interior rows are the 5-point negative
            Laplacian, boundary rows the surface Laplacian plus the normal
            flux. Row sums vanish, so constants are annihilated exactly.
        coupled_abs: (N, N) entrywise |coupled|.
        step: the grid's one `StepMatrix`, built from K.
    """

    edges: tuple
    coupled: sp.csr_matrix
    coupled_abs: sp.csr_matrix
    step: "StepMatrix"


def _freeze(arr):
    arr.setflags(write=False)
    return arr


def build_grid(n):
    """Construct the discrete unit-square domain.

    Args:
        n: cells per side, at least 2.

    Returns:
        Grid with all invariants satisfied (cycle length 4n, weight sums
        exactly 1 and 4).
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise InvalidParameterError(f"n must be an integer >= 2, got {n!r}")
    n = int(n)
    h = 1.0 / n
    side = n + 1
    num = side * side

    ii, jj = np.meshgrid(np.arange(side), np.arange(side), indexing="xy")
    # global index = j*(n+1) + i, x coordinate fastest
    nodes = np.column_stack([(ii.ravel() * h), (jj.ravel() * h)])

    def gid(i, j):
        return j * side + i

    cycle = np.concatenate(
        [
            gid(np.arange(0, n), 0),            # bottom, left to right
            gid(n, np.arange(0, n)),            # right, upwards
            gid(np.arange(n, 0, -1), n),        # top, right to left
            gid(0, np.arange(n, 0, -1)),        # left, downwards
        ]
    )

    on_cycle = np.zeros(num, dtype=bool)
    on_cycle[cycle] = True
    interior = np.flatnonzero(~on_cycle)

    # tensor trapezoid: 1-D weight h, halved at the two ends
    w1 = np.full(side, h)
    w1[0] *= 0.5
    w1[-1] *= 0.5
    bulk_w = np.outer(w1, w1).ravel()
    # composite trapezoid on a closed uniform polygon: every node gets h
    surf_w = np.full(cycle.size, h)
    slot_w = bulk_w.copy()
    slot_w[cycle] = surf_w

    return Grid(
        n=n,
        h=h,
        bulk_nodes=_freeze(nodes),
        boundary_cycle=_freeze(cycle),
        interior_nodes=_freeze(interior),
        bulk_weights=_freeze(bulk_w),
        surface_weights=_freeze(surf_w),
        slot_weights=_freeze(slot_w),
    )


def _edges(grid):
    """The Dirichlet energy's edge list (a, b, k): its value on z is 0.5 sum k (z_a - z_b)^2.

    First the bulk grid's edges, a -> a + 1 along each grid row, then
    a -> a + side along each grid column: weight 1, halved on the
    boundary lines (midpoint in the edge direction, trapezoid across it),
    so interior rows of K/h^2 reproduce the exact 5-point stencil. Then
    the cycle's edges (cycle[i], cycle[i+1]) of weight 1/h, the tangential
    gradient energy on the boundary.
    """
    n, side, cycle = grid.n, grid.n + 1, grid.boundary_cycle
    # int32, the CSR index type at these sizes: the COO indices need no conversion
    line, step = np.arange(side, dtype=np.int32)[:, None], np.arange(n, dtype=np.int32)
    a = np.concatenate([line * side + step, step * side + line])
    b = a + np.repeat(np.int32([1, side]), side)[:, None]
    k = np.tile(np.where((line > 0) & (line < n), 1.0, 0.5), (2, n))
    return (
        _freeze(np.concatenate([a.ravel(), cycle], dtype=np.int32)),
        _freeze(np.concatenate([b.ravel(), np.roll(cycle, -1)], dtype=np.int32)),
        _freeze(np.concatenate([k.ravel(), np.full(cycle.size, 1.0 / grid.h)])),
    )


SPARSE_BANDWIDTH = 105  # the smallest half-bandwidth factored by SuperLU (see StepMatrix)


def _openblas_threads():
    """The thread-count getter and setter of the OpenBLAS that scipy's LAPACK links.

    Resolved from scipy's own LAPACK module, so numpy's separate OpenBLAS is
    never touched. (None, None) where the library lacks either symbol.
    """
    lib = ctypes.CDLL(lapack._flapack.__file__)
    get = getattr(lib, "scipy_openblas_get_num_threads", None)
    set_ = getattr(lib, "scipy_openblas_set_num_threads", None)
    if get is None or set_ is None:
        return None, None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


_get_threads, _set_threads = _openblas_threads()


def _dpbtrf(band):
    """dpbtrf in place on one OpenBLAS thread, the caller's thread count restored after.

    Plain calls rather than a context manager: a factorization at n = 8
    takes about 25 us, and the get/set/set triple about 1 us.
    """
    if _set_threads is None:
        return lapack.dpbtrf(band, overwrite_ab=1)
    threads = _get_threads()
    _set_threads(1)
    try:
        return lapack.dpbtrf(band, overwrite_ab=1)
    finally:
        _set_threads(threads)


class StepMatrix:
    """Factorizations of the step matrices M(c) = I/dt + W^-1 K + diag(c).

    With W = diag(slot weights), S = W M(c) = K + W/dt + W diag(c) is
    symmetric by construction. In the natural node order S is a band
    whose half-bandwidth b (n+1 on a grid with n cells per side) is read
    off the sparsity pattern of K, which must be canonical (sorted,
    duplicate-free) CSR, as `build_operators` makes it. The grid picks the
    factorization once, from b alone:

    - b < SPARSE_BANDWIDTH: banded Cholesky. Only the upper entries of K
      are stored, one per band position. `factor` assigns them into a
      fresh zero band in LAPACK layout, adds W/dt, then W c, and factors
      it in place (dpbtrf) on one OpenBLAS thread, restoring the caller's
      thread count afterwards. A factor holds (b+1) N doubles.
    - b >= SPARSE_BANDWIDTH: SuperLU (`splu`) on S in CSC form with a
      minimum-degree ordering of S + S^T, diagonal pivots and symmetric
      mode, an LDL^T-shaped factor. K symmetric and canonical, its CSR
      arrays are those of S's CSC form; `factor` adds W/dt, then W c, at
      the diagonal positions recorded at build, in the band path's order.
      At n = 128 the factor has 0.69 M nonzeros (L and U) against the
      band's 2.16 M entries (17.3 MB).

    S is positive definite whenever 1/dt + c > 0 on every slot, as K is
    positive semidefinite. On the guarded interval f'' and g''
    are at least 4 alpha - 2 c, so `objective.ControlProblem` makes every
    step matrix of its solves SPD by its step rule dt (2 c - 4 alpha) < 1.
    A factorization that is not SPD raises: dpbtrf reports a non-positive
    pivot; SuperLU raises on an exactly singular S, and its factor is
    checked for row pivots equal to the column order and, unless S's
    diagonal exceeds K's on every slot (then S is K plus a positive
    diagonal, positive definite as it stands), for pivots above N eps max S_ii.
    Reading the pivots caches copies of L and U in the factor: at n = 128
    (scipy 1.17.1) a held factor grows the resident set by 9.9-10.0 MB, by
    11.8 MB once its pivots are read, and a band by 17.4 MB.
    Solves reuse one factor both ways:
    M x = r is x = S^-1 (W r), and M^T x = r is x = W S^-1 r.

    The crossover is where a chord step of `pde_state.solve_state` (a
    residual evaluation plus a step solve) costs the same on both paths.
    Measured inside a real solve (the solve-n128 problem at grid n, seed 1,
    newton_tol 1e-10, median of 7 solves, shared 2-core Xeon, ranges over
    two runs), ms per chord step and per step solve:

        n     b    chord: band     SuperLU      solve: band     SuperLU
        64    65   0.70-0.80       0.87-0.94    0.30-0.35       0.47-0.51
        80    81   1.10-1.12       1.30-1.46    0.56-0.58       0.76-0.81
        96    97   2.07-2.21       2.05-2.18    1.23-1.35       1.21-1.29
        112   113  3.99-4.06       2.95-3.04    2.70-2.79       1.85-1.93
        128   129  6.31-6.69       4.19-4.25    4.73-4.98       2.68-2.70

    The paths are level at b = 97 and SuperLU is a quarter faster at 113;
    SPARSE_BANDWIDTH sits between them.

    `factor_cost` prices one factorization in chord iterations. On the
    band, kappa(b) = b^2 / (8 b + 100): a factorization grows like N b^2,
    a solve like N b, a residual like N. The constants fit the measured
    ratio of the library's own calls (best of 5, tracking problem,
    dt = 0.0125, shared 2-core Xeon; ranges over two runs):

        n     b    kappa(b)  OPENBLAS_NUM_THREADS=1  2 OpenBLAS threads
        4     5    0.18      0.19                    0.20-0.36
        8     9    0.47      0.32-0.34               0.39-0.62
        16    17   1.22      1.11                    6.2-6.6
        32    33   2.99      3.1-5.4                 15.9-27.7
        64    65   6.81      9.9-13.7                12.3-16.3

    Break-even, kappa = 1, lies between b = 9 and 17 in every run, at 14.8
    in the model. Band factorizations run on one OpenBLAS thread, the
    regime kappa was fitted to; the last column is why: at these band
    sizes a second thread makes dpbtrf up to 4-7 times slower (n = 32:
    0.68 ms on one thread, 2.6 ms on two). The band solves and SuperLU
    keep the caller's count, as they cost the same under either (band
    solve at n = 32: 37 and 39 us; SuperLU factor at n = 128: 52-68 ms
    on either, best of 5).

    On SuperLU the ordering, the factorization and the chord step all
    grow close to N, and their ratio only like log b:
    kappa(b) = 6 ln b - 7, fitted to the in-solve ratio of a solve's one
    factorization to its mean iteration net of that factorization (the
    problem and settings of the crossover table, SuperLU forced at every
    n, median of 9 solves):

        n     b    6 ln b - 7  measured (range)
        64    65   18.0        17.6 (16.6-18.4)
        80    81   19.4        18.7 (11.7-19.4)
        96    97   20.4        20.4 (18.2-23.6)
        112   113  21.4        21.7 (18.6-22.7)
        128   129  22.2        20.5 (15.7-22.6)
        160   161  23.5        23.2 (20.7-24.9)

    kappa depends on b alone, so the rule is deterministic.
    """

    def __init__(self, grid, stiffness):
        self._w = grid.slot_weights
        rows = np.repeat(np.arange(stiffness.shape[0]), np.diff(stiffness.indptr))
        cols = stiffness.indices
        self.bandwidth = b = int(np.max(cols - rows, initial=0))
        self.sparse = b >= SPARSE_BANDWIDTH
        if self.sparse:
            # loaded where the grid picks this path, so band-only runs never hold its 2 MB
            from scipy.sparse.linalg import splu

            self._splu = functools.partial(
                splu, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0, options={"SymmetricMode": True}
            )
            self.factor_cost = 6.0 * float(np.log(b)) - 7.0
            # K is symmetric and canonical, so its CSR arrays are its CSC arrays
            self._csc = stiffness.indices, stiffness.indptr
            self._vals = stiffness.data
            self._diag = np.flatnonzero(cols == rows)
            return
        self.factor_cost = b * b / (8 * b + 100)
        upper = cols >= rows
        rows, cols = rows[upper], cols[upper]
        # position of S[i, j], i <= j, in the flattened Fortran-ordered band (distinct: canonical)
        self._pos = b + rows - cols + cols * (b + 1)
        self._vals = stiffness.data[upper]

    def factor(self, c, dt, level=None, residual=None):
        """A factor of S = W M(c) for the slot coefficients c and the time step dt.

        Raises SolverFailureError (carrying level and residual) when S is
        not positive definite.
        """
        if self.sparse:
            return self._sparse_factor(c, dt, level, residual)
        b, num = self.bandwidth, self._w.size
        flat = np.zeros((b + 1) * num)
        flat[self._pos] = self._vals
        band = flat.reshape((b + 1, num), order="F")
        band[b] += self._w / dt
        band[b] += self._w * c
        chol, info = _dpbtrf(band)
        if info > 0:
            raise _not_definite(level, residual)
        return chol

    def _sparse_factor(self, c, dt, level, residual):
        num = self._w.size
        data = self._vals.copy()
        data[self._diag] += self._w / dt
        data[self._diag] += self._w * c
        S = sp.csc_matrix((data, *self._csc), shape=(num, num))
        try:
            lu = self._splu(S)
        except RuntimeError as err:  # "Factor is exactly singular"
            raise _not_definite(level, residual) from err
        # K plus a positive diagonal is positive definite as it stands; only other shifts read
        # the pivots, since reading U caches L and U in the factor and doubles its size
        floor = num * np.finfo(float).eps * data[self._diag].max()
        definite = np.all(data[self._diag] > self._vals[self._diag]) or lu.U.diagonal().min() > floor
        if not (definite and np.array_equal(lu.perm_r, lu.perm_c)):
            raise _not_definite(level, residual)
        return lu

    def solve(self, factor, rhs):
        """Solve M x = rhs for an (N,) right-hand side; rhs is not modified."""
        if self.sparse:
            return factor.solve(self._w * rhs)
        return lapack.dpbtrs(factor, self._w * rhs, overwrite_b=True)[0]

    def solve_transposed(self, factor, rhs):
        """Solve M^T x = rhs for an (N,) right-hand side; rhs is not modified."""
        x = factor.solve(rhs) if self.sparse else lapack.dpbtrs(factor, rhs)[0]
        x *= self._w
        return x


def _not_definite(level, residual):
    return SolverFailureError(
        f"step matrix is not positive definite at step {level}", step=level, residual=residual
    )


def build_operators(grid):
    """Assemble the sparse operator set for a grid.

    The stiffness K is assembled once from the edge list (`_edges`): an
    edge (a, b) of weight k adds k at (a, a) and (b, b) and -k at (a, b)
    and (b, a). coupled is K with each row divided by its slot weight,
    W^-1 K, which is what makes the implicit stepper an exact discrete
    gradient flow (see module docstring). The `StepMatrix` stores K itself.
    """
    a, b, k = edges = _edges(grid)
    ends = (np.concatenate([a, b, a, b]), np.concatenate([a, b, b, a]))
    K = sp.coo_matrix((np.concatenate([k, k, -k, -k]), ends), shape=(grid.num_nodes,) * 2).tocsr()
    # canonical (sorted, duplicate-free) CSR: scipy would otherwise sort the
    # indices in place on first use, which changes matvec roundoff mid-run
    K.sum_duplicates()
    coupled = K.copy()
    coupled.data /= np.repeat(grid.slot_weights, np.diff(K.indptr))
    # entrywise from a copy: abs() of a CSR matrix sorts its indices in place
    coupled_abs = coupled.copy()
    coupled_abs.data = np.abs(coupled_abs.data)

    return OperatorSet(edges=edges, coupled=coupled, coupled_abs=coupled_abs, step=StepMatrix(grid, K))


def space_time_inner(theta, weights, a, b):
    """Space-time pairing of two (levels, nodes) arrays: time weights theta, node weights."""
    return float(np.einsum("k,kj,kj->", theta, a * weights[None, :], b))
