"""Structured unit-square domain with an ordered boundary cycle.

The domain is (0,1)^2 meshed with n cells per side (h = 1/n). Boundary
nodes are traversed once counterclockwise starting at the origin, so the
boundary is a closed discrete curve of length 4 on which a surface
Laplacian acts as a periodic second difference in arclength.

Quadrature is node based: tensor-product trapezoid in the bulk, composite
trapezoid on the boundary cycle, trapezoid along the time axis. All mass
matrices are therefore diagonal, which keeps discrete adjoints plain
(weighted) matrix transposes. `space_time_inner` is the one space-time
pairing built from these weights.

The normal flux in the coupled operator is the summation-by-parts flux:
the boundary rows of the bulk stiffness form divided by the arclength weights.
With that choice the coupled evolution operator is exactly the gradient of
the discrete Dirichlet energy in the node-weight metric, so the implicit
time stepper inherits an exact energy-dissipation property.

What every implicit step reads from the grid is built once per grid: the
slot weights W (`Grid.slot_weights`), |coupled| and the `StepMatrix`, whose
band map every step factorization of every solve shares.
"""

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
        interior_mask: (N,) boolean, True at interior nodes.
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
    interior_mask: np.ndarray
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
        if self.m < 1:
            raise InvalidParameterError(f"m must be at least 1, got {self.m}")

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
        dirichlet_bulk: (N, N) symmetric PSD matrix of the bulk gradient
            energy, 0.5 * z' A z ~ 0.5 * int |grad z|^2.
        dirichlet_surf: (4n, 4n) same for the tangential gradient on the
            cycle.
        coupled: (N, N) evolution operator used by the solvers: interior
            rows are the 5-point negative Laplacian, boundary rows the
            surface Laplacian dirichlet_surf / h on the trace plus the
            normal flux (see module docstring). Row sums vanish, so
            constants are annihilated exactly.
        coupled_abs: (N, N) entrywise |coupled|.
        step: the grid's one `StepMatrix`, built from coupled.
    """

    dirichlet_bulk: sp.csr_matrix
    dirichlet_surf: sp.csr_matrix
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

    interior_mask = np.ones(num, dtype=bool)
    interior_mask[cycle] = False
    interior = np.flatnonzero(interior_mask)

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
        interior_mask=_freeze(interior_mask),
        bulk_weights=_freeze(bulk_w),
        surface_weights=_freeze(surf_w),
        slot_weights=_freeze(slot_w),
    )


def _bulk_stiffness(grid):
    """Assemble the bulk gradient-energy matrix A with z'Az ~ int |grad z|^2.

    Edge weights are midpoint in the edge direction and trapezoid in the
    transverse direction, so interior rows of A/h^2 reproduce the exact
    5-point stencil. An edge (a, b) of weight k adds k at (a, a), (b, b)
    and -k at (a, b), (b, a).
    """
    n, side = grid.n, grid.n + 1
    # int32, the CSR index type at these sizes: the COO indices need no conversion
    line, step = np.arange(side, dtype=np.int32)[:, None], np.arange(n, dtype=np.int32)
    # edges a -> a + 1 along each grid row, then a -> a + side along each grid column
    a = np.concatenate([line * side + step, step * side + line])
    b = a + np.repeat(np.int32([1, side]), side)[:, None]
    k = np.tile(np.where((line > 0) & (line < n), 1.0, 0.5), (2, n))  # halved on boundary lines
    rows = np.stack([a, b, a, b], axis=1).ravel()
    cols = np.stack([a, b, b, a], axis=1).ravel()
    vals = np.stack([k, k, -k, -k], axis=1).ravel()
    return sp.coo_matrix((vals, (rows, cols)), shape=(side * side,) * 2).tocsr()


def _surface_stiffness(grid):
    """Cycle gradient-energy matrix with z'Az ~ int_Gamma |grad_Gamma z|^2."""
    nb = grid.num_boundary
    k = 1.0 / grid.h
    nxt = np.roll(np.arange(nb), -1)
    rows = np.concatenate([np.arange(nb), nxt, np.arange(nb), nxt])
    cols = np.concatenate([np.arange(nb), nxt, nxt, np.arange(nb)])
    vals = np.concatenate([np.full(nb, k), np.full(nb, k), np.full(nb, -k), np.full(nb, -k)])
    return sp.coo_matrix((vals, (rows, cols)), shape=(nb, nb)).tocsr()


class StepMatrix:
    """Band factorizations of the step matrices M(c) = I/dt + coupled + diag(c), coupled CSR.

    With W = diag(slot weights), W coupled = A_bulk + A_surf (see
    `build_operators`) is exactly symmetric, and so is
    S = W M(c) = W coupled + W/dt + W diag(c). In the natural node order S
    is a band whose half-bandwidth (n+1 on a grid with n cells per side) is
    read off the sparsity pattern of `coupled`, which must be canonical
    (sorted, duplicate-free) CSR, as `build_operators` makes it. Only the
    upper entries of W coupled are stored, one per band position, once per
    grid by `build_operators`.
    `factor` assigns them into a fresh zero band in LAPACK layout, adds
    W/dt, then W c, and factors it in place by banded Cholesky (dpbtrf).

    S is positive definite whenever 1/dt + c > 0 on every slot, as
    W coupled is positive semidefinite. On the guarded interval f'' and g''
    are at least 4 alpha - 2 c, so `objective.ControlProblem` makes every
    step matrix of its solves SPD by its step rule dt (2 c - 4 alpha) < 1.
    Solves reuse one factor both ways:
    M x = r is x = S^-1 (W r), and M^T x = r is x = W S^-1 r.

    A factor holds (b+1) N doubles, with b the half-bandwidth: 17.3 MB per
    level at n = 128.

    `factor_cost` = kappa(b) = b^2 / (8 b + 100) prices one factorization
    in chord iterations of `pde_state.solve_state` (a residual evaluation
    plus a band solve): a factorization grows like N b^2, a solve like N b,
    a residual like N. The constants fit the measured ratio of the library's
    own calls (best of 5, tracking problem, dt = 0.0125, shared 2-core Xeon;
    ranges over two runs):

        n     b    kappa(b)  OPENBLAS_NUM_THREADS=1  2 OpenBLAS threads
        4     5    0.18      0.19                    0.20-0.36
        8     9    0.47      0.32-0.34               0.39-0.62
        16    17   1.22      1.11                    6.2-6.6
        32    33   2.99      3.1-5.4                 15.9-27.7
        64    65   6.81      9.9-13.7                12.3-16.3
        128   129  14.7      9.8-16.9                8.8-21.0

    Break-even, kappa = 1, lies between b = 9 and 17 in every run, at 14.8
    in the model. kappa depends on b alone, so the rule is deterministic.
    """

    def __init__(self, grid, coupled):
        self._w = w = grid.slot_weights
        rows = np.repeat(np.arange(coupled.shape[0]), np.diff(coupled.indptr))
        cols = coupled.indices
        upper = cols >= rows
        rows, cols = rows[upper], cols[upper]
        self.bandwidth = b = int(np.max(cols - rows, initial=0))
        self.factor_cost = b * b / (8 * b + 100)
        # position of S[i, j], i <= j, in the flattened Fortran-ordered band (distinct: canonical)
        self._pos = b + rows - cols + cols * (b + 1)
        self._vals = w[rows] * coupled.data[upper]

    def factor(self, c, dt, level=None, residual=None):
        """The Cholesky band of S = W M(c) for the slot coefficients c and the time step dt.

        Raises SolverFailureError (carrying level and residual) when S is
        not positive definite.
        """
        b, num = self.bandwidth, self._w.size
        flat = np.zeros((b + 1) * num)
        flat[self._pos] = self._vals
        band = flat.reshape((b + 1, num), order="F")
        band[b] += self._w / dt
        band[b] += self._w * c
        chol, info = lapack.dpbtrf(band, overwrite_ab=1)
        if info > 0:
            raise SolverFailureError(
                f"step matrix is not positive definite at step {level}", step=level, residual=residual
            )
        return chol

    def solve(self, factor, rhs):
        """Solve M x = rhs for an (N,) right-hand side."""
        return lapack.dpbtrs(factor, self._w * rhs)[0]

    def solve_transposed(self, factor, rhs):
        """Solve M^T x = rhs for an (N,) right-hand side."""
        return self._w * lapack.dpbtrs(factor, rhs)[0]


def build_operators(grid):
    """Assemble the sparse operator set for a grid.

    The coupled operator stacks the interior 5-point rows of the negative
    bulk Laplacian with boundary rows made of the surface Laplacian plus
    the normal flux; it equals diag(weights)^-1 (A_bulk + A_surf), which
    is what makes the implicit stepper an exact discrete gradient flow.
    """
    N = grid.num_nodes
    h2 = grid.h * grid.h

    A = _bulk_stiffness(grid)
    A_surf = _surface_stiffness(grid)

    # interior rows: A row / h^2 is the exact 5-point stencil
    R_int = sp.diags(grid.interior_mask.astype(float))
    L_int_rows = (R_int @ A) / h2

    L_surf = (A_surf / grid.h).tocsr()  # divide by arclength weight h

    # summation-by-parts flux: boundary rows of A over arclength weights
    P_gamma = sp.coo_matrix(
        (np.ones(grid.num_boundary), (np.arange(grid.num_boundary), grid.boundary_cycle)),
        shape=(grid.num_boundary, N),
    ).tocsr()
    B_flux = ((P_gamma @ A).multiply(1.0 / grid.surface_weights[:, None])).tocsr()

    coupled = (L_int_rows + P_gamma.T @ (L_surf @ P_gamma + B_flux)).tocsr()
    # canonical (sorted, duplicate-free) CSR: scipy would otherwise sort the
    # indices in place on first use, which changes matvec roundoff mid-run
    coupled.sum_duplicates()
    # entrywise from a copy: abs() of a CSR matrix sorts its indices in place
    coupled_abs = coupled.copy()
    coupled_abs.data = np.abs(coupled_abs.data)

    return OperatorSet(
        dirichlet_bulk=A,
        dirichlet_surf=A_surf,
        coupled=coupled,
        coupled_abs=coupled_abs,
        step=StepMatrix(grid, coupled),
    )


def space_time_inner(theta, weights, a, b):
    """Space-time pairing of two (levels, nodes) arrays: time weights theta, node weights."""
    return float(np.einsum("k,kj,kj->", theta, a * weights[None, :], b))
