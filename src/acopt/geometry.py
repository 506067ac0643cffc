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
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatchError, InvalidParameterError


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
    """

    n: int
    h: float
    bulk_nodes: np.ndarray
    boundary_cycle: np.ndarray
    interior_nodes: np.ndarray
    interior_mask: np.ndarray
    bulk_weights: np.ndarray
    surface_weights: np.ndarray

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
    """

    dirichlet_bulk: sp.csr_matrix
    dirichlet_surf: sp.csr_matrix
    coupled: sp.csr_matrix


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

    return Grid(
        n=n,
        h=h,
        bulk_nodes=_freeze(nodes),
        boundary_cycle=_freeze(cycle),
        interior_nodes=_freeze(interior),
        interior_mask=_freeze(interior_mask),
        bulk_weights=_freeze(bulk_w),
        surface_weights=_freeze(surf_w),
    )


def _bulk_stiffness(grid):
    """Assemble the bulk gradient-energy matrix A with z'Az ~ int |grad z|^2.

    Edge weights are midpoint in the edge direction and trapezoid in the
    transverse direction, so interior rows of A/h^2 reproduce the exact
    5-point stencil.
    """
    n, side = grid.n, grid.n + 1
    rows, cols, vals = [], [], []

    def add_edges(a, b, k):
        rows.extend([a, b, a, b])
        cols.extend([a, b, b, a])
        vals.extend([k, k, -k, -k])

    for j in range(side):
        k = np.full(n, 1.0 if 0 < j < n else 0.5)
        a = j * side + np.arange(n)
        add_edges(a, a + 1, k)
    for i in range(side):
        k = np.full(n, 1.0 if 0 < i < n else 0.5)
        a = np.arange(n) * side + i
        add_edges(a, a + side, k)

    rows = np.concatenate([np.atleast_1d(r) for r in rows])
    cols = np.concatenate([np.atleast_1d(c) for c in cols])
    vals = np.concatenate([np.atleast_1d(v) for v in vals])
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

    return OperatorSet(
        dirichlet_bulk=A,
        dirichlet_surf=A_surf,
        coupled=coupled,
    )


def inner_product_bulk(a, b, grid):
    """Discrete L2 pairing over the bulk (all nodes, area weights)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != (grid.num_nodes,) or b.shape != (grid.num_nodes,):
        raise DimensionMismatchError(
            f"bulk fields must have shape ({grid.num_nodes},), got {a.shape} and {b.shape}"
        )
    return float(np.dot(a * grid.bulk_weights, b))


def inner_product_surf(a, b, grid):
    """Discrete L2 pairing along the boundary cycle (arclength weights)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    nb = grid.num_boundary
    if a.shape != (nb,) or b.shape != (nb,):
        raise DimensionMismatchError(
            f"surface fields must have shape ({nb},), got {a.shape} and {b.shape}"
        )
    return float(np.dot(a * grid.surface_weights, b))


def space_time_inner(theta, weights, a, b):
    """Space-time pairing of two (levels, nodes) arrays: time weights theta, node weights."""
    return float(np.einsum("k,kj,kj->", theta, a * weights[None, :], b))
