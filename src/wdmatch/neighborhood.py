"""k-nearest-neighbor graphs with convex local reconstruction weights.

Every point is expressed as a convex combination of its k nearest neighbors;
the combination weights minimize the squared reconstruction error over the
probability simplex (LLE weights with a sign constraint; Roweis & Saul,
Science 290, 2000). Those weights later regularize both the source instance
weights and the target classification responses. :func:`build_knn` finds the
neighbors exactly, a block of rows at a time within a fixed byte budget: a
partition selects each row's k nearest, ordered by (distance, index), and only
rows with a tie at the k-th distance are sorted in full, so ties always go to
the smaller index. :func:`build_graph` solves the n small simplex QPs of a
point set together, in one vectorised active set; :func:`solve_reconstruction`
runs the same active set on a single point. A built graph applies ``I - W`` and
its adjoint straight from its (n, k) arrays, to vectors of values or to
matrices of point features.
"""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass

from .data import DomainDataset
from .errors import ConvergenceError, ValidationError
from .qp import solve_qp  # noqa: F401  # unused; the benchmark tracer wraps it

_GRAM_RIDGE = 1e-10
_ROW_SUM_TOL = 1e-9
_MULT_TOL = 1e-10  # wrong-sign multiplier that releases a zero weight
_BLOCK_BYTES = 1 << 23  # bytes of squared distances per block in build_knn


@dataclass(frozen=True)
class NeighborhoodGraph:
    """Per-point neighbor indices and reconstruction coefficients.

    ``neighbors[i]`` lists the k nearest points to point i (never i itself);
    ``weights[i]`` is the matching nonnegative coefficient row summing to 1.
    """

    neighbors: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nbrs = np.array(self.neighbors, dtype=np.int64, copy=True)
        wts = np.array(self.weights, dtype=np.float64, copy=True)
        if nbrs.ndim != 2 or nbrs.shape != wts.shape:
            raise ValidationError("neighbors and weights must share an (n, k) shape")
        n = nbrs.shape[0]
        if nbrs.shape[1] < 1:
            raise ValidationError("graph must have at least one neighbor per point")
        if np.any(nbrs < 0) or np.any(nbrs >= n):
            raise ValidationError("neighbor index out of range")
        if np.any(nbrs == np.arange(n)[:, None]):
            raise ValidationError("a point may not neighbor itself")
        if np.any(wts < 0.0):
            raise ValidationError("reconstruction weights must be nonnegative")
        if np.max(np.abs(wts.sum(axis=1) - 1.0)) > _ROW_SUM_TOL:
            raise ValidationError("reconstruction weights must sum to 1 per point")
        nbrs.flags.writeable = False
        wts.flags.writeable = False
        object.__setattr__(self, "neighbors", nbrs)
        object.__setattr__(self, "weights", wts)

    @property
    def n(self) -> int:
        return self.neighbors.shape[0]

    @property
    def k(self) -> int:
        return self.neighbors.shape[1]

    def residual(self, values: np.ndarray) -> np.ndarray:
        """(I - W) v: each value minus its reconstruction from its neighbors.

        ``values`` is an (n,) vector or an (n, m) matrix; a matrix gives the
        rows x_i - sum_k w_ik x_{N_ik}, the response-smoothness design matrix.
        """
        recon = np.einsum("nk,nk...->n...", self.weights, values[self.neighbors])
        return values - recon

    def residual_adjoint(self, values: np.ndarray) -> np.ndarray:
        """(I - W)' v: scatters each row's coefficients back to its neighbors."""
        spread = np.bincount(
            self.neighbors.ravel(),
            weights=(self.weights * values[:, None]).ravel(),
            minlength=self.n,
        )
        return values - spread

    def to_json_dict(self) -> dict:
        return {
            str(i): {
                "neighbors": [int(j) for j in self.neighbors[i]],
                "weights": [float(w) for w in self.weights[i]],
            }
            for i in range(self.n)
        }


def _as_matrix(data) -> np.ndarray:
    if isinstance(data, DomainDataset):
        return data.features
    matrix = np.asarray(data, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValidationError("expected a 2-D point matrix")
    return matrix


def build_knn(dataset, k: int) -> np.ndarray:
    """Indices of the k nearest points (Euclidean) for every point.

    The point itself is excluded; distance ties break toward the smaller
    index, so row i is the first k entries of a stable argsort of its
    squared distances. Search is exact. Rows are processed in blocks of at
    most :data:`_BLOCK_BYTES` of distances each (one row when a row is
    larger), so memory stays O(budget + n k) at any n. In each block
    ``np.argpartition`` selects k candidates per row, which are then ordered
    by (distance, index). That selection is the stable argsort's only where
    exactly k entries lie at or below the row's k-th distance; the other
    rows, where a tie at the k-th distance leaves the choice open, are
    stably sorted in full.
    """
    points = _as_matrix(dataset)
    n = points.shape[0]
    if not 1 <= k <= n - 1:
        raise ValidationError(f"k must satisfy 1 <= k <= n-1, got k={k}, n={n}")
    sq_norms = np.einsum("ij,ij->i", points, points)
    neighbors = np.empty((n, k), dtype=np.int64)
    block = max(1, _BLOCK_BYTES // (8 * n))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        rows = np.arange(hi - lo)
        dists = sq_norms[lo:hi, None] + sq_norms[None, :]
        dists -= 2.0 * points[lo:hi] @ points.T
        np.maximum(dists, 0.0, out=dists)
        dists[rows, rows + lo] = np.inf
        picked = np.argpartition(dists, k - 1, axis=1)[:, :k]
        picked_dists = np.take_along_axis(dists, picked, axis=1)
        order = np.lexsort((picked, picked_dists), axis=1)
        picked = np.take_along_axis(picked, order, axis=1)
        kth = picked_dists.max(axis=1, keepdims=True)
        tied = np.flatnonzero(np.count_nonzero(dists <= kth, axis=1) != k)
        if tied.size:
            picked[tied] = np.argsort(dists[tied], axis=1, kind="stable")[:, :k]
        neighbors[lo:hi] = picked
    return neighbors


def _scaled_grams(diffs) -> np.ndarray:
    """Gram matrices of a (..., k, m) stack of differences x - neighbor.

    Under the sum-to-one constraint the residual equals sum_k w_k (x - n_k),
    so the problem reduces to the Gram matrix of the differences; that form
    is translation-invariant and much better conditioned. The weights do not
    change when a Gram matrix is scaled, so each is scaled by the power of two
    that brings its trace into [0.5, 1); that is exact, and keeps absolute
    tolerances meaningful for features of any magnitude. A ridge of
    1e-10 * trace keeps coincident neighbors from making it singular.
    """
    gram = diffs @ np.swapaxes(diffs, -1, -2)
    exponent = np.frexp(np.trace(gram, axis1=-2, axis2=-1))[1]
    gram = np.ldexp(gram, -exponent[..., None, None])
    ridge = _GRAM_RIDGE * np.trace(gram, axis1=-2, axis2=-1)
    return gram + ridge[..., None, None] * np.eye(gram.shape[-1])


def solve_reconstruction(point, neighbors) -> np.ndarray:
    """Convex coefficients minimizing ||point - sum_k w_k neighbor_k||^2.

    The one-point case of :func:`build_graph`: the same active set on the
    scaled Gram matrix of :func:`_scaled_grams`, so the weights are bitwise
    those of the graph row whose neighbors are ``neighbors``.
    """
    x = np.asarray(point, dtype=np.float64).reshape(-1)
    nbrs = np.asarray(neighbors, dtype=np.float64)
    if nbrs.ndim != 2 or nbrs.shape[0] < 1:
        raise ValidationError("need at least one neighbor vector")
    if nbrs.shape[1] != x.size:
        raise ValidationError(
            f"neighbor dimension {nbrs.shape[1]} does not match point dimension {x.size}"
        )
    return _simplex_weights(_scaled_grams((x - nbrs)[None]))[0]


def _simplex_weights(gram) -> np.ndarray:
    """Minimize w'Gw over the probability simplex for each G of an (n, k, k) stack.

    A primal active set, run on all rows at once. The working set holds the
    weights fixed at zero. Each round solves, for every unfinished row, the
    bordered system for the step from the current weights to the minimizer
    over the free weights; its right-hand side is the projected gradient, so
    a row already at that minimizer does not move. The first weight that
    would turn negative stops the step and joins the working set (lowest
    index on ties). A row that completes its step releases the lowest-index
    zero weight whose multiplier is below -1e-10, and is finished when there
    is none. A zero Gram matrix (every neighbor coincides with the point)
    keeps uniform weights. Rows still unfinished after 50 k rounds raise
    :class:`ConvergenceError`.
    """
    n, k, _ = gram.shape
    weights = np.full((n, k), 1.0 / k)
    free = np.ones((n, k), dtype=bool)
    rows = np.flatnonzero(np.trace(gram, axis1=1, axis2=2) > 0.0)
    eye = np.eye(k, dtype=bool)

    def projected_gradient(g, x, f):
        grad = np.einsum("tij,tj->ti", g, x)
        lam = np.where(f, grad, 0.0).sum(axis=1) / f.sum(axis=1)
        return grad - lam[:, None]

    for _ in range(50 * k):
        if not rows.size:
            break
        g, x, f = gram[rows], weights[rows], free[rows]
        at = np.arange(rows.size)
        system = np.zeros((rows.size, k + 1, k + 1))
        system[:, :k, :k] = np.where(f[:, :, None] & f[:, None, :], g, eye)
        system[:, :k, k] = system[:, k, :k] = f
        rhs = np.zeros((rows.size, k + 1, 1))
        rhs[:, :k, 0] = np.where(f, -projected_gradient(g, x, f), 0.0)
        step = np.where(f, np.linalg.solve(system, rhs)[:, :k, 0], 0.0)
        room = np.divide(x, -step, out=np.full(x.shape, np.inf), where=step < 0.0)
        blocker = room.argmin(axis=1)
        alpha = np.minimum(room[at, blocker], 1.0)
        blocked = alpha < 1.0
        x = np.maximum(x + alpha[:, None] * step, 0.0)
        x[at[blocked], blocker[blocked]] = 0.0
        f[at[blocked], blocker[blocked]] = False

        wrong = ~f & ~blocked[:, None] & (projected_gradient(g, x, f) < -_MULT_TOL)
        release = wrong.any(axis=1)
        f[at[release], wrong.argmax(axis=1)[release]] = True
        weights[rows], free[rows] = x, f
        rows = rows[blocked | release]
    if rows.size:
        raise ConvergenceError(
            f"reconstruction weights of {rows.size} points unfinished "
            f"after {50 * k} active-set rounds"
        )
    return weights / weights.sum(axis=1, keepdims=True)


def build_graph(dataset, k: int) -> NeighborhoodGraph:
    """kNN graph of :func:`build_knn` with every point's reconstruction weights.

    Every point's weights are those :func:`solve_reconstruction` returns for
    it and its neighbors; all are computed together by :func:`_simplex_weights`.
    """
    points = _as_matrix(dataset)
    neighbors = build_knn(points, k)
    diffs = points[neighbors]
    np.subtract(points[:, None, :], diffs, out=diffs)
    return NeighborhoodGraph(neighbors, _simplex_weights(_scaled_grams(diffs)))

