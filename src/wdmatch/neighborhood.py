"""k-nearest-neighbor graphs with convex local reconstruction weights.

Every point is expressed as a convex combination of its k nearest neighbors;
the combination weights minimize the squared reconstruction error over the
probability simplex. Those weights later regularize both the source instance
weights and the target classification responses.
"""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass

from .data import DomainDataset
from .errors import ValidationError
from .qp import BoxEqQP, solve_qp

_GRAM_RIDGE = 1e-10
_ROW_SUM_TOL = 1e-9


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
        """(I - W) v: each value minus its reconstruction from its neighbors."""
        return values - np.einsum("nk,nk->n", self.weights, values[self.neighbors])

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


def build_knn(dataset, k: int, block_rows: int = 1024) -> np.ndarray:
    """Indices of the k nearest points (Euclidean) for every point.

    The point itself is excluded; distance ties break toward the smaller
    index. Search is exact; rows are processed in blocks to bound memory.
    """
    points = _as_matrix(dataset)
    n = points.shape[0]
    if not 1 <= k <= n - 1:
        raise ValidationError(f"k must satisfy 1 <= k <= n-1, got k={k}, n={n}")
    sq_norms = np.einsum("ij,ij->i", points, points)
    neighbors = np.empty((n, k), dtype=np.int64)
    for lo in range(0, n, block_rows):
        hi = min(lo + block_rows, n)
        dists = sq_norms[lo:hi, None] + sq_norms[None, :] - 2.0 * points[lo:hi] @ points.T
        np.maximum(dists, 0.0, out=dists)
        dists[np.arange(lo, hi) - lo, np.arange(lo, hi)] = np.inf
        order = np.argsort(dists, axis=1, kind="stable")
        neighbors[lo:hi] = order[:, :k]
    return neighbors


def solve_reconstruction(point, neighbors) -> np.ndarray:
    """Convex coefficients minimizing ||point - sum_k w_k neighbor_k||^2.

    The simplex-constrained problem is passed to the active-set QP solver; a
    ridge of 1e-10 * trace keeps coincident neighbors from producing a
    singular Gram matrix. The weights do not change when the Gram matrix is
    scaled, so it is scaled by the power of two that brings its trace into
    [0.5, 1); that is exact, and keeps the solver's absolute tolerances
    meaningful for features of any magnitude.
    """
    x = np.asarray(point, dtype=np.float64).reshape(-1)
    nbrs = np.asarray(neighbors, dtype=np.float64)
    if nbrs.ndim != 2 or nbrs.shape[0] < 1:
        raise ValidationError("need at least one neighbor vector")
    if nbrs.shape[1] != x.size:
        raise ValidationError(
            f"neighbor dimension {nbrs.shape[1]} does not match point dimension {x.size}"
        )
    k = nbrs.shape[0]
    # Under the sum-to-one constraint the residual equals sum_k w_k (x - n_k),
    # so the problem reduces to the Gram matrix of the differences; that form
    # is translation-invariant and much better conditioned.
    diffs = x[None, :] - nbrs
    gram = diffs @ diffs.T
    gram = np.ldexp(gram, -np.frexp(np.trace(gram))[1])
    gram += _GRAM_RIDGE * np.trace(gram) * np.eye(k)
    problem = BoxEqQP(
        hess=2.0 * gram,
        lin=np.zeros(k),
        lower=np.zeros(k),
        upper=np.ones(k),
        eq_target=1.0,
    )
    omega = solve_qp(problem).x
    omega = np.maximum(omega, 0.0)
    return omega / omega.sum()


def build_graph(dataset, k: int) -> NeighborhoodGraph:
    """Compose :func:`build_knn` and :func:`solve_reconstruction` per point."""
    points = _as_matrix(dataset)
    neighbors = build_knn(points, k)
    weights = np.empty_like(neighbors, dtype=np.float64)
    for i in range(points.shape[0]):
        weights[i] = solve_reconstruction(points[i], points[neighbors[i]])
    return NeighborhoodGraph(neighbors, weights)


def reconstruction_residuals(points, graph: NeighborhoodGraph) -> np.ndarray:
    """Rows x_i - sum_k w_ik x_{N_ik}; the response-smoothness design matrix."""
    points = _as_matrix(points)
    if points.shape[0] != graph.n:
        raise ValidationError("graph size does not match the point matrix")
    recon = np.einsum("nk,nkm->nm", graph.weights, points[graph.neighbors])
    return points - recon

