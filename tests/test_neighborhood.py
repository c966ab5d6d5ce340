import numpy as np
import pytest

from wdmatch import neighborhood
from wdmatch.errors import ConvergenceError, ValidationError
from wdmatch.neighborhood import (
    NeighborhoodGraph,
    _scaled_grams,
    build_graph,
    build_knn,
    solve_reconstruction,
)
from wdmatch.qp import BoxEqQP, solve_qp

from qp_oracle import MatrixOperator


def reconstruction_objective(point, neighbors, omega):
    gap = np.asarray(point) - np.asarray(omega) @ np.asarray(neighbors)
    return float(gap @ gap)


def kkt_certificate(point, neighbors, omega, tol=1e-6):
    """Simplex KKT: active coordinates share the gradient value, zeros sit above."""
    neighbors = np.asarray(neighbors, dtype=np.float64)
    grad = 2.0 * (neighbors @ neighbors.T @ omega - neighbors @ np.asarray(point))
    active = omega > 1e-9
    lam = grad[active].mean()
    if np.max(np.abs(grad[active] - lam)) > tol:
        return False
    return bool(np.all(grad[~active] >= lam - tol))


def stable_argsort_knn(points, k):
    """The k first entries of a stable argsort of each row's squared distances."""
    sq_norms = np.einsum("ij,ij->i", points, points)
    dists = sq_norms[:, None] + sq_norms[None, :] - 2.0 * points @ points.T
    np.maximum(dists, 0.0, out=dists)
    np.fill_diagonal(dists, np.inf)
    return np.argsort(dists, axis=1, kind="stable")[:, :k]


class TestBuildKnn:
    def test_three_points_on_a_line(self):
        pts = np.array([[0.0], [1.0], [10.0]])
        nbrs = build_knn(pts, 1)
        assert nbrs.tolist() == [[1], [0], [1]]

    def test_coincident_pair(self):
        pts = np.array([[2.0, 2.0], [2.0, 2.0]])
        assert build_knn(pts, 1).tolist() == [[1], [0]]

    def test_one_dimensional_points_rejected(self):
        with pytest.raises(ValidationError, match="^expected a 2-D point matrix$"):
            build_knn(np.array([0.0, 1.0, 2.0]), 1)

    def test_tie_break_ascending_index(self):
        pts = np.array([[0.0], [1.0], [-1.0], [1.0]])
        # Points 1, 2 and 3 are all at distance 1 from point 0.
        assert build_knn(pts, 2)[0].tolist() == [1, 2]

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(42)
        pts = rng.standard_normal((50, 5))
        nbrs = build_knn(pts, 5)
        for i in range(50):
            dists = np.linalg.norm(pts - pts[i], axis=1)
            dists[i] = np.inf
            expected = np.argsort(dists, kind="stable")[:5]
            np.testing.assert_array_equal(nbrs[i], expected)

    def test_tie_at_kth_distance_takes_smaller_indices(self):
        # From point 0: point 4 at 0.25, then points 2, 3 and 5 tie at 1.
        pts = np.array([[0.0], [5.0], [1.0], [-1.0], [0.5], [1.0]])
        assert build_knn(pts, 3)[0].tolist() == [4, 2, 3]

    @pytest.mark.parametrize("case", ["random", "rounded", "duplicated", "k=n-1",
                                      "k=n-1 rounded"])
    def test_matches_stable_argsort(self, case):
        rng = np.random.default_rng(7)
        if case == "random":
            pts, k = rng.standard_normal((300, 4)), 5
        elif case == "rounded":
            pts, k = np.round(rng.standard_normal((400, 2)), 1), 7
        elif case == "duplicated":
            pts, k = np.tile(rng.standard_normal((50, 3)), (6, 1)), 8
        elif case == "k=n-1":
            pts = rng.standard_normal((40, 3))
            k = len(pts) - 1
        else:
            pts = np.round(rng.standard_normal((40, 2)), 1)
            k = len(pts) - 1
        np.testing.assert_array_equal(build_knn(pts, k), stable_argsort_knn(pts, k))

    def test_blocks_match_stable_argsort(self, monkeypatch):
        rng = np.random.default_rng(8)
        pts = np.round(rng.standard_normal((100, 2)), 1)
        # 7 rows of distances per block: 15 blocks, the last one short.
        monkeypatch.setattr(neighborhood, "_BLOCK_BYTES", 7 * 8 * len(pts))
        np.testing.assert_array_equal(build_knn(pts, 6), stable_argsort_knn(pts, 6))

    def test_k_out_of_range(self):
        pts = np.zeros((4, 2))
        with pytest.raises(ValidationError):
            build_knn(pts, 4)
        with pytest.raises(ValidationError):
            build_knn(pts, 0)


class TestSolveReconstruction:
    def test_identity_case(self):
        omega = solve_reconstruction([1.5, -2.0], [[1.5, -2.0]])
        np.testing.assert_allclose(omega, [1.0], atol=1e-12)
        assert reconstruction_objective([1.5, -2.0], [[1.5, -2.0]], omega) <= 1e-12

    def test_zero_neighbors_rejected(self):
        with pytest.raises(ValidationError, match="^need at least one neighbor vector$"):
            solve_reconstruction([1.0, 2.0], np.zeros((0, 2)))

    def test_midpoint_symmetry(self):
        omega = solve_reconstruction([0.0, 0.0], [[1.0, 1.0], [-1.0, -1.0]])
        np.testing.assert_allclose(omega, [0.5, 0.5], atol=1e-9)

    def test_grid_search_case(self):
        # 1-D reduction: omega = (1-t, t); grid over t at step 1e-5.
        point, nbrs = np.array([1.0, 0.0]), np.array([[0.0, 0.0], [2.0, 1.0]])
        ts = np.arange(0.0, 1.0 + 1e-5, 1e-5)
        resid = (1.0 - 2.0 * ts) ** 2 + ts**2
        t_star = ts[np.argmin(resid)]
        omega = solve_reconstruction(point, nbrs)
        np.testing.assert_allclose(omega, [1.0 - t_star, t_star], atol=1e-3)
        np.testing.assert_allclose(omega, [0.6, 0.4], atol=1e-6)
        assert reconstruction_objective(point, nbrs, omega) == pytest.approx(0.2, abs=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            solve_reconstruction([1.0, 2.0], [[1.0, 2.0, 3.0]])

    def test_coincident_neighbors_stay_solvable(self):
        omega = solve_reconstruction([1.0, 1.0], [[2.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        assert np.all(omega >= 0.0)
        assert omega.sum() == pytest.approx(1.0, abs=1e-9)

    def test_kkt_on_random_instances(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            k, m = int(rng.integers(1, 6)), int(rng.integers(1, 5))
            point = rng.standard_normal(m)
            nbrs = rng.standard_normal((k, m))
            omega = solve_reconstruction(point, nbrs)
            assert kkt_certificate(point, nbrs, omega)

    def test_translation_invariance(self):
        rng = np.random.default_rng(31)
        point = rng.standard_normal(4)
        nbrs = rng.standard_normal((3, 4))
        shift = rng.standard_normal(4) * 10.0
        base = solve_reconstruction(point, nbrs)
        shifted = solve_reconstruction(point + shift, nbrs + shift)
        np.testing.assert_allclose(base, shifted, atol=1e-8)

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        point = rng.standard_normal(3)
        nbrs = rng.standard_normal((4, 3))
        np.testing.assert_array_equal(
            solve_reconstruction(point, nbrs), solve_reconstruction(point, nbrs)
        )

    def test_unfinished_rows_raise(self, monkeypatch):
        # With every zero weight released at once, the point past both of its
        # neighbors makes the active set cycle: the unconstrained weights
        # (2, -1) block at the second, which is then released again.
        monkeypatch.setattr(neighborhood, "_MULT_TOL", -np.inf)
        with pytest.raises(ConvergenceError, match="^reconstruction weights of 1 points "
                                                   "unfinished after 100 active-set rounds$"):
            solve_reconstruction([0.0], [[1.0], [2.0]])


def gpcg_reconstruction(point, neighbors):
    """Reconstruction weights by a second method: GPCG on the same scaled Gram
    matrix, its answer clipped at 0 and renormalised to sum to 1."""
    gram = _scaled_grams((np.asarray(point) - np.asarray(neighbors))[None])[0]
    k = gram.shape[0]
    problem = BoxEqQP(MatrixOperator(2.0 * gram), np.zeros(k), np.zeros(k),
                      np.ones(k), 1.0)
    omega = np.maximum(solve_qp(problem).x, 0.0)
    return omega / omega.sum()


def graph_and_reference(points, k):
    """build_graph's graph and, per point, the GPCG reference weights."""
    graph = build_graph(points, k)
    reference = np.array([
        gpcg_reconstruction(points[i], points[graph.neighbors[i]])
        for i in range(points.shape[0])
    ])
    return graph, reference


class TestBuildGraph:
    @pytest.mark.parametrize(
        "points, k",
        [
            (np.random.default_rng(seed).standard_normal((80, 6)), 5)
            for seed in range(3)
        ]
        + [
            (np.random.default_rng(3).standard_normal((20, 3)), 1),
            (np.random.default_rng(4).standard_normal((7, 8)), 6),
            (np.random.default_rng(5).standard_normal((12, 12)), 11),
        ],
        ids=["random-0", "random-1", "random-2", "k=1", "k=n-1", "k=n-1-square"],
    )
    def test_weights_match_reference(self, points, k):
        # k <= m throughout: with more neighbors than dimensions the
        # differences are linearly dependent, the 1e-10 ridge alone decides
        # the weights (condition number about 1e10), and solvers that meet
        # the same certificate can disagree by far more than 1e-10.
        graph, reference = graph_and_reference(points, k)
        np.testing.assert_allclose(graph.weights, reference, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("seed", range(3))
    def test_coincident_neighbors_get_uniform_weights(self, seed):
        # Four copies of one point among random points: with k = 3, each
        # copy's neighbors all coincide with it.
        rng = np.random.default_rng(seed)
        points = np.vstack([np.tile(rng.standard_normal(3), (4, 1)),
                            rng.standard_normal((20, 3))])
        graph = build_graph(points, 3)
        uniform = np.full(3, 1.0 / 3.0)
        for i in range(4):
            np.testing.assert_array_equal(graph.weights[i], uniform)
            np.testing.assert_array_equal(
                solve_reconstruction(points[i], points[graph.neighbors[i]]), uniform
            )

    def test_coincident_pair_splits_evenly(self):
        # A point whose two neighbors coincide: only the ridge decides their
        # split, which by symmetry is even. Solving for the step from the
        # uniform start keeps it exact; solving the bordered system for the
        # weights themselves misses by up to 1e-6 (condition number 1e10).
        for seed in range(50):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(1, 6))
            pair = rng.standard_normal(m)
            points = np.vstack([rng.standard_normal(m), pair, pair,
                                100.0 + rng.standard_normal((3, m))])
            np.testing.assert_array_equal(build_graph(points, 2).weights[0], [0.5, 0.5])

    @pytest.mark.parametrize("seed", range(3))
    def test_duplicated_points(self, seed):
        # Every point appears twice. A point's twin is its nearest neighbor,
        # at distance zero, and takes all but about 1e-10 of its weight; the
        # other neighbors come in coincident pairs, whose split of the rest is
        # not resolved below the 1e-10 multiplier tolerance. Summed over each
        # group of coincident neighbors, the weights match the reference.
        points = np.random.default_rng(seed).standard_normal((30, 4))
        points = np.vstack([points, points])
        graph, reference = graph_and_reference(points, 3)
        twins = np.concatenate([np.arange(30, 60), np.arange(30)])
        np.testing.assert_array_equal(graph.neighbors[:, 0], twins)
        np.testing.assert_allclose(graph.weights, reference, rtol=0, atol=1e-9)
        for i in range(60):
            groups = graph.neighbors[i] % 30
            for j in np.unique(groups):
                assert abs(graph.weights[i][groups == j].sum()
                           - reference[i][groups == j].sum()) <= 1e-10

    @pytest.mark.parametrize("case", ["k<m", "k>m", "k=n-1", "duplicated",
                                      "coincident", "rounded"])
    def test_rows_are_solve_reconstruction(self, case):
        # One point's solve is bitwise its graph row, wherever the ridge or a
        # zero Gram matrix decides the weights.
        rng = np.random.default_rng(40)
        if case == "k<m":
            points, k = rng.standard_normal((60, 6)), 4
        elif case == "k>m":
            points, k = rng.standard_normal((60, 3)), 8
        elif case == "k=n-1":
            points, k = rng.standard_normal((15, 4)), 14
        elif case == "duplicated":
            points, k = np.vstack([rng.standard_normal((30, 4))] * 2), 5
        elif case == "coincident":
            points = np.vstack([np.tile(rng.standard_normal(3), (4, 1)),
                                rng.standard_normal((20, 3))])
            k = 6
        else:
            points, k = np.round(rng.standard_normal((80, 2)), 1), 7
        graph = build_graph(points, k)
        for i in range(points.shape[0]):
            np.testing.assert_array_equal(
                solve_reconstruction(points[i], points[graph.neighbors[i]]),
                graph.weights[i],
            )

    def test_collinear_midpoint(self):
        graph = build_graph(np.array([[0.0], [1.0], [2.0]]), 2)
        middle = graph.weights[1][np.argsort(graph.neighbors[1])]
        np.testing.assert_allclose(middle, [0.5, 0.5], atol=1e-9)

    def test_invariants(self):
        rng = np.random.default_rng(77)
        graph = build_graph(rng.standard_normal((30, 4)), 3)
        assert np.all(graph.weights >= 0.0)
        np.testing.assert_allclose(graph.weights.sum(axis=1), 1.0, atol=1e-9)
        assert not np.any(graph.neighbors == np.arange(30)[:, None])

    def test_beats_uniform_weights(self):
        rng = np.random.default_rng(15)
        pts = rng.standard_normal((30, 3))
        graph = build_graph(pts, 3)
        for i in range(30):
            nbrs = pts[graph.neighbors[i]]
            solved = reconstruction_objective(pts[i], nbrs, graph.weights[i])
            uniform = reconstruction_objective(pts[i], nbrs, np.full(3, 1.0 / 3.0))
            assert solved <= uniform + 1e-9

    def test_graph_validation(self):
        with pytest.raises(ValidationError):
            NeighborhoodGraph(np.array([[0], [0]]), np.array([[1.0], [1.0]]))
        with pytest.raises(ValidationError):
            NeighborhoodGraph(np.array([[1], [0]]), np.array([[0.5], [1.0]]))
        with pytest.raises(ValidationError):
            NeighborhoodGraph(np.array([[1], [0]]), np.array([[-0.1], [1.1]]))


class TestGraphOperators:
    def test_residuals_match_direct_sum(self):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((12, 3))
        graph = build_graph(pts, 2)
        resid = graph.residual(pts)
        for i in range(12):
            direct = pts[i] - graph.weights[i] @ pts[graph.neighbors[i]]
            np.testing.assert_allclose(resid[i], direct, atol=1e-12)

    @pytest.mark.parametrize("n, k, m", [(40, 2, 5), (40, 3, 5), (30, 29, 30), (25, 4, 1)])
    def test_matrix_residual_matches_vector_residual_per_column(self, n, k, m):
        rng = np.random.default_rng(n + k + m)
        pts = rng.standard_normal((n, m))
        graph = build_graph(pts, k)
        weights, nbrs = graph.weights, graph.neighbors
        matrix = graph.residual(pts)
        # Each shape reproduces its own einsum bitwise.
        np.testing.assert_array_equal(
            matrix, pts - np.einsum("nk,nkm->nm", weights, pts[nbrs])
        )
        columns = []
        for j in range(m):
            col = pts[:, j]
            columns.append(graph.residual(col))
            np.testing.assert_array_equal(
                columns[-1], col - np.einsum("nk,nk->n", weights, col[nbrs])
            )
        # einsum orders a vector's k-term sums differently from a matrix's, so
        # from k = 3 the two agree to rounding of a convex combination only.
        bound = (k + 1) * np.finfo(float).eps * np.abs(pts).max()
        np.testing.assert_allclose(matrix, np.column_stack(columns), rtol=0, atol=bound)

    def test_residual_and_adjoint_match_dense_operator(self):
        rng = np.random.default_rng(6)
        pts = rng.standard_normal((10, 2))
        pts[0] = 50.0  # far away, so no point has it among its neighbors
        graph = build_graph(pts, 2)
        assert 0 not in graph.neighbors
        dense = np.eye(10)
        for i in range(10):
            for j, w in zip(graph.neighbors[i], graph.weights[i]):
                dense[i, j] -= w
        values = rng.standard_normal(10)
        np.testing.assert_allclose(graph.residual(values), dense @ values, atol=1e-12)
        np.testing.assert_allclose(
            graph.residual_adjoint(values), dense.T @ values, atol=1e-12
        )

    def test_json_dump_shape(self):
        graph = build_graph(np.array([[0.0], [1.0], [2.0]]), 2)
        payload = graph.to_json_dict()
        assert set(payload) == {"0", "1", "2"}
        assert len(payload["0"]["neighbors"]) == 2

    @pytest.mark.parametrize("neighbors, weights, message", [
        ([[1], [0]], [[0.5, 0.5], [0.5, 0.5]],
         r"^neighbors and weights must share an \(n, k\) shape$"),
        (np.zeros((2, 0)), np.zeros((2, 0)),
         "^graph must have at least one neighbor per point$"),
        ([[2], [0]], [[1.0], [1.0]], "^neighbor index out of range$"),
        ([[1], [-1]], [[1.0], [1.0]], "^neighbor index out of range$"),
    ])
    def test_invalid_graph_rejected(self, neighbors, weights, message):
        with pytest.raises(ValidationError, match=message):
            NeighborhoodGraph(neighbors, weights)


class TestFeatureScale:
    def test_weights_do_not_depend_on_feature_scale(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            m, k = int(rng.integers(1, 8)), int(rng.integers(2, 7))
            point, nbrs = rng.standard_normal(m), rng.standard_normal((k, m))
            base = solve_reconstruction(point, nbrs)
            for scale in 10.0 ** np.arange(-8, 7):
                np.testing.assert_allclose(
                    solve_reconstruction(scale * point, scale * nbrs), base, atol=1e-10
                )
            for power in (-27, -3, 5, 20):
                np.testing.assert_array_equal(
                    solve_reconstruction(np.ldexp(point, power), np.ldexp(nbrs, power)),
                    base,
                )

    @pytest.mark.parametrize("scale", 10.0 ** np.arange(-8, 7))
    def test_graph_matches_reference_at_scale(self, scale):
        points = np.random.default_rng(22).standard_normal((40, 5))
        graph, reference = graph_and_reference(scale * points, 4)
        np.testing.assert_allclose(graph.weights, reference, rtol=0, atol=1e-10)
        np.testing.assert_allclose(
            graph.weights, build_graph(points, 4).weights, atol=1e-10
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_graph_on_raw_scale_features(self, seed):
        pts = np.random.default_rng(seed).normal(size=(200, 5))
        raw = build_graph(pts * 1e3, 5)
        unit = build_graph(pts, 5)
        np.testing.assert_array_equal(raw.neighbors, unit.neighbors)
        np.testing.assert_allclose(raw.weights, unit.weights, atol=1e-10)
