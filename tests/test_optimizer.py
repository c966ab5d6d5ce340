import dataclasses
import logging

import numpy as np
import pytest

from wdmatch.data import DomainDataset, SyntheticShiftSpec, generate_synthetic_pair
from wdmatch.errors import ValidationError
from wdmatch.evaluate import (
    accuracy,
    baseline_source_only,
    benchmark_hyperparams,
    rotated_benchmark_spec,
)
from wdmatch.data import synthetic_pair_with_hidden_labels
from wdmatch.model import (
    HyperParams,
    Problem,
    SourceWeights,
    TransferModel,
    classify_target,
    hinge_losses,
    objective,
)
from wdmatch import optimizer
from wdmatch.neighborhood import NeighborhoodGraph, build_graph
from wdmatch.qp import QPSolution, solve_qp
from wdmatch.optimizer import (
    InstanceWeightHessian,
    OptState,
    fit,
    halving_descent,
    min_trace_rows,
    q_value,
    solve_pi,
    solve_theta,
    solve_w,
    subgradients,
    update_phi_psi,
)


def random_orthonormal_rows(rng, r, m):
    q, _ = np.linalg.qr(rng.standard_normal((m, r)))
    return q.T


def small_problem(seed, n1=10, n2=10, m=4, k=2):
    rng = np.random.default_rng(seed)
    source = DomainDataset(
        rng.standard_normal((n1, m)), np.where(rng.random(n1) < 0.5, 1.0, -1.0)
    )
    n3 = max(1, n2 // 2)
    target = DomainDataset(
        rng.standard_normal((n2, m)), np.where(rng.random(n3) < 0.5, 1.0, -1.0)
    )
    return rng, source, target, (build_graph(source, k), build_graph(target, k))


def one_point_problem(target, hp):
    """Source point [1, 0] (label +1, weight 1) plus a weightless copy of it.

    A neighborhood graph needs two points; the copy's zero weight leaves every
    block value and subgradient bitwise what the single point gives.
    """
    source = DomainDataset([[1.0, 0.0], [1.0, 0.0]], [1.0, 1.0])
    problem = Problem(
        source, target, hp, build_graph(source, 1), build_graph(target, 1)
    )
    return problem, np.array([1.0, 0.0])


class TestSolveW:
    def test_zero_case(self):
        theta = np.eye(3)[:2]
        np.testing.assert_array_equal(solve_w(theta, np.zeros(3), np.zeros(3)), [0.0, 0.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="^phi/psi length does not match theta$"):
            solve_w(np.eye(3)[:2], np.zeros(3), np.zeros(2))

    def test_coordinate_row(self):
        theta = np.array([[1.0, 0.0, 0.0]])
        w = solve_w(theta, [2.0, 6.0, 0.0], [0.0, 0.0, 0.0])
        np.testing.assert_allclose(w, [1.0])

    def test_numerical_stationarity(self):
        rng = np.random.default_rng(1)
        theta = random_orthonormal_rows(rng, 3, 6)
        phi, psi = rng.standard_normal(6), rng.standard_normal(6)
        w = solve_w(theta, phi, psi)

        def coupling(wv):
            return (
                np.linalg.norm(phi - theta.T @ wv) ** 2
                + np.linalg.norm(psi - theta.T @ wv) ** 2
            )

        h = 1e-5
        grad = np.empty(3)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            grad[i] = (coupling(w + e) - coupling(w - e)) / (2 * h)
        assert np.linalg.norm(grad) <= 1e-6


class TestMinTraceRows:
    def test_rank_one_negative_direction(self):
        rows = min_trace_rows([(-1.0, np.array([3.0, 0.0, 0.0]))], 3, 1)
        np.testing.assert_allclose(rows, [[1.0, 0.0, 0.0]], atol=1e-12)

    @pytest.mark.parametrize("r", [0, 4])
    def test_rank_outside_one_to_m_rejected(self, r):
        with pytest.raises(ValidationError, match=f"^need 1 <= r <= m, got r={r}, m=3$"):
            min_trace_rows([(1.0, np.ones(3))], 3, r)

    def test_term_of_wrong_length_rejected(self):
        with pytest.raises(ValidationError, match="^term vector has the wrong dimension$"):
            min_trace_rows([(1.0, np.ones(3)), (-1.0, np.ones(4))], 3, 1)

    def test_zero_matrix_gives_canonical_basis(self):
        rows = min_trace_rows([(0.5, np.zeros(4))], 4, 2)
        np.testing.assert_array_equal(rows, np.eye(4)[:2])

    def test_excludes_positive_direction_when_possible(self):
        # One harmful direction, one favorable; r=1 must take the negative one.
        rows = min_trace_rows(
            [(-2.0, np.array([0.0, 1.0, 0.0])), (5.0, np.array([1.0, 0.0, 0.0]))], 3, 1
        )
        np.testing.assert_allclose(np.abs(rows), [[0.0, 1.0, 0.0]], atol=1e-12)

    def test_orthonormal_output(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = int(rng.integers(3, 401))
            r = int(rng.integers(1, m + 1))
            terms = [
                (-float(rng.uniform(0.1, 3)), rng.standard_normal(m)),
                (float(rng.uniform(0.1, 3)), rng.standard_normal(m)),
            ]
            rows = min_trace_rows(terms, m, r)
            np.testing.assert_allclose(rows @ rows.T, np.eye(r), atol=1e-10)

    @pytest.mark.parametrize("m, r", [(5, 3), (40, 20), (400, 20)])
    def test_completion_spans_projected_canonical_vectors(self, m, r):
        # One negative and one positive term: row 0 is the negative
        # eigenvector, and the other r - 1 rows must span the projections of
        # e_1 ... e_{r-1} onto the complement of the term span.
        rng = np.random.default_rng(m)
        terms = [(-1.5, rng.standard_normal(m)), (2.0, rng.standard_normal(m))]
        rows = min_trace_rows(terms, m, r)
        span, _ = np.linalg.qr(np.column_stack([v for _, v in terms]))
        expected, _ = np.linalg.qr(
            np.eye(m)[:, : r - 1] - span @ (span.T @ np.eye(m)[:, : r - 1])
        )
        np.testing.assert_allclose(
            rows[1:].T @ rows[1:], expected @ expected.T, atol=1e-10
        )

    def test_completion_when_canonical_vectors_lie_in_span(self):
        rows = min_trace_rows([(-1.0, np.eye(4)[0]), (-2.0, np.eye(4)[1])], 4, 3)
        np.testing.assert_allclose(rows, np.eye(4)[[1, 0, 2]], atol=1e-12)

    def test_beats_random_orthonormal_sampling(self):
        rng = np.random.default_rng(3)
        m, r = 6, 2
        terms = [
            (-float(rng.uniform(0.5, 2.0)), rng.standard_normal(m)),
            (float(rng.uniform(0.5, 2.0)), rng.standard_normal(m)),
        ]
        big_m = sum(c * np.outer(v, v) for c, v in terms)
        rows = min_trace_rows(terms, m, r)
        achieved = np.trace(rows @ big_m @ rows.T)
        samples = rng.standard_normal((10_000, m, r))
        qs, _ = np.linalg.qr(samples)
        traces = np.einsum("nmr,mk,nkr->n", qs, big_m, qs)
        assert achieved <= traces.min() + 1e-10


class TestSolveTheta:
    def test_matches_engine_on_data(self):
        _, source, target, graphs = small_problem(5)
        weights = SourceWeights.uniform(source.n, 3.0)
        hp = HyperParams(r=2, c1=0.8, c3=1.7)
        rng = np.random.default_rng(6)
        phi, psi = rng.standard_normal(4), rng.standard_normal(4)
        theta = solve_theta(Problem(source, target, hp, *graphs), phi, psi, weights)
        gap = source.features.T @ weights.pi / source.n - target.features.mean(axis=0)
        expected = min_trace_rows(
            [(-hp.c1 / 4.0, phi + psi), (hp.c3 / 2.0, gap)], 4, 2
        )
        np.testing.assert_array_equal(theta, expected)

    def test_degenerate_case_canonical(self):
        # c1 = 0 and a zero mean gap leave the zero matrix.
        feats = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        source = DomainDataset(feats, [1.0, -1.0])
        target = DomainDataset(feats, [1.0])
        weights = SourceWeights.uniform(2, 3.0)
        hp = HyperParams(c1=0.0, r=2)
        problem = Problem(
            source, target, hp, build_graph(source, 1), build_graph(target, 1)
        )
        theta = solve_theta(problem, np.zeros(3), np.zeros(3), weights)
        np.testing.assert_array_equal(theta, np.eye(3)[:2])


class TestSubgradients:
    def test_single_active_point(self):
        target = DomainDataset([[0.0, 1.0], [0.0, -1.0]], [1.0])
        hp = HyperParams(c1=0.0, c2=0.0)
        problem, pi = one_point_problem(target, hp)
        shared = np.eye(2)[:1].T @ np.zeros(1)
        g_phi, _ = subgradients(problem, np.zeros(2), np.zeros(2), shared, pi)
        np.testing.assert_allclose(g_phi, [-1.0, 0.0])

    def test_hinge_at_zero_slack_is_active(self):
        # Scores exactly on the margin (slack 0) count as active hinges.
        target = DomainDataset([[0.0, 1.0], [0.0, 2.0]], [1.0])
        hp = HyperParams(c1=0.0, c2=0.0)
        problem, pi = one_point_problem(target, hp)
        shared = np.eye(2)[:1].T @ np.zeros(1)
        g_phi, g_psi = subgradients(
            problem, np.array([1.0, 0.0]), np.array([0.0, 1.0]), shared, pi
        )
        np.testing.assert_array_equal(g_phi, [-1.0, 0.0])
        np.testing.assert_array_equal(g_psi, [0.0, -1.0])

    def test_inactive_hinges_zero(self):
        # Scores far beyond the margin and c1 = c2 = 0: both subgradients vanish.
        target = DomainDataset([[0.0, 1.0], [0.0, 2.0]], [1.0])
        hp = HyperParams(c1=0.0, c2=0.0)
        problem, pi = one_point_problem(target, hp)
        shared = np.eye(2)[:1].T @ np.zeros(1)
        g_phi, g_psi = subgradients(
            problem, np.array([5.0, 0.0]), np.array([0.0, 5.0]), shared, pi
        )
        np.testing.assert_array_equal(g_phi, [0.0, 0.0])
        np.testing.assert_array_equal(g_psi, [0.0, 0.0])

    def test_matches_finite_differences_off_the_kink(self):
        checked = 0
        seed = 0
        while checked < 10:
            seed += 1
            rng, source, target, graphs = small_problem(seed)
            theta = random_orthonormal_rows(rng, 2, 4)
            w = rng.standard_normal(2)
            phi, psi = rng.standard_normal(4), rng.standard_normal(4)
            weights = SourceWeights.uniform(source.n, 3.0)
            hp = HyperParams(c1=0.9, c2=1.4)
            problem = Problem(source, target, hp, *graphs)
            shared = theta.T @ w
            margin_s = np.abs(1.0 - source.labels * (source.features @ phi))
            margin_t = np.abs(
                1.0 - target.labels * (target.features[: target.labeled_count] @ psi)
            )
            if min(margin_s.min(), margin_t.min()) < 1e-3:
                continue  # too close to the hinge kink for finite differences
            checked += 1
            g_phi, g_psi = subgradients(problem, phi, psi, shared, weights.pi)
            h = 1e-6
            for vec, grad, which in ((phi, g_phi, "phi"), (psi, g_psi, "psi")):
                for i in range(4):
                    e = np.zeros(4)
                    e[i] = h
                    if which == "phi":
                        up = q_value(problem, vec + e, psi, shared, weights.pi)
                        dn = q_value(problem, vec - e, psi, shared, weights.pi)
                    else:
                        up = q_value(problem, phi, vec + e, shared, weights.pi)
                        dn = q_value(problem, phi, vec - e, shared, weights.pi)
                    fd = (up - dn) / (2 * h)
                    assert fd == pytest.approx(grad[i], rel=1e-5, abs=1e-5)


class TestUpdatePhiPsi:
    def test_stationary_input_unchanged(self):
        # Everything inactive and no pull terms: subgradients are exactly zero.
        target = DomainDataset([[0.0, 1.0], [0.0, 2.0]], [1.0])
        hp = HyperParams(c1=0.0, c2=0.0, subgrad_iters=25)
        problem, pi = one_point_problem(target, hp)
        phi0, psi0 = np.array([5.0, 0.0]), np.array([0.0, 5.0])
        shared = np.eye(2)[:1].T @ np.zeros(1)
        (phi, psi), _ = update_phi_psi(problem, phi0, psi0, shared, pi)
        np.testing.assert_array_equal(phi, phi0)
        np.testing.assert_array_equal(psi, psi0)

    def test_strict_decrease_on_convex_instance(self):
        target = DomainDataset([[0.0, 1.0], [0.0, -1.0]], [1.0])
        hp = HyperParams(c1=0.5, c2=0.5, subgrad_iters=1)
        problem, pi = one_point_problem(target, hp)
        shared = np.eye(2)[:1].T @ np.zeros(1)
        before = q_value(problem, np.zeros(2), np.zeros(2), shared, pi)
        (phi, psi), _ = update_phi_psi(problem, np.zeros(2), np.zeros(2), shared, pi)
        after = q_value(problem, phi, psi, shared, pi)
        assert after < before

    def test_never_increases(self):
        for seed in range(5):
            rng, source, target, graphs = small_problem(60 + seed)
            theta = random_orthonormal_rows(rng, 2, 4)
            w = rng.standard_normal(2)
            weights = SourceWeights.uniform(source.n, 3.0)
            hp = HyperParams(subgrad_iters=30)
            phi0, psi0 = rng.standard_normal(4), rng.standard_normal(4)
            problem = Problem(source, target, hp, *graphs)
            fixed = (theta.T @ w, weights.pi)
            (phi, psi), _ = update_phi_psi(problem, phi0, psi0, *fixed)
            assert (q_value(problem, phi, psi, *fixed)
                    <= q_value(problem, phi0, psi0, *fixed) + 1e-12)


def block_instance(seed, c1, c2):
    """A (phi, psi) block with pi entries at 0 and at delta = 3, plus a start."""
    rng, source, target, graphs = small_problem(seed, n1=12, n2=14, k=3)
    problem = Problem(source, target, HyperParams(c1=c1, c2=c2, delta=3.0), *graphs)
    pi = rng.permutation(np.r_[0.0, 0.0, 3.0, 3.0, np.full(8, 0.75)])
    shared = random_orthonormal_rows(rng, 2, 4).T @ rng.standard_normal(2)
    return problem, pi, shared, rng.standard_normal(4), rng.standard_normal(4)


class TestExactBlock:
    @pytest.mark.parametrize("seed, c1, c2", [
        (0, 1.0, 1.0), (1, 0.2, 3.0), (2, 3.0, 0.0), (3, 0.7, 0.4),
    ])
    def test_not_above_long_halving_descent(self, seed, c1, c2):
        problem, pi, shared, phi0, psi0 = block_instance(300 + seed, c1, c2)
        (phi, psi), _ = update_phi_psi(problem, phi0, psi0, shared, pi)
        exact = q_value(problem, phi, psi, shared, pi)
        reference = q_value(problem, *halving_descent(
            lambda p: q_value(problem, *p, shared, pi),
            lambda p: subgradients(problem, *p, shared, pi),
            (phi0, psi0), 2000, 0.1,
        ), shared, pi)
        assert exact <= reference + 1e-10 * max(1.0, abs(reference))

    @pytest.mark.parametrize("seed", range(6))
    def test_primal_from_dual(self, seed):
        c1, c2 = 0.5 + seed / 4.0, 0.3 * seed
        problem, pi, shared, phi0, psi0 = block_instance(320 + seed, c1, c2)
        (phi, psi), duals = update_phi_psi(problem, phi0, psi0, shared, pi)
        source, target = problem.source, problem.target
        residuals = problem.residuals
        hess = c1 * np.eye(4) + 2.0 * c2 * residuals.T @ residuals
        alpha, beta = (solution.x for solution in duals)
        blocks = (
            (source.features, source.labels, phi, c1 * (phi - shared), alpha, pi),
            (target.labeled_features, target.labels, psi,
             hess @ psi - c1 * shared, beta, np.ones(target.labeled_count)),
        )
        for features, labels, classifier, pull, dual, upper in blocks:
            rows = labels[:, None] * features
            np.testing.assert_allclose(pull, rows.T @ dual, rtol=0.0, atol=1e-9)
            slack = 1.0 - rows @ classifier
            assert np.all((dual >= 0.0) & (dual <= upper))
            np.testing.assert_array_equal(dual[slack > 1e-7], upper[slack > 1e-7])
            np.testing.assert_array_equal(dual[slack < -1e-7], 0.0)

    def test_uncertified_duals_fall_back_to_halving_search(self):
        # c1 about 1e-14 of the squared source feature scale: rounding in the
        # phi dual's gradient stays above the KKT limit.
        _, source, target, _ = small_problem(360, n1=40, n2=20, k=3)
        big = DomainDataset(source.features * 1e4, source.labels)
        problem = Problem(
            big, target, HyperParams(c1=1e-4), build_graph(big, 3), build_graph(target, 3)
        )
        fixed = (np.zeros(4), np.ones(40))
        (phi, psi), duals = update_phi_psi(problem, np.zeros(4), np.zeros(4), *fixed)
        assert duals is None
        assert (q_value(problem, phi, psi, *fixed)
                < q_value(problem, np.zeros(4), np.zeros(4), *fixed))

    def test_warm_start_clips_alpha_to_pi(self):
        problem, pi, shared, phi0, psi0 = block_instance(350, 1.0, 1.0)
        stale = (QPSolution(np.full(pi.size, 3.0), 0.0, 0, 0.0),
                 QPSolution(np.ones(problem.target.labeled_count), 0.0, 0, 0.0))
        warm, warm_duals = update_phi_psi(problem, phi0, psi0, shared, pi, stale)
        cold, _ = update_phi_psi(problem, phi0, psi0, shared, pi)
        assert np.all(warm_duals[0].x <= pi)
        assert (q_value(problem, *warm, shared, pi)
                == pytest.approx(q_value(problem, *cold, shared, pi), rel=1e-10))


class TestDualSolveCost:
    """Hessian products of the hinge-dual solves on two fixed fits.

    A change that makes the duals do more work, or sends the block to the
    halving search, fails here without a timing run. The figures were
    measured on the box-only GPCG solve, every product counted (numpy 2.4.6
    with OpenBLAS on x86-64, Python 3.11). The phases alone took 689 and
    1,542, against 859 and 1,734 for the earlier formulation with a slack
    coordinate. The bound allows 10% above them.
    """

    @pytest.mark.parametrize("n, m, measured", [(200, 20, 784), (40, 60, 1763)],
                             ids=["n>m", "m>n"])
    def test_products_within_ten_percent(self, n, m, measured):
        # At m > n the phi dual's Hessian K K' has full rank.
        spec = rotated_benchmark_spec(0, samples=n, dim=m)
        source, target, _ = synthetic_pair_with_hidden_labels(spec)
        state = fit(source, target, HyperParams(r=3))
        records = [e for e in state.substeps if e["step"] == "phi_psi"]
        assert len(records) == state.iteration
        for event in records:
            assert event["dual_kkt"] != (None, None)
            assert min(event["dual_products"]) > 0
        assert sum(sum(e["dual_products"]) for e in records) <= 1.1 * measured


class TestPiSolveCost:
    """Hessian products of the instance-weight QP solves on two fixed fits.

    Every call of ``optimizer.solve_qp`` is a pi solve: the hinge duals reach
    GPCG through ``HingeDual.solve`` in ``model``. The figures are the
    products the solutions report, measured as for :class:`TestDualSolveCost`;
    the bound allows 10% above them.
    """

    @pytest.mark.parametrize("c1, measured", [(1.0, 990), (0.0, 405)],
                             ids=["n>m", "c1=0"])
    def test_products_within_ten_percent(self, monkeypatch, c1, measured):
        products = []

        def counted(*args, **kwargs):
            solution = solve_qp(*args, **kwargs)
            products.append(solution.iterations)
            return solution

        monkeypatch.setattr(optimizer, "solve_qp", counted)
        spec = rotated_benchmark_spec(0, samples=200, dim=20)
        source, target, _ = synthetic_pair_with_hidden_labels(spec)
        state = fit(source, target, HyperParams(r=3, c1=c1))
        assert len(products) == state.iteration
        assert min(products) > 0
        assert sum(products) <= 1.1 * measured

class TestSolvePi:
    def test_constant_objective_keeps_uniform(self):
        _, source, target, graphs = small_problem(70)
        hp = HyperParams(c2=0.0, c3=0.0)
        theta = np.eye(4)[:2]
        # phi = 0 makes every hinge loss equal to one.
        weights = solve_pi(
            Problem(source, target, hp, *graphs), theta, np.zeros(4),
            SourceWeights.uniform(source.n, hp.delta),
        )
        np.testing.assert_array_equal(weights.pi, np.ones(source.n))

    def test_lp_limit_matches_greedy(self):
        rng, source, target, graphs = small_problem(71)
        n1 = source.n
        hp = HyperParams(c2=0.0, c3=0.0, delta=float(n1))
        phi = rng.standard_normal(4)
        losses = hinge_losses(source.features @ phi, source.labels)
        assert len(np.unique(losses)) == n1  # distinct, so the LP optimum is unique
        weights = solve_pi(
            problem=Problem(source, target, hp, *graphs), theta=np.eye(4)[:2],
            phi=phi, weights=SourceWeights.uniform(n1, hp.delta),
        )
        greedy = np.zeros(n1)
        mass = float(n1)
        for i in np.argsort(losses):
            greedy[i] = min(hp.delta, mass)
            mass -= greedy[i]
            if mass <= 0:
                break
        np.testing.assert_allclose(weights.pi, greedy, atol=1e-8)

    def test_qp_assembly_matches_direct_terms(self):
        rng, source, target, graphs = small_problem(72)
        hp = HyperParams(c2=1.3, c3=0.9)
        theta = random_orthonormal_rows(rng, 2, 4)
        phi = rng.standard_normal(4)
        problem = Problem(source, target, hp, *graphs)
        new = solve_pi(
            problem, theta, phi, SourceWeights.uniform(source.n, hp.delta)
        )

        def direct(pi_vec):
            model = TransferModel(theta, solve_w(theta, phi, phi), phi, phi)
            terms = objective(model, SourceWeights(pi_vec, hp.delta), problem)
            return terms.source_hinge + terms.weight_smoothness + terms.mean_matching

        # The QP minimizer must beat any feasible candidate on the pi terms.
        for _ in range(50):
            cand = rng.uniform(0.0, hp.delta, source.n)
            cand = cand * source.n / cand.sum()
            if cand.max() > hp.delta:
                continue
            assert direct(new.pi) <= direct(cand) + 1e-8

    def test_objective_never_above_incumbent(self):
        rng, source, target, graphs = small_problem(73)
        hp = HyperParams(c2=0.7, c3=1.1)
        theta = random_orthonormal_rows(rng, 2, 4)
        phi = rng.standard_normal(4)
        incumbent = SourceWeights.uniform(source.n, hp.delta)
        problem = Problem(source, target, hp, *graphs)
        new = solve_pi(problem, theta, phi, incumbent)

        def pi_terms(weights):
            model = TransferModel(theta, solve_w(theta, phi, phi), phi, phi)
            terms = objective(model, weights, problem)
            return terms.source_hinge + terms.weight_smoothness + terms.mean_matching

        assert pi_terms(new) <= pi_terms(incumbent) + 1e-10

    @pytest.mark.parametrize("delta", [1e8, 1e10, 1e12])
    def test_box_wider_than_n_acts_as_n(self, delta):
        # sum(pi) = n caps every weight at n, so a wider box is the same QP. At
        # 1e12 an uncapped box snaps every weight to a bound and fails the fit.
        source, target = generate_synthetic_pair(rotated_benchmark_spec(1, samples=60))
        hp = HyperParams(r=3, c3=3.0, outer_iters=4, subgrad_iters=20)
        wide = fit(source, target, dataclasses.replace(hp, delta=delta))
        exact = fit(source, target, dataclasses.replace(hp, delta=float(source.n)))
        assert wide.objective_trace == exact.objective_trace
        np.testing.assert_array_equal(wide.weights.pi, exact.weights.pi)
        np.testing.assert_array_equal(wide.model.theta, exact.model.theta)


def random_graph(rng, n, k, isolated=()):
    """Random (n, k) graph whose neighbor lists avoid the ``isolated`` points."""
    allowed = np.setdiff1d(np.arange(n), isolated)
    neighbors = np.array(
        [rng.choice(allowed[allowed != i], k, replace=False) for i in range(n)]
    )
    return NeighborhoodGraph(neighbors, rng.dirichlet(np.ones(k), n))


class TestInstanceWeightHessian:
    def test_matvec_matches_dense_matrix(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(4, 40))
            k = int(rng.integers(1, min(5, n - 2) + 1))
            # Point 0 is no one's neighbor.
            graph = random_graph(rng, n, k, isolated=[0])
            basis = rng.standard_normal((n, int(rng.integers(1, 4))))
            c2 = float(rng.uniform(0.0, 3.0))
            residual = np.eye(n)
            for i in range(n):
                residual[i, graph.neighbors[i]] -= graph.weights[i]
            dense = 2.0 * c2 * residual.T @ residual + basis @ basis.T
            operator = InstanceWeightHessian(graph, c2, basis)
            for p in rng.standard_normal((3, n)):
                expected = dense @ p
                gap = np.max(np.abs(operator.matvec(p) - expected))
                assert gap <= 1e-12 * max(1.0, float(np.max(np.abs(expected))))

    def test_solve_pi_memory_is_linear_in_n(self):
        import tracemalloc

        rng = np.random.default_rng(13)
        n, k, r, m = 3000, 5, 3, 5
        source = DomainDataset(
            rng.standard_normal((n, m)), np.where(rng.random(n) < 0.5, 1.0, -1.0)
        )
        target = DomainDataset(
            rng.standard_normal((50, m)), np.where(rng.random(10) < 0.5, 1.0, -1.0)
        )
        hp = HyperParams(k=k, r=r)
        problem = Problem(
            source, target, hp, random_graph(rng, n, k), build_graph(target, k)
        )
        theta = random_orthonormal_rows(rng, r, m)
        phi = rng.standard_normal(m)
        weights = SourceWeights.uniform(n, hp.delta)
        tracemalloc.start()
        try:
            solve_pi(problem, theta, phi, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20  # one dense n x n array would take 72 MB


# Fits whose pi QPs have badly conditioned faces: c2 and c3 orders of
# magnitude apart, features far from unit scale, mostly k = 1 graphs.
ILL_CONDITIONED_FITS = [
    ((8, 122, 1.937, 2.407, [-1.852, -2.511, 2.131, 2.168, 2.259, -0.169, -1.356,
                             -2.957], 0.323, 544083118), 103.0,
     dict(c1=0.134, c2=0.0196, c3=67.7, r=6, delta=100.0, k=7)),
    ((6, 104, 5.049, 0.102, [-0.423, 1.111, -2.062, -0.686, -2.881, -2.509], 0.108,
      822042044), 0.602, dict(c1=34.5, c2=0.0794, c3=90.6, r=3, delta=3.0, k=1)),
    ((7, 43, 0.777, 2.306, [-2.499, 0.863, 0.381, 1.437, 2.663, -1.581, -0.104],
      0.376, 386884818), 0.00357, dict(c1=0.0357, c2=389.0, c3=0.0159, r=2,
                                       delta=100.0, k=1)),
    ((2, 108, 7.064, 1.22, [-1.968, -2.31], 0.179, 886439613), 1.97,
     dict(c1=0.0149, c2=277.0, c3=0.0, r=2, delta=1.01, k=1)),
    ((2, 63, 3.001, 1.452, [-1.683, -0.191], 0.303, 51259959), 0.0155,
     dict(c1=9.91, c2=146.0, c3=18.5, r=1, delta=3.0, k=1)),
    ((6, 55, 1.797, 0.189, [-0.205, -1.714, 1.433, 2.535, -1.362, 0.433], 0.253,
      1129388934), 0.00561, dict(c1=34.6, c2=0.7, c3=0.0, r=1, delta=1.01, k=1)),
    ((5, 91, 7.445, 0.006, [-2.026, 1.321, -0.633, -1.273, 2.777], 0.132,
      1994024537), 610.0, dict(c1=11.248, c2=18.05, c3=67.82, r=4, delta=1.01, k=2)),
    ((9, 64, 4.168, 0.19, [1.58, 0.86, -1.599, 1.979, 0.283, 2.574, 1.921, -2.397,
                           -1.576], 0.424, 2038714205), 0.00606,
     dict(c1=47.625, c2=73.077, c3=0.108, r=1, delta=3.0, k=1)),
]


@pytest.mark.parametrize("spec, scale, hp", ILL_CONDITIONED_FITS)
def test_pi_step_on_ill_conditioned_faces(spec, scale, hp):
    source, target = generate_synthetic_pair(SyntheticShiftSpec(*spec))
    source = DomainDataset(scale * source.features, source.labels)
    target = DomainDataset(scale * target.features, target.labels)
    state = fit(source, target, HyperParams(**hp, outer_iters=8, subgrad_iters=20,
                                            tol=0.0))
    for event in state.substeps:
        if event["step"] == "pi":
            assert event["after"] <= event["before"] + 1e-9 * abs(event["before"])
            assert event["sum_gap"] <= 1e-9 * source.n


class TestFitStart:
    def test_start_is_the_theta_step_at_zero(self):
        # At phi = psi = 0 the theta step only keeps the rows off the mean gap
        # of uniform pi, so with r < m the start objective is the hinge count.
        _, source, target, graphs = small_problem(80)
        hp = HyperParams(outer_iters=0, k=2, r=2)
        state = fit(source, target, hp)
        zeros = np.zeros(source.dim)
        expected = solve_theta(Problem(source, target, hp, *graphs), zeros, zeros,
                               SourceWeights.uniform(source.n, hp.delta))
        np.testing.assert_array_equal(state.model.theta, expected)
        np.testing.assert_array_equal(state.model.w, [0.0, 0.0])
        assert state.objective_trace == (source.n + target.labeled_count,)

    @pytest.mark.parametrize("c1", [1.0, 0.0])
    def test_no_iterate_reads_the_start_theta(self, monkeypatch, c1):
        _, source, target, *_ = small_problem(81, m=5)
        hp = HyperParams(c1=c1, outer_iters=4, subgrad_iters=10, k=2, r=2, tol=0.0)
        plain = fit(source, target, hp)
        real, calls = optimizer.solve_theta, []

        def other_start(*args):
            calls.append(None)
            if len(calls) == 1:
                return random_orthonormal_rows(np.random.default_rng(82), 2, 5)
            return real(*args)

        monkeypatch.setattr(optimizer, "solve_theta", other_start)
        moved = fit(source, target, hp)
        assert moved.objective_trace[0] != plain.objective_trace[0]
        assert moved.objective_trace[1:] == plain.objective_trace[1:]
        assert moved.term_trace[1:] == plain.term_trace[1:]
        assert moved.iteration == plain.iteration == 4
        for name in ("theta", "w", "phi", "psi"):
            np.testing.assert_array_equal(getattr(moved.model, name),
                                          getattr(plain.model, name))
        np.testing.assert_array_equal(moved.weights.pi, plain.weights.pi)


class TestSubspaceSize:
    @pytest.mark.parametrize("draw", range(4))
    def test_every_r_below_m_fits_the_same_model(self, draw):
        # Below m, theta's rows past the first are zero-eigenvalue rows,
        # orthogonal to phi + psi and to the mean gap: they change no term
        # where theta is chosen, and at a fixed point not the pi step's
        # gradient either. So fits at r = 1 and r = 3 (m = 4) end at one
        # objective up to tol, by paths of different lengths; 15 iterations
        # do not always reach it.
        source, target, hidden = synthetic_pair_with_hidden_labels(rotated_benchmark_spec(draw))
        held_out = target.features[target.labeled_count:]
        finals, scores = [], []
        for r in (1, 3):
            state = fit(source, target,
                        dataclasses.replace(benchmark_hyperparams(), r=r, outer_iters=200))
            assert state.iteration < 200
            finals.append(state.objective_trace[-1])
            scores.append(accuracy(classify_target(state.model, held_out), hidden))
        assert scores[0] == scores[1]
        assert finals[0] == pytest.approx(finals[1], rel=1e-6)


class TestOptState:
    def test_any_rise_in_the_trace_is_rejected(self):
        model = TransferModel(np.eye(2), [0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
        weights = SourceWeights.uniform(3, 3.0)
        assert OptState(model, weights, (2.0, 1.0, 1.0), 2).objective_trace[-1] == 1.0
        with pytest.raises(ValidationError, match="^objective trace increased$"):
            OptState(model, weights, (2.0, 1.0, np.nextafter(1.0, 2.0)), 2)

    def test_empty_trace_is_rejected(self):
        model = TransferModel(np.eye(2), [0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
        weights = SourceWeights.uniform(3, 3.0)
        with pytest.raises(ValidationError, match="^objective trace may not be empty$"):
            OptState(model, weights, (), 0)


class TestFit:
    def test_inputs_must_be_datasets(self):
        _, source, target, *_ = small_problem(89)
        with pytest.raises(ValidationError, match="^fit expects DomainDataset inputs$"):
            fit(source.features, target)

    @pytest.mark.parametrize("draw", [0, 1, 2])
    def test_tiny_c1_duals_are_finite(self, caplog, draw):
        # At c1 = 1e-14 an eigendecomposition of c1 I + 2 c2 R'R gave negative
        # eigenvalues and a NaN factor here. The duals built from the SVD of
        # R stay finite and raise no RuntimeWarning. Draw 0 certifies every
        # dual; on draws 1 and 2 some solves cannot be certified, and the
        # block falls back to the halving search with one WARNING line each,
        # which Python prints to stderr when no logging is configured.
        source, target = generate_synthetic_pair(rotated_benchmark_spec(draw, 40, 60))
        hp = dataclasses.replace(benchmark_hyperparams(), c1=1e-14)
        problem = Problem(source, target, hp,
                          build_graph(source, hp.k), build_graph(target, hp.k))
        for dual in (problem.source_dual, problem.target_dual):
            assert all(np.all(np.isfinite(a)) for a in (dual.rows, dual.scale, dual.basis))
        with caplog.at_level(logging.WARNING, logger="wdmatch.optimizer"):
            state = fit(source, target, hp)
        assert state.iteration >= 2
        records = [e for e in state.substeps if e["step"] == "phi_psi"]
        fallbacks = sum(e["dual_kkt"] == (None, None) for e in records)
        assert (fallbacks > 0) == (draw != 0)
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING
                    and "not certified" in r.getMessage()]
        assert len(warnings) == fallbacks
        assert all(np.all(np.isfinite(v)) for v in (state.model.phi, state.model.psi))

    @pytest.mark.parametrize("draw", range(6))
    def test_small_c1_duals_are_certified(self, draw):
        # The hinge duals' solution has the scale of c1 while their box is
        # [0, pi], so a snap width of 1e-12 box widths alone would put the
        # free coordinates on a bound every GPCG round and refuse the solve.
        source, target = generate_synthetic_pair(rotated_benchmark_spec(draw, 40, 60))
        state = fit(source, target, HyperParams(r=3, outer_iters=15, c1=1e-10))
        records = [e for e in state.substeps if e["step"] == "phi_psi"]
        assert records and all(e["dual_kkt"] != (None, None) for e in records)

    def test_few_row_dual_is_not_capped_by_its_certificates(self, caplog):
        # Draw 4's target dual has 4 rows, so a cap of 50 n products that also
        # counted each round's certificate stopped it short at c1 = 1e-11; it
        # then fell back to the halving search and ended at 1.822.
        source, target = generate_synthetic_pair(rotated_benchmark_spec(4, 40, 60))
        hp = dataclasses.replace(benchmark_hyperparams(), c1=1e-11)
        with caplog.at_level(logging.WARNING, logger="wdmatch.optimizer"):
            state = fit(source, target, hp)
        assert not [r for r in caplog.records if "not certified" in r.getMessage()]
        assert state.objective_trace[-1] < 1.3

    @pytest.mark.parametrize("n, m, c1", [
        (200, 20, 1.0), (40, 60, 1.0), (200, 20, 0.0), (400, 10, 0.3),
    ])
    def test_flipped_labels_negate_the_classifiers(self, n, m, c1):
        # Every term reads a label only through y x'v, so flipping every
        # label is the same problem in -phi, -psi and -w; the steps' rounding
        # is symmetric in sign, so the match is exact.
        source, target = generate_synthetic_pair(rotated_benchmark_spec(0, n, m))
        hp = dataclasses.replace(benchmark_hyperparams(), c1=c1)
        state = fit(source, target, hp)
        flipped = fit(DomainDataset(source.features, -source.labels),
                      DomainDataset(target.features, -target.labels), hp)
        for name in ("phi", "psi", "w"):
            np.testing.assert_array_equal(getattr(flipped.model, name),
                                          -getattr(state.model, name))
        np.testing.assert_array_equal(flipped.model.theta, state.model.theta)
        np.testing.assert_array_equal(flipped.weights.pi, state.weights.pi)
        assert flipped.objective_trace == state.objective_trace

    @pytest.mark.parametrize("n, m, c1", [
        (200, 20, 1.0), (40, 60, 1.0), (400, 10, 0.3), (200, 20, 0.0),
    ])
    def test_permuted_source_rows_permute_pi(self, n, m, c1):
        # The objective is a sum over source rows, so reordering them reorders
        # pi and leaves the rest; only rounding in sums over rows may differ
        # (at most 3.4e-12 on the trace and pi at one and two BLAS threads).
        source, target = generate_synthetic_pair(rotated_benchmark_spec(0, n, m))
        hp = dataclasses.replace(benchmark_hyperparams(), c1=c1)
        state = fit(source, target, hp)
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(source.n)
            permuted = fit(DomainDataset(source.features[order], source.labels[order]),
                           target, hp)
            assert permuted.iteration == state.iteration
            np.testing.assert_allclose(permuted.objective_trace, state.objective_trace,
                                       rtol=1e-10, atol=0.0)
            np.testing.assert_allclose(permuted.weights.pi, state.weights.pi[order],
                                       rtol=0.0, atol=1e-10)

    def test_zero_iterations_returns_initialization(self):
        _, source, target, *_ = small_problem(90)
        state = fit(source, target, HyperParams(outer_iters=0, k=2, r=2))
        assert state.iteration == 0
        assert len(state.objective_trace) == 1
        np.testing.assert_array_equal(state.weights.pi, np.ones(source.n))
        np.testing.assert_array_equal(state.model.phi, np.zeros(source.dim))

    def test_zero_shift_monotone(self):
        spec = SyntheticShiftSpec(dim=3, samples=40, separation=3.0, seed=4)
        source, target = generate_synthetic_pair(spec)
        state = fit(source, target, HyperParams(outer_iters=5, subgrad_iters=30, k=3, r=2, tol=0.0))
        trace = np.asarray(state.objective_trace)
        assert trace[-1] <= trace[0]
        assert np.all(np.diff(trace) <= 1e-8)

    def test_benchmark_beats_source_only_with_default_hp(self):
        spec = rotated_benchmark_spec(7)
        source, target, hidden = synthetic_pair_with_hidden_labels(spec)
        held_x = target.features[target.labeled_count:]
        state = fit(source, target, HyperParams())
        proposed = accuracy(classify_target(state.model, held_x), hidden)
        base = accuracy(held_x @ baseline_source_only(source, HyperParams()), hidden)
        assert proposed > base

    def test_substeps_never_increase(self):
        spec = SyntheticShiftSpec(
            dim=4, samples=30, separation=2.0, angle=0.5, translation=0.7, seed=12
        )
        source, target = generate_synthetic_pair(spec)
        state = fit(source, target, HyperParams(outer_iters=4, subgrad_iters=25, k=3, r=2, tol=0.0))
        for event in state.substeps:
            assert event["after"] <= event["before"] + 1e-10, event

    def test_deterministic_bitwise(self):
        _, source, target, *_ = small_problem(91)
        hp = HyperParams(outer_iters=3, subgrad_iters=20, k=2, r=2, tol=0.0)
        s1 = fit(source, target, hp)
        s2 = fit(source, target, hp)
        np.testing.assert_array_equal(s1.model.theta, s2.model.theta)
        np.testing.assert_array_equal(s1.model.phi, s2.model.phi)
        np.testing.assert_array_equal(s1.weights.pi, s2.weights.pi)
        assert s1.objective_trace == s2.objective_trace

    @pytest.mark.parametrize("outer_iters", [1, 3])
    def test_problem_data_built_once(self, monkeypatch, outer_iters):
        import sys

        import wdmatch.neighborhood as nb

        def count(name):
            calls = []
            real = getattr(nb, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            for module_name, module in list(sys.modules.items()):
                if module_name.split(".")[0] == "wdmatch" and getattr(
                    module, name, None
                ) is real:
                    monkeypatch.setattr(module, name, counted)
            return calls

        graphs = count("build_graph")
        residuals = []
        real_residual = NeighborhoodGraph.residual

        def counted_residual(graph, values):
            if np.ndim(values) == 2:  # the residual matrix, not a pi or QP vector
                residuals.append(values.shape)
            return real_residual(graph, values)

        monkeypatch.setattr(NeighborhoodGraph, "residual", counted_residual)
        _, source, target, _ = small_problem(96)
        hp = HyperParams(outer_iters=outer_iters, subgrad_iters=10, k=2, r=2, tol=0.0)
        state = fit(source, target, hp)
        assert state.iteration == outer_iters
        assert (len(graphs), len(residuals)) == (2, 1)
        steps = [event["step"] for event in state.substeps]
        assert steps == ["phi_psi", "theta", "pi"] * outer_iters

    @pytest.mark.parametrize("c1", [1.0, 0.0])
    def test_phi_psi_records_dual_solves(self, c1):
        _, source, target, *_ = small_problem(97)
        hp = HyperParams(c1=c1, outer_iters=3, subgrad_iters=10, k=2, r=2, tol=0.0)
        records = [e for e in fit(source, target, hp).substeps if e["step"] == "phi_psi"]
        assert len(records) == 3
        for event in records:
            assert isinstance(event["kept"], bool)
            if c1 == 0.0:
                assert event["dual_products"] == (0, 0)
                assert event["dual_kkt"] == (None, None)
            else:
                assert min(event["dual_products"]) > 0
                assert max(event["dual_kkt"]) <= 1e-9

    def test_pi_step_that_raises_the_objective_is_not_taken(self, monkeypatch):
        _, source, target, *_ = small_problem(98)
        hp = HyperParams(outer_iters=3, subgrad_iters=10, k=2, r=2, tol=0.0)
        records = [e for e in fit(source, target, hp).substeps if e["step"] == "pi"]
        assert [e["kept"] for e in records] == [False] * 3

        def uphill(problem, theta, phi, weights):
            # Half a step from the QP's minimizer back past the incoming
            # weights: feasible from uniform weights at delta = 3, and higher,
            # because the objective is convex in pi.
            best = solve_pi(problem, theta, phi, weights).pi
            return SourceWeights(weights.pi + 0.5 * (weights.pi - best), hp.delta)

        monkeypatch.setattr(optimizer, "solve_pi", uphill)
        state = fit(source, target, hp)
        assert state.iteration == 3
        records = [e for e in state.substeps if e["step"] == "pi"]
        assert all(e["kept"] and e["after"] == e["before"] for e in records)
        np.testing.assert_array_equal(state.weights.pi, np.ones(source.n))

    @pytest.mark.parametrize("c1", [1.0, 0.0])
    def test_phi_psi_step_that_raises_the_objective_is_not_taken(self, monkeypatch, c1):
        _, source, target, *_ = small_problem(99)
        hp = HyperParams(c1=c1, outer_iters=3, subgrad_iters=10, k=2, r=2, tol=0.0)
        real = optimizer.update_phi_psi

        def uphill(*args):
            # The block's own answer shifted far in every coordinate: its
            # hinge and smoothness terms, and at c1 > 0 its adaptation, grow.
            (phi, psi), duals = real(*args)
            return (phi + 100.0, psi - 100.0), duals

        monkeypatch.setattr(optimizer, "update_phi_psi", uphill)
        state = fit(source, target, hp)
        records = [e for e in state.substeps if e["step"] == "phi_psi"]
        assert len(records) == 3
        assert all(e["kept"] and e["after"] == e["before"] for e in records)
        np.testing.assert_array_equal(state.model.phi, np.zeros(source.dim))
        assert all(np.diff(state.objective_trace) <= 0.0)

    def test_theta_step_that_raises_the_objective_is_not_taken(self):
        # At 1e4 times the feature scale, rounding scores this draw's
        # iteration-2 theta step above its incoming pair; taking it would
        # break the monotone trace.
        spec = rotated_benchmark_spec(5, samples=120, dim=6)
        source, target, _ = synthetic_pair_with_hidden_labels(spec)
        source = DomainDataset(1e4 * source.features, source.labels)
        target = DomainDataset(1e4 * target.features, target.labels)
        state = fit(source, target, HyperParams(r=3, c2=100.0, c3=100.0))
        records = [e for e in state.substeps if e["step"] == "theta"]
        assert [e["kept"] for e in records[:2]] == [False, True]
        assert records[1]["after"] == records[1]["before"]
        assert all(np.diff(state.objective_trace) <= 0.0)

    def test_tolerance_stops_early(self):
        _, source, target, *_ = small_problem(92)
        hp = HyperParams(outer_iters=50, subgrad_iters=20, k=2, r=2, tol=1e-4)
        state = fit(source, target, hp)
        assert state.iteration < 50

    def test_input_validation(self):
        _, source, target, *_ = small_problem(93)
        unlabeled_source = DomainDataset(source.features, source.labels[:-1])
        with pytest.raises(ValidationError):
            fit(unlabeled_source, target, HyperParams(k=2))
        with pytest.raises(ValidationError):
            fit(source, target, HyperParams(k=50))

    @pytest.mark.parametrize("fault, message", [
        ("partly-labeled-source", "source domain must be fully labeled"),
        ("dimensions", "source and target dimensions differ"),
    ])
    def test_dataset_faults_raise_their_messages(self, fault, message):
        _, source, target, *_ = small_problem(93)
        if fault == "dimensions":
            target = DomainDataset(target.features[:, :-1], target.labels)
        else:
            source = DomainDataset(source.features, source.labels[:-1])
        with pytest.raises(ValidationError, match=f"^{message}$"):
            fit(source, target, HyperParams(k=2))

    def test_term_trace_carries_residuals(self):
        _, source, target, *_ = small_problem(94)
        state = fit(source, target, HyperParams(outer_iters=2, subgrad_iters=15, k=2, r=2, tol=0.0))
        assert len(state.term_trace) == 3
        for entry in state.term_trace:
            assert {"iteration", "total", "source_hinge", "orthonormal_gap",
                    "pi_bound_gap", "pi_sum_gap"} <= set(entry)
            assert entry["orthonormal_gap"] <= 1e-8
            assert entry["pi_sum_gap"] <= 1e-6

    @pytest.mark.parametrize("error", [ValidationError, TypeError])
    def test_substep_failure_attaches_state(self, monkeypatch, error):
        import wdmatch.optimizer as opt

        _, source, target, *_ = small_problem(95)
        hp = HyperParams(outer_iters=4, subgrad_iters=10, k=2, r=2, tol=0.0)
        calls = {"n": 0}
        real = opt.solve_pi

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] >= 3:
                raise error("synthetic sub-step failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(opt, "solve_pi", flaky)
        if error is TypeError:
            # A bug is not a solver failure: it must surface unwrapped.
            with pytest.raises(TypeError, match="synthetic sub-step failure"):
                opt.fit(source, target, hp)
            return
        from wdmatch.errors import ConvergenceError
        with pytest.raises(ConvergenceError) as excinfo:
            opt.fit(source, target, hp)
        partial = excinfo.value.state
        assert partial is not None
        assert partial.iteration == 2
        assert len(partial.objective_trace) == 3
        # The state is the last complete one: its model and weights give the
        # last recorded objective exactly.
        problem = Problem(
            source, target, hp, build_graph(source, hp.k), build_graph(target, hp.k)
        )
        terms = objective(partial.model, partial.weights, problem)
        assert terms.total == partial.objective_trace[-1]
