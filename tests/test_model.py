import json

import numpy as np
import pytest

from wdmatch.data import DomainDataset, from_json, generate_synthetic_pair, to_json
from wdmatch.errors import ValidationError
from wdmatch.evaluate import rotated_benchmark_spec
from wdmatch.model import (
    HingeDual,
    HyperParams,
    Problem,
    SourceWeights,
    TransferModel,
    classify_target,
    hinge_losses,
    objective,
)
from wdmatch.neighborhood import NeighborhoodGraph, build_graph
from wdmatch.qp import BoxEqQP, QPSolution

from qp_oracle import MatrixOperator


def random_orthonormal_rows(rng, r, m):
    q, _ = np.linalg.qr(rng.standard_normal((m, r)))
    return q.T


def random_instance(seed, n1=8, n2=8, m=4, r=2, k=2):
    rng = np.random.default_rng(seed)
    source = DomainDataset(
        rng.standard_normal((n1, m)), np.where(rng.random(n1) < 0.5, 1.0, -1.0)
    )
    n3 = n2 // 2
    target = DomainDataset(
        rng.standard_normal((n2, m)), np.where(rng.random(n3) < 0.5, 1.0, -1.0)
    )
    theta = random_orthonormal_rows(rng, r, m)
    model = TransferModel(
        theta, rng.standard_normal(r), rng.standard_normal(m), rng.standard_normal(m)
    )
    pi = rng.uniform(0.2, 1.8, n1)
    pi *= n1 / pi.sum()
    weights = SourceWeights(pi, 3.0)
    graphs = (build_graph(source, k), build_graph(target, k))
    return source, target, model, weights, graphs


def pair_problem(source, target, hp=None):
    """A Problem over the two datasets with 1-nearest-neighbor graphs."""
    hp = HyperParams() if hp is None else hp
    return Problem(source, target, hp, build_graph(source, 1), build_graph(target, 1))


def mean_matching(theta, source, weights, target):
    """The mean-matching term at c3 = 1 for projection rows ``theta``."""
    r, m = theta.shape
    model = TransferModel(theta, np.zeros(r), np.zeros(m), np.zeros(m))
    return objective(model, weights, pair_problem(source, target)).mean_matching


def frozen_dataset():
    x, y = np.arange(8.0).reshape(4, 2), np.array([1.0, -1.0])
    return DomainDataset(x, y), {"features": x, "labels": y}


def frozen_model():
    theta, w, phi, psi = np.eye(2), np.ones(2), np.ones(2), np.zeros(2)
    return TransferModel(theta, w, phi, psi), {"theta": theta, "w": w, "phi": phi, "psi": psi}


def frozen_weights():
    pi = np.ones(3)
    return SourceWeights(pi, 3.0), {"pi": pi}


def frozen_problem():
    x, y = np.arange(8.0).reshape(4, 2) ** 2, np.array([1.0, -1.0, 1.0, -1.0])
    problem = pair_problem(DomainDataset(x, y), DomainDataset(x, y[:2]))
    return problem, {"residuals": x, "target_mean": x}


def frozen_graph():
    nbrs, wts = np.array([[1], [0]]), np.array([[1.0], [1.0]])
    return NeighborhoodGraph(nbrs, wts), {"neighbors": nbrs, "weights": wts}


def frozen_qp():
    lin, lower, upper = np.ones(2), np.zeros(2), np.ones(2)
    problem = BoxEqQP(MatrixOperator(np.eye(2)), lin, lower, upper, 1.0)
    return problem, {"lin": lin, "lower": lower, "upper": upper}


def frozen_solution():
    x = np.ones(2)
    return QPSolution(x, 0.0, 0, 0.0), {"x": x}


@pytest.mark.parametrize("build", [frozen_dataset, frozen_model, frozen_weights,
                                   frozen_problem, frozen_graph, frozen_qp,
                                   frozen_solution])
def test_array_fields_are_read_only_copies(build):
    # Each array field against the caller's array it was built from.
    record, inputs = build()
    for name, source in inputs.items():
        stored = getattr(record, name)
        kept = stored.copy()
        source[...] = -7
        np.testing.assert_array_equal(stored, kept)
        with pytest.raises(ValueError):
            stored[...] = 0


class TestTransferModel:
    def test_orthonormality_enforced(self):
        with pytest.raises(ValidationError):
            TransferModel(np.array([[1.0, 1.0]]), [0.0], [0.0, 0.0], [0.0, 0.0])

    def test_adaptive_corrections(self):
        rng = np.random.default_rng(0)
        theta = random_orthonormal_rows(rng, 2, 5)
        w, phi, psi = rng.standard_normal(2), rng.standard_normal(5), rng.standard_normal(5)
        model = TransferModel(theta, w, phi, psi)
        np.testing.assert_allclose(model.u, phi - theta.T @ w, atol=1e-14)
        np.testing.assert_allclose(model.v, psi - theta.T @ w, atol=1e-14)

    def test_json_round_trip_exact(self):
        rng = np.random.default_rng(1)
        theta = random_orthonormal_rows(rng, 3, 6)
        model = TransferModel(
            theta, rng.standard_normal(3), rng.standard_normal(6), rng.standard_normal(6)
        )
        back = TransferModel.from_json_dict(
            json.loads(json.dumps(model.to_json_dict()))
        )
        np.testing.assert_array_equal(back.theta, model.theta)
        np.testing.assert_array_equal(back.w, model.w)
        np.testing.assert_array_equal(back.phi, model.phi)
        np.testing.assert_array_equal(back.psi, model.psi)

    @pytest.mark.parametrize("change, message", [
        ({"psi": None}, "^model.psi: required key is missing$"),
        ({"r": 3, "m": 2}, "^model: expected positive r and m and r x m theta values, "
                           "got r=3, m=2 and 4 values$"),
        ({"theta": ["a", 0.0, 0.0, 1.0]}, r"^model.theta\[0\]: expected a number, got 'a'$"),
        ({"r": -1, "m": -2}, "^model: expected positive r and m and r x m theta values, "
                             "got r=-1, m=-2 and 4 values$"),
        ({"m": -2}, "^model: expected positive r and m and r x m theta values, "
                    "got r=2, m=-2 and 4 values$"),
        ({"r": 2.9}, r"^model.r: expected an integer, got 2\.9$"),
        ({"r": "2"}, "^model.r: expected an integer, got '2'$"),
        ({"m": True}, "^model.m: expected an integer, got True$"),
        ({"bias": 0.0}, r"^model: unknown keys \['bias'\]$"),
        ({"theta": [[1.0, 0.0], [0.0, 1.0]]},
         r"^model.theta\[0\]: expected a number, got \[1\.0, 0\.0\]$"),
        ({"w": [True, 0.0]}, r"^model.w\[0\]: expected a number, got True$"),
    ], ids=["missing-psi", "theta-size", "string-entry", "negative-r-m", "negative-m",
            "fractional-r", "string-r", "bool-m", "unknown-key", "nested-theta",
            "true-entry"])
    def test_malformed_payload_rejected(self, change, message):
        payload = TransferModel(np.eye(2), [0.0, 0.0], [1.0, 2.0], [3.0, 4.0]).to_json_dict()
        payload.update(change)
        payload = {key: value for key, value in payload.items() if value is not None}
        with pytest.raises(ValidationError, match=message):
            TransferModel.from_json_dict(payload)

    @pytest.mark.parametrize("theta, w, message", [
        (np.ones(2), [0.0], "^theta must be an r x m matrix$"),
        (np.zeros((0, 2)), [], "^need 1 <= r <= m, got r=0, m=2$"),
        (np.ones((2, 1)), [0.0, 0.0], "^need 1 <= r <= m, got r=2, m=1$"),
        (np.eye(2), [0.0], "^parameter vector sizes do not match theta$"),
        (np.eye(2), [np.nan, 0.0], "^model parameters must be finite$"),
    ])
    def test_invalid_parameters_rejected(self, theta, w, message):
        with pytest.raises(ValidationError, match=message):
            TransferModel(theta, w, [0.0, 0.0], [0.0, 0.0])


class TestSourceWeights:
    def test_bounds_checked(self):
        with pytest.raises(ValidationError):
            SourceWeights([4.0, -2.0], 3.0)

    def test_sum_checked(self):
        with pytest.raises(ValidationError):
            SourceWeights([0.4, 0.4], 3.0)

    def test_delta_floor(self):
        with pytest.raises(ValidationError):
            SourceWeights([1.0, 1.0], 0.5)

    def test_empty_pi_rejected(self):
        with pytest.raises(ValidationError, match="^pi must be non-empty$"):
            SourceWeights([], 3.0)

    def test_uniform(self):
        weights = SourceWeights.uniform(5, 2.0)
        np.testing.assert_array_equal(weights.pi, np.ones(5))


class TestHyperParams:
    def test_default_r_resolution(self):
        assert HyperParams().resolved_r(7) == 7
        assert HyperParams().resolved_r(50) == 20
        assert HyperParams(r=3).resolved_r(7) == 3
        with pytest.raises(ValidationError):
            HyperParams(r=9).resolved_r(7)

    def test_validation(self):
        with pytest.raises(ValidationError):
            HyperParams(c1=-0.1)
        with pytest.raises(ValidationError):
            HyperParams(delta=0.9)
        with pytest.raises(ValidationError):
            HyperParams(rho=0.0)
        for name in ("c1", "c2", "c3", "delta", "rho", "tol"):
            for value in (np.nan, np.inf):
                with pytest.raises(ValidationError, match=name):
                    HyperParams(**{name: value})
        for name, value in (("c1", "1"), ("tol", None), ("c1", True)):
            with pytest.raises(ValidationError,
                               match=f"^{name} must be a real number, got {value!r}$"):
                HyperParams(**{name: value})

    @pytest.mark.parametrize("change, message", [
        ({"c2": -1.0}, "^trade-off weights must be nonnegative$"),
        ({"k": 0}, "^k must be a positive integer$"),
        ({"outer_iters": -1}, "^iteration budgets must be nonnegative$"),
        ({"subgrad_iters": -1}, "^iteration budgets must be nonnegative$"),
        ({"tol": -1e-9}, "^tol must be nonnegative$"),
        ({"r": 0}, "^r must be a positive integer$"),
    ])
    def test_out_of_range_value_rejected(self, change, message):
        with pytest.raises(ValidationError, match=message):
            HyperParams(**change)

    @pytest.mark.parametrize("name", ["r", "k", "outer_iters", "subgrad_iters"])
    @pytest.mark.parametrize("value", [2.5, True, np.float64(3.0)])
    def test_non_integer_count_rejected(self, name, value):
        with pytest.raises(ValidationError, match=f"^{name} must be an integer, got "):
            HyperParams(**{name: value})

    def test_integer_past_the_float_range_rejected(self):
        # float(10**400) overflows, and numpy's isfinite refuses a Python int
        # that large; the field is named instead.
        with pytest.raises(ValidationError, match="^c1 must be finite$"):
            HyperParams(c1=10**400)

    def test_numpy_integer_count_accepted(self):
        hp = HyperParams(r=np.int64(3), k=np.int64(5), outer_iters=np.int32(2),
                         subgrad_iters=np.int16(4))
        assert (hp.r, hp.k, hp.outer_iters, hp.subgrad_iters) == (3, 5, 2, 4)

    def test_numbers_stored_as_python_numbers(self):
        hp = HyperParams(c1=2, c2=np.float32(0.5), r=np.int64(3), k=np.int16(4))
        assert (type(hp.c1), type(hp.c2), type(hp.r), type(hp.k)) == (float, float, int, int)
        assert (hp.c1, hp.c2, hp.r, hp.k) == (2.0, 0.5, 3, 4)

    def test_json_round_trip(self):
        hp = HyperParams(c1=0.5, r=4, tol=1e-5)
        assert from_json(HyperParams, to_json(hp)) == hp


class TestProjection:
    """The projection into the common space, as the mean-matching term sees it."""

    def test_identity(self):
        rng = np.random.default_rng(2)
        src = DomainDataset(rng.standard_normal((6, 3)), np.ones(6))
        tgt = DomainDataset(rng.standard_normal((5, 3)), np.ones(2))
        weights = SourceWeights.uniform(6, 3.0)
        gap = src.features.mean(axis=0) - tgt.features.mean(axis=0)
        d = mean_matching(np.eye(3), src, weights, tgt)
        assert d == pytest.approx(0.5 * float(gap @ gap), abs=1e-14)

    def test_coordinate_selection(self):
        src = DomainDataset([[3.0, 4.0], [3.0, 4.0]], [1.0, 1.0])
        tgt = DomainDataset([[0.0, 0.0], [0.0, 0.0]], [1.0])
        theta = np.array([[1.0, 0.0]])
        d = mean_matching(theta, src, SourceWeights.uniform(2, 3.0), tgt)
        assert d == 4.5

    def test_norm_non_expansion(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            src = DomainDataset(rng.standard_normal((6, 8)), np.ones(6))
            tgt = DomainDataset(rng.standard_normal((5, 8)), np.ones(2))
            weights = SourceWeights.uniform(6, 3.0)
            theta = random_orthonormal_rows(rng, 3, 8)
            full = mean_matching(np.eye(8), src, weights, tgt)
            assert mean_matching(theta, src, weights, tgt) <= full + 1e-12

    def test_dimension_mismatch(self):
        source, target, _, weights, graphs = random_instance(24)
        model = TransferModel(np.eye(3), np.zeros(3), np.zeros(3), np.zeros(3))
        with pytest.raises(ValidationError, match="dimension does not match"):
            objective(model, weights, Problem(source, target, HyperParams(), *graphs))


class TestMeans:
    def test_uniform_weights_give_plain_mean(self):
        rng = np.random.default_rng(5)
        source = DomainDataset(rng.standard_normal((6, 3)), np.ones(6))
        mu = pair_problem(source, source).source_mean(SourceWeights.uniform(6, 3.0).pi)
        np.testing.assert_allclose(mu, source.features.mean(axis=0), atol=1e-12)

    def test_two_point_mean(self):
        source = DomainDataset([[0.0, 0.0], [2.0, 2.0]], [1.0, -1.0])
        mu = pair_problem(source, source).source_mean(np.array([1.0, 1.0]))
        np.testing.assert_allclose(mu, [1.0, 1.0])

    def test_mass_on_one_point(self):
        source = DomainDataset([[1.0, 0.0], [0.0, 1.0]], [1.0, -1.0])
        mu = pair_problem(source, source).source_mean(np.array([2.0, 0.0]))
        np.testing.assert_allclose(mu, [1.0, 0.0])

    def test_target_mean_cases(self):
        source = DomainDataset([[0.0, 0.0], [1.0, 1.0]], [1.0, -1.0])
        single = DomainDataset([[1.0, 2.0], [1.0, 2.0]], [1.0])
        np.testing.assert_allclose(pair_problem(source, single).target_mean, [1.0, 2.0])
        pair = DomainDataset([[1.0, -1.0], [-1.0, 1.0]], [1.0, -1.0])
        np.testing.assert_allclose(
            pair_problem(source, pair).target_mean, [0.0, 0.0], atol=1e-15
        )

    def test_target_mean_is_unit_weighted_source_mean(self):
        rng = np.random.default_rng(8)
        data = DomainDataset(rng.standard_normal((7, 3)), np.ones(7))
        problem = pair_problem(data, data)
        np.testing.assert_allclose(
            problem.target_mean,
            problem.source_mean(SourceWeights.uniform(7, 3.0).pi),
            atol=1e-14,
        )


class TestMatchingDistance:
    def test_identical_domains_zero(self):
        rng = np.random.default_rng(9)
        feats = rng.standard_normal((5, 3))
        src = DomainDataset(feats, np.ones(5))
        tgt = DomainDataset(feats, np.ones(2))
        d = mean_matching(np.eye(3), src, SourceWeights.uniform(5, 3.0), tgt)
        assert d == pytest.approx(0.0, abs=1e-15)

    def test_half_squared_gap(self):
        src = DomainDataset([[1.0, 0.0], [1.0, 0.0]], [1.0, 1.0])
        tgt = DomainDataset([[0.0, 0.0], [0.0, 0.0]], [1.0])
        d = mean_matching(np.eye(2), src, SourceWeights.uniform(2, 3.0), tgt)
        assert d == pytest.approx(0.5)

    def test_depends_on_data_only_through_projections(self):
        rng = np.random.default_rng(10)
        src = DomainDataset(rng.standard_normal((6, 4)), np.ones(6))
        tgt = DomainDataset(rng.standard_normal((5, 4)), np.ones(2))
        weights = SourceWeights.uniform(6, 3.0)
        theta = random_orthonormal_rows(rng, 2, 4)
        rot, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        rotated_src = DomainDataset(src.features @ rot, src.labels)
        rotated_tgt = DomainDataset(tgt.features @ rot, tgt.labels)
        # Rows become R'x, so theta R recovers the original projections.
        base = mean_matching(theta, src, weights, tgt)
        moved = mean_matching(theta @ rot, rotated_src, weights, rotated_tgt)
        assert moved == pytest.approx(base, abs=1e-9)

    def test_bitwise_equal_to_the_gap_of_projected_means(self):
        for seed in range(5):
            source, target, model, weights, graphs = random_instance(50 + seed)
            hp = HyperParams(c3=1.7)
            terms = objective(model, weights, Problem(source, target, hp, *graphs))
            # Reference: project each raw mean, then take half the squared gap.
            theta = model.theta
            gap = (theta @ (source.features.T @ weights.pi / source.n)
                   - theta @ target.features.mean(axis=0))
            assert terms.mean_matching == hp.c3 * (0.5 * float(gap @ gap))


class TestClassifiers:
    def test_zero_classifier(self):
        model = TransferModel(np.eye(2), [0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
        assert classify_target(model, [5.0, -3.0]) == 0.0

    def test_no_adaptation_reduces_to_common_classifier(self):
        rng = np.random.default_rng(11)
        theta = random_orthonormal_rows(rng, 2, 4)
        w = rng.standard_normal(2)
        model = TransferModel(theta, w, theta.T @ w, theta.T @ w)
        np.testing.assert_allclose(model.u, 0.0, atol=1e-12)

    def test_reparameterization_identity(self):
        rng = np.random.default_rng(12)
        theta = random_orthonormal_rows(rng, 3, 5)
        model = TransferModel(
            theta, rng.standard_normal(3), rng.standard_normal(5), rng.standard_normal(5)
        )
        for _ in range(100):
            x = rng.standard_normal(5)
            direct_t = classify_target(model, x)
            split_t = model.w @ theta @ x + model.v @ x
            assert direct_t == pytest.approx(split_t, abs=1e-9)

    def test_batch_equals_loop(self):
        rng = np.random.default_rng(13)
        theta = random_orthonormal_rows(rng, 2, 3)
        model = TransferModel(
            theta, rng.standard_normal(2), rng.standard_normal(3), rng.standard_normal(3)
        )
        batch = rng.standard_normal((6, 3))
        scores = classify_target(model, batch)
        for i in range(6):
            assert scores[i] == pytest.approx(classify_target(model, batch[i]))

    @pytest.mark.parametrize("classify", [classify_target])
    def test_input_dimension_checked(self, classify):
        model = TransferModel(np.eye(2), [0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
        with pytest.raises(ValidationError,
                           match="^input dimension does not match the model$"):
            classify(model, np.ones((3, 3)))


class TestHinge:
    def test_pointwise_values(self):
        np.testing.assert_allclose(
            hinge_losses(np.array([0.0, 1.0, 2.0, -1.0]), np.array([1.0, 1.0, 1.0, 1.0])),
            [1.0, 0.0, 0.0, 2.0],
        )

    def test_exact_margin_is_zero_loss(self):
        assert hinge_losses(np.array([1.0]), np.array([1.0]))[0] == 0.0
        assert hinge_losses(np.array([-1.0]), np.array([-1.0]))[0] == 0.0


class TestObjective:
    def test_zero_parameters_give_hinge_counts(self):
        source, target, _, weights, graphs = random_instance(21)
        m, r = source.dim, 2
        theta = np.eye(m)[:r]
        model = TransferModel(theta, np.zeros(r), np.zeros(m), np.zeros(m))
        problem = Problem(source, target, HyperParams(), *graphs)
        terms = objective(model, weights, problem)
        assert terms.source_hinge == pytest.approx(weights.pi.sum())
        assert terms.target_hinge == pytest.approx(target.labeled_count)
        assert terms.adaptation == 0.0
        assert terms.response_smoothness == 0.0

    def test_zero_tradeoffs_leave_pure_hinge(self):
        source, target, model, weights, graphs = random_instance(22)
        hp = HyperParams(c1=0.0, c2=0.0, c3=0.0)
        terms = objective(model, weights, Problem(source, target, hp, *graphs))
        assert terms.adaptation == 0.0
        assert terms.weight_smoothness == 0.0
        assert terms.response_smoothness == 0.0
        assert terms.mean_matching == 0.0
        assert terms.total == pytest.approx(terms.source_hinge + terms.target_hinge)

    def test_matches_straightforward_recomputation(self):
        source, target, model, weights, graphs = random_instance(23)
        hp = HyperParams(c1=0.7, c2=1.3, c3=2.1)
        terms = objective(model, weights, Problem(source, target, hp, *graphs))

        # Independent loop-based recomputation of every term.
        src_hinge = sum(
            weights.pi[i] * max(0.0, 1.0 - source.labels[i] * (model.phi @ source.features[i]))
            for i in range(source.n)
        )
        tgt_hinge = sum(
            max(0.0, 1.0 - target.labels[j] * (model.psi @ target.features[j]))
            for j in range(target.labeled_count)
        )
        shared = model.theta.T @ model.w
        adapt = 0.5 * hp.c1 * (
            np.linalg.norm(model.phi - shared) ** 2 + np.linalg.norm(model.psi - shared) ** 2
        )
        sg, tg = graphs
        w_smooth = hp.c2 * sum(
            (weights.pi[i] - sum(sg.weights[i][a] * weights.pi[sg.neighbors[i][a]] for a in range(sg.k))) ** 2
            for i in range(source.n)
        )
        r_smooth = hp.c2 * sum(
            (
                model.psi @ target.features[j]
                - sum(tg.weights[j][a] * (model.psi @ target.features[tg.neighbors[j][a]]) for a in range(tg.k))
            ) ** 2
            for j in range(target.n)
        )
        mu_s = sum(weights.pi[i] * (model.theta @ source.features[i]) for i in range(source.n)) / source.n
        mu_t = sum(model.theta @ target.features[j] for j in range(target.n)) / target.n
        match = 0.5 * hp.c3 * np.linalg.norm(mu_s - mu_t) ** 2

        assert terms.source_hinge == pytest.approx(src_hinge, abs=1e-10)
        assert terms.target_hinge == pytest.approx(tgt_hinge, abs=1e-10)
        assert terms.adaptation == pytest.approx(adapt, abs=1e-10)
        assert terms.weight_smoothness == pytest.approx(w_smooth, abs=1e-10)
        assert terms.response_smoothness == pytest.approx(r_smooth, abs=1e-10)
        assert terms.mean_matching == pytest.approx(match, abs=1e-10)

    def test_total_is_sum_and_terms_nonnegative(self):
        for seed in range(5):
            source, target, model, weights, graphs = random_instance(30 + seed)
            problem = Problem(source, target, HyperParams(), *graphs)
            terms = objective(model, weights, problem)
            values = [
                terms.source_hinge, terms.target_hinge, terms.adaptation,
                terms.weight_smoothness, terms.response_smoothness, terms.mean_matching,
            ]
            assert all(v >= 0.0 for v in values)
            assert terms.total == pytest.approx(sum(values), abs=1e-10)

    def test_pure_function(self):
        source, target, model, weights, graphs = random_instance(41)
        problem = Problem(source, target, HyperParams(), *graphs)
        a = objective(model, weights, problem)
        b = objective(model, weights, problem)
        assert a == b

    def test_missing_graph_rejected(self):
        source, target, model, weights, graphs = random_instance(42)
        with pytest.raises(ValidationError):
            objective(
                model, weights, Problem(source, target, HyperParams(), None, graphs[1])
            )

    def test_weight_length_checked(self):
        source, target, model, _, graphs = random_instance(43)
        problem = Problem(source, target, HyperParams(), *graphs)
        with pytest.raises(ValidationError,
                           match="^weight vector length does not match the source$"):
            objective(model, SourceWeights.uniform(source.n + 1, 3.0), problem)

    @pytest.mark.parametrize("c1", [1.0, 0.0])
    def test_overflowing_c2_rejected(self, c1):
        # A zero feature column gives R exact zeros, where inf * 0 would be NaN.
        source, target, _, _, graphs = random_instance(45)
        target = DomainDataset(np.hstack([target.features, np.zeros((target.n, 1))]),
                               target.labels)
        source = DomainDataset(np.hstack([source.features, np.ones((source.n, 1))]),
                               source.labels)
        with pytest.raises(ValidationError, match="^c2 is too large"):
            Problem(source, target, HyperParams(c1=c1, c2=1e308), *graphs)

    def test_graph_sizes_checked(self):
        source, target, _, _, graphs = random_instance(44, n1=8, n2=6)
        with pytest.raises(ValidationError,
                           match="^graph sizes do not match the datasets$"):
            Problem(source, target, HyperParams(), graphs[1], graphs[0])


class TestHingeDual:
    @pytest.mark.parametrize("p, m", [(30, 6), (5, 12), (0, 7)],
                             ids=["m<n", "m>n", "empty"])
    def test_lift_is_the_inverse_root(self, p, m):
        rng = np.random.default_rng(50 + p)
        curvature, hinge_rows = rng.standard_normal((p, m)), rng.standard_normal((9, m))
        c1 = 0.3
        values, vectors = np.linalg.eigh(c1 * np.eye(m) + curvature.T @ curvature)
        root = (vectors / np.sqrt(values)) @ vectors.T
        dual = HingeDual.build(DomainDataset(hinge_rows, np.ones(9)), c1, curvature)
        np.testing.assert_allclose(dual.lift(np.eye(m)), root, rtol=0.0, atol=1e-12)
        for v in rng.standard_normal((3, m)):
            np.testing.assert_allclose(dual.lift(v), root @ v, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(dual.rows, hinge_rows @ root, rtol=0.0, atol=1e-12)

    def test_no_dual_at_zero_c1(self):
        dataset = DomainDataset([[1.0, 2.0], [3.0, 4.0]], [1.0, -1.0])
        assert HingeDual.build(dataset, 0.0) is None
        dual = HingeDual.build(dataset, 4.0)
        np.testing.assert_array_equal(dual.rows, [[0.5, 1.0], [-1.5, -2.0]])

    def test_problem_memory_is_linear_in_m(self):
        import tracemalloc

        source, target = generate_synthetic_pair(rotated_benchmark_spec(0, 200, 2000))
        hp = HyperParams(r=3)
        graphs = (build_graph(source, hp.k), build_graph(target, hp.k))
        tracemalloc.start()
        try:
            Problem(source, target, hp, *graphs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20  # one dense 2000 x 2000 float64 array takes 32 MB
