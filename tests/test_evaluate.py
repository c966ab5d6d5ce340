import concurrent.futures
import copy
import json
import logging

import numpy as np
import pytest

from wdmatch.data import (
    DomainDataset,
    SyntheticShiftSpec,
    from_json,
    generate_synthetic_pair,
    standardize_pair,
    synthetic_pair_with_hidden_labels,
    to_json,
)
from wdmatch.errors import ConfigError, ConvergenceError, ValidationError
from wdmatch.evaluate import (
    DatasetFile,
    ExperimentConfig,
    accuracy,
    baseline_source_only,
    baseline_target_only,
    hold_out_fold,
    resolve_datasets,
    run_cv,
    stratified_folds,
    write_report,
)
from wdmatch.model import HingeDual, HyperParams, hinge_losses, hinge_subgradient
from wdmatch.optimizer import halving_descent


def synthetic_config(**overrides):
    spec = SyntheticShiftSpec(
        dim=3, samples=40, separation=6.0, angle=0.2, translation=0.3, seed=2
    )
    base = dict(
        synthetic=spec,
        hp=HyperParams(outer_iters=3, subgrad_iters=25, k=3, r=2),
        folds=4,
        seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def strip_timing(report):
    report = copy.deepcopy(report)
    for entry in report["methods"].values():
        entry.pop("timing", None)
    return report


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy([2.0, -1.0], [1.0, -1.0]) == 1.0

    def test_all_wrong(self):
        assert accuracy([2.0, -1.0], [-1.0, 1.0]) == 0.0

    def test_zero_score_counts_as_positive(self):
        assert accuracy([0.0], [1.0]) == 1.0
        assert accuracy([0.0], [-1.0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            accuracy([1.0], [1.0, -1.0])

    @pytest.mark.parametrize("scores, labels, message", [
        ([], [], "^accuracy of an empty set is undefined$"),
        ([1.0, -1.0], [1.0, 0.0], "^labels must be \\+1 or -1$"),
    ])
    def test_invalid_input_rejected(self, scores, labels, message):
        with pytest.raises(ValidationError, match=message):
            accuracy(scores, labels)


def regularised_hinge(data, c1):
    """Value and subgradient of sum_i max(0, 1 - y_i x_i'c) + c1/2 c'c over the
    labeled rows of ``data``, on a one-tuple (c,) as halving_descent takes."""
    x, y = data.labeled_features, data.labels

    def value(params):
        return float(hinge_losses(x @ params[0], y).sum()) + 0.5 * c1 * params[0] @ params[0]

    def gradient(params):
        return (hinge_subgradient(x, y, params[0]) + c1 * params[0],)
    return value, gradient


class TestHingeBaselines:
    def test_separable_training_accuracy(self):
        rng = np.random.default_rng(0)
        x = np.vstack([rng.normal(3.0, 0.5, (30, 2)), rng.normal(-3.0, 0.5, (30, 2))])
        y = np.concatenate([np.ones(30), -np.ones(30)])
        w = baseline_source_only(DomainDataset(x, y), HyperParams())
        assert accuracy(x @ w, y) == 1.0

    def test_hinge_at_zero_slack_is_active(self):
        # At c1 = 0 the anchor runs the halving search. Its first unit step puts
        # the point exactly on the margin (slack 0). Counted as active, its
        # subgradient is -1 and the second step is taken; counted as inactive,
        # descent would stop at w = 1.
        w = baseline_source_only(DomainDataset([[1.0]], [1.0]), HyperParams(c1=0.0, rho=1.0))
        np.testing.assert_array_equal(w, [2.0])

    @pytest.mark.parametrize("baseline", [baseline_source_only, baseline_target_only])
    @pytest.mark.parametrize("seed, c1", [(0, 1.0), (1, 0.2), (2, 3.0)])
    def test_not_above_long_halving_descent(self, baseline, seed, c1):
        # At c1 > 0 the anchor minimizes the regularised hinge sum exactly: a
        # long subgradient run on the same objective ends no lower.
        spec = SyntheticShiftSpec(dim=4, samples=80, separation=2.0, noise=0.2, seed=seed)
        data = generate_synthetic_pair(spec)[baseline is baseline_target_only]
        value, gradient = regularised_hinge(data, c1)
        exact = value((baseline(data, HyperParams(c1=c1)),))
        reference = value(halving_descent(value, gradient, (np.zeros(4),), 2000, 0.1))
        assert exact <= reference + 1e-10 * max(1.0, abs(reference))

    def test_refused_solve_falls_back_with_one_warning(self, monkeypatch, caplog):
        def refuse(*args):
            raise ConvergenceError("refused")

        spec = SyntheticShiftSpec(dim=3, samples=40, separation=2.0, seed=3)
        source = generate_synthetic_pair(spec)[0]
        hp = HyperParams(c1=0.5, rho=0.3, subgrad_iters=40)
        monkeypatch.setattr(HingeDual, "solve", refuse)
        with caplog.at_level(logging.WARNING, logger="wdmatch.optimizer"):
            w = baseline_source_only(source, hp)
        assert [r.levelno for r in caplog.records] == [logging.WARNING]
        assert "not certified (refused)" in caplog.records[0].getMessage()
        expected = halving_descent(*regularised_hinge(source, hp.c1), (np.zeros(3),),
                                   hp.subgrad_iters, hp.rho)
        np.testing.assert_array_equal(w, expected[0])

    def test_zero_shift_transfers(self):
        spec = SyntheticShiftSpec(dim=3, samples=300, separation=4.0, seed=6)
        source, target, hidden = synthetic_pair_with_hidden_labels(spec)
        w = baseline_source_only(source, HyperParams())
        src_acc = accuracy(source.features @ w, source.labels)
        tgt_acc = accuracy(target.features[target.labeled_count:] @ w, hidden)
        assert abs(src_acc - tgt_acc) < 0.05

    def test_adversarial_flip_scores_below_chance(self):
        spec = SyntheticShiftSpec(
            dim=2, samples=300, separation=6.0, angle=np.pi, seed=7
        )
        source, target, hidden = synthetic_pair_with_hidden_labels(spec)
        w = baseline_source_only(source, HyperParams())
        assert accuracy(target.features[target.labeled_count:] @ w, hidden) < 0.5

    def test_target_only_needs_labels(self):
        unlabeled = DomainDataset(np.zeros((3, 2)), [])
        with pytest.raises(ValidationError):
            baseline_target_only(unlabeled, HyperParams())

    @pytest.mark.parametrize("baseline, message", [
        (baseline_source_only, "^source-only baseline needs labeled source data$"),
        (baseline_target_only, "^target-only baseline needs labeled target points$"),
    ])
    @pytest.mark.parametrize("rows", [0, 3])
    def test_baseline_names_itself_without_labels(self, baseline, message, rows):
        with pytest.raises(ValidationError, match=message):
            baseline(DomainDataset(np.zeros((rows, 2)), []), HyperParams())


class TestStratifiedFolds:
    def test_partition_property(self):
        labels = np.where(np.random.default_rng(1).random(23) < 0.4, 1.0, -1.0)
        folds = stratified_folds(labels, 5, seed=3)
        seen = np.concatenate(folds)
        assert sorted(seen.tolist()) == list(range(23))
        sizes = sorted(len(f) for f in folds)
        assert sizes[-1] - sizes[0] <= 1

    def test_class_balance(self):
        labels = np.array([1.0] * 20 + [-1.0] * 20)
        folds = stratified_folds(labels, 4, seed=0)
        for fold in folds:
            assert np.sum(labels[fold] == 1.0) == 5

    def test_small_classes_still_fill_every_fold(self):
        labels = np.array([1.0] * 5 + [-1.0] * 5)
        folds = stratified_folds(labels, 10, seed=0)
        assert all(len(f) == 1 for f in folds)

    def test_too_few_points(self):
        with pytest.raises(ConfigError):
            stratified_folds(np.ones(9), 10, seed=0)


class TestHoldOutFold:
    def test_held_out_rows_stay_unlabeled(self):
        rng = np.random.default_rng(4)
        target = DomainDataset(rng.standard_normal((10, 2)), np.where(rng.random(6) < 0.5, 1.0, -1.0))
        fold_target, test_x, test_y = hold_out_fold(target, np.array([1, 4]))
        assert fold_target.n == target.n
        assert fold_target.labeled_count == 4
        np.testing.assert_array_equal(test_x, target.features[[1, 4]])
        np.testing.assert_array_equal(test_y, target.labels[[1, 4]])
        # The held-out feature rows are still present in the fold dataset.
        for row in test_x:
            assert np.any(np.all(fold_target.features == row, axis=1))

    @pytest.mark.parametrize("test_idx", [[6], [-1], [0, 9]])
    def test_index_out_of_range_rejected(self, test_idx):
        target = DomainDataset(np.zeros((10, 2)), np.ones(6))
        with pytest.raises(ValidationError,
                           match="^test indices must address labeled target rows$"):
            hold_out_fold(target, np.array(test_idx))


class TestExperimentConfig:
    def test_requires_some_dataset(self):
        with pytest.raises(ConfigError):
            ExperimentConfig()

    def test_rejects_both_kinds(self):
        spec = SyntheticShiftSpec(dim=2, samples=10, separation=1.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(
                source={"path": "a", "format": "dense-csv"},
                target={"path": "b", "format": "dense-csv"},
                synthetic=spec,
            )

    def test_folds_floor(self):
        with pytest.raises(ConfigError):
            synthetic_config(folds=1)

    def test_unknown_baseline(self):
        with pytest.raises(ConfigError):
            synthetic_config(baselines=("nearest-centroid",))

    def test_no_matching_alias(self):
        config = synthetic_config(baselines=("no-matching",))
        assert config.baselines == ("no-adaptation",)

    @pytest.mark.parametrize("change, message", [
        ({"parallel": 0}, "^parallel must be a positive integer$"),
        ({"synthetic": None, "source": DatasetFile("s.csv", "dense-csv")},
         "^both source and target files are required$"),
        ({"synthetic": None, "target": DatasetFile("t.csv", "dense-csv")},
         "^both source and target files are required$"),
    ])
    def test_invalid_field_rejected(self, change, message):
        with pytest.raises(ConfigError, match=message):
            synthetic_config(**change)

    def test_json_round_trip(self):
        config = synthetic_config()
        back = from_json(ExperimentConfig, json.loads(json.dumps(to_json(config))))
        assert back == config

    def test_standardize_resolves_standardized_pair(self):
        plain = resolve_datasets(synthetic_config())
        for got, want in zip(resolve_datasets(synthetic_config(standardize=True)),
                             standardize_pair(*plain)):
            np.testing.assert_array_equal(got.features, want.features)
            np.testing.assert_array_equal(got.labels, want.labels)


class TestRunCV:
    def test_separable_pair_all_folds_perfect(self):
        spec = SyntheticShiftSpec(dim=2, samples=60, separation=12.0, seed=9)
        config = ExperimentConfig(
            synthetic=spec,
            hp=HyperParams(outer_iters=3, subgrad_iters=30, k=3, r=2),
            folds=3,
            seed=1,
            baselines=("source-only",),
        )
        report = run_cv(config)
        for entry in report["methods"].values():
            assert entry["fold_accuracies"] == [1.0, 1.0, 1.0]

    def test_coin_flip_labels_near_chance(self):
        spec = SyntheticShiftSpec(dim=3, samples=300, separation=4.0, noise=0.5, seed=10)
        config = ExperimentConfig(
            synthetic=spec,
            hp=HyperParams(outer_iters=4, subgrad_iters=30, r=2, k=4),
            folds=10,
            seed=2,
            baselines=("source-only",),
        )
        report = run_cv(config)
        for method in ("proposed", "source-only"):
            assert 0.35 <= report["methods"][method]["mean_accuracy"] <= 0.65

    def test_fold_count_exceeding_labels_rejected(self):
        spec = SyntheticShiftSpec(dim=2, samples=90, separation=3.0, seed=11)
        config = synthetic_config(synthetic=spec, folds=10)
        # 90 samples -> 9 labeled target points < 10 folds.
        with pytest.raises(ConfigError):
            run_cv(config)

    def test_report_structure_and_partition(self):
        config = synthetic_config()
        report = run_cv(config)
        methods = report["methods"]
        assert set(methods) == {"proposed", "source-only", "target-only", "no-adaptation"}
        labeled = 4  # ceil(40/10)
        seen = sorted(i for fold in report["fold_test_indices"] for i in fold)
        assert seen == list(range(labeled))
        for entry in methods.values():
            assert len(entry["fold_accuracies"]) == config.folds
            assert entry["mean_accuracy"] == pytest.approx(
                float(np.mean(entry["fold_accuracies"]))
            )
            assert all(0.0 <= a <= 1.0 for a in entry["fold_accuracies"])
        for trace in methods["proposed"]["objective_traces"]:
            assert np.all(np.diff(np.asarray(trace)) <= 1e-8)

    def test_reports_reproducible_modulo_timing(self):
        config = synthetic_config()
        a = strip_timing(run_cv(config))
        b = strip_timing(run_cv(config))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_parallel_matches_serial(self):
        config = synthetic_config(folds=2)
        serial = strip_timing(run_cv(config))
        parallel = strip_timing(run_cv(ExperimentConfig(**{**config.__dict__, "parallel": 2})))
        serial["config"]["parallel"] = parallel["config"]["parallel"] = None
        assert json.dumps(serial, sort_keys=True) == json.dumps(parallel, sort_keys=True)

    def test_parallel_workers_capped_at_fold_count(self, monkeypatch):
        # A pool may fork all its workers at its first task, and a worker past
        # the fold count would have nothing to run.
        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        report = run_cv(synthetic_config(folds=2, parallel=100_000))
        assert pools == [2]
        assert report["config"]["parallel"] == 100_000

    def test_trace_adds_term_traces(self):
        report = run_cv(synthetic_config(trace=True, baselines=("source-only",)))
        for method, entry in report["methods"].items():
            assert len(entry["term_traces"]) == 4
            for terms, trace in zip(entry["term_traces"], entry["objective_traces"]):
                if method == "source-only":
                    assert terms is None and trace is None
                else:
                    assert [t["total"] for t in terms] == trace


class TestWriteReport:
    def test_writes_json_and_tsv(self, tmp_path):
        config = synthetic_config(baselines=("source-only",), folds=2)
        report = run_cv(config)
        out = tmp_path / "report.json"
        write_report(report, out)
        parsed = json.loads(out.read_text())
        assert parsed["folds"] == 2
        lines = (tmp_path / "report.tsv").read_text().strip().splitlines()
        assert lines[0] == "method\tfold\taccuracy"
        assert len(lines) == 1 + 2 * len(report["methods"])
