"""Cross-validation harness, linear-SVM anchors, the ablation and report emission.

Folds are stratified over the labeled target points. A held-out point is not
discarded during training: it stays in the target set as an unlabeled row (so
the response-smoothness term still sees it) and only its label is hidden.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from .data import (
    DomainDataset,
    SyntheticShiftSpec,
    generate_synthetic_pair,
    load_dataset,
    load_json,
    standardize_pair,
    synthetic_pair_with_hidden_labels,
    to_json,
    write_all,
)
from .errors import ConfigError, ValidationError, check_numbers, settle
from .model import HyperParams, classify_target
from .optimizer import fit, train_anchor

PROPOSED = "proposed"
SOURCE_ONLY = "source-only"
TARGET_ONLY = "target-only"
NO_ADAPTATION = "no-adaptation"  # the proposed method with the matching term off
BASELINES = (SOURCE_ONLY, TARGET_ONLY, NO_ADAPTATION)
_BASELINE_ALIASES = {"no-matching": NO_ADAPTATION}


def accuracy(scores, labels) -> float:
    """Fraction of sign agreements; a score of exactly 0 predicts +1."""
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels, dtype=np.float64).reshape(-1)
    if scores.size != labels.size:
        raise ValidationError("scores and labels must have equal length")
    if scores.size == 0:
        raise ValidationError("accuracy of an empty set is undefined")
    if not np.all(np.isin(labels, (1.0, -1.0))):
        raise ValidationError("labels must be +1 or -1")
    predictions = np.where(scores >= 0.0, 1.0, -1.0)
    return float(np.mean(predictions == labels))


def baseline_source_only(source: DomainDataset, hp: HyperParams) -> np.ndarray:
    """Linear SVM on the source domain alone (:func:`~wdmatch.optimizer.train_anchor`)."""
    return train_anchor(source, hp, "source-only baseline needs labeled source data")


def baseline_target_only(target: DomainDataset, hp: HyperParams) -> np.ndarray:
    """Linear SVM on the labeled target block alone (see :func:`baseline_source_only`)."""
    return train_anchor(target, hp, "target-only baseline needs labeled target points")


@dataclass(frozen=True)
class DatasetFile:
    """A dataset file of an experiment, read by :func:`~wdmatch.data.load_dataset`."""

    path: str
    format: str
    n_features: int | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved cross-validation experiment description."""

    source: DatasetFile | None = None
    target: DatasetFile | None = None
    synthetic: SyntheticShiftSpec | None = None
    hp: HyperParams = field(default_factory=HyperParams, metadata={"json": "hyperparams"})
    folds: int = 10
    seed: int = 0
    baselines: tuple[str, ...] = BASELINES
    standardize: bool = False
    parallel: int = 1
    trace: bool = False
    out: str | None = None

    def __post_init__(self):
        check_numbers(self, ("folds", "seed", "parallel"))
        if self.folds < 2:
            raise ConfigError("folds must be at least 2")
        if self.parallel < 1:
            raise ConfigError("parallel must be a positive integer")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        has_files = self.source is not None or self.target is not None
        if has_files and self.synthetic is not None:
            raise ConfigError("give either file datasets or a synthetic spec")
        if has_files and (self.source is None or self.target is None):
            raise ConfigError("both source and target files are required")
        if not has_files and self.synthetic is None:
            raise ConfigError("no dataset specified")
        normalized = []
        for name in self.baselines:
            name = _BASELINE_ALIASES.get(name, name)
            if name not in BASELINES:
                raise ConfigError(
                    f"unknown baseline {name!r}; choose from {sorted(BASELINES)}"
                )
            if name not in normalized:
                normalized.append(name)
        settle(self, baselines=tuple(normalized))


def load_experiment_config(path) -> ExperimentConfig:
    return load_json(path, ExperimentConfig)


def resolve_datasets(config: ExperimentConfig):
    if config.synthetic is not None:
        source, target = generate_synthetic_pair(config.synthetic)
    else:
        source, target = (
            load_dataset(entry.path, entry.format, n_features=entry.n_features)
            for entry in (config.source, config.target)
        )
    if config.standardize:
        source, target = standardize_pair(source, target)
    return source, target


def stratified_folds(labels, folds: int, seed: int):
    """Deterministic stratified partition of indices 0..len(labels)-1.

    Each class is shuffled and dealt round-robin, with the dealing position
    carried across classes so fold sizes stay balanced even when a class has
    fewer members than there are folds.
    """
    labels = np.asarray(labels, dtype=np.float64).reshape(-1)
    if labels.size < folds:
        raise ConfigError(
            f"{folds}-fold split needs at least {folds} labeled points, "
            f"got {labels.size}"
        )
    rng = np.random.default_rng(seed)
    assignment = np.empty(labels.size, dtype=np.int64)
    position = 0
    for value in (1.0, -1.0):
        members = np.flatnonzero(labels == value)
        members = members[rng.permutation(members.size)]
        for idx in members:
            assignment[idx] = position % folds
            position += 1
    return [np.flatnonzero(assignment == f) for f in range(folds)]


def hold_out_fold(target: DomainDataset, test_idx: np.ndarray):
    """Rebuild the target with the test block's labels hidden.

    Returns the reduced-label dataset plus the held-out features/labels. The
    held-out rows remain present (unlabeled), so regularizers keep seeing
    them.
    """
    test_idx = np.asarray(sorted(int(i) for i in test_idx), dtype=np.int64)
    if test_idx.size and (test_idx.min() < 0 or test_idx.max() >= target.labeled_count):
        raise ValidationError("test indices must address labeled target rows")
    mask = np.zeros(target.labeled_count, dtype=bool)
    mask[test_idx] = True
    train_idx = np.flatnonzero(~mask)
    order = np.concatenate(
        [train_idx, test_idx, np.arange(target.labeled_count, target.n)]
    )
    fold_target = DomainDataset(target.features[order], target.labels[train_idx])
    return fold_target, target.features[test_idx], target.labels[test_idx]


def _train_and_score(method: str, source, target, hp: HyperParams, x):
    """Train ``method`` on the two domains; the scores of the rows ``x`` and
    the fit's state (``None`` for an anchor, a linear SVM on one domain).
    No-adaptation is the fit with c3 = 0. ``fit`` and the baselines are read
    as module globals, which ``bench/layers.py`` wraps."""
    if method == SOURCE_ONLY:
        return x @ baseline_source_only(source, hp), None
    if method == TARGET_ONLY:
        return x @ baseline_target_only(target, hp), None
    state = fit(source, target, replace(hp, c3=0.0) if method == NO_ADAPTATION else hp)
    return classify_target(state.model, x), state


def _fold_worker(source, target, config: ExperimentConfig, source_only, test_idx):
    """Score every method on the fold that holds out ``test_idx``; the
    source-only SVM ``source_only`` is trained once per run and only scored here."""
    fold_target, test_x, test_y = hold_out_fold(target, test_idx)
    out = {}
    for method in (PROPOSED,) + config.baselines:
        started = time.perf_counter()
        scores, state = ((test_x @ source_only, None) if method == SOURCE_ONLY else
                         _train_and_score(method, source, fold_target, config.hp, test_x))
        fitted = state is not None
        out[method] = {
            "accuracy": accuracy(scores, test_y),
            "trace": list(state.objective_trace) if fitted else None,
            "terms": list(state.term_trace) if fitted and config.trace else None,
            "seconds": time.perf_counter() - started,
        }
    return out


def run_cv(config: ExperimentConfig) -> dict:
    """Run the stratified cross-validation experiment described by ``config``.

    The report is reproducible byte-for-byte for a fixed config and seed,
    except for the wall-clock entries under the ``timing`` keys.
    """
    source, target = resolve_datasets(config)
    folds = stratified_folds(target.labels, config.folds, config.seed)
    source_only = (baseline_source_only(source, config.hp)
                   if SOURCE_ONLY in config.baselines else None)
    task = partial(_fold_worker, source, target, config, source_only)
    if config.parallel > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(config.parallel, len(folds))) as pool:
            fold_results = list(pool.map(task, folds))
    else:
        fold_results = list(map(task, folds))

    report = {
        "config": to_json(config),
        "folds": config.folds,
        "fold_test_indices": [[int(i) for i in idx] for idx in folds],
        "methods": {},
    }
    for method in (PROPOSED,) + config.baselines:
        results = [fold[method] for fold in fold_results]
        per_fold = [result["accuracy"] for result in results]
        seconds = [result["seconds"] for result in results]
        entry = {
            "mean_accuracy": float(np.mean(per_fold)),
            "fold_accuracies": per_fold,
            "objective_traces": [result["trace"] for result in results],
            "timing": {
                "per_fold_seconds": seconds,
                "total_seconds": float(sum(seconds)),
            },
        }
        if config.trace:
            entry["term_traces"] = [result["terms"] for result in results]
        report["methods"][method] = entry
    return report


def write_report(report: dict, path) -> None:
    """Write the JSON report and a flat method/fold/accuracy TSV beside it, or neither."""
    rows = ["method\tfold\taccuracy"]
    for method, entry in report["methods"].items():
        for fold, acc in enumerate(entry["fold_accuracies"]):
            rows.append(f"{method}\t{fold}\t{acc!r}")
    path = Path(path)
    write_all([(path, json.dumps(report, indent=2) + "\n"),
               (path.with_suffix(".tsv"), "\n".join(rows) + "\n")])


# Rotated-Gaussian benchmark: a 30-degree rotation plus a mean shift along the
# class axis, with a tenth of the target labeled. The translation leaves the
# through-origin source separator badly aligned with the target geometry.
BENCHMARK_ANGLE = np.pi / 6.0
BENCHMARK_SEPARATION = 4.0
BENCHMARK_DIM = 4
BENCHMARK_SAMPLES = 200


def rotated_benchmark_spec(
    seed: int,
    samples: int = BENCHMARK_SAMPLES,
    dim: int = BENCHMARK_DIM,
) -> SyntheticShiftSpec:
    return SyntheticShiftSpec(
        dim=dim,
        samples=samples,
        separation=BENCHMARK_SEPARATION,
        angle=BENCHMARK_ANGLE,
        translation=-1.5,
        seed=seed,
    )


def benchmark_hyperparams() -> HyperParams:
    """Settings used by the transfer-benefit benchmark runs."""
    return HyperParams(r=3, c3=3.0, outer_iters=15, subgrad_iters=80)


def transfer_benefit_trial(seed: int, hp: HyperParams | None = None) -> dict:
    """Accuracies of the proposed method and its anchors on one benchmark draw.

    Scores are measured on the target rows whose labels were held back by the
    generator, so no training signal leaks into the evaluation.
    """
    hp = benchmark_hyperparams() if hp is None else hp
    spec = rotated_benchmark_spec(seed)
    source, target, hidden = synthetic_pair_with_hidden_labels(spec)
    eval_x = target.features[target.labeled_count:]
    return {
        method: accuracy(_train_and_score(method, source, target, hp, eval_x)[0], hidden)
        for method in (PROPOSED, NO_ADAPTATION, SOURCE_ONLY)
    }
