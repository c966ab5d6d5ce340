"""The three benchmark workloads and the input files each one writes.

Every workload draws its problem instances from the rotated-Gaussian
benchmark (`wdmatch.evaluate.rotated_benchmark_spec`: separation 4, a 30
degree rotation, a -1.5 shift, a tenth of the target labelled) at fixed draw
seeds. The workload seed permutes the rows of each draw: all source rows, and
the unlabelled target rows among themselves. The solver does the same work on
every permutation of one draw, while another draw can cost twice as much (see
the README), so the seed changes every input file without changing how much
work a command does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from wdmatch.data import DomainDataset, save_dataset, synthetic_pair_with_hidden_labels
from wdmatch.evaluate import rotated_benchmark_spec

# Written out in full so that a change of the package defaults does not change
# the workload; these are the defaults at the time the benchmark was defined.
DEFAULT_HP = {"c1": 1.0, "c2": 1.0, "c3": 1.0, "r": None, "delta": 3.0, "k": 5,
              "rho": 0.1, "outer_iters": 50, "subgrad_iters": 100, "tol": 1e-6}
CV_METHODS = ("proposed", "source-only", "target-only", "no-adaptation")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "fit" or "cv"
    n: int
    m: int
    fmt: str
    draws: tuple  # draw seeds of the problem instances; one command per draw
    hp: dict = field(default_factory=dict)
    folds: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fit-large-n", "fit", 1500, 20, "dense-csv", (0,), {"r": 3}),
        Workload("fit-wide-m", "fit", 400, 400, "sparse-svmlight", (0, 1, 2)),
        Workload("cv-5fold", "cv", 400, 10, "dense-csv", (0,), {"r": 3}, folds=5),
    )
}


@dataclass
class Instance:
    """One command's inputs: arrays as written, config path and output path."""

    data: tuple  # (xs, ys, xt, yt): features and labels, labelled target rows first
    hp: dict
    config: Path
    out: Path

    def argv(self, command: str) -> list:
        return [command, "--config", str(self.config), "--out", str(self.out)]


def permuted_draw(workload: Workload, draw: int, seed: int):
    """The draw's (xs, ys, xt, yt), rows permuted by ``seed``."""
    spec = rotated_benchmark_spec(draw, samples=workload.n, dim=workload.m)
    source, target, _ = synthetic_pair_with_hidden_labels(spec)
    rng = np.random.default_rng(seed)
    n, labelled = workload.n, target.labeled_count
    src = rng.permutation(n)
    tgt = np.concatenate([np.arange(labelled), labelled + rng.permutation(n - labelled)])
    return (source.features[src], source.labels[src],
            target.features[tgt], target.labels.copy())


def write_inputs(workload: Workload, seed: int, workdir: Path) -> list:
    """Generate and write every input file of the workload; one Instance per draw."""
    instances = []
    for i, draw in enumerate(workload.draws):
        xs, ys, xt, yt = data = permuted_draw(workload, draw, seed + i)
        suffix = "svm" if workload.fmt == "sparse-svmlight" else "csv"
        entries = {}
        for role, dataset in (("source", DomainDataset(xs, ys)),
                              ("target", DomainDataset(xt, yt))):
            path = workdir / f"{role}-{i}.{suffix}"
            save_dataset(dataset, path, workload.fmt)
            entries[role] = {"path": str(path), "format": workload.fmt,
                             "n_features": workload.m}
        hp = {**DEFAULT_HP, **workload.hp}
        config = {**entries, "hyperparams": hp, "seed": 0}
        if workload.command == "cv":
            # The fold split stays fixed so every run solves the same sub-problems.
            config.update(folds=workload.folds, baselines=list(CV_METHODS[1:]),
                          parallel=1)
        config_path = workdir / f"config-{i}.json"
        config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
        instances.append(Instance(data, hp, config_path,
                                  workdir / f"out-{i}.json"))
    return instances
