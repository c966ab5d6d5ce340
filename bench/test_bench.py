"""Tests of the benchmark's own parts: each output check rejects a corrupted
output, and the tracer records spans and self time and survives a missing
function. Run with ``python3 -m pytest bench`` from the repository root."""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import wdmatch.cli  # noqa: E402
import wdmatch.optimizer  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import CV_METHODS, Workload, write_inputs  # noqa: E402

TINY_FIT = Workload("tiny-fit", "fit", 60, 4, "dense-csv", (0,),
                    {"r": 2, "outer_iters": 6})
TINY_CV = Workload("tiny-cv", "cv", 60, 4, "dense-csv", (0,),
                   {"r": 2, "outer_iters": 4, "subgrad_iters": 20}, folds=3)


def run_cli(workload, tmp_path, monkeypatch):
    instance = write_inputs(workload, 5, tmp_path)[0]
    graphs = []
    build_graph = wdmatch.optimizer.build_graph

    def keep_graph(*args, **kwargs):
        graph = build_graph(*args, **kwargs)
        graphs.append((graph.neighbors, graph.weights))
        return graph

    monkeypatch.setattr(wdmatch.optimizer, "build_graph", keep_graph)
    assert wdmatch.cli.main(instance.argv(workload.command)) == 0
    return instance, json.loads(instance.out.read_text()), graphs


@pytest.fixture
def fit_output(tmp_path, monkeypatch):
    instance, payload, graphs = run_cli(TINY_FIT, tmp_path, monkeypatch)
    return payload, graphs, instance.data, instance.hp


@pytest.fixture
def cv_output(tmp_path, monkeypatch):
    instance, report, _ = run_cli(TINY_CV, tmp_path, monkeypatch)
    return report, instance.data[3]


def test_fit_output_passes_every_check(fit_output):
    figures = checks.check_fit(*fit_output)
    assert figures["pi_kkt_relative"] <= checks.KKT_RTOL


def test_rising_trace_is_rejected(fit_output):
    payload = fit_output[0]
    trace = payload["objective_trace"]
    payload["objective_trace"] = trace[:1] + [trace[0] * (1 + 1e-6)] + trace[1:]
    with pytest.raises(checks.CheckFailed, match="rises"):
        checks.check_fit(*fit_output)


def test_non_orthonormal_theta_is_rejected(fit_output):
    model = fit_output[0]["model"]
    model["theta"] = [v * (1 + 1e-6) for v in model["theta"]]
    with pytest.raises(checks.CheckFailed, match="orthonormal"):
        checks.check_fit(*fit_output)


def test_wrong_w_is_rejected(fit_output):
    model = fit_output[0]["model"]
    model["w"] = [v + 1e-6 for v in model["w"]]
    with pytest.raises(checks.CheckFailed, match="theta\\(phi\\+psi\\)"):
        checks.check_fit(*fit_output)


def test_pi_above_its_box_is_rejected(fit_output):
    payload, delta = fit_output[0], fit_output[3]["delta"]
    pi = np.asarray(payload["pi"])
    high = int(np.argmax(pi))
    shift = delta + 0.5 - pi[high]
    others = np.arange(pi.size) != high
    pi[others] -= shift * pi[others] / pi[others].sum()  # stays >= 0, sum kept
    pi[high] += shift
    payload["pi"] = pi.tolist()
    with pytest.raises(checks.CheckFailed, match="pi above"):
        checks.check_fit(*fit_output)


def test_pi_below_its_box_is_rejected(fit_output):
    payload = fit_output[0]
    pi = np.asarray(payload["pi"])
    low, high = int(np.argmin(pi)), int(np.argmax(pi))
    shift = pi[low] + 0.01
    pi[low] -= shift  # below 0, sum kept
    pi[high] += shift
    payload["pi"] = pi.tolist()
    with pytest.raises(checks.CheckFailed, match="pi below"):
        checks.check_fit(*fit_output)


def test_pi_with_wrong_sum_is_rejected(fit_output):
    payload = fit_output[0]
    payload["pi"] = [v * 0.999 for v in payload["pi"]]
    with pytest.raises(checks.CheckFailed, match="sums to"):
        checks.check_fit(*fit_output)


def test_feasible_pi_that_is_not_optimal_is_rejected(fit_output):
    payload, delta = fit_output[0], fit_output[3]["delta"]
    pi = np.asarray(payload["pi"])
    free = np.flatnonzero((pi > 0.2) & (pi < delta - 0.2))
    assert free.size >= 2
    pi[free[0]] += 0.1  # stays in the box and keeps the sum
    pi[free[1]] -= 0.1
    payload["pi"] = pi.tolist()
    with pytest.raises(checks.CheckFailed, match="KKT"):
        checks.check_fit(*fit_output)


def test_wrong_neighbour_is_rejected(fit_output):
    graphs = fit_output[1]
    neighbors, weights = graphs[0]
    neighbors = neighbors.copy()
    far = int(np.argmax(np.linalg.norm(fit_output[2][0] - fit_output[2][0][0], axis=1)))
    neighbors[0, -1] = far
    graphs[0] = (neighbors, weights)
    with pytest.raises(checks.CheckFailed, match="nearest"):
        checks.check_fit(*fit_output)


def test_non_optimal_reconstruction_weights_are_rejected(fit_output):
    neighbors, weights = fit_output[1][1]
    k = weights.shape[1]
    fit_output[1][1] = (neighbors, np.full_like(weights, 1.0 / k))
    with pytest.raises(checks.CheckFailed, match="reconstruction weights fail KKT"):
        checks.check_fit(*fit_output)


def test_wrong_final_objective_is_rejected(fit_output):
    payload = fit_output[0]
    payload["objective_trace"][-1] *= 1 - 1e-6
    with pytest.raises(checks.CheckFailed, match="recomputed objective"):
        checks.check_fit(*fit_output)


def test_cv_report_passes_and_corruptions_are_rejected(cv_output):
    report, labels = cv_output
    checks.check_cv(report, labels, TINY_CV.folds, CV_METHODS)

    moved = json.loads(json.dumps(report))
    moved["fold_test_indices"][0].append(moved["fold_test_indices"][1].pop())
    moved["fold_test_indices"][0].append(moved["fold_test_indices"][1].pop())
    with pytest.raises(checks.CheckFailed, match="unbalanced|spread"):
        checks.check_cv(moved, labels, TINY_CV.folds, CV_METHODS)

    for corrupt, message in (
        (lambda e: e["fold_accuracies"].__setitem__(0, 0.123), "count/size"),
        (lambda e: e.__setitem__("mean_accuracy", e["mean_accuracy"] + 0.01), "mean"),
        (lambda e: e["objective_traces"][0].append(e["objective_traces"][0][-1] + 1),
         "rises"),
    ):
        bad = json.loads(json.dumps(report))
        corrupt(bad["methods"]["proposed"])
        with pytest.raises(checks.CheckFailed, match=message):
            checks.check_cv(bad, labels, TINY_CV.folds, CV_METHODS)


def test_tracer_records_spans_self_time_and_missing_names(tmp_path, monkeypatch):
    module = type(sys)("bench_fake_module")
    module.outer = lambda: (time.sleep(0.02), module.inner(), "done")[-1]
    module.inner = lambda: time.sleep(0.03)
    monkeypatch.setitem(sys.modules, "bench_fake_module", module)

    tracer = Tracer()
    assert tracer.wrap("bench_fake_module.outer", "fake.outer")
    assert tracer.wrap("bench_fake_module.inner", "fake.inner")
    assert not tracer.wrap("bench_fake_module.gone", "fake.gone")
    assert not tracer.wrap("no_such_module.func", "fake.none")
    assert tracer.missing == ["bench_fake_module.gone", "no_such_module.func"]
    tracer.run = 7
    assert module.outer() == "done"
    tracer.restore()
    module.outer()  # restored: no new spans
    assert len(tracer.spans) == 2

    outer, inner = tracer.spans
    assert outer[0] == "fake.outer" and outer[3] == -1 and outer[4] == 7
    assert inner[0] == "fake.inner" and inner[3] == 0 and inner[4] == 7
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]
    totals = tracer.totals()
    calls, total, own = totals["fake.outer"]
    assert calls == 1
    assert own == pytest.approx(total - (inner[2] - inner[1]))
    assert 0.015 <= own < total

    path = tmp_path / "spans.jsonl"
    tracer.write(path, {"run_id": "test"})
    lines = path.read_text().splitlines()
    assert json.loads(lines[0])["missing"] == tracer.missing
    assert [json.loads(line)[0] for line in lines[1:]] == ["fake.outer", "fake.inner"]
