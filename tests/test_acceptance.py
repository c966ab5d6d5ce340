"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.
"""

import json
import time

import numpy as np
import pytest

from wdmatch.cli import main as cli_main
from wdmatch.data import SyntheticShiftSpec, generate_synthetic_pair
from wdmatch.evaluate import transfer_benefit_trial
from wdmatch.model import HyperParams
from wdmatch.neighborhood import solve_reconstruction
from wdmatch.optimizer import fit, min_trace_rows, q_value, subgradients
from wdmatch.qp import BoxEqQP, solve_qp

from qp_oracle import MatrixOperator, projected_gradient_oracle


def report(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number}] {status} - {name} ({detail})")
    return passed


def random_fit_config(seed):
    rng = np.random.default_rng(1000 + seed)
    m = int(rng.integers(3, 13))
    n = int(rng.integers(30, 141))
    spec = SyntheticShiftSpec(
        dim=m,
        samples=n,
        separation=float(rng.uniform(1.0, 6.0)),
        angle=float(rng.uniform(0.0, np.pi)),
        translation=rng.uniform(-2.0, 2.0, m),
        noise=float(rng.uniform(0.0, 0.2)),
        seed=int(rng.integers(0, 2**31)),
    )
    hp = HyperParams(
        c1=float(np.exp(rng.uniform(np.log(0.2), np.log(3.0)))),
        c2=float(np.exp(rng.uniform(np.log(0.2), np.log(3.0)))),
        c3=float(np.exp(rng.uniform(np.log(0.2), np.log(3.0)))),
        r=int(rng.integers(1, min(m, 4) + 1)),
        delta=float(rng.uniform(1.5, 4.0)),
        k=int(rng.integers(2, 6)),
        outer_iters=30,
        subgrad_iters=int(rng.integers(30, 61)),
        tol=0.0,
    )
    return spec, hp


@pytest.fixture(scope="module")
def descent_runs():
    """Twenty random synthetic fits shared by criteria 1 and 2."""
    runs = []
    started = time.perf_counter()
    for seed in range(20):
        spec, hp = random_fit_config(seed)
        source, target = generate_synthetic_pair(spec)
        runs.append((fit(source, target, hp), hp, source.n))
    return runs, time.perf_counter() - started


def test_criterion_1_monotone_descent(descent_runs):
    runs, elapsed = descent_runs
    worst = -np.inf
    for state, _, _ in runs:
        trace = np.asarray(state.objective_trace)
        assert trace.size == 31  # 30 outer iterations plus the initial value
        worst = max(worst, float(np.max(np.diff(trace))))
    ok = worst <= 1e-8 and elapsed <= 60.0
    assert report(
        1, "monotone descent on 20 random configs",
        ok, f"max per-iteration increase {worst:.2e}, runtime {elapsed:.1f}s",
    )


def test_criterion_2_substep_exactness(descent_runs):
    runs, _ = descent_runs
    worst_step = -np.inf
    worst_orth = 0.0
    worst_bound = 0.0
    worst_sum = 0.0
    for state, hp, n1 in runs:
        for event in state.substeps:
            if event["step"] in ("phi_psi", "theta", "pi"):
                worst_step = max(worst_step, event["after"] - event["before"])
            if event["step"] == "theta":
                worst_orth = max(worst_orth, event["orthonormal_gap"])
            if event["step"] == "pi":
                worst_bound = max(worst_bound, event["bound_gap"])
                worst_sum = max(worst_sum, event["sum_gap"])
    ok = (
        worst_step <= 1e-10
        and worst_orth <= 1e-8
        and worst_bound <= 1e-9
        and worst_sum <= 1e-6
    )
    assert report(
        2, "phi_psi/theta/pi sub-step exactness",
        ok,
        f"max increase {worst_step:.2e}, orth {worst_orth:.2e}, "
        f"bounds {worst_bound:.2e}, sum {worst_sum:.2e}",
    )


def test_criterion_3_qp_oracle_equivalence():
    started = time.perf_counter()
    worst_x = 0.0
    worst_obj = 0.0
    for seed in range(50):
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.integers(2, 11))
        a = rng.standard_normal((n, n))
        hess = a.T @ a / n + 0.3 * np.eye(n)
        lower = rng.uniform(-1.0, 0.0, n)
        upper = lower + rng.uniform(0.5, 2.0, n)
        problem = BoxEqQP(
            MatrixOperator(hess), rng.standard_normal(n), lower, upper,
            float(rng.uniform(lower.sum(), upper.sum())),
        )
        sol = solve_qp(problem)
        oracle = projected_gradient_oracle(problem, steps=3000)
        worst_x = max(worst_x, float(np.linalg.norm(sol.x - oracle)))
        worst_obj = max(worst_obj, abs(problem.objective(oracle) - sol.objective))
    elapsed = time.perf_counter() - started
    ok = worst_x <= 1e-5 and worst_obj <= 1e-8 and elapsed <= 5.0
    assert report(
        3, "solve_qp matches projected-gradient oracle on 50 QPs",
        ok,
        f"max |x| gap {worst_x:.2e}, max objective gap {worst_obj:.2e}, "
        f"runtime {elapsed:.1f}s",
    )


def test_criterion_4_reconstruction_oracle():
    def grid_oracle(point, n0, n1):
        ts = np.arange(0.0, 1.0 + 1e-5, 1e-5)
        cand = (1.0 - ts)[:, None] * n0 + ts[:, None] * n1
        gaps = np.linalg.norm(point - cand, axis=1)
        t = ts[np.argmin(gaps)]
        return np.array([1.0 - t, t])

    def kkt_ok(point, nbrs, omega, tol=1e-6):
        nbrs = np.asarray(nbrs, dtype=np.float64)
        grad = 2.0 * (nbrs @ nbrs.T @ omega - nbrs @ point)
        active = omega > 1e-9
        lam = grad[active].mean()
        if np.max(np.abs(grad[active] - lam)) > tol:
            return False
        return bool(np.all(grad[~active] >= lam - tol))

    rng = np.random.default_rng(4000)
    cases = [(np.array([1.0, 0.0]), np.array([0.0, 0.0]), np.array([2.0, 1.0]))]
    for _ in range(24):
        m = int(rng.integers(1, 5))
        cases.append(
            (rng.standard_normal(m), rng.standard_normal(m), rng.standard_normal(m))
        )
    worst_gap = 0.0
    kkt_all = True
    fixed_ok = True
    for idx, (point, n0, n1) in enumerate(cases):
        omega = solve_reconstruction(point, np.vstack([n0, n1]))
        expected = grid_oracle(point, n0, n1)
        worst_gap = max(worst_gap, float(np.max(np.abs(omega - expected))))
        kkt_all = kkt_all and kkt_ok(point, np.vstack([n0, n1]), omega)
        if idx == 0:
            fixed_ok = bool(np.allclose(omega, [0.6, 0.4], atol=1e-6))
    ok = worst_gap <= 1e-3 and kkt_all and fixed_ok
    assert report(
        4, "reconstruction matches 1-D grid oracle with KKT certificates",
        ok, f"max coefficient gap {worst_gap:.2e}, fixed case -> [0.6, 0.4]: {fixed_ok}",
    )


def test_criterion_5_subgradient_finite_differences():
    from wdmatch.data import DomainDataset
    from wdmatch.model import Problem, SourceWeights
    from wdmatch.neighborhood import build_graph

    checked = 0
    seed = 0
    worst_rel = 0.0
    while checked < 30:
        seed += 1
        rng = np.random.default_rng(5000 + seed)
        m = int(rng.integers(2, 7))
        n1, n2 = int(rng.integers(5, 12)), int(rng.integers(5, 12))
        n3 = max(1, n2 // 2)
        source = DomainDataset(
            rng.standard_normal((n1, m)), np.where(rng.random(n1) < 0.5, 1.0, -1.0)
        )
        target = DomainDataset(
            rng.standard_normal((n2, m)), np.where(rng.random(n3) < 0.5, 1.0, -1.0)
        )
        phi, psi = rng.standard_normal(m), rng.standard_normal(m)
        margins = np.concatenate([
            np.abs(1.0 - source.labels * (source.features @ phi)),
            np.abs(1.0 - target.labels * (target.features[:n3] @ psi)),
        ])
        if margins.min() < 1e-3:
            continue  # resample: a kink would invalidate the finite differences
        checked += 1
        q, _ = np.linalg.qr(rng.standard_normal((m, 2)))
        theta = q.T
        w = rng.standard_normal(2)
        weights = SourceWeights.uniform(n1, 3.0)
        hp = HyperParams(
            c1=float(rng.uniform(0.2, 2.0)), c2=float(rng.uniform(0.2, 2.0))
        )
        problem = Problem(
            source, target, hp,
            build_graph(source, min(3, n1 - 1)), build_graph(target, min(3, n2 - 1)),
        )
        fixed = (theta.T @ w, weights.pi)
        g_phi, g_psi = subgradients(problem, phi, psi, *fixed)
        h = 1e-6
        for which, grad in (("phi", g_phi), ("psi", g_psi)):
            for i in range(m):
                e = np.zeros(m)
                e[i] = h
                if which == "phi":
                    up = q_value(problem, phi + e, psi, *fixed)
                    dn = q_value(problem, phi - e, psi, *fixed)
                else:
                    up = q_value(problem, phi, psi + e, *fixed)
                    dn = q_value(problem, phi, psi - e, *fixed)
                fd = (up - dn) / (2 * h)
                rel = abs(fd - grad[i]) / max(1.0, abs(fd))
                worst_rel = max(worst_rel, rel)
    ok = worst_rel <= 1e-5
    assert report(
        5, "subgradients match central differences on 30 kink-free instances",
        ok, f"max relative error {worst_rel:.2e}",
    )


def test_criterion_6_trace_step_optimality():
    rng = np.random.default_rng(6000)
    all_ok = True
    worst_margin = -np.inf
    for _ in range(20):
        m = int(rng.integers(3, 11))
        r = int(rng.integers(1, 4))
        terms = [
            (-float(rng.uniform(0.2, 3.0)), rng.standard_normal(m)),
            (float(rng.uniform(0.2, 3.0)), rng.standard_normal(m)),
        ]
        big_m = sum(c * np.outer(v, v) for c, v in terms)
        rows = min_trace_rows(terms, m, r)
        achieved = float(np.trace(rows @ big_m @ rows.T))
        samples = rng.standard_normal((10_000, m, r))
        qs, _ = np.linalg.qr(samples)
        traces = np.einsum("nmr,mk,nkr->n", qs, big_m, qs)
        margin = float(traces.min()) - achieved
        worst_margin = max(worst_margin, -margin)
        all_ok = all_ok and achieved <= traces.min() + 1e-12
    assert report(
        6, "spectral step beats 10k random orthonormal samples on 20 matrices",
        all_ok, f"worst shortfall {max(worst_margin, 0.0):.2e}",
    )


def test_criterion_7_transfer_benefit_ordering():
    started = time.perf_counter()
    results = [transfer_benefit_trial(seed) for seed in range(20)]
    elapsed = time.perf_counter() - started
    proposed = float(np.mean([r["proposed"] for r in results]))
    source_only = float(np.mean([r["source-only"] for r in results]))
    ablation = float(np.mean([r["no-adaptation"] for r in results]))
    ok = (
        proposed >= source_only + 0.05
        and proposed >= ablation
        and elapsed <= 300.0
    )
    assert report(
        7, "transfer benefit ordering over 20 seeds",
        ok,
        f"proposed {proposed:.4f} vs source-only {source_only:.4f} "
        f"(+{proposed - source_only:.4f}) and C3=0 ablation {ablation:.4f} "
        f"(+{proposed - ablation:.4f}), runtime {elapsed:.0f}s",
    )


def test_criterion_8_cv_determinism(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "synthetic": {
            "dim": 3, "n": 50, "separation": 5.0, "angle": 0.4,
            "translation": [0.8, 0.0, 0.0], "noise": 0.05, "seed": 13,
        },
        "hyperparams": {"outer_iters": 4, "subgrad_iters": 30, "k": 3, "r": 2},
        "folds": 5,
        "seed": 21,
        "baselines": ["source-only", "target-only", "no-adaptation"],
    }))
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    code_a = cli_main(["cv", "--config", str(config_path), "--out", str(out_a)])
    code_b = cli_main(["cv", "--config", str(config_path), "--out", str(out_b)])

    def canonical(path):
        payload = json.loads(path.read_text())
        for entry in payload["methods"].values():
            entry.pop("timing")
        return json.dumps(payload, sort_keys=True).encode()

    same_json = canonical(out_a) == canonical(out_b)
    same_tsv = (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()
    ok = code_a == 0 and code_b == 0 and same_json and same_tsv
    assert report(
        8, "cv reports byte-identical modulo timing",
        ok, f"exit codes ({code_a}, {code_b}), json match {same_json}, tsv match {same_tsv}",
    )
