"""Output checks for `wdmatch fit` and `wdmatch cv`, computed independently.

Every check recomputes what it verifies from the input data with its own
numpy code, or tests a property the method guarantees (a monotone trace, exact
block steps, KKT certificates, feasible weights). None compares against stored
output. Each check raises :class:`CheckFailed` with a message naming what is
wrong; callers count a command whose output fails any check as failed.

Tolerances scale with the quantity they guard: a trace step may rise by at most
1e-9 of the objective, and a KKT residual may be at most 1e-7 of the largest
gradient entry.
"""

from __future__ import annotations

import numpy as np

TRACE_RTOL = 1e-9
ORTH_TOL = 1e-9
W_RTOL = 1e-10
BOX_TOL = 1e-9
SUM_RTOL = 1e-9
KKT_RTOL = 1e-7
OBJECTIVE_RTOL = 1e-9
TIE_RTOL = 1e-9
GRAM_RIDGE = 1e-10  # the reconstruction QP's documented ridge, times trace(G)
FITTED_METHODS = ("proposed", "no-adaptation")  # cv methods that run the solver


class CheckFailed(Exception):
    """An output of the program violates a property it must satisfy."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_trace(trace, label: str = "objective trace") -> None:
    """The objective never rises by more than TRACE_RTOL of its size."""
    trace = np.asarray(trace, dtype=np.float64)
    _require(trace.ndim == 1 and trace.size >= 1, f"{label} is empty")
    _require(bool(np.all(np.isfinite(trace))), f"{label} has non-finite values")
    rise = np.diff(trace)
    allowed = TRACE_RTOL * np.maximum(1.0, np.abs(trace[:-1]))
    bad = np.flatnonzero(rise > allowed)
    _require(bad.size == 0, f"{label} rises at step {bad[:1].tolist()}")


def check_theta(theta) -> None:
    """Projection rows are orthonormal."""
    theta = np.asarray(theta, dtype=np.float64)
    gap = float(np.max(np.abs(theta @ theta.T - np.eye(theta.shape[0]))))
    _require(gap <= ORTH_TOL, f"theta rows are not orthonormal (gap {gap:.3e})")


def check_w(theta, phi, psi, w) -> None:
    """The shared classifier is the closed-form block minimiser theta(phi+psi)/2."""
    expected = 0.5 * (np.asarray(theta) @ (np.asarray(phi) + np.asarray(psi)))
    gap = float(np.max(np.abs(np.asarray(w) - expected)))
    scale = max(1.0, float(np.max(np.abs(expected))))
    _require(gap <= W_RTOL * scale, f"w != theta(phi+psi)/2 (gap {gap:.3e})")


def check_pi_feasible(pi, delta: float) -> None:
    """Instance weights lie in [0, delta] and sum to the number of source points."""
    pi = np.asarray(pi, dtype=np.float64)
    n = pi.size
    _require(float(pi.min()) >= -BOX_TOL * delta, f"pi below 0 ({pi.min():.3e})")
    _require(float(pi.max()) <= delta * (1.0 + BOX_TOL),
             f"pi above delta={delta} ({pi.max():.6g})")
    gap = abs(float(pi.sum()) - n)
    _require(gap <= SUM_RTOL * n, f"pi sums to {pi.sum():.12g}, not {n}")


def _apply_i_minus_w(neighbors, weights, v):
    """(I - W) v for W[i, N_ik] = w_ik, from the (n, k) neighbour rows."""
    return v - np.einsum("nk,nk->n", weights, v[neighbors])


def _apply_i_minus_w_t(neighbors, weights, v):
    """(I - W)' v, scattering each row's coefficients back to its neighbours."""
    spread = np.bincount(
        neighbors.ravel(), weights=(weights * v[:, None]).ravel(), minlength=v.size
    )
    return v - spread


def pi_gradient(pi, source_graph, theta, phi, xs, ys, xt, c2, c3):
    """Gradient of the pi block QP, built matrix-free.

    The QP is 0.5 pi'H pi + f'pi with H = 2 c2 (I-W)'(I-W) + (c3/n^2) P P',
    P = Xs theta', and f = hinge(Xs phi) - (c3/n) P theta mean(Xt).
    """
    neighbors, weights = source_graph
    n = xs.shape[0]
    projected = xs @ np.asarray(theta).T
    smooth = _apply_i_minus_w_t(neighbors, weights,
                                _apply_i_minus_w(neighbors, weights, pi))
    hinge = np.maximum(0.0, 1.0 - ys * (xs @ phi))
    mu_t = np.asarray(theta) @ xt.mean(axis=0)
    return (2.0 * c2 * smooth
            + (c3 / n**2) * (projected @ (projected.T @ pi))
            + hinge - (c3 / n) * (projected @ mu_t))


def box_sum_kkt_residual(x, grad, lower, upper) -> float:
    """KKT residual of x for min q(x) s.t. lower <= x <= upper, sum(x) fixed.

    Optimality asks for one multiplier lam with grad = lam on free coordinates,
    grad >= lam at the lower bound and grad <= lam at the upper bound.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    width = np.maximum(np.asarray(upper - lower, dtype=np.float64), 1.0)
    at_lo = x - lower <= BOX_TOL * width
    at_up = upper - x <= BOX_TOL * width
    free = ~(at_lo | at_up)
    if free.any():
        lam = float(np.median(grad[free]))
    else:
        hi = float(grad[at_lo].min()) if at_lo.any() else np.inf
        lo = float(grad[at_up].max()) if at_up.any() else -np.inf
        lam = lo if np.isinf(hi) else hi if np.isinf(lo) else 0.5 * (lo + hi)
    residual = 0.0
    if free.any():
        residual = float(np.max(np.abs(grad[free] - lam)))
    if at_lo.any():
        residual = max(residual, float(np.max(np.maximum(0.0, lam - grad[at_lo]))))
    if at_up.any():
        residual = max(residual, float(np.max(np.maximum(0.0, grad[at_up] - lam))))
    return residual


def check_pi_kkt(pi, grad, delta: float) -> float:
    """pi is optimal for its block QP; returns the residual over the gradient scale."""
    pi = np.asarray(pi, dtype=np.float64)
    residual = box_sum_kkt_residual(pi, grad, 0.0, delta)
    relative = residual / max(1.0, float(np.max(np.abs(grad))))
    _require(relative <= KKT_RTOL, f"pi fails its QP's KKT conditions ({relative:.3e})")
    return relative


def brute_force_knn(points, k: int, block_elems: int = 2_000_000):
    """k nearest neighbours by explicit differences; ties go to the lower index."""
    points = np.asarray(points, dtype=np.float64)
    n, m = points.shape
    rows = max(1, block_elems // max(1, n * m))
    neighbors = np.empty((n, k), dtype=np.int64)
    dists = np.empty((n, n))
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        diff = points[lo:hi, None, :] - points[None, :, :]
        block = np.einsum("bnm,bnm->bn", diff, diff)
        block[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        dists[lo:hi] = block
        neighbors[lo:hi] = np.argsort(block, axis=1, kind="stable")[:, :k]
    return neighbors, dists


def check_knn(points, neighbors) -> None:
    """Neighbour lists match a brute-force search; near-ties may swap places."""
    neighbors = np.asarray(neighbors, dtype=np.int64)
    expected, dists = brute_force_knn(points, neighbors.shape[1])
    rows = np.flatnonzero(np.any(neighbors != expected, axis=1))
    for i in rows:
        got = dists[i, neighbors[i]]
        want = dists[i, expected[i]]
        tol = TIE_RTOL * max(1.0, float(want.max()))
        _require(len(set(neighbors[i].tolist())) == neighbors.shape[1]
                 and bool(np.all(np.abs(got - want) <= tol)),
                 f"point {i}: neighbours {neighbors[i].tolist()} are not the "
                 f"nearest {expected[i].tolist()}")


def reconstruction_gradients(points, neighbors, weights):
    """Gradients 2 (G + ridge) w of every point's reconstruction QP."""
    points = np.asarray(points, dtype=np.float64)
    diffs = points[:, None, :] - points[neighbors]  # (n, k, m)
    gram = np.einsum("nkm,njm->nkj", diffs, diffs)
    trace = np.einsum("nkk->n", gram)
    gram += GRAM_RIDGE * trace[:, None, None] * np.eye(neighbors.shape[1])
    return 2.0 * np.einsum("nkj,nj->nk", gram, weights)


def check_reconstruction(points, neighbors, weights) -> None:
    """Each row of weights lies on the simplex and is KKT-optimal for its QP."""
    weights = np.asarray(weights, dtype=np.float64)
    _require(bool(np.all(weights >= 0.0)), "reconstruction weight below 0")
    row_gap = float(np.max(np.abs(weights.sum(axis=1) - 1.0)))
    _require(row_gap <= 1e-9, f"reconstruction weights do not sum to 1 ({row_gap:.3e})")
    grads = reconstruction_gradients(points, neighbors, weights)
    lam = np.einsum("nk,nk->n", weights, grads)  # = the multiplier at a KKT point
    support = weights > BOX_TOL
    violation = np.where(support, np.abs(grads - lam[:, None]),
                         np.maximum(0.0, lam[:, None] - grads))
    scale = np.maximum(1.0, np.max(np.abs(grads), axis=1))
    worst = float(np.max(violation.max(axis=1) / scale))
    _require(worst <= KKT_RTOL, f"reconstruction weights fail KKT ({worst:.3e})")


def objective_terms(model, pi, source_graph, target_graph, data, hp) -> dict:
    """The six weighted objective terms, recomputed from the data."""
    theta, w, phi, psi = model
    xs, ys, xt, yt = data
    n3 = yt.size
    shared = theta.T @ w
    tgt_scores = xt[:n3] @ psi
    pi_gap = _apply_i_minus_w(*source_graph, pi)
    response = _apply_i_minus_w(*target_graph, xt @ psi)
    mean_gap = theta @ (xs.T @ pi / xs.shape[0] - xt.mean(axis=0))
    return {
        "source_hinge": float(pi @ np.maximum(0.0, 1.0 - ys * (xs @ phi))),
        "target_hinge": float(np.maximum(0.0, 1.0 - yt * tgt_scores).sum()),
        "adaptation": 0.5 * hp["c1"] * float(np.sum((phi - shared) ** 2)
                                             + np.sum((psi - shared) ** 2)),
        "weight_smoothness": hp["c2"] * float(pi_gap @ pi_gap),
        "response_smoothness": hp["c2"] * float(response @ response),
        "mean_matching": 0.5 * hp["c3"] * float(mean_gap @ mean_gap),
    }


def check_fit(payload: dict, graphs, data, hp: dict) -> dict:
    """Every check on one `wdmatch fit` output; returns figures for the record.

    ``payload`` is the model JSON the command wrote, ``graphs`` the source and
    target (neighbors, weights) pairs the fit used, ``data`` the generated
    (xs, ys, xt, yt) arrays and ``hp`` the resolved hyperparameters.
    """
    xs, ys, xt, yt = data
    raw = payload["model"]
    theta = np.asarray(raw["theta"], dtype=np.float64).reshape(raw["r"], raw["m"])
    w, phi, psi = (np.asarray(raw[key], dtype=np.float64) for key in ("w", "phi", "psi"))
    pi = np.asarray(payload["pi"], dtype=np.float64)
    trace = payload["objective_trace"]
    source_graph, target_graph = graphs

    check_trace(trace)
    check_theta(theta)
    check_w(theta, phi, psi, w)
    check_pi_feasible(pi, hp["delta"])
    grad = pi_gradient(pi, source_graph, theta, phi, xs, ys, xt, hp["c2"], hp["c3"])
    kkt = check_pi_kkt(pi, grad, hp["delta"])
    for points, (neighbors, weights) in ((xs, source_graph), (xt, target_graph)):
        check_knn(points, neighbors)
        check_reconstruction(points, neighbors, weights)
    total = sum(objective_terms((theta, w, phi, psi), pi, source_graph,
                                target_graph, data, hp).values())
    last = float(trace[-1])
    _require(abs(total - last) <= OBJECTIVE_RTOL * max(1.0, abs(last)),
             f"recomputed objective {total!r} != final trace value {last!r}")
    return {"pi_kkt_relative": kkt, "final_objective": last}


def check_cv(report: dict, labels, folds: int, methods) -> None:
    """Fold partition, stratification, accuracy granularity, means and traces."""
    labels = np.asarray(labels, dtype=np.float64)
    fold_idx = [np.asarray(f, dtype=np.int64) for f in report["fold_test_indices"]]
    _require(len(fold_idx) == folds, f"{len(fold_idx)} folds, expected {folds}")
    joined = np.sort(np.concatenate(fold_idx))
    _require(np.array_equal(joined, np.arange(labels.size)),
             "folds do not partition the labelled target rows")
    sizes = np.array([f.size for f in fold_idx])
    _require(int(sizes.max() - sizes.min()) <= 1, f"fold sizes {sizes.tolist()} unbalanced")
    for value in (1.0, -1.0):
        counts = np.array([int(np.sum(labels[f] == value)) for f in fold_idx])
        _require(int(counts.max() - counts.min()) <= 1,
                 f"class {value:+.0f} spread over folds as {counts.tolist()}")
    _require(sorted(report["methods"]) == sorted(methods),
             f"report methods {sorted(report['methods'])} != {sorted(methods)}")
    for method, entry in report["methods"].items():
        accs = np.asarray(entry["fold_accuracies"], dtype=np.float64)
        _require(accs.size == folds, f"{method}: {accs.size} fold accuracies")
        hits = accs * sizes
        _require(bool(np.all(np.abs(hits - np.round(hits)) <= 1e-9))
                 and bool(np.all((accs >= 0.0) & (accs <= 1.0))),
                 f"{method}: fold accuracies {accs.tolist()} are not count/size")
        _require(abs(entry["mean_accuracy"] - float(np.mean(accs))) <= 1e-12,
                 f"{method}: mean accuracy does not match its folds")
        traces = entry["objective_traces"]
        if method in FITTED_METHODS:
            _require(len(traces) == folds and None not in traces,
                     f"{method}: missing objective traces")
        for f, trace in enumerate(traces):
            if trace is not None:
                check_trace(trace, f"{method} fold {f} trace")
