"""Alternating minimization of the transfer objective.

One outer iteration updates three blocks in a fixed order: the effective
classifiers (phi, psi), minimized exactly through their two box-constrained
hinge duals (by subgradient descent at c1 = 0, where the block is not strongly
convex), the spectral update of the projection rows together with the
closed-form shared classifier w it induces, and finally the instance-weight QP.
Every block reads the fit's fixed data from one
:class:`~wdmatch.model.Problem` and proposes a candidate; :func:`fit` alone
decides whether to take it. It scores each candidate by the objective total
and keeps the incumbent exactly when the candidate's total is strictly higher,
so the recorded objective trace never increases, not even by rounding.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .data import DomainDataset
from .errors import ConvergenceError, ValidationError, settle
from .model import (
    HingeDual,
    HyperParams,
    Problem,
    SourceWeights,
    TransferModel,
    classifier_terms,
    hinge_losses,
    hinge_subgradient,
    objective,
    orthonormal_gap,
)
from .neighborhood import NeighborhoodGraph, build_graph
from .qp import BoxEqQP, solve_qp

logger = logging.getLogger(__name__)

_STEP_FLOOR = 1e-12


@dataclass(frozen=True)
class OptState:
    """Final parameters plus the per-iteration objective history.

    ``substeps`` records a (step name, objective before, objective after)
    entry for every block update, three per outer iteration (``phi_psi``,
    ``theta`` with its w re-solve, ``pi``), together with the constraint
    residuals that the update is responsible for. A ``phi_psi`` entry also
    holds the Hessian products and KKT residuals of its two dual solves
    (``dual_products``, ``dual_kkt``), read from the QPSolutions that
    :func:`update_phi_psi` returns; they are (0, 0) and (None, None) where the
    halving search ran.
    Every entry records whether it ``kept`` the incumbent because the block's
    candidate scored strictly higher. The trace may not rise at all.
    """

    model: TransferModel
    weights: SourceWeights
    objective_trace: tuple
    iteration: int
    substeps: tuple = ()
    term_trace: tuple = ()

    def __post_init__(self):
        settle(self, objective_trace=tuple(float(v) for v in self.objective_trace),
               substeps=tuple(self.substeps), term_trace=tuple(self.term_trace))
        if not self.objective_trace:
            raise ValidationError("objective trace may not be empty")
        if np.any(np.diff(self.objective_trace) > 0.0):
            raise ValidationError("objective trace increased")


def halving_descent(value, gradient, params: tuple, iters: int, rho: float) -> tuple:
    """Subgradient descent with a halving line search on the step.

    ``params`` is a tuple of arrays; ``value(params)`` is the objective and
    ``gradient(params)`` the matching tuple of subgradients. Each of the
    ``iters`` steps starts from ``rho`` and halves until the objective stops
    increasing. Descent ends early at a zero subgradient, or when the step
    falls below 1e-12 without descent (a stationary point).
    """
    current = value(params)
    for _ in range(iters):
        grads = gradient(params)
        if max(np.max(np.abs(g)) for g in grads) == 0.0:
            break
        step = rho
        while True:
            cand = tuple(p - step * g for p, g in zip(params, grads))
            cand_value = value(cand)
            if cand_value <= current:
                params, current = cand, cand_value
                break
            step *= 0.5
            if step < _STEP_FLOOR:
                return params
    return params


def solve_w(theta: np.ndarray, phi: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Closed-form shared classifier: w = theta (phi + psi) / 2."""
    theta = np.asarray(theta, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64).reshape(-1)
    psi = np.asarray(psi, dtype=np.float64).reshape(-1)
    if phi.size != theta.shape[1] or psi.size != theta.shape[1]:
        raise ValidationError("phi/psi length does not match theta")
    return 0.5 * theta @ (phi + psi)


def min_trace_rows(terms, m: int, r: int) -> np.ndarray:
    """Orthonormal rows minimizing trace(T M T') for M = sum_c coef_c v_c v_c'.

    ``terms`` is a sequence of (coef, vector) pairs, at most rank 2 in
    practice. The eigenproblem is solved inside the span of the term vectors
    (Ky Fan's trace minimum). The zero eigenspace is filled by one Householder
    QR of the eigenvectors followed by the first canonical vectors, only as
    many as the r rows need; its trailing columns are orthonormal and
    orthogonal to the span even when a canonical vector lies inside it, so the
    result is deterministic under massive eigenvalue degeneracy. Rows are
    ordered by ascending eigenvalue (stable under ties) and signed so their
    first non-negligible component is positive.
    """
    if not 1 <= r <= m:
        raise ValidationError(f"need 1 <= r <= m, got r={r}, m={m}")
    cleaned = []
    basis = []
    for coef, vec in terms:
        vec = np.asarray(vec, dtype=np.float64).reshape(-1)
        if vec.size != m:
            raise ValidationError("term vector has the wrong dimension")
        if coef == 0.0:
            continue
        cleaned.append((float(coef), vec))
        resid = vec.copy()
        for q in basis:
            resid -= (q @ resid) * q
        norm = np.linalg.norm(resid)
        if norm > 1e-12 * max(1.0, float(np.linalg.norm(vec))):
            basis.append(resid / norm)

    span = np.array(basis).reshape(-1, m).T  # m x p, orthonormal columns
    p = span.shape[1]
    compressed = np.zeros((p, p))
    for coef, vec in cleaned:
        coords = span.T @ vec
        compressed += coef * np.outer(coords, coords)
    values, evecs = np.linalg.eigh(compressed)
    vectors = span @ evecs
    need = min(r, m - vectors.shape[1])
    completed, _ = np.linalg.qr(np.hstack([vectors, np.eye(m, need)]))
    completed[:, : vectors.shape[1]] = vectors  # Q has them up to sign and rounding
    values = np.concatenate([values, np.zeros(need)])
    rows = completed[:, np.argsort(values, kind="stable")[:r]].T.copy()
    significant = np.abs(rows) > 1e-12
    first = rows[np.arange(r), np.argmax(significant, axis=1)]
    rows[significant.any(axis=1) & (first < 0.0)] *= -1.0
    return rows


def solve_theta(problem: Problem, phi, psi, weights: SourceWeights) -> np.ndarray:
    """Projection update: smallest-eigenvalue rows of the rank-2 trace matrix.

    The matrix combines -c1/4 times the outer product of phi + psi with c3/2
    times the outer product of the raw-feature mean gap between the weighted
    source and the target.
    """
    source, hp = problem.source, problem.hp
    m = source.dim
    combined = np.asarray(phi, dtype=np.float64) + np.asarray(psi, dtype=np.float64)
    mean_gap = problem.source_mean(weights.pi) - problem.target_mean
    terms = [(-hp.c1 / 4.0, combined), (hp.c3 / 2.0, mean_gap)]
    return min_trace_rows(terms, m, hp.resolved_r(m))


def q_value(problem: Problem, phi, psi, shared, pi) -> float:
    """The (phi, psi) block objective: the sum of :func:`classifier_terms`.

    ``shared`` is theta'w and ``pi`` the instance weights, both held fixed
    during the block.
    """
    return sum(classifier_terms(problem, phi, psi, shared, pi))


def subgradients(problem: Problem, phi, psi, shared, pi):
    """Subgradients of the (phi, psi) block objective.

    The hinges take :func:`~wdmatch.model.hinge_subgradient`, so a hinge at
    slack 0 counts as active.
    """
    source, target, hp = problem.source, problem.target, problem.hp
    residuals = problem.residuals
    g_phi = hinge_subgradient(source.features, source.labels, phi, pi)
    g_phi += hp.c1 * (phi - shared)

    g_psi = hinge_subgradient(target.labeled_features, target.labels, psi)
    g_psi += hp.c1 * (psi - shared)
    g_psi += 2.0 * hp.c2 * (residuals.T @ (residuals @ psi))
    return g_phi, g_psi


def _train_hinge(solves, value, gradient, start, hp: HyperParams) -> tuple:
    """The classifiers of ``solves``, one (dual, shift, upper, warm) each for
    :meth:`~wdmatch.model.HingeDual.solve`, and the duals' QPSolutions. Where
    a dual is None (c1 = 0), and after a WARNING line when a solve is not
    certified, it runs :func:`halving_descent` on ``value`` and ``gradient``
    from ``start``, with ``hp.subgrad_iters`` steps from ``hp.rho``, and the
    solutions are None."""
    if all(dual is not None for dual, *_ in solves):
        try:
            return tuple(zip(*[d.solve(b, u, w) for d, b, u, w in solves]))
        except ConvergenceError as exc:
            logger.warning("hinge duals not certified (%s); halving search instead", exc)
    return halving_descent(value, gradient, start, hp.subgrad_iters, hp.rho), None


def update_phi_psi(problem: Problem, phi, psi, shared, pi, duals=None) -> tuple:
    """Minimize the (phi, psi) block exactly through its two hinge duals.

    For c1 > 0 the block splits into two strongly convex problems, one per
    classifier, each with a box-constrained dual over its hinge rows, as for
    a linear SVM (Hsieh et al., ICML 2008): phi = s + A'alpha / c1 with
    A = diag(y) X and 0 <= alpha <= pi, and psi = H^-1 (c1 s + B'beta) with
    B the labeled target rows signed by label, 0 <= beta <= 1 and
    H = c1 I + 2 c2 R'R. Here s = ``shared``. Each is a box-only QP that its
    :meth:`~wdmatch.model.HingeDual.solve` hands to GPCG. It returns the
    candidate ``(phi, psi)`` and the pair (alpha, beta) of the duals'
    :class:`~wdmatch.qp.QPSolution`, or None where the halving search ran.
    ``duals`` is the previous block's pair; the solves warm-start from its
    alpha clipped to ``pi`` (a zero-width box where pi is 0) and its beta.

    At c1 = 0, where the block is not strongly convex, and when a dual solve is
    not certified (on some inputs at c1 up to about 1e-11 of the squared largest
    feature entry; cause not traced), it runs the halving search on :func:`q_value`.

    Either way the result is a candidate, returned unguarded: :func:`fit`
    decides whether to take it.
    """
    shift = problem.hp.c1 * np.asarray(shared, dtype=np.float64)
    alpha, beta = (None, None) if duals is None else (np.minimum(duals[0].x, pi), duals[1].x)
    return _train_hinge(
        [(problem.source_dual, shift, pi, alpha),
         (problem.target_dual, shift, np.ones(problem.target.labeled_count), beta)],
        lambda p: q_value(problem, *p, shared, pi),
        lambda p: subgradients(problem, *p, shared, pi),
        (np.asarray(phi, dtype=np.float64), np.asarray(psi, dtype=np.float64)), problem.hp)


def train_anchor(dataset: DomainDataset, hp: HyperParams, empty: str) -> np.ndarray:
    """The phi block at shared = 0 and unit weights over ``dataset``'s labeled
    rows, from 0: the linear SVM minimizing sum_i max(0, 1 - y_i x_i'c) + c1/2 c'c.
    Without labeled rows it raises :class:`ValidationError` with message ``empty``."""
    if dataset.labeled_count == 0:
        raise ValidationError(empty)
    features, labels, zeros = dataset.labeled_features, dataset.labels, np.zeros(dataset.dim)
    (c,), _ = _train_hinge(
        [(HingeDual.build(dataset, hp.c1), zeros, np.ones(labels.size), None)],
        lambda p: float(hinge_losses(features @ p[0], labels).sum()) + 0.5 * hp.c1 * p[0] @ p[0],
        lambda p: (hinge_subgradient(features, labels, p[0]) + hp.c1 * p[0],), (zeros,), hp)
    return c


@dataclass(frozen=True)
class InstanceWeightHessian:
    """The instance-weight QP's Hessian as an operator, never formed densely.

    ``matvec`` applies p -> 2 c2 (I - W)'(I - W) p + U (U'p), with ``I - W``
    read from the source graph's (n, k) rows and ``basis`` the n x r matrix
    U = sqrt(c3)/n X theta' of the mean-matching term. A product costs
    O(n (k + r)).
    """

    graph: NeighborhoodGraph
    c2: float
    basis: np.ndarray

    def matvec(self, p: np.ndarray) -> np.ndarray:
        smooth = self.graph.residual_adjoint(self.graph.residual(p))
        return 2.0 * self.c2 * smooth + self.basis @ (self.basis.T @ p)

    def rounding(self, p: np.ndarray) -> float:
        """The size of the terms that cancel inside ``matvec(p)``'s smoothness
        part, about 8 c2 max|p|: at large c2 they leave a product far smaller
        than the rounding they carry."""
        return 8.0 * self.c2 * float(np.max(np.abs(p), initial=0.0))


def solve_pi(problem: Problem, theta, phi, weights: SourceWeights) -> SourceWeights:
    """Instance-weight update as a box/sum QP, warm-started at the incumbent.

    The Hessian is the operator :class:`InstanceWeightHessian`: the
    reconstruction smoothness ``2 c2 (I - W)'(I - W)`` plus the rank-r
    mean-matching term ``(c3/n^2) P P'`` with ``P = X theta'``. The linear
    term carries the current hinge losses and the pull toward the target
    mean. :func:`~wdmatch.qp.solve_qp` minimizes it by GPCG, so memory stays
    O(n (k + r)). A box wider than n (``hp.delta`` >= n) has the same feasible
    set as the box of width n, which the solve uses instead.
    """
    source, hp = problem.source, problem.hp
    n1 = source.n
    losses = hinge_losses(source.features @ phi, source.labels)
    projected = source.features @ np.asarray(theta).T  # n1 x r
    mu_t = np.asarray(theta) @ problem.target_mean
    lin = losses - (hp.c3 / n1) * (projected @ mu_t)
    hess = InstanceWeightHessian(
        problem.source_graph, hp.c2, (np.sqrt(hp.c3) / n1) * projected
    )
    qp = BoxEqQP(
        hess=hess,
        lin=lin,
        lower=np.zeros(n1),
        upper=np.full(n1, min(hp.delta, n1)),
        eq_target=float(n1),
    )
    solution = solve_qp(qp, start=weights.pi)
    logger.debug("pi update finished in %d QP iterations", solution.iterations)
    return SourceWeights(solution.x, hp.delta)


def fit(
    source: DomainDataset,
    target: DomainDataset,
    hp: HyperParams | None = None,
) -> OptState:
    """Train the transfer model by alternating block minimization.

    Each block proposes a candidate, scored by :func:`objective`; the
    incumbent stays exactly when the candidate's total is strictly higher,
    so the objective trace never rises. The loop stops after
    ``hp.outer_iters`` iterations or once the relative objective change drops
    below ``hp.tol``. The procedure is deterministic. A solver or validation
    failure inside an iteration is raised as a :class:`ConvergenceError`
    whose ``state`` is the snapshot taken at the end of the last complete
    iteration; any other exception is a bug and propagates unchanged.
    """
    hp = HyperParams() if hp is None else hp
    if not isinstance(source, DomainDataset) or not isinstance(target, DomainDataset):
        raise ValidationError("fit expects DomainDataset inputs")

    problem = Problem(
        source, target, hp, build_graph(source, hp.k), build_graph(target, hp.k)
    )

    # The start is the theta step's own answer at phi = psi = 0 and uniform pi,
    # where w = 0. The first classifier block sees theta'w = 0 and the theta
    # step never reads theta, so the start's theta survives only where the
    # first theta candidate ties it up to rounding (r = m at c1 = 0).
    zeros = np.zeros(source.dim)
    weights = SourceWeights.uniform(source.n, hp.delta)
    theta = solve_theta(problem, zeros, zeros, weights)
    model = TransferModel(theta, np.zeros(theta.shape[0]), zeros, zeros)
    terms = objective(model, weights, problem)
    trace, term_trace, substeps = [], [], []
    duals = None

    def step(iteration, name, candidate, candidate_weights, **extra):
        """Take the candidate unless it scores strictly higher, then record."""
        nonlocal model, weights, terms
        before = terms.total
        scored = objective(candidate, candidate_weights, problem)
        kept = scored.total > before
        if not kept:
            model, weights, terms = candidate, candidate_weights, scored
        if name == "theta":
            extra["orthonormal_gap"] = orthonormal_gap(model.theta)
        elif name == "pi":
            extra.update(bound_gap=weights.bound_gap, sum_gap=weights.sum_gap)
        substeps.append({"iteration": iteration, "step": name, "before": before,
                         "after": terms.total, **extra, "kept": kept})

    def snapshot(iteration) -> OptState:
        trace.append(terms.total)
        term_trace.append({
            "iteration": iteration,
            **terms.as_dict(),
            "orthonormal_gap": orthonormal_gap(model.theta),
            "pi_bound_gap": weights.bound_gap,
            "pi_sum_gap": weights.sum_gap,
        })
        return OptState(model, weights, tuple(trace), iteration,
                        tuple(substeps), tuple(term_trace))

    state = snapshot(0)
    for iteration in range(1, hp.outer_iters + 1):
        try:
            (phi, psi), duals = update_phi_psi(problem, model.phi, model.psi,
                                               model.theta.T @ model.w, weights.pi, duals)
            step(iteration, "phi_psi", replace(model, phi=phi, psi=psi),
                 weights, dual_products=tuple(s.iterations for s in duals or ()) or (0, 0),
                 dual_kkt=tuple(s.kkt_residual for s in duals or ()) or (None, None))

            # The projection step owns its induced w re-solve: the spectral
            # problem eliminates w, so only the (theta, w) pair descends.
            theta = solve_theta(problem, model.phi, model.psi, weights)
            w = solve_w(theta, model.phi, model.psi)
            step(iteration, "theta", replace(model, theta=theta, w=w), weights)

            step(iteration, "pi", model, solve_pi(problem, model.theta, model.phi, weights))
        except (ConvergenceError, ValidationError, np.linalg.LinAlgError) as exc:
            raise ConvergenceError(
                f"fit aborted during iteration {iteration}: {exc}", state=state
            ) from exc
        state = snapshot(iteration)
        previous, after = trace[-2:]
        if abs(previous - after) < hp.tol * max(1.0, abs(previous)):
            break
    return state
