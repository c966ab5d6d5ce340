"""Alternating minimization of the transfer objective.

One outer iteration updates three blocks in a fixed order: the effective
classifiers (phi, psi), minimized exactly through their two box-constrained
hinge duals (by subgradient descent at c1 = 0, where the block is not strongly
convex), the spectral update of the projection rows together with the
closed-form shared classifier w it induces, and finally the instance-weight QP.
Every block reads the fit's fixed data from one
:class:`~wdmatch.model.Problem`. Every block update is a descent step, so the
recorded objective trace never increases.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data import DomainDataset
from .errors import ConvergenceError, ValidationError
from .model import (
    HingeDual,
    HyperParams,
    ObjectiveTerms,
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
from .qp import BoxEqQP, solve_box_qp, solve_qp

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
    (``dual_products``, ``dual_kkt``) and whether it ``kept`` the incoming
    pair, as :class:`BlockStep` reports them. A ``pi`` entry records whether
    it ``kept`` the incoming weights because the QP's answer scored higher.
    """

    model: TransferModel
    weights: SourceWeights
    objective_trace: tuple
    iteration: int
    substeps: tuple = ()
    term_trace: tuple = ()

    def __post_init__(self):
        trace = tuple(float(v) for v in self.objective_trace)
        if not trace:
            raise ValidationError("objective trace may not be empty")
        diffs = np.diff(np.asarray(trace))
        if diffs.size and float(diffs.max()) > 1e-8:
            raise ValidationError("objective trace increased beyond tolerance")
        object.__setattr__(self, "objective_trace", trace)
        object.__setattr__(self, "substeps", tuple(self.substeps))
        object.__setattr__(self, "term_trace", tuple(self.term_trace))


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


def _sign_rows(rows: np.ndarray) -> np.ndarray:
    """Flip rows in place so each first non-negligible component is positive."""
    significant = np.abs(rows) > 1e-12
    first = rows[np.arange(rows.shape[0]), np.argmax(significant, axis=1)]
    rows[significant.any(axis=1) & (first < 0.0)] *= -1.0
    return rows


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

    values = np.zeros(0)
    vectors = np.zeros((m, 0))
    if basis:
        span = np.array(basis).T  # m x p, orthonormal columns
        p = span.shape[1]
        compressed = np.zeros((p, p))
        for coef, vec in cleaned:
            coords = span.T @ vec
            compressed += coef * np.outer(coords, coords)
        values, evecs = np.linalg.eigh(compressed)
        vectors = span @ evecs
    need = min(r, m - vectors.shape[1])
    completed, _ = np.linalg.qr(np.hstack([vectors, np.eye(m)[:, :need]]))
    completed[:, : vectors.shape[1]] = vectors  # Q has them up to sign and rounding
    values = np.concatenate([values, np.zeros(need)])
    order = np.argsort(values, kind="stable")[:r]
    return _sign_rows(completed[:, order].T.copy())


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

    g_psi = hinge_subgradient(problem.labeled_target, target.labels, psi)
    g_psi += hp.c1 * (psi - shared)
    g_psi += 2.0 * hp.c2 * (residuals.T @ (residuals @ psi))
    return g_phi, g_psi


@dataclass(frozen=True)
class BlockStep:
    """The result of one (phi, psi) block update.

    ``duals`` holds the dual solutions (alpha, beta) that warm-start the next
    block, ``products`` and ``kkt`` the Hessian products and KKT residuals of
    their two solves, and ``kept`` whether the block left the incoming pair in
    place. Where the halving search ran instead (see :func:`update_phi_psi`)
    there are no duals: ``duals`` is None, ``products`` is (0, 0) and ``kkt``
    is (None, None).
    """

    phi: np.ndarray
    psi: np.ndarray
    duals: tuple | None
    products: tuple
    kkt: tuple
    kept: bool


def _solve_hinge_dual(dual: HingeDual, shift, upper, start):
    """The primal minimizer of one :class:`~wdmatch.model.HingeDual` and its
    dual solution, for linear term ``shift`` and hinge weights ``upper``."""
    lifted = dual.factor.T @ shift
    solution = solve_box_qp(dual, dual.rows @ lifted - 1.0, upper, start)
    return dual.factor @ (lifted + dual.rows.T @ solution.x), solution


def _exact_block(problem: Problem, phi, psi, shared, pi, duals) -> BlockStep:
    """The block minimum from both hinge duals, or the incoming pair when that
    is not lower; see :func:`update_phi_psi`."""
    shift = problem.hp.c1 * np.asarray(shared, dtype=np.float64)
    alpha, beta = (None, None) if duals is None else (np.minimum(duals[0], pi), duals[1])
    new_phi, alpha = _solve_hinge_dual(problem.source_dual, shift, pi, alpha)
    upper = np.ones(problem.target.labeled_count)
    new_psi, beta = _solve_hinge_dual(problem.target_dual, shift, upper, beta)
    kept = not (q_value(problem, new_phi, new_psi, shared, pi)
                < q_value(problem, phi, psi, shared, pi))
    if not kept:
        phi, psi = new_phi, new_psi
    return BlockStep(
        phi, psi, (alpha.x, beta.x), (alpha.iterations, beta.iterations),
        (alpha.kkt_residual, beta.kkt_residual), kept,
    )


def update_phi_psi(problem: Problem, phi, psi, shared, pi, duals=None) -> BlockStep:
    """Minimize the (phi, psi) block exactly through its two hinge duals.

    For c1 > 0 the block splits into two strongly convex problems, one per
    classifier, each with a box-constrained dual over its hinge rows, as for
    a linear SVM (Hsieh et al., ICML 2008): phi = s + A'alpha / c1 with
    A = diag(y) X and 0 <= alpha <= pi, and psi = H^-1 (c1 s + B'beta) with
    B the labeled target rows signed by label, 0 <= beta <= 1 and
    H = c1 I + 2 c2 R'R. Here s = ``shared``. Both duals are solved by
    :func:`~wdmatch.qp.solve_box_qp`, warm-started from ``duals`` (alpha
    clipped to ``pi``). The incoming pair is kept when the new one does not
    have a lower :func:`q_value`, so rounding cannot raise the objective.

    At c1 = 0 the block is not strongly convex, and it runs
    :func:`halving_descent` on :func:`subgradients` with ``hp.subgrad_iters``
    steps from ``hp.rho``. So it does when a dual solve cannot be certified:
    with c1 below about 1e-10 of the squared feature scale, rounding in the
    dual gradient exceeds the KKT limit.
    """
    phi = np.array(phi, dtype=np.float64, copy=True)
    psi = np.array(psi, dtype=np.float64, copy=True)
    if problem.source_dual is not None:
        try:
            return _exact_block(problem, phi, psi, shared, pi, duals)
        except ConvergenceError as exc:
            logger.debug("hinge duals not certified (%s); halving search instead", exc)
    hp = problem.hp
    new_phi, new_psi = halving_descent(
        lambda p: q_value(problem, *p, shared, pi),
        lambda p: subgradients(problem, *p, shared, pi),
        (phi, psi),
        hp.subgrad_iters,
        hp.rho,
    )
    kept = np.array_equal(new_phi, phi) and np.array_equal(new_psi, psi)
    return BlockStep(new_phi, new_psi, None, (0, 0), (None, None), kept)


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


def solve_pi(problem: Problem, theta, phi, weights: SourceWeights) -> SourceWeights:
    """Instance-weight update as a box/sum QP, warm-started at the incumbent.

    The Hessian is the operator :class:`InstanceWeightHessian`: the
    reconstruction smoothness ``2 c2 (I - W)'(I - W)`` plus the rank-r
    mean-matching term ``(c3/n^2) P P'`` with ``P = X theta'``. The linear
    term carries the current hinge losses and the pull toward the target
    mean. :func:`~wdmatch.qp.solve_qp` minimizes it by GPCG, so memory stays
    O(n (k + r)).
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
        upper=np.full(n1, hp.delta),
        eq_target=float(n1),
    )
    solution = solve_qp(qp, start=weights.pi)
    logger.debug("pi update finished in %d QP iterations", solution.iterations)
    return SourceWeights(solution.x, hp.delta)


def initial_theta(source: DomainDataset, target: DomainDataset, r: int) -> np.ndarray:
    """Top-r principal directions of the pooled data, deterministically signed."""
    pooled = np.vstack([source.features, target.features])
    centered = pooled - pooled.mean(axis=0)
    _, evecs = np.linalg.eigh(centered.T @ centered)
    return _sign_rows(evecs[:, ::-1][:, :r].T.copy())


def fit(
    source: DomainDataset,
    target: DomainDataset,
    hp: HyperParams | None = None,
) -> OptState:
    """Train the transfer model by alternating block minimization.

    The loop stops after ``hp.outer_iters`` iterations or once the relative
    objective change drops below ``hp.tol``. The procedure is deterministic.
    A solver or validation failure inside an iteration is raised as a
    :class:`ConvergenceError` whose ``state`` is the snapshot taken at the
    end of the last complete iteration; any other exception is a bug and
    propagates unchanged.
    """
    hp = HyperParams() if hp is None else hp
    if not isinstance(source, DomainDataset) or not isinstance(target, DomainDataset):
        raise ValidationError("fit expects DomainDataset inputs")
    smallest = min(source.n, target.n)
    if hp.k > smallest - 1:
        raise ValidationError(
            f"k={hp.k} needs at least {hp.k + 1} points in each domain"
        )
    m = source.dim
    r = hp.resolved_r(m)

    problem = Problem(
        source, target, hp, build_graph(source, hp.k), build_graph(target, hp.k)
    )

    theta = initial_theta(source, target, r)
    phi = np.zeros(m)
    psi = np.zeros(m)
    w = solve_w(theta, phi, psi)
    weights = SourceWeights.uniform(source.n, hp.delta)
    substeps = []
    duals = None

    def evaluate() -> ObjectiveTerms:
        return objective(TransferModel(theta, w, phi, psi), weights, problem)

    def residual_entry(iteration, terms_):
        return {
            "iteration": iteration,
            **terms_.as_dict(),
            "orthonormal_gap": orthonormal_gap(theta),
            "pi_bound_gap": weights.bound_gap,
            "pi_sum_gap": weights.sum_gap,
        }

    def record(iteration, step, before, after, **extra):
        substeps.append(
            {"iteration": iteration, "step": step, "before": before,
             "after": after, **extra}
        )
        return after

    def snapshot(iteration) -> OptState:
        return OptState(
            model=TransferModel(theta, w, phi, psi),
            weights=weights,
            objective_trace=tuple(trace),
            iteration=iteration,
            substeps=tuple(substeps),
            term_trace=tuple(term_trace),
        )

    terms = evaluate()
    trace = [terms.total]
    term_trace = [residual_entry(0, terms)]
    state = snapshot(0)
    for iteration in range(1, hp.outer_iters + 1):
        try:
            block = update_phi_psi(problem, phi, psi, theta.T @ w, weights.pi, duals)
            phi, psi, duals = block.phi, block.psi, block.duals
            current = record(iteration, "phi_psi", trace[-1], evaluate().total,
                             dual_products=block.products, dual_kkt=block.kkt,
                             kept=block.kept)

            # The projection step owns its induced w re-solve: the spectral
            # problem is derived with w eliminated, so monotonicity is only
            # guaranteed for the (theta, w) pair.
            theta = solve_theta(problem, phi, psi, weights)
            w = solve_w(theta, phi, psi)
            terms = evaluate()
            current = record(iteration, "theta", current, terms.total,
                             orthonormal_gap=orthonormal_gap(theta))

            # The QP's warm-start guard is relative to the QP objective, which
            # is looser than the trace's bound, so as in the (phi, psi) block
            # the incoming weights stay when the new ones score higher.
            candidate = solve_pi(problem, theta, phi, weights)
            pi_terms = objective(TransferModel(theta, w, phi, psi), candidate, problem)
            kept = pi_terms.total > terms.total
            if not kept:
                weights, terms = candidate, pi_terms
        except (ConvergenceError, ValidationError, np.linalg.LinAlgError) as exc:
            raise ConvergenceError(
                f"fit aborted during iteration {iteration}: {exc}", state=state
            ) from exc
        after = record(iteration, "pi", current, terms.total,
                       bound_gap=weights.bound_gap, sum_gap=weights.sum_gap,
                       kept=kept)
        trace.append(after)
        term_trace.append(residual_entry(iteration, terms))
        state = snapshot(iteration)
        previous = trace[-2]
        if abs(previous - after) < hp.tol * max(1.0, abs(previous)):
            break
    return state
