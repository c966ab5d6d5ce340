"""Model parameters and evaluation of every term of the training objective.

The model couples a shared linear classifier w in an r-dimensional common
space (reached through a row-orthonormal projection) with per-domain effective
classifiers phi and psi acting on the original features. The adaptive
corrections u = phi - theta'w and v = psi - theta'w are derived, never stored.
A :class:`Problem` holds each fit's fixed data: the target residual matrix,
both raw feature means (the source mean weighted by pi) and the hinge duals.
The mean-matching term is half the squared gap between the projected means.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .data import DomainDataset, from_json, to_json
from .errors import ValidationError, check_numbers, settle
from .neighborhood import NeighborhoodGraph
from .qp import BoxEqQP, solve_qp

_ORTH_TOL = 1e-8


def orthonormal_gap(theta: np.ndarray) -> float:
    """Largest entry of |theta theta' - I|: 0 for orthonormal rows."""
    return float(np.max(np.abs(theta @ theta.T - np.eye(theta.shape[0]))))


@dataclass(frozen=True)
class TransferModel:
    """Immutable bundle (theta, w, phi, psi) with validated orthonormal rows."""

    theta: np.ndarray
    w: np.ndarray
    phi: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        settle(self, theta=np.array(self.theta, dtype=np.float64),
               w=np.array(self.w, dtype=np.float64).reshape(-1),
               phi=np.array(self.phi, dtype=np.float64).reshape(-1),
               psi=np.array(self.psi, dtype=np.float64).reshape(-1))
        if self.theta.ndim != 2:
            raise ValidationError("theta must be an r x m matrix")
        r, m = self.r, self.m
        if not 1 <= r <= m:
            raise ValidationError(f"need 1 <= r <= m, got r={r}, m={m}")
        if self.w.size != r or self.phi.size != m or self.psi.size != m:
            raise ValidationError("parameter vector sizes do not match theta")
        for arr in (self.theta, self.w, self.phi, self.psi):
            if not np.all(np.isfinite(arr)):
                raise ValidationError("model parameters must be finite")
        gram_gap = orthonormal_gap(self.theta)
        if gram_gap > _ORTH_TOL:
            raise ValidationError(
                f"theta rows are not orthonormal (max deviation {gram_gap:.3e})"
            )

    @property
    def r(self) -> int:
        return self.theta.shape[0]

    @property
    def m(self) -> int:
        return self.theta.shape[1]

    @property
    def u(self) -> np.ndarray:
        """Source adaptive correction phi - theta'w."""
        return self.phi - self.theta.T @ self.w

    @property
    def v(self) -> np.ndarray:
        """Target adaptive correction psi - theta'w."""
        return self.psi - self.theta.T @ self.w

    def to_json_dict(self) -> dict:
        """The model file's ``model`` object, in the schema of :class:`_ModelFile`."""
        flat = (tuple(a.ravel().tolist()) for a in (self.theta, self.w, self.phi, self.psi))
        return to_json(_ModelFile(self.r, self.m, *flat))

    @classmethod
    def from_json_dict(cls, payload: dict) -> "TransferModel":
        """The model of a :meth:`to_json_dict` payload; a malformed one raises
        :class:`ValidationError` naming its key."""
        record = from_json(_ModelFile, payload, "model")
        r, m = record.r, record.m
        if min(r, m) < 1 or len(record.theta) != r * m:
            raise ValidationError(f"model: expected positive r and m and r x m theta values, "
                                  f"got r={r}, m={m} and {len(record.theta)} values")
        return cls(np.reshape(record.theta, (r, m)), record.w, record.phi, record.psi)


@dataclass(frozen=True)
class _ModelFile:
    """The JSON schema of a :class:`TransferModel`: its shape, theta's rows
    concatenated, then w, phi and psi."""

    r: int
    m: int
    theta: tuple[float, ...]
    w: tuple[float, ...]
    phi: tuple[float, ...]
    psi: tuple[float, ...]


@dataclass(frozen=True)
class SourceWeights:
    """Instance weights pi with box bound delta and fixed total mass n."""

    pi: np.ndarray
    delta: float

    def __post_init__(self):
        settle(self, pi=np.array(self.pi, dtype=np.float64).reshape(-1),
               delta=float(self.delta))
        if self.pi.size == 0:
            raise ValidationError("pi must be non-empty")
        if self.delta < 1.0:
            raise ValidationError("delta must be at least 1 for feasibility")
        if self.bound_gap > 1e-9:
            raise ValidationError("pi violates its box bounds")
        if self.sum_gap > 1e-6:
            raise ValidationError("pi must sum to the number of source points")

    @property
    def n(self) -> int:
        return self.pi.size

    @property
    def bound_gap(self) -> float:
        """Largest violation of 0 <= pi <= delta."""
        return float(
            max(
                np.max(np.maximum(-self.pi, 0.0)),
                np.max(np.maximum(self.pi - self.delta, 0.0)),
            )
        )

    @property
    def sum_gap(self) -> float:
        """Distance of sum(pi) from n."""
        return float(abs(self.pi.sum() - self.n))

    @classmethod
    def uniform(cls, n: int, delta: float) -> "SourceWeights":
        return cls(np.ones(n), delta)


@dataclass(frozen=True)
class HyperParams:
    """Trade-off weights, subspace size and iteration budgets.

    ``r=None`` resolves to min(m, 20) once the feature dimension is known.
    ``rho`` and ``subgrad_iters`` only steer halving searches (c1 = 0, refused duals).
    """

    c1: float = 1.0
    c2: float = 1.0
    c3: float = 1.0
    r: int | None = None
    delta: float = 3.0
    k: int = 5
    rho: float = 0.1
    outer_iters: int = 50
    subgrad_iters: int = 100
    tol: float = 1e-6

    def __post_init__(self):
        counts = ("k", "outer_iters", "subgrad_iters") + (() if self.r is None else ("r",))
        check_numbers(self, counts, ("c1", "c2", "c3", "delta", "rho", "tol"))
        if min(self.c1, self.c2, self.c3) < 0.0:
            raise ValidationError("trade-off weights must be nonnegative")
        if self.r is not None and self.r < 1:
            raise ValidationError("r must be a positive integer")
        if self.delta < 1.0:
            raise ValidationError("delta must be at least 1 for feasibility")
        if self.k < 1:
            raise ValidationError("k must be a positive integer")
        if self.rho <= 0.0:
            raise ValidationError("rho must be positive")
        if self.outer_iters < 0 or self.subgrad_iters < 0:
            raise ValidationError("iteration budgets must be nonnegative")
        if self.tol < 0.0:
            raise ValidationError("tol must be nonnegative")

    def resolved_r(self, m: int) -> int:
        r = min(m, 20) if self.r is None else self.r
        if r > m:
            raise ValidationError(f"r={r} exceeds the feature dimension m={m}")
        return r


def classify_target(model: TransferModel, x: np.ndarray) -> np.ndarray | float:
    """Target-domain decision score psi'x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != model.m:
        raise ValidationError("input dimension does not match the model")
    return x @ model.psi


def hinge_losses(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-point max(0, 1 - y * score)."""
    return np.maximum(0.0, 1.0 - np.asarray(labels) * np.asarray(scores))


def hinge_subgradient(features, labels, classifier, weights=1.0) -> np.ndarray:
    """Subgradient of sum_i weights_i * max(0, 1 - y_i x_i'c) in the classifier c.

    A hinge counts as active when its slack 1 - y x'c is >= 0, boundary
    included.
    """
    slack = 1.0 - labels * (features @ classifier)
    return -(features.T @ ((slack >= 0.0) * labels * weights))


@dataclass(frozen=True)
class ObjectiveTerms:
    """The six weighted terms of the training objective, all nonnegative;
    ``total`` sums them in field order."""

    source_hinge: float
    target_hinge: float
    adaptation: float
    weight_smoothness: float
    response_smoothness: float
    mean_matching: float

    @property
    def total(self) -> float:
        return sum(getattr(self, f.name) for f in fields(self))

    def as_dict(self) -> dict:
        return {**asdict(self), "total": self.total}


@dataclass(frozen=True)
class HingeDual:
    """The dual of min_c sum_i u_i max(0, 1 - g_i'c) + 0.5 c'Hc - b'c.

    The hinge rows G and H = c1 I + S'S are fixed; u and b vary. With the thin
    SVD S = V diag(s) Z' of a p x m S, :meth:`lift` applies L = H^-1/2 =
    I / sqrt(c1) - B B' for B = Z diag(sqrt((1 - sqrt(c1) / hypot(sqrt(c1), s))
    / sqrt(c1))), held in O(m min(p, m)) memory, and ``rows`` is K = G L. The
    minimizer is c = L (L b + K'a), where a minimizes 0.5 a'KK'a + (K L b - 1)'a
    over 0 <= a <= u; the dual gradient at a is minus the hinge slacks 1 - Gc.
    ``matvec`` applies KK' in O(nm), and :meth:`solve` finds a and c.
    """

    rows: np.ndarray
    scale: float
    basis: np.ndarray

    @classmethod
    def build(cls, domain: DomainDataset, c1: float, curvature=None) -> "HingeDual | None":
        """The dual over ``domain``'s labeled rows signed by label, with S =
        ``curvature`` (empty if None); None at c1 = 0, where H need not be
        positive definite. A c1 > 0 too small for GPCG's curvature products
        raises :class:`ValidationError`."""
        if c1 == 0.0:
            return None
        hinge_rows = domain.labels[:, None] * domain.labeled_features
        if curvature is None:
            curvature = np.zeros((0, domain.dim))
        # For p rows of m entries at most g, s = p m g^2 / c1 bounds the dual's
        # Hessian and gradient, and p s^3 GPCG's curvature products.
        entry = float(np.abs(hinge_rows).max(initial=0.0))
        norm = hinge_rows.size * entry * entry / float(c1)  # float: inf, no warning
        if not np.isfinite(len(hinge_rows) * norm * norm * norm):
            raise ValidationError("c1 is too small: the hinge duals' curvature "
                                  "products overflow")
        _, singular, right = np.linalg.svd(curvature, full_matrices=False)
        root = np.sqrt(c1)
        basis = right.T * np.sqrt((1.0 - root / np.hypot(root, singular)) / root)
        return cls(hinge_rows / root - (hinge_rows @ basis) @ basis.T, 1.0 / root, basis)

    def lift(self, v: np.ndarray) -> np.ndarray:
        return self.scale * v - self.basis @ (self.basis.T @ v)

    def matvec(self, a: np.ndarray) -> np.ndarray:
        return self.rows @ (self.rows.T @ a)

    def solve(self, shift, upper, start):
        """The minimizer c for b = ``shift`` and u = ``upper``, and the dual's
        :class:`~wdmatch.qp.QPSolution`: a box-only QP solved by GPCG, warm
        from ``start`` unless that is None."""
        lifted = self.lift(shift)
        dual = BoxEqQP(self, self.rows @ lifted - 1.0, np.zeros(upper.size), upper, None)
        solution = solve_qp(dual, start)
        return self.lift(lifted + self.rows.T @ solution.x), solution


@dataclass(frozen=True)
class Problem:
    """The data of one fit that stays fixed while its blocks alternate.

    Built once from the two datasets, the hyperparameters and both
    neighborhood graphs; validated on construction. It carries the target
    residual matrix of the response-smoothness term and the raw target
    feature mean; :meth:`source_mean` gives the raw source mean under instance
    weights pi. The instance-weight QP applies ``I - W`` straight from the
    source graph's (n, k) arrays, so nothing of size n x n is stored.

    It also carries the :meth:`HingeDual.build` of each effective classifier:
    ``source_dual`` for phi (H = c1 I, S empty) and ``target_dual`` for psi
    (H = c1 I + 2 c2 R'R, S = sqrt(2 c2) R with R the residual matrix), both
    None at c1 = 0. A c2 for which sqrt(2 c2) R overflows is rejected at every
    c1, and :meth:`HingeDual.build` rejects a c1 > 0 too small for either
    dual. Likewise a c3 for which n s^3 overflows is rejected, with s = c3 m
    g^2 min(delta, n) for g the largest feature entry of either domain: it
    bounds the pi QP's mean-matching curvature and gradient over n source
    points. So is a c2 for which n s^3 overflows with s = 4 c2 (1 + the
    largest column sum of the source graph's W) min(delta, n), which bounds
    the smoothness part of the pi QP's Hx over its box.
    """

    source: DomainDataset
    target: DomainDataset
    hp: HyperParams
    source_graph: NeighborhoodGraph
    target_graph: NeighborhoodGraph
    residuals: np.ndarray = field(init=False)
    target_mean: np.ndarray = field(init=False)
    source_dual: HingeDual | None = field(init=False)
    target_dual: HingeDual | None = field(init=False)

    def __post_init__(self):
        source, target = self.source, self.target
        if self.source_graph is None or self.target_graph is None:
            raise ValidationError("a problem requires both neighborhood graphs")
        if self.source_graph.n != source.n or self.target_graph.n != target.n:
            raise ValidationError("graph sizes do not match the datasets")
        if source.dim != target.dim:
            raise ValidationError("source and target dimensions differ")
        if not source.is_fully_labeled():
            raise ValidationError("source domain must be fully labeled")
        settle(self, residuals=self.target_graph.residual(target.features),
               target_mean=target.features.mean(axis=0))
        c2_root = float(np.sqrt(2.0 * self.hp.c2))
        if not np.isfinite(c2_root * float(np.abs(self.residuals).max())):
            raise ValidationError("c2 is too large: sqrt(2 c2) R overflows")
        entry = max(float(np.abs(source.features).max()),
                    float(np.abs(target.features).max()))
        graph = self.source_graph
        column_sum = float(np.bincount(graph.neighbors.ravel(), graph.weights.ravel(),
                                       minlength=source.n).max())
        box = min(float(self.hp.delta), source.n)
        for name, scale in (("c3", float(self.hp.c3) * box * source.dim * entry * entry),
                            ("c2", 4.0 * float(self.hp.c2) * (1.0 + column_sum) * box)):
            if not np.isfinite(source.n * scale * scale * scale):  # floats: inf, no warning
                raise ValidationError(f"{name} is too large: the instance-weight QP's "
                                      "curvature products overflow")
        settle(self, source_dual=HingeDual.build(source, self.hp.c1),
               target_dual=HingeDual.build(target, self.hp.c1, c2_root * self.residuals))

    def source_mean(self, pi: np.ndarray) -> np.ndarray:
        """The pi-weighted raw source mean X' pi / n."""
        return self.source.features.T @ pi / self.source.n


def classifier_terms(problem: Problem, phi, psi, shared, pi) -> tuple:
    """The four terms that depend on (phi, psi), in :class:`ObjectiveTerms` order.

    Source hinge (weighted by ``pi``), target hinge, adaptation (the coupling
    of phi and psi to ``shared`` = theta'w) and response smoothness.
    """
    source, target, hp = problem.source, problem.target, problem.hp
    source_hinge = float(pi @ hinge_losses(source.features @ phi, source.labels))
    target_hinge = float(hinge_losses(target.labeled_features @ psi, target.labels).sum())
    du = phi - shared
    dv = psi - shared
    adaptation = 0.5 * hp.c1 * float(du @ du + dv @ dv)
    response = problem.residuals @ psi
    return source_hinge, target_hinge, adaptation, hp.c2 * float(response @ response)


def objective(
    model: TransferModel, weights: SourceWeights, problem: Problem
) -> ObjectiveTerms:
    """Evaluate the full training objective, term by term.

    Pure function: identical inputs give bit-identical output. The target
    hinge runs over the labeled block only; the response-smoothness penalty
    runs over every target point.
    """
    source, hp = problem.source, problem.hp
    if source.dim != model.m:
        raise ValidationError("dataset dimension does not match the model")
    if weights.n != source.n:
        raise ValidationError("weight vector length does not match the source")

    source_hinge, target_hinge, adaptation, response_smoothness = classifier_terms(
        problem, model.phi, model.psi, model.theta.T @ model.w, weights.pi
    )

    pi_gap = problem.source_graph.residual(weights.pi)
    weight_smoothness = hp.c2 * float(pi_gap @ pi_gap)

    theta = model.theta
    gap = theta @ problem.source_mean(weights.pi) - theta @ problem.target_mean
    mean_matching = hp.c3 * (0.5 * float(gap @ gap))

    return ObjectiveTerms(source_hinge, target_hinge, adaptation,
                          weight_smoothness, response_smoothness, mean_matching)
