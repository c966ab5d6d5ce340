"""Convex quadratic programs over a box, optionally with one sum constraint.

Solves  minimize 0.5 x'Hx + f'x  subject to  lower <= x <= upper and, unless
the problem is box-only, sum(x) = eq_target, with H symmetric positive
semidefinite. H is a linear operator, an object whose ``matvec(x)`` returns
Hx: the solver only ever asks for products, and :func:`_face_product` is the
one place that restricts them to a face of free coordinates.

The method is GPCG (More & Toraldo, SIAM J. Optim. 1, 1991): projected
gradient steps change many bounds at once, and conjugate gradients then
minimize over the face those steps settle on. One projected Armijo search
serves both phases: the gradient steps, and the last CG step on a face when
it would leave the box. One KKT certificate serves both the stop test of
each round and the final check. :func:`_gpcg` hands both phases one
``matvec`` that counts its products into :attr:`QPSolution.iterations`. It is
all built on the exact projection onto the feasible set. The sum constraint
is read from ``problem.equalities`` in several places. Without it the
projection is a clip; the multiplier, the :func:`_centre` shift and
:func:`_sum_gap` are 0; :func:`_interior_start` starts at the box centre; and
:func:`_gradient_projection` and :func:`_face_cg` also move a face of one
coordinate, which the sum would pin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InfeasibleProblemError, ValidationError, settle

_FEAS_TOL = 1e-12
_KKT_LIMIT = 1e-6
_STAT_TOL = 1e-11  # free projected gradient at the solution, times the gradient scale
_MULT_TOL = 1e-10  # wrong-sign bound multiplier allowed, times the gradient scale
_HX_ROUNDING = 100 * np.finfo(np.float64).eps  # rounding in Hx, times max|Hx|
_ARMIJO = 0.01  # sufficient-decrease fraction of a projected search
_PROGRESS = 0.1  # a GPCG phase ends once a step gains less than this share of its best
_SEARCH_HALVINGS = 60
_GP_STEPS = 8  # projected gradient steps per GPCG round at most, as in TAO's GPCG
# A projected search starts no farther than this many box widths along its
# direction: beyond that the path barely changes, and z - nu would lose digits.
_REACH = 1e3


@dataclass(frozen=True)
class BoxEqQP:
    """Problem data for one box QP instance, with or without a sum constraint.

    ``hess`` is an operator whose ``matvec`` method applies H, which the
    caller guarantees to be symmetric PSD; a dense matrix is wrapped in such
    an object. ``eq_target`` is the required sum of x, or None for a box-only
    problem.
    """

    hess: object
    lin: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    eq_target: float | None

    def __post_init__(self):
        settle(self, lin=np.array(self.lin, dtype=np.float64).reshape(-1),
               lower=np.array(self.lower, dtype=np.float64).reshape(-1),
               upper=np.array(self.upper, dtype=np.float64).reshape(-1),
               eq_target=None if self.eq_target is None else float(self.eq_target))
        if not hasattr(self.hess, "matvec"):
            raise ValidationError("hess must be an operator with a matvec method")
        if self.lower.size != self.n or self.upper.size != self.n:
            raise ValidationError("bound vectors must match the problem size")
        if np.any(self.lower > self.upper):
            raise ValidationError("lower bound exceeds upper bound")
        if self.eq_target is not None:
            slack = _FEAS_TOL * max(1.0, abs(self.eq_target))
            if not self.lower.sum() - slack <= self.eq_target <= self.upper.sum() + slack:
                raise InfeasibleProblemError(
                    "sum constraint is unreachable within the bounds"
                )

    @property
    def n(self) -> int:
        return self.lin.size

    @property
    def equalities(self) -> int:
        """The number of sum constraints: 1, or 0 for a box-only problem."""
        return int(self.eq_target is not None)

    def objective(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=np.float64)
        return float(0.5 * x @ self.hess.matvec(x) + self.lin @ x)


@dataclass(frozen=True)
class QPSolution:
    """Solver output: feasible point, objective value and a KKT certificate.

    ``iterations`` counts the Hessian products of GPCG's two phases. Not
    counted are the KKT certificates' gradients and the start objective,
    which add one product per round and one per solve.
    """

    x: np.ndarray
    objective: float
    iterations: int
    kkt_residual: float

    def __post_init__(self):
        settle(self, x=np.array(self.x, dtype=np.float64))


def _interior_start(problem: BoxEqQP) -> np.ndarray:
    """Deterministic feasible point on the segment between the bound vectors:
    the box centre without a sum constraint."""
    span = problem.upper.sum() - problem.lower.sum()
    if span <= 0.0:
        return problem.lower.copy()
    beta = 0.5
    if problem.equalities:
        beta = (problem.eq_target - problem.lower.sum()) / span
        beta = min(max(beta, 0.0), 1.0)
    return problem.lower + beta * (problem.upper - problem.lower)


def project_feasible(z, lower, upper, eq_target) -> np.ndarray:
    """Euclidean projection onto {lower <= x <= upper, sum(x) = eq_target}.

    With ``eq_target`` None the set is the box alone and the projection is a
    clip. Otherwise it is clip(z - nu, lower, upper) for the shift nu at which
    the clipped sum hits the target. That sum is piecewise linear and
    non-increasing in nu with breakpoints z - upper and z - lower. Running
    sums over the sorted breakpoints locate the segment holding the target in
    O(n log n) (Kiwiel, Math. Program. 112, 2008); nu is then interpolated
    between the exact clipped sums at the segment's two ends.
    """
    z = np.asarray(z, dtype=np.float64)
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    clipped = np.minimum(np.maximum(z, lower), upper)
    if eq_target is None or clipped.sum() == eq_target:
        return clipped
    top = upper.sum()
    if eq_target >= top:
        return upper.copy()
    if eq_target <= lower.sum():
        return lower.copy()
    n = z.size
    points = np.concatenate([z - upper, z - lower])
    order = points.argsort()
    points = points[order]
    # A coordinate lies strictly inside its box between its z - upper and
    # z - lower breakpoints; the clipped sum falls at that count per unit nu.
    inside = np.where(order[:-1] < n, 1.0, -1.0).cumsum()
    fall = (inside * (points[1:] - points[:-1])).cumsum()
    hi = min(int(fall.searchsorted(top - eq_target)) + 1, 2 * n - 1)
    lo = hi - 1
    ends = z - points[lo : hi + 1, None]
    s_lo, s_hi = np.minimum(np.maximum(ends, lower), upper).sum(axis=1)
    if s_lo == s_hi:
        nu = points[lo]
    else:
        frac = (s_lo - eq_target) / (s_lo - s_hi)
        nu = points[lo] + frac * (points[hi] - points[lo])
    return np.minimum(np.maximum(z - nu, lower), upper)


def _centre(problem, values):
    """The shift that makes ``values`` sum to zero: their mean, or 0 for a
    box-only problem, whose steps need not keep the sum."""
    return values.sum() / values.size if problem.equalities else 0.0


def _sum_gap(problem, x) -> float:
    """|sum(x) - eq_target|, or 0 for a box-only problem."""
    return float(abs(x.sum() - problem.eq_target)) if problem.equalities else 0.0


def _multiplier(problem, grad, at_lo, at_up) -> float:
    """Sum-constraint multiplier for the partition into bound and free coordinates.

    0 for a box-only problem. Otherwise the mean free gradient when a
    coordinate is free; at a vertex, the midpoint between the lowest gradient
    at a lower bound and the highest at an upper bound, which certifies the
    vertex whenever any value does.
    """
    if not problem.equalities:
        return 0.0
    free = ~(at_lo | at_up)
    if free.any():
        return float(_centre(problem, grad[free]))
    hi = np.min(grad[at_lo & ~at_up], initial=np.inf)
    lo = np.max(grad[at_up & ~at_lo], initial=-np.inf)
    if np.isinf(hi) and np.isinf(lo):
        return 0.0
    if np.isinf(hi):
        return float(lo)
    if np.isinf(lo):
        return float(hi)
    return float(0.5 * (lo + hi))


def _certificate(problem, x, at_lo, at_up):
    """KKT certificate of x for the partition into bound and free coordinates.

    Returns two absolute maxima, the free projected gradient |grad - lam| and
    the wrong-sign bound multiplier (lam - grad at a lower bound, grad - lam
    at an upper one; a pinned coordinate has no sign), then the gradient and
    its scale: the largest of 1, max|grad| and ``_HX_ROUNDING * max|Hx| /
    _STAT_TOL``. Below that last floor rounding in Hx alone would fail the
    stop test, as at the optimum of a pi QP whose mean-matching term dwarfs
    its gradient. Last comes Hx itself, from which x's objective follows.
    """
    h_x = problem.hess.matvec(x)
    grad = h_x + problem.lin
    dual = grad - _multiplier(problem, grad, at_lo, at_up)
    free_gap = float(np.max(np.abs(dual[~(at_lo | at_up)]), initial=0.0))
    wrong_sign = float(np.max(np.where(at_lo, -dual, dual)[at_lo != at_up], initial=0.0))
    scale = max(1.0, float(np.max(np.abs(grad), initial=0.0)),
                _HX_ROUNDING * float(np.max(np.abs(h_x), initial=0.0)) / _STAT_TOL)
    return free_gap, wrong_sign, grad, scale, h_x


def solve_qp(problem: BoxEqQP, start: np.ndarray | None = None) -> QPSolution:
    """Minimize the QP by GPCG.

    ``start`` must be feasible when given; the solver then never returns a
    point with a larger objective. It stops once the free projected gradient
    is within 1e-11, and every bound multiplier within 1e-10 of the right
    sign, of the gradient scale: the largest gradient entry, at least 1 and
    at least the rounding floor 2.2e-3 max|Hx|. The cap is ``50 * n``
    Hessian products; if the KKT residual still exceeds 1e-6 of that scale
    there, or is NaN, a :class:`ConvergenceError` is raised.
    """
    n = problem.n
    lower, upper = problem.lower, problem.upper
    if start is None:
        x = _interior_start(problem)
    else:
        x = np.array(start, dtype=np.float64, copy=True).reshape(-1)
        if x.size != n:
            raise ValidationError("start point has the wrong length")
        bound_gap = np.max(np.maximum(lower - x, x - upper), initial=0.0)
        sum_gap = _sum_gap(problem, x)
        if bound_gap > 1e-8 or sum_gap > 1e-6 * max(1, n):
            raise ValidationError("start point is not feasible")
        if bound_gap > 0.0 or sum_gap > 1e-12 * max(1.0, abs(problem.eq_target or 0.0)):
            x = project_feasible(x, lower, upper, problem.eq_target)
    start_objective = problem.objective(x)

    x, iterations, (free_gap, wrong_sign, _, scale, h_x) = _gpcg(problem, x)
    residual = max(free_gap, wrong_sign, _sum_gap(problem, x))
    if not residual <= _KKT_LIMIT * scale:  # a NaN residual certifies nothing
        raise ConvergenceError(
            f"GPCG stopped after {iterations} Hessian products with "
            f"KKT residual {residual:.3e}"
        )
    objective = float(0.5 * x @ h_x + problem.lin @ x)  # problem.objective(x), from its Hx
    slack = 1e-9 * max(1.0, abs(start_objective))
    if start is not None and objective > start_objective + slack:
        raise ConvergenceError("solver ended above the warm-start objective")
    return QPSolution(x=x, objective=objective, iterations=iterations, kkt_residual=residual)


def _gpcg(problem, x):
    """GPCG iterations from the feasible point x.

    Each round puts coordinates within 1e-12 box widths (at least 1) of a
    bound onto it, so that rounding cannot leave one free a hair off its
    bound, but within 1e-12 max|x| if that is less, so that a solution far
    below unit scale, as a hinge dual's at tiny c1, is not snapped wholesale.
    It reads the bound partition once, checks the KKT certificate on it, takes
    projected gradient steps until the partition settles, and runs CG on the
    face they hand back. CG stops early (More-Toraldo) only after projected
    gradient steps that changed the partition. When CG ends at a new bound,
    the next round goes straight back to CG on the smaller face: bounds are
    released only by projected gradient steps taken where CG stopped inside
    its face, so ill-conditioned faces cannot make a bound zigzag on and off.
    A round that finds the product cap spent stops after its certificate.
    Returns the final point, the count of the phases' ``matvec`` and the
    certificate of that point, the last round's.
    """
    products = 0

    def matvec(v):
        nonlocal products
        products += 1
        return problem.hess.matvec(v)

    lower, upper = problem.lower, problem.upper
    max_iter = 50 * problem.n
    blocked = False
    widths = np.maximum(1.0, upper - lower)
    while True:
        snap = 1e-12 * np.minimum(widths, np.max(np.abs(x), initial=0.0))
        x = np.where(x - lower <= snap, lower, x)
        x = np.where(upper - x <= snap, upper, x)
        at_lo, at_up = x <= lower, x >= upper
        certificate = _certificate(problem, x, at_lo, at_up)
        free_gap, wrong_sign, grad, scale, _ = certificate
        converged = free_gap <= _STAT_TOL * scale and wrong_sign <= _MULT_TOL * scale
        if converged or products >= max_iter:
            break
        before, projected, changed = x, not blocked, False
        if projected:
            x, grad, at_lo, at_up, changed = _gradient_projection(
                problem, matvec, x, grad, at_lo, at_up)
        free = np.flatnonzero(~(at_lo | at_up))
        x, blocked = _face_cg(problem, matvec, x, grad, free, _STAT_TOL * scale, changed)
        if projected and np.array_equal(x, before):
            break
    return x, products, certificate


def _projected_search(x, direction, alpha, grad, matvec, lower, upper, total, floor):
    """The first Armijo point on the projected path P(x + alpha direction).

    P projects onto the box [lower, upper], at sum ``total`` unless that is
    None. Trials halve alpha while it exceeds ``floor``, at most
    ``_SEARCH_HALVINGS`` of them. A trial's slope is taken along ``grad``,
    and only a trial that descends costs a product with ``matvec``. Returns
    the point, its step's Hessian product and its gain; the point is None
    when no trial passes or one does not move.
    """
    for _ in range(_SEARCH_HALVINGS):
        if alpha <= floor:
            break
        candidate = project_feasible(x + alpha * direction, lower, upper, total)
        step = candidate - x
        if not step.any():
            break
        slope = float(grad @ step)
        if slope < 0.0:
            h_step = matvec(step)
            gain = -(slope + 0.5 * float(step @ h_step))
            if gain >= -_ARMIJO * slope:
                return candidate, h_step, gain
        alpha *= 0.5
    return None, None, 0.0


def _gradient_projection(problem, matvec, x, grad, at_lo, at_up):
    """Projected gradient steps from x, at a lower bound where ``at_lo`` and
    an upper one where ``at_up``, until that partition settles or progress stalls.

    Each step searches the projected path P(x - alpha grad), from the exact
    line minimizer along the steepest feasible direction; many bounds can
    change in one step. At most ``_GP_STEPS`` steps are taken: on an
    ill-conditioned problem they crawl, and CG on the current face does
    better. Returns x, its gradient, its bound masks and whether they changed.
    """
    lower, upper, target = problem.lower, problem.upper, problem.eq_target
    movable = upper > lower
    width = float(np.max(upper - lower))
    start = at_lo, at_up
    best = 0.0
    for _ in range(_GP_STEPS):
        free = ~(at_lo | at_up)
        pivot = _multiplier(problem, grad, at_lo, at_up)
        released = (at_lo & (grad < pivot)) | (at_up & (grad > pivot))
        moving = free | (movable & released)
        if moving.sum() <= problem.equalities:
            break
        descent = np.where(moving, pivot - grad, 0.0)
        descent[moving] -= _centre(problem, descent[moving])
        top = float(np.max(np.abs(descent)))
        if top == 0.0:
            break
        curvature = float(descent @ matvec(descent))
        alpha = _REACH * width / top
        if curvature > 0.0:
            alpha = min(alpha, float(descent @ descent) / curvature)
        # P(x - alpha grad) = P(x - alpha (grad - pivot)); the second form
        # keeps z near x, so the projection does not cancel digits. The slope
        # uses it too: the projection also undoes the rounding drift of
        # sum(x), which would add pivot * drift to a slope along grad.
        shifted = grad - pivot
        candidate, h_step, gain = _projected_search(
            x, -shifted, alpha, shifted, matvec, lower, upper, target, 0.0
        )
        if candidate is None:
            break
        previous = at_lo, at_up
        x, grad = candidate, grad + h_step
        at_lo, at_up = x <= lower, x >= upper
        best = max(best, gain)
        if np.array_equal(previous, (at_lo, at_up)) or gain <= _PROGRESS * best:
            break
    return x, grad, at_lo, at_up, not np.array_equal(start, (at_lo, at_up))


def _face_product(matvec, n, free):
    """d -> (H d')[free] on the face of the indices ``free`` of n, with d' equal
    to d there and 0 elsewhere: ``matvec`` itself on a face of every coordinate."""
    if free.size == n:
        return matvec
    full = np.zeros(n)

    def face_matvec(d):
        full[free] = d
        return matvec(full)[free]
    return face_matvec


def _face_cg(problem, matvec, x, grad, free, tol, early_stop):
    """Conjugate gradients over the face ``free`` of x, the indices at neither
    bound as in the certificate, at fixed sum under a sum constraint.

    Bound coordinates stay fixed; the residual is the negative gradient over
    the free ones, made sum-zero under a sum constraint. CG stops once the
    residual's 2-norm is at most ``tol`` and, with ``early_stop``, once a step
    gains less than a tenth of the best step so far. A step that would leave
    the box ends CG: with positive curvature, a projected search over the face
    from the line minimizer down to the first blocking bound; otherwise, or
    when no search point passes, a step to that bound. Both are scored with
    the true gradient, because CG's recurred residual can drift from it on an
    ill-conditioned face, and the bound step is not taken when it does not
    descend. Bound coordinates stay where they are, so CG adds bounds and
    never releases one. A face of one coordinate is worked on too unless the
    sum pins it. Returns the point and whether CG ended at a bound.
    """
    if free.size <= problem.equalities:
        return x, False
    xf, lo, up = x[free], problem.lower[free], problem.upper[free]
    face_grad = grad[free]
    resid = _centre(problem, face_grad) - face_grad
    direction = resid.copy()
    rr = float(resid @ resid)
    face_matvec = _face_product(matvec, problem.n, free)
    steps, best = 0, 0.0
    while rr > tol * tol and steps < 2 * free.size + 10:
        h_dir = face_matvec(direction)
        steps += 1
        curvature = float(direction @ h_dir)
        room = np.divide(
            np.where(direction > 0.0, up, lo) - xf, direction,
            out=np.full(free.size, np.inf), where=direction != 0.0,
        )
        blocker = int(np.argmin(room))
        alpha = rr / curvature if curvature > 0.0 else np.inf
        if alpha >= room[blocker]:
            x = x.copy()
            x[free] = xf
            face_grad = (matvec(x) + problem.lin)[free]
            reach = _REACH * float(np.max(up - lo)) / float(np.max(np.abs(direction)))
            moved, _, _ = _projected_search(
                xf, direction, min(alpha, reach) if curvature > 0.0 else 0.0,
                face_grad, face_matvec, lo, up,
                xf.sum() if problem.equalities else None, room[blocker],
            )
            if moved is None:
                moved = np.clip(xf + room[blocker] * direction, lo, up)
                moved[blocker] = up[blocker] if direction[blocker] > 0.0 else lo[blocker]
                step = moved - xf
                if float(face_grad @ step) + 0.5 * float(step @ face_matvec(step)) >= 0.0:
                    return x, False
            x[free] = moved
            return x, True
        xf = xf + alpha * direction
        resid -= alpha * h_dir
        resid -= _centre(problem, resid)
        rr_next = float(resid @ resid)
        gain = 0.5 * alpha * rr
        best = max(best, gain)
        direction *= rr_next / rr
        direction += resid
        rr = rr_next
        if early_stop and gain <= _PROGRESS * best:
            break
    x = x.copy()
    x[free] = np.clip(xf, lo, up)
    return x, False
