"""Convex quadratic programs over a box intersected with one sum constraint.

Solves  minimize 0.5 x'Hx + f'x  subject to  lower <= x <= upper and
sum(x) = eq_target, with H symmetric positive semidefinite. H is either a
dense array or a linear operator, an object whose ``matvec(x)`` returns Hx;
the solver only ever asks for products Hx, so both are handled alike.

The method is GPCG (More & Toraldo, SIAM J. Optim. 1, 1991): projected
gradient steps with an Armijo search change many bounds at once, and
conjugate gradients then minimize over the face those steps settle on. It is
built on the exact projection onto the feasible set and stops on a KKT
certificate. A plain projected-gradient routine is provided purely as a
cross-check for tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InfeasibleProblemError, ValidationError

_SYMMETRY_TOL = 1e-10
_FEAS_TOL = 1e-12
_KKT_LIMIT = 1e-6
_STAT_TOL = 1e-11  # free projected gradient at the solution, times the gradient scale
_MULT_TOL = 1e-10  # wrong-sign bound multiplier allowed, times the gradient scale
_ARMIJO = 0.01  # sufficient-decrease fraction of a projected search
_PROGRESS = 0.1  # a GPCG phase ends once a step gains less than this share of its best
_SEARCH_HALVINGS = 60
_GP_STEPS = 8  # projected gradient steps per GPCG round at most, as in TAO's GPCG
# A projected search starts no farther than this many box widths along its
# direction: beyond that the path barely changes, and z - nu would lose digits.
_REACH = 1e3


@dataclass(frozen=True)
class BoxEqQP:
    """Problem data for one box-plus-equality QP instance.

    ``hess`` is a dense symmetric array, checked here, or an object with a
    ``matvec`` method, which the caller guarantees to be symmetric PSD.
    """

    hess: object
    lin: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    eq_target: float

    def __post_init__(self):
        lin = np.array(self.lin, dtype=np.float64, copy=True).reshape(-1)
        lower = np.array(self.lower, dtype=np.float64, copy=True).reshape(-1)
        upper = np.array(self.upper, dtype=np.float64, copy=True).reshape(-1)
        n = lin.size
        hess = self.hess
        if not hasattr(hess, "matvec"):
            hess = np.array(hess, dtype=np.float64, copy=True)
            if hess.shape != (n, n):
                raise ValidationError(f"hess must be {n}x{n}, got {hess.shape}")
            if np.max(np.abs(hess - hess.T), initial=0.0) > _SYMMETRY_TOL:
                raise ValidationError("hess is not symmetric within 1e-10")
            hess = 0.5 * (hess + hess.T)
            hess.flags.writeable = False
        if lower.size != n or upper.size != n:
            raise ValidationError("bound vectors must match the problem size")
        if np.any(lower > upper):
            raise ValidationError("lower bound exceeds upper bound")
        slack = _FEAS_TOL * max(1.0, abs(float(self.eq_target)))
        if not lower.sum() - slack <= self.eq_target <= upper.sum() + slack:
            raise InfeasibleProblemError(
                "sum constraint is unreachable within the bounds"
            )
        for arr in (lin, lower, upper):
            arr.flags.writeable = False
        object.__setattr__(self, "hess", hess)
        object.__setattr__(self, "lin", lin)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "eq_target", float(self.eq_target))

    @property
    def n(self) -> int:
        return self.lin.size

    @property
    def dense(self) -> bool:
        return isinstance(self.hess, np.ndarray)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """The Hessian product Hx."""
        return self.hess @ x if self.dense else self.hess.matvec(x)

    def objective(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=np.float64)
        return float(0.5 * x @ self.matvec(x) + self.lin @ x)


@dataclass(frozen=True)
class QPSolution:
    """Solver output: feasible point, objective value and a KKT certificate.

    ``iterations`` counts Hessian products, in search trials and CG steps.
    """

    x: np.ndarray
    objective: float
    iterations: int
    kkt_residual: float

    def __post_init__(self):
        x = np.array(self.x, dtype=np.float64, copy=True)
        x.flags.writeable = False
        object.__setattr__(self, "x", x)


def _interior_start(problem: BoxEqQP) -> np.ndarray:
    """Deterministic feasible point on the segment between the bound vectors."""
    span = problem.upper.sum() - problem.lower.sum()
    if span <= 0.0:
        return problem.lower.copy()
    beta = (problem.eq_target - problem.lower.sum()) / span
    beta = min(max(beta, 0.0), 1.0)
    return problem.lower + beta * (problem.upper - problem.lower)


def project_feasible(z, lower, upper, eq_target) -> np.ndarray:
    """Euclidean projection onto {lower <= x <= upper, sum(x) = eq_target}.

    The projection is clip(z - nu, lower, upper) for the shift nu at which the
    clipped sum hits the target. That sum is piecewise linear and
    non-increasing in nu with breakpoints z - upper and z - lower. Running
    sums over the sorted breakpoints locate the segment holding the target in
    O(n log n) (Kiwiel, Math. Program. 112, 2008); nu is then interpolated
    between the exact clipped sums at the segment's two ends.
    """
    z = np.asarray(z, dtype=np.float64)
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    clipped = np.minimum(np.maximum(z, lower), upper)
    if clipped.sum() == eq_target:
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


def _multiplier(grad, at_lo, at_up) -> float:
    """Sum-constraint multiplier for the partition into bound and free coordinates.

    The mean free gradient when a coordinate is free; at a vertex, the
    midpoint between the lowest gradient at a lower bound and the highest at
    an upper bound, which certifies the vertex whenever any value does.
    """
    free = ~(at_lo | at_up)
    if free.any():
        return float(grad[free].mean())
    pinned = at_lo & at_up
    lo_only = at_lo & ~pinned
    up_only = at_up & ~pinned
    hi = grad[lo_only].min() if lo_only.any() else np.inf
    lo = grad[up_only].max() if up_only.any() else -np.inf
    if np.isinf(hi) and np.isinf(lo):
        return 0.0
    if np.isinf(hi):
        return float(lo)
    if np.isinf(lo):
        return float(hi)
    return float(0.5 * (lo + hi))


def _stationarity_residual(problem, x, at_lo, at_up):
    """KKT residual of x for the working-set partition (absolute scale)."""
    grad = problem.matvec(x) + problem.lin
    pinned = at_lo & at_up
    free = ~(at_lo | at_up)
    lam = _multiplier(grad, at_lo, at_up)
    residual = 0.0
    if free.any():
        residual = float(np.max(np.abs(grad[free] - lam)))
    lo_mult = grad[at_lo & ~pinned] - lam
    if lo_mult.size:
        residual = max(residual, float(np.max(np.maximum(0.0, -lo_mult))))
    up_mult = grad[at_up & ~pinned] - lam
    if up_mult.size:
        residual = max(residual, float(np.max(np.maximum(0.0, up_mult))))
    residual = max(residual, float(abs(x.sum() - problem.eq_target)))
    return residual, lam, grad


def solve_qp(problem: BoxEqQP, start: np.ndarray | None = None) -> QPSolution:
    """Minimize the QP by GPCG.

    ``start`` must be feasible when given; the solver then never returns a
    point with a larger objective. It stops once the free projected gradient
    is within 1e-11, and every bound multiplier within 1e-10 of the right
    sign, of the largest gradient entry. The cap is ``50 * n`` Hessian
    products; if the KKT residual still exceeds 1e-6 of the largest gradient
    entry (or 1e-6, if that entry is smaller than 1) there, a
    :class:`ConvergenceError` is raised.
    """
    n = problem.n
    lower, upper = problem.lower, problem.upper
    if start is None:
        x = _interior_start(problem)
    else:
        x = np.array(start, dtype=np.float64, copy=True).reshape(-1)
        if x.size != n:
            raise ValidationError("start point has the wrong length")
        bound_gap = max(
            np.max(np.maximum(lower - x, 0.0), initial=0.0),
            np.max(np.maximum(x - upper, 0.0), initial=0.0),
        )
        sum_gap = abs(x.sum() - problem.eq_target)
        if bound_gap > 1e-8 or sum_gap > 1e-6 * max(1, n):
            raise ValidationError("start point is not feasible")
        if bound_gap > 0.0 or sum_gap > 1e-12 * max(1.0, abs(problem.eq_target)):
            x = project_feasible(x, lower, upper, problem.eq_target)
    start_objective = problem.objective(x)

    x, iterations = _gpcg(problem, x)
    x = np.clip(x, lower, upper)
    residual, _, grad = _stationarity_residual(problem, x, x <= lower, x >= upper)
    if residual > _KKT_LIMIT * max(1.0, float(np.max(np.abs(grad)))):
        raise ConvergenceError(
            f"GPCG stopped after {iterations} Hessian products with "
            f"KKT residual {residual:.3e}"
        )
    objective = problem.objective(x)
    if start is not None and objective > start_objective + 1e-9 * max(
        1.0, abs(start_objective)
    ):
        raise ConvergenceError("solver ended above the warm-start objective")
    return QPSolution(
        x=x, objective=objective, iterations=iterations, kkt_residual=residual
    )


@dataclass(frozen=True)
class _WithSlack:
    """A Hessian operator extended by one trailing coordinate without curvature."""

    hess: object

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return np.append(self.hess.matvec(x[:-1]), 0.0)


def solve_box_qp(hess, lin, upper, start=None) -> QPSolution:
    """Minimize 0.5 x'Hx + f'x over 0 <= x <= upper by :func:`solve_qp`.

    ``hess`` is an operator with ``matvec``. The box QP is solved as a box+sum
    QP over x and one slack coordinate t without curvature: 0 <= t <= sum(upper)
    and sum(x) + t = sum(upper), which every point of the box meets with
    exactly one t. ``start``, when given, must lie in the box. The returned
    solution drops t; its certificate is that of the extended QP.
    """
    upper = np.asarray(upper, dtype=np.float64).reshape(-1)
    total = float(upper.sum())
    if start is not None:
        start = np.append(start, total - np.sum(start))
    problem = BoxEqQP(
        hess=_WithSlack(hess),
        lin=np.append(lin, 0.0),
        lower=np.zeros(upper.size + 1),
        upper=np.append(upper, total),
        eq_target=total,
    )
    solution = solve_qp(problem, start=start)
    return QPSolution(solution.x[:-1], solution.objective, solution.iterations,
                      solution.kkt_residual)


def _wrong_sign(dual, at_lo, at_up, movable, scale):
    """Bound coordinates whose multiplier has the wrong sign beyond 1e-10 x scale."""
    tol = _MULT_TOL * scale
    return movable & ((at_lo & (dual < -tol)) | (at_up & (dual > tol)))


def _gpcg(problem, x):
    """GPCG iterations from the feasible point x.

    Each round puts coordinates within 1e-12 box widths of a bound onto it,
    so that rounding cannot leave one free a hair off its bound, checks the
    KKT certificate, takes projected gradient steps until the binding set
    settles, then runs CG on the resulting face. CG stops early (More-Toraldo) only after projected gradient steps that
    changed the binding set. When CG ends at a new bound, the next round goes
    straight back to CG on the smaller face: bounds are released only by
    projected gradient steps taken where CG stopped inside its face, so
    ill-conditioned faces cannot make a bound zigzag on and off. Returns the
    final point and the number of Hessian products.
    """
    lower, upper = problem.lower, problem.upper
    movable = upper > lower
    max_iter = 50 * problem.n
    iterations = 0
    blocked = False
    snap = 1e-12 * np.maximum(1.0, upper - lower)
    while iterations < max_iter:
        x = np.where(x - lower <= snap, lower, x)
        x = np.where(upper - x <= snap, upper, x)
        at_lo, at_up = x <= lower, x >= upper
        _, lam, grad = _stationarity_residual(problem, x, at_lo, at_up)
        scale = max(1.0, float(np.max(np.abs(grad))))
        dual = grad - lam
        free = ~(at_lo | at_up)
        if (np.max(np.abs(dual[free]), initial=0.0) <= _STAT_TOL * scale
                and not _wrong_sign(dual, at_lo, at_up, movable, scale).any()):
            break
        before, projected = x, not blocked
        changed = False
        if projected:
            x, grad, steps, changed = _gradient_projection(problem, x, grad)
            iterations += steps
        x, steps, blocked = _face_cg(problem, x, grad, _STAT_TOL * scale, changed)
        iterations += steps
        if projected and np.array_equal(x, before):
            break
    return x, iterations


def _binding(x, lower, upper) -> np.ndarray:
    """-1 at a lower bound, +1 at an upper bound, 0 in between (and pinned)."""
    return (x >= upper).astype(np.int8) - (x <= lower).astype(np.int8)


def _gradient_projection(problem, x, grad):
    """Projected gradient steps until the binding set settles or progress stalls.

    Each step searches the projected path P(x - alpha grad), halving alpha
    from the exact line minimizer along the steepest feasible direction until
    the Armijo condition holds; many bounds can change in one step. At most
    ``_GP_STEPS`` steps are taken: on an ill-conditioned problem they crawl,
    and CG on the current face does better. Returns the point, its gradient,
    the Hessian products used and whether the binding set changed.
    """
    lower, upper, target = problem.lower, problem.upper, problem.eq_target
    movable = upper > lower
    width = float(np.max(upper - lower))
    start = _binding(x, lower, upper)
    steps, best = 0, 0.0
    for _ in range(_GP_STEPS):
        at_lo, at_up = x <= lower, x >= upper
        free = ~(at_lo | at_up)
        pivot = _multiplier(grad, at_lo, at_up)
        released = (at_lo & (grad < pivot)) | (at_up & (grad > pivot))
        moving = free | (movable & released)
        if moving.sum() < 2:
            break
        descent = np.where(moving, pivot - grad, 0.0)
        descent[moving] -= descent[moving].mean()
        top = float(np.max(np.abs(descent)))
        if top == 0.0:
            break
        curvature = float(descent @ problem.matvec(descent))
        steps += 1
        alpha = _REACH * width / top
        if curvature > 0.0:
            alpha = min(alpha, float(descent @ descent) / curvature)
        # P(x - alpha grad) = P(x - alpha (grad - pivot)); the second form
        # keeps z near x, so the projection does not cancel digits. The slope
        # uses it too: the projection also undoes the rounding drift of
        # sum(x), which would add pivot * drift to a slope along grad.
        shifted = grad - pivot
        for _ in range(_SEARCH_HALVINGS):
            candidate = project_feasible(x - alpha * shifted, lower, upper, target)
            step = candidate - x
            if not step.any():
                break
            slope = float(shifted @ step)
            if slope < 0.0:
                h_step = problem.matvec(step)
                steps += 1
                gain = -(slope + 0.5 * float(step @ h_step))
                if gain >= -_ARMIJO * slope:
                    break
            alpha *= 0.5
        else:
            break
        if not step.any():
            break
        previous = _binding(x, lower, upper)
        x, grad = candidate, grad + h_step
        best = max(best, gain)
        settled = np.array_equal(previous, _binding(x, lower, upper))
        if settled or gain <= _PROGRESS * best:
            break
    return x, grad, steps, not np.array_equal(start, _binding(x, lower, upper))


def _face_cg(problem, x, grad, tol, early_stop):
    """Conjugate gradients over the free coordinates of x at fixed sum.

    Bound coordinates stay fixed; the residual is the negative gradient made
    sum-zero over the free ones. CG stops once the residual's 2-norm is at
    most ``tol`` and, with ``early_stop``, once a step gains less than a tenth
    of the best step so far. A step that would leave the box ends CG with a
    projected search along its direction; a direction without curvature moves
    straight to the first blocking bound. Returns the point, the number of
    Hessian products and whether CG ended at a bound.
    """
    lower, upper = problem.lower, problem.upper
    free = np.flatnonzero((x > lower) & (x < upper))
    if free.size < 2:
        return x, 0, False
    xf, lo, up = x[free], lower[free], upper[free]
    resid = grad[free].mean() - grad[free]
    direction = resid.copy()
    rr = float(resid @ resid)
    full = np.zeros(problem.n)
    steps, best = 0, 0.0
    while rr > tol * tol and steps < 2 * free.size + 10:
        full[free] = direction
        h_dir = problem.matvec(full)[free]
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
            moved, products = _bound_step(
                problem, x, free, direction, alpha, room[blocker], blocker
            )
            if moved is not None:
                x[free] = moved
            return x, steps + products, moved is not None
        xf = xf + alpha * direction
        resid -= alpha * h_dir
        resid -= resid.mean()
        rr_next = float(resid @ resid)
        gain = 0.5 * alpha * rr
        best = max(best, gain)
        direction = resid + (rr_next / rr) * direction
        rr = rr_next
        if early_stop and gain <= _PROGRESS * best:
            break
    x = x.copy()
    x[free] = np.clip(xf, lo, up)
    return x, steps, False


def _bound_step(problem, x, free, direction, alpha, alpha_max, blocker):
    """Free coordinates after a CG direction that leaves the box at ``alpha_max``.

    With positive curvature (``alpha`` finite, the line minimizer), search
    the projected path P(x_F + beta direction) over the free coordinates only,
    from beta = alpha down by halving while beta exceeds alpha_max, and accept
    the first Armijo point. Otherwise step to the first blocking bound. Bound
    coordinates stay where they are, so this step adds bounds and never
    releases one. Every trial is scored with the true gradient, because CG's
    recurred residual can drift from it on an ill-conditioned face; when not
    even the step to the bound descends, None is returned instead. Also
    returns the number of Hessian products.
    """
    xf, lo, up = x[free], problem.lower[free], problem.upper[free]
    grad = (problem.matvec(x) + problem.lin)[free]
    full = np.zeros(problem.n)
    products = 1

    def score(candidate):
        nonlocal products
        full[free] = step = candidate - xf
        products += 1
        slope = float(grad @ step)
        return slope, -(slope + 0.5 * float(step @ problem.matvec(full)[free]))

    reach = _REACH * float(np.max(up - lo)) / float(np.max(np.abs(direction)))
    beta = min(alpha, reach)
    while np.isfinite(alpha) and beta > alpha_max:
        candidate = project_feasible(xf + beta * direction, lo, up, xf.sum())
        slope, gain = score(candidate)
        if slope < 0.0 and gain >= -_ARMIJO * slope:
            return candidate, products
        beta *= 0.5
    moved = np.clip(xf + alpha_max * direction, lo, up)
    moved[blocker] = up[blocker] if direction[blocker] > 0.0 else lo[blocker]
    if score(moved)[1] <= 0.0:
        moved = None
    return moved, products


def projected_gradient_oracle(
    problem: BoxEqQP, steps: int = 2000, step_size: float | None = None
) -> np.ndarray:
    """Plain projected gradient descent over the feasible set.

    Exists solely to cross-validate :func:`solve_qp` in tests; it trades speed
    for transparency. When ``step_size`` is omitted the inverse of the largest
    Hessian eigenvalue is used. Iteration stops early at an exact fixed point,
    where every further step would return the same iterate.
    """
    if step_size is None:
        top = float(np.max(np.linalg.eigvalsh(problem.hess), initial=0.0))
        step_size = 1.0 / top if top > 1e-12 else 1.0
    x = _interior_start(problem)
    for _ in range(steps):
        grad = problem.matvec(x) + problem.lin
        nxt = project_feasible(
            x - step_size * grad, problem.lower, problem.upper, problem.eq_target
        )
        if np.array_equal(nxt, x):
            break
        x = nxt
    return x
