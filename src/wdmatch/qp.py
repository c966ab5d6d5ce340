"""Convex quadratic programs over a box intersected with one sum constraint.

Solves  minimize 0.5 x'Hx + f'x  subject to  lower <= x <= upper and
sum(x) = eq_target, with H positive semidefinite, by a primal active-set
method: coordinates pinned at a bound form the working set, the reduced
equality-constrained subproblem is solved through a bordered linear system,
and bounds are added or dropped one at a time with a lowest-index rule so the
method cannot cycle. A projected-gradient routine over the same feasible set
is provided purely as an independent cross-check for tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InfeasibleProblemError, ValidationError

_SYMMETRY_TOL = 1e-10
_FEAS_TOL = 1e-12
_KKT_LIMIT = 1e-6


@dataclass(frozen=True)
class BoxEqQP:
    """Problem data for one box-plus-equality QP instance."""

    hess: np.ndarray
    lin: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    eq_target: float

    def __post_init__(self):
        hess = np.array(self.hess, dtype=np.float64, copy=True)
        lin = np.array(self.lin, dtype=np.float64, copy=True).reshape(-1)
        lower = np.array(self.lower, dtype=np.float64, copy=True).reshape(-1)
        upper = np.array(self.upper, dtype=np.float64, copy=True).reshape(-1)
        n = lin.size
        if hess.shape != (n, n):
            raise ValidationError(f"hess must be {n}x{n}, got {hess.shape}")
        if lower.size != n or upper.size != n:
            raise ValidationError("bound vectors must match the problem size")
        if np.max(np.abs(hess - hess.T), initial=0.0) > _SYMMETRY_TOL:
            raise ValidationError("hess is not symmetric within 1e-10")
        hess = 0.5 * (hess + hess.T)
        if np.any(lower > upper):
            raise ValidationError("lower bound exceeds upper bound")
        slack = _FEAS_TOL * max(1.0, abs(float(self.eq_target)))
        if not lower.sum() - slack <= self.eq_target <= upper.sum() + slack:
            raise InfeasibleProblemError(
                "sum constraint is unreachable within the bounds"
            )
        for arr in (hess, lin, lower, upper):
            arr.flags.writeable = False
        object.__setattr__(self, "hess", hess)
        object.__setattr__(self, "lin", lin)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "eq_target", float(self.eq_target))

    @property
    def n(self) -> int:
        return self.lin.size

    def objective(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=np.float64)
        return float(0.5 * x @ self.hess @ x + self.lin @ x)


@dataclass(frozen=True)
class QPSolution:
    """Solver output: feasible point, objective value and a KKT certificate."""

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
    clipped sum hits the target; the sum is piecewise linear and non-increasing
    in nu, so nu is found exactly from the sorted breakpoints.
    """
    z = np.asarray(z, dtype=np.float64)
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    clipped = np.clip(z, lower, upper)
    if clipped.sum() == eq_target:
        return clipped
    points = np.sort(np.concatenate([z - upper, z - lower]))
    sums = np.clip(z[None, :] - points[:, None], lower, upper).sum(axis=1)
    # sums is non-increasing: sums[0] = sum(upper), sums[-1] = sum(lower).
    if eq_target >= sums[0]:
        return upper.copy()
    if eq_target <= sums[-1]:
        return lower.copy()
    hi = int(np.searchsorted(-sums, -eq_target, side="left"))
    lo = hi - 1
    if sums[lo] == sums[hi]:
        nu = points[lo]
    else:
        frac = (sums[lo] - eq_target) / (sums[lo] - sums[hi])
        nu = points[lo] + frac * (points[hi] - points[lo])
    return np.clip(z - nu, lower, upper)


def _stationarity_residual(problem, x, at_lo, at_up):
    """KKT residual of x for the working-set partition (absolute scale)."""
    grad = problem.hess @ x + problem.lin
    pinned = at_lo & at_up
    free = ~(at_lo | at_up)
    if free.any():
        lam = float(grad[free].mean())
    else:
        lo_only = at_lo & ~pinned
        up_only = at_up & ~pinned
        hi = grad[lo_only].min() if lo_only.any() else np.inf
        lo = grad[up_only].max() if up_only.any() else -np.inf
        if np.isinf(hi) and np.isinf(lo):
            lam = 0.0
        elif np.isinf(hi):
            lam = float(lo)
        elif np.isinf(lo):
            lam = float(hi)
        else:
            lam = float(0.5 * (lo + hi))
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
    """Minimize the QP by the primal active-set method.

    ``start`` must be feasible when given; the solver then never returns a
    point with a larger objective. The iteration cap is ``50 * n``; if the KKT
    residual still exceeds 1e-6 there, a :class:`ConvergenceError` is raised.
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

    pinned = (upper - lower) <= 0.0
    snap = 1e-12 * np.maximum(1.0, np.abs(upper - lower))
    at_lo = (x - lower) <= snap
    at_up = (upper - x) <= snap
    x = np.where(at_lo, lower, x)
    x = np.where(at_up, upper, x)

    max_iter = 50 * n
    iterations = 0
    stat_tol = 1e-11
    while iterations < max_iter:
        iterations += 1
        grad = problem.hess @ x + problem.lin
        scale = max(1.0, float(np.max(np.abs(grad))))
        free = ~(at_lo | at_up)
        idx_free = np.flatnonzero(free)

        moved = False
        if idx_free.size >= 2:
            g_free = grad[idx_free]
            lam = g_free.mean()
            proj_grad = g_free - lam
            if np.max(np.abs(proj_grad)) > stat_tol * scale:
                step = _subproblem_direction(problem.hess, idx_free, g_free)
                if step is None or float(g_free @ step) > -1e-14 * scale:
                    step = -proj_grad  # projected steepest descent fallback
                moved = _take_step(x, at_lo, at_up, lower, upper, idx_free, step)
                if moved:
                    continue

        # Working-set stationary point: check bound multipliers.
        _, lam, grad = _stationarity_residual(problem, x, at_lo, at_up)
        mult_tol = 1e-10 * scale
        dual = grad - lam
        wrong_sign = (at_lo & (dual < -mult_tol)) | (at_up & (dual > mult_tol))
        drops = np.flatnonzero(wrong_sign & ~pinned & ~free)
        if drops.size == 0:
            break
        drop = drops[0]
        at_lo[drop] = False
        at_up[drop] = False

    x = np.clip(x, lower, upper)
    residual, _, _ = _stationarity_residual(problem, x, at_lo, at_up)
    if residual > _KKT_LIMIT:
        raise ConvergenceError(
            f"active-set solver stopped after {iterations} iterations with "
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


def _subproblem_direction(hess, idx_free, g_free):
    """Direction for the free coordinates from the bordered KKT system.

    Solves  min 0.5 p'Ap + g'p  s.t. sum(p) = 0  on the free block, with a
    tiny ridge so the system stays solvable for singular PSD blocks; for an
    unbounded subproblem the ratio test will cut the move at a bound.
    """
    nf = idx_free.size
    block = hess[np.ix_(idx_free, idx_free)]
    ridge = 1e-12 * (1.0 + float(np.trace(block)) / nf)
    kkt = np.empty((nf + 1, nf + 1))
    kkt[:nf, :nf] = block + ridge * np.eye(nf)
    kkt[:nf, nf] = 1.0
    kkt[nf, :nf] = 1.0
    kkt[nf, nf] = 0.0
    rhs = np.concatenate([-g_free, [0.0]])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    if not np.all(np.isfinite(sol)):
        return None
    return sol[:nf]


def _take_step(x, at_lo, at_up, lower, upper, idx_free, step):
    """Move the free coordinates along ``step`` until a bound blocks.

    Returns False for a numerically empty move. The blocking coordinate with
    the lowest index joins the working set exactly at its bound.
    """
    if np.max(np.abs(step)) <= 0.0:
        return False
    alpha = 1.0
    blocker = -1
    blocker_high = False
    for pos, i in enumerate(idx_free):
        direction = step[pos]
        if direction > 0.0:
            room = (upper[i] - x[i]) / direction
            high = True
        elif direction < 0.0:
            room = (lower[i] - x[i]) / direction
            high = False
        else:
            continue
        room = max(room, 0.0)
        if room < alpha - 1e-15:
            alpha = room
            blocker = i
            blocker_high = high
    if alpha <= 0.0 and blocker >= 0:
        # Degenerate move: pin the blocking coordinate and report progress
        # through the working-set change.
        if blocker_high:
            x[blocker] = upper[blocker]
            at_up[blocker] = True
        else:
            x[blocker] = lower[blocker]
            at_lo[blocker] = True
        return True
    if alpha <= 0.0:
        return False
    x[idx_free] += alpha * step
    if blocker >= 0:
        if blocker_high:
            x[blocker] = upper[blocker]
            at_up[blocker] = True
        else:
            x[blocker] = lower[blocker]
            at_lo[blocker] = True
    return True


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
        grad = problem.hess @ x + problem.lin
        nxt = project_feasible(
            x - step_size * grad, problem.lower, problem.upper, problem.eq_target
        )
        if np.array_equal(nxt, x):
            break
        x = nxt
    return x
