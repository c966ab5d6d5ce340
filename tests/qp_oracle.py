"""Test references for the QP layer: a dense matrix seen as an operator, and a
plain projected-gradient solver that the GPCG tests compare with."""

import numpy as np

from wdmatch.qp import BoxEqQP, _interior_start, project_feasible


class MatrixOperator:
    """A dense matrix seen only through its products, as the solver sees every
    Hessian; tests read ``matrix`` for eigenvalues and direct products."""

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=np.float64)

    def matvec(self, x):
        return self.matrix @ x


def projected_gradient_oracle(
    problem: BoxEqQP, steps: int = 2000, step_size: float | None = None
) -> np.ndarray:
    """Plain projected gradient descent over the feasible set.

    Exists solely to cross-validate :func:`~wdmatch.qp.solve_qp` in tests; it
    trades speed for transparency. When ``step_size`` is omitted the inverse
    of the largest Hessian eigenvalue is used, so ``problem.hess`` must be a
    :class:`MatrixOperator`. Iteration stops early at an exact fixed point,
    where every further step would return the same iterate.
    """
    if step_size is None:
        top = float(np.max(np.linalg.eigvalsh(problem.hess.matrix), initial=0.0))
        step_size = 1.0 / top if top > 1e-12 else 1.0
    x = _interior_start(problem)
    for _ in range(steps):
        grad = problem.hess.matvec(x) + problem.lin
        nxt = project_feasible(
            x - step_size * grad, problem.lower, problem.upper, problem.eq_target
        )
        if np.array_equal(nxt, x):
            break
        x = nxt
    return x
