import logging

import numpy as np
import pytest

import wdmatch.qp
from wdmatch.data import DomainDataset
from wdmatch.errors import ConvergenceError, InfeasibleProblemError, ValidationError
from wdmatch.neighborhood import NeighborhoodGraph
from wdmatch.optimizer import InstanceWeightHessian
from wdmatch.model import HingeDual
from wdmatch.qp import BoxEqQP, project_feasible, solve_qp

from qp_oracle import MatrixOperator, projected_gradient_oracle


EYE2 = MatrixOperator(np.eye(2))


def random_problem(seed, n=6, ridge=0.3):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    hess = a.T @ a / n + ridge * np.eye(n)
    lin = rng.standard_normal(n)
    lower = rng.uniform(-1.0, 0.0, n)
    upper = lower + rng.uniform(0.5, 2.0, n)
    target = float(rng.uniform(lower.sum(), upper.sum()))
    return BoxEqQP(MatrixOperator(hess), lin, lower, upper, target)


def low_rank_box_problem(seed, n=8, m=3):
    """A box-only QP whose Hessian K K' has rank m < n, so CG meets flat faces."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, m))
    lin = rng.standard_normal(n)
    upper = rng.uniform(0.5, 2.0, n)
    return BoxEqQP(MatrixOperator(rows @ rows.T), lin, np.zeros(n), upper, None)


def hinge_dual_problem(seed):
    """A box-only QP over a hinge dual's operator, with a planted minimizer."""
    hess, lin, upper, _ = planted_box_qp(seed, 40, 5, free=[2, 9, 30])
    return BoxEqQP(hess, lin, np.zeros(upper.size), upper, None)


class TestProductCount:
    """``QPSolution.iterations`` of cold solves on fixed small QPs, exactly.

    Between them the solves take projected gradient steps, end CG through its
    projected search, and (the box-only one) end it through the bound step
    that follows a search with no point. Each round's KKT certificate takes a
    product too. A product left uncounted, or counted twice, changes a figure
    (measured with numpy 2.4.6 and OpenBLAS on x86-64).
    """

    PINNED = pytest.mark.parametrize("problem, products", [
        (lambda: random_problem(3), 11),
        (lambda: random_problem(39), 18),
        (lambda: low_rank_box_problem(8), 33),
    ], ids=["sum-3", "sum-39", "box-8"])

    @PINNED
    def test_hessian_products(self, problem, products):
        assert solve_qp(problem()).iterations == products

    @pytest.mark.parametrize("problem", [
        lambda: random_problem(3),
        lambda: pi_shaped(5, 30, 3.0, 1.0, 1.0)[0],
        lambda: hinge_dual_problem(631),
    ], ids=["dense", "pi", "hinge-dual"])
    def test_every_product_counted(self, problem):
        # A spy on the operator sees exactly the products the solution reports,
        # on a cold solve and on one warm-started at a random feasible point:
        # the certificates' and the start's objective come through the counter.
        qp = problem()

        class Spy:
            calls = 0

            def matvec(self, v):
                self.calls += 1
                return qp.hess.matvec(v)

            def __getattr__(self, name):  # the operator's rounding bound, if any
                return getattr(qp.hess, name)

        spy = Spy()
        spied = BoxEqQP(spy, qp.lin, qp.lower, qp.upper, qp.eq_target)
        z = np.random.default_rng(0).uniform(qp.lower, qp.upper)
        for start in (None, project_feasible(z, qp.lower, qp.upper, qp.eq_target)):
            spy.calls = 0
            assert solve_qp(spied, start).iterations == spy.calls > 0

    @PINNED
    def test_no_point_certified_twice(self, problem, products, monkeypatch):
        # The solve reuses GPCG's last certificate, whose point it returns.
        certificate, points = wdmatch.qp._certificate, []

        def spy(problem, matvec, x, at_lo, at_up):
            points.append(x)
            return certificate(problem, matvec, x, at_lo, at_up)

        monkeypatch.setattr(wdmatch.qp, "_certificate", spy)
        sol = solve_qp(problem())
        np.testing.assert_array_equal(points[-1], sol.x)
        assert not any(np.array_equal(a, b) for a, b in zip(points, points[1:]))

    def test_certificate_at_the_product_cap(self, monkeypatch):
        # No certificate can pass GPCG's stop test now, so on this QP it runs
        # to its cap; the solve is still judged at the point it returns.
        problem = random_problem(4, n=12, ridge=1e-3)
        for name, value in (("_STAT_TOL", 1e-300), ("_MULT_TOL", -1.0), ("_HX_ROUNDING", 0.0)):
            monkeypatch.setattr(wdmatch.qp, name, value)
        sol = solve_qp(problem)
        assert sol.iterations >= 50 * problem.n
        at_lo, at_up = sol.x <= problem.lower, sol.x >= problem.upper
        free_gap, wrong_sign, *_ = wdmatch.qp._certificate(
            problem, problem.hess.matvec, sol.x, at_lo, at_up)
        assert sol.kkt_residual == max(free_gap, wrong_sign, abs(sol.x.sum() - problem.eq_target))
        assert sol.objective == problem.objective(sol.x)


class TestProblemValidation:
    def test_array_hessian_rejected(self):
        with pytest.raises(ValidationError, match="matvec"):
            BoxEqQP(np.eye(2), [0.0, 0.0], [0.0, 0.0], [1.0, 1.0], 1.0)

    def test_crossed_bounds_rejected(self):
        with pytest.raises(ValidationError):
            BoxEqQP(EYE2, [0.0, 0.0], [1.0, 0.0], [0.0, 1.0], 1.0)

    def test_unreachable_sum_rejected(self):
        with pytest.raises(InfeasibleProblemError):
            BoxEqQP(EYE2, [0.0, 0.0], [0.0, 0.0], [1.0, 1.0], 3.0)

    def test_infeasible_start_rejected(self):
        problem = BoxEqQP(EYE2, [0.0, 0.0], [0.0, 0.0], [2.0, 2.0], 2.0)
        with pytest.raises(ValidationError):
            solve_qp(problem, start=np.array([2.0, 2.0]))

    @pytest.mark.parametrize("lower, upper", [([0.0], [1.0, 1.0]), ([0.0, 0.0], [1.0])],
                             ids=["lower", "upper"])
    def test_bound_sizes_must_match(self, lower, upper):
        with pytest.raises(ValidationError,
                           match="^bound vectors must match the problem size$"):
            BoxEqQP(EYE2, [0.0, 0.0], lower, upper, None)

    def test_start_of_wrong_length_rejected(self):
        problem = BoxEqQP(EYE2, [0.0, 0.0], [0.0, 0.0], [2.0, 2.0], 2.0)
        with pytest.raises(ValidationError, match="^start point has the wrong length$"):
            solve_qp(problem, start=np.ones(3))

    def test_nan_residual_is_not_certified(self):
        # A NaN in the linear term makes a gradient entry, and so the KKT
        # residual, NaN; the comparison with the limit must not pass it.
        with pytest.raises(ConvergenceError, match="KKT residual nan$"):
            solve_qp(BoxEqQP(MatrixOperator(np.eye(3)), [np.nan, -1.0, 0.5],
                              np.zeros(3), np.ones(3), None))


class TestKnownSolutions:
    def test_minimum_norm_point(self):
        problem = BoxEqQP(EYE2, np.zeros(2), [0.0, 0.0], [2.0, 2.0], 2.0)
        sol = solve_qp(problem)
        np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-10)
        assert sol.objective == pytest.approx(1.0, abs=1e-10)

    def test_linear_tilt(self):
        # Substituting x2 = 2 - x1 gives x1^2 - 3 x1 + 2, minimized at x1 = 1.5.
        problem = BoxEqQP(EYE2, [-1.0, 0.0], [0.0, 0.0], [2.0, 2.0], 2.0)
        sol = solve_qp(problem)
        np.testing.assert_allclose(sol.x, [1.5, 0.5], atol=1e-9)
        oracle = projected_gradient_oracle(problem, steps=4000)
        np.testing.assert_allclose(sol.x, oracle, atol=1e-6)

    def test_degenerate_box_pins_solution(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((2, 2))
        problem = BoxEqQP(
            MatrixOperator(a.T @ a), rng.standard_normal(2), [1.0, 1.0], [1.0, 1.0], 2.0
        )
        np.testing.assert_array_equal(solve_qp(problem).x, [1.0, 1.0])

    def test_lp_mass_concentrates_greedily(self):
        # With no quadratic part the optimum stacks delta-capped mass on the
        # cheapest coordinates, exactly like the greedy fill.
        rng = np.random.default_rng(17)
        n, delta = 7, 2.5
        lin = rng.random(n)
        problem = BoxEqQP(
            MatrixOperator(np.zeros((n, n))), lin, np.zeros(n), np.full(n, delta), float(n)
        )
        sol = solve_qp(problem)
        greedy = np.zeros(n)
        mass = float(n)
        for i in np.argsort(lin):
            greedy[i] = min(delta, mass)
            mass -= greedy[i]
            if mass <= 0.0:
                break
        np.testing.assert_allclose(sol.x, greedy, atol=1e-9)

    def test_constant_objective_keeps_uniform_start(self):
        n = 5
        problem = BoxEqQP(
            MatrixOperator(np.zeros((n, n))), np.ones(n), np.zeros(n), np.full(n, 3.0),
            float(n),
        )
        sol = solve_qp(problem, start=np.ones(n))
        np.testing.assert_array_equal(sol.x, np.ones(n))


class TestOracleAgreement:
    def test_random_instances(self):
        worst_x, worst_obj = 0.0, 0.0
        for seed in range(100):
            problem = random_problem(seed)
            sol = solve_qp(problem)
            oracle = projected_gradient_oracle(problem, steps=3000)
            worst_x = max(worst_x, float(np.linalg.norm(sol.x - oracle)))
            worst_obj = max(worst_obj, problem.objective(oracle) - sol.objective)
        assert worst_x <= 1e-5
        # The oracle can only sit above the optimum.
        assert worst_obj >= -1e-9

    def test_singular_hessian_objective_only(self):
        # Rank-1 Hessians leave the minimizer non-unique; compare objectives.
        for seed in range(20):
            rng = np.random.default_rng(300 + seed)
            n = 5
            v = rng.standard_normal(n)
            problem = BoxEqQP(
                MatrixOperator(np.outer(v, v)), rng.standard_normal(n), np.zeros(n),
                np.ones(n), float(rng.uniform(0.5, n - 0.5)),
            )
            sol = solve_qp(problem)
            oracle = projected_gradient_oracle(problem, steps=6000)
            assert sol.objective <= problem.objective(oracle) + 1e-8

    def test_zero_gradient_start_is_fixed_point(self):
        # The oracle starts at [1, 1]; the gradient vanishes there.
        problem = BoxEqQP(EYE2, [-1.0, -1.0], [0.0, 0.0], [2.0, 2.0], 2.0)
        np.testing.assert_array_equal(
            projected_gradient_oracle(problem, steps=50), [1.0, 1.0]
        )


class TestSolutionCertificates:
    def test_kkt_and_feasibility(self):
        for seed in range(40):
            problem = random_problem(seed, n=8)
            sol = solve_qp(problem)
            assert sol.kkt_residual <= 1e-6
            assert np.all(sol.x >= problem.lower - 1e-9)
            assert np.all(sol.x <= problem.upper + 1e-9)
            assert abs(sol.x.sum() - problem.eq_target) <= 1e-6 * problem.n

    def test_complementary_slackness(self):
        for seed in range(30):
            problem = random_problem(seed, n=6)
            sol = solve_qp(problem)
            grad = problem.hess.matvec(sol.x) + problem.lin
            interior = (sol.x > problem.lower + 1e-7) & (sol.x < problem.upper - 1e-7)
            if interior.sum() >= 2:
                lam = grad[interior].mean()
                assert np.max(np.abs(grad[interior] - lam)) <= 1e-6
                at_lower = sol.x <= problem.lower + 1e-9
                at_upper = sol.x >= problem.upper - 1e-9
                assert np.all(grad[at_lower] >= lam - 1e-6)
                assert np.all(grad[at_upper] <= lam + 1e-6)

    def test_beats_random_feasible_points(self):
        rng = np.random.default_rng(7)
        problem = random_problem(123, n=6)
        sol = solve_qp(problem)
        for _ in range(1000):
            z = rng.uniform(problem.lower, problem.upper)
            point = project_feasible(z, problem.lower, problem.upper, problem.eq_target)
            assert sol.objective <= problem.objective(point) + 1e-9

    def test_warm_start_never_worse_and_logged(self):
        problem = random_problem(55, n=8)
        cold = solve_qp(problem)
        warm = solve_qp(problem, start=cold.x)
        assert warm.objective <= cold.objective + 1e-9
        # Soft performance property: report, never assert.
        if warm.iterations > 2 * cold.iterations:
            logging.getLogger(__name__).warning(
                "warm start used %d iterations vs %d cold",
                warm.iterations, cold.iterations,
            )

    def test_point_above_the_warm_start_refused(self, monkeypatch):
        # A certificate within its 1e-6 limit can still sit above the start:
        # min 1e-7 x over [0, 1], started at x = 0, of objective 0, and
        # certified at x = 1.
        problem = BoxEqQP(MatrixOperator(np.zeros((1, 1))), [1e-7], [0.0], [1.0], None)
        top = np.ones(1)
        certified = wdmatch.qp._certificate(
            problem, problem.hess.matvec, top, top <= 0.0, top >= 1.0)
        monkeypatch.setattr(wdmatch.qp, "_gpcg", lambda problem, x: (top, 2, certified, 0.0))
        with pytest.raises(ConvergenceError,
                           match="^solver ended above the warm-start objective$"):
            solve_qp(problem, start=[0.0])

    def test_sum_at_its_lower_limit_returns_lower(self):
        # Every coordinate sits at its lower bound, none at its upper: the
        # multiplier is the lowest gradient, which certifies the vertex.
        problem = random_problem(11, n=6)
        problem = BoxEqQP(problem.hess, problem.lin, problem.lower, problem.upper,
                          float(problem.lower.sum()))
        sol = solve_qp(problem)
        np.testing.assert_array_equal(sol.x, problem.lower)
        assert sol.kkt_residual == 0.0

    def test_start_a_hair_outside_the_box_is_projected(self):
        problem = random_problem(1, n=8)
        cold = solve_qp(problem)
        start = cold.x.copy()
        at_lower = int(np.flatnonzero(cold.x == problem.lower)[0])
        inside = int(np.flatnonzero((cold.x > problem.lower) & (cold.x < problem.upper))[0])
        start[at_lower] -= 1e-9
        start[inside] += 1e-9
        assert abs(start.sum() - problem.eq_target) <= 1e-15 * problem.n
        sol = solve_qp(problem, start=start)
        assert np.all(sol.x >= problem.lower) and np.all(sol.x <= problem.upper)
        assert abs(sol.x.sum() - problem.eq_target) <= 1e-12
        np.testing.assert_allclose(sol.x, cold.x, rtol=0.0, atol=1e-10)


class TestProjection:
    def test_matches_bruteforce_shift(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            lower = rng.uniform(-2.0, 0.0, n)
            upper = lower + rng.uniform(0.2, 2.0, n)
            target = float(rng.uniform(lower.sum(), upper.sum()))
            z = rng.uniform(-3.0, 3.0, n)
            x = project_feasible(z, lower, upper, target)
            assert abs(x.sum() - target) <= 1e-9
            assert np.all(x >= lower - 1e-12) and np.all(x <= upper + 1e-12)
            # Exhaustive check on the shift: no nu does strictly better.
            nus = np.linspace(np.min(z - upper) - 1.0, np.max(z - lower) + 1.0, 4001)
            cands = np.clip(z[None, :] - nus[:, None], lower, upper)
            feas = np.abs(cands.sum(axis=1) - target) <= 1e-3
            if feas.any():
                best = np.min(np.linalg.norm(cands[feas] - z, axis=1))
                assert np.linalg.norm(x - z) <= best + 1e-3

    def test_breakpoints_that_round_together(self):
        # At z = 1e17 both breakpoints z - 3 and z - 0 round to 1e17, so the
        # clipped sum has no segment that reaches the target: the shift lands
        # on the breakpoint, and the sum is off by no more than z's rounding.
        z = np.array([1e17])
        x = project_feasible(z, np.zeros(1), np.full(1, 3.0), 1.5)
        assert 0.0 <= x[0] <= 3.0
        assert abs(x.sum() - 1.5) <= np.spacing(z[0])

def old_projection(z, lower, upper, eq_target):
    """The (2n x n) clipped-sum formula the breakpoint search replaced."""
    clipped = np.clip(z, lower, upper)
    if clipped.sum() == eq_target:
        return clipped
    points = np.sort(np.concatenate([z - upper, z - lower]))
    sums = np.clip(z[None, :] - points[:, None], lower, upper).sum(axis=1)
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


class TestBreakpointProjection:
    def test_matches_clipped_sum_formula(self):
        rng = np.random.default_rng(8)
        worst = 0.0
        for case in range(2000):
            n = int(rng.integers(1, 40))
            lower = rng.uniform(-2.0, 0.0, n)
            upper = lower + rng.uniform(0.0, 2.0, n)
            z = rng.uniform(-3.0, 3.0, n)
            kind = case % 4
            if kind == 1:  # tied breakpoints: everything on a half-integer grid
                lower = np.round(2.0 * lower) / 2.0
                upper = lower + np.round(2.0 * rng.uniform(0.0, 2.0, n)) / 2.0
                z = np.round(2.0 * z) / 2.0
            elif kind == 2:  # some boxes collapse to a point
                upper = np.where(rng.random(n) < 0.5, lower, upper)
            target = float(rng.uniform(lower.sum(), upper.sum()))
            if kind == 3:
                target = float(lower.sum() if case % 8 == 3 else upper.sum())
            expected = old_projection(z, lower, upper, target)
            got = project_feasible(z, lower, upper, target)
            worst = max(worst, float(np.max(np.abs(got - expected))))
        assert worst <= 1e-15


def pi_shaped(seed, n, delta, c2, c3, k=5, m=6, r=3):
    """An instance-weight QP on a random graph, as an operator and as dense H.

    Returns (operator problem, dense problem). The dense Hessian
    2 c2 (I - W)'(I - W) + U U' is built here only, as the reference, and
    given to the solver as a :class:`MatrixOperator`.
    """
    rng = np.random.default_rng(seed)
    k = min(k, n - 1)
    neighbors = np.array(
        [rng.choice(np.delete(np.arange(n), i), k, replace=False) for i in range(n)]
    )
    graph = NeighborhoodGraph(neighbors, rng.dirichlet(np.ones(k), n))
    features = rng.standard_normal((n, m))
    theta = np.linalg.qr(rng.standard_normal((m, r)))[0].T
    projected = features @ theta.T
    lin = rng.uniform(0.0, 2.0, n) - (c3 / n) * projected @ rng.standard_normal(r)
    basis = np.sqrt(c3) / n * projected
    residual = np.eye(n)
    np.subtract.at(
        residual, (np.repeat(np.arange(n), k), neighbors.ravel()), graph.weights.ravel()
    )
    dense = 2.0 * c2 * residual.T @ residual + basis @ basis.T
    bounds = (np.zeros(n), np.full(n, delta), float(n))
    return (
        BoxEqQP(InstanceWeightHessian(graph, c2, basis), lin, *bounds),
        BoxEqQP(MatrixOperator(dense), lin, *bounds),
    )


def certificate_holds(problem, x):
    """Free projected gradient within 1e-11 and multipliers within 1e-10 of scale."""
    grad = problem.hess.matvec(x) + problem.lin
    scale = max(1.0, float(np.max(np.abs(grad))))
    at_lo, at_up = x <= problem.lower, x >= problem.upper
    free = ~(at_lo | at_up)
    if free.any():
        lam = grad[free].mean()
    else:  # any multiplier between the two bound groups certifies a vertex
        lam = grad[at_up].max() if at_up.any() else grad[at_lo].min()
    ok = np.max(np.abs(grad[free] - lam), initial=0.0) <= 1e-11 * scale
    ok &= np.all(grad[at_lo & ~at_up] - lam >= -1e-10 * scale)
    return bool(ok & np.all(grad[at_up & ~at_lo] - lam <= 1e-10 * scale))


def frank_wolfe_gap(problem, x):
    """g'x - min over feasible y of g'y, g the gradient at x: bounds f(x) - f*.

    The minimizing y is the greedy fill of the box-plus-sum set: the cheapest
    coordinates first, each up to its upper bound (lower bounds are zero).
    """
    grad = problem.hess.matvec(x) + problem.lin
    fill = np.zeros(problem.n)
    mass = problem.eq_target
    for i in np.argsort(grad):
        fill[i] = min(problem.upper[i], mass)
        mass -= fill[i]
    return float(grad @ (x - fill))


# Difference Gram matrices met while reconstructing points, on which GPCG
# stalled at a vertex: the first when it released bounds by the median
# gradient with no coordinate free, the second when a coordinate 2.2e-16 above
# its bound counted as free.
VERTEX_GRAM = np.array([
    [0.06490954457785589, 0.06895866468407942, 0.06206655124891919,
     0.07542903061113271, 0.09952128895870327],
    [0.06895866468407942, 0.11792323760977654, 0.02452840638522255,
     0.04522776595070178, 0.05744058209546572],
    [0.06206655124891919, 0.02452840638522255, 0.12167394315492029,
     0.08559855005550591, 0.12085311065278202],
    [0.07542903061113271, 0.04522776595070178, 0.08559855005550591,
     0.21629432081391706, 0.20079969998726818],
    [0.09952128895870327, 0.05744058209546572, 0.12085311065278202,
     0.20079969998726818, 0.23214941972445113],
])
NEAR_BOUND_GRAM = np.array([
    [0.05152203016911503, 0.052677627549904564, 0.06568972029933556,
     0.09350598825584874],
    [0.052677627549904564, 0.1940801699505332, 0.002668769349222271,
     -0.033729903446889205],
    [0.06568972029933556, 0.002668769349222271, 0.263866460519527,
     0.16068021626516452],
    [0.09350598825584874, -0.033729903446889205, 0.16068021626516452,
     0.29115177667336584],
])


class TestGPCG:
    """GPCG on operator Hessians, certified without a second solver."""

    def test_frank_wolfe_gap_on_pi_shaped_instances(self):
        rng = np.random.default_rng(9)
        worst_gap = 0.0
        for seed in range(50):
            n = int(np.exp(rng.uniform(np.log(5), np.log(400))))
            if seed < 3:
                n = 400
            delta = (1.0, 1.5, 3.0, 50.0)[seed % 4]
            c3 = (0.0, 1.0, 100.0)[seed % 3]
            c2 = float(rng.uniform(0.2, 3.0))
            operator, dense = pi_shaped(seed, n, delta, c2, c3)
            sol = solve_qp(operator)
            assert sol.objective == operator.objective(sol.x), seed
            scale = max(1.0, abs(sol.objective))
            worst_gap = max(worst_gap, frank_wolfe_gap(dense, sol.x) / scale)
            assert certificate_holds(dense, sol.x), seed
            assert abs(sol.x.sum() - n) <= 1e-9 * n
            assert np.all(sol.x >= 0.0) and np.all(sol.x <= delta)
            # Warm starts, from the solution and from a random feasible point.
            warm = solve_qp(operator, start=sol.x)
            assert warm.objective <= sol.objective + 1e-12 * scale
            start = project_feasible(
                rng.uniform(0.0, delta, n), operator.lower, operator.upper, float(n)
            )
            restarted = solve_qp(operator, start=start)
            assert restarted.objective <= operator.objective(start)
        assert worst_gap <= 1e-9

    def test_zero_curvature_faces(self):
        # c2 = c3 = 0 leaves a linear program, solved by the greedy fill; with
        # c2 = 0 alone, every face wider than r + 1 has flat directions, and
        # the KKT certificate is the check.
        for seed in range(10):
            operator, dense = pi_shaped(100 + seed, 60, 2.5, 0.0, float(seed % 2))
            sol = solve_qp(operator, start=np.ones(60))
            if seed % 2:
                assert certificate_holds(dense, sol.x), seed
                continue
            greedy = np.zeros(60)
            mass = 60.0
            for i in np.argsort(operator.lin):
                greedy[i] = min(2.5, mass)
                mass -= greedy[i]
            np.testing.assert_allclose(sol.x, greedy, atol=1e-9)

    @pytest.mark.parametrize(
        "gram", [VERTEX_GRAM, NEAR_BOUND_GRAM], ids=["no-free-vertex", "near-bound"]
    )
    def test_simplex_vertices(self, gram):
        k = gram.shape[0]
        problem = BoxEqQP(
            MatrixOperator(2.0 * gram), np.zeros(k), np.zeros(k), np.ones(k), 1.0
        )
        sol = solve_qp(problem)
        assert certificate_holds(problem, sol.x)
        assert frank_wolfe_gap(problem, sol.x) <= 1e-12
        assert sol.kkt_residual <= 1e-11

    def test_face_cg_declines_a_bound_step_that_ascends(self):
        # Handed a stale gradient of the wrong sign, CG heads uphill to a
        # bound; the true gradient refuses both the projected search and the
        # step to the bound, so x is returned as it was.
        problem = BoxEqQP(MatrixOperator(np.eye(2)), [-10.0, -10.0], np.zeros(2),
                          np.ones(2), None)
        x = np.array([0.5, 0.5])
        stale = -(x + problem.lin)
        moved, blocked = wdmatch.qp._face_cg(problem, problem.hess.matvec, x, stale,
                                             np.arange(2), 1e-12, False)
        np.testing.assert_array_equal(moved, x)
        assert not blocked


class ScaledOperator:
    """Products with ``factor`` times an operator's matrix."""

    def __init__(self, operator, factor):
        self.operator, self.factor = operator, factor

    def matvec(self, x):
        return self.factor * self.operator.matvec(x)


def hinge_gram(rows):
    """The hinge-dual operator K K' for rows K: H = I, so ``rows`` stay K."""
    return HingeDual.build(DomainDataset(rows, np.ones(len(rows))), 1.0)


class TestBoxQP:
    @pytest.mark.parametrize("seed", range(8))
    def test_box_kkt_on_low_rank_instances(self, seed):
        # Hessians K K' of rank m < n, as the hinge duals have, with some
        # coordinates pinned by a zero upper bound.
        rng = np.random.default_rng(600 + seed)
        n, m = int(rng.integers(2, 80)), int(rng.integers(1, 6))
        hess = hinge_gram(rng.standard_normal((n, m)))
        lin = rng.standard_normal(n)
        upper = np.where(rng.random(n) < 0.2, 0.0, rng.uniform(0.1, 3.0, n))
        start = rng.random(n) * upper
        for begin in (None, start):
            sol = solve_qp(BoxEqQP(hess, lin, np.zeros(n), upper, None), begin)
            x = sol.x
            assert x.shape == (n,) and np.all(x >= 0.0) and np.all(x <= upper)
            grad = hess.matvec(x) + lin
            tol = 1e-9 * max(1.0, float(np.max(np.abs(grad))))
            free = (x > 0.0) & (x < upper)
            assert np.all(np.abs(grad[free]) <= tol)
            assert np.all(grad[(x == 0.0) & (upper > 0.0)] >= -tol)
            assert np.all(grad[(x == upper) & (upper > 0.0)] <= tol)
            assert sol.objective == pytest.approx(
                0.5 * x @ hess.matvec(x) + lin @ x, rel=1e-12, abs=1e-12)
        assert sol.objective <= 0.5 * start @ hess.matvec(start) + lin @ start


    # Box-only instances with a planted minimizer, each solved cold and from
    # the warm starts the case names.

    def test_single_free_coordinate(self):
        hess, lin, upper, planted = planted_box_qp(610, 12, 3, free=[5])
        start = planted.copy()
        start[5] = 0.5 * (planted[5] + upper[5])
        for begin in (None, start, planted):
            check_box_solution(hess, lin, upper, planted, begin)

    def test_collapsed_boxes(self):
        # The phi dual's box is pi, zero-width where pi = 0; its warm start
        # is the last dual clipped to pi.
        rng = np.random.default_rng(620)
        pi = rng.permutation(np.r_[0.0, 0.0, 0.0, 3.0, 3.0, np.full(10, 0.75)])
        hess, lin, upper, planted = planted_box_qp(621, 15, 4, free=[2, 8], upper=pi)
        stale = rng.uniform(0.0, 3.0, 15)
        for begin in (None, np.minimum(stale, pi)):
            check_box_solution(hess, lin, upper, planted, begin)

    def test_warm_start_at_a_vertex(self):
        rng = np.random.default_rng(630)
        hess, lin, upper, planted = planted_box_qp(631, 40, 5, free=[2, 9, 30])
        for _ in range(3):
            vertex = np.where(rng.random(40) < 0.5, 0.0, upper)
            check_box_solution(hess, lin, upper, planted, vertex)

    def test_every_coordinate_free(self):
        # m > n: K K' has full rank and the planted point is the only minimizer.
        hess, lin, upper, planted = planted_box_qp(640, 10, 14, free=range(10))
        for begin in (None, 0.25 * upper, np.zeros(10)):
            x = check_box_solution(hess, lin, upper, planted, begin)
            np.testing.assert_allclose(x, planted, rtol=0.0, atol=1e-8)

    def test_empty_box(self):
        # A target with no labeled rows gives its hinge dual no coordinates.
        primal, sol = hinge_gram(np.zeros((0, 2))).solve(np.zeros(2), np.zeros(0), None)
        assert sol.x.shape == (0,) and sol.objective == 0.0
        np.testing.assert_array_equal(primal, np.zeros(2))


def planted_box_qp(seed, n, m, free, upper=None):
    """A box QP with Hessian K K' of rank min(n, m) and a planted minimizer.

    The coordinates in ``free`` lie strictly inside the box; the others sit
    at a bound, where the gradient is a multiplier of the right sign (any
    sign on a zero-width box). ``upper`` is drawn when None. Returns
    (hess, lin, upper, planted point).
    """
    rng = np.random.default_rng(seed)
    hess = hinge_gram(rng.standard_normal((n, m)))
    if upper is None:
        upper = rng.uniform(0.5, 2.0, n)
    free = list(free)
    planted = np.where(rng.random(n) < 0.5, 0.0, upper)
    planted[free] = rng.uniform(0.1, 0.9, len(free)) * upper[free]
    mult = rng.uniform(0.1, 1.0, n) * np.where(planted == 0.0, 1.0, -1.0)
    mult[upper == 0.0] *= rng.choice([-1.0, 1.0], int(np.sum(upper == 0.0)))
    mult[free] = 0.0
    return hess, mult - hess.matvec(planted), upper, planted


def check_box_solution(hess, lin, upper, planted, start):
    """Box KKT certificate at 1e-9 of the gradient scale, a point in the box,
    the planted minimum and no rise above the warm start; returns x."""
    def value(x):
        return 0.5 * x @ hess.matvec(x) + lin @ x

    problem = BoxEqQP(hess, lin, np.zeros(upper.size), upper, None)
    sol = solve_qp(problem, start)
    x = sol.x
    assert np.all(x >= 0.0) and np.all(x <= upper)
    grad = hess.matvec(x) + lin
    tol = 1e-9 * max(1.0, float(np.max(np.abs(grad))))
    movable = upper > 0.0
    assert np.all(np.abs(grad[(x > 0.0) & (x < upper)]) <= tol)
    assert np.all(grad[(x == 0.0) & movable] >= -tol)
    assert np.all(grad[(x == upper) & movable] <= tol)
    assert sol.objective == pytest.approx(value(planted), rel=1e-10, abs=1e-10)
    assert sol.objective == problem.objective(x)
    if start is not None:
        assert sol.objective <= value(start)
    return x


class TestRelativeKKTLimit:
    """A QP's certificate does not depend on the scale of H and f."""

    @pytest.mark.parametrize("form", ["dense", "operator"])
    @pytest.mark.parametrize("factor", [1e4, 1e6, 1e8])
    def test_scaled_pi_instances(self, factor, form):
        rng = np.random.default_rng(5)
        for seed in range(30):
            n = int(np.exp(rng.uniform(np.log(5), np.log(200))))
            delta = (1.0, 1.5, 3.0, 50.0)[seed % 4]
            c3 = (0.0, 1.0, 100.0)[seed % 3]
            c2 = float(rng.uniform(0.2, 3.0))
            operator, dense = pi_shaped(200 + seed, n, delta, c2, c3)
            unscaled = solve_qp(operator).x
            bounds = (operator.lower, operator.upper, operator.eq_target)
            scaled_dense = BoxEqQP(
                MatrixOperator(factor * dense.hess.matrix), factor * dense.lin, *bounds
            )
            if form == "dense":
                problem = scaled_dense
            else:
                problem = BoxEqQP(
                    ScaledOperator(operator.hess, factor), factor * operator.lin, *bounds
                )
            sol = solve_qp(problem)
            assert certificate_holds(scaled_dense, sol.x), seed
            np.testing.assert_allclose(sol.x, unscaled, atol=1e-10)
