"""Which functions the traced run wraps, and the per-layer metrics they give.

Each entry of ``WRAPS`` names a function under the module attribute its caller
reads, with the span name it is recorded as. Times and counts are per traced
CLI command, so they do not depend on how many rounds a run fits in.
"""

from __future__ import annotations

import statistics

WRAPS = (
    ("wdmatch.cli.main", "cli.main"),
    ("wdmatch.cli.load_experiment_config", "evaluate.load_config"),
    ("wdmatch.cli.resolve_datasets", "evaluate.resolve_datasets"),
    ("wdmatch.evaluate.resolve_datasets", "evaluate.resolve_datasets"),
    ("wdmatch.cli.run_cv", "evaluate.run_cv"),
    ("wdmatch.cli.write_report", "evaluate.write_report"),
    ("wdmatch.evaluate.baseline_source_only", "evaluate.baseline"),
    ("wdmatch.evaluate.baseline_target_only", "evaluate.baseline"),
    ("wdmatch.evaluate.load_dataset", "data.load_dataset"),
    ("wdmatch.cli.fit", "optimizer.fit"),
    ("wdmatch.evaluate.fit", "optimizer.fit"),
    ("wdmatch.optimizer.build_graph", "neighborhood.build_graph"),
    ("wdmatch.neighborhood.build_knn", "neighborhood.build_knn"),
    ("wdmatch.neighborhood.solve_reconstruction", "neighborhood.solve_reconstruction"),
    ("wdmatch.neighborhood.solve_qp", "qp.recon_solve"),
    ("wdmatch.optimizer.update_phi_psi", "optimizer.update_phi_psi"),
    ("wdmatch.optimizer.q_value", "optimizer.q_value"),
    ("wdmatch.optimizer.subgradients", "optimizer.subgradients"),
    ("wdmatch.optimizer.solve_w", "optimizer.solve_w"),
    ("wdmatch.optimizer.solve_theta", "optimizer.solve_theta"),
    ("wdmatch.optimizer.min_trace_rows", "optimizer.min_trace_rows"),
    ("wdmatch.optimizer.solve_pi", "optimizer.solve_pi"),
    ("wdmatch.optimizer.solve_qp", "qp.pi_solve"),
    ("wdmatch.optimizer.objective", "model.objective"),
)
EVALUATE_SPANS = ("evaluate.load_config", "evaluate.resolve_datasets",
                  "evaluate.run_cv", "evaluate.write_report", "evaluate.baseline")


class Counts:
    """Figures read from the return values of traced calls."""

    def __init__(self):
        self.outer_iters = 0
        self.final_objectives = []
        self.pi_iterations = 0
        self.pi_kkt_max = 0.0
        self.recon_iterations = 0

    def fit(self, state):
        self.outer_iters += state.iteration
        self.final_objectives.append(state.objective_trace[-1])

    def pi_solve(self, solution):
        self.pi_iterations += solution.iterations
        self.pi_kkt_max = max(self.pi_kkt_max, solution.kkt_residual)

    def recon_solve(self, solution):
        self.recon_iterations += solution.iterations


def install(tracer, counts: Counts) -> None:
    """Wrap every function in WRAPS and read counts from three of them."""
    for target, name in WRAPS:
        tracer.wrap(target, name)
    tracer.observe("optimizer.fit", counts.fit)
    tracer.observe("qp.pi_solve", counts.pi_solve)
    tracer.observe("qp.recon_solve", counts.recon_solve)


def metrics(tracer, counts: Counts, runner) -> dict:
    """Per-layer metrics of the traced commands, plus the tracing overhead."""
    totals = tracer.totals()
    commands = max(1, sum(1 for traced, _ in runner.times if traced))

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    traced = [t for flag, t in runner.times if flag]
    plain = [t for flag, t in runner.times if not flag]
    steps = calls("optimizer.subgradients")
    seconds = {
        "optimizer.pi_build_s": own("optimizer.solve_pi") / commands,
        "optimizer.theta_s": total("optimizer.solve_theta") / commands,
        "optimizer.min_trace_rows_s": total("optimizer.min_trace_rows") / commands,
        "optimizer.phi_psi_s": total("optimizer.update_phi_psi") / commands,
        "optimizer.w_s": total("optimizer.solve_w") / commands,
        "optimizer.iter_s": total("optimizer.fit") / max(1, counts.outer_iters),
        "optimizer.self_s": own("optimizer.fit") / commands,
        "qp.pi_solve_s": total("qp.pi_solve") / commands,
        "qp.recon_solve_s": total("qp.recon_solve") / commands,
        "neighborhood.build_graph_s": total("neighborhood.build_graph") / commands,
        "neighborhood.knn_s": total("neighborhood.build_knn") / commands,
        "neighborhood.reconstruction_s":
            total("neighborhood.solve_reconstruction") / commands,
        "model.objective_s": total("model.objective") / commands,
        "data.load_s": total("data.load_dataset") / commands,
        "evaluate.self_s": sum(own(name) for name in EVALUATE_SPANS) / commands,
        "cli.self_s": own("cli.main") / commands,
        "trace.overhead_s": (statistics.mean(traced) - statistics.mean(plain)
                             if traced and plain else 0.0),
    }
    per_command = {
        "optimizer.fit_calls": calls("optimizer.fit"),
        "optimizer.outer_iters": counts.outer_iters,
        "optimizer.q_value_calls": calls("optimizer.q_value"),
        "optimizer.subgradient_calls": steps,
        "qp.pi_solve_calls": calls("qp.pi_solve"),
        "qp.pi_iterations": counts.pi_iterations,
        "qp.recon_iterations": counts.recon_iterations,
        "neighborhood.build_graph_calls": calls("neighborhood.build_graph"),
        "neighborhood.reconstruction_calls": calls("neighborhood.solve_reconstruction"),
        "model.objective_calls": calls("model.objective"),
        "data.load_calls": calls("data.load_dataset"),
        "evaluate.baseline_calls": calls("evaluate.baseline"),
    }
    out = {name: {"value": value, "unit": "s"} for name, value in seconds.items()}
    out.update({name: {"value": value / commands, "unit": "count"}
                for name, value in per_command.items()})
    out["optimizer.q_value_per_step"] = {
        "value": calls("optimizer.q_value") / max(1, steps), "unit": "calls/step"}
    out["optimizer.final_objective"] = {
        "value": statistics.median(counts.final_objectives)
        if counts.final_objectives else 0.0, "unit": "1"}
    out["qp.pi_kkt_residual_max"] = {"value": counts.pi_kkt_max, "unit": "1"}
    out["trace.missing_wrappers"] = {"value": len(tracer.missing), "unit": "count"}
    return out
