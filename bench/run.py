"""wdmatch benchmark: drives `wdmatch fit` and `wdmatch cv` in-process.

    python3 bench/run.py --workload fit-large-n --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory. Set-up writes the workload's input files; the run then
repeats whole rounds of the workload's commands through `wdmatch.cli.main`
while the next round is expected to end within ``--seconds``, checks every
command's output, and prints one JSON object as the last line of stdout.
``--trace 0`` gives the end-to-end metrics; ``--trace 1`` runs the first
round untraced and the rest with spans around each module's public
functions, and gives the per-layer metrics. Files go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package() -> None:
    """Import wdmatch from this checkout's src/, never from anywhere else."""
    if not (SRC / "wdmatch" / "__init__.py").is_file():
        raise SystemExit(f"bench: no wdmatch package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import wdmatch

    if Path(wdmatch.__file__).resolve().parent != (SRC / "wdmatch").resolve():
        raise SystemExit(f"bench: imported wdmatch from {wdmatch.__file__}")


def interpreter_start_s() -> float:
    """Wall time to start a fresh Python and import wdmatch, as a CLI user does."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import wdmatch.cli"], check=True,
                   env={**os.environ, "PYTHONPATH": str(SRC)})
    return time.perf_counter() - start


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, read through ctypes."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def environment(args, workload) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "inputs": {"command": workload.command, "n": workload.n, "m": workload.m,
                   "format": workload.fmt, "draws": list(workload.draws),
                   "hyperparams": workload.hp, "folds": workload.folds},
    }


class Runner:
    """Runs commands, keeps their wall times and checks their outputs."""

    def __init__(self, workload, cli, optimizer, checks, methods):
        self.workload = workload
        self.cli = cli
        self.checks = checks
        self.methods = methods
        self.attempted = 0
        self.failed = 0
        self.check_failures = []
        self.times = []  # (traced, seconds) per command that passed its checks
        self.figures = []  # per checked fit: final objective, relative pi KKT residual
        self.check_seconds = 0.0
        self.graphs = []
        build_graph = optimizer.build_graph

        def keep_graph(*args, **kwargs):  # the checks need the graphs fit used
            graph = build_graph(*args, **kwargs)
            self.graphs.append((graph.neighbors, graph.weights))
            return graph

        optimizer.build_graph = keep_graph

    def run(self, instance, traced: bool) -> None:
        self.attempted += 1
        self.graphs.clear()
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(instance.argv(self.workload.command))
        except Exception:  # a crash is a failed command, not a benchmark error
            code = "exception"
            sink.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        if code != 0:
            self.failed += 1
            print(f"bench: command exited {code}: {sink.getvalue()[-2000:]}",
                  file=sys.stderr)
            return
        started = time.perf_counter()
        try:
            self.check(instance)
        except self.checks.CheckFailed as exc:
            self.failed += 1
            self.check_failures.append(str(exc))
            print(f"bench: output check failed: {exc}", file=sys.stderr)
            return
        finally:
            self.check_seconds += time.perf_counter() - started
        self.times.append((traced, seconds))

    def check(self, instance) -> None:
        payload = json.loads(instance.out.read_text(encoding="utf-8"))
        if self.workload.command == "fit":
            if len(self.graphs) != 2:
                raise self.checks.CheckFailed(f"fit built {len(self.graphs)} graphs, not 2")
            self.figures.append(
                self.checks.check_fit(payload, self.graphs, instance.data, instance.hp))
        else:
            self.checks.check_cv(payload, instance.data[3], self.workload.folds,
                                 self.methods)


def measure(runner, instances, seconds: float, tracer=None, install=None) -> None:
    """Repeat whole rounds while the next one is expected to end in time.

    With a tracer, the first round runs untraced and the tracer is installed
    for the rest; at least one round of each kind runs.
    """
    start = time.perf_counter()
    rounds = 0
    while True:
        traced = tracer is not None and rounds > 0
        if traced and rounds == 1:
            install(tracer)
        for instance in instances:
            if traced:
                tracer.run += 1
            runner.run(instance, traced)
        rounds += 1
        elapsed = time.perf_counter() - start
        if tracer is not None and rounds < 2:
            continue
        if elapsed + elapsed / rounds > seconds:
            break
    if tracer is not None:
        tracer.restore()


def end_to_end(runner, setup_s: float) -> dict:
    command_times = [t for _, t in runner.times]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "command_s": {"value": statistics.median(command_times), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()

    import checks
    import layers
    import tracing
    import wdmatch.cli
    import wdmatch.optimizer
    from workloads import CV_METHODS, WORKLOADS, write_inputs

    if args.workload not in WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    run_id = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = OUT_DIR / f"{run_id}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        start_times, write_times = [], []
        for _ in range(SETUP_REPEATS):
            start_times.append(interpreter_start_s())
            t0 = time.perf_counter()
            instances = write_inputs(workload, args.seed, workdir)
            write_times.append(time.perf_counter() - t0)
        setup_s = statistics.median(start_times) + statistics.median(write_times)

        runner = Runner(workload, wdmatch.cli, wdmatch.optimizer, checks, CV_METHODS)
        tracer = tracing.Tracer() if args.trace else None
        counts = layers.Counts()
        measure(runner, instances, args.seconds, tracer,
                lambda t: layers.install(t, counts))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args, workload)
    if tracer is None:
        metrics = end_to_end(runner, setup_s) if runner.times else {}
    else:
        metrics = layers.metrics(tracer, counts, runner)
        tracer.write(OUT_DIR / f"spans-{run_id}.jsonl", {"run_id": run_id, **env})
    result = {
        "correct": not runner.check_failures and bool(runner.times),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    record = {"environment": env, "setup_s": {"start": start_times, "write": write_times},
              "command_seconds": runner.times, "check_seconds": runner.check_seconds,
              "fit_figures": runner.figures, "check_failures": runner.check_failures,
              "missing": tracer.missing if tracer else [], **result}
    (OUT_DIR / f"result-{run_id}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
