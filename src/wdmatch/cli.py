"""Command-line interface: fit, cv, synth and dump-graph subcommands.

Exit codes: 0 on success, 1 on validation or configuration problems and on an
output that cannot be written, 2 when a solver fails to converge.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .data import (
    DENSE_CSV, FORMATS, SPARSE_SVMLIGHT, SyntheticShiftSpec, dataset_text,
    generate_synthetic_pair, load_dataset, load_json, write_all,
)
from .errors import ConvergenceError, ValidationError
from .evaluate import load_experiment_config, resolve_datasets, run_cv, write_report
from .model import HyperParams
from .neighborhood import build_graph
from .optimizer import fit


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage errors with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="wdmatch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    # A config flag left out is absent from the parsed args (see _load_config).
    p_fit = sub.add_parser("fit", help="train on the full datasets of a config",
                           argument_default=argparse.SUPPRESS)
    p_fit.add_argument("--config", required=True, help="experiment config JSON")
    p_fit.add_argument("--out", required=True, dest="out_path",
                       help="where to write the model JSON")
    p_fit.add_argument("--standardize", action="store_true",
                       help="standardize features jointly over both domains")
    p_fit.add_argument("--trace", default=None, metavar="PATH", dest="trace_path",
                       help="write per-iteration objective terms as JSON lines")

    p_cv = sub.add_parser("cv", help="stratified cross-validation experiment",
                          argument_default=argparse.SUPPRESS)
    p_cv.add_argument("--config", required=True, help="experiment config JSON")
    p_cv.add_argument("--out", default=None, dest="out_path",
                      help="report path (JSON; TSV beside it)")
    p_cv.add_argument("--seed", type=int, help="override config seed")
    p_cv.add_argument("--parallel", type=int,
                      help="run folds in this many worker processes")
    p_cv.add_argument("--standardize", action="store_true",
                      help="standardize features jointly over both domains")
    p_cv.add_argument("--trace", action="store_true",
                      help="include per-iteration objective terms in the report")

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset pair")
    p_synth.add_argument("--spec", required=True, help="synthetic spec JSON")
    p_synth.add_argument("--out-prefix", required=True,
                         help="prefix for the source/target output files")
    p_synth.add_argument("--format", default=DENSE_CSV, choices=FORMATS)

    p_graph = sub.add_parser("dump-graph", help="write a neighborhood graph as JSON")
    p_graph.add_argument("--data", required=True, help="dataset file")
    p_graph.add_argument("--format", default=DENSE_CSV, choices=FORMATS)
    p_graph.add_argument("--n-features", type=int, default=None,
                         help="declared dimension for sparse input")
    p_graph.add_argument("--k", type=int, default=HyperParams.k)
    p_graph.add_argument("--out", required=True)
    return parser


def _load_config(args):
    """The experiment config with every config flag given applied to the field
    of its own name."""
    config = load_experiment_config(args.config)
    overrides = {f.name: getattr(args, f.name)
                 for f in dataclasses.fields(config) if hasattr(args, f.name)}
    return dataclasses.replace(config, **overrides)


def _cmd_fit(args) -> int:
    config = _load_config(args)
    source, target = resolve_datasets(config)
    state = fit(source, target, config.hp)
    out = Path(args.out_path)
    payload = {
        "model": state.model.to_json_dict(),
        "pi": [float(v) for v in state.weights.pi],
        "objective_trace": list(state.objective_trace),
        "iterations": state.iteration,
    }
    outputs = [(out, json.dumps(payload, indent=2) + "\n")]
    if args.trace_path:
        lines = [json.dumps(entry) for entry in state.term_trace]
        outputs.append((args.trace_path, "\n".join(lines) + "\n"))
    write_all(outputs)
    print(f"fit: {state.iteration} iterations, "
          f"objective {state.objective_trace[-1]:.6g} -> {out}")
    return 0


def _cmd_cv(args) -> int:
    config = _load_config(args)
    out = args.out_path or config.out
    if out is None:
        raise ValidationError("no output path: pass --out or set 'out' in the config")
    report = run_cv(config)
    write_report(report, out)
    means = {m: e["mean_accuracy"] for m, e in report["methods"].items()}
    print(f"cv: {means} -> {out}")
    return 0


def _cmd_synth(args) -> int:
    spec = load_json(args.spec, SyntheticShiftSpec)
    source, target = generate_synthetic_pair(spec)
    prefix = Path(args.out_prefix)
    in_dir = args.out_prefix.endswith(("/", "\\")) or prefix.is_dir()
    directory, stem = (prefix, "") if in_dir else (prefix.parent, prefix.name)
    suffix = ".svm" if args.format == SPARSE_SVMLIGHT else ".csv"
    paths = [directory / f"{stem}{role}{suffix}" for role in ("source", "target")]
    write_all((path, dataset_text(dataset, args.format))
              for path, dataset in zip(paths, (source, target)))
    print(f"synth: wrote {paths[0]} and {paths[1]}")
    return 0


def _cmd_dump_graph(args) -> int:
    dataset = load_dataset(args.data, args.format, n_features=args.n_features)
    graph = build_graph(dataset, args.k)
    write_all([(args.out, json.dumps(graph.to_json_dict(), indent=2) + "\n")])
    print(f"dump-graph: wrote {args.out}")
    return 0


_COMMANDS = {
    "fit": _cmd_fit,
    "cv": _cmd_cv,
    "synth": _cmd_synth,
    "dump-graph": _cmd_dump_graph,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return _COMMANDS[args.command](args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, np.linalg.LinAlgError) as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
