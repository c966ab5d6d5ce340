import json

import numpy as np
import pytest

import wdmatch.cli
from wdmatch.cli import main
from wdmatch.data import load_dataset
from wdmatch.errors import ConvergenceError
from wdmatch.model import TransferModel


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def synthetic_payload(**overrides):
    payload = {
        "synthetic": {
            "dim": 3, "n": 40, "separation": 6.0, "angle": 0.3,
            "translation": [0.5, 0.0, 0.0], "noise": 0.0, "seed": 3,
        },
        "hyperparams": {"outer_iters": 3, "subgrad_iters": 25, "k": 3, "r": 2},
        "folds": 4,
        "seed": 1,
        "baselines": ["source-only"],
    }
    payload.update(overrides)
    return payload


def run_cv_command(tmp_path, payload, *flags):
    """Run ``cv`` on the payload and return its report without the timing keys."""
    tmp_path.mkdir(exist_ok=True)
    config = write_config(tmp_path, payload)
    out = tmp_path / "report.json"
    assert main(["cv", "--config", str(config), "--out", str(out), *flags]) == 0
    report = json.loads(out.read_text())
    for entry in report["methods"].values():
        entry.pop("timing")
    return report


SVM = {"path": "data.svm", "format": "sparse-svmlight"}
FILE_ENTRIES = {"synthetic": None, "source": SVM, "target": SVM}
# A name, the config's bad part and the key its error message must start with.
MALFORMED = [
    ("standardize-string", {"standardize": "false"}, "standardize"),
    ("folds-float", {"folds": 2.9}, "folds"),
    ("seed-string", {"seed": "3"}, "seed"),
    ("k-string", {"hyperparams": {"k": "5"}}, "hyperparams.k"),
    ("r-float", {"hyperparams": {"r": 2.5}}, "hyperparams.r"),
    ("folds-word", {"folds": "five"}, "folds"),
    ("baselines-nested", {"baselines": [[1]]}, "baselines[0]"),
    ("synthetic-list", {"synthetic": [1, 2]}, "synthetic"),
    ("n_features-string", {**FILE_ENTRIES, "source": {**SVM, "n_features": "3"}},
     "source.n_features"),
    ("path-number", {**FILE_ENTRIES, "target": {**SVM, "path": 3}}, "target.path"),
]


NEGATIVE_SYNTHETIC = {**synthetic_payload()["synthetic"], "seed": -1}


@pytest.mark.parametrize("command, payload, flags", [
    ("synth", NEGATIVE_SYNTHETIC, []),
    ("fit", synthetic_payload(synthetic=NEGATIVE_SYNTHETIC), []),
    ("cv", synthetic_payload(synthetic=NEGATIVE_SYNTHETIC), []),
    ("cv", synthetic_payload(seed=-1), []),
    ("cv", synthetic_payload(), ["--seed", "-1"]),
], ids=["synth-spec", "fit-synthetic", "cv-synthetic", "cv-config", "cv-flag"])
def test_negative_seed_exit_1(tmp_path, capsys, command, payload, flags):
    path = str(write_config(tmp_path, payload))
    if command == "synth":
        argv = ["synth", "--spec", path, "--out-prefix", str(tmp_path) + "/"]
    else:
        argv = [command, "--config", path, "--out", str(tmp_path / "out.json"), *flags]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: seed must be nonnegative\n"
    assert not (tmp_path / "out.json").exists()


class TestCvCommand:
    def test_happy_path(self, tmp_path, capsys):
        config = write_config(tmp_path, synthetic_payload())
        out = tmp_path / "report.json"
        assert main(["cv", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert set(report["methods"]) == {"proposed", "source-only"}
        assert (tmp_path / "report.tsv").is_file()

    def test_missing_dataset_file_exit_1(self, tmp_path, capsys):
        payload = {
            "source": {"path": str(tmp_path / "absent.csv"), "format": "dense-csv"},
            "target": {"path": str(tmp_path / "absent2.csv"), "format": "dense-csv"},
        }
        config = write_config(tmp_path, payload)
        code = main(["cv", "--config", str(config), "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert "absent" in capsys.readouterr().err

    def test_unknown_flag_exit_1(self, tmp_path, capsys):
        code = main(["cv", "--config", "x.json", "--frobnicate"])
        assert code == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_byte_identical_reports_modulo_timing(self, tmp_path):
        config = write_config(tmp_path, synthetic_payload())
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["cv", "--config", str(config), "--out", str(out_a)]) == 0
        assert main(["cv", "--config", str(config), "--out", str(out_b)]) == 0

        def canonical(path):
            report = json.loads(path.read_text())
            for entry in report["methods"].values():
                entry.pop("timing")
            return json.dumps(report, sort_keys=True).encode()

        assert canonical(out_a) == canonical(out_b)
        assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()

    @pytest.mark.parametrize("flags, key, value", [
        (["--seed", "0"], "seed", 0),
        (["--parallel", "2"], "parallel", 2),
        (["--standardize"], "standardize", True),
        (["--trace"], "trace", True),
    ], ids=["seed", "parallel", "standardize", "trace"])
    def test_flag_sets_config_field(self, tmp_path, flags, key, value):
        flagged = run_cv_command(tmp_path / "flag", synthetic_payload(), *flags)
        keyed = run_cv_command(tmp_path / "key", synthetic_payload(**{key: value}))
        assert flagged["config"][key] == value != synthetic_payload().get(key)
        assert flagged == keyed

    def test_output_path_from_flag_or_config(self, tmp_path, capsys):
        config = write_config(tmp_path, synthetic_payload())
        assert main(["cv", "--config", str(config)]) == 1
        assert capsys.readouterr().err.startswith("error: no output path")
        out = tmp_path / "from-config.json"
        config = write_config(tmp_path, synthetic_payload(out=str(out)))
        assert main(["cv", "--config", str(config)]) == 0
        assert json.loads(out.read_text())["config"]["out"] == str(out)

    @pytest.mark.parametrize("bad, key", [m[1:] for m in MALFORMED],
                             ids=[m[0] for m in MALFORMED])
    def test_malformed_config_exit_1(self, tmp_path, capsys, bad, key):
        config = write_config(tmp_path, synthetic_payload(**bad))
        code = main(["cv", "--config", str(config), "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {key}:") and "Traceback" not in err


class TestFitCommand:
    def test_fit_and_trace(self, tmp_path):
        config = write_config(tmp_path, synthetic_payload())
        out = tmp_path / "model.json"
        trace = tmp_path / "trace.jsonl"
        code = main([
            "fit", "--config", str(config), "--out", str(out), "--trace", str(trace),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert {"model", "pi", "objective_trace", "iterations"} <= set(payload)
        values = [v["total"] for v in map(json.loads, trace.read_text().splitlines())]
        assert values == payload["objective_trace"]
        model = TransferModel.from_json_dict(payload["model"])
        assert model.to_json_dict() == payload["model"]

    def test_trace_into_new_directory(self, tmp_path):
        config = write_config(tmp_path, synthetic_payload())
        out, trace = tmp_path / "model.json", tmp_path / "nodir" / "trace.jsonl"
        code = main([
            "fit", "--config", str(config), "--out", str(out), "--trace", str(trace),
        ])
        assert code == 0
        values = [v["total"] for v in map(json.loads, trace.read_text().splitlines())]
        assert values == json.loads(out.read_text())["objective_trace"]

    def test_standardize_flag_sets_config_field(self, tmp_path):
        def fit_output(payload, *flags):
            config = write_config(tmp_path, payload)
            out = tmp_path / "model.json"
            assert main(["fit", "--config", str(config), "--out", str(out), *flags]) == 0
            return out.read_text()

        flagged = fit_output(synthetic_payload(), "--standardize")
        assert flagged == fit_output(synthetic_payload(standardize=True))
        assert flagged != fit_output(synthetic_payload())

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_hyperparameter_exit_1(self, tmp_path, capsys, value):
        payload = synthetic_payload(hyperparams={"c1": value})
        config = write_config(tmp_path, payload)  # json writes NaN and Infinity
        assert main(["fit", "--config", str(config), "--out", str(tmp_path / "m.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: c1 must be finite") and "Traceback" not in err
        assert not (tmp_path / "m.json").exists()

    def test_zero_rank_exit_1(self, tmp_path, capsys):
        config = write_config(tmp_path, synthetic_payload(hyperparams={"r": 0}))
        assert main(["fit", "--config", str(config), "--out", str(tmp_path / "m.json")]) == 1
        assert capsys.readouterr().err == "error: r must be a positive integer\n"
        assert not (tmp_path / "m.json").exists()

    def test_byte_order_marks_read_as_plain_files(self, tmp_path):
        spec = write_config(tmp_path, synthetic_payload()["synthetic"], "spec.json")
        assert main(["synth", "--spec", str(spec), "--out-prefix", f"{tmp_path}/"]) == 0

        def fit_output(mark):
            entries = {}
            for role in ("source", "target"):
                data = tmp_path / f"{mark.hex()}{role}.csv"
                data.write_bytes(mark + (tmp_path / f"{role}.csv").read_bytes())
                entries[role] = {"path": str(data), "format": "dense-csv"}
            payload = synthetic_payload(synthetic=None, **entries)
            config = tmp_path / f"{mark.hex()}config.json"
            config.write_bytes(mark + json.dumps(payload).encode())
            out = tmp_path / f"{mark.hex()}model.json"
            assert main(["fit", "--config", str(config), "--out", str(out)]) == 0
            return json.loads(out.read_text())

        assert fit_output(b"\xef\xbb\xbf") == fit_output(b"")

    def test_huge_svmlight_index_exit_1(self, tmp_path, capsys):
        # numpy refuses a 2^62-wide array outright; nothing large is allocated.
        data = tmp_path / "huge.svm"
        data.write_text("1 4611686018427387904:1.0\n-1 1:0.5\n")
        entry = {"path": str(data), "format": "sparse-svmlight"}
        config = write_config(tmp_path, {"source": entry, "target": entry})
        assert main(["fit", "--config", str(config), "--out", str(tmp_path / "m.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: feature index 4611686018427387904")
        assert "Traceback" not in err

    def test_convergence_failure_exit_2(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise ConvergenceError("budget exhausted")

        monkeypatch.setattr(wdmatch.cli, "fit", exhausted)
        config = write_config(tmp_path, synthetic_payload())
        assert main(["fit", "--config", str(config), "--out", str(tmp_path / "m.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("convergence failure: budget exhausted")


class TestSynthCommand:
    def test_round_trip_through_fit(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "dim": 3, "n": 30, "separation": 5.0, "angle": 0.2,
            "translation": 0.4, "noise": 0.0, "seed": 9,
        }))
        outdir = tmp_path / "gen"
        assert main(["synth", "--spec", str(spec), "--out-prefix", str(outdir) + "/"]) == 0
        source = load_dataset(outdir / "source.csv", "dense-csv")
        target = load_dataset(outdir / "target.csv", "dense-csv")
        assert source.n == target.n == 30
        assert target.labeled_count == 3

        config = write_config(tmp_path, {
            "source": {"path": str(outdir / "source.csv"), "format": "dense-csv"},
            "target": {"path": str(outdir / "target.csv"), "format": "dense-csv"},
            "hyperparams": {"outer_iters": 2, "subgrad_iters": 20, "k": 3, "r": 2},
        })
        model_out = tmp_path / "model.json"
        assert main(["fit", "--config", str(config), "--out", str(model_out)]) == 0
        assert model_out.is_file()

    def test_prefix_without_slash(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"dim": 2, "n": 12, "separation": 2.0}))
        prefix = tmp_path / "run1_"
        assert main(["synth", "--spec", str(spec), "--out-prefix", str(prefix)]) == 0
        assert (tmp_path / "run1_source.csv").is_file()
        assert (tmp_path / "run1_target.csv").is_file()

    @pytest.mark.parametrize("spec, message", [
        (None, "error: file not found"),
        ({"dim": 2.5, "n": 12, "separation": 2.0}, "error: dim:"),
        ({"dim": 2, "separation": 2.0}, "error: n:"),
    ], ids=["missing", "float-dim", "no-n"])
    def test_bad_spec_exit_1(self, tmp_path, capsys, spec, message):
        path = tmp_path / "spec.json"
        if spec is not None:
            path.write_text(json.dumps(spec))
        assert main(["synth", "--spec", str(path), "--out-prefix", str(tmp_path) + "/"]) == 1
        assert capsys.readouterr().err.startswith(message)

    def test_sparse_format_writes_svm_files(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"dim": 3, "n": 12, "separation": 2.0, "seed": 4}))
        outdir = tmp_path / "gen"
        code = main([
            "synth", "--spec", str(spec), "--out-prefix", str(outdir) + "/",
            "--format", "sparse-svmlight",
        ])
        assert code == 0
        assert sorted(p.name for p in outdir.iterdir()) == ["source.svm", "target.svm"]
        source = load_dataset(outdir / "source.svm", "sparse-svmlight", n_features=3)
        target = load_dataset(outdir / "target.svm", "sparse-svmlight", n_features=3)
        assert source.n == target.n == 12
        assert source.is_fully_labeled()


class TestDumpGraphCommand:
    def test_graph_dump(self, tmp_path):
        data = tmp_path / "points.csv"
        rows = ["1," + ",".join(map(str, row)) for row in np.random.default_rng(0).standard_normal((8, 2))]
        data.write_text("\n".join(rows) + "\n")
        out = tmp_path / "graph.json"
        assert main(["dump-graph", "--data", str(data), "--k", "3", "--out", str(out)]) == 0
        graph = json.loads(out.read_text())
        assert len(graph) == 8
        for i, entry in graph.items():
            assert len(entry["neighbors"]) == 3
            assert int(i) not in entry["neighbors"]
            assert sum(entry["weights"]) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("fmt, content", [
    ("dense-csv", b"1,0.5,1.0\n-1,\xff,2.0\n1,1.5,0.0\n"),
    ("sparse-svmlight", b"1 1:0.5\n-1 2:\xff\n1 1:1.5\n"),
], ids=["dense-csv", "sparse-svmlight"])
@pytest.mark.parametrize("command", ["dump-graph", "fit"])
def test_non_utf8_file_exit_1(tmp_path, capsys, fmt, content, command):
    data = tmp_path / "bad.txt"
    data.write_bytes(content)
    if command == "dump-graph":
        argv = ["dump-graph", "--data", str(data), "--format", fmt, "--k", "1"]
    else:
        entry = {"path": str(data), "format": fmt}
        argv = ["fit", "--config",
                str(write_config(tmp_path, {"source": entry, "target": entry}))]
    assert main(argv + ["--out", str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data}: not UTF-8 text")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command", ["fit-out", "fit-trace", "cv-out", "dump-graph-out",
                                     "synth-prefix"])
def test_unwritable_output_exit_1(tmp_path, capsys, command):
    spec = write_config(tmp_path, synthetic_payload()["synthetic"], "spec.json")
    assert main(["synth", "--spec", str(spec), "--out-prefix", f"{tmp_path}/"]) == 0
    capsys.readouterr()
    config = str(write_config(tmp_path, synthetic_payload()))
    taken = tmp_path / "taken"
    taken.mkdir()
    argv = {
        "fit-out": ["fit", "--config", config, "--out", str(taken)],
        "fit-trace": ["fit", "--config", config, "--out", str(tmp_path / "m.json"),
                      "--trace", str(taken)],
        "cv-out": ["cv", "--config", config, "--out", str(taken)],
        "dump-graph-out": ["dump-graph", "--data", str(tmp_path / "source.csv"),
                           "--out", str(taken)],
        "synth-prefix": ["synth", "--spec", str(spec), "--out-prefix", f"{spec}/"],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ("File exists" if command == "synth-prefix" else "Is a directory") in err
