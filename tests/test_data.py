import json
import typing
from dataclasses import dataclass, replace

import numpy as np
import pytest

from wdmatch.data import (
    DomainDataset,
    SyntheticShiftSpec,
    from_json,
    generate_synthetic_pair,
    load_dataset,
    load_json,
    save_dataset,
    standardize_pair,
    synthetic_pair_with_hidden_labels,
    to_json,
)
from wdmatch.errors import ConfigError, ParseError, ValidationError
from wdmatch.evaluate import DatasetFile, ExperimentConfig, accuracy, baseline_source_only
from wdmatch.model import HyperParams


class TestDomainDataset:
    def test_basic_fields(self):
        ds = DomainDataset([[0.5, 2.0]], [1.0])
        assert (ds.n, ds.dim, ds.labeled_count) == (1, 2, 1)

    def test_rejects_bad_labels(self):
        with pytest.raises(ValidationError):
            DomainDataset([[1.0, 2.0]], [2.0])

    def test_rejects_more_labels_than_rows(self):
        with pytest.raises(ValidationError):
            DomainDataset([[1.0]], [1.0, -1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            DomainDataset([[np.inf]], [])

    @pytest.mark.parametrize("features", [[1.0, 2.0], [[[1.0]]]], ids=["1-D", "3-D"])
    def test_rejects_features_that_are_not_2d(self, features):
        with pytest.raises(ValidationError, match="^features must be a 2-D matrix$"):
            DomainDataset(features, [])

    def test_immutable(self):
        ds = DomainDataset([[1.0, 2.0]], [1.0])
        with pytest.raises(ValueError):
            ds.features[0, 0] = 3.0


class TestDenseLoader:
    def test_single_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1, 0.5, 2.0\n")
        ds = load_dataset(path, "dense-csv")
        assert (ds.n, ds.dim, ds.labeled_count) == (1, 2, 1)
        np.testing.assert_array_equal(ds.features, [[0.5, 2.0]])
        np.testing.assert_array_equal(ds.labels, [1.0])

    def test_mixed_dimensions_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,1.0,2.0\n-1,3.0,4.0,5.0\n")
        with pytest.raises(ValidationError):
            load_dataset(path, "dense-csv")

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("3,1.0\n")
        with pytest.raises(ValidationError):
            load_dataset(path, "dense-csv")

    def test_malformed_value_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,1.0\n-1,zzz\n")
        with pytest.raises(ParseError, match="line 2"):
            load_dataset(path, "dense-csv")

    def test_unlabeled_rows_move_to_back(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("?,9.0\n1,1.0\n?,8.0\n-1,2.0\n")
        ds = load_dataset(path, "dense-csv")
        assert ds.labeled_count == 2
        np.testing.assert_array_equal(ds.features.ravel(), [1.0, 2.0, 9.0, 8.0])
        np.testing.assert_array_equal(ds.labels, [1.0, -1.0])

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError):
            load_dataset(tmp_path / "nope.csv", "dense-csv")


class TestSparseLoader:
    def test_declared_dimension(self, tmp_path):
        path = tmp_path / "s.svm"
        path.write_text("-1 3:1.5\n")
        ds = load_dataset(path, "sparse-svmlight", n_features=4)
        np.testing.assert_array_equal(ds.features, [[0.0, 0.0, 1.5, 0.0]])
        np.testing.assert_array_equal(ds.labels, [-1.0])

    def test_inferred_dimension(self, tmp_path):
        path = tmp_path / "s.svm"
        path.write_text("1 1:2.0 3:1.0\n-1 2:0.5\n")
        ds = load_dataset(path, "sparse-svmlight")
        assert ds.dim == 3
        np.testing.assert_array_equal(ds.features[1], [0.0, 0.5, 0.0])

    def test_zero_based_index_rejected(self, tmp_path):
        path = tmp_path / "s.svm"
        path.write_text("1 0:2.0\n")
        with pytest.raises(ValidationError):
            load_dataset(path, "sparse-svmlight")

    def test_index_beyond_declared_rejected(self, tmp_path):
        path = tmp_path / "s.svm"
        path.write_text("1 5:2.0\n")
        with pytest.raises(ValidationError):
            load_dataset(path, "sparse-svmlight", n_features=4)

    def test_malformed_entry_names_line(self, tmp_path):
        path = tmp_path / "s.svm"
        path.write_text("1 1:2.0\n1 oops\n")
        with pytest.raises(ParseError, match="line 2"):
            load_dataset(path, "sparse-svmlight")


    def test_repeated_index_keeps_last_value(self, tmp_path):
        path = tmp_path / "s.svm"
        path.write_text("1 2:1.0 3:5.0 2:7.0\n-1 1:1.0 1:0.0\n")
        ds = load_dataset(path, "sparse-svmlight", n_features=3)
        np.testing.assert_array_equal(ds.features, [[0.0, 7.0, 5.0], [0.0, 0.0, 0.0]])

    def test_tab_separators(self, tmp_path):
        spaced, tabbed = tmp_path / "spaced.svm", tmp_path / "tabbed.svm"
        spaced.write_text("1 1:2.0 3:1.0\n? 2:0.5\n")
        tabbed.write_text("1\t1:2.0 \t3:1.0\n?\t2:0.5\n")
        a = load_dataset(spaced, "sparse-svmlight")
        b = load_dataset(tabbed, "sparse-svmlight")
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_entries_read_as_int_and_float_read_them(self, tmp_path):
        path = tmp_path / "s.svm"
        path.write_text("1 +1:1e-3 1_0:2.5 03:-0.0 2:+.5\n")
        ds = load_dataset(path, "sparse-svmlight", n_features=10)
        expected = np.zeros(10)
        expected[[0, 9, 2, 1]] = [1e-3, 2.5, -0.0, 0.5]
        assert ds.features[0].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("token", ["1:", "1.5:2", "x:1", "1:abc", ":1", "1:2:3",
                                       "1::2"])
    def test_malformed_token_names_its_line(self, tmp_path, token):
        path = tmp_path / "s.svm"
        path.write_text(f"1 1:2.0\n-1 2:1.0 {token} 3:1.0\n")
        with pytest.raises(ParseError, match=f"line 2: malformed entry {token!r}"):
            load_dataset(path, "sparse-svmlight")

    def test_token_without_colon_balanced_by_one_with_two(self, tmp_path):
        path = tmp_path / "s.svm"
        path.write_text("1 1:2:3 4\n")
        with pytest.raises(ParseError, match="line 1: malformed entry '1:2:3'"):
            load_dataset(path, "sparse-svmlight")

    @pytest.mark.parametrize("text, n_features, message", [
        ("1 1:nan\n", None, "non-finite"),
        ("1 99999999999999999999:1.0\n", 4, "line 1: feature index .* exceeds"),
        # 2^62 features of 8 bytes exceed numpy's largest array size, so numpy
        # refuses the dense rows without trying to allocate them.
        ("1 4611686018427387904:1.0\n-1 1:0.5\n", None,
         "feature index 4611686018427387904 is too large"),
        ("1 1:1.0\n", 2**62, "declared dimension 4611686018427387904 is too large"),
        # Past int64, so the index never reaches numpy.
        ("1 9223372036854775808:1.0\n", None, "^line 1: feature index too large$"),
    ])
    def test_invalid_value_or_index_rejected(self, tmp_path, text, n_features, message):
        path = tmp_path / "s.svm"
        path.write_text(text)
        with pytest.raises(ValidationError, match=message):
            load_dataset(path, "sparse-svmlight", n_features=n_features)

    def test_first_fault_in_file_order_wins(self, tmp_path):
        path = tmp_path / "s.svm"
        path.write_text("1 1:1.0\n1 0:1.0\n1 oops\n2 1:1.0\n")
        with pytest.raises(ValidationError, match="line 2: feature index 0"):
            load_dataset(path, "sparse-svmlight")
        path.write_text("1 1:1.0 oops\n2 1:1.0\n")
        with pytest.raises(ParseError, match="line 1"):
            load_dataset(path, "sparse-svmlight")

    def test_only_unlabeled_rows_without_entries(self, tmp_path):
        path = tmp_path / "s.svm"
        path.write_text("?\n?\n")
        ds = load_dataset(path, "sparse-svmlight", n_features=3)
        np.testing.assert_array_equal(ds.features, np.zeros((2, 3)))
        assert ds.labeled_count == 0
        with pytest.raises(ValidationError, match="dimension"):
            load_dataset(path, "sparse-svmlight")


class TestLoaderFaults:
    @pytest.mark.parametrize("fmt, text, error, message", [
        ("libsvm", "1 1:1.0\n", ValidationError, "^unknown format 'libsvm'; expected one of"),
        ("dense-csv", "", ValidationError, "d.txt: no data rows$"),
        ("sparse-svmlight", "\n  \n", ValidationError, "d.txt: no data rows$"),
        ("dense-csv", "x,1.0\n", ParseError, "^line 1: unreadable label 'x'$"),
        ("sparse-svmlight", "1 1:1.0\nx 1:1.0\n", ParseError,
         "^line 2: unreadable label 'x'$"),
    ], ids=["unknown-format", "dense-empty", "sparse-blank", "dense-label", "sparse-label"])
    def test_invalid_input_rejected(self, tmp_path, fmt, text, error, message):
        path = tmp_path / "d.txt"
        path.write_text(text)
        with pytest.raises(error, match=message):
            load_dataset(path, fmt)

    @pytest.mark.parametrize("fmt, content", [
        ("dense-csv", b"1,0.5\n-1,\xff\n"),
        ("sparse-svmlight", b"1 1:0.5\n-1 1:\xff\n"),
    ], ids=["dense-csv", "sparse-svmlight"])
    def test_not_utf8_rejected(self, tmp_path, fmt, content):
        path = tmp_path / "d.txt"
        path.write_bytes(content)
        with pytest.raises(ParseError, match=r"d\.txt: not UTF-8 text \("):
            load_dataset(path, fmt)

    @pytest.mark.parametrize("n_features", [-1, 0])
    @pytest.mark.parametrize("text", ["1\n-1\n?\n", "1 1:1.0\n-1 2:1.0\n"],
                             ids=["no-entries", "entries"])
    def test_declared_dimension_below_one_rejected(self, tmp_path, n_features, text):
        path = tmp_path / "d.svm"
        path.write_text(text)
        with pytest.raises(ValidationError, match=f"^n_features must be a positive "
                                                  f"integer, got {n_features}$"):
            load_dataset(path, "sparse-svmlight", n_features=n_features)

    @pytest.mark.parametrize("n_features, shown", [(True, "True"), (2.5, "2.5"),
                                                   ("3", "'3'")])
    def test_declared_dimension_not_an_integer_rejected(self, tmp_path, n_features, shown):
        path = tmp_path / "d.svm"
        path.write_text("1 1:1.0\n-1 2:1.0\n")
        with pytest.raises(ValidationError, match=f"^n_features must be a positive "
                                                  f"integer, got {shown}$"):
            load_dataset(path, "sparse-svmlight", n_features=n_features)

    @pytest.mark.parametrize("fmt, text", [
        ("dense-csv", "1,0.5,1.0\n-1,2.0,-3.0\n?,1.5,0.0\n"),
        ("sparse-svmlight", "1 1:0.5 2:1.0\n-1 2:-3.0\n? 1:1.5\n"),
    ], ids=["dense-csv", "sparse-svmlight"])
    def test_byte_order_mark_skipped(self, tmp_path, fmt, text):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        expected, got = load_dataset(plain, fmt), load_dataset(marked, fmt)
        assert got.features.tobytes() == expected.features.tobytes()
        assert got.labels.tobytes() == expected.labels.tobytes()


class TestRoundTrip:
    def test_dense_bit_identical(self, tmp_path):
        rng = np.random.default_rng(11)
        ds = DomainDataset(rng.standard_normal((12, 5)), np.where(rng.random(9) < 0.5, 1.0, -1.0))
        path = tmp_path / "rt.csv"
        save_dataset(ds, path, "dense-csv")
        back = load_dataset(path, "dense-csv")
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_sparse_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        feats = rng.standard_normal((8, 6))
        feats[rng.random((8, 6)) < 0.5] = 0.0
        ds = DomainDataset(feats, np.ones(8))
        path = tmp_path / "rt.svm"
        save_dataset(ds, path, "sparse-svmlight")
        back = load_dataset(path, "sparse-svmlight", n_features=6)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_sparse_bitwise_at_50_by_30(self, tmp_path):
        rng = np.random.default_rng(14)
        feats = rng.standard_normal((50, 30)) * 10.0 ** rng.integers(-5, 5, (50, 30))
        feats[rng.random((50, 30)) < 0.5] = 0.0
        feats[3, 4] = -0.0
        ds = DomainDataset(feats, np.where(rng.random(20) < 0.5, 1.0, -1.0))
        path = tmp_path / "rt.svm"
        save_dataset(ds, path, "sparse-svmlight")
        back = load_dataset(path, "sparse-svmlight", n_features=30)
        assert back.features.tobytes() == np.where(feats == 0.0, 0.0, feats).tobytes()
        np.testing.assert_array_equal(back.labels, ds.labels)

    @pytest.mark.parametrize("fmt", ["dense-csv", "sparse-svmlight"])
    def test_text_matches_per_value_reference(self, tmp_path, fmt):
        rng = np.random.default_rng(13)
        feats = rng.standard_normal((6, 5)) * 10.0 ** rng.integers(-300, 300, (6, 5))
        feats[rng.random((6, 5)) < 0.4] = 0.0
        feats[0, 1] = -0.0
        ds = DomainDataset(feats, [1.0, -1.0, 1.0])
        lines = []
        for i, row in enumerate(ds.features):
            token = ("1" if ds.labels[i] > 0 else "-1") if i < ds.labeled_count else "?"
            if fmt == "dense-csv":
                lines.append(",".join([token] + [repr(float(v)) for v in row]))
            else:
                cells = [f"{j + 1}:{float(v)!r}" for j, v in enumerate(row) if v != 0.0]
                lines.append(" ".join([token] + cells))
        path = tmp_path / "out"
        save_dataset(ds, path, fmt)
        assert path.read_text() == "\n".join(lines) + "\n"

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="^unknown format 'libsvm'; expected one of"):
            save_dataset(DomainDataset([[1.0]], [1.0]), tmp_path / "out", "libsvm")


class TestSyntheticPair:
    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            SyntheticShiftSpec(dim=1, samples=10, separation=1.0)
        with pytest.raises(ValidationError):
            SyntheticShiftSpec(dim=2, samples=3, separation=1.0)
        with pytest.raises(ValidationError):
            SyntheticShiftSpec(dim=2, samples=10, separation=1.0, noise=1.5)
        with pytest.raises(ValidationError):
            SyntheticShiftSpec(dim=3, samples=10, separation=1.0, translation=[1.0, 2.0])

    @pytest.mark.parametrize("change, message", [
        ({"dim": 2.5}, "^dim must be an integer, got 2.5$"),
        ({"samples": 10.5}, "^samples must be an integer, got 10.5$"),
        ({"seed": 1.5}, "^seed must be an integer, got 1.5$"),
        ({"separation": np.nan}, "^separation must be finite$"),
        ({"angle": np.inf}, "^angle must be finite$"),
        ({"noise": np.nan}, "^noise must be finite$"),
        ({"translation": -np.inf}, "^translation must be finite$"),
        ({"translation": [0.0, np.nan]}, "^translation must be finite$"),
        ({"translation": "a"}, "^translation must be a real number or a list of them, got 'a'$"),
        ({"translation": [1.0, "a"]}, "^translation must be a real number or a list of them"),
        ({"translation": None}, "^translation must be a real number or a list of them, got None$"),
        ({"translation": {"x": 1}}, "^translation must be a real number or a list of them"),
        ({"translation": True}, "^translation must be a real number or a list of them, got True$"),
        ({"translation": [True, 0.0]}, "^translation must be a real number or a list of them"),
    ])
    def test_spec_numbers_checked(self, change, message):
        with pytest.raises(ValidationError, match=message):
            SyntheticShiftSpec(**{"dim": 2, "samples": 10, "separation": 1.0, **change})

    def test_oversized_spec_rejected(self):
        # numpy refuses these sizes before it allocates anything.
        with pytest.raises(ValidationError, match="^dim 10+ is too large for numpy"):
            SyntheticShiftSpec(dim=10**20, samples=10, separation=1.0)
        spec = SyntheticShiftSpec(dim=2, samples=10**20, separation=1.0)
        with pytest.raises(ValidationError, match="^synthetic spec is too large: numpy "
                                                  "cannot allocate 10+ samples of 2 features$"):
            generate_synthetic_pair(spec)

    def test_failed_allocation_rejected(self, monkeypatch):
        # A MemoryError stands in for an allocation too large for this machine.
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate")

        class ExhaustedGenerator:
            standard_normal = staticmethod(exhausted)

        with monkeypatch.context() as patch:
            patch.setattr(np, "zeros", exhausted)
            with pytest.raises(ValidationError, match="^dim 3 is too large for numpy"):
                SyntheticShiftSpec(dim=3, samples=10, separation=1.0)
        spec = SyntheticShiftSpec(dim=3, samples=10, separation=1.0)
        monkeypatch.setattr(np.random, "default_rng", lambda seed: ExhaustedGenerator())
        with pytest.raises(ValidationError, match="^synthetic spec is too large"):
            generate_synthetic_pair(spec)

    def test_target_rotates_the_first_two_axes(self):
        angle = 0.7
        spec = SyntheticShiftSpec(dim=5, samples=50, separation=2.0, angle=angle, seed=4)
        _, turned = generate_synthetic_pair(spec)
        _, still = generate_synthetic_pair(replace(spec, angle=0.0))
        np.testing.assert_array_equal(turned.features[:, 2:], still.features[:, 2:])
        c, s = np.cos(angle), np.sin(angle)
        rotation = np.array([[c, -s], [s, c]])
        np.testing.assert_allclose(turned.features[:, :2], still.features[:, :2] @ rotation.T,
                                   rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(turned.labels, still.labels)

    def test_deterministic(self):
        spec = SyntheticShiftSpec(
            dim=3, samples=24, separation=2.0, angle=0.4, translation=[0.1, 0.0, -0.2],
            noise=0.1, seed=99,
        )
        s1, t1 = generate_synthetic_pair(spec)
        s2, t2 = generate_synthetic_pair(spec)
        np.testing.assert_array_equal(s1.features, s2.features)
        np.testing.assert_array_equal(t1.features, t2.features)
        np.testing.assert_array_equal(s1.labels, s2.labels)
        np.testing.assert_array_equal(t1.labels, t2.labels)

    def test_label_budget(self):
        spec = SyntheticShiftSpec(dim=2, samples=57, separation=2.0, seed=1)
        source, target = generate_synthetic_pair(spec)
        assert source.labeled_count == source.n == 57
        assert target.labeled_count == 6  # ceil(57 / 10)

    def test_zero_shift_means_agree(self):
        spec = SyntheticShiftSpec(dim=3, samples=2000, separation=3.0, seed=8)
        source, target, hidden = synthetic_pair_with_hidden_labels(spec)
        all_t_labels = np.concatenate([target.labels, hidden])
        for value in (1.0, -1.0):
            mu_s = source.features[source.labels == value].mean(axis=0)
            mu_t = target.features[all_t_labels == value].mean(axis=0)
            assert np.max(np.abs(mu_s - mu_t)) < 0.2

    def test_wide_separation_is_learnable(self):
        # Train on the first half of the source, score the held-out second half.
        spec = SyntheticShiftSpec(dim=2, samples=400, separation=6.0, seed=21)
        source, _ = generate_synthetic_pair(spec)
        half = source.n // 2
        half_source = DomainDataset(source.features[:half], source.labels[:half])
        w = baseline_source_only(half_source, HyperParams())
        acc = accuracy(source.features[half:] @ w, source.labels[half:])
        assert acc >= 0.99


class TestStandardize:
    def test_joint_moments(self):
        rng = np.random.default_rng(5)
        src = DomainDataset(rng.normal(3.0, 2.0, (40, 3)), np.ones(40))
        tgt = DomainDataset(rng.normal(-1.0, 0.5, (30, 3)), np.ones(5))
        s, t = standardize_pair(src, tgt)
        pooled = np.vstack([s.features, t.features])
        np.testing.assert_allclose(pooled.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(pooled.std(axis=0), 1.0, atol=1e-12)
        np.testing.assert_array_equal(t.labels, tgt.labels)

    def test_constant_feature_survives(self):
        src = DomainDataset([[1.0, 5.0], [2.0, 5.0]], [1.0, -1.0])
        tgt = DomainDataset([[3.0, 5.0]], [])
        s, _ = standardize_pair(src, tgt)
        assert np.all(np.isfinite(s.features))


@dataclass(frozen=True)
class OptionalCount:
    # typing.Optional is a typing.Union on every Python version.
    count: typing.Optional[int] = None


SPEC_KEYS = {"dim": 2, "n": 10, "separation": 1.0}


class TestJsonRecords:
    @pytest.mark.parametrize("record", [
        HyperParams(),
        HyperParams(c1=0.5, c2=2.0, c3=0.0, r=4, delta=1.5, k=7, rho=0.3,
                    outer_iters=9, subgrad_iters=11, tol=1e-5),
        SyntheticShiftSpec(dim=2, samples=10, separation=1.0),
        SyntheticShiftSpec(dim=3, samples=12, separation=2.5, angle=0.4,
                           translation=[0.5, -1.0, 2.0], noise=0.1, seed=7),
        ExperimentConfig(synthetic=SyntheticShiftSpec(dim=2, samples=10, separation=1.0)),
        ExperimentConfig(
            source=DatasetFile("s.svm", "sparse-svmlight", n_features=4),
            target=DatasetFile("t.csv", "dense-csv"),
            hp=HyperParams(r=2, c3=3.0), folds=3, seed=4, baselines=("no-matching",),
            standardize=True, parallel=2, trace=True, out="report.json",
        ),
    ], ids=["hp-default", "hp", "spec-default", "spec", "config-synthetic", "config-files"])
    def test_round_trip_through_json_text(self, record):
        text = json.dumps(to_json(record))
        assert from_json(type(record), json.loads(text)) == record

    def test_keys_in_field_order_with_json_names(self):
        spec = SyntheticShiftSpec(dim=2, samples=10, separation=1.0, translation=0.5)
        assert to_json(spec) == {"dim": 2, "n": 10, "separation": 1.0, "angle": 0.0,
                                 "translation": [0.5, 0.0], "noise": 0.0, "seed": 0}
        keys = list(to_json(ExperimentConfig(synthetic=spec)))
        assert keys == ["source", "target", "synthetic", "hyperparams", "folds", "seed",
                        "baselines", "standardize", "parallel", "trace", "out"]

    def test_integer_for_float_field_stored_as_float(self):
        hp = from_json(HyperParams, {"c1": 2, "tol": 0})
        assert type(hp.c1) is float and type(hp.tol) is float
        assert to_json(hp)["c1"] == 2.0

    def test_null_only_where_the_field_allows_it(self):
        assert from_json(HyperParams, {"r": None}).r is None
        assert from_json(OptionalCount, {"count": None}).count is None
        assert from_json(OptionalCount, {"count": 3}).count == 3
        with pytest.raises(ConfigError, match="count"):
            from_json(OptionalCount, {"count": 2.5})

    @pytest.mark.parametrize("cls, payload, key", [
        (HyperParams, [1], "HyperParams"),
        (HyperParams, {"gamma": 1.0}, "gamma"),
        (HyperParams, {"k": "5"}, "k"),
        (HyperParams, {"k": 2.0}, "k"),
        (HyperParams, {"k": True}, "k"),
        (HyperParams, {"k": None}, "k"),
        (HyperParams, {"r": 2.5}, "r"),
        (HyperParams, {"c1": "1"}, "c1"),
        (HyperParams, {"c1": False}, "c1"),
        (SyntheticShiftSpec, {"dim": 2, "separation": 1.0}, "n"),
        (SyntheticShiftSpec, {**SPEC_KEYS, "samples": 10}, "samples"),
        (SyntheticShiftSpec, {**SPEC_KEYS, "translation": "left"}, "translation"),
        (SyntheticShiftSpec, {**SPEC_KEYS, "translation": [1.0, "a"]}, "translation[1]"),
        (ExperimentConfig, {"synthetic": SPEC_KEYS, "standardize": "false"}, "standardize"),
        (ExperimentConfig, {"synthetic": SPEC_KEYS, "folds": 2.9}, "folds"),
        (ExperimentConfig, {"synthetic": SPEC_KEYS, "baselines": "source-only"}, "baselines"),
        (ExperimentConfig, {"synthetic": SPEC_KEYS, "baselines": [[1]]}, "baselines[0]"),
        (ExperimentConfig, {"synthetic": SPEC_KEYS, "hyperparams": None}, "hyperparams"),
        (ExperimentConfig, {"synthetic": SPEC_KEYS, "hyperparams": {"k": "5"}},
         "hyperparams.k"),
        (ExperimentConfig, {"synthetic": {**SPEC_KEYS, "dim": "2"}}, "synthetic.dim"),
        (ExperimentConfig, {"synthetic": [1, 2]}, "synthetic"),
        (ExperimentConfig, {"source": "s.csv", "target": "t.csv"}, "source"),
        (ExperimentConfig, {"synthetic": SPEC_KEYS, "out": 3}, "out"),
    ])
    def test_malformed_value_names_its_key(self, cls, payload, key):
        with pytest.raises(ConfigError) as info:
            from_json(cls, payload)
        message = str(info.value)
        assert message.startswith(f"{key}:") or f"'{key}'" in message, message

    def test_load_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(SPEC_KEYS))
        assert load_json(path, SyntheticShiftSpec) == SyntheticShiftSpec(2, 10, 1.0)
        with pytest.raises(ConfigError, match="not found"):
            load_json(tmp_path / "absent.json", SyntheticShiftSpec)
        for content in (b"{", b"\xff\xfe"):
            path.write_bytes(content)
            with pytest.raises(ConfigError, match="invalid JSON"):
                load_json(path, SyntheticShiftSpec)

    def test_load_json_skips_byte_order_mark(self, tmp_path):
        config = ExperimentConfig(
            source=DatasetFile("s.csv", "dense-csv"), target=DatasetFile("t.csv", "dense-csv"),
            hp=HyperParams(r=2, c3=3.0), folds=3,
        )
        path = tmp_path / "config.json"
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps(to_json(config)).encode())
        assert load_json(path, ExperimentConfig) == config
