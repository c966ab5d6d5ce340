"""Dataset containers, file ingestion, synthetic cross-domain generation and
the JSON form of the config records.

A domain is a feature matrix whose leading rows carry binary labels; the
remaining rows are unlabeled. Files come in two text formats: dense CSV
(``label,f1,f2,...``) and sparse svmlight-style (``label idx:val ...`` with
1-based indices). The token ``?`` marks an unlabeled row in both formats.
"""

from __future__ import annotations

import json
import types
import typing
from dataclasses import MISSING, Field, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError, ValidationError, check_numbers, is_real, settle

UNLABELED_TOKEN = "?"

DENSE_CSV = "dense-csv"
SPARSE_SVMLIGHT = "sparse-svmlight"
FORMATS = (DENSE_CSV, SPARSE_SVMLIGHT)


@dataclass(frozen=True)
class DomainDataset:
    """Feature matrix with a contiguous labeled block at the front.

    Rows ``0..labeled_count-1`` carry labels in {+1, -1}; rows past that are
    unlabeled. A source domain is fully labeled (``labeled_count == n``); a
    target domain typically has only a small labeled block. Instances are
    immutable after construction and safe to share across threads.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        settle(self, features=np.array(self.features, dtype=np.float64),
               labels=np.array(self.labels, dtype=np.float64).reshape(-1))
        if self.features.ndim != 2:
            raise ValidationError("features must be a 2-D matrix")
        if self.dim < 1:
            raise ValidationError("feature dimension must be at least 1")
        if not np.all(np.isfinite(self.features)):
            raise ValidationError("features contain non-finite values")
        if self.labeled_count > self.n:
            raise ValidationError(f"{self.labeled_count} labels for {self.n} rows")
        if self.labeled_count and not np.all(np.isin(self.labels, (1.0, -1.0))):
            raise ValidationError("labels must be +1 or -1")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def labeled_count(self) -> int:
        return self.labels.shape[0]

    @property
    def labeled_features(self) -> np.ndarray:
        return self.features[: self.labeled_count]

    def is_fully_labeled(self) -> bool:
        return self.labeled_count == self.n


def _parse_label(token: str, lineno: int):
    token = token.strip()
    if token == UNLABELED_TOKEN:
        return None
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"line {lineno}: unreadable label {token!r}") from None
    if value not in (1.0, -1.0):
        raise ValidationError(
            f"line {lineno}: label {token!r} is not +1, -1 or {UNLABELED_TOKEN!r}"
        )
    return value


def _load_dense(lines) -> tuple[list, list]:
    rows, labels = [], []
    dim = None
    for lineno, line in lines:
        parts = line.split(",")
        label = _parse_label(parts[0], lineno)
        try:
            values = [float(tok) for tok in parts[1:]]
        except ValueError:
            raise ParseError(f"line {lineno}: unreadable feature value") from None
        if dim is None:
            dim = len(values)
        elif len(values) != dim:
            raise ValidationError(
                f"line {lineno}: row has {len(values)} features, expected {dim}"
            )
        rows.append(values)
        labels.append(label)
    return rows, labels


def _raise_sparse_error(lineno: int, line: str, n_features):
    """Walk one svmlight line token by token and raise its first fault."""
    label, *tokens = line.split()
    _parse_label(label, lineno)
    for token in tokens:
        idx_str, sep, val_str = token.partition(":")
        try:
            if not sep:
                raise ValueError
            idx = int(idx_str)
            float(val_str)
        except ValueError:
            raise ParseError(f"line {lineno}: malformed entry {token!r}") from None
        if idx < 1:
            raise ValidationError(f"line {lineno}: feature index {idx} is not 1-based")
        if n_features is not None and idx > n_features:
            raise ValidationError(
                f"line {lineno}: feature index {idx} exceeds declared "
                f"dimension {n_features}"
            )
    raise ValidationError(f"line {lineno}: feature index too large")


def _load_sparse(lines, n_features) -> tuple[np.ndarray, list]:
    """Parse svmlight lines a line at a time rather than a token at a time.

    A line's entries are split into index and value fields at once, and
    numpy converts each kind in one call, reading every field as ``int`` and
    ``float`` read it. The split stands only when joining each (index, value)
    pair with ``:`` gives back the line's tokens, that is when every token
    has one ``:`` between two non-empty fields. A line that fails a check is
    walked token by token by :func:`_raise_sparse_error`, which raises its
    first fault. A repeated index keeps its last value. A dimension too large
    for numpy to allocate the dense rows raises :class:`ValidationError`.
    """
    labels, counts = [], []
    # Each list starts with an empty array, so a file of no lines concatenates.
    cols, vals = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    for lineno, line in lines:
        try:
            label, *body = line.split(None, 1)
            labels.append(_parse_label(label, lineno))
            text = body[0] if body else ""
            fields = text.replace(":", " ").split()
            entries = " ".join(map(":".join, zip(fields[0::2], fields[1::2])))
            if entries != text and entries.split(" ") != text.split():
                raise ValueError("an entry is not idx:val")
            idx = np.array(fields[0::2], dtype=np.int64)
            if idx.size and (
                idx.min() < 1 or (n_features is not None and idx.max() > n_features)
            ):
                raise ValueError("feature index out of range")
            vals.append(np.array(fields[1::2], dtype=np.float64))
        except (ValueError, OverflowError):  # ParseError and ValidationError too
            _raise_sparse_error(lineno, line, n_features)
        cols.append(idx - 1)
        counts.append(idx.size)
    cols, vals = np.concatenate(cols), np.concatenate(vals)
    dim = n_features if n_features is not None else int(cols.max(initial=-1)) + 1
    try:  # before the flat indices, whose row * dim can overflow int64
        rows = np.zeros((len(labels), dim))
    except (ValueError, MemoryError):
        what = "feature index" if n_features is None else "declared dimension"
        raise ValidationError(
            f"{what} {dim} is too large: numpy cannot allocate "
            f"{len(labels)} rows of {dim} features"
        ) from None
    flat = np.repeat(np.arange(len(labels)) * dim, counts) + cols
    _, last = np.unique(flat[::-1], return_index=True)
    keep = flat.size - 1 - last
    rows.ravel()[flat[keep]] = vals[keep]
    return rows, labels


def load_dataset(path, format: str, n_features: int | None = None) -> DomainDataset:
    """Read a dataset file, moving unlabeled rows to the back.

    Parameters
    ----------
    path : str or Path
        File to read.
    format : str
        ``"dense-csv"`` or ``"sparse-svmlight"``.
    n_features : int, optional
        Declared dimension for the sparse format, a positive integer; inferred
        from the largest index seen when omitted. Ignored for dense input.

    A file that is not UTF-8 text raises :class:`ParseError`; a leading
    byte-order mark is skipped.
    """
    if format not in FORMATS:
        raise ValidationError(f"unknown format {format!r}; expected one of {FORMATS}")
    integral = isinstance(n_features, (int, np.integer)) and not isinstance(n_features, bool)
    if n_features is not None and not (integral and n_features >= 1):
        raise ValidationError(f"n_features must be a positive integer, got {n_features!r}")
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"dataset file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = [
                (lineno, stripped)
                for lineno, raw in enumerate(fh, start=1)
                if (stripped := raw.strip())
            ]
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc})") from None
    if format == DENSE_CSV:
        rows, labels = _load_dense(lines)
    else:
        rows, labels = _load_sparse(lines, n_features)
    if len(rows) == 0:
        raise ValidationError(f"{path}: no data rows")
    features = np.asarray(rows, dtype=np.float64)
    # Stable partition: labeled rows keep their order at the front.
    labeled_idx = [i for i, lab in enumerate(labels) if lab is not None]
    unlabeled_idx = [i for i, lab in enumerate(labels) if lab is None]
    order = labeled_idx + unlabeled_idx
    return DomainDataset(
        features[order], np.array([labels[i] for i in labeled_idx], dtype=np.float64)
    )


def _label_token(value: float) -> str:
    return "1" if value > 0 else "-1"


def write_all(outputs) -> None:
    """Write every (path, text) output or none: each text goes to a temporary file
    beside its target, made with its directory; all are renamed once all are
    written. Outputs that resolve to one file are refused before any is staged."""
    outputs = [(Path(path), text) for path, text in outputs]
    if len({path.resolve() for path, _ in outputs}) < len(outputs):
        raise ValidationError("two outputs name one file")
    staged = []
    try:
        for path, text in outputs:
            if path.is_dir():  # renaming onto it would fail after the others
                raise IsADirectoryError(f"Is a directory: '{path}'")
            path.parent.mkdir(parents=True, exist_ok=True)
            staged.append(path.with_name(f".{path.name}.tmp"))
            staged[-1].write_text(text, encoding="utf-8")
        for temp, (path, _) in zip(staged, outputs):
            temp.replace(path)
    finally:
        for temp in staged:
            temp.unlink(missing_ok=True)


def save_dataset(dataset: DomainDataset, path, format: str) -> None:
    """Write the :func:`dataset_text` of a dataset to ``path``."""
    write_all([(path, dataset_text(dataset, format))])


def dataset_text(dataset: DomainDataset, format: str) -> str:
    """The file text of a dataset in ``format``; ``load_dataset`` reproduces it.

    Dense output is bit-identical on round-trip; sparse output drops explicit
    zeros, which reload as the same 0.0 values.
    """
    if format not in FORMATS:
        raise ValidationError(f"unknown format {format!r}; expected one of {FORMATS}")
    lines = []
    for i in range(dataset.n):
        token = (
            _label_token(dataset.labels[i])
            if i < dataset.labeled_count
            else UNLABELED_TOKEN
        )
        row = dataset.features[i]
        if format == DENSE_CSV:
            lines.append(",".join([token] + list(map(repr, row.tolist()))))
        else:
            cols = np.flatnonzero(row)
            cells = [f"{j + 1}:{v!r}" for j, v in zip(cols.tolist(), row[cols].tolist())]
            lines.append(" ".join([token] + cells))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SyntheticShiftSpec:
    """Recipe for a reproducible pair of shifted two-class Gaussian domains.

    The target domain is drawn from the same two-cluster process as the
    source, then rotated by ``angle`` radians in the plane of the first two
    feature axes and translated by ``translation``.
    """

    dim: int
    samples: int = field(metadata={"json": "n"})
    separation: float
    angle: float = 0.0
    translation: float | tuple[float, ...] = 0.0
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_numbers(self, ("dim", "samples", "seed"), ("separation", "angle", "noise"))
        if self.dim < 2:
            raise ValidationError("dim must be at least 2")
        if self.samples < 4:
            raise ValidationError("samples must be at least 4")
        if not 0.0 <= self.noise <= 1.0:
            raise ValidationError("noise rate must lie in [0, 1]")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")
        if not all(map(is_real, np.asarray(self.translation, dtype=object).reshape(-1))):
            raise ValidationError("translation must be a real number or a list of them, "
                                  f"got {self.translation!r}")
        try:
            shift = np.zeros(self.dim)
        except (ValueError, MemoryError):
            raise ValidationError(f"dim {self.dim} is too large for numpy to allocate") from None
        if np.ndim(self.translation) == 0:
            shift[0] = float(self.translation)
        else:
            vec = np.asarray(self.translation, dtype=np.float64).reshape(-1)
            if vec.size != self.dim:
                raise ValidationError(
                    f"translation has length {vec.size}, expected {self.dim}"
                )
            shift = vec
        if not np.all(np.isfinite(shift)):
            raise ValidationError("translation must be finite")
        settle(self, translation=tuple(float(v) for v in shift))


# The JSON values a field of each type takes, and how an error names them. bool
# is a subclass of int, so number fields refuse true and false separately.
_JSON_KINDS = {
    bool: (bool, "true or false"),
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    str: (str, "a string"),
    dict: (dict, "a JSON object"),
}


def _json_key(f: Field) -> str:
    return f.metadata.get("json", f.name)


def from_json(cls, payload, key: str = ""):
    """Build the dataclass ``cls`` from a decoded JSON object.

    The fields are the schema. A key is a field's name, or the name its
    ``metadata={"json": ...}`` gives; a field without a default is required.
    Each value must have its field's type: a float field takes any number and
    stores it as a float, an int field takes an integer, a bool field true or
    false, an ``X | None`` field also null, a ``tuple[X, ...]`` field a list
    of X, and a dataclass field an object decoded by this function. Every
    fault raises :class:`ConfigError` naming the key; ``key`` is the path of
    ``payload`` itself when it is nested in another object.
    """
    where = key or cls.__name__
    if not isinstance(payload, dict):
        raise ConfigError(f"{where}: expected a JSON object, got {payload!r}")
    by_key = {_json_key(f): f for f in fields(cls)}
    unknown = set(payload) - set(by_key)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    values = {}
    for name, f in by_key.items():
        path = f"{key}.{name}" if key else name
        if name in payload:
            values[f.name] = _decode(hints[f.name], payload[name], path)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{path}: required key is missing")
    return cls(**values)


def _decode(hint, value, key: str):
    if is_dataclass(hint):
        return from_json(hint, value, key)
    origin = typing.get_origin(hint)
    # An annotation may spell a union as X | Y or as typing.Union / Optional.
    if origin in (typing.Union, types.UnionType):
        arms = typing.get_args(hint)
        if value is None and type(None) in arms:
            return None
        *first, last = [arm for arm in arms if arm is not type(None)]
        for arm in first:
            try:
                return _decode(arm, value, key)
            except ConfigError:
                pass
        return _decode(last, value, key)
    if origin is tuple:  # tuple[X, ...]
        if not isinstance(value, list):
            raise ConfigError(f"{key}: expected a list, got {value!r}")
        item = typing.get_args(hint)[0]
        return tuple(_decode(item, v, f"{key}[{i}]") for i, v in enumerate(value))
    accepts, kind = _JSON_KINDS[hint]
    if not isinstance(value, accepts) or isinstance(value, bool) != (hint is bool):
        raise ConfigError(f"{key}: expected {kind}, got {value!r}")
    try:
        return hint(value)
    except OverflowError:  # an integer past the float range
        raise ConfigError(f"{key}: number too large") from None


def to_json(record) -> dict:
    """The JSON object of the dataclass ``record``: the keys :func:`from_json`
    reads, in field order, with nested records as objects and tuples as lists."""
    return {_json_key(f): _encode(getattr(record, f.name)) for f in fields(record)}


def _encode(value):
    if is_dataclass(value):
        return to_json(value)
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


def load_json(path, cls):
    """Read a JSON file, with or without a byte-order mark, into the dataclass
    ``cls`` through :func:`from_json`."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"file not found: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8-sig"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    return from_json(cls, payload)


def _draw_domain(rng: np.random.Generator, spec: SyntheticShiftSpec):
    n, dim = spec.samples, spec.dim
    n_pos = (n + 1) // 2
    points = rng.standard_normal((n, dim))
    points[:n_pos, 0] += spec.separation / 2.0
    points[n_pos:, 0] -= spec.separation / 2.0
    labels = np.concatenate([np.ones(n_pos), -np.ones(n - n_pos)])
    flips = rng.random(n) < spec.noise
    labels = np.where(flips, -labels, labels)
    order = rng.permutation(n)
    return points[order], labels[order]


def generate_synthetic_pair(spec: SyntheticShiftSpec):
    """Generate a (source, target) pair; pure function of the spec.

    The source is fully labeled. The target keeps labels only on its first
    ``ceil(n/10)`` rows; see :func:`synthetic_pair_with_hidden_labels` when the
    held-back labels are needed for evaluation.
    """
    source, target, _ = synthetic_pair_with_hidden_labels(spec)
    return source, target


def synthetic_pair_with_hidden_labels(spec: SyntheticShiftSpec):
    """Like :func:`generate_synthetic_pair`, also returning the true labels of
    the target rows that the returned target dataset leaves unlabeled."""
    rng = np.random.default_rng(spec.seed)
    try:  # numpy refuses, or fails to allocate, the rows of an oversized spec
        xs, ys = _draw_domain(rng, spec)
        xt, yt = _draw_domain(rng, spec)
        c, s = np.cos(spec.angle), np.sin(spec.angle)  # x -> R x, R = [[c, -s], [s, c]]
        xt[:, :2] = xt[:, :2] @ np.array([[c, s], [-s, c]])
        xt += spec.translation
    except (ValueError, MemoryError):
        raise ValidationError(
            f"synthetic spec is too large: numpy cannot allocate {spec.samples} "
            f"samples of {spec.dim} features"
        ) from None
    n3 = -(-spec.samples // 10)  # ceil(n / 10)
    source = DomainDataset(xs, ys)
    target = DomainDataset(xt, yt[:n3])
    return source, target, yt[n3:].copy()


def standardize_pair(source: DomainDataset, target: DomainDataset):
    """Per-feature standardization with moments pooled over both domains.

    Zero-variance features are left centered but unscaled.
    """
    pooled = np.vstack([source.features, target.features])
    mean = pooled.mean(axis=0)
    std = pooled.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return (
        DomainDataset((source.features - mean) / std, source.labels),
        DomainDataset((target.features - mean) / std, target.labels),
    )
