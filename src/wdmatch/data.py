"""Dataset containers, file ingestion and synthetic cross-domain generation.

A domain is a feature matrix whose leading rows carry binary labels; the
remaining rows are unlabeled. Files come in two text formats: dense CSV
(``label,f1,f2,...``) and sparse svmlight-style (``label idx:val ...`` with
1-based indices). The token ``?`` marks an unlabeled row in both formats.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError

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
        feats = np.array(self.features, dtype=np.float64, copy=True)
        if feats.ndim != 2:
            raise ValidationError("features must be a 2-D matrix")
        if feats.shape[1] < 1:
            raise ValidationError("feature dimension must be at least 1")
        if not np.all(np.isfinite(feats)):
            raise ValidationError("features contain non-finite values")
        labs = np.array(self.labels, dtype=np.float64, copy=True).reshape(-1)
        if labs.size > feats.shape[0]:
            raise ValidationError(
                f"{labs.size} labels for {feats.shape[0]} rows"
            )
        if labs.size and not np.all(np.isin(labs, (1.0, -1.0))):
            raise ValidationError("labels must be +1 or -1")
        feats.flags.writeable = False
        labs.flags.writeable = False
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

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


def _load_sparse(lines, n_features) -> tuple[np.ndarray, list]:
    entries, labels = [], []
    max_index = 0
    for lineno, line in lines:
        tokens = line.split()
        label = _parse_label(tokens[0], lineno)
        row = {}
        for token in tokens[1:]:
            idx_str, sep, val_str = token.partition(":")
            if not sep:
                raise ParseError(f"line {lineno}: malformed entry {token!r}")
            try:
                idx = int(idx_str)
                value = float(val_str)
            except ValueError:
                raise ParseError(f"line {lineno}: malformed entry {token!r}") from None
            if idx < 1:
                raise ValidationError(
                    f"line {lineno}: feature index {idx} is not 1-based"
                )
            if n_features is not None and idx > n_features:
                raise ValidationError(
                    f"line {lineno}: feature index {idx} exceeds declared "
                    f"dimension {n_features}"
                )
            row[idx - 1] = value
        if row:
            max_index = max(max_index, max(row) + 1)
        entries.append(row)
        labels.append(label)
    dim = n_features if n_features is not None else max_index
    rows = np.zeros((len(entries), dim))
    for i, row in enumerate(entries):
        rows[i, list(row)] = list(row.values())
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
        Declared dimension for the sparse format; inferred from the largest
        index seen when omitted. Ignored for dense input.
    """
    if format not in FORMATS:
        raise ValidationError(f"unknown format {format!r}; expected one of {FORMATS}")
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"dataset file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        lines = [
            (lineno, stripped)
            for lineno, raw in enumerate(fh, start=1)
            if (stripped := raw.strip())
        ]
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


def save_dataset(dataset: DomainDataset, path, format: str) -> None:
    """Write a dataset so ``load_dataset`` reproduces it exactly.

    Dense output is bit-identical on round-trip; sparse output drops explicit
    zeros, which reload as the same 0.0 values.
    """
    if format not in FORMATS:
        raise ValidationError(f"unknown format {format!r}; expected one of {FORMATS}")
    path = Path(path)
    lines = []
    for i in range(dataset.n):
        token = (
            _label_token(dataset.labels[i])
            if i < dataset.labeled_count
            else UNLABELED_TOKEN
        )
        row = dataset.features[i]
        if format == DENSE_CSV:
            lines.append(",".join([token] + [repr(float(v)) for v in row]))
        else:
            cells = [f"{j + 1}:{float(v)!r}" for j, v in enumerate(row) if v != 0.0]
            lines.append(" ".join([token] + cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class SyntheticShiftSpec:
    """Recipe for a reproducible pair of shifted two-class Gaussian domains.

    The target domain is drawn from the same two-cluster process as the
    source, then rotated by ``angle`` radians in the plane of the first two
    feature axes and translated by ``translation``.
    """

    dim: int
    samples: int
    separation: float
    angle: float = 0.0
    translation: object = 0.0
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.dim < 2:
            raise ValidationError("dim must be at least 2")
        if self.samples < 4:
            raise ValidationError("samples must be at least 4")
        if not 0.0 <= self.noise <= 1.0:
            raise ValidationError("noise rate must lie in [0, 1]")
        shift = np.zeros(self.dim)
        if np.ndim(self.translation) == 0:
            shift[0] = float(self.translation)
        else:
            vec = np.asarray(self.translation, dtype=np.float64).reshape(-1)
            if vec.size != self.dim:
                raise ValidationError(
                    f"translation has length {vec.size}, expected {self.dim}"
                )
            shift = vec
        object.__setattr__(self, "translation", tuple(float(v) for v in shift))

    @classmethod
    def from_json_dict(cls, payload: dict) -> "SyntheticShiftSpec":
        known = {"dim", "n", "separation", "angle", "translation", "noise", "seed"}
        unknown = set(payload) - known
        if unknown:
            raise ValidationError(f"unknown synthetic spec keys: {sorted(unknown)}")
        try:
            return cls(
                dim=int(payload["dim"]),
                samples=int(payload["n"]),
                separation=float(payload["separation"]),
                angle=float(payload.get("angle", 0.0)),
                translation=payload.get("translation", 0.0),
                noise=float(payload.get("noise", 0.0)),
                seed=int(payload.get("seed", 0)),
            )
        except KeyError as missing:
            raise ValidationError(f"synthetic spec missing key {missing}") from None

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "n": self.samples,
            "separation": self.separation,
            "angle": self.angle,
            "translation": [float(v) for v in self.translation],
            "noise": self.noise,
            "seed": self.seed,
        }


def load_synthetic_spec(path) -> SyntheticShiftSpec:
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"synthetic spec file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON ({exc})") from None
    return SyntheticShiftSpec.from_json_dict(payload)


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


def _rotation(dim: int, angle: float) -> np.ndarray:
    rot = np.eye(dim)
    c, s = np.cos(angle), np.sin(angle)
    rot[0, 0] = c
    rot[0, 1] = -s
    rot[1, 0] = s
    rot[1, 1] = c
    return rot


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
    xs, ys = _draw_domain(rng, spec)
    xt, yt = _draw_domain(rng, spec)
    xt = xt @ _rotation(spec.dim, spec.angle).T
    xt = xt + spec.translation
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
