"""Synthetic two-spirals data, file reading and atomic writing, CSV
persistence, standardization, splitting."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ParseError, ShapeError, is_int, is_real, is_seed

STD_FLOOR = 1e-8


@dataclass
class Dataset:
    """Feature matrix with one-hot labels.

    Every label row has exactly one 1; features are finite. class_names maps
    label columns back to the external class ids.
    """

    features: np.ndarray
    labels: np.ndarray
    class_names: list = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=float)
        if self.features.ndim != 2 or self.labels.ndim != 2:
            raise ShapeError("features and labels must be 2-D")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ShapeError(
                f"{self.features.shape[0]} feature rows vs {self.labels.shape[0]} label rows"
            )
        if self.features.shape[0] < 1:
            raise ConfigurationError("dataset is empty")
        if not np.isfinite(self.features).all():
            raise ConfigurationError("features contain NaN or Inf")
        one = self.labels == 1.0
        zero = self.labels == 0.0
        if not np.all(one.sum(axis=1) == 1) or not np.all(one | zero):
            raise ConfigurationError("labels must be one-hot rows")
        if self.class_names is not None and len(self.class_names) != self.labels.shape[1]:
            raise ConfigurationError("class_names length does not match label width")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def k(self) -> int:
        return self.labels.shape[1]

    def class_ids(self) -> np.ndarray:
        return self.labels.argmax(axis=1)


@dataclass
class StandardizeStats:
    """Per-dimension train moments; std entries are floored to stay positive."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.std = np.asarray(self.std, dtype=float)
        if self.mean.ndim != 1 or self.std.shape != self.mean.shape:
            raise ConfigurationError("standardization mean and std must be 1-D of equal length, "
                                     f"got shapes {self.mean.shape} and {self.std.shape}")
        if np.any(self.std <= 0):
            raise ConfigurationError("standardization std entries must be positive")


def _check_spirals(n_per_class, noise_std, turns, seed):
    if not (is_int(n_per_class) and n_per_class >= 1):
        raise ConfigurationError(f"n_per_class must be an integer >= 1, got {n_per_class!r}")
    if not (is_real(noise_std) and noise_std >= 0):
        raise ConfigurationError(f"noise_std must be a finite number >= 0, got {noise_std!r}")
    if not (is_real(turns) and turns > 0):
        raise ConfigurationError(f"turns must be a finite number > 0, got {turns!r}")
    if not is_seed(seed):
        raise ConfigurationError(f"seed must be a nonnegative integer, got {seed!r}")


def gen_spirals(n_per_class: int = 500, noise_std: float = 0.05, turns: float = 1.25,
                seed: int = 0) -> Dataset:
    """Two interleaved Archimedean spirals in the plane.

    A class-c point sits at angle theta ~ U[0, 2*pi*turns], radius
    theta / (2*pi*turns), rotated by c*pi, plus isotropic Gaussian noise.
    Deterministic per seed.
    """
    _check_spirals(n_per_class, noise_std, turns, seed)
    rng = np.random.default_rng(seed)
    span = 2.0 * np.pi * turns
    feats = []
    labels = []
    for c in (0, 1):
        theta = rng.uniform(0.0, span, size=n_per_class)
        radius = theta / span
        pts = np.column_stack(
            [radius * np.cos(theta + c * np.pi), radius * np.sin(theta + c * np.pi)]
        )
        pts += noise_std * rng.standard_normal((n_per_class, 2))
        feats.append(pts)
        onehot = np.zeros((n_per_class, 2))
        onehot[:, c] = 1.0
        labels.append(onehot)
    return Dataset(np.vstack(feats), np.vstack(labels), class_names=["0", "1"])


def read_json(path, what: str):
    """Parse a JSON file; malformed content raises ParseError naming ``what``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{what} {path} is not valid JSON: {exc.msg}",
                             line=exc.lineno) from exc


def write_file(path, text: str) -> None:
    """Write text to a sibling temp file and rename it over path, so an
    interrupted write leaves the previous file intact."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_csv(dataset: Dataset, path) -> None:
    """Write `x1,...,xd,label` rows; 17 significant digits keep floats lossless."""
    names = dataset.class_names or [str(i) for i in range(dataset.k)]
    write_file(path, ",".join(f"x{j + 1}" for j in range(dataset.d)) + ",label\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + f",{names[cid]}\n"
        for row, cid in zip(dataset.features, dataset.class_ids())))


def load_csv(path) -> Dataset:
    """Read a `x1,...,xd,label` file; labels are integer class ids.

    One-hot encodes over the observed class set in ascending order. Raises
    ParseError with the offending line number on any malformed content.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("file is empty", line=1)
    header = [h.strip() for h in lines[0].split(",")]
    d = len(header) - 1
    if d < 1 or header != [f"x{j + 1}" for j in range(d)] + ["label"]:
        raise ParseError(f"expected header x1,...,xd,label, got {lines[0]!r}", line=1)
    feats = []
    raw_labels = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != d + 1:
            raise ParseError(f"expected {d + 1} columns, got {len(cells)}", line=lineno)
        try:
            row = [float(c) for c in cells[:d]]
        except ValueError:
            raise ParseError(f"non-numeric feature in {line!r}", line=lineno) from None
        if not all(np.isfinite(row)):
            raise ParseError("non-finite feature value", line=lineno)
        try:
            label = int(cells[d])
        except ValueError:
            raise ParseError(f"label must be an integer class id, got {cells[d]!r}",
                             line=lineno) from None
        feats.append(row)
        raw_labels.append(label)
    if not feats:
        raise ParseError("no data rows", line=len(lines))
    classes = sorted(set(raw_labels))
    col = {c: j for j, c in enumerate(classes)}
    labels = np.zeros((len(feats), len(classes)))
    for i, c in enumerate(raw_labels):
        labels[i, col[c]] = 1.0
    return Dataset(np.asarray(feats), labels, class_names=[str(c) for c in classes])


def standardize(train: Dataset):
    """Center and scale features to train moments; returns (dataset, stats)."""
    mean = train.features.mean(axis=0)
    std = train.features.std(axis=0)
    std = np.where(std < STD_FLOOR, STD_FLOOR, std)
    stats = StandardizeStats(mean, std)
    return apply_stats(train, stats), stats


def apply_stats(dataset: Dataset, stats: StandardizeStats) -> Dataset:
    if dataset.d != stats.mean.shape[0]:
        raise ShapeError(
            f"stats are {stats.mean.shape[0]}-dimensional, dataset is {dataset.d}-dimensional"
        )
    feats = (dataset.features - stats.mean) / stats.std
    return Dataset(feats, dataset.labels.copy(), class_names=dataset.class_names)


def _check_fraction(test_fraction):
    if not (is_real(test_fraction) and 0.0 < test_fraction < 1.0):
        raise ConfigurationError(f"test_fraction must lie in (0, 1), got {test_fraction!r}")


def split(dataset: Dataset, test_fraction: float, seed: int = 0):
    """Stratified train/test split, deterministic per seed."""
    _check_fraction(test_fraction)
    rng = np.random.default_rng(seed)
    ids = dataset.class_ids()
    test_idx = []
    train_idx = []
    for c in range(dataset.k):
        members = np.flatnonzero(ids == c)
        n_test = int(round(test_fraction * members.size))
        if n_test < 1 or n_test >= members.size:
            raise ConfigurationError(
                f"test_fraction {test_fraction} leaves class {c} empty on one side "
                f"({members.size} members)"
            )
        perm = rng.permutation(members.size)
        test_idx.extend(members[perm[:n_test]])
        train_idx.extend(members[perm[n_test:]])
    train_idx = np.sort(np.asarray(train_idx))
    test_idx = np.sort(np.asarray(test_idx))
    make = lambda idx: Dataset(
        dataset.features[idx].copy(), dataset.labels[idx].copy(), dataset.class_names
    )
    return make(train_idx), make(test_idx)
