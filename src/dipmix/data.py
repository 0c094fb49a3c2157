"""Synthetic two-spirals data, file reading and atomic writing, CSV
persistence, standardization, splitting. Class id c is one thing throughout:
CSV label c, one-hot label column c and model output c."""

from __future__ import annotations

import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ParseError, ShapeError, check_int, check_real

STD_FLOOR = 1e-8
# a label sizes an n x (id + 1) one-hot matrix before any model is known
MAX_CLASSES = 1024


@dataclass(eq=False)
class Dataset:
    """Feature matrix with one-hot labels.

    Every label row has exactly one 1, in the column of its class id;
    features are finite. A class no row holds leaves its column empty.
    """

    features: np.ndarray
    labels: np.ndarray

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
        # every nonzero entry (NaN is one, -0.0 is not) is a 1, and each row sums
        # to 1; a matrix-vector product, as numpy's axis-1 sum over a few columns is slow
        if (np.count_nonzero(self.labels == 1.0) != np.count_nonzero(self.labels)
                or not (self.labels @ np.ones(self.k) == 1.0).all()):
            raise ConfigurationError("labels must be one-hot rows")

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


@dataclass(eq=False)
class StandardizeStats:
    """Per-dimension train moments, all finite; std entries are floored to stay positive."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.std = np.asarray(self.std, dtype=float)
        if self.mean.ndim != 1 or self.std.shape != self.mean.shape:
            raise ConfigurationError("standardization mean and std must be 1-D of equal length, "
                                     f"got shapes {self.mean.shape} and {self.std.shape}")
        if not (np.isfinite([self.mean, self.std]).all() and (self.std > 0).all()):
            raise ConfigurationError("standardization mean and std must be finite, std positive")


def _check_spirals(n_per_class, noise_std, turns, seed):
    check_int("n_per_class", n_per_class, "> 0")
    check_real("noise_std", noise_std, ">= 0")
    check_real("turns", turns, "> 0")
    check_int("seed", seed, ">= 0")


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
    feats = np.empty((2 * n_per_class, 2))
    labels = np.zeros((2 * n_per_class, 2))
    for c in (0, 1):
        rows = slice(c * n_per_class, (c + 1) * n_per_class)
        theta = rng.uniform(0.0, span, size=n_per_class)
        radius = theta / span
        feats[rows, 0] = radius * np.cos(theta + c * np.pi)
        feats[rows, 1] = radius * np.sin(theta + c * np.pi)
        feats[rows] += noise_std * rng.standard_normal((n_per_class, 2))
        labels[rows, c] = 1.0
    return Dataset(feats, labels)


def _decode(raw: bytes, path, what: str) -> str:
    """raw as a file opened in text mode reads: UTF-8 with universal newlines."""
    try:
        return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} {path} is not UTF-8 text: {exc.reason}") from None


def read_json(path, what: str):
    """Parse a JSON file; content that is not UTF-8 JSON raises ParseError naming ``what``."""
    try:
        return json.loads(_decode(Path(path).read_bytes(), path, what))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what} {path} is not valid JSON: {exc.msg}", line=exc.lineno) from exc


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
    write_file(path, ",".join(f"x{j + 1}" for j in range(dataset.d)) + ",label\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + f",{cid}\n"
        for row, cid in zip(dataset.features, dataset.class_ids())))


def load_csv(path) -> Dataset:
    """Read a `x1,...,xd,label` file and parse it with parse_csv."""
    return parse_csv(Path(path).read_bytes(), path)


def parse_csv(raw: bytes, path) -> Dataset:
    """Parse the bytes of the `x1,...,xd,label` file path: a row labelled c, a class id in
    [0, MAX_CLASSES), is one-hot in column c, so the label width is the largest id plus
    one. Malformed content raises ParseError naming its line or file."""
    lines = _decode(raw, path, "CSV file").splitlines()
    if not lines:
        raise ParseError("file is empty", line=1)
    header = [h.strip() for h in lines[0].split(",")]
    d = len(header) - 1
    if d < 1 or header != [f"x{j + 1}" for j in range(d)] + ["label"]:
        raise ParseError(f"expected header x1,...,xd,label, got {lines[0]!r}", line=1)
    feats, ids = [], []
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
        if not all(map(math.isfinite, row)):
            raise ParseError("non-finite feature value", line=lineno)
        try:
            label = int(cells[d])
        except ValueError:
            label = -1  # reported with the ids out of range
        if not 0 <= label < MAX_CLASSES:
            raise ParseError(f"label must be an integer class id in [0, {MAX_CLASSES}), "
                             f"got {cells[d]!r}", line=lineno)
        feats.append(row)
        ids.append(label)
    if not feats:
        raise ParseError("no data rows", line=len(lines))
    labels = np.zeros((len(feats), max(ids) + 1))
    labels[np.arange(len(feats)), ids] = 1.0
    return Dataset(np.asarray(feats), labels)


def standardize(train: Dataset):
    """Center and scale features to train moments; returns (dataset, stats)."""
    mean = train.features.mean(axis=0)
    std = train.features.std(axis=0)
    std = np.maximum(std, STD_FLOOR)
    stats = StandardizeStats(mean, std)
    return apply_stats(train, stats), stats


def apply_stats(dataset: Dataset, stats: StandardizeStats) -> Dataset:
    if dataset.d != stats.mean.shape[0]:
        raise ShapeError(
            f"stats are {stats.mean.shape[0]}-dimensional, dataset is {dataset.d}-dimensional"
        )
    feats = (dataset.features - stats.mean) / stats.std
    return Dataset(feats, dataset.labels.copy())


def _check_fraction(test_fraction):
    check_real("test_fraction", test_fraction, "in (0, 1)")


def split(dataset: Dataset, test_fraction: float, seed: int = 0):
    """Split each class that some row holds between train and test, deterministic per seed."""
    _check_fraction(test_fraction)
    check_int("seed", seed, ">= 0")
    rng = np.random.default_rng(seed)
    ids = dataset.class_ids()
    test_idx = []
    train_idx = []
    for c in np.flatnonzero(np.bincount(ids)):
        members = np.flatnonzero(ids == c)
        n_test = int(round(test_fraction * members.size))
        if n_test < 1 or n_test >= members.size:
            raise ConfigurationError(
                f"test_fraction {test_fraction} leaves class {c} empty on one side "
                f"({members.size} members)"
            )
        perm = rng.permutation(members.size)
        test_idx.append(members[perm[:n_test]])
        train_idx.append(members[perm[n_test:]])
    # fancy indexing copies, so neither half shares memory with dataset
    make = lambda idx: Dataset(dataset.features[idx], dataset.labels[idx])
    return make(np.sort(np.concatenate(train_idx))), make(np.sort(np.concatenate(test_idx)))
