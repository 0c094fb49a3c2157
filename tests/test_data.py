import hashlib
import itertools
import re

import numpy as np
import pytest

from dipmix import (
    ConfigurationError,
    Dataset,
    ParseError,
    StandardizeStats,
    apply_stats,
    gen_spirals,
    load_csv,
    mlp_init,
    save_csv,
    split,
    standardize,
)
from dipmix.data import MAX_CLASSES, read_json


class TestGenSpirals:
    def test_counts_and_unit_disk(self):
        ds = gen_spirals(100, 0.0, 1.75, seed=7)
        assert ds.n == 200 and ds.d == 2 and ds.k == 2
        assert np.all(ds.labels.sum(axis=0) == 100)
        radii = np.linalg.norm(ds.features, axis=1)
        assert np.all(radii <= 1.0 + 1e-12)

    def test_noiseless_classes_do_not_touch(self):
        ds = gen_spirals(200, 0.0, 1.25, seed=5)
        ids = ds.class_ids()
        a = ds.features[ids == 0]
        b = ds.features[ids == 1]
        d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        assert np.sqrt(d2.min()) > 0.0

    def test_seed_determinism(self):
        a = gen_spirals(50, 0.05, 1.25, seed=11)
        b = gen_spirals(50, 0.05, 1.25, seed=11)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_bad_args(self):
        for n_per_class in (0, True, 2.5):
            with pytest.raises(ConfigurationError, match="n_per_class"):
                gen_spirals(n_per_class)
        with pytest.raises(ConfigurationError):
            gen_spirals(10, noise_std=-0.1)
        for turns in (0, -1, np.inf, np.nan):
            with pytest.raises(ConfigurationError, match="turns"):
                gen_spirals(10, turns=turns)
        for noise_std in (np.inf, np.nan):
            with pytest.raises(ConfigurationError, match="noise_std"):
                gen_spirals(10, noise_std=noise_std)
        for seed in (-1, True, 2.5):
            with pytest.raises(ConfigurationError, match="seed"):
                gen_spirals(10, seed=seed)

    def test_split_and_init_check_their_seed(self):
        ds = gen_spirals(10)
        for seed in (-1, True, 2.5):
            with pytest.raises(ConfigurationError, match="seed must be an integer >= 0"):
                split(ds, 0.5, seed=seed)
            with pytest.raises(ConfigurationError, match="seed must be an integer >= 0"):
                mlp_init([2, 3, 2], seed=seed)


class TestCsv:
    def test_small_file_onehot(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,x2,label\n0.5,1.0,0\n-1.0,2.0,1\n3.0,4.0,0\n")
        ds = load_csv(path)
        assert ds.labels.shape == (3, 2)
        np.testing.assert_array_equal(ds.labels, [[1, 0], [0, 1], [1, 0]])
        np.testing.assert_array_equal(ds.class_ids(), [0, 1, 0])

    def test_round_trip(self, tmp_path):
        ds = gen_spirals(40, 0.05, 1.25, seed=1)
        path = tmp_path / "s.csv"
        save_csv(ds, path)
        back = load_csv(path)
        np.testing.assert_allclose(back.features, ds.features, atol=1e-12)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_nan_feature_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,label\n1.0,2.0,0\nNaN,1.0,1\n")
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert err.value.line == 3
        assert "line 3" in str(err.value)

    def test_first_bad_line_is_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,label\n1.0,2.0,0\n1.0,inf,1\n1.0,1.0,x\n")
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert err.value.line == 3
        assert str(err.value) == "line 3: non-finite feature value"

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,label\n1.0,2.0,0\n1.0,1\n")
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert err.value.line == 3

    def test_unknown_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,0\n")
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert err.value.line == 1

    def test_non_numeric_feature(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,label\nfoo,0\n")
        with pytest.raises(ParseError):
            load_csv(path)

    def test_nonconsecutive_class_ids_round_trip(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,label\n1,7\n2,3\n3,7\n")
        ds = load_csv(path)
        assert ds.k == 8  # class id c is column c; the absent ids leave empty columns
        np.testing.assert_array_equal(ds.class_ids(), [7, 3, 7])
        out = tmp_path / "out.csv"
        save_csv(ds, out)
        assert out.read_text() == path.read_text()
        np.testing.assert_array_equal(load_csv(out).labels, ds.labels)

    @pytest.mark.parametrize("label", ["-1", str(MAX_CLASSES), "1.5", "a"])
    def test_label_outside_class_range_names_line(self, tmp_path, label):
        path = tmp_path / "bad.csv"
        path.write_text(f"x1,label\n1.0,0\n2.0,{label}\n")
        with pytest.raises(ParseError, match=rf"line 3: label must be an integer class id "
                                             rf"in \[0, {MAX_CLASSES}\), got '{label}'"):
            load_csv(path)

    def test_largest_class_id_loads(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(f"x1,label\n1.0,{MAX_CLASSES - 1}\n")
        assert load_csv(path).k == MAX_CLASSES

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_line_breaks_read_as_in_text_mode(self, tmp_path, newline):
        # bytes decode with universal newlines, as a file opened in text mode reads
        path = tmp_path / "d.csv"
        path.write_bytes(newline.join([b"x1,label", b"1.0,0", b"2.0,1", b""]))
        np.testing.assert_array_equal(load_csv(path).features, [[1.0], [2.0]])
        bad = tmp_path / "bad.json"
        bad.write_bytes(newline.join([b"{", b'"a": 1,', b"}"]))
        with pytest.raises(ParseError, match="^line 3: "):
            read_json(bad, "config")

    def test_non_utf8_file_names_it(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"x1,label\n1.0,0\n\xff,1\n")
        with pytest.raises(ParseError, match=re.escape(f"CSV file {path} is not UTF-8 text")):
            load_csv(path)


class TestStandardize:
    @pytest.mark.parametrize("mean,std", [
        ([0.0, 0.0], [np.inf, 1.0]), ([0.0, 0.0], [np.nan, 1.0]), ([np.nan, 0.0], [1.0, 1.0]),
        ([0.0, -np.inf], [1.0, 1.0]), ([0.0, 0.0], [0.0, 1.0]), ([0.0, 0.0], [1.0, -2.0]),
    ], ids=["std-inf", "std-nan", "mean-nan", "mean-inf", "std-zero", "std-negative"])
    def test_stats_must_be_finite_with_positive_std(self, mean, std):
        with pytest.raises(ConfigurationError, match="must be finite, std positive"):
            StandardizeStats(np.array(mean), np.array(std))

    def test_train_moments(self):
        ds = gen_spirals(100, 0.05, 1.25, seed=9)
        out, stats = standardize(ds)
        np.testing.assert_allclose(out.features.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.features.std(axis=0), 1.0, atol=1e-9)
        assert np.all(stats.std > 0)

    def test_constant_column_floors_to_zero(self):
        feats = np.column_stack([np.full(10, 3.7), np.arange(10.0)])
        labels = np.eye(2)[np.arange(10) % 2]
        out, _ = standardize(Dataset(feats, labels))
        np.testing.assert_allclose(out.features[:, 0], 0.0, atol=1e-6)

    def test_apply_stats_uses_train_moments(self):
        # hand-set moments: mean (1, -2), std (2, 4)
        stats = StandardizeStats(np.array([1.0, -2.0]), np.array([2.0, 4.0]))
        test = Dataset(np.array([[3.0, 2.0], [1.0, -2.0]]), np.eye(2))
        out = apply_stats(test, stats)
        np.testing.assert_allclose(out.features, [[1.0, 1.0], [0.0, 0.0]], atol=1e-15)


class TestSplit:
    def test_stratified_counts(self):
        ds = gen_spirals(100, 0.05, 1.25, seed=0)
        train_set, test_set = split(ds, 0.5, seed=1)
        assert train_set.n == 100 and test_set.n == 100
        assert np.all(train_set.labels.sum(axis=0) == 50)
        assert np.all(test_set.labels.sum(axis=0) == 50)

    def test_partition_is_exact(self):
        ds = gen_spirals(30, 0.05, 1.25, seed=4)
        train_set, test_set = split(ds, 0.3, seed=2)
        combined = np.vstack([train_set.features, test_set.features])
        key = lambda arr: arr[np.lexsort(arr.T)]
        np.testing.assert_array_equal(key(combined), key(ds.features))

    def test_seed_determinism(self):
        ds = gen_spirals(30, 0.05, 1.25, seed=4)
        a1, b1 = split(ds, 0.4, seed=9)
        a2, b2 = split(ds, 0.4, seed=9)
        assert np.array_equal(a1.features, a2.features)
        assert np.array_equal(b1.features, b2.features)

    def test_absent_class_id_is_skipped(self):
        ds = gen_spirals(10, 0.05, 1.25, seed=4)
        ds = Dataset(ds.features, np.eye(3)[2 * ds.class_ids()])  # ids 0 and 2
        train_set, test_set = split(ds, 0.5, seed=0)
        for half in (train_set, test_set):
            assert half.k == 3
            np.testing.assert_array_equal(half.labels.sum(axis=0), [5, 0, 5])

    def test_halves_do_not_alias_the_source(self):
        ds = gen_spirals(10, 0.05, 1.25, seed=4)
        features, labels = ds.features.copy(), ds.labels.copy()
        for half in split(ds, 0.5, seed=0):
            assert not np.shares_memory(half.features, ds.features)
            assert not np.shares_memory(half.labels, ds.labels)
            half.features[:] = 7.0
            half.labels[:] = 0.0
        np.testing.assert_array_equal(ds.features, features)
        np.testing.assert_array_equal(ds.labels, labels)

    def test_empty_side_rejected(self):
        ds = gen_spirals(10, 0.05, 1.25, seed=4)
        with pytest.raises(ConfigurationError):
            split(ds, 0.01, seed=0)
        with pytest.raises(ConfigurationError):
            split(ds, 0.99, seed=0)


def _path_digest(full, fraction, seed):
    """SHA-256 of the features and labels bytes at each stage of the data path."""
    train_set, test_set = split(full, fraction, seed=seed)
    std_train, stats = standardize(train_set)
    h = hashlib.sha256()
    for ds in (full, train_set, test_set, std_train, apply_stats(test_set, stats)):
        h.update(ds.features.tobytes())
        h.update(ds.labels.tobytes())
    return h.hexdigest()


class TestDataPathBits:
    """Digests recorded with the list-built data path of 0.16.0 (numpy 2.4, x86-64):
    building in whole-array calls changed no bit. A numpy whose sin or cos rounds
    differently would move them too."""

    @pytest.mark.parametrize("seed,n_per_class,fraction,digest", [
        (0, 3, 0.3, "f3812e8a7100d9dc7b55835780e6abdc450b2176b64d5e90f9ef073c159292c7"),
        (0, 3, 0.5, "56db51705afebd282a5d74ef816692ceede2af4e3f4557dea2cbe180c39b27f0"),
        (0, 500, 0.3, "3c00b165b22cf4a6365cc12de2dac46ec7d8badf66b11186aa2f2c092a995bba"),
        (0, 500, 0.5, "aa86c6695fd571129e3bc0dbe7a9e193ca0add6e3beefe4d36e49a063fb5547c"),
        (7, 3, 0.3, "fe8390a96fec05b4ab21b0d2a4506a8a681248f471f4af1e0c2eb801a049ef81"),
        (7, 3, 0.5, "b0d0fc512ca96bbb9894b11f31d35143714daa46f41b6d85a966642fe0d06446"),
        (7, 500, 0.3, "ca2b921247589b4ff5a203212e80e8e6c1dc894f40026a80bb1f0f436da66a66"),
        (7, 500, 0.5, "70c186a9a6c0c5638971f4d0cfcca8b56b83b7789ef8e8668d00d38b6ade6492"),
    ])
    def test_spirals_path(self, seed, n_per_class, fraction, digest):
        full = gen_spirals(n_per_class, 0.05, 1.25, seed=seed)
        assert _path_digest(full, fraction, seed) == digest

    def test_absent_class_id_path(self):
        ds = gen_spirals(10, 0.05, 1.25, seed=4)
        ds = Dataset(ds.features, np.eye(3)[2 * ds.class_ids()])  # ids 0 and 2
        assert _path_digest(ds, 0.5, 0) == (
            "36cbc0c350192f733ae496f59896d62ac57835ffe7cf8162cfb72a5194d1fe90")


class TestDatasetInvariants:
    def test_one_hot_enforced(self):
        for row in ([0.5, 0.5], [1.0, 1.0], [0.0, 0.0], [2.0, 0.0], [1.0, np.nan],
                    [-1.0, 1.0], [2.0, -1.0], [1.0, np.inf]):
            with pytest.raises(ConfigurationError, match="labels must be one-hot rows"):
                Dataset(np.zeros((2, 2)), np.array([row, [1.0, 0.0]]))

    @pytest.mark.parametrize("labels,ids", [
        ([[1.0, -0.0], [-0.0, 1.0]], [0, 1]),
        ([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], [0, 2]),
    ], ids=["negative-zero", "empty-class-column"])
    def test_one_hot_accepted(self, labels, ids):
        ds = Dataset(np.zeros((2, 1)), np.array(labels))
        np.testing.assert_array_equal(ds.class_ids(), ids)

    def test_one_hot_rule_matches_its_definition(self):
        # one-hot: every entry is 0 or 1 (-0.0 is 0, NaN neither) and each row holds one 1
        values = [0.0, -0.0, 1.0, 0.5, 2.0, -1.0, np.nan, np.inf]
        for n, k in [(1, 1), (1, 2), (1, 3), (2, 2), (3, 1)]:
            for entries in itertools.product(values, repeat=n * k):
                rows = [entries[i * k:(i + 1) * k] for i in range(n)]
                one_hot = all(all(v in (0.0, 1.0) for v in row)
                              and sum(v == 1.0 for v in row) == 1 for row in rows)
                try:
                    Dataset(np.zeros((n, 1)), np.array(rows))
                    accepted = True
                except ConfigurationError:
                    accepted = False
                assert accepted == one_hot, rows

    def test_nan_features_rejected(self):
        with pytest.raises(ConfigurationError):
            Dataset(np.array([[np.nan, 0.0]]), np.array([[1.0, 0.0]]))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError, match="dataset is empty"):
            Dataset(np.zeros((0, 2)), np.zeros((0, 2)))
