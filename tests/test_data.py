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
    save_csv,
    split,
    standardize,
)


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


class TestCsv:
    def test_small_file_onehot(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,x2,label\n0.5,1.0,0\n-1.0,2.0,1\n3.0,4.0,0\n")
        ds = load_csv(path)
        assert ds.labels.shape == (3, 2)
        np.testing.assert_array_equal(ds.labels, [[1, 0], [0, 1], [1, 0]])
        assert ds.class_names == ["0", "1"]

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
        path.write_text("x1,label\n1.0,7\n2.0,3\n3.0,7\n")
        ds = load_csv(path)
        assert ds.class_names == ["3", "7"]
        out = tmp_path / "out.csv"
        save_csv(ds, out)
        back = load_csv(out)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.class_names == ds.class_names


class TestStandardize:
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

    def test_empty_side_rejected(self):
        ds = gen_spirals(10, 0.05, 1.25, seed=4)
        with pytest.raises(ConfigurationError):
            split(ds, 0.01, seed=0)
        with pytest.raises(ConfigurationError):
            split(ds, 0.99, seed=0)


class TestDatasetInvariants:
    def test_one_hot_enforced(self):
        with pytest.raises(ConfigurationError):
            Dataset(np.zeros((2, 2)), np.array([[0.5, 0.5], [1.0, 0.0]]))

    def test_nan_features_rejected(self):
        with pytest.raises(ConfigurationError):
            Dataset(np.array([[np.nan, 0.0]]), np.array([[1.0, 0.0]]))

    def test_empty_rejected(self):
        with pytest.raises((ConfigurationError, Exception)):
            Dataset(np.zeros((0, 2)), np.zeros((0, 2)))
