import numpy as np
import pytest

from dipmix import (
    BetaParams,
    ConfigurationError,
    DomainError,
    MixConfig,
    ShapeError,
    beta_rule,
    lambda_prior,
    mix,
    sample_lambda,
    sample_partners,
)


class TestMix:
    def test_endpoints_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.normal(size=5)
            xp = rng.normal(size=5)
            assert np.array_equal(mix(x, xp, 1.0), x)
            assert np.array_equal(mix(x, xp, 0.0), xp)
        # one ratio per row, as a broadcasting column
        x = rng.normal(size=(4, 3))
        xp = rng.normal(size=(4, 3))
        out = mix(x, xp, np.array([[1.0], [0.0], [1.0], [0.0]]))
        assert np.array_equal(out[[0, 2]], x[[0, 2]])
        assert np.array_equal(out[[1, 3]], xp[[1, 3]])

    def test_midpoint(self):
        assert np.array_equal(mix([2.0, 0.0], [0.0, 2.0], 0.5), [1.0, 1.0])

    def test_swap_symmetry(self):
        # mix(x, x', lam) == mix(x', x, 1 - lam)
        rng = np.random.default_rng(1)
        for _ in range(200):
            x = rng.normal(size=4)
            xp = rng.normal(size=4)
            lam = rng.random()
            np.testing.assert_allclose(mix(x, xp, lam), mix(xp, x, 1.0 - lam), atol=1e-15)

    def test_domain_and_shape_errors(self):
        with pytest.raises(DomainError):
            mix([1.0], [2.0], 1.5)
        with pytest.raises(DomainError):
            mix([1.0], [2.0], -0.1)
        with pytest.raises(ShapeError):
            mix([1.0, 2.0], [1.0], 0.5)
        rows = np.zeros((3, 2))
        for bad in (1.2, -0.5, np.nan):
            with pytest.raises(DomainError):
                mix(rows, rows + 1.0, np.array([[0.5], [bad], [0.0]]))
        with pytest.raises(ShapeError):
            mix(rows, rows, np.full((2, 3, 1), 0.5))


class TestLambdaPrior:
    def test_preserving_rule(self):
        assert lambda_prior("label_preserving", 1.0) == BetaParams(2.0, 1.0)

    def test_mixing_rule(self):
        assert lambda_prior("label_mixing", 1.0) == BetaParams(1.0, 1.0)

    def test_none_is_degenerate(self):
        assert lambda_prior("none", 0.0) is None

    def test_nonpositive_alpha_rejected(self):
        for mode in ("label_mixing", "label_preserving"):
            with pytest.raises(ConfigurationError):
                lambda_prior(mode, 0.0)
            with pytest.raises(ConfigurationError):
                lambda_prior(mode, -1.0)

    def test_beta_params_validation(self):
        with pytest.raises(ConfigurationError):
            BetaParams(0.0, 1.0)
        with pytest.raises(ConfigurationError):
            BetaParams(1.0, -2.0)


class TestSampleLambda:
    # moment oracles: mean a/(a+b), variance ab/((a+b)^2 (a+b+1))

    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (2.0, 1.0), (0.5, 0.5), (3.0, 2.0)])
    def test_moments(self, a, b):
        rng = np.random.default_rng(42)
        lam = sample_lambda(BetaParams(a, b), rng, size=1_000_000)
        assert np.all(lam >= 0) and np.all(lam <= 1)
        mean = a / (a + b)
        var = a * b / ((a + b) ** 2 * (a + b + 1))
        assert abs(lam.mean() - mean) < 0.002
        assert abs(lam.var() - var) < 0.002
        # 3-standard-error agreement as well
        se = np.sqrt(var / lam.size)
        assert abs(lam.mean() - mean) < 3 * se

    def test_degenerate_prior_is_exactly_one(self):
        rng = np.random.default_rng(0)
        assert np.all(sample_lambda(None, rng, size=100) == 1.0)

    def test_identical_seed_identical_stream(self):
        a = sample_lambda(BetaParams(2.0, 1.0), np.random.default_rng(5), size=1000)
        b = sample_lambda(BetaParams(2.0, 1.0), np.random.default_rng(5), size=1000)
        assert np.array_equal(a, b)


class TestSamplePartners:
    def test_batch_permutation_is_bijection(self):
        rng = np.random.default_rng(0)
        for m in (1, 4, 17):
            idx = sample_partners(m, rng)
            assert np.array_equal(np.sort(idx), np.arange(m))

    def test_empty_pool_error(self):
        with pytest.raises(ConfigurationError):
            sample_partners(0, np.random.default_rng(0))


class TestMixConfig:
    def test_alpha_zero_only_with_none(self):
        MixConfig("none", 0.0)
        with pytest.raises(ConfigurationError):
            MixConfig("label_mixing", 0.0)

    def test_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            MixConfig("blend")

    def test_bad_s(self):
        with pytest.raises(ConfigurationError):
            MixConfig("label_preserving", 1.0, 0)
        with pytest.raises(ConfigurationError):
            MixConfig("label_preserving", 1.0, s=2.5)
        with pytest.raises(ConfigurationError):
            MixConfig("label_preserving", 1.0, s=True)


class TestBetaRule:
    @pytest.mark.parametrize("q", [1, 2, 4, 8])
    @pytest.mark.parametrize("a,b", [(2.0, 1.0), (1.2, 0.2), (0.5, 0.5), (1.0, 1.0), (3.0, 2.0),
                                     (0.05, 0.05)])
    def test_moments_to_degree_2q_minus_1(self, a, b, q):
        # oracle: E[lam^j] = prod_{i<j} (a + i) / (a + b + i)
        nodes, weights = beta_rule(BetaParams(a, b), q)
        assert nodes.shape == weights.shape == (q,)
        assert np.all((nodes > 0) & (nodes < 1)) and np.all(weights > 0)
        moment = 1.0
        for j in range(2 * q):
            assert abs(float(weights @ nodes**j) - moment) < 1e-12
            moment *= (a + j) / (a + b + j)

    def test_degenerate_prior_is_the_point_one(self):
        nodes, weights = beta_rule(None, 5)
        assert nodes.tolist() == [1.0] and weights.tolist() == [1.0]
