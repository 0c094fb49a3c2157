import math

import numpy as np
import pytest

from dipmix import (
    BetaParams,
    ConfigurationError,
    beta_rule,
    bound_report,
    c_lambda_closed,
    gen_spirals,
    rademacher_bracket,
    sample_lambda,
    standardize,
)


class TestCLambdaClosed:
    def test_preserving_alpha_one(self):
        assert abs(c_lambda_closed(BetaParams(2, 1)) - 2 / 3) < 1e-12

    def test_preserving_alpha_two(self):
        assert abs(c_lambda_closed(BetaParams(3, 2)) - 3 / 5) < 1e-12

    def test_degenerate_prior(self):
        assert c_lambda_closed(None) == 1.0

    def test_uniform_prior_direct_integration(self):
        # oracle: integrate lam^2 + (1-lam)^2 over [0, 1] by quadrature
        nodes, weights = np.polynomial.legendre.leggauss(64)
        lam = 0.5 * (nodes + 1)
        w = 0.5 * weights
        oracle = float(w @ (lam**2 + (1 - lam) ** 2))
        assert abs(oracle - 2 / 3) < 1e-13
        assert abs(c_lambda_closed(BetaParams(1, 1)) - oracle) < 1e-12

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 8.0])
    def test_matches_alpha_formula_for_both_priors(self, alpha):
        expected = (alpha + 1) / (2 * alpha + 1)
        assert abs(c_lambda_closed(BetaParams(alpha + 1, alpha)) - expected) < 1e-12
        assert abs(c_lambda_closed(BetaParams(alpha, alpha)) - expected) < 1e-12

    @pytest.mark.parametrize("prior", [BetaParams(2, 1), BetaParams(0.3, 0.3), BetaParams(5, 4),
                                       BetaParams(1.2, 0.2), None])
    def test_two_node_rule_is_exact(self, prior):
        # lam^2 + (1-lam)^2 has degree 2, within the rule's exact 2Q - 1 = 3
        lam, w = beta_rule(prior, 2)
        assert abs(float(w @ (lam**2 + (1 - lam) ** 2)) - c_lambda_closed(prior)) < 1e-14

    def test_lies_in_half_to_one_for_any_beta(self):
        # C = 1 - 2 E[lam (1 - lam)] and 0 <= lam (1 - lam) <= 1/4; shapes over 12 decades
        assert c_lambda_closed(None) == 1.0
        rng = np.random.default_rng(11)
        for alpha in np.exp(rng.uniform(np.log(1e-6), np.log(1e6), size=200)):
            for prior in (BetaParams(alpha + 1, alpha), BetaParams(alpha, alpha)):
                assert 0.5 <= c_lambda_closed(prior) <= 1.0
        for a, b in np.exp(rng.uniform(np.log(1e-6), np.log(1e6), size=(200, 2))):
            assert 0.5 <= c_lambda_closed(BetaParams(a, b)) <= 1.0

    def test_strictly_decreasing_with_limits(self):
        alphas = [1e-8, 0.1, 0.5, 1.0, 2.0, 10.0, 1e8]
        vals = [c_lambda_closed(BetaParams(a + 1, a)) for a in alphas]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert abs(vals[0] - 1.0) < 1e-6
        assert abs(vals[-1] - 0.5) < 1e-6


def c_lambda_sampled(prior, n, rng):
    """Monte-Carlo mean of lam^2 + (1-lam)^2 with its standard error."""
    lam = sample_lambda(prior, rng, size=n)
    vals = lam * lam + (1.0 - lam) * (1.0 - lam)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n))


class TestCLambdaMc:
    def test_agrees_with_closed_form(self):
        est, se = c_lambda_sampled(BetaParams(2, 1), 1_000_000, np.random.default_rng(0))
        assert abs(est - 2 / 3) < 3 * se
        assert abs(est - 0.6667) < 0.002

    def test_mixing_and_preserving_priors_share_the_constant(self):
        rng = np.random.default_rng(1)
        for alpha in (0.5, 1.0, 2.0):
            e1, s1 = c_lambda_sampled(BetaParams(alpha, alpha), 200_000, rng)
            e2, s2 = c_lambda_sampled(BetaParams(alpha + 1, alpha), 200_000, rng)
            assert abs(e1 - e2) < 3 * math.hypot(s1, s2)

    def test_degenerate_prior_exact(self):
        est, se = c_lambda_sampled(None, 10_000, np.random.default_rng(0))
        assert est == 1.0 and se == 0.0


class TestRademacherBracket:
    def test_centered_data_shrinks_by_sqrt_c(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(200, 3))
        x -= x.mean(axis=0)
        for c in (0.25, 2 / 3, 1.0):
            bracket, msn, snm = rademacher_bracket(x, c)
            assert snm < 1e-25
            assert abs(bracket - math.sqrt(c * msn)) < 1e-12

    def test_single_repeated_point(self):
        x0 = np.array([0.6, -0.8])  # unit norm
        x = np.tile(x0, (7, 1))
        for c in (0.0, 0.3, 1.0):
            bracket, _, _ = rademacher_bracket(x, c)
            assert abs(bracket - 1.0) < 1e-12

    def test_standardized_ratio_is_sqrt_two_thirds(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(100, 2))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        b23, _, _ = rademacher_bracket(x, 2 / 3)
        b1, _, _ = rademacher_bracket(x, 1.0)
        assert abs(b23 / b1 - math.sqrt(2 / 3)) < 1e-2

    def test_monotone_in_c(self):
        x = np.random.default_rng(4).normal(size=(50, 4)) + 1.0
        brackets = [rademacher_bracket(x, c)[0] for c in np.linspace(0, 1, 11)]
        assert all(b >= a - 1e-12 for a, b in zip(brackets, brackets[1:]))

    def test_moment_inequality_on_random_datasets(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            d = int(rng.integers(1, 6))
            x = rng.normal(size=(n, d)) * rng.uniform(0.1, 5) + rng.normal(size=d)
            _, msn, snm = rademacher_bracket(x, 0.5)
            assert msn >= snm - 1e-12 * max(1.0, msn)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            rademacher_bracket(np.zeros((0, 2)), 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_features_rejected(self, bad):
        x = np.array([[bad, 0.0], [1.0, 2.0]])
        with pytest.raises(ConfigurationError, match="finite"):
            rademacher_bracket(x, 0.75)
        with pytest.raises(ConfigurationError, match="finite"):
            bound_report(x, BetaParams(2, 1))

    @pytest.mark.parametrize("c", [-0.1, 1.5])
    def test_c_outside_unit_interval_rejected(self, c):
        with pytest.raises(ConfigurationError):
            rademacher_bracket(np.ones((3, 2)), c)


class TestBoundReport:
    def test_three_point_hand_computation(self):
        feats = np.array([[1.0, 2.0], [3.0, -1.0], [0.0, 1.0]])
        report = bound_report(feats, BetaParams(2, 1), rho=2.0, c_h=3.0,
                              loss_bound=5.0, delta=0.1)
        # hand arithmetic
        msn = (5.0 + 10.0 + 1.0) / 3.0
        mean_vec = (4.0 / 3.0, 2.0 / 3.0)
        snm = mean_vec[0] ** 2 + mean_vec[1] ** 2
        c = 2.0 / 3.0
        bracket = math.sqrt(c * msn + (1 - c) * snm)
        rad = 2.0 * 3.0 / math.sqrt(3.0) * bracket
        conf = 3.0 * 5.0 * math.sqrt(math.log(2.0 / 0.1) / 6.0)
        assert abs(report.c_lambda - c) < 1e-12
        assert abs(report.mean_sq_norm - msn) < 1e-12
        assert abs(report.sq_norm_mean - snm) < 1e-12
        assert abs(report.bracket - bracket) < 1e-12
        assert abs(report.rad_bound - rad) < 1e-12
        assert abs(report.confidence_term - conf) < 1e-12
        assert report.n == 3

    def test_doubling_n_scales_by_inverse_sqrt_two(self):
        feats = np.random.default_rng(6).normal(size=(25, 2))
        r1 = bound_report(feats, BetaParams(2, 1))
        r2 = bound_report(np.vstack([feats, feats]), BetaParams(2, 1))
        assert abs(r2.bracket - r1.bracket) < 1e-12
        assert abs(r2.rad_bound - r1.rad_bound / math.sqrt(2)) < 1e-12

    def test_larger_alpha_shrinks_rad_bound(self):
        ds, _ = standardize(gen_spirals(100, 0.05, 1.25, seed=0))
        r1 = bound_report(ds.features, BetaParams(2, 1))
        r2 = bound_report(ds.features, BetaParams(3, 2))
        assert r2.rad_bound < r1.rad_bound

    def test_invalid_constants(self):
        feats = np.ones((3, 2))
        with pytest.raises(ConfigurationError):
            bound_report(feats, None, rho=-1.0)
        with pytest.raises(ConfigurationError):
            bound_report(feats, None, delta=1.5)


class TestGeneralizationGap:
    def test_overfit_spirals_gap_shrinks_under_marginalized_mixing(self):
        # small noisy train set: unmixed training memorizes, mixing regularizes
        import dipmix as dm

        gaps = {"none": [], "dip": []}
        for seed in range(5):
            full = gen_spirals(100, 0.15, 1.25, seed=seed)
            train_set, test_set = dm.split(full, 0.5, seed=seed)
            train_set, stats = dm.standardize(train_set)
            test_set = dm.apply_stats(test_set, stats)
            optim = dm.OptimState(0.1, 0.9, [(200, 0.1), (300, 0.1)])
            for tag, mix in (("none", dm.MixConfig("none")),
                             ("dip", dm.MixConfig("label_mixing", 1.0, 1))):
                params = dm.mlp_init([2, 64, 64, 2], "relu", seed=seed)
                params, _ = dm.train(params, train_set, mix, optim, 400, 64,
                                     np.random.default_rng([seed, 1]))
                if tag == "dip":
                    cfg = dm.PredictorConfig("dip", 500, BetaParams(2, 1),
                                             train_set.features, seed=seed)
                else:
                    cfg = dm.PredictorConfig("raw", seed=seed)
                gaps[tag].append(dm.evaluate(params, test_set, cfg).misclassification_rate
                                 - dm.evaluate(params, train_set, cfg).misclassification_rate)
        assert np.mean(gaps["none"]) > np.mean(gaps["dip"])
