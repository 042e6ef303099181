from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import binom, rankdata

from ufitree import forest as forest_mod
from ufitree.forest import ForestConfig
from ufitree.simgen import (
    SimSetting, average_rank, gen_discrete10, gen_null_mixed, gen_signal,
    run_experiment, summary_json, tidy_csv,
)
from ufitree.tree import TreeConfig


class TestGenNullMixed:
    def test_level_counts_within_binomial_bands(self):
        rng = np.random.default_rng(0)
        d = gen_null_mixed(1000, "classification", rng)
        cards = [2, 4, 10, 20]
        for j, card in enumerate(cards, start=1):
            counts = np.bincount(d.X[:, j].astype(int), minlength=card)
            lo = binom.ppf(0.005, 1000, 1 / card)
            hi = binom.ppf(0.995, 1000, 1 / card)
            assert np.all(counts >= lo) and np.all(counts <= hi)

    def test_classification_target_mean(self):
        rng = np.random.default_rng(1)
        d = gen_null_mixed(1000, "classification", rng)
        assert 0.45 <= d.y.mean() <= 0.55

    def test_same_seed_identical(self):
        d1 = gen_null_mixed(100, "regression", np.random.default_rng(7))
        d2 = gen_null_mixed(100, "regression", np.random.default_rng(7))
        assert np.array_equal(d1.X, d2.X) and np.array_equal(d1.y, d2.y)

    def test_kinds(self):
        d = gen_null_mixed(50, "classification", np.random.default_rng(2))
        assert d.kinds[0].kind == "continuous"
        assert [k.cardinality for k in d.kinds[1:]] == [2, 4, 10, 20]


class TestGenSignal:
    def test_rho_one_classification_is_exact_copy(self):
        rng = np.random.default_rng(3)
        d = gen_signal(500, 1.0, "classification", rng)
        assert np.array_equal(d.y, d.X[:, 1].astype(int))

    def test_rho_zero_regression_independent(self):
        rng = np.random.default_rng(4)
        d = gen_signal(5000, 0.0, "regression", rng)
        corr = np.corrcoef(d.X[:, 1], d.y)[0, 1]
        assert abs(corr) < 0.05

    def test_rho_half_classification_correlation(self):
        rng = np.random.default_rng(5)
        d = gen_signal(10000, 0.5, "classification", rng)
        corr = np.corrcoef(d.X[:, 1], d.y)[0, 1]
        assert abs(corr - 0.5) < 0.03


class TestGenDiscrete10:
    def test_supports(self):
        rng = np.random.default_rng(6)
        d = gen_discrete10(5000, "classification", rng)
        assert set(d.X[:, 0]) == {0.0, 1.0}
        assert d.X[:, 9].max() == 9.0
        assert d.X[:, 9].min() == 0.0

    def test_regression_signal_to_noise(self):
        # Var(X1 term) / Var(noise) = 0.25 / 25
        rng = np.random.default_rng(7)
        d = gen_discrete10(20000, "regression", rng)
        assert np.var(d.y) == pytest.approx(0.25 + 25.0, rel=0.05)

    def test_classification_conditional_rates(self):
        rng = np.random.default_rng(8)
        d = gen_discrete10(20000, "classification", rng)
        x1 = d.X[:, 0]
        assert d.y[x1 == 1].mean() == pytest.approx(0.55, abs=0.02)
        assert d.y[x1 == 0].mean() == pytest.approx(0.45, abs=0.02)


class TestAverageRank:
    def test_simple_order(self):
        assert average_rank([[3.0, 2.0, 1.0]]).tolist() == [1.0, 2.0, 3.0]

    def test_tie_convention(self):
        assert average_rank([[1.0, 1.0]]).tolist() == [1.5, 1.5]

    def test_opposite_orders_average_out(self):
        assert average_rank([[2.0, 1.0], [1.0, 2.0]]).tolist() == [1.5, 1.5]

    @staticmethod
    def _assert_scipy_bits(scores):
        rows = np.atleast_2d(np.asarray(scores, dtype=np.float64))
        ref = np.vstack([rankdata(-row, method="average") for row in rows])
        assert average_rank(scores).tobytes() == ref.mean(axis=0).tobytes()

    def test_matches_scipy_on_heavy_ties(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            reps, p = rng.integers(1, 8, size=2)
            self._assert_scipy_bits(rng.integers(-2, 3, size=(reps, p)) / 2)

    def test_matches_scipy_on_signed_zeros(self):
        self._assert_scipy_bits([[0.0, -0.0, 1.0], [-0.0, 0.0, -0.0],
                                 [-0.0, 2.0, 0.0]])

    def test_matches_scipy_on_single_and_all_tied(self):
        self._assert_scipy_bits([[3.5], [-1.0], [0.0]])
        self._assert_scipy_bits([[7.0] * 5, [0.0] * 5])

    def test_matches_scipy_on_nan(self):
        # a row holding NaN ranks as all NaN, so each feature's mean is NaN
        self._assert_scipy_bits([[1.0, np.nan, 0.0], [2.0, 1.0, 1.0]])

    def test_matches_scipy_on_a_1d_row(self):
        self._assert_scipy_bits([0.3, -1.0, 0.3, 2.0, 0.0, 0.3])

    def test_ranks_sum_to_triangular_number(self):
        rng = np.random.default_rng(9)
        scores = rng.standard_normal((5, 7))
        ranks = average_rank(scores)
        assert ranks.sum() == pytest.approx(7 * 8 / 2)
        assert np.all((ranks >= 1) & (ranks <= 7))


class TestRunExperiment:
    def _config(self):
        return ForestConfig(n_trees=5, seed=0, tree=TreeConfig(max_depth=3))

    def test_deterministic(self):
        setting = SimSetting("null_mixed", "classification", n=100, reps=2, seed=3)
        r1 = run_experiment(setting, self._config(), ["si", "ufi"])
        r2 = run_experiment(setting, self._config(), ["si", "ufi"])
        for m in ("si", "ufi"):
            assert np.array_equal(r1[m].scores, r2[m].scores)

    def test_folds_to_original_features(self):
        setting = SimSetting("null_mixed", "regression", n=100, reps=1, seed=4)
        res = run_experiment(setting, self._config(), ["si"])
        assert res["si"].feature_names == ["X1", "X2", "X3", "X4", "X5"]
        assert res["si"].scores.shape == (1, 5)

    def test_ordinal_encoding_skips_dummies(self):
        setting = SimSetting("null_mixed", "regression", encoding="ordinal",
                             n=100, reps=1, seed=5)
        res = run_experiment(setting, self._config(), ["si"])
        assert res["si"].scores.shape == (1, 5)

    def test_bad_setting_rejected(self):
        with pytest.raises(ValueError):
            SimSetting("null_mixed", "classification", rho=1.5).validate()
        with pytest.raises(ValueError):
            run_experiment(SimSetting("null_mixed", "classification", n=100, reps=1),
                           self._config(), ["bogus"])

    @pytest.mark.parametrize("methods", [["si", "ufi"], ["permutation"]])
    def test_out_of_bag_method_without_bootstrap_rejected_before_any_fit(
            self, monkeypatch, methods):
        def fit(*args, **kwargs):
            raise AssertionError("a repetition was fitted")

        monkeypatch.setattr(forest_mod, "fit", fit)
        with pytest.raises(ValueError, match="requires bootstrap"):
            run_experiment(SimSetting("null_mixed", "classification", n=100, reps=2),
                           replace(self._config(), bootstrap=False), methods)

    def test_outputs_serialize(self):
        setting = SimSetting("discrete10", "classification", n=100, reps=2, seed=6)
        res = run_experiment(setting, self._config(), ["si"])
        csv_text = tidy_csv(res)
        assert csv_text.splitlines()[0] == "rep,method,feature,score"
        assert len(csv_text.splitlines()) == 1 + 2 * 10
        import json
        payload = json.loads(summary_json(res))
        assert payload["si"]["reps"] == 2
        assert len(payload["si"]["avg_rank"]) == 10
