import json

import numpy as np
import pytest

from ufitree.data import CONTINUOUS, Dataset, FeatureKind
from ufitree.forest import Forest, ForestConfig, bootstrap_indices, fit
from ufitree.importance import si_forest
from ufitree.tree import TreeConfig, grow


def _dataset(task="classification", n=120, p=4, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    if task == "classification":
        y = (X[:, 0] + 0.5 * rng.standard_normal(n) > 0).astype(int)
        return Dataset(X, y, [f"x{j}" for j in range(p)],
                       [FeatureKind(CONTINUOUS)] * p, task, 2)
    y = X[:, 0] + rng.standard_normal(n)
    return Dataset(X, y, [f"x{j}" for j in range(p)],
                   [FeatureKind(CONTINUOUS)] * p, task)


class TestBootstrapIndices:
    def test_n_one_only_possibility(self):
        in_bag, oob = bootstrap_indices(1, np.random.default_rng(0))
        assert in_bag.tolist() == [0]
        assert oob.tolist() == []

    def test_fixed_seed_repeats(self):
        a = bootstrap_indices(50, np.random.default_rng(4))
        b = bootstrap_indices(50, np.random.default_rng(4))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_oob_fraction_matches_closed_form(self):
        # E|oob|/n = (1 - 1/n)^n for n draws with replacement
        rng = np.random.default_rng(11)
        n = 1000
        fracs = [len(bootstrap_indices(n, rng)[1]) / n for _ in range(200)]
        assert abs(np.mean(fracs) - (1 - 1 / n) ** n) < 0.01

    def test_partition_of_rows(self):
        rng = np.random.default_rng(2)
        in_bag, oob = bootstrap_indices(200, rng)
        assert set(in_bag) | set(oob) == set(range(200))
        assert set(in_bag) & set(oob) == set()


class TestFit:
    def test_single_tree_no_bootstrap_reduces_to_grow(self):
        d = _dataset()
        cfg = ForestConfig(n_trees=1, bootstrap=False, seed=3,
                           tree=TreeConfig(max_depth=3,
                                           max_features="all"))
        f = fit(d, cfg)
        solo = grow(d.X, d.y, np.arange(d.n),
                    TreeConfig(max_depth=3, max_features="all"),
                    d.task, d.n_classes)
        assert f.trees[0].to_dict() == solo.to_dict()
        assert len(f.oob[0]) == 0

    def test_structural_invariants_with_bootstrap(self):
        d = _dataset(n=150)
        f = fit(d, ForestConfig(n_trees=20, seed=5,
                                tree=TreeConfig(max_depth=4)))
        assert f.n_trees == 20
        for in_bag, oob in zip(f.in_bag, f.oob):
            assert len(in_bag) == d.n
            assert len(oob) > 0
            assert set(in_bag) | set(oob) == set(range(d.n))
            assert set(in_bag) & set(oob) == set()

    def test_same_seed_same_importances(self):
        d = _dataset()
        cfg = ForestConfig(n_trees=10, seed=9, tree=TreeConfig(max_depth=4))
        r1 = si_forest(fit(d, cfg))
        r2 = si_forest(fit(d, cfg))
        assert np.array_equal(r1.scores, r2.scores)

    def test_classification_defaults_to_sqrt_features(self):
        d = _dataset()
        cfg = ForestConfig(n_trees=1, seed=0, tree=TreeConfig(max_depth=2))
        assert fit(d, cfg).config.tree.max_features == "sqrt"
        reg = ForestConfig(n_trees=1, tree=TreeConfig(max_depth=2))
        assert fit(_dataset("regression"), reg).config.tree.max_features == "all"

    def test_regression_with_default_tree_config(self):
        # the impurity follows from the task, so TreeConfig() fits either task
        f = fit(_dataset("regression"), ForestConfig(n_trees=2, seed=0))
        assert f.task == "regression" and f.n_trees == 2

    def test_no_trees_rejected(self):
        with pytest.raises(ValueError, match="n_trees"):
            fit(_dataset(), ForestConfig(n_trees=0))


class TestPredict:
    def test_identical_single_leaf_trees(self):
        d = _dataset(n=30)
        cfg = ForestConfig(n_trees=5, bootstrap=False, seed=1,
                           tree=TreeConfig(max_depth=0, max_features="all"))
        f = fit(d, cfg)
        proba = f.predict_proba(d.X[:3])
        expected = np.bincount(d.y, minlength=2) / d.n
        for row in proba:
            assert row == pytest.approx(expected.tolist())

    def test_regression_mean_of_trees(self):
        d = _dataset("regression", n=40)
        f = fit(d, ForestConfig(n_trees=7, seed=2,
                                tree=TreeConfig(max_depth=3)))
        pred = f.predict(d.X[:5])
        manual = np.mean([t.predict(d.X[:5]) for t in f.trees], axis=0)
        assert pred == pytest.approx(manual.tolist())

    def test_probabilities_on_simplex(self):
        d = _dataset(n=80)
        f = fit(d, ForestConfig(n_trees=10, seed=6,
                                tree=TreeConfig(max_depth=4)))
        proba = f.predict_proba(d.X)
        assert np.all(np.abs(proba.sum(axis=1) - 1.0) < 1e-12)
        assert np.all(proba >= 0)


class TestSerialization:
    def test_round_trip(self):
        d = _dataset(n=60)
        for bootstrap in (True, False):
            f = fit(d, ForestConfig(n_trees=4, seed=8, bootstrap=bootstrap,
                                    tree=TreeConfig(max_depth=3)))
            payload = json.loads(json.dumps(f.to_dict()))
            assert "in_bag" not in payload and "oob" not in payload
            clone = Forest.from_dict(payload)
            assert np.array_equal(clone.predict(d.X), f.predict(d.X))
            assert clone.to_dict() == f.to_dict()
            for got, want in zip(clone.in_bag + clone.oob, f.in_bag + f.oob):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("key,value", [
        ("bag_sha256", "0" * 64),
        ("n_rows", 59),
        ("n_rows", 0),
    ])
    def test_tampered_bags_rejected(self, key, value):
        d = _dataset(n=60)
        payload = fit(d, ForestConfig(n_trees=3, seed=8,
                                      tree=TreeConfig(max_depth=2))).to_dict()
        payload[key] = value
        with pytest.raises(ValueError):
            Forest.from_dict(payload)

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError):
            Forest.from_dict({"version": "nope/0"})
        with pytest.raises(ValueError, match="ufiforest/2"):
            Forest.from_dict({"version": "ufiforest/2"})
        # v3 recorded a criterion that v4 no longer has; refuse, do not guess
        with pytest.raises(ValueError, match="ufiforest/3"):
            Forest.from_dict({"version": "ufiforest/3"})

