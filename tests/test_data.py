import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ufitree.data import (
    BINARY, CATEGORICAL, CONTINUOUS, ORDINAL,
    DataError, Dataset, Encoder, FeatureKind, dummy_encode, fold_importances,
    inject_random_feature, load_csv, parse_schema,
)


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestFeatureKind:
    def test_categorical_needs_cardinality(self):
        with pytest.raises(DataError):
            FeatureKind(CATEGORICAL, 1)
        with pytest.raises(DataError):
            FeatureKind("bogus")

    def test_binary_is_not_dummy_encoded(self):
        assert not FeatureKind("binary").is_categorical


class TestLoadCsv:
    def test_three_row_binary_target(self, tmp_path):
        path = _write(tmp_path, "x,label\n1.0,a\n2.0,b\n3.5,a\n")
        d = load_csv(path, target="label", task="classification")
        assert (d.n, d.p, d.n_classes) == (3, 1, 2)
        assert d.y.tolist() == [0, 1, 0]
        assert d.class_labels == ["a", "b"]

    def test_missing_value_reported_with_position(self, tmp_path):
        path = _write(tmp_path, "x,y\n1.0,0\n,1\n")
        with pytest.raises(DataError, match="missing value at row 2, column 'x'"):
            load_csv(path, target="y", task="classification")

    @pytest.mark.parametrize("big", ["1e200", "-1e200", "3e153"])
    def test_target_whose_squares_overflow_rejected_with_position(self, tmp_path, big):
        """Five targets of 1e200 squared overflow a sum; a bound of
        sqrt(DBL_MAX / (4 n)) keeps every sum of squared deviations finite."""
        path = _write(tmp_path, f"x,y\n1,1\n2,5\n3,{big}\n4,1\n5,5\n")
        with pytest.raises(DataError, match=f"'{big}' at row 3, column 'y'"):
            load_csv(path, target="y", task="regression")
        y = np.array([1.0, 5.0, float(big), 1.0, 5.0])
        with pytest.raises(DataError, match="at row 3"):
            Dataset(np.zeros((5, 1)), y, ["x"], [FeatureKind(CONTINUOUS)], "regression")

    def test_target_below_the_bound_accepted(self, tmp_path):
        path = _write(tmp_path, "x,y\n1,1e153\n2,-1e153\n3,1e153\n4,1\n5,5\n")
        assert load_csv(path, target="y", task="regression").y[0] == 1e153

    def test_parse_failure_reported_with_position(self, tmp_path):
        path = _write(tmp_path, "x,y\n1.0,0\noops,1\n")
        with pytest.raises(DataError, match="row 2, column 'x'"):
            load_csv(path, target="y", task="classification")

    def test_boston_shaped_file(self, tmp_path):
        # 14 columns, continuous target in the last column
        rng = np.random.default_rng(0)
        cols = [f"c{i}" for i in range(13)] + ["medv"]
        lines = [",".join(cols)]
        for _ in range(20):
            lines.append(",".join(f"{v:.3f}" for v in rng.standard_normal(14)))
        path = _write(tmp_path, "\n".join(lines) + "\n")
        d = load_csv(path, target="medv", task="regression")
        assert d.p == 13
        assert d.task == "regression"

    def test_categorical_levels_first_appearance_order(self, tmp_path):
        path = _write(tmp_path, "c,y\nred,0\nblue,1\nred,0\ngreen,1\n")
        d = load_csv(path, target="y", task="classification",
                     kinds={"c": FeatureKind(CATEGORICAL, 2)})
        assert d.kinds[0].levels == ("red", "blue", "green")
        assert d.kinds[0].cardinality == 3
        assert d.X[:, 0].tolist() == [0.0, 1.0, 0.0, 2.0]

    def test_utf8_bom_not_in_first_name(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("x,label\n1.0,a\n2.0,b\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        d = load_csv(path, target="label", task="classification")
        assert d.feature_names == ["x"]

    def test_ragged_row_rejected(self, tmp_path):
        path = _write(tmp_path, "x,y\n1.0,0\n2.0\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(path, target="y", task="classification")

    def test_binary_value_other_than_0_or_1_rejected(self, tmp_path):
        path = _write(tmp_path, "b,y\n0,0\n1,1\n2,0\n")
        with pytest.raises(DataError, match="row 3, column 'b'"):
            load_csv(path, target="y", task="classification",
                     kinds={"b": FeatureKind(BINARY)})
        d = load_csv(_write(tmp_path, "b,y\n0,0\n1.0,1\n", name="ok.csv"),
                     target="y", task="classification",
                     kinds={"b": FeatureKind(BINARY)})
        assert d.X[:, 0].tolist() == [0.0, 1.0]

    def test_column_named_twice_rejected(self, tmp_path):
        path = _write(tmp_path, "a,a,label\nred,blue,0\nblue,red,1\n")
        with pytest.raises(DataError, match="column 'a' is named twice"):
            load_csv(path, target="label", task="classification",
                     kinds={"a": FeatureKind(CATEGORICAL, 2)})


class TestParseSchema:
    def test_kinds_and_target(self):
        target, task, kinds = parse_schema({
            "target": "y",
            "task": "classification",
            "kinds": {"a": "continuous", "b": {"categorical": 4}, "c": "ordinal"},
        })
        assert target == "y" and task == "classification"
        assert kinds["b"] == FeatureKind(CATEGORICAL, 4)
        assert kinds["c"].kind == ORDINAL

    def test_target_required(self):
        with pytest.raises(DataError):
            parse_schema({"kinds": {}})

    @pytest.mark.parametrize("schema, message", [
        (["target"], "JSON object"),
        ({"target": "y", "kinds": ["a"]}, "'kinds' must be an object"),
        ({"target": "y", "kinds": {"a": {"categorical": "x"}}}, "bad kind spec"),
        ({"target": "y", "kinds": {"a": {"categorical": 2.9}}}, "bad kind spec"),
        ({"target": "y", "kinds": {"a": {"categorical": True}}}, "bad kind spec"),
        ({"target": "y", "kinds": {"y": "categorical"}}, "target column 'y'"),
        ({"target": 3}, "must be a column name"),
        ({"target": None}, "must be a column name"),
    ], ids=["list", "kinds-list", "count-string", "count-fraction", "count-bool",
            "target-kind", "target-number", "target-null"])
    def test_malformed_schema_rejected(self, schema, message):
        with pytest.raises(DataError, match=message):
            parse_schema(schema)


def _mixed_dataset(n=8, seed=0):
    rng = np.random.default_rng(seed)
    X = np.column_stack([
        rng.standard_normal(n),
        rng.integers(0, 4, size=n).astype(float),
    ])
    return Dataset(
        X=X, y=rng.integers(0, 2, size=n),
        feature_names=["cont", "cat"],
        kinds=[FeatureKind(CONTINUOUS), FeatureKind(CATEGORICAL, 4)],
        task="classification", n_classes=2,
    )


class TestDummyEncode:
    def test_one_hot_partition(self):
        d = _mixed_dataset()
        enc, encoder = dummy_encode(d)
        assert encoder.encoded_names == ["cont", "cat=0", "cat=1", "cat=2", "cat=3"]
        block = enc.X[:, 1:]
        assert np.array_equal(block.sum(axis=1), np.ones(d.n))
        assert set(block.ravel()) <= {0.0, 1.0}

    def test_all_continuous_identity(self):
        rng = np.random.default_rng(1)
        d = Dataset(rng.standard_normal((5, 2)), rng.standard_normal(5),
                    ["a", "b"], [FeatureKind(CONTINUOUS)] * 2, "regression")
        enc, encoder = dummy_encode(d)
        assert np.array_equal(enc.X, d.X)
        names, folded = fold_importances(np.array([0.25, -1.5]), encoder)
        assert names == ["a", "b"] and folded.tolist() == [0.25, -1.5]

    def test_no_categorical_column_passes_through(self):
        rng = np.random.default_rng(3)
        X = np.column_stack([rng.standard_normal(6), rng.integers(0, 5, 6),
                             rng.integers(0, 2, 6)]).astype(float)
        d = Dataset(X, rng.integers(0, 2, 6), ["c", "o", "b"],
                    [FeatureKind(CONTINUOUS), FeatureKind(ORDINAL),
                     FeatureKind(BINARY)], "classification", 2)
        enc, encoder = dummy_encode(d)
        assert enc is d and encoder.encoded_names == d.feature_names

    def test_paper_mixed_design_column_count(self):
        rng = np.random.default_rng(2)
        n = 30
        cards = [2, 4, 10, 20]
        cols = [rng.standard_normal(n)]
        kinds = [FeatureKind(CONTINUOUS)]
        names = ["x1"]
        for i, c in enumerate(cards):
            cols.append(rng.integers(0, c, size=n).astype(float))
            kinds.append(FeatureKind(CATEGORICAL, c))
            names.append(f"x{i + 2}")
        d = Dataset(np.column_stack(cols), rng.integers(0, 2, n), names, kinds,
                    "classification", 2)
        enc, _ = dummy_encode(d)
        assert enc.p == 1 + 2 + 4 + 10 + 20

    def test_one_level_categorical_gives_one_column(self, tmp_path):
        path = _write(tmp_path, "c,x,y\nred,1.0,0\nred,2.0,1\nred,3.0,0\n")
        d = load_csv(path, target="y", task="classification",
                     kinds={"c": FeatureKind(CATEGORICAL, 2)})
        enc, _ = dummy_encode(d)
        assert enc.feature_names == ["c=red", "x"]
        assert enc.X[:, 0].tolist() == [1.0, 1.0, 1.0]

    def test_declared_cardinality_keeps_its_columns(self):
        # a simulated categorical(4) column whose draws miss levels 2 and 3
        d = Dataset(np.array([[0.0], [1.0], [0.0]]), [0, 1, 0], ["c"],
                    [FeatureKind(CATEGORICAL, 4)], "classification", 2)
        enc, _ = dummy_encode(d)
        assert enc.feature_names == ["c=0", "c=1", "c=2", "c=3"]

    def test_encoded_matrix_is_finite(self):
        enc, _ = dummy_encode(_mixed_dataset())
        assert np.all(np.isfinite(enc.X))


class TestFoldImportances:
    def test_hand_sum(self):
        d = _mixed_dataset()
        _, encoder = dummy_encode(d)
        scores = np.array([0.1, 0.2, 0.3, 0.1, 0.05])
        names, folded = fold_importances(scores, encoder)
        assert names == ["cont", "cat"]
        assert folded[0] == pytest.approx(0.1)
        assert folded[1] == pytest.approx(0.65)

    def test_zero_scores_fold_to_zero(self):
        _, encoder = dummy_encode(_mixed_dataset())
        _, folded = fold_importances(np.zeros(5), encoder)
        assert np.array_equal(folded, np.zeros(2))

    def test_wrong_length_rejected(self):
        _, encoder = dummy_encode(_mixed_dataset())
        with pytest.raises(DataError):
            fold_importances(np.zeros(3), encoder)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=5, max_size=5))
    def test_fold_preserves_total_sum(self, raw):
        _, encoder = dummy_encode(_mixed_dataset())
        scores = np.array(raw)
        _, folded = fold_importances(scores, encoder)
        assert folded.sum() == pytest.approx(scores.sum(), rel=1e-9, abs=1e-9)


TRAIN_CSV = "c,x,label\nc,1.0,no\nb,2.0,yes\na,3.0,no\nc,4.0,yes\n"
CAT = {"c": FeatureKind(CATEGORICAL, 2)}


class TestEncoder:
    def _fitted(self, tmp_path):
        d = load_csv(_write(tmp_path, TRAIN_CSV, "train.csv"), "label",
                     "classification", CAT)
        return dummy_encode(d)

    def test_test_set_coded_in_training_order(self, tmp_path):
        enc, encoder = self._fitted(tmp_path)
        path = _write(tmp_path, "c,x,label\na,5.0,yes\nb,6.0,no\n", "test.csv")
        enc_t, _ = dummy_encode(
            load_csv(path, "label", "classification", CAT, encoder), encoder)
        assert enc_t.feature_names == enc.feature_names == ["c=c", "c=b", "c=a", "x"]
        assert enc_t.X.tolist() == [[0.0, 0.0, 1.0, 5.0], [0.0, 1.0, 0.0, 6.0]]
        assert enc_t.y.tolist() == [1, 0]
        assert encoder.to_dict()["class_labels"] == ["no", "yes"]

    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_coding_round_trips_through_its_record(self, tmp_path, task):
        """The model file's record of the coding gives back the encoder,
        levels included, where a column name and a level hold '=' and so
        a ``column=level`` name alone is ambiguous."""
        path = _write(tmp_path, "a=b,o,k,y\nc=d,1,0,1.5\ne,2,1,2\nc=d,3,1,1\n")
        kinds = {"a=b": FeatureKind(CATEGORICAL, 2), "o": FeatureKind(ORDINAL),
                 "k": FeatureKind(BINARY)}
        enc, encoder = dummy_encode(load_csv(path, "y", task, kinds))
        assert enc.feature_names == ["a=b=c=d", "a=b=e", "o", "k"]
        record = json.loads(json.dumps(encoder.to_dict()))
        assert record["kinds"][0] == {"name": "a=b", "kind": "categorical",
                                      "levels": ["c=d", "e"]}
        clone = Encoder.from_dict(record)
        assert clone == encoder and clone.kinds == encoder.kinds
        assert clone.encoded_names == encoder.encoded_names
        assert clone.class_labels == (["1.5", "2", "1"] if task == "classification"
                                      else None)

    def test_coding_of_categoricals_without_levels_round_trips(self):
        """A categorical declared by its cardinality alone, as simgen
        declares its columns, records that cardinality; its record once
        held ``levels: null`` and nothing else, which did not load."""
        encoder = Encoder(["x", "c", "b"], [FeatureKind(CONTINUOUS),
                                            FeatureKind(CATEGORICAL, 3),
                                            FeatureKind(BINARY)], ["no", "yes"])
        record = json.loads(json.dumps(encoder.to_dict()))
        assert record["kinds"][1] == {"name": "c", "kind": "categorical",
                                      "levels": None, "cardinality": 3}
        assert "cardinality" not in record["kinds"][0]
        assert "cardinality" not in record["kinds"][2]
        clone = Encoder.from_dict(record)
        assert clone == encoder and clone.kinds == encoder.kinds
        assert clone.encoded_names == ["x", "c=0", "c=1", "c=2", "b"]
        assert clone.class_labels == ["no", "yes"]

    @pytest.mark.parametrize("text,where", [
        ("c,x,label\na,5.0,yes\nd,6.0,no\n", "row 2, column 'c'"),
        ("c,x,label\na,5.0,maybe\n", "row 1, column 'label'"),
    ])
    def test_unseen_level_or_label_rejected(self, tmp_path, text, where):
        _, encoder = self._fitted(tmp_path)
        with pytest.raises(DataError, match=where):
            load_csv(_write(tmp_path, text, "test.csv"), "label",
                     "classification", CAT, encoder)

    def test_set_not_coded_by_the_encoder_rejected(self, tmp_path):
        _, encoder = self._fitted(tmp_path)
        own = _write(tmp_path, "c,x,label\na,5.0,yes\n", "own.csv")
        with pytest.raises(DataError, match="under their levels and labels"):
            dummy_encode(load_csv(own, "label", "classification", CAT), encoder)
        moved = _write(tmp_path, "x,c,label\n5.0,a,yes\n", "moved.csv")
        with pytest.raises(DataError, match="training columns"):
            dummy_encode(load_csv(moved, "label", "classification", CAT, encoder),
                         encoder)

    @settings(deadline=None)
    @given(st.lists(st.tuples(st.sampled_from("pqr"), st.sampled_from("uvw"),
                              st.integers(-3, 3)), min_size=1, max_size=12),
           st.data())
    def test_shuffled_training_file_keeps_its_rows(self, rows, data):
        perm = data.draw(st.permutations(range(len(rows))))
        kinds = {"c": FeatureKind(CATEGORICAL, 2)}
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, order in (("train.csv", range(len(rows))), ("shuffled.csv", perm)):
                lines = [f"{rows[i][0]},{rows[i][2]},{rows[i][1]}" for i in order]
                paths.append(_write(Path(tmp), "c,x,label\n" + "\n".join(lines) + "\n", name))
            enc, encoder = dummy_encode(
                load_csv(paths[0], "label", "classification", kinds))
            enc_s, _ = dummy_encode(
                load_csv(paths[1], "label", "classification", kinds, encoder), encoder)
        assert np.array_equal(enc_s.X, enc.X[perm])
        assert np.array_equal(enc_s.y, enc.y[perm])


class TestInjectRandomFeature:
    def test_reproducible_and_one_column(self):
        d = _mixed_dataset()
        d1 = inject_random_feature(d, seed=5)
        d2 = inject_random_feature(d, seed=5)
        assert d1.p == d.p + 1
        assert d1.feature_names[-1] == "random"
        assert np.array_equal(d1.X[:, -1], d2.X[:, -1])
        assert np.all(np.isfinite(d1.X[:, -1]))

    def test_independent_of_target(self):
        rng = np.random.default_rng(8)
        n = 10000
        d = Dataset(rng.standard_normal((n, 1)), rng.standard_normal(n),
                    ["x"], [FeatureKind(CONTINUOUS)], "regression")
        d2 = inject_random_feature(d, seed=17)
        corr = np.corrcoef(d2.X[:, -1], d2.y)[0, 1]
        assert abs(corr) < 0.03
