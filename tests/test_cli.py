import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from ufitree import cli
from ufitree.cli import main
from ufitree.forest import Forest, worker_count
from ufitree.importance import permutation_importance, ufi_forest

TOY_CSV = "x1,x2,label\n1.0,a,0\n2.0,b,0\n3.0,a,1\n4.0,b,1\n"
TOY_SCHEMA = {
    "target": "label",
    "task": "classification",
    "kinds": {"x1": "continuous", "x2": {"categorical": 2}},
}


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "data.csv").write_text(TOY_CSV)
    (tmp_path / "schema.json").write_text(json.dumps(TOY_SCHEMA))
    return tmp_path


def _run(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


class TestTrain:
    def test_toy_model_has_one_split(self, workspace):
        out = workspace / "model"
        res = _run(["train", "--data", str(workspace / "data.csv"),
                    "--schema", str(workspace / "schema.json"),
                    "--trees", "1", "--max-depth", "1", "--max-features", "all",
                    "--no-bootstrap", "--seed", "0", "--out", str(out)])
        assert res.exit_code == 0, res.output
        payload = json.loads((out / "model.json").read_text())
        assert payload["version"] == "ufiforest/5"
        tree = payload["trees"][0]
        splits = [f for f in tree["feature"] if f != -1]
        assert splits == [0]  # one split, on x1, which separates the labels
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["dataset"]["rows"] == 4

    def test_missing_task_everywhere_is_usage_error(self, workspace):
        schema = dict(TOY_SCHEMA)
        del schema["task"]
        (workspace / "schema2.json").write_text(json.dumps(schema))
        res = CliRunner().invoke(main, [
            "train", "--data", str(workspace / "data.csv"),
            "--schema", str(workspace / "schema2.json"), "--seed", "0"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("schema", [
        ["target"],
        {"target": "label", "task": "classification", "kinds": "x2"},
        {"target": "label", "task": "classification",
         "kinds": {"x2": {"categorical": "x"}}},
        {"target": "label", "task": "classification",
         "kinds": {"x2": {"categorical": 2.9}}},
        {"target": "label", "task": "classification",
         "kinds": {"label": "categorical"}},
        {"target": 3, "task": "classification"},
        {"target": None, "task": "classification"},
    ], ids=["list", "kinds-string", "count-string", "count-fraction",
            "target-kind", "target-number", "target-null"])
    def test_malformed_schema_is_usage_error(self, workspace, schema):
        (workspace / "bad.json").write_text(json.dumps(schema))
        res = CliRunner().invoke(main, [
            "train", "--data", str(workspace / "data.csv"),
            "--schema", str(workspace / "bad.json"), "--seed", "0",
            "--out", str(workspace / "out")])
        assert res.exit_code == 2, res.output
        assert "bad schema" in res.output

    @pytest.mark.parametrize("command", [["train"],
                                         ["importance", "--method", "si"]])
    def test_task_comes_from_the_schema_alone(self, workspace, command):
        res = CliRunner().invoke(main, [
            *command, "--data", str(workspace / "data.csv"),
            "--schema", str(workspace / "schema.json"),
            "--task", "classification", "--out", str(workspace / "out")])
        assert res.exit_code == 2, res.output
        assert "--task" in res.output
        assert not (workspace / "out").exists()

    def test_missing_value_is_data_error(self, workspace):
        (workspace / "bad.csv").write_text("x1,x2,label\n1.0,a,0\n,b,1\n")
        res = CliRunner().invoke(main, [
            "train", "--data", str(workspace / "bad.csv"),
            "--schema", str(workspace / "schema.json"), "--seed", "0"])
        assert res.exit_code == 1
        assert "missing value" in res.output

    def test_target_whose_squares_overflow_is_data_error(self, workspace):
        """Before, this file ended in an IndexError from the split scan."""
        (workspace / "big.csv").write_text(
            "x,y\n1,1e200\n2,-1e200\n3,1e200\n4,1\n5,5\n")
        (workspace / "big.json").write_text(
            json.dumps({"target": "y", "task": "regression"}))
        res = CliRunner().invoke(main, [
            "importance", "--data", str(workspace / "big.csv"),
            "--schema", str(workspace / "big.json"), "--method", "ufi",
            "--trees", "3", "--seed", "1", "--out", str(workspace / "out")])
        assert res.exit_code == 1, res.output
        assert "'1e200' at row 1, column 'y'" in res.output

    @pytest.mark.parametrize("command", [["train"],
                                         ["importance", "--method", "si"]])
    def test_more_levels_than_declared_is_data_error(self, workspace, command):
        # the schema declares {"categorical": 2} for x2, which shows a, b, c
        (workspace / "three.csv").write_text(TOY_CSV + "5.0,c,1\n")
        res = CliRunner().invoke(main, [
            *command, "--data", str(workspace / "three.csv"),
            "--schema", str(workspace / "schema.json"), "--seed", "0",
            "--out", str(workspace / "out")])
        assert res.exit_code == 1
        assert "column 'x2' shows 3 levels, more than the 2" in res.output
        assert not (workspace / "out").exists()

    def test_fewer_levels_than_declared_are_coded_as_found(self, workspace):
        schema = {**TOY_SCHEMA, "kinds": {"x2": {"categorical": 5}}}
        (workspace / "five.json").write_text(json.dumps(schema))
        res = _run(["train", "--data", str(workspace / "data.csv"),
                    "--schema", str(workspace / "five.json"), "--trees", "1",
                    "--seed", "0", "--out", str(workspace / "out")])
        assert res.exit_code == 0, res.output
        payload = json.loads((workspace / "out" / "model.json").read_text())
        assert payload["feature_names"] == ["x1", "x2=a", "x2=b"]

    def test_bad_binary_value_is_data_error(self, workspace):
        (workspace / "bin.csv").write_text("b,label\n0,0\n1,1\n3,0\n")
        (workspace / "bin.json").write_text(json.dumps({
            "target": "label", "task": "classification", "kinds": {"b": "binary"}}))
        res = CliRunner().invoke(main, [
            "train", "--data", str(workspace / "bin.csv"),
            "--schema", str(workspace / "bin.json"), "--seed", "0",
            "--out", str(workspace / "model")])
        assert res.exit_code == 1
        assert "row 3, column 'b'" in res.output

    @pytest.mark.parametrize("flags", [["--trees", "0"], ["--max-depth", "-1"]])
    def test_bad_forest_setting_is_usage_error(self, workspace, flags):
        res = CliRunner().invoke(main, [
            "train", "--data", str(workspace / "data.csv"),
            "--schema", str(workspace / "schema.json"), "--seed", "0",
            *flags, "--out", str(workspace / "model")])
        assert res.exit_code == 2, res.output
        assert not (workspace / "model" / "model.json").exists()

    def test_max_features_override_recorded(self, workspace):
        out = workspace / "model"
        res = _run(["train", "--data", str(workspace / "data.csv"),
                    "--schema", str(workspace / "schema.json"),
                    "--trees", "2", "--max-features", "1", "--seed", "0",
                    "--out", str(out)])
        assert res.exit_code == 0, res.output
        payload = json.loads((out / "model.json").read_text())
        manifest = json.loads((out / "manifest.json").read_text())
        assert payload["config"]["max_features"] == 1
        assert manifest["config"]["max_features"] == 1
        assert Forest.from_dict(payload).config.tree.max_features == 1

    def test_max_features_float_spellings_are_fractions(self, workspace):
        """1e-1 is the fraction 0.1, as 0.1 is; an integer literal stays a
        count."""
        models = []
        for value in ("0.1", "1e-1", "1"):
            out = workspace / f"model_{value}"
            res = _run(["train", "--data", str(workspace / "data.csv"),
                        "--schema", str(workspace / "schema.json"), "--trees", "3",
                        "--max-features", value, "--seed", "0", "--out", str(out)])
            assert res.exit_code == 0, res.output
            models.append((out / "model.json").read_bytes())
        assert models[0] == models[1]
        assert json.loads(models[1])["config"]["max_features"] == 0.1
        assert json.loads(models[2])["config"]["max_features"] == 1

    @pytest.mark.parametrize("value", ["1e2", "nan", "x"])
    def test_bad_max_features_is_usage_error(self, workspace, value):
        res = CliRunner().invoke(main, [
            "train", "--data", str(workspace / "data.csv"),
            "--schema", str(workspace / "schema.json"), "--seed", "0",
            "--max-features", value, "--out", str(workspace / "model")])
        assert res.exit_code == 2, res.output

    def test_same_seed_byte_identical_models(self, workspace):
        args = ["train", "--data", str(workspace / "data.csv"),
                "--schema", str(workspace / "schema.json"),
                "--trees", "3", "--seed", "7"]
        _run(args + ["--out", str(workspace / "m1")])
        _run(args + ["--out", str(workspace / "m2")])
        assert (workspace / "m1" / "model.json").read_bytes() \
            == (workspace / "m2" / "model.json").read_bytes()


class TestImportance:
    def test_ufi_oob_report_structure(self, workspace):
        out = workspace / "imp"
        res = _run(["importance", "--data", str(workspace / "data.csv"),
                    "--schema", str(workspace / "schema.json"),
                    "--method", "ufi", "--test", "oob",
                    "--trees", "5", "--seed", "1", "--out", str(out)])
        assert res.exit_code == 0, res.output
        payload = json.loads((out / "scores.json").read_text())
        assert payload["method"] == "ufi"
        assert payload["feature_names"] == ["x1", "x2"]  # folded
        assert "skipped_nodes" in payload

    def test_ufi_with_train_as_test_equals_si(self, workspace):
        common = ["--data", str(workspace / "data.csv"),
                  "--schema", str(workspace / "schema.json"),
                  "--trees", "2", "--no-bootstrap", "--seed", "3",
                  "--max-features", "all"]
        _run(["importance", *common, "--method", "ufi",
              "--test", str(workspace / "data.csv"),
              "--out", str(workspace / "ufi_out")])
        _run(["importance", *common, "--method", "si",
              "--out", str(workspace / "si_out")])
        ufi = json.loads((workspace / "ufi_out" / "scores.json").read_text())
        si = json.loads((workspace / "si_out" / "scores.json").read_text())
        assert ufi["scores"] == si["scores"]

    def test_inject_random_adds_probe_column(self, workspace):
        out = workspace / "probe"
        res = _run(["importance", "--data", str(workspace / "data.csv"),
                    "--schema", str(workspace / "schema.json"),
                    "--method", "si", "--inject-random",
                    "--trees", "3", "--seed", "2", "--out", str(out)])
        assert res.exit_code == 0, res.output
        payload = json.loads((out / "scores.json").read_text())
        assert payload["feature_names"][-1] == "random"

    def test_zero_trees_is_usage_error(self, workspace):
        out = workspace / "imp"
        res = CliRunner().invoke(main, [
            "importance", "--data", str(workspace / "data.csv"),
            "--schema", str(workspace / "schema.json"), "--method", "ufi",
            "--trees", "0", "--seed", "0", "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert not (out / "scores.json").exists()

    def test_si_with_a_test_file_is_usage_error(self, workspace):
        """si scores the training fit. Before, a --test file was loaded and
        fingerprinted, named in the manifest and never read, and its data
        errors failed the run."""
        (workspace / "bad.csv").write_text("x1,x2,label\n1.0,a,0\n,b,1\n")
        common = ["importance", "--data", str(workspace / "data.csv"),
                  "--schema", str(workspace / "schema.json"), "--method", "si",
                  "--trees", "2", "--seed", "0"]
        out = workspace / "imp"
        res = CliRunner().invoke(main, [*common, "--test", str(workspace / "bad.csv"),
                                        "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert "si scores the training fit; it takes no --test" in res.output
        assert not out.exists()
        _run([*common, "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["test"] is None
        assert manifest["test_dataset"] is None

    def test_manifest_does_not_depend_on_the_run_directory(self, tmp_path):
        manifests = []
        for where in (tmp_path / "a", tmp_path / "b" / "c" / "deeper"):
            where.mkdir(parents=True)
            (where / "data.csv").write_text(TOY_CSV)
            (where / "test.csv").write_text(TOY_CSV)
            (where / "schema.json").write_text(json.dumps(TOY_SCHEMA))
            res = _run(["importance", "--data", str(where / "data.csv"),
                        "--schema", str(where / "schema.json"),
                        "--method", "ufi", "--test", str(where / "test.csv"),
                        "--trees", "2", "--seed", "0", "--out", str(where / "out")])
            assert res.exit_code == 0, res.output
            manifests.append(json.loads((where / "out" / "manifest.json").read_text()))
        for m in manifests:
            del m["duration_s"]
        assert manifests[0] == manifests[1]
        assert manifests[0]["config"]["test"] == "test.csv"
        # the test file has the training file's bytes
        assert manifests[0]["test_dataset"] == {**manifests[0]["dataset"],
                                                "path": "test.csv"}

    @pytest.mark.parametrize("flag", ["--fold-dummies", "--no-fold-dummies"])
    def test_fold_dummies_option_is_gone(self, workspace, flag):
        out = workspace / "imp"
        res = CliRunner().invoke(main, [
            "importance", "--data", str(workspace / "data.csv"),
            "--schema", str(workspace / "schema.json"), "--method", "si",
            flag, "--trees", "2", "--seed", "0", "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert not out.exists()

    def test_scores_fold_to_the_encoded_scores_without_categoricals(
            self, workspace):
        schema = {**TOY_SCHEMA, "kinds": {"x1": "continuous", "x2": "ordinal"}}
        (workspace / "ordinal.json").write_text(json.dumps(schema))
        (workspace / "data.csv").write_text(TOY_CSV.replace(",a,", ",1,")
                                            .replace(",b,", ",2,"))
        out = workspace / "imp"
        res = _run(["importance", "--data", str(workspace / "data.csv"),
                    "--schema", str(workspace / "ordinal.json"),
                    "--method", "si", "--trees", "3", "--seed", "4",
                    "--out", str(out)])
        assert res.exit_code == 0, res.output
        for ext in ("csv", "json"):
            assert (out / f"scores.{ext}").read_bytes() == \
                (out / f"scores_encoded.{ext}").read_bytes()
        header = (out / "scores.csv").read_text().splitlines()[0]
        assert header == "feature,score,sd_across_trees"
        manifest = json.loads((out / "manifest.json").read_text())
        assert "fold_dummies" not in manifest["config"]

    def test_permutation_runs(self, workspace):
        out = workspace / "perm"
        res = _run(["importance", "--data", str(workspace / "data.csv"),
                    "--schema", str(workspace / "schema.json"),
                    "--method", "permutation", "--trees", "4", "--seed", "5",
                    "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert (out / "scores.csv").exists()


def _pair_rows(n, offset):
    lines = []
    for i in range(offset, offset + n):
        x = (i * 37 % 23) / 4
        c = "abc"[i * 7 % 3]
        label = "yes" if x + 2 * (c == "b") + (i % 5) / 2 > 5 else "no"
        lines.append(f"{x},{c},{label}")
    return "x,c,label\n" + "\n".join(lines) + "\n"


PAIR_SCHEMA = {"target": "label", "task": "classification",
               "kinds": {"x": "continuous", "c": "categorical"}}


@pytest.fixture
def pair(tmp_path):
    """A training file that meets levels a, b, c and labels no, yes in that
    order, and a test file that meets them as c, a, b and yes, no."""
    (tmp_path / "train.csv").write_text(_pair_rows(60, 0))
    (tmp_path / "test.csv").write_text(_pair_rows(30, 62))
    (tmp_path / "schema.json").write_text(json.dumps(PAIR_SCHEMA))
    return tmp_path


def _importance(where, test, *flags):
    return CliRunner().invoke(main, [
        "importance", "--data", str(where / "train.csv"),
        "--schema", str(where / "schema.json"), "--test", str(test),
        "--trees", "5", "--seed", "3", *flags, "--out", str(where / "imp")])


def _encode_by_name(text, feature_names, class_labels):
    """The design matrix of a CSV's raw cells, read off the model's
    column=level names and class labels rather than the loader."""
    rows = list(csv.DictReader(io.StringIO(text)))
    X = np.array([[float(r[col] == level) if sep else float(r[col])
                   for col, sep, level in (n.partition("=") for n in feature_names)]
                  for r in rows])
    y = np.array([class_labels.index(r["label"]) for r in rows])
    return X, y


class TestTestFile:
    @pytest.mark.parametrize("method", ["ufi", "permutation"])
    def test_scored_under_the_training_coding(self, pair, method):
        res = _run(["train", "--data", str(pair / "train.csv"),
                    "--schema", str(pair / "schema.json"), "--trees", "5",
                    "--seed", "3", "--out", str(pair / "model")])
        assert res.exit_code == 0, res.output
        res = _importance(pair, pair / "test.csv", "--method", method)
        assert res.exit_code == 0, res.output
        payload = json.loads((pair / "model" / "model.json").read_text())
        forest = Forest.from_dict(payload)
        names, labels = payload["feature_names"], payload["class_labels"]
        assert names == ["x", "c=a", "c=b", "c=c"] and labels == ["no", "yes"]
        X, y = _encode_by_name((pair / "train.csv").read_text(), names, labels)
        Xt, yt = _encode_by_name((pair / "test.csv").read_text(), names, labels)
        if method == "ufi":
            report = ufi_forest(forest, X, y, Xt, yt)
        else:
            rng = np.random.default_rng(np.random.SeedSequence((3, 1)))
            report = permutation_importance(forest, X, y, rng, Xt, yt)
        assert (pair / "imp" / "scores_encoded.csv").read_text() == report.to_csv()

    @pytest.mark.parametrize("row,where", [
        ("9.0,d,no", "row 3, column 'c'"),
        ("9.0,a,maybe", "row 3, column 'label'"),
    ])
    def test_unseen_level_or_label_is_data_error(self, pair, row, where):
        (pair / "bad.csv").write_text("x,c,label\n1.0,a,no\n2.0,b,yes\n" + row + "\n")
        res = _importance(pair, pair / "bad.csv", "--method", "ufi")
        assert res.exit_code == 1, res.output
        assert where in res.output and "training data" in res.output

    def test_test_file_lacking_a_level_scores(self, pair):
        (pair / "ab.csv").write_text("x,c,label\n1.0,a,no\n5.0,b,yes\n")
        res = _importance(pair, pair / "ab.csv", "--method", "ufi")
        assert res.exit_code == 0, res.output
        payload = json.loads((pair / "imp" / "scores_encoded.json").read_text())
        assert payload["feature_names"] == ["x", "c=a", "c=b", "c=c"]

    def test_header_naming_a_column_twice_is_data_error(self, pair):
        (pair / "twice.csv").write_text("x,c,c,label\n1.0,a,b,no\n2.0,b,a,yes\n")
        res = _run(["train", "--data", str(pair / "twice.csv"),
                    "--schema", str(pair / "schema.json"), "--seed", "0",
                    "--out", str(pair / "model")])
        assert res.exit_code == 1
        assert "column 'c' is named twice" in res.output

    def test_probe_named_like_a_column_is_data_error(self, pair):
        (pair / "probe.csv").write_text(
            "x,c,random,label\n1.0,a,0.5,no\n2.0,b,0.1,yes\n")
        res = CliRunner().invoke(main, [
            "importance", "--data", str(pair / "probe.csv"),
            "--schema", str(pair / "schema.json"), "--method", "si",
            "--inject-random", "--trees", "2", "--seed", "0",
            "--out", str(pair / "imp")])
        assert res.exit_code == 1
        assert "column 'random' is named twice" in res.output

    def test_traced_calls_see_both_files(self, pair, monkeypatch):
        # the traced benchmark times data.dummy_encode and
        # data.fold_importances by wrapping these module globals of the CLI
        calls = {"dummy_encode": [], "fold_importances": 0}
        encode, fold = cli.dummy_encode, cli.fold_importances

        def counted_encode(d, *args):
            calls["dummy_encode"].append(d.n)
            return encode(d, *args)

        def counted_fold(*args):
            calls["fold_importances"] += 1
            return fold(*args)

        monkeypatch.setattr(cli, "dummy_encode", counted_encode)
        monkeypatch.setattr(cli, "fold_importances", counted_fold)
        res = _importance(pair, pair / "test.csv", "--method", "ufi")
        assert res.exit_code == 0, res.output
        assert calls == {"dummy_encode": [60, 30], "fold_importances": 1}


class TestSimulate:
    def test_smoke_and_outputs(self, tmp_path):
        out = tmp_path / "sim"
        res = _run(["simulate", "--scenario", "discrete10",
                    "--task", "classification", "--n", "100", "--reps", "2",
                    "--trees", "3", "--max-depth", "3", "--seed", "11",
                    "--methods", "si,ufi", "--out", str(out)])
        assert res.exit_code == 0, res.output
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"si", "ufi"}
        assert (out / "scores.csv").exists()
        assert (out / "manifest.json").exists()

    def test_invalid_rho_is_usage_error(self, tmp_path):
        res = CliRunner().invoke(main, [
            "simulate", "--scenario", "signal", "--task", "classification",
            "--rho", "1.5", "--n", "100", "--reps", "1", "--seed", "0",
            "--out", str(tmp_path / "x")])
        assert res.exit_code == 2

    def test_zero_trees_is_usage_error(self, tmp_path):
        res = CliRunner().invoke(main, [
            "simulate", "--scenario", "signal", "--task", "classification",
            "--n", "100", "--reps", "1", "--trees", "0", "--seed", "0",
            "--out", str(tmp_path / "x")])
        assert res.exit_code == 2

    @pytest.mark.parametrize("methods, message", [("si,si", "named twice"),
                                                  (",", "at least one method")])
    def test_repeated_or_no_method_is_usage_error(self, tmp_path, methods, message):
        out = tmp_path / "x"
        res = CliRunner().invoke(main, [
            "simulate", "--scenario", "discrete10", "--task", "classification",
            "--n", "100", "--reps", "2", "--trees", "2", "--max-depth", "2",
            "--seed", "0", "--methods", methods, "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert message in res.output
        assert not out.exists()

    def test_seed_and_threads_reproducibility(self, tmp_path):
        base = ["simulate", "--scenario", "null-mixed", "--task", "regression",
                "--n", "100", "--reps", "2", "--trees", "4", "--max-depth", "3",
                "--seed", "9", "--methods", "si"]
        _run(base + ["--out", str(tmp_path / "a")])
        _run(base + ["--threads", "3", "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "scores.csv").read_bytes() \
            == (tmp_path / "b" / "scores.csv").read_bytes()


def _command(name, workspace):
    data = ["--data", str(workspace / "data.csv"),
            "--schema", str(workspace / "schema.json")]
    return {
        "train": ["train", *data],
        "importance": ["importance", *data, "--method", "si"],
        "simulate": ["simulate", "--scenario", "null-mixed",
                     "--task", "classification", "--n", "40", "--reps", "1",
                     "--max-depth", "2"],
    }[name]


COMMANDS = ["train", "importance", "simulate"]


class TestThreads:
    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_below_one_is_usage_error(self, workspace, command, threads):
        out = workspace / "out"
        res = CliRunner().invoke(main, [
            *_command(command, workspace), "--trees", "2", "--seed", "0",
            "--threads", threads, "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert "--threads" in res.output
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_manifest_records_the_count_that_ran(self, workspace, command):
        out = workspace / "out"
        res = _run([*_command(command, workspace), "--trees", "1", "--seed", "0",
                    "--threads", "2", "--out", str(out)])
        assert res.exit_code == 0, res.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["threads"] == 1  # one tree needs one worker
        assert "threads" not in manifest["config"]

    def test_model_bytes_do_not_depend_on_threads(self, workspace):
        args = ["train", "--data", str(workspace / "data.csv"),
                "--schema", str(workspace / "schema.json"),
                "--trees", "6", "--seed", "3"]
        for threads in ("1", "2", "4"):
            res = _run(args + ["--threads", threads,
                               "--out", str(workspace / threads)])
            assert res.exit_code == 0, res.output
            manifest = json.loads((workspace / threads / "manifest.json").read_text())
            assert manifest["threads"] == worker_count(int(threads), 6)
        model = (workspace / "1" / "model.json").read_bytes()
        assert (workspace / "2" / "model.json").read_bytes() == model
        assert (workspace / "4" / "model.json").read_bytes() == model
