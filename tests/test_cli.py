import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from ufitree.cli import main
from ufitree.forest import Forest

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
        assert payload["version"] == "ufiforest/4"
        tree = payload["trees"][0]
        splits = [f for f, lo in zip(tree["feature"], tree["left"]) if lo != -1]
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

    def test_missing_value_is_data_error(self, workspace):
        (workspace / "bad.csv").write_text("x1,x2,label\n1.0,a,0\n,b,1\n")
        res = CliRunner().invoke(main, [
            "train", "--data", str(workspace / "bad.csv"),
            "--schema", str(workspace / "schema.json"), "--seed", "0"])
        assert res.exit_code == 1
        assert "missing value" in res.output

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

    def test_permutation_runs(self, workspace):
        out = workspace / "perm"
        res = _run(["importance", "--data", str(workspace / "data.csv"),
                    "--schema", str(workspace / "schema.json"),
                    "--method", "permutation", "--trees", "4", "--seed", "5",
                    "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert (out / "scores.csv").exists()


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

    def test_seed_and_threads_reproducibility(self, tmp_path):
        base = ["simulate", "--scenario", "null-mixed", "--task", "regression",
                "--n", "100", "--reps", "2", "--trees", "4", "--max-depth", "3",
                "--seed", "9", "--methods", "si"]
        _run(base + ["--out", str(tmp_path / "a")])
        _run(base + ["--threads", "3", "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "scores.csv").read_bytes() \
            == (tmp_path / "b" / "scores.csv").read_bytes()
