"""Command-line interface: train, importance, simulate."""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import __version__
from .data import (
    DataError, Dataset, Encoder, dummy_encode, fold_importances,
    inject_random_feature, load_csv, parse_schema,
)
from .forest import Forest, ForestConfig, fit, worker_count
from .importance import (
    ImportanceReport, permutation_importance, si_forest, ufi_forest,
)
from .simgen import SimSetting, run_experiment, summary_json, tidy_csv
from .tree import TreeConfig

EXIT_DATA_ERROR = 1
EXIT_USAGE_ERROR = 2


def _die_data(msg: str):
    click.echo(f"error: {msg}", err=True)
    sys.exit(EXIT_DATA_ERROR)


def _die_usage(msg: str):
    click.echo(f"error: {msg}", err=True)
    sys.exit(EXIT_USAGE_ERROR)


def _fingerprint(path: str, d: Dataset) -> dict:
    h = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return {"path": os.path.basename(path), "rows": d.n, "cols": d.p, "sha256": h}


def _write_manifest(out_dir: Path, command: str, config: dict, threads: int,
                    fingerprint: dict | None, started: float, extra: dict | None = None):
    # threads is the worker count that ran; it stays out of config because
    # the outputs are the same for every count
    manifest = {
        "command": command,
        "config": config,
        "threads": threads,
        "version": __version__,
        "dataset": fingerprint,
        "duration_s": round(time.time() - started, 3),
    }
    if extra:
        manifest.update(extra)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _parse_max_features(value: str | None):
    if value is None:
        return None
    if value in ("all", "sqrt"):
        return value
    # an integer literal is a count; any other number, such as 0.5 or
    # 1e-1, is a fraction
    for kind in (int, float):
        try:
            return kind(value)
        except ValueError:
            pass
    _die_usage(f"bad --max-features value {value!r}")


def _load_encoded(data_path, schema_path, probe_seed: int | None = None,
                  encoder: Encoder | None = None):
    """(dataset, encoded dataset, encoder) of a CSV, coded by ``encoder`` or
    by one fitted on it, with a random probe column appended first when
    ``probe_seed`` is given."""
    try:
        schema = json.loads(Path(schema_path).read_text())
        target, task, kinds = parse_schema(schema)
    except (OSError, json.JSONDecodeError, DataError) as e:
        _die_usage(f"bad schema: {e}")
    if task not in ("classification", "regression"):
        _die_usage("schema 'task' must be classification or regression")
    declared = {name: kinds[name].cardinality
                for name, spec in schema.get("kinds", {}).items()
                if isinstance(spec, dict)}
    try:
        d = load_csv(data_path, target, task, kinds, encoder)
        for name, kind in zip(d.feature_names, d.kinds):
            if name in declared and len(kind.levels) > declared[name]:
                raise DataError(
                    f"{data_path}: column {name!r} shows {len(kind.levels)} "
                    f"levels, more than the {declared[name]} its schema declares")
        if probe_seed is not None:
            d = inject_random_feature(d, seed=probe_seed)
        return (d, *dummy_encode(d, encoder))
    except (DataError, OSError) as e:
        _die_data(str(e))


def _forest_config(trees, max_depth, max_features, min_samples_leaf,
                   bootstrap, seed, task):
    tree = TreeConfig(max_depth=max_depth, min_samples_leaf=min_samples_leaf,
                      max_features=_parse_max_features(max_features))
    return ForestConfig(n_trees=trees, tree=tree.resolved(task),
                        bootstrap=bootstrap, seed=seed)


def _usage_errors(fn, *args):
    """fn(*args), with a ValueError (a setting the flags do not allow, such
    as --trees 0) reported as a usage error."""
    try:
        return fn(*args)
    except ValueError as e:
        _die_usage(str(e))


def _resolve_seed(seed: int | None) -> int:
    # absent --seed draws a seed so the manifest can still pin the run
    return int.from_bytes(os.urandom(4), "big") if seed is None else seed


def _save_model(path: Path, forest: Forest, encoder: Encoder):
    payload = {**forest.to_dict(), **encoder.to_dict()}
    path.write_text(json.dumps(payload, sort_keys=True) + "\n")


@click.group()
@click.version_option(__version__)
def main():
    """Random forests with debiased split-improvement feature importance."""


forest_flags = [
    click.option("--trees", type=int, default=100, show_default=True),
    click.option("--max-depth", type=int, default=None),
    click.option("--max-features", type=str, default=None,
                 help="all | sqrt | count | fraction: an integer is a count, "
                      "any other number (0.5, 1e-1) a fraction (default: sqrt "
                      "for classification, all for regression)"),
    click.option("--min-samples-leaf", type=int, default=1, show_default=True),
    click.option("--bootstrap/--no-bootstrap", default=True, show_default=True),
    click.option("--seed", type=int, default=None),
    click.option("--threads", type=int, default=1, show_default=True,
                 help="worker processes that grow the trees; at most one per "
                      "CPU and per tree, and 1 where the platform cannot fork. "
                      "Outputs are the same for every count"),
]


def with_forest_flags(f):
    for flag in reversed(forest_flags):
        f = flag(f)
    return f


@main.command("train")
@click.option("--data", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--schema", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(file_okay=False), default="ufitree_model")
@with_forest_flags
def cmd_train(data, schema, out, trees, max_depth, max_features,
              min_samples_leaf, bootstrap, seed, threads):
    """Fit a forest on a CSV and write the model plus a run manifest."""
    started = time.time()
    seed = _resolve_seed(seed)
    d, enc, encoder = _load_encoded(data, schema)
    config = _forest_config(trees, max_depth, max_features, min_samples_leaf,
                            bootstrap, seed, enc.task)
    forest = _usage_errors(fit, enc, config, threads)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _save_model(out_dir / "model.json", forest, encoder)
    _write_manifest(out_dir, "train", forest.config.to_dict(),
                    worker_count(threads, trees), _fingerprint(data, d), started,
                    extra={"class_labels": d.class_labels})
    click.echo(f"model written to {out_dir / 'model.json'}")


@main.command("importance")
@click.option("--data", required=True, type=click.Path(exists=True, dir_okay=False),
              help="training CSV (used to fit, and for OOB evaluation)")
@click.option("--schema", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--method", type=click.Choice(["si", "ufi", "permutation"]),
              required=True)
@click.option("--test", "test_source", type=str, default="oob", show_default=True,
              help="'oob' or a path to a test CSV with the same schema "
                   "(ufi and permutation)")
@click.option("--inject-random", is_flag=True, default=False,
              help="append an independent standard-normal probe column")
@click.option("--out", type=click.Path(file_okay=False), default="ufitree_importance")
@with_forest_flags
def cmd_importance(data, schema, method, test_source, inject_random,
                   out, trees, max_depth, max_features, min_samples_leaf,
                   bootstrap, seed, threads):
    """Train a forest and score features with one importance method."""
    started = time.time()
    seed = _resolve_seed(seed)
    d, enc, encoder = _load_encoded(data, schema, seed + 1 if inject_random else None)
    if method == "si" and test_source != "oob":
        _die_usage("si scores the training fit; it takes no --test")
    if method in ("ufi", "permutation") and test_source == "oob" and not bootstrap:
        _die_usage(f"--method {method} --test oob requires --bootstrap")
    config = _forest_config(trees, max_depth, max_features, min_samples_leaf,
                            bootstrap, seed, enc.task)
    forest = _usage_errors(fit, enc, config, threads)

    if test_source != "oob":
        dt, enc_t, _ = _load_encoded(test_source, schema,
                                     seed + 2 if inject_random else None, encoder)
        xt, yt = enc_t.X, enc_t.y
        test_print = _fingerprint(test_source, dt)
    else:
        xt = yt = test_print = None

    if method == "si":
        report = si_forest(forest)
    elif method == "ufi":
        report = ufi_forest(forest, enc.X, enc.y, xt, yt)
    else:
        rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
        report = permutation_importance(forest, enc.X, enc.y, rng, xt, yt)

    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "scores_encoded.csv").write_text(report.to_csv())
    (out_dir / "scores_encoded.json").write_text(report.to_json() + "\n")
    if any(kind.is_categorical for kind in encoder.kinds):
        # folded onto the original columns
        names, folded = fold_importances(report.scores, encoder)
        lines = ["feature,score"]
        lines += [f"{n},{float(s)!r}" for n, s in zip(names, folded)]
        (out_dir / "scores.csv").write_text("\n".join(lines) + "\n")
        folded_report = ImportanceReport(report.method, names, folded,
                                         report.skipped_nodes, report.n_trees)
        (out_dir / "scores.json").write_text(folded_report.to_json() + "\n")
    else:
        # no column to fold: the encoded report, with its spread across trees
        (out_dir / "scores.csv").write_text(report.to_csv())
        (out_dir / "scores.json").write_text(report.to_json() + "\n")
    # the test file is named as the training file is, by its basename, so
    # that the manifest does not depend on where the run happens
    _write_manifest(out_dir, "importance", {
        **forest.config.to_dict(),
        "method": method,
        "test": None if method == "si" else "oob" if test_print is None
        else test_print["path"],
        "inject_random": inject_random,
    }, worker_count(threads, trees), _fingerprint(data, d), started,
        extra={"test_dataset": test_print})
    click.echo(f"reports written to {out_dir}")


@main.command("simulate")
@click.option("--scenario", type=click.Choice(["null-mixed", "signal", "discrete10"]),
              required=True)
@click.option("--task", type=click.Choice(["classification", "regression"]),
              required=True)
@click.option("--rho", type=float, default=0.0, show_default=True)
@click.option("--n", type=int, default=1000, show_default=True)
@click.option("--reps", type=int, default=100, show_default=True)
@click.option("--encoding", type=click.Choice(["dummy", "ordinal"]),
              default="dummy", show_default=True)
@click.option("--methods", type=str, default="si,ufi", show_default=True,
              help="comma-separated distinct methods of si,ufi,permutation")
@click.option("--out", type=click.Path(file_okay=False), default="ufitree_sim")
@with_forest_flags
def cmd_simulate(scenario, task, rho, n, reps, encoding, methods, out, trees,
                 max_depth, max_features, min_samples_leaf, bootstrap, seed,
                 threads):
    """Run a synthetic benchmark and emit tidy scores plus a summary."""
    started = time.time()
    seed = _resolve_seed(seed)
    method_list = [m.strip() for m in methods.split(",") if m.strip()]
    setting = SimSetting(scenario=scenario.replace("-", "_"), task=task, rho=rho,
                         encoding=encoding, n=n, reps=reps, seed=seed)
    config = _forest_config(trees, max_depth, max_features, min_samples_leaf,
                            bootstrap, seed, task)
    results = _usage_errors(run_experiment, setting, config, method_list,
                            threads)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "scores.csv").write_text(tidy_csv(results))
    (out_dir / "summary.json").write_text(summary_json(results) + "\n")
    _write_manifest(out_dir, "simulate", {
        **config.to_dict(),
        "scenario": setting.scenario, "task": task, "rho": rho, "n": n,
        "reps": reps, "encoding": encoding, "methods": method_list,
    }, worker_count(threads, trees), None, started)
    click.echo(f"results written to {out_dir}")


if __name__ == "__main__":
    main()
