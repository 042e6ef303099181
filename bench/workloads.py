"""The three benchmark workloads: which CLI calls one pass makes, on which
generated inputs, and how each call's outputs are checked."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import inputs


@dataclass
class Call:
    """One CLI invocation (arguments after ``python -m ufitree.cli``)."""

    args: list[str]
    out: Path
    check: Callable[[Path], None]


@dataclass
class Workload:
    calls: Callable[[Path], list[Call]]  # pass directory -> calls of one pass
    # check pass on a finished pass directory; gets the model loader to use
    check_pass: Callable[[Path, Callable], None] | None = None
    # regression forests fitted in the traced run are checked against 2*si
    check_regression_fits: bool = False


N_ENCODED = 1 + sum(inputs.CARDS.values())  # dummy columns after encoding

# sim-paper: the paper's bias experiment at n=1000 with 100 trees per forest
SIM_REPS = {"null": 2, "discrete10": 1}
SIM_METHODS = ["si", "ufi"]


def sim_paper(work: Path, seed: int) -> Workload:
    common = ["--n", "1000", "--trees", "100", "--methods", ",".join(SIM_METHODS),
              "--threads", "2", "--seed", str(seed)]
    designs = [
        ("null", ["--scenario", "null-mixed", "--task", "classification",
                  "--max-depth", "5"], [f"X{i}" for i in range(1, 6)]),
        ("discrete10", ["--scenario", "discrete10", "--task", "regression",
                        "--encoding", "ordinal", "--max-depth", "10"],
         [f"X{i}" for i in range(1, 11)]),
    ]

    def calls(p: Path) -> list[Call]:
        return [
            Call(["simulate", *flags, "--reps", str(SIM_REPS[tag]), *common,
                  "--out", str(p / tag)], p / tag,
                 lambda o, names=names, tag=tag: checks.simulate_outputs(
                     o, names, SIM_METHODS, SIM_REPS[tag]))
            for tag, flags, names in designs
        ]

    return Workload(calls)


def deep_csv(work: Path, seed: int) -> Workload:
    gens = inputs.streams(seed, 3)
    train = inputs.classification_csv(work / "train.csv", 2000, gens[0])
    test = inputs.classification_csv(work / "test.csv", 2000, gens[1])
    forest = ["--trees", "50", "--threads", "1", "--seed", str(seed)]
    data = ["--data", str(train.csv), "--schema", str(train.schema)]

    def calls(p: Path) -> list[Call]:
        return [
            Call(["train", *data, *forest, "--out", str(p / "train")], p / "train",
                 lambda o: checks.require((o / "model.json").stat().st_size > 0,
                                          "empty model.json")),
            Call(["importance", *data, "--method", "ufi", "--test", str(test.csv),
                  *forest, "--out", str(p / "ufi")], p / "ufi",
                 lambda o: checks.importance_outputs(o, inputs.FEATURES, N_ENCODED)),
        ]

    def check_pass(p: Path, from_dict: Callable):
        payload = json.loads((p / "train" / "model.json").read_text())
        model = from_dict(payload)
        checks.require(model.n_trees == 50, f"model has {model.n_trees} trees")
        X, y = checks.encode_like_model(train.columns, train.target,
                                        payload["feature_names"], payload["class_labels"])
        checks.ufi_si_identity(model, X, y, 1.0)

    return Workload(calls, check_pass)


def perm_oob(work: Path, seed: int) -> Workload:
    gens = inputs.streams(seed, 3)
    # same stream as deep-csv's training file, so both use one classification CSV
    cls = inputs.classification_csv(work / "cls.csv", 2000, gens[0])
    reg = inputs.regression_csv(work / "reg.csv", 1000, gens[2])
    flags = ["--method", "permutation", "--test", "oob", "--trees", "20",
             "--threads", "1", "--seed", str(seed)]

    def calls(p: Path) -> list[Call]:
        return [
            Call(["importance", "--data", str(inp.csv), "--schema", str(inp.schema),
                  *flags, "--out", str(p / tag)], p / tag,
                 lambda o: checks.importance_outputs(o, inputs.FEATURES, N_ENCODED))
            for tag, inp in (("reg", reg), ("cls", cls))
        ]

    return Workload(calls, check_regression_fits=True)


WORKLOADS = {"sim-paper": sim_paper, "deep-csv": deep_csv, "perm-oob": perm_oob}
