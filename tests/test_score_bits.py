"""Score bits are pinned: any change to them fails here.

Each case runs one fixed-seed ``importance`` call on a small generated
input and compares the sha256 of ``scores_encoded.csv`` with a recorded
digest. The CSV prints every score and its SD across trees with ``repr``,
so a change in the last bit of any score changes the digest. A change
that moves score bits on purpose must update the digests and say why.
"""

import hashlib
import json

import pytest
from click.testing import CliRunner

from ufitree.cli import main

LEVELS = "abc"


def _rows(n, offset, task):
    """Deterministic rows from modular arithmetic: no RNG stream to drift."""
    lines = []
    for i in range(offset, offset + n):
        x1 = (i * 37 % 101) / 10
        x2 = LEVELS[i * 7 % 3]
        x3 = (i * 13 % 17) / 4
        if task == "classification":
            target = "yes" if x1 + 3 * (x2 == "a") + (i * 5 % 11) / 4 > 7 else "no"
        else:
            target = repr(0.5 * x1 - (x2 == "b") + (i * 11 % 7) / 3)
        lines.append(f"{x1},{x2},{x3},{target}")
    return "x1,x2,x3,y\n" + "\n".join(lines) + "\n"


# (task, method, test source) -> sha256 of scores_encoded.csv
DIGESTS = {
    ("classification", "si", "oob"):
        "9e76a5a40fd8397f6aa403c87f62412a7c0c730f987cdd46608853e219dd4bd7",
    ("classification", "ufi", "oob"):
        "52dfc01abcff560519e40220f04eab4ea17f61aba4141345c4f40aec2c5941ab",
    ("classification", "ufi", "test.csv"):
        "e1c843d317140dfedbfa08ba828bb0321d5e9b6d92a898afb77f57d7f2cff50a",
    ("classification", "permutation", "oob"):
        "934f3e33c69a80fa273c8ab30c5ff655818ab183993a4faef6e5a2a399202bb1",
    ("classification", "permutation", "test.csv"):
        "67b07d0e8fba8d54a0108fe14a70a693cc28e18fda05cb74d49582625eee823a",
    ("regression", "si", "oob"):
        "45f39165fb3770971fdbbf0fb863da39aeca86d7dc8f6a812683e26638d85192",
    ("regression", "ufi", "oob"):
        "9c4662459b44e72ab787b68f5d65a8a6cec671c39f9868a4bfb4d6c0888f2530",
    ("regression", "ufi", "test.csv"):
        "c40233450a8b186905e09f0d264fef718a640aa6dd93ee4443db394fb82728a8",
    ("regression", "permutation", "oob"):
        "e84827d9aee357ea4415312c9cdcc3886e04b19073241f22af382f4a97cbbc21",
    ("regression", "permutation", "test.csv"):
        "08d9e0bcbbe882c0e2e36f2db1dbd6572b0a00d78d071f635b55173113a3be13",
}


@pytest.mark.parametrize("task,method,test", list(DIGESTS))
def test_scores_encoded_bits_are_pinned(tmp_path, task, method, test):
    (tmp_path / "train.csv").write_text(_rows(80, 0, task))
    (tmp_path / "test.csv").write_text(_rows(40, 80, task))
    (tmp_path / "schema.json").write_text(json.dumps({
        "target": "y", "task": task,
        "kinds": {"x1": "continuous", "x2": "categorical", "x3": "ordinal"},
    }))
    out = tmp_path / "out"
    res = CliRunner().invoke(main, [
        "importance", "--data", str(tmp_path / "train.csv"),
        "--schema", str(tmp_path / "schema.json"), "--method", method,
        "--test", test if test == "oob" else str(tmp_path / test),
        "--trees", "8", "--seed", "7", "--out", str(out)],
        catch_exceptions=False)
    assert res.exit_code == 0, res.output
    digest = hashlib.sha256((out / "scores_encoded.csv").read_bytes()).hexdigest()
    assert digest == DIGESTS[(task, method, test)]


# sha256 of summary.json from a small fixed-seed simulate run. Its depth-2
# trees leave many features at a score of 0, so avg_rank holds tied ranks.
SUMMARY_DIGEST = "9947ac2086f091e4a2b1e547c6800df8dc9ab43aa480b2e0180e05c7b21db6d5"


def test_simulate_summary_bits_are_pinned(tmp_path):
    out = tmp_path / "sim"
    res = CliRunner().invoke(main, [
        "simulate", "--scenario", "null-mixed", "--task", "classification",
        "--n", "60", "--reps", "5", "--trees", "4", "--max-depth", "2",
        "--methods", "si,ufi", "--seed", "3", "--out", str(out)],
        catch_exceptions=False)
    assert res.exit_code == 0, res.output
    digest = hashlib.sha256((out / "summary.json").read_bytes()).hexdigest()
    assert digest == SUMMARY_DIGEST
