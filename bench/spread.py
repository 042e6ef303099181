"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads sim-paper,deep-csv,perm-oob --seeds 1-10

For every workload and end-to-end metric this prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
inter-quartile distance as a share of the median, next to the metric's
bound from BENCHMARK.json. ``--out`` also writes every run's values and
provenance as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    prov = next((json.loads(l)["provenance"] for l in lines if l.startswith('{"provenance"')), None)
    return {"seed": seed, "result": result, "provenance": prov}


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {}
    ok = True
    for wl in args.workloads.split(","):
        runs = []
        for s in args.seeds:
            runs.append(run_once(spec, wl, s, args.trace))
            r = runs[-1]["result"]
            ok &= r["correct"]
            print(f"{wl} seed {s}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']}", flush=True)
        stats = {}
        for name in runs[0]["result"]["metrics"]:
            vals = [r["result"]["metrics"][name]["value"] for r in runs]
            stats[name] = summarise(vals)
            b = bounds.get(name)
            st = stats[name]
            spread = st["spread"]
            verdict = "" if b is None else (
                "TOO WIDE" if spread is None or spread > b
                else "ok" if spread < b / 3 else "within bound")
            print(f"  {name:32s} median {st['median']:.6g}  q1 {st['q1']:.6g}  "
                  f"q3 {st['q3']:.6g}  spread "
                  + ("n/a" if spread is None else f"{spread:.4f}")
                  + ("" if b is None else f"  bound {b}  {verdict}"), flush=True)
        report[wl] = {"stats": stats, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
