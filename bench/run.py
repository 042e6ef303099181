"""ufitree benchmark: runs the CLI on one seeded workload and prints metrics.

    python3 bench/run.py --workload deep-csv --seed 1 --seconds 35 --trace 0

``--trace 0`` launches each CLI call as a fresh process from this single
process, one after another (a closed loop with one client), and reports the
end-to-end metrics. ``--trace 1`` drives the same calls in-process through
``ufitree.cli.main`` with timing wrappers around the library's public
functions and reports the per-layer metrics. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter

import checks
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_PER_PASS = 2  # timed `--version` calls before each pass
MIN_PASSES = 2   # byte identity across repeats needs at least two passes
MIN_PAIRS = 2    # traced/untraced pass pairs in the traced run


class Tally:
    """Calls attempted and failed; a call fails on a non-zero exit or a
    failed output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str, err: object):
        self.failed += 1
        print(f"FAILED {what}: {err}", file=sys.stderr)


def run_pass(wl: Workload, pass_dir: Path, execute, tally: Tally,
             reference: dict) -> int:
    """Run one pass of the workload's calls; check each call's outputs and
    compare them with the first pass. Returns the bytes written."""
    written = 0
    for call in wl.calls(pass_dir):
        tally.attempted += 1
        rc, log = execute(call.args)
        try:
            checks.require(rc == 0, f"exit code {rc}\n{log()[-2000:]}")
            call.check(call.out)
            digest, size = checks.output_digest(call.out)
            written += size
            first = reference.setdefault(call.out.name, digest)
            checks.require(digest == first, "outputs differ from the first pass")
        except (checks.CheckError, OSError, ValueError, KeyError) as e:
            tally.fail(" ".join(call.args[:1] + [call.out.name]), e)
    return written


def check_pass(wl: Workload, pass_dir: Path, from_dict, tally: Tally):
    if wl.check_pass is None:
        return
    try:
        wl.check_pass(pass_dir, from_dict)
    except (checks.CheckError, OSError, ValueError, KeyError) as e:
        tally.fail("check pass", e)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def room_for_another(started: float, done: int, seconds: float) -> bool:
    """Whether one more round, at the mean length so far, ends within seconds."""
    elapsed = perf_counter() - started
    return elapsed * (done + 1) / done < seconds


def end_to_end(wl: Workload, work: Path, seconds: float, tally: Tally) -> dict:
    log_path = work / "call.log"
    env = child_env()

    def run_cli(args):
        """(exit code, wall seconds, peak RSS in MB) of one CLI process."""
        t0 = perf_counter()
        with open(log_path, "wb") as log:
            proc = subprocess.Popen([sys.executable, "-m", "ufitree.cli", *args],
                                    cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                    stdout=log, stderr=subprocess.STDOUT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: end the child before leaving
                proc.kill()
                proc.wait()
                raise
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def read_log():
        return log_path.read_text(errors="replace")

    def setup_call():
        tally.attempted += 1
        rc, wall, _ = run_cli(["--version"])
        if rc != 0 or "version" not in read_log():
            tally.fail("--version", f"exit code {rc}\n{read_log()[-2000:]}")
            return None
        return wall

    setup_call()  # warm-up: the first call also writes bytecode caches
    setup = []
    passes, sizes, reference = [], [], {}  # passes[i][j]: (wall, rss) of call j
    started = perf_counter()
    while len(passes) < MIN_PASSES or room_for_another(started, len(passes), seconds):
        stats = []

        def execute(args):
            rc, wall, rss = run_cli(args)
            stats.append((wall, rss))
            return rc, read_log

        # set-up samples spread over the run rather than bunched at its start
        setup += filter(None, (setup_call() for _ in range(SETUP_PER_PASS)))
        pass_dir = work / f"pass{len(passes)}"
        sizes.append(run_pass(wl, pass_dir, execute, tally, reference))
        passes.append(stats)
        if len(passes) > 1:
            shutil.rmtree(pass_dir)
    print(f"passes: {len(passes)}; call walls s: "
          f"{[[round(w, 3) for w, _ in p] for p in passes]}")

    from ufitree.forest import Forest
    check_pass(wl, work / "pass0", Forest.from_dict, tally)
    return {
        # one pass: each call's median wall over the passes, summed
        "wall_s": sum(statistics.median(w for w, _ in call) for call in zip(*passes)),
        "setup_s": statistics.median(setup or [0.0]),
        "peak_rss_mb": statistics.median(max(r for _, r in p) for p in passes),
        "output_bytes": statistics.median(sizes),
    }


def traced(wl: Workload, work: Path, seconds: float, tally: Tally) -> dict:
    import click
    from tracing import Tracer, accounting, layer_metrics
    from ufitree import cli
    from ufitree.forest import Forest

    tracer = Tracer()
    main = tracer.wrap("cli", lambda args: cli.main(args, standalone_mode=False))
    call_walls = []

    def execute(args):
        buf = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                main(args)
                rc = 0
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else 1
            except click.ClickException as e:
                rc = e.exit_code
            except Exception:  # a crash is a failed call; the run goes on
                traceback.print_exc(file=buf)
                rc = 1
        call_walls.append(perf_counter() - t0)
        return rc, buf.getvalue

    reference, per_pass, walls = {}, [], {True: [], False: []}
    started, pairs = perf_counter(), 0
    while pairs < MIN_PAIRS or room_for_another(started, pairs, seconds):
        # alternate which side of the pair goes first: ABBA ABBA ...
        for on in (True, False) if pairs % 2 == 0 else (False, True):
            n = len(walls[True]) + len(walls[False])
            tracer.reset()
            call_walls.clear()
            if on:
                tracer.install()
            try:
                run_pass(wl, work / f"pass{n}", execute, tally, reference)
            finally:
                tracer.uninstall()
            wall = sum(call_walls)
            walls[on].append(wall)
            if on:
                per_pass.append(layer_metrics(tracer.spans, tracer.kept))
                print(f"traced pass {n}: " + json.dumps(
                    {k: round(v, 4) for k, v in accounting(tracer.spans, wall).items()}))
                if wl.check_regression_fits and len(per_pass) == 1:
                    check_regression_fits(tracer.kept["forest.fit"], tally)
            if n:
                shutil.rmtree(work / f"pass{n}")
        pairs += 1

    tracer.reset()
    with_span = tracer.wrap("forest.from_dict", Forest.from_dict)
    check_pass(wl, work / "pass0", with_span, tally)
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    metrics["forest.from_dict_s"] = sum(s.dur for s in tracer.spans)
    metrics["trace.overhead_frac"] = \
        statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
    return metrics


def check_regression_fits(fits, tally: Tally):
    """Regression forests from the pass satisfy ufi(in-bag) == 2 * si per tree."""
    for forest, data in fits:
        if forest.task != "regression":
            continue
        try:
            checks.ufi_si_identity(forest, data.X, data.y, 2.0)
        except checks.CheckError as e:
            tally.fail("regression identity", e)


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(load_before: float) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "click")},
        "git_commit": git_commit(),
        "loadavg_1m_before": load_before,
        "loadavg_1m_after": os.getloadavg()[0],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ufitree" / "cli.py").is_file():
        print(f"error: no ufitree sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    load_before = os.getloadavg()[0]

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    tally = Tally()
    try:
        wl = WORKLOADS[args.workload](work / "inputs", args.seed)
        measure = traced if args.trace else end_to_end
        values = measure(wl, work, args.seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(declared):
        print(f"error: measured {sorted(values)}, declared {sorted(declared)}",
              file=sys.stderr)
        return 2
    metrics = {k: {"value": float(values[k]), "unit": u} for k, u in declared.items()}
    for k, m in metrics.items():
        print(f"{args.workload} {k} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} checks: {tally.attempted} calls, {tally.failed} failed, "
          f"error_rate = {tally.failed / max(tally.attempted, 1):.4g}")
    print(json.dumps({"provenance": provenance(load_before)}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
