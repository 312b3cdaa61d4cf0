#!/usr/bin/env python3
"""rmtlab benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs `rmtlab.cli.main` in-process, from the `src/` tree next to this
directory, on configs generated from the seed (see workloads.py).  After a
timed set-up it repeats passes over the workload's calls until S seconds
have gone.  Every call is checked: exit code 0, the call's own truth check,
byte-identical outputs on every pass, and at the reference seed the values
recorded in reference/.  With --trace 0 it reports end-to-end metrics; with
--trace 1 it alternates untraced and traced passes and reports per-layer
metrics.  The last line of stdout is the result object; the line before it
holds details (environment, sample counts, failures).

`--record` writes reference/<workload>.json from the reference seed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import glob
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import outputs
import tracer as tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

REFERENCE_SEED = 1
SETUP_REPEATS = 5
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_TIMEOUT_S = 120


class SetupError(RuntimeError):
    """The program under test cannot be imported from this checkout."""


def pin_environment(workload: str) -> None:
    """Drop BLAS thread overrides and set RMTLAB_THREADS; before numpy loads.

    Set-up probes inherit the same environment.
    """
    for name in BLAS_ENV:
        os.environ.pop(name, None)
    os.environ["RMTLAB_THREADS"] = str(workloads.WORKLOADS[workload][0])


def import_rmtlab():
    src = ROOT / "src"
    if not (src / "rmtlab" / "__init__.py").is_file():
        raise SetupError(f"no rmtlab sources under {src}")
    sys.path.insert(0, str(src))
    import rmtlab
    import rmtlab.cli  # noqa: F401  (loads every module the tracer wraps)
    if Path(rmtlab.__file__).resolve().parent != (src / "rmtlab").resolve():
        raise SetupError(f"imported rmtlab from {rmtlab.__file__}")
    return rmtlab


def environment_record() -> dict:
    import ctypes

    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas_threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libs / "*openblas*"))):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_",
                     None)
        if fn is not None:
            fn.restype, fn.argtypes = ctypes.c_int, []
            blas_threads = fn()
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "cpu_count": os.cpu_count(),
            "rmtlab_threads": int(os.environ["RMTLAB_THREADS"]),
            "blas_threads": blas_threads}


# ---------------------------------------------------------------------------
# calls
# ---------------------------------------------------------------------------

class Call:
    """One CLI call of the workload: its config file and output directory."""

    def __init__(self, work: Path, index: int, config: dict):
        self.kind = config["kind"]
        self.config_path = work / f"call{index}.json"
        self.out = work / f"out{index}"
        with open(self.config_path, "w") as fh:
            json.dump(config, fh)

    def argv(self, replicates=None) -> list[str]:
        argv = [self.kind, "--config", str(self.config_path),
                "--out", str(self.out)]
        return argv + (["--replicates", str(replicates)] if replicates else [])


def run_call(cli, call: Call, replicates=None):
    """Run one call; returns (seconds, exit code, failure message or None).

    A call that exits non-zero, or raises, is a failure and not a crash.
    """
    shutil.rmtree(call.out, ignore_errors=True)
    sink = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(call.argv(replicates))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a bug in the program: count it, keep going
        code, error = -1, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if code != 0:
        return seconds, code, f"{call.kind}: exit {code}" + \
            (f" ({error})" if error else "")
    return seconds, code, None


def check_call(call: Call, first_prints, reference) -> tuple[dict, list[str]]:
    """Fingerprint a finished call and list what its outputs get wrong."""
    try:
        report = outputs.load_report(call.out)
        prints = outputs.fingerprint(call.out)
    except (OSError, ValueError) as exc:
        return {}, [f"{call.kind}: unreadable outputs ({exc})"]
    problems = [f"{call.kind}: {p}" for p in _truth(report)]
    if first_prints is not None and prints != first_prints:
        problems.append(f"{call.kind}: outputs differ from the first pass")
    if reference is not None:
        found = outputs.mismatches(reference, outputs.snapshot(call.out))
        problems.extend(f"{call.kind}: reference{m}" for m in found[:3])
    return {"prints": prints, "report": report}, problems


def _truth(report):
    try:
        return workloads.truth_problems(report)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed report ({exc!r})"]


def dir_bytes(path: Path) -> tuple[int, int]:
    files = [p for p in path.iterdir() if p.is_file()] if path.is_dir() else []
    return len(files), sum(p.stat().st_size for p in files)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup(workload: str, seed: int, work: Path):
    """Import rmtlab, write the configs and make the first, untimed call.

    Returns (seconds, rmtlab package, calls, warm-up failure or None).
    """
    start = time.perf_counter()
    rmtlab = import_rmtlab()
    work.mkdir(parents=True, exist_ok=True)
    calls = [Call(work, i, cfg)
             for i, cfg in enumerate(workloads.configs(workload, seed))]
    _, _, failure = run_call(rmtlab.cli, calls[0], replicates=1)
    seconds = time.perf_counter() - start
    shutil.rmtree(calls[0].out, ignore_errors=True)
    return seconds, rmtlab, calls, failure


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
         "--workload", workload, "--seed", str(seed)],
        cwd=str(ROOT), capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Run:
    """The passes of one benchmark run and what their checks found."""

    def __init__(self, workload, seed, cli, calls):
        self.cli = cli
        self.calls = calls
        self.first_prints = [None] * len(calls)
        self.reference = [None] * len(calls)
        if seed == REFERENCE_SEED:
            with open(BENCH / "reference" / f"{workload}.json") as fh:
                self.reference = json.load(fh)["calls"]
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def one_pass(self) -> dict:
        """Run and check every call once; checks are not timed."""
        # Start from a collected heap, as a fresh CLI process would: cyclic
        # garbage of one pass (walks.enumerate_shapes leaves its shape list
        # in a closure cycle) must not pile up across passes.
        gc.collect()
        times, replicates, files, nbytes = [], 0, 0, 0
        for i, call in enumerate(self.calls):
            seconds, _, failure = run_call(self.cli, call)
            times.append(seconds)
            self.attempted += 1
            problems = [failure] if failure else []
            if not failure:
                # the reference is compared once, on the first good output
                first = self.first_prints[i]
                found, problems = check_call(
                    call, first, self.reference[i] if first is None else None)
                if first is None:
                    self.first_prints[i] = found.get("prints")
                replicates += found.get("report", {}).get("replicate_count", 0)
                f, b = dir_bytes(call.out)
                files, nbytes = files + f, nbytes + b
            if problems:
                self.failed += 1
                self.failures.extend(problems)
        wall = sum(times)
        return {"times": times, "wall": wall,
                "replicates_per_s": replicates / wall, "files": files,
                "bytes": nbytes}


def timing(values) -> dict:
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count."""
    values = sorted(values)
    out = {"median": statistics.median(values), "max": values[-1],
           "samples": len(values), "percentile": None}
    for q in (99.9, 99, 95, 90, 75, 50):
        if len(values) * (1 - q / 100) >= 10:
            rank = min(len(values) - 1, math.ceil(q / 100 * len(values)) - 1)
            out["percentile"] = {"q": q, "value": values[rank]}
            break
    return out


def measure(run: Run, seconds: float) -> dict:
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run.one_pass())
    detail = {"wall_s": timing([p["wall"] for p in passes]),
              "replicates_per_s": timing([p["replicates_per_s"]
                                          for p in passes])}
    for i in range(workloads.TIMED_CALLS):
        detail[f"call{i + 1}_s"] = timing([p["times"][i] for p in passes])
    return detail


def measure_traced(run: Run, rmtlab, seconds: float):
    """Alternate untraced and traced passes; per-layer medians of the traced."""
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        if len(untraced) == len(traced):
            untraced.append(run.one_pass()["wall"])
            continue
        tr = tracing.Tracer(rmtlab)
        with tr:
            result = run.one_pass()
        traced.append(result["wall"])
        metrics = tracing.layer_metrics(tr)
        metrics["experiments.files_written"] = result["files"]
        metrics["experiments.bytes_written"] = result["bytes"]
        layers.append(metrics)
    per_layer = {name: statistics.median(m[name] for m in layers)
                 for name in layers[0]}
    per_layer["trace.overhead_s"] = \
        statistics.median(traced) - statistics.median(untraced)
    return per_layer, {"untraced_wall_s": timing(untraced),
                       "traced_wall_s": timing(traced)}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "call1_s": "s",
                    "call2_s": "s", "call3_s": "s", "replicates_per_s": "1/s",
                    "peak_rss_mb": "MB", "ok_ratio": "ratio"}


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name == "graphenergy.solves" \
            or name == "experiments.files_written":
        return "count"
    if name.endswith(".flops_computed"):
        return "flop"
    if name.endswith("bytes_written"):
        return "B"
    if name.endswith("overlap"):
        return "ratio"
    return "s"


def record(workload: str, work: Path) -> int:
    _, rmtlab, calls, _ = setup(workload, REFERENCE_SEED, work)
    snaps = []
    for call in calls:
        _, _, failure = run_call(rmtlab.cli, call)
        if failure:
            print(f"cannot record: {failure}", file=sys.stderr)
            return 1
        snaps.append(outputs.snapshot(call.out))
    with open(BENCH / "reference" / f"{workload}.json", "w") as fh:
        json.dump({"seed": REFERENCE_SEED, "calls": snaps}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write reference/<workload>.json and exit")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    pin_environment(args.workload)
    work = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.record:
            return record(args.workload, work)
        return _bench(args, work)
    except SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it


def _bench(args, work) -> int:
    setup_s, rmtlab, calls, warm_failure = setup(args.workload, args.seed,
                                                 work)
    if args.probe_setup:
        print(repr(setup_s))
        return 0 if warm_failure is None else 1
    run = Run(args.workload, args.seed, rmtlab.cli, calls)
    run.attempted += 1
    if warm_failure:
        run.failed += 1
        run.failures.append(f"set-up call: {warm_failure}")
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "env": environment_record()}
    if args.trace:
        metrics, timings = measure_traced(run, rmtlab, args.seconds)
        units = {name: layer_unit(name) for name in metrics}
    else:
        setups = [setup_s] + [probe_setup(args.workload, args.seed)
                              for _ in range(SETUP_REPEATS - 1)]
        timings = measure(run, args.seconds)
        timings["setup_s"] = timing(setups)
        metrics = {name: t["median"] for name, t in timings.items()}
        metrics["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["ok_ratio"] = 1 - run.failed / run.attempted
        units = END_TO_END_UNITS
    detail.update({"timings": timings,
                   "failed_ratio": run.failed / run.attempted,
                   "failures": run.failures[:20]})
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
