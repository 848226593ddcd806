"""qdm benchmark: one workload, timed end to end or traced per layer.

Run from the repository root, for example:

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

Each process drives the workload serially, a closed loop with one caller,
at the library's default BLAS threading; nothing here pins threads. With
``--trace 0`` the run starts fresh worker processes one after another until
``--seconds`` have gone by, each timing its set-up, its cold first pass and
a few seconds of warm passes, and reports medians over them: a process's
memory layout and thread placement, and the machine's load over a few
seconds, shift all of its passes alike. With
``--trace 1`` one process reports per-layer self times and counts from
spans, and writes the spans to ``perfbench/out/``.
Every pass's outputs are checked (see workloads.py). The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("quickstart", "stiff", "sweep")
#: Warm-pass seconds each worker process measures (at least one pass).
WORKER_SECONDS = 3.0
#: Fewest workers in a timed run, so every metric is a median of several.
MIN_WORKERS = 3
WORKER_TIMEOUT_S = 160
#: Failure messages kept for the report.
MAX_ERRORS = 5


def import_program() -> float:
    """Import qdm from this checkout's src/ and build its presets, in seconds."""
    if not (SRC / "qdm" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qdm package at {SRC / 'qdm'}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import qdm

    qdm.scenario_presets()
    elapsed = time.perf_counter() - start
    if Path(qdm.__file__).resolve().parent != (SRC / "qdm").resolve():
        raise SystemExit(f"perfbench: imported qdm from {qdm.__file__}, not from {SRC}")
    return elapsed


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure messages,
    and error rows that reproduce an error row of the reference."""

    attempted: int = 0
    failed: int = 0
    expected_errors: int = 0
    errors: list[str] = field(default_factory=list)

    def merge(self, other: dict) -> None:
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.expected_errors += other["expected_errors"]
        self.errors += other["errors"][: max(0, MAX_ERRORS - len(self.errors))]

    def record(self, calls, outcomes, reference) -> None:
        import workloads  # loaded only after import_program has timed qdm's import

        for call, outcome in zip(calls, outcomes):
            self.attempted += call.operations
            if isinstance(outcome, Exception):
                bad = [f"{call.key}: {type(outcome).__name__}: {outcome}"] * call.operations
            else:
                bad, expected = workloads.check(call, outcome, reference)
                self.expected_errors += expected
            self.failed += len(bad)
            self.errors += bad[: max(0, MAX_ERRORS - len(self.errors))]


def run_pass(calls, tracer=None) -> tuple[float, list]:
    """Make every call once; return the wall seconds and each result or exception."""
    outcomes = []
    start = time.perf_counter()
    for call in calls:
        try:
            if tracer is None:
                outcomes.append(call.invoke())
            else:
                with tracer.span(spans.ROOT):
                    outcomes.append(call.invoke())
        except Exception as exc:  # a raising call fails its operations; the run goes on
            outcomes.append(exc)
    return time.perf_counter() - start, outcomes


def warm_passes(calls, reference, tally, seconds, tracer=None) -> list[float]:
    """Repeat passes until `seconds` have gone by, at least one."""
    times: list[float] = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.pass_index += 1
        wall, outcomes = run_pass(calls, tracer)
        times.append(wall)
        tally.record(calls, outcomes, reference)
    return times


def blas_threads() -> list[dict]:
    """Each loaded OpenBLAS library with its configuration and thread count."""
    import ctypes

    libs = []
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.split()[-1].lower()})
    except OSError:
        return libs
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        entry = {"library": Path(path).name}
        for prefix in ("openblas_", "scipy_openblas_"):
            for suffix in ("", "64_"):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None:
                    threads.restype = ctypes.c_int
                    entry["threads"] = threads()
                if config is not None:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
        libs.append(entry)
    return libs


def environment() -> dict:
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "blas": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_qdm_lines": sum(len(p.read_text().splitlines()) for p in (SRC / "qdm").rglob("*.py")),
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with ten samples beyond
    it, or the maximum when there are too few samples for that."""
    ordered = sorted(samples)
    if len(ordered) <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (len(ordered) - 10) / len(ordered), ordered[-11]


def load_workload(args) -> tuple[float, list, dict]:
    """Set-up seconds, the calls of one pass and the reference outputs."""
    setup_s = import_program()
    import workloads  # after the timed import, which it would otherwise include

    return setup_s, workloads.make(args.workload, args.seed), workloads.load_reference()


def worker(args) -> dict:
    """One worker process: set-up, cold first pass, then warm passes."""
    setup_s, calls, reference = load_workload(args)
    tally = Tally()
    first_s, outcomes = run_pass(calls)
    tally.record(calls, outcomes, reference)
    passes = warm_passes(calls, reference, tally, args.seconds)
    return {
        "setup_s": setup_s,
        "first_pass_s": first_s,
        "pass_samples_s": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tally": asdict(tally),
    }


def timed_run(args, tally) -> tuple[dict, dict]:
    """Start workers one after another until `--seconds` have gone by, and
    pool their samples: cheap workloads get more processes, not longer ones."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(WORKER_SECONDS), "--worker"]
    results = []
    start = time.perf_counter()
    while len(results) < MIN_WORKERS or time.perf_counter() - start < args.seconds:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: worker process failed:\n{proc.stderr}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        tally.merge(results[-1]["tally"])
    setups = [r["setup_s"] for r in results]
    firsts = [r["first_pass_s"] for r in results]
    passes = [t for r in results for t in r["pass_samples_s"]]
    pct, tail_s = tail(passes)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "first_pass_s": (statistics.median(firsts), "s"),
        "pass_s": (statistics.median(passes), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in results), "MB"),
    }
    detail = {
        "setup_samples_s": setups,
        "first_pass_samples_s": firsts,
        "pass_samples_s": [r["pass_samples_s"] for r in results],
        f"pass_p{pct:.0f}_s": tail_s,
    }
    return metrics, detail


def traced_run(args, tally) -> tuple[dict, dict]:
    """Half the time untraced, half traced: the difference is the tracing overhead."""
    _, calls, reference = load_workload(args)
    tracer = spans.Tracer()
    tracer.install()
    _, outcomes = run_pass(calls, tracer)
    tally.record(calls, outcomes, reference)
    tracer.uninstall()
    untraced = warm_passes(calls, reference, tally, args.seconds / 2)
    tracer.install()
    first_warm = tracer.pass_index + 1
    traced = warm_passes(calls, reference, tally, args.seconds / 2, tracer)
    tracer.uninstall()
    metrics = spans.layer_metrics(tracer, 0, list(range(first_warm, tracer.pass_index + 1)))
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    out = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(out)
    detail = {
        "untraced_pass_s": statistics.median(untraced),
        "traced_pass_s": statistics.median(traced),
        "absent_layers": tracer.absent(),
        "missing_boundaries": tracer.missing,
        "layer_moves": spans.LAYERS,
        "spans_file": str(out.relative_to(ROOT)),
    }
    return metrics, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.worker:
        print(json.dumps(worker(args)))
        return 0
    tally = Tally()
    metrics, detail = (traced_run if args.trace else timed_run)(args, tally)
    print("env " + json.dumps(environment()))
    detail.update(workload=args.workload, seed=args.seed, failed_frac=tally.failed / tally.attempted,
                  expected_error_rows=tally.expected_errors, errors=tally.errors)
    print("detail " + json.dumps(detail))
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
