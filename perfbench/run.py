"""parkline benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload enum_large --seed 1 --seconds 35 --trace 0

Run from the repository root. The program is imported from ./src. The
workload's query list is built from the seed, then run pass after pass
for about --seconds seconds in this one process. Every answer is checked
after its pass, outside the timed region. With --trace 0 the last line reports the end-to-end metrics;
with --trace 1 it reports the per-layer metrics of traced passes, which
alternate with untraced ones to measure the tracing overhead. The line
before the last is a record of the run: environment, pass count, tail
level, sample count and failures.

See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from importlib.util import find_spec
from pathlib import Path
from time import perf_counter

import spans
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 9

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "words_per_s": "1/s",
    "query_p50_s": "s",
    "query_tail_s": "s",
    "peak_rss_mb": "MB",
}


def import_parkline():
    """Import the package from ./src of the checkout, never from elsewhere."""
    if not (SRC / "parkline" / "__init__.py").is_file():
        sys.exit(f"perfbench: no parkline package under {SRC}")
    sys.path.insert(0, str(SRC))
    import parkline
    import parkline.cli

    if SRC not in Path(parkline.__file__).resolve().parents:
        sys.exit(f"perfbench: parkline imported from {parkline.__file__}, not {SRC}")
    return parkline


def environment(pk) -> dict:
    kernels = getattr(pk, "_kernels", None)
    default_backend = getattr(kernels, "default_backend", None)
    return {
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "nproc": os.cpu_count(),
        "numba_available": find_spec("numba") is not None,
        "backend": default_backend() if default_backend else "absent",
        "PARKING_BACKEND": os.environ.get("PARKING_BACKEND", ""),
    }


def cross_backend_check(pk) -> dict:
    """Parking counts agree between every usable backend and the per-word
    python engine on small word spaces, before anything is timed."""
    table = pk.DirTable.from_json(workloads.table_doc(workloads.random_table(random.Random(0), 4)))
    procs = [pk.builtin(n) for n in ("right", "closest", "prime", "lbs")]
    procs.append(pk.table_procedure(table))
    backends = []
    for backend in ("numba", "numpy"):
        try:
            pk._kernels.resolve_backend(backend)
        except ValueError:
            continue
        backends.append(backend)
    mismatches = []
    for p in procs:
        for r in (3, 4):
            reference = pk.count_parking(p, r, backend="python")
            for backend in backends:
                got = pk.count_parking(p, r, backend=backend)
                if got != reference:
                    mismatches.append(f"{p.name} r={r} {backend}={got} python={reference}")
    return {"backends": backends + ["python"], "mismatches": mismatches}


def setup_probe(args, sizes) -> None:
    """Child side of the set-up measurement: import the package and build
    the workload in this fresh interpreter, and print how long that took.
    Process spawn and interpreter start stay outside: on the development
    VM they add 0, 50 or 100 ms at random, whatever the code."""
    start = perf_counter()
    pk = import_parkline()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workloads.build(pk, args.workload, args.seed, sizes, Path(tmp))
        print(perf_counter() - start)


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Set-up time of several fresh interpreters, with a set-up speed probe
    before each child and after the last. The children run one after
    another and are waited for. Returns the raw times and the probes'
    slowness."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        argv.append("--smoke")
    times, slowness = [], [speed.import_probe()]
    for _ in range(SETUP_PROBES):
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
        slowness.append(speed.import_probe())
    return times, slowness


class Failure:
    def __init__(self, error: BaseException) -> None:
        self.text = "".join(traceback.format_exception_only(type(error), error)).strip()


@dataclass
class Pass:
    intervals: list[tuple[float, float]]  # per query, on the monitor's clock
    layers: dict | None  # raw per-layer metrics of a traced pass
    latencies: list[float] | None = None  # scaled, once all probes are in

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)


def run_pass(queries, monitor, tracer=None) -> tuple[Pass, list]:
    intervals, answers = [], []
    for q in queries:
        start = monitor.clock()
        try:
            answer = q.run()
        except Exception as e:  # a failed query is counted, not fatal
            answer = Failure(e)
        intervals.append((start, monitor.clock()))
        answers.append(answer)
        if tracer is not None:
            tracer.end_query()
    return Pass(intervals, tracer.take() if tracer is not None else None), answers


def nearest_rank(values, level: float) -> tuple[float, int]:
    """Value at the given level (nearest rank) and the samples beyond it."""
    ordered = sorted(values)
    rank = min(max(1, math.ceil(len(ordered) * level)), len(ordered))
    return ordered[rank - 1], len(ordered) - rank


class Tally:
    """Answers checked so far. Each pass is checked as soon as it ends, so
    that answers of earlier passes do not pile up in memory."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def check(self, queries, answers) -> None:
        for q, answer in zip(queries, answers):
            self.attempted += 1
            if isinstance(answer, Failure):
                ok, why = False, answer.text
            else:
                try:
                    ok, why = bool(q.check(answer)), "wrong answer"
                except Exception as e:  # a malformed answer is a wrong answer
                    ok, why = False, Failure(e).text
            if not ok:
                self.failed += 1
                if len(self.problems) < 10:
                    self.problems.append(f"{q.label}: {why}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("enum_large", "prob_mass", "many_small"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny problem sizes, for the smoke test")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    if args.setup_probe:
        setup_probe(args, sizes)
        return 0

    # all load comes from this one process, at the CLI's default --jobs
    os.environ.pop("PARKING_JOBS", None)
    pk = import_parkline()

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        queries = workloads.build(pk, args.workload, args.seed, sizes, Path(tmp))
        cross = cross_backend_check(pk)
        setup, setup_slowness = ([], []) if args.trace else measure_setup(args)
        monitor = speed.SpeedMonitor(workloads.PROBES[args.workload])

        # with --trace 1, untraced and traced passes alternate
        tracer = spans.Tracer(monitor.clock) if args.trace else None
        passes: list[Pass] = []
        tally = Tally()
        start = perf_counter()
        with monitor:
            while True:
                traced = tracer is not None and len(passes) % 2 == 1
                if traced:
                    tracer.install()
                try:
                    p, answers = run_pass(queries, monitor, tracer if traced else None)
                finally:
                    if traced:
                        tracer.remove()
                passes.append(p)
                tally.check(queries, answers)
                # at least two passes; then stop where the run ends nearest
                # to --seconds
                elapsed = perf_counter() - start
                if len(passes) >= 2 and elapsed + elapsed / len(passes) / 2 >= args.seconds:
                    break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for p in passes:
        p.latencies = [(end - begin) * monitor.scale(begin, end) for begin, end in p.intervals]
        if p.layers is not None:
            factor = p.wall_s / sum(end - begin for begin, end in p.intervals)
            p.layers = {k: v * factor if spans.METRICS[k] in ("s", "ns") else v for k, v in p.layers.items()}

    attempted, failed = tally.attempted, tally.failed
    for line in tally.problems:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    for line in cross["mismatches"]:
        print(f"perfbench: backend mismatch {line}", file=sys.stderr)

    plain = [p for p in passes if p.layers is None]
    traced = [p for p in passes if p.layers is not None]
    # every statistic is taken within each pass, then the median over passes
    tails = [nearest_rank(p.latencies, workloads.TAIL_LEVEL) for p in plain]
    wall = statistics.median(p.wall_s for p in plain)
    words = sum(q.words for q in queries)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(pk),
        "cross_backend": cross,
        "passes": len(passes),
        "queries_per_pass": len(queries),
        "words_per_pass": words,
        "raw_wall_s": [sum(end - begin for begin, end in p.intervals) for p in passes],
        "tail_level": workloads.TAIL_LEVEL,
        "tail_samples_beyond_per_pass": tails[0][1],
        "setup_raw_s": setup,
        "setup_probe_slowness": setup_slowness,
        "failed_frac": failed / attempted,
    }
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup) / statistics.median(setup_slowness),
            "wall_s": wall,
            "words_per_s": words / wall,
            "query_p50_s": statistics.median(statistics.median(p.latencies) for p in plain),
            "query_tail_s": statistics.median(tail for tail, _ in tails),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    else:
        metrics = {name: statistics.fmean(p.layers[name] for p in traced) for name in spans.METRICS}
        traced_wall = statistics.median(p.wall_s for p in traced)
        metrics["trace.overhead_frac"] = (traced_wall - wall) / wall
        units = {**spans.METRICS, "trace.overhead_frac": "ratio"}
        record["absent_hooks"] = tracer.absent
        record["traced_passes"] = len(traced)
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": failed == 0 and not cross["mismatches"],
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
