"""raagcrypt benchmark: one workload per process, a closed loop with one client.

Run from the repository root:

    python3 perfbench/run.py --workload share --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py): ``share`` deals, transfers, decodes and
reconstructs secrets; ``decide`` runs the word-problem solver on long
words; ``auth`` runs honest authentication sessions; ``attack`` recovers
planted keys by search. Every op's output is checked; a failed check or
an exception counts as a failed op and the run goes on.

With ``--trace 0`` the run sets up the workload SETUP_REPEATS times
(import of the package, input generation, graph and key building,
warm-up ops) and reports the median, then times ops for ``--seconds``
and reports the end-to-end metrics.

The host's speed drifts by about 25% over seconds to minutes, much more
than the changes the benchmark should resolve. So a fixed piece of
reference work runs between ops and around every set-up, and each
end-to-end time is scaled to the speed at which the reference takes
REF_NS: an op's duration is multiplied by REF_NS over the mean of the
reference times measured next to it. The speed changes within a
second, so only the nearest reference runs are used. The unscaled wall
times are printed too.

With ``--trace 1`` it runs a fixed number of ops (TRACE_OPS_PER_SECOND
times ``--seconds``), each once untraced and once traced, reports the
per-layer metrics of the traced ops (unscaled) and the tracing overhead,
and writes the spans to ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The benchmark
never sets ``raag.PARITY_ASSERTS``, never disables ``gc`` and must not
be run under ``-O``: it measures the library as shipped.
"""

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
WARMUP_OPS = 2
REF_NS = 500_000  # the reference work's duration at the nominal speed
REF_WINDOW = 2    # ops on each side whose reference runs set an op's speed
# traced runs cover a fixed number of ops, so their counts repeat exactly
TRACE_OPS_PER_SECOND = {"share": 12, "decide": 12, "auth": 40, "attack": 100}
FAILURES_SHOWN = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("share", "decide", "auth", "attack"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


class Tally:
    """Op outcomes: ops attempted and failed, with the first tracebacks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def attempt(self, fn, args) -> int:
        """Run one op; a raised exception is a failed op, and the run goes on."""
        self.attempted += 1
        try:
            return fn(args)
        except Exception:
            self.failed += 1
            if len(self.failures) < FAILURES_SHOWN:
                self.failures.append(traceback.format_exc())
            return 0


def reference() -> int:
    """Run a fixed piece of pure-Python work; return its duration in ns."""
    t0 = time.perf_counter_ns()
    counts: dict[int, int] = {}
    total = 0
    for i in range(3000):
        key = (i * 7919) % 257
        counts[key] = counts.get(key, 0) + 1
        total += len(counts)
    return time.perf_counter_ns() - t0


def scaled(durations: list[int], refs: list[int]) -> list[float]:
    """Durations at the nominal speed; op ``i`` ran between ``refs[i]``
    and ``refs[i + 1]``."""
    return [d * REF_NS / statistics.fmean(refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 2])
            for i, d in enumerate(durations)]


def percentile(sorted_values, q: float):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def set_up(name: str, seed: int, tally: Tally):
    """Import the package afresh, build the workload and run its warm-up
    ops, which fill lazy caches such as ``SimplicialGraph.nonneighbors``."""
    for module in [m for m in sys.modules
                   if m in ("workloads", "raagcrypt") or m.startswith("raagcrypt.")]:
        del sys.modules[module]
    wl = importlib.import_module("workloads").WORKLOADS[name](seed)
    for i in range(-WARMUP_OPS, 0):
        tally.attempt(wl.run, wl.prepare(i))
    return wl


def run_untraced(args, tally: Tally):
    setups = []  # (duration, mean reference time around it)
    for _ in range(SETUP_REPEATS):
        before = [reference() for _ in range(3)]
        t0 = time.perf_counter_ns()
        wl = set_up(args.workload, args.seed, tally)
        duration = time.perf_counter_ns() - t0
        setups.append((duration, statistics.fmean(before + [reference() for _ in range(3)])))

    deadline = time.perf_counter_ns() + int(args.seconds * 1e9)
    durations, refs = [], [reference()]
    items = i = 0
    while True:
        op_args = wl.prepare(i)
        t0 = time.perf_counter_ns()
        items += tally.attempt(wl.run, op_args)
        t1 = time.perf_counter_ns()
        durations.append(t1 - t0)
        refs.append(reference())
        i += 1
        if t1 >= deadline:
            break

    ms = sorted(d / 1e6 for d in scaled(durations, refs))
    wall_ms = sorted(d / 1e6 for d in durations)
    goodput_name, goodput_unit = wl.goodput
    metrics = {
        "setup_s": (statistics.median(d * REF_NS / r for d, r in setups) / 1e9, "s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p95_ms": (percentile(ms, 0.95), "ms"),
        "goodput_per_s": (items / (sum(ms) / 1e3), "item/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"timed ops {len(ms)}; op_p95_ms has {len(ms) - math.ceil(0.95 * len(ms))} ops beyond it",
        f"goodput_per_s counts {goodput_name} ({goodput_unit})",
        f"host speed: reference work median {statistics.median(refs) / 1e6:.4f} ms "
        f"against {REF_NS / 1e6} ms nominal",
        f"unscaled wall times: set-ups {', '.join(f'{d / 1e9:.4f}' for d, _ in setups)} s; "
        f"op p50 {statistics.median(wall_ms):.4f} ms, p95 {percentile(wall_ms, 0.95):.4f} ms; "
        f"{goodput_name} {items / (sum(wall_ms) / 1e3):.2f}",
    ]
    return wl, metrics, notes


def run_traced(args, tally: Tally):
    ops = max(1, round(args.seconds * TRACE_OPS_PER_SECOND[args.workload]))
    wl = set_up(args.workload, args.seed, tally)
    import tracer
    spans = tracer.Tracer()
    plain, traced = [], []
    # each op runs untraced and traced, alternating which goes first
    for i in range(ops):
        op_args = wl.prepare(i)
        for traced_turn in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_turn:
                spans.install()
                try:
                    t0 = time.perf_counter_ns()
                    spans.run_op(i, lambda a: tally.attempt(wl.run, a), op_args)
                    traced.append(time.perf_counter_ns() - t0)
                finally:
                    spans.uninstall()
            else:
                t0 = time.perf_counter_ns()
                tally.attempt(wl.run, op_args)
                plain.append(time.perf_counter_ns() - t0)
    metrics = spans.layer_metrics()
    overhead = statistics.median(traced) / statistics.median(plain)
    metrics["trace.ops"] = (ops, "op")
    metrics["trace.overhead"] = (overhead, "ratio")
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl"
    spans.write(out)
    notes = [
        f"traced ops {ops}, each also run untraced; {len(spans.spans)} spans written to "
        f"{out.relative_to(ROOT)}",
        f"tracing overhead: traced op_p50_ms {statistics.median(traced) / 1e6:.4f} / "
        f"untraced op_p50_ms {statistics.median(plain) / 1e6:.4f} = {overhead:.4f}",
        "self times of every op's spans add up to its traced duration (checked)",
    ]
    return wl, metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if sys.flags.optimize:
        print("error: run without -O, which changes the library's behaviour", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "raagcrypt" / "__init__.py").is_file():
        print(f"error: no raagcrypt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    tally = Tally()
    run = run_traced if args.trace else run_untraced
    wl, metrics, notes = run(args, tally)

    parity = sys.modules["raagcrypt.raag"].PARITY_ASSERTS
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(f"workload {wl.name}: {json.dumps(wl.params)}")
    print("closed loop, one client, one process, one thread: no layer waits on another "
          "and there is no queue, so no wait time is reported")
    print(f"python {sys.version.split()[0]}, nproc {nproc}, raag.PARITY_ASSERTS {parity}, "
          f"optimize flag {sys.flags.optimize}, seed {args.seed}, seconds {args.seconds}, "
          f"trace {args.trace}")
    print(f"ops attempted {tally.attempted} (with {WARMUP_OPS} warm-up ops per set-up), "
          f"failed {tally.failed}, failed_frac {tally.failed / tally.attempted}")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value} {unit}")
    for failure in tally.failures:
        print(failure, file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
