"""gapchart benchmark: one workload, one process, one closed-loop caller.

    python3 bench/run.py --workload gaps --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the run times every operation with tracing off and
prints the end-to-end metrics. With ``--trace 1`` it alternates untraced
and traced passes over the same inputs and prints the per-layer metrics
(see ``tracer.py``) and the tracing overhead; it writes the spans of the
first traced pass to ``.bench_out/spans-<workload>.tsv``. Each metric
line names a metric and its unit; the last line is one JSON object.

Every operation's result is checked outside its timed interval; an
operation that raises or fails its check counts in ``failed``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# set-up takes about a millisecond, so it is repeated and the median reported
SETUPS_PER_PASS = 5
# loop count of the reference work that each timed operation is scaled by
REFERENCE_LOOPS = 400
MIN_TRACED_PASSES = 2
# (name, unit) in the order BENCHMARK.json lists them
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("pass_rate", "ratio"),
)


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class Run:
    """Operation counts and failures over one run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED {self.workload.name}: {message}", file=sys.stderr)

    def op(self, item) -> tuple[object | None, float]:
        """Run one operation; returns its output (None if it raised) and
        its latency in milliseconds."""
        self.attempted += 1
        t0 = time.perf_counter_ns()
        try:
            out = self.workload.run(item)
        except Exception:
            out = None
            self.fail(traceback.format_exc(limit=3))
        return out, (time.perf_counter_ns() - t0) / 1e6

    def check(self, item, out) -> None:
        try:
            message = self.workload.check(item, out)
        except Exception:
            message = traceback.format_exc(limit=3)
        if message is not None:
            self.fail(message)


def _reference_ms() -> float:
    """Time, in milliseconds, of a fixed piece of interpreter work (about
    0.1 ms): dict stores of fresh tuples, strings and lists."""
    t0 = time.perf_counter_ns()
    d = {}
    for i in range(REFERENCE_LOOPS):
        d[i % 37] = (i, str(i), [i, i + 1])
    return (time.perf_counter_ns() - t0) / 1e6


def _timed_setup(workload) -> tuple[float, float]:
    """Set-up time in seconds, and the reference time just before it."""
    gc.collect()
    ref = _reference_ms()
    t0 = time.perf_counter()
    workload.setup()
    return time.perf_counter() - t0, ref


def measure(workload, pool, seconds: float) -> tuple[Run, dict[str, float]]:
    """End-to-end metrics: whole passes over the pool, closed loop, for
    as many passes as fit in `seconds`, after one untimed warm-up pass.

    Before each operation, outside its timed interval, the heap is
    collected, so that the garbage collections an operation meets are
    its own and not set by the order of the inputs; then the reference
    work is timed. The machine's speed drifts by tens of percent, so each
    repetition is scaled by the reference's fastest time in the run (its
    1st percentile) over the reference time just before it: the latency
    the operation has when the machine runs at its fastest in this run.
    Each input's latency is the median of its scaled repetitions, and
    throughput is the pool over the sum of those medians. Set-up is
    repeated before every pass, scaled the same way, and its median
    reported.
    """
    for item in pool:
        try:
            workload.run(item)
        except Exception:
            pass  # counted when the timed passes meet it
    run = Run(workload)
    setups: list[tuple[float, float]] = []
    reps: list[list[tuple[float, float]]] = [[] for _ in pool]
    deadline = time.perf_counter() + seconds
    pass_s = 0.0
    while not setups or time.perf_counter() + pass_s < deadline:
        t0 = time.perf_counter()
        setups += [_timed_setup(workload) for _ in range(SETUPS_PER_PASS)]
        for i, item in enumerate(pool):
            gc.collect()
            ref = _reference_ms()
            out, ms = run.op(item)
            reps[i].append((ms, ref))
            if out is not None:
                run.check(item, out)
            del out
        pass_s = time.perf_counter() - t0
    refs = [ref for r in reps for _, ref in r] + [ref for _, ref in setups]
    ref_fast = statistics.quantiles(refs, n=100)[0]
    ms = sorted(statistics.median(m / ref for m, ref in r) * ref_fast for r in reps)
    raw = sorted(statistics.median(m for m, _ in r) for r in reps)
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[-1]
    metrics = {
        "setup_s": statistics.median(t / ref for t, ref in setups) * ref_fast,
        "ops_per_s": len(ms) / (sum(ms) / 1e3),
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_rate": (run.attempted - run.failed) / run.attempted,
    }
    print(f"# reference work: fastest {ref_fast:.4f} ms, median "
          f"{statistics.median(refs):.4f} ms over {len(refs)} samples")
    print(f"# unscaled: ops_per_s {len(raw) / (sum(raw) / 1e3):.6g}, latency_p50_ms "
          f"{statistics.median(raw):.6g}, latency_p90_ms "
          f"{statistics.quantiles(raw, n=10, method='inclusive')[-1]:.6g}, setup_s "
          f"{statistics.median(t for t, _ in setups):.6g}")
    print(f"# latency samples: {len(ms)} inputs, {sum(v > p90 for v in ms)} beyond p90, "
          f"each the median of {run.attempted // len(pool)} timed repetitions")
    print(f"# set-up samples: {len(setups)}")
    print(f"# fail_rate: {run.failed / run.attempted:.6f} "
          f"({run.failed} of {run.attempted} operations)")
    return run, metrics


def trace(workload, pool, seconds: float) -> tuple[Run, dict[str, float]]:
    """Per-layer metrics: pairs of one untraced and one traced pass (each
    a setup plus every operation once), as many as fit in `seconds`."""
    import tracer as tracing

    run = Run(workload)
    passes: list[dict[str, float]] = []
    untraced: list[float] = []
    traced: list[float] = []
    deadline = time.perf_counter() + seconds
    pair_s = 0.0
    while len(passes) < MIN_TRACED_PASSES or time.perf_counter() + pair_s < deadline:
        pair_t0 = t0 = time.perf_counter()
        workload.setup()
        outs = [run.op(item)[0] for item in pool]
        untraced.append(time.perf_counter() - t0)
        for item, out in zip(pool, outs):
            if out is not None:
                run.check(item, out)
        del outs

        rec = tracing.Tracer()
        with rec:
            t0 = time.perf_counter()
            workload.setup()
            outs = [run.op(item)[0] for item in pool]
            traced.append(time.perf_counter() - t0)
        # checks and statistics call gapchart too, so they run untraced
        for item, out in zip(pool, outs):
            if out is not None:
                run.check(item, out)
        del outs
        passes.append(tracing.layer_metrics(rec))
        if len(passes) == 1:
            OUT.mkdir(exist_ok=True)
            rec.write_spans(OUT / f"spans-{workload.name}.tsv")
        del rec
        pair_s = time.perf_counter() - pair_t0

    for line in tracing.count_drift(passes):
        print(f"# count drift between passes: {line}")
    metrics = tracing.median_metrics(passes)
    metrics["trace.untraced_s"] = statistics.median(untraced)
    metrics["trace.traced_s"] = statistics.median(traced)
    metrics["trace.overhead_ratio"] = metrics["trace.traced_s"] / metrics["trace.untraced_s"]
    print(f"# traced passes: {len(passes)}")
    return run, metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few inputs per workload, for the self-test")
    args = ap.parse_args(argv)

    if not (SRC / "gapchart" / "__init__.py").is_file():
        print(f"gapchart sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = True
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](tiny=args.tiny)
    workload.setup()
    pool = workload.generate(args.seed)
    for key, value in workload.properties(pool).items():
        print(f"# input {key}: {value}")

    if args.trace:
        run, metrics = trace(workload, pool, args.seconds)
        units = {name: _unit(name) for name in metrics}
    else:
        run, metrics = measure(workload, pool, args.seconds)
        units = dict(END_TO_END)
    for name, value in metrics.items():
        print(f"{name}\t{value:.6g}\t{units[name]}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
