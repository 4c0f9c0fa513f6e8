"""flatwing benchmark: closed-loop survey, replan-free tracking, large cold plans.

Run from the repository root:

    python3 perfbench/run.py --workload survey --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload survey --seed 0 --seconds 25 --trace 1

One process, one caller, closed loop: each operation starts after the
previous one returns. `--trace 0` times operations untraced for `--seconds`
and prints the end-to-end metrics. `--trace 1` spends a quarter of
`--seconds` on untraced and a quarter on traced operations, writes the
spans to perfbench/out/, measures the allocation peak of one more operation
under tracemalloc and prints the per-layer metrics and the tracing overhead.
Both check every operation's output. The last stdout line is the JSON
result, and the exit code is 1 when a correctness gate fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROCESSES = 3
SETUP_TIMEOUT_S = 60


def _bootstrap() -> None:
    """Import flatwing from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "flatwing" / "__init__.py").is_file():
        raise SystemExit(f"error: no flatwing package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import flatwing

    if Path(flatwing.__file__).resolve().parent != (src / "flatwing").resolve():
        raise SystemExit(f"error: imported flatwing from {flatwing.__file__}")


_bootstrap()
from perfbench import metrics, tracing  # noqa: E402  (needs the paths set above)
from perfbench import workloads as wl  # noqa: E402
from perfbench.host import host_record  # noqa: E402
from perfbench.reference import SpeedSampler  # noqa: E402


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import flatwing, build the inputs and exit "
                         "(what setup_s times)")
    return ap.parse_args(argv)


def _setup_seconds(args) -> float:
    """Median wall time of fresh processes that import flatwing and build inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    walls = []
    for _ in range(SETUP_PROCESSES):
        tic = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - tic)
    return statistics.median(walls)


def _timed_ops(inp, seconds: float) -> list:
    """Run operations until `seconds` have passed (at least one).

    Each operation runs under a SpeedSampler; its wall time excludes the
    samples and its `ref_s` is the mean reference kernel time they saw.
    """
    ops = []
    start = time.perf_counter()
    while True:
        with SpeedSampler() as sampler:
            out, wall = wl.run_op(inp)
        op = wl.summarize(inp, out, wall - sampler.spent, full_check=not ops)
        del out
        op.ref_s = sampler.mean_s()
        ops.append(op)
        print(f"op {len(ops)} wall_s {op.wall:.6f} flight_s {op.flight_s:.6f} "
              f"reference_s {op.ref_s:.6f} samples {len(sampler.samples)}")
        if time.perf_counter() - start >= seconds:
            return ops


def _peak_alloc(inp):
    """One more operation under tracemalloc: its peak in MiB, and its summary."""
    gc.collect()
    tracemalloc.start()
    try:
        out, wall = wl.run_op(inp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20, wl.summarize(inp, out, wall, full_check=False)


def _gate_failures(ops) -> list:
    bad = sorted({f for op in ops for f in op.failures})
    digests = {op.digest for op in ops}
    if len(digests) > 1:
        bad.append(f"output differs between repeats: {len(digests)} distinct SHA-256")
    return bad


def _traced(inp, ops, window, args):
    """Traced operations, then the allocation peak: per-layer metrics."""
    tracer = tracing.Tracer()
    with tracer:
        traced = []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < window:
            tracer.op = len(traced)
            traced.append(wl.run_op(inp))
    traced_ops = [wl.summarize(inp, out, wall, full_check=False) for out, wall in traced]
    del traced
    peak_mib, peak_op = _peak_alloc(inp)
    overhead = min(op.wall for op in traced_ops) / min(op.wall for op in ops) - 1.0
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.csv"
    tracer.write(span_file)
    print(f"spans {len(tracer.spans)} written to {span_file.relative_to(ROOT)}")
    layers = metrics.per_layer(tracer.layer_totals(), tracer.counts, tracer.maxima,
                               len(traced_ops), overhead, peak_mib)
    for name, m in layers.items():
        print(f"layer {name} {m['value']:.6g} {m['unit']}")
    return layers, traced_ops + [peak_op]


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_only:
        wl.generate(ROOT, args.workload, args.seed)
        return 0

    print("host " + json.dumps(host_record(ROOT), sort_keys=True))
    if args.trace == 0:
        setup_s = _setup_seconds(args)
        print(f"metric setup_s {setup_s:.6g} s (median of {SETUP_PROCESSES} processes)")
    inp = wl.generate(ROOT, args.workload, args.seed)
    # A traced run spends a quarter of --seconds untraced and a quarter
    # traced, leaving room for the slow tracemalloc pass.
    window = args.seconds if args.trace == 0 else args.seconds / 4
    ops = _timed_ops(inp, window)
    budget = inp.mcfg.handoff_budget if inp.mcfg else 0.0
    for name, value, unit, samples in metrics.report(args.workload, ops, budget):
        print(f"metric {name} {value:.6g} {unit} ({samples})")

    checked = list(ops)
    if args.trace == 0:
        result_metrics = metrics.end_to_end(ops, setup_s)
    else:
        result_metrics, more = _traced(inp, ops, window, args)
        checked += more

    failures = _gate_failures(checked)
    print(f"output_sha256 {checked[0].digest} (identical across "
          f"{len(checked)} operations: {not any('differs' in f for f in failures)})")
    for f in failures:
        print(f"GATE FAILED: {f}")
    result = {
        "correct": not failures,
        "attempted": sum(op.attempted for op in checked),
        "failed": sum(op.failed for op in checked),
        "metrics": result_metrics,
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
