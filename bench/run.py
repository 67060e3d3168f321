"""branchdec benchmark: one workload per process, closed loop, one client.

Run from the repository root:

    python3 bench/run.py --workload classify-sweep --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):
classify-sweep, enumerate-rank4, check-stream.  Everything runs on one
thread, stdlib only, against the program in ``src/`` next to this
directory.  A run repeats whole passes while the next one is expected to
end within ``--seconds`` (at least one pass) and checks every answer
against the golden verdicts.

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
Times are in reference seconds, scaled by the machine speed sampled while
they were taken (see speed.py); the report also prints the raw seconds.

  wall_s        median time of one pass (calls into the program only)
  ops_per_s     correct operations per second over all passes
  op_p50_ms     median latency of one command or call (nearest rank)
  op_p90_ms     90th percentile of the same; the report says how many
                samples lie beyond it (fewer than ten on classify-sweep
                and enumerate-rank4, where it is the slow command itself)
  setup_s       median over eight fresh interpreters, half before and half
                after the passes, of ``import branchdec`` plus the first
                ``load_catalog()``
  peak_rss_mib  ``ru_maxrss`` of this process

The failure ratio is ``failed / attempted`` in the result line.

``--trace 1`` runs one untraced pass and then two traced passes, and
prints the per-layer metrics of tracing.py from the traced passes.  Every
count must repeat exactly between the two; self times are their mean.
Spans are written to ``.bench_out/spans-<workload>-<pass>.tsv``.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from speed import REFERENCE_S, SpeedSampler
from tracing import (Tracer, dominant_layer, inclusive_times, is_count,
                     layer_metrics)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# fresh-interpreter starts before and after the passes, so the median
# spans the run rather than one moment of it
SETUP_STARTS = 4
# the kernel is timed after the import, which it would otherwise shorten
# by importing fractions first
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import branchdec\n"
    "from branchdec.catalog import load_catalog\n"
    "load_catalog()\n"
    "t1 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import speed, statistics\n"
    "k = statistics.median(speed.kernel_seconds() for _ in range(5))\n"
    "print(t1 - t0, k)\n"
)

TAIL_CANDIDATES = (50, 90, 99, 99.9)
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: an observed value, never an interpolation."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def _rank(n: int, p: float) -> int:
    # exact, so that p99.9 of 10,000 samples is rank 9,990
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def samples_beyond(n: int, p: float) -> int:
    return n - _rank(n, p)


def tail_percentile(n: int, candidates=TAIL_CANDIDATES):
    """The highest candidate percentile with at least ten samples beyond
    it, as (percentile, samples beyond), or None when even p50 has fewer.
    """
    best = None
    for p in candidates:
        beyond = samples_beyond(n, p)
        if beyond >= MIN_BEYOND:
            best = (p, beyond)
    return best


def measure_setup(starts: int = SETUP_STARTS) -> list[tuple[float, float]]:
    """(seconds, reference seconds) for import plus first catalog load, one
    fresh interpreter per sample; one unmeasured start first writes the
    bytecode cache."""
    samples = []
    for i in range(starts + 1):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(BENCH_DIR)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        raw, kernel = map(float, proc.stdout.split())
        if i:
            samples.append((raw, raw * REFERENCE_S / kernel))
    return samples


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("lp_per_face"):
        return "lp/face"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def raw_seconds(res) -> float:
    return sum(t1 - t0 for t0, t1 in res.op_times)


def run_untraced(wl, seconds: float):
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(wl.check(wl.run()))
        elapsed = time.perf_counter() - start
        if elapsed + raw_seconds(passes[-1]) > seconds:
            return passes


def report_failures(passes) -> None:
    for res in passes:
        for line in res.failures:
            print(f"FAILED {line}")


def end_to_end(wl, seconds: float):
    setup = measure_setup()
    with SpeedSampler() as sampler:
        passes = run_untraced(wl, seconds)
    setup += measure_setup()
    report_failures(passes)
    scaled = [[sampler.scaled(t0, t1) for t0, t1 in res.op_times]
              for res in passes]
    latencies = [s * 1000 for ops in scaled for s in ops]
    total_s = sum(map(sum, scaled))
    ok = sum(res.ok for res in passes)
    attempted = sum(res.attempted for res in passes)
    failed = sum(res.failed for res in passes)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": _metric(statistics.median(map(sum, scaled)), "s"),
        "ops_per_s": _metric(ok / total_s, "1/s"),
        "op_p50_ms": _metric(percentile(latencies, 50), "ms"),
        "op_p90_ms": _metric(percentile(latencies, 90), "ms"),
        "setup_s": _metric(statistics.median(s for _, s in setup), "s"),
        "peak_rss_mib": _metric(rss_kib / 1024, "MiB"),
    }
    n = len(latencies)
    tail = tail_percentile(n)
    print(f"{wl.name}: {len(passes)} pass(es), {attempted // len(passes)} "
          f"{wl.unit} per pass, {n} latency samples")
    print(f"  op_p90_ms has {samples_beyond(n, 90)} samples beyond it; "
          "highest percentile with ten beyond: "
          + (f"p{tail[0]:g} ({tail[1]} beyond)" if tail else "none"))
    print(f"  fail_ratio {failed / attempted:.6f} = {failed} / {attempted} "
          f"{wl.unit}")
    print(f"  raw seconds: pass {[round(raw_seconds(r), 3) for r in passes]}"
          f", setup median {statistics.median(r for r, _ in setup):.4f}; "
          f"{len(sampler.kernel_s)} speed samples, median kernel "
          f"{statistics.median(sampler.kernel_s) * 1000:.3f} ms")
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    return failed == 0, attempted, failed, metrics


def traced(wl, name: str):
    baseline = wl.check(wl.run())
    passes, per_pass, tracers = [baseline], [], []
    for k in range(2):
        tracer = Tracer()
        with tracer:
            raw = wl.run(tracer.mark)
        res = wl.check(raw)
        passes.append(res)
        per_pass.append(layer_metrics(tracer.spans, res.stdout_bytes))
        tracers.append(tracer)
        wall = raw_seconds(res)
        top = sorted(inclusive_times(tracer.spans).items(),
                     key=lambda kv: -kv[1])[:4]
        print(f"traced pass {k}: {len(tracer.spans)} spans, {wall:.3f} s; "
              "most time inside: "
              + ", ".join(f"{n} {t / wall:.0%}" for n, t in top))
    for k, tracer in enumerate(tracers):
        tracer.write(ROOT / ".bench_out" / f"spans-{name}-{k}.tsv")
    report_failures(passes)
    first, second = per_pass
    mismatched = [m for m in first if is_count(m) and first[m] != second[m]]
    for m in mismatched:
        print(f"COUNT MISMATCH {m}: {first[m]} then {second[m]}")
    merged = {m: (first[m] + second[m]) / 2 if not is_count(m) else first[m]
              for m in first}
    traced_wall = statistics.median(map(raw_seconds, passes[1:]))
    merged["trace.overhead_ratio"] = traced_wall / raw_seconds(baseline)
    print(f"{wl.name}: dominant layer by self time: {dominant_layer(merged)}")
    metrics = {m: _metric(v, layer_unit(m)) for m, v in merged.items()}
    for m, v in metrics.items():
        print(f"  {m} {v['value']:.6g} {v['unit']}")
    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)
    return failed == 0 and not mismatched, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "branchdec" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed)
    if args.trace:
        result = traced(wl, args.workload)
    else:
        result = end_to_end(wl, args.seconds)
    correct, attempted, failed, metrics = result
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
