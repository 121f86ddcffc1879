"""Columnar kernel throughput — fused superops vs batched opcode dispatch.

The point of the columnar engine: on the Figure 16 SPEC OMP sweep (8
serialised threads, scale 3) the fused-superop kernels of
``repro.core.kernel`` must process at least **1.8x** the events/second
of the batched ``consume_batch`` loops over the identical trace, on the
geometric mean across the subset, for both profilers (drms and rms).

The batched path still dispatches one opcode per memory event; the
columnar path replays each stride-1 run superop with one leaf-segment
classification plus a bulk slice stamp.  In those kernel columns fusion
(:func:`repro.core.events.fuse_batch`) runs once per workload *outside*
the timed region, as the sweep engine does when it fuses a recorded
cell once for all its replays.

The **bytes → profile** columns time what a replay from a stored trace
pays end to end: v3 section decode (:func:`iter_section_batches`),
fusion and the kernel for the columnar engine, decode and the kernel
for the batched one.  Fusion has to pay for itself there: the
columnar engine must beat batched dispatch from the same bytes
(geomean >= **1.0x** for both profilers).

Results are written to ``BENCH_kernel.json`` at the repo root so the
README performance table and CI can track the ratio.  Also runnable
directly: ``PYTHONPATH=src python benchmarks/bench_kernel.py``
(``--quick`` for the CI smoke variant).
"""

import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

from repro.core import DrmsProfiler, FULL_POLICY
from repro.core.events import count_superops, encode_events, fuse_batch
from repro.core.rms import RmsProfiler
from repro.core.tracefile import iter_section_batches
from repro.tools import geometric_mean
from repro.workloads.registry import get_workload

SPEC_SUBSET = ("md", "nab", "swim", "ilbdc")
THREADS = 8
SCALE = 3
MIN_SPEEDUP = 1.8
#: bytes -> profile with fusion timed: columnar must not lose to batched
MIN_E2E_SPEEDUP = 1.0
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"


def record(name, threads=THREADS, scale=SCALE):
    machine = get_workload(name).build(threads=threads, scale=scale)
    machine.run()
    return machine.trace


def timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _median_pair(batched_run, columnar_run, repeats):
    """One untimed warm-up each, then interleaved median-of repeats so
    CPU frequency drift hits both sides equally and a single outlier
    repeat can't set the reported number."""
    batched_run()
    columnar_run()
    batched_times = []
    columnar_times = []
    for _ in range(repeats):
        batched_times.append(timed(batched_run))
        columnar_times.append(timed(columnar_run))
    return statistics.median(batched_times), statistics.median(columnar_times)


def measure_workload_kernel(name, repeats, scale=SCALE):
    trace = record(name, scale=scale)
    batch = encode_events(trace)
    fused = fuse_batch(batch)
    runs, covered = count_superops(fused)
    n = len(trace)

    def drms_batched():
        profiler = DrmsProfiler(policy=FULL_POLICY, keep_activations=False)
        profiler.consume_batch(batch)

    def drms_columnar():
        profiler = DrmsProfiler(policy=FULL_POLICY, keep_activations=False)
        profiler.consume_columnar(fused)

    def rms_batched():
        profiler = RmsProfiler(keep_activations=False)
        profiler.consume_batch(batch)

    def rms_columnar():
        profiler = RmsProfiler(keep_activations=False)
        profiler.consume_columnar(fused)

    payload = batch.to_bytes()

    def from_bytes(make, columnar):
        def run():
            profiler = make()
            if columnar:
                for section in iter_section_batches(payload):
                    profiler.consume_columnar(fuse_batch(section))
            else:
                for section in iter_section_batches(payload):
                    profiler.consume_batch(section)

        return run

    def make_drms():
        return DrmsProfiler(policy=FULL_POLICY, keep_activations=False)

    def make_rms():
        return RmsProfiler(keep_activations=False)

    drms_b, drms_c = _median_pair(drms_batched, drms_columnar, repeats)
    rms_b, rms_c = _median_pair(rms_batched, rms_columnar, repeats)
    drms_eb, drms_ec = _median_pair(
        from_bytes(make_drms, False), from_bytes(make_drms, True), repeats
    )
    rms_eb, rms_ec = _median_pair(
        from_bytes(make_rms, False), from_bytes(make_rms, True), repeats
    )
    return {
        "events": n,
        "superop_runs": runs,
        "fused_events": covered,
        "fused_fraction": covered / n if n else 0.0,
        "mean_run_length": covered / runs if runs else 0.0,
        "drms_batched_time": drms_b,
        "drms_columnar_time": drms_c,
        "drms_batched_events_per_sec": n / drms_b,
        "drms_columnar_events_per_sec": n / drms_c,
        "drms_speedup": drms_b / drms_c,
        "rms_batched_time": rms_b,
        "rms_columnar_time": rms_c,
        "rms_batched_events_per_sec": n / rms_b,
        "rms_columnar_events_per_sec": n / rms_c,
        "rms_speedup": rms_b / rms_c,
        "drms_bytes_batched_time": drms_eb,
        "drms_bytes_columnar_time": drms_ec,
        "drms_bytes_columnar_events_per_sec": n / drms_ec,
        "drms_bytes_speedup": drms_eb / drms_ec,
        "rms_bytes_batched_time": rms_eb,
        "rms_bytes_columnar_time": rms_ec,
        "rms_bytes_columnar_events_per_sec": n / rms_ec,
        "rms_bytes_speedup": rms_eb / rms_ec,
    }


def run_suite(quick=False):
    repeats = 3 if quick else 7
    scale = 2 if quick else SCALE
    workloads = {
        name: measure_workload_kernel(name, repeats, scale=scale)
        for name in SPEC_SUBSET
    }
    drms_speedup = geometric_mean(
        [w["drms_speedup"] for w in workloads.values()]
    )
    rms_speedup = geometric_mean([w["rms_speedup"] for w in workloads.values()])
    drms_bytes = geometric_mean(
        [w["drms_bytes_speedup"] for w in workloads.values()]
    )
    rms_bytes = geometric_mean(
        [w["rms_bytes_speedup"] for w in workloads.values()]
    )
    results = {
        "suite": "specomp",
        "threads": THREADS,
        "scale": scale,
        "repeats": repeats,
        "quick": quick,
        "timing": "median of repeats after one untimed warm-up",
        "python": sys.version,
        "platform": platform.platform(),
        "engines": "columnar (fused superops) vs batched opcode dispatch",
        "workloads": workloads,
        "geomean_drms_speedup": drms_speedup,
        "geomean_rms_speedup": rms_speedup,
        "min_required_speedup": MIN_SPEEDUP,
        "geomean_drms_bytes_speedup": drms_bytes,
        "geomean_rms_bytes_speedup": rms_bytes,
        "min_required_bytes_speedup": MIN_E2E_SPEEDUP,
        "cpu_count": os.cpu_count(),
    }
    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    return results


def print_results(results):
    header = (
        f"{'workload':>10} {'events':>9} {'fused':>6} {'run len':>8} "
        f"{'drms speedup':>13} {'rms speedup':>12} "
        f"{'drms bytes':>11} {'rms bytes':>10}"
    )
    print(header)
    for name, w in results["workloads"].items():
        print(
            f"{name:>10} {w['events']:>9} {w['fused_fraction']:>5.0%} "
            f"{w['mean_run_length']:>8.1f} {w['drms_speedup']:>12.2f}x "
            f"{w['rms_speedup']:>11.2f}x {w['drms_bytes_speedup']:>10.2f}x "
            f"{w['rms_bytes_speedup']:>9.2f}x"
        )
    print(
        f"geomean speedup: drms {results['geomean_drms_speedup']:.2f}x, "
        f"rms {results['geomean_rms_speedup']:.2f}x; bytes -> profile "
        f"(fusion timed): drms {results['geomean_drms_bytes_speedup']:.2f}x, "
        f"rms {results['geomean_rms_bytes_speedup']:.2f}x "
        f"(written to {RESULT_PATH.name})"
    )


def test_columnar_kernel_throughput(benchmark):
    quick = bool(os.environ.get("REPRO_BENCH_QUICK"))
    results = benchmark.pedantic(
        lambda: run_suite(quick=quick), rounds=1, iterations=1
    )
    from _support import print_banner

    print_banner(
        "Kernel: columnar fused superops vs batched dispatch (8 threads)"
    )
    print_results(results)
    for name, w in results["workloads"].items():
        assert w["drms_speedup"] > 1.0, name
        assert w["rms_speedup"] > 1.0, name
    assert results["geomean_drms_speedup"] >= MIN_SPEEDUP
    assert results["geomean_rms_speedup"] >= MIN_SPEEDUP
    assert results["geomean_drms_bytes_speedup"] >= MIN_E2E_SPEEDUP
    assert results["geomean_rms_bytes_speedup"] >= MIN_E2E_SPEEDUP


if __name__ == "__main__":
    print_results(run_suite(quick="--quick" in sys.argv))
