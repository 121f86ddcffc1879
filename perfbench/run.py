"""One benchmark command for the aprof-drms pipeline.

    python3 perfbench/run.py --workload fig4-replay --seed 1 --seconds 20 --trace 0

Runs one closed-loop workload (``fig4-replay``, ``specomp-sweep`` or
``service-jobs``) from the root of a checkout and prints, as the last
line of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones, measured with tracing off; with
``--trace 1`` they are the per-layer ones of a traced run, which also
writes a Chrome-trace span file under ``.perfbench/``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
#: benchmark output (span files, scratch stores) inside the checkout
OUT_DIR = ".perfbench"
#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 5
#: a run performs at least this many primary operations
MIN_PRIMARY_OPS = 40


def _import_program():
    """Put the checkout's ``src`` on the path; fail loudly without it."""
    src = os.path.join(os.path.dirname(HERE), "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"perfbench: no program sources at {src}")
    sys.path.insert(0, src)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)


def turn(workload, i: int) -> int:
    """Operation ``i``'s place in the alternation 0, 1, 0, 1, ...,
    shifted by one each round so that every operation of a round takes
    both parts in turn over the rounds."""
    return i % workload.round_size + i // workload.round_size


class Placement:
    """Swaps the client and its pool or worker processes between two
    CPUs every other operation.

    On the reference host the two vCPUs run this code at speeds that
    differ by up to 40% and trade places over minutes (the same
    operation took 48 ms on one and 69 ms on the other, and a few
    minutes later 72 ms and 55 ms).  A process left alone stays on the
    CPU it landed on, which made run medians bimodal; swapping lets
    every run see both CPUs in equal shares."""

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.pair = (self.cpus[0], self.cpus[-1])

    def apply(self, workload, i: int) -> None:
        client, workers = self.pair if turn(workload, i) % 2 == 0 else self.pair[::-1]
        os.sched_setaffinity(0, {client})
        for pid in workload.worker_pids():
            os.sched_setaffinity(pid, {workers})

    def release(self, workload) -> None:
        os.sched_setaffinity(0, self.cpus)
        for pid in workload.worker_pids():
            os.sched_setaffinity(pid, self.cpus)


def stop_resource_tracker() -> None:
    """Shared-memory segments make ``multiprocessing`` start a
    resource-tracker process; stop it and wait for it to end, as for
    every other process the run started."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def list_shm() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def run_loop(workload, seconds: float, wrap=None) -> dict:
    """Closed loop of whole rounds until ``seconds`` have passed and at
    least ``MIN_PRIMARY_OPS`` primary operations (and the workload's
    ``min_rounds``) were made.  Returns per-operation wall times.
    ``wrap(i, kind)`` (traced runs) may return a span to time the
    operation inside."""
    min_rounds = max(
        math.ceil(MIN_PRIMARY_OPS / workload.round_size), workload.min_rounds
    )
    wrap = wrap or (lambda i, kind: None)
    placement = Placement()
    primary, followup = {}, {}
    i = rounds = 0
    start = time.perf_counter()
    while rounds < min_rounds or time.perf_counter() - start < seconds:
        for _ in range(workload.round_size):
            try:
                placement.apply(workload, i)
                workload.prepare(i)
                gc.collect()
                with wrap(i, "primary") or contextlib.nullcontext():
                    t0 = time.perf_counter()
                    result = workload.primary(i)
                    primary[i] = time.perf_counter() - t0
                workload.note_primary(i, result)
                del result
                gc.collect()
                with wrap(i, "followup") or contextlib.nullcontext():
                    t0 = time.perf_counter()
                    result = workload.followup(i)
                    followup[i] = time.perf_counter() - t0
                workload.note_followup(i, result)
                del result
            except Exception:
                traceback.print_exc(file=sys.stderr)
                workload.failed_ops.add(i)
            i += 1
        rounds += 1
    placement.release(workload)
    workload.end_loop()
    return {
        "primary": primary,
        "followup": followup,
        "ops": i,
        "measured_s": time.perf_counter() - start,
    }


def bring_up(cls, seed: int, workdir: str):
    """Set the workload up ``SETUP_REPEATS`` times (each from scratch);
    returns the last instance and the median set-up time."""
    times = []
    workload = None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)
        workload = cls(seed, workdir)
        gc.collect()
        t0 = time.perf_counter()
        try:
            workload.setup()
        except BaseException:
            workload.teardown()
            raise
        times.append(time.perf_counter() - t0)
    return workload, sorted(times)[len(times) // 2]


def finish(workload, shm_before: set) -> tuple:
    """Oracles, leak checks and teardown; returns (correct, failed)."""
    workload.verify()
    problems = list(workload.problems) + workload.leak_problems()
    workload.teardown()
    if list_shm() != shm_before:
        problems.append(f"/dev/shm changed: {sorted(list_shm() ^ shm_before)}")
    for line in problems[:20]:
        print(f"perfbench: CHECK FAILED: {line}", file=sys.stderr)
    return not problems, len(workload.failed_ops)


def end_to_end(workload, loop: dict, setup_s: float, peak_mb: float) -> dict:
    from common import tail

    ok = [i for i in loop["primary"] if i in loop["followup"] and i not in workload.failed_ops]
    primary = [loop["primary"][i] for i in ok]
    followup = [loop["followup"][i] for i in ok]
    timed = sum(primary) + sum(followup)
    events = 2 * sum(workload.op_events[i] for i in ok)
    return {
        "profile_events_per_s": (events / timed, "events/s"),
        "op_p50_s": (statistics.median(primary), "s"),
        "op_tail_s": (tail(primary), "s"),
        "followup_p50_s": (statistics.median(followup), "s"),
        "stored_bytes_per_event": (workload.stored_bytes_per_event(), "B/event"),
        "peak_rss_mb": (peak_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; know {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    shm_before = list_shm()
    workload = None
    try:
        workload, setup_s = bring_up(cls, args.seed, workdir)
        if args.trace:
            import layers

            loop, metrics = layers.traced_run(workload, args.seconds, run_loop, turn)
        else:
            loop = run_loop(workload, args.seconds)
            metrics = end_to_end(workload, loop, setup_s, workload.peak_rss_mb())
        done, workload = workload, None
        correct, failed = finish(done, shm_before)
    finally:
        if workload is not None:
            workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)
        stop_resource_tracker()
    # a failed pair loses both its operations
    attempted, failed = 2 * loop["ops"], 2 * failed
    print(
        f"perfbench: {args.workload} seed={args.seed} ops={loop['ops']} "
        f"attempted={attempted} failed={failed} correct={correct} "
        f"measured={loop['measured_s']:.2f}s"
    )
    for name, (value, unit) in metrics.items():
        print(f"perfbench:   {name:28s} {value:14.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
