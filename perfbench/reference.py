"""Reference figures recorded in ``perfbench/README.md``.

    python3 perfbench/reference.py [--seed 1] [--repeats 20]

Prints a host stamp and, on the fig-4 trace of ``fig4-replay``:

* the serial follow-up (bytes → drms and rms profiles, one partition,
  inline) in a fresh process that never used the pool, beside the
  same follow-up in a process that has just run ``replay_partitioned``
  on the warm pool;
* the split between the v3 codec decode (``iter_section_batches``) and
  fusion (``fuse_batch``) of the same bytes.

Each figure is a median over ``--repeats`` timings, and each process
setting runs in its own child process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


def _median_time(fn, repeats: int) -> float:
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def child(mode: str, seed: int, repeats: int) -> dict:
    from inputs import fig4_trace
    from repro.core.events import fuse_batch
    from repro.core.tracefile import iter_section_batches
    from repro.tools.partition import replay_partitioned
    from repro.tools.pool import shutdown_pool

    payload, _events = fig4_trace(seed)

    def serial():
        replay_partitioned(payload, partitions=1, kinds=("drms", "rms"))

    out = {}
    try:
        if mode == "after-pool":
            out["partitioned_s"] = _median_time(
                lambda: replay_partitioned(
                    payload, partitions=2, workers=2, kinds=("drms", "rms")
                ),
                repeats,
            )
        if mode == "split":
            sections = list(iter_section_batches(payload))
            out["decode_s"] = _median_time(
                lambda: list(iter_section_batches(payload)), repeats
            )
            out["fuse_s"] = _median_time(
                lambda: [fuse_batch(s) for s in sections], repeats
            )
        else:
            out["serial_s"] = _median_time(serial, repeats)
    finally:
        shutdown_pool(terminate=True)
    return out


def host_stamp() -> dict:
    import numpy

    from common import filesystem_of

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "checkout_filesystem": filesystem_of(os.getcwd()),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--child", choices=("fresh", "after-pool", "split"))
    args = parser.parse_args()
    if args.child:
        print(json.dumps(child(args.child, args.seed, args.repeats)))
        return 0
    report = {"host": host_stamp(), "seed": args.seed, "repeats": args.repeats}
    for mode in ("fresh", "after-pool", "split"):
        proc = subprocess.run(
            [sys.executable, __file__, "--child", mode, "--seed", str(args.seed),
             "--repeats", str(args.repeats)],
            capture_output=True, text=True, check=True,
        )
        report[mode] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
