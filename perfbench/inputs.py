"""The benchmark's inputs, made from ``--seed`` alone: the same seed
gives the same bytes, the same program order and the same job mix.
The seed changes what the inputs hold, never how much work they are,
so runs under different seeds stay comparable."""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.core.events import Call, Return, SwitchThread, encode_events
from repro.core.tracing import with_switches
from repro.workloads.mysql import select_sweep
from repro.workloads.specomp import SPECOMP_BENCHMARKS

#: table sizes of the Figure 4 experiment (one ``SELECT *`` each)
FIG4_TABLE_ROWS = (64, 128, 256, 512, 1024, 2048)
#: fig-4 runs concatenated into one trace
FIG4_RUNS = 8
#: the outer activation every run sits under
FIG4_OUTER = "main"

#: SPEC OMP programs in the order the sweep cycles through them
#: before the seed shuffles it
SPECOMP_PROGRAMS = tuple(sorted(SPECOMP_BENCHMARKS))
SPECOMP_SCALES = (1, 2, 3, 4, 5)
SWEEP_THREADS = 4
SWEEP_TOOLS = ("aprof", "aprof-drms")

#: programs whose cells cost about the same at the job scales; kdtree
#: and smithwa grow super-linearly with scale and would make the job
#: mix lopsided
JOB_PROGRAMS = tuple(p for p in SPECOMP_PROGRAMS if p not in ("kdtree", "smithwa"))
#: job cells already in the store when the job arrives ...
JOB_STORED_SCALES = (1, 2, 3)
#: ... and cells the job must record and replay
JOB_NEW_SCALES = (4, 5, 6)
JOB_SCALES = JOB_STORED_SCALES + JOB_NEW_SCALES


def fig4_table_orders(seed: int, runs: int = FIG4_RUNS) -> List[List[int]]:
    """Per run, the order the fig-4 client queries its tables in."""
    rng = random.Random(seed)
    orders = []
    for _ in range(runs):
        rows = list(FIG4_TABLE_ROWS)
        rng.shuffle(rows)
        orders.append(rows)
    return orders


def fig4_trace(seed: int, runs: int = FIG4_RUNS) -> Tuple[bytes, int]:
    """``runs`` Figure 4 recordings (table order shuffled per run by
    the seed) concatenated and wrapped in one outer activation on the
    client thread, encoded as v3 bytes.  Returns ``(payload,
    logical_events)``.

    With every run under one activation there is no depth-zero
    boundary inside the trace, so each partition cut carries
    per-thread state, as in a program whose work sits under ``main``.
    """
    raw = []
    for rows in fig4_table_orders(seed, runs):
        machine = select_sweep(table_rows=rows)
        machine.run()
        raw.extend(e for e in machine.trace if not isinstance(e, SwitchThread))
    events = with_switches([Call(1, FIG4_OUTER, 1)] + raw + [Return(1, 2)])
    batch = encode_events(events)
    return batch.to_bytes(), len(batch)


def specomp_order(seed: int) -> List[str]:
    """All SPEC OMP programs, in the seed's order."""
    order = list(SPECOMP_PROGRAMS)
    random.Random(seed).shuffle(order)
    return order


def job_mix(seed: int) -> List[Tuple[str, str]]:
    """One round of jobs: the job programs paired up in the seed's
    order, two programs per job."""
    order = list(JOB_PROGRAMS)
    random.Random(seed).shuffle(order)
    return [(order[i], order[i + 1]) for i in range(0, len(order), 2)]
