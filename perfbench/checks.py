"""Output checks: each compares what the program delivered against a
computation made apart from it (the Fig. 7 naive oracle over the same
events or over a separate recording) or against a property the method
must have.  Every check returns a list of problems; empty means pass.
The oracles run outside the timed operations and outside set-up."""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from common import Table, merge_tables, profile_table, routine_inputs, table_diff
from repro.core import FULL_POLICY, RMS_POLICY, NaiveDrmsProfiler
from repro.workloads.registry import get_workload

Pair = Tuple[Table, Table]  # (drms, rms)


def oracle_pair(events: Iterable) -> Pair:
    """Naive drms (full policy) and rms (both dynamic-input sources
    off) over the same events."""
    events = list(events)
    drms = NaiveDrmsProfiler(policy=FULL_POLICY).run(events)
    rms = NaiveDrmsProfiler(policy=RMS_POLICY).run(events)
    return profile_table(drms), profile_table(rms)


def oracle_for_cell(workload: str, scale: int, threads: int) -> Pair:
    """The oracle over a separate VM recording of one sweep cell (the
    VM is deterministic, so the same cell records the same events)."""
    machine = get_workload(workload).build(threads=threads, scale=scale)
    machine.run()
    return oracle_pair(machine.trace)


def check_same(label: str, observed: Pair, reference: Pair) -> List[str]:
    """Both tables of ``observed`` equal those of ``reference``."""
    problems = []
    for kind, mine, theirs in zip(("drms", "rms"), observed, reference):
        for line in table_diff(mine, theirs):
            problems.append(f"{label} {kind}: {line}")
    return problems


def check_drms_geq_rms(label: str, pair: Pair) -> List[str]:
    """Inequality 1, summed per routine: the drms never undercounts
    the rms."""
    drms, rms = routine_inputs(pair[0]), routine_inputs(pair[1])
    return [
        f"{label} routine {routine}: summed drms {drms.get(routine, 0)} "
        f"< summed rms {rms[routine]}"
        for routine in sorted(rms)
        if drms.get(routine, 0) < rms[routine]
    ]


def check_merged_job(
    label: str,
    merged: Dict[str, Pair],
    cell_oracles: Dict[str, Sequence[Pair]],
) -> List[str]:
    """A job's merged per-workload profiles against the per-cell
    oracles folded apart from the program."""
    problems = []
    if sorted(merged) != sorted(cell_oracles):
        return [f"{label}: workloads {sorted(merged)} != {sorted(cell_oracles)}"]
    for workload, pairs in cell_oracles.items():
        expected = (
            merge_tables(p[0] for p in pairs),
            merge_tables(p[1] for p in pairs),
        )
        problems += check_same(
            f"{label} {workload} vs oracle", merged[workload], expected
        )
    return problems


def check_journal(stats) -> List[str]:
    problems = []
    if stats.corrupt:
        problems.append(f"journal corrupt at {stats.error_offset}: {stats.error}")
    if stats.torn_tail_bytes:
        problems.append(f"journal has {stats.torn_tail_bytes} torn tail bytes")
    return problems


def check_audit(audit) -> List[str]:
    if audit.clean:
        return []
    return [f"store audit not clean: {(audit.bad_files() + audit.tmp_files)[:3]}"]
