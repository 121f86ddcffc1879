"""Helpers shared by the workloads, the layer probes and the checks:
timing statistics, memory and disk readings, and a canonical form of
a profile that two computations can be compared by."""

from __future__ import annotations

import hashlib
import os
from typing import Dict, Iterable, List, Sequence, Tuple

#: samples that must lie beyond the value reported as the tail
TAIL_BEYOND = 10

#: (calls, total_input, ((size, calls, max, min, total), ...)) per
#: (routine, thread)
Table = Dict[Tuple[str, int], Tuple[int, int, tuple]]


def tail(values: Sequence[float]) -> float:
    """The highest percentile that has at least ``TAIL_BEYOND`` samples
    beyond it: the value at rank ``n - TAIL_BEYOND - 1`` in ascending
    order."""
    if len(values) <= TAIL_BEYOND:
        raise ValueError(
            f"a tail needs more than {TAIL_BEYOND} samples, got {len(values)}"
        )
    return sorted(values)[len(values) - TAIL_BEYOND - 1]


def peak_rss_kb(pid: int) -> int:
    """Peak resident set (``VmHWM``) of a live process, in KiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


def tree_bytes(path: str) -> int:
    """Bytes held by every regular file under ``path``."""
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def filesystem_of(path: str) -> str:
    """Filesystem type of the mount holding ``path`` (from the mount
    table; ``unknown`` where it cannot be read)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def profile_table(profiles) -> Table:
    """Canonical, comparable form of a :class:`ProfileSet`: every
    (routine, thread) cost plot with its per-size statistics."""
    out: Table = {}
    for key, prof in profiles:
        points = tuple(
            (size, st.calls, st.max_cost, st.min_cost, st.total_cost)
            for size, st in sorted(prof.points.items())
        )
        out[key] = (prof.calls, prof.total_input, points)
    return out


def merge_tables(tables: Iterable[Table]) -> Table:
    """Fold per-trace tables the way profiles of separate executions
    combine: calls, inputs and costs add up, and per size the extreme
    costs are kept.  Written here, apart from the program's merge, so
    that a merged job profile can be checked against it."""
    acc: Dict[Tuple[str, int], list] = {}
    for table in tables:
        for key, (calls, total_input, points) in table.items():
            slot = acc.setdefault(key, [0, 0, {}])
            slot[0] += calls
            slot[1] += total_input
            for size, n, hi, lo, total in points:
                old = slot[2].get(size)
                if old is None:
                    slot[2][size] = (n, hi, lo, total)
                else:
                    slot[2][size] = (
                        old[0] + n,
                        max(old[1], hi),
                        min(old[2], lo),
                        old[3] + total,
                    )
    return {
        key: (
            calls,
            total_input,
            tuple((size,) + stats for size, stats in sorted(points.items())),
        )
        for key, (calls, total_input, points) in acc.items()
    }


def routine_inputs(table: Table) -> Dict[str, int]:
    """Summed input size per routine (over threads)."""
    out: Dict[str, int] = {}
    for (routine, _thread), (_calls, total_input, _points) in table.items():
        out[routine] = out.get(routine, 0) + total_input
    return out


def table_diff(observed: Table, expected: Table, limit: int = 3) -> List[str]:
    """Human-readable differences between two tables (empty if equal)."""
    out: List[str] = []
    for key in sorted(set(observed) | set(expected)):
        mine, theirs = observed.get(key), expected.get(key)
        if mine != theirs:
            out.append(f"{key[0]}@t{key[1]}: got {mine!s:.120} want {theirs!s:.120}")
            if len(out) >= limit:
                break
    return out


class TableBook:
    """Per-operation results kept as digests, each distinct pair of
    tables stored once, so that the benchmark's own heap stays flat
    over a run however many operations it makes."""

    def __init__(self) -> None:
        self.tables: Dict[str, object] = {}

    def add(self, pair) -> str:
        canon = repr(tuple(sorted(t.items()) for t in pair))
        digest = hashlib.sha1(canon.encode("utf-8")).hexdigest()
        self.tables.setdefault(digest, pair)
        return digest

    def __getitem__(self, digest: str):
        return self.tables[digest]
