"""The traced run: per-layer timings from calls into each layer's
public functions, on the same inputs the workload's operations use.

The benchmark keeps its own spans in memory, one around each layer
call, and writes them out at the end as one Chrome-trace JSON file
(``.perfbench/trace-<workload>-seed<n>.json``, which Perfetto opens)
together with each layer's self time.  Spans come from the benchmark's
files only; the program runs exactly as in an untraced run.

Every layer is probed on every workload, on that workload's inputs; a
layer the workload's operations never call still gets a number, which
the README's table marks as not on that workload's path.  Times are
seconds per primary operation (summed over the operation's traces or
cells, averaged over the probed operations).
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List

from inputs import SWEEP_THREADS, SWEEP_TOOLS
from repro.analysis.costfunc import classify_trend
from repro.core import FULL_POLICY, DrmsProfiler, RmsProfiler
from repro.core.events import EventBatch, fuse_batch
from repro.core.tracefile import iter_section_batches, plan_partitions
from repro.service import Coordinator
from repro.service.journal import Journal
from repro.sweep import TraceKey, TraceStore, merge_store_profiles
from repro.tools.partition import merge_partition_shards, replay_partition
from repro.tools.pool import SharedTrace, attached_view, get_pool, pool_stats
from repro.tools.runner import DEFAULT_TOOLS, record_trace, replay_tool
from repro.workloads.registry import get_workload

#: layer times summing to less or more than this share of the
#: operation's wall time are marked
COVER_BAND = (0.8, 1.1)
#: durable appends timed on a scratch journal
JOURNAL_APPENDS = 20
#: no-op round trips timed on the warm pool
DISPATCH_TRIPS = 20
#: how often a watched job is looked up through ``GET /jobs``, seconds
JOBS_POLL_S = 0.005

#: per-layer metrics in output order: name -> unit
PER_LAYER = {
    "codec.decode_s": "s",
    "codec.encode_s": "s",
    "tracefile.plan_s": "s",
    "tracefile.sections": "count",
    "events.fuse_s": "s",
    "events.fused_rows_per_event": "rows/event",
    "kernel.drms_s": "s",
    "kernel.rms_s": "s",
    "pool.dispatch_s": "s",
    "pool.shm_s": "s",
    "pool.spawns": "count",
    "pool.tasks_reused": "count",
    "partition.shard_max_s": "s",
    "partition.fold_s": "s",
    "partition.carried": "count",
    "partition.degradations": "count",
    "vm.record_s": "s",
    "workloads.build_s": "s",
    "runner.replay_s": "s",
    "store.write_s": "s",
    "store.read_s": "s",
    "store.hit_ratio": "ratio",
    "sweep.merge_s": "s",
    "analysis.fit_s": "s",
    "httpd.submit_s": "s",
    "service.lease_wait_s": "s",
    "service.cell_s": "s",
    "journal.append_s": "s",
    "journal.replay_s": "s",
    "journal.records": "count",
    "layers.cover": "ratio",
    "trace.overhead_ratio": "ratio",
}

#: layers on the blocking path of each workload's primary operation
BLOCKING = {
    "fig4-replay": (
        "tracefile.plan_s",
        "pool.shm_s",
        "pool.dispatch_s",
        "partition.shard_max_s",
        "partition.fold_s",
    ),
    "specomp-sweep": (
        "workloads.build_s",
        "vm.record_s",
        "store.write_s",
        "events.fuse_s",
        "runner.replay_s",
        "kernel.drms_s",
        "kernel.rms_s",
        "analysis.fit_s",
    ),
    "service-jobs": ("httpd.submit_s", "service.lease_wait_s", "service.cell_total_s"),
}
#: the wall time a workload's layer times are held against, where it
#: is not the untraced operations' mean: the watched jobs themselves
COVER_BASE = {"service-jobs": "service.job_s"}


class Spans:
    """In-memory spans with parent links; Chrome-trace export and
    per-name self time."""

    def __init__(self) -> None:
        self.records: List[dict] = []
        self._stack: List[int] = []
        self._origin = time.perf_counter()

    def add(self, name: str, start: float, end: float, **args) -> dict:
        record = {
            "id": len(self.records),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": start,
            "end": end,
            "args": args,
        }
        self.records.append(record)
        return record

    @contextmanager
    def span(self, name: str, **args):
        record = self.add(name, time.perf_counter(), None, **args)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def self_times(self) -> Dict[str, float]:
        """Per span name: duration minus the time its children cover."""
        children = defaultdict(float)
        for r in self.records:
            if r["parent"] is not None:
                children[r["parent"]] += r["end"] - r["start"]
        out: Dict[str, float] = defaultdict(float)
        for r in self.records:
            out[r["name"]] += (r["end"] - r["start"]) - children[r["id"]]
        return dict(out)

    def to_chrome(self, process: str, metadata: dict) -> dict:
        events = [
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 1,
             "args": {"name": process}},
        ]
        for r in self.records:
            events.append({
                "ph": "X",
                "name": r["name"],
                "cat": r["name"].split(".")[0],
                "pid": 1,
                "tid": 1,
                "ts": round((r["start"] - self._origin) * 1e6, 3),
                "dur": round((r["end"] - r["start"]) * 1e6, 3),
                "args": dict(r["args"], span=r["id"], parent=r["parent"]),
            })
        return {"traceEvents": events, "displayTimeUnit": "ms", "metadata": metadata}


class Probe:
    """Times layer calls into spans and per-metric sums."""

    def __init__(self, spans: Spans, ops: int = 1) -> None:
        self.spans = spans
        self.sums: Dict[str, float] = defaultdict(float)
        #: values measured once per run rather than per operation
        self.fixed: Dict[str, float] = {}
        self.ops = ops

    def time(self, metric: str, fn: Callable, *args, **kwargs):
        with self.spans.span(metric[:-2] if metric.endswith("_s") else metric) as span:
            out = fn(*args, **kwargs)
        self.sums[metric] += span["end"] - span["start"]
        return out

    def add(self, metric: str, value: float) -> None:
        self.sums[metric] += value

    def value(self, metric: str) -> float:
        if metric in self.fixed:
            return self.fixed[metric]
        return self.sums[metric] / self.ops


# -- probes on one trace payload ---------------------------------------------


def _consume(profiler, sections) -> None:
    for section in sections:
        profiler.consume_columnar(section)
    profiler.begin_trace()


def _shm_round_trip(payload: bytes) -> None:
    with SharedTrace(payload) as shared:
        view = attached_view(shared.name, shared.size)
        view.release()


def probe_payload(p: Probe, payload: bytes, replay: bool) -> None:
    """Codec, planner, partition and shm on one trace; with ``replay``
    (a trace replayed from its bytes) also section fusion and the
    kernels on the pre-fused sections."""
    sections = p.time("codec.decode_s", lambda: list(iter_section_batches(payload)))
    plan = p.time("tracefile.plan_s", plan_partitions, payload, 2)
    p.add("tracefile.sections", len(sections))
    if replay:
        fused = p.time("events.fuse_s", lambda: [fuse_batch(s) for s in sections])
        p.add("events.rows", sum(len(s) for s in fused))
        p.add("events.events", sum(len(s) for s in sections))
        p.time("kernel.drms_s", _consume, DrmsProfiler(policy=FULL_POLICY, keep_activations=False), fused)
        p.time("kernel.rms_s", _consume, RmsProfiler(keep_activations=False), fused)
    rows, slowest = [], 0.0
    for part in plan.partitions:
        start = time.perf_counter()
        rows.append(p.time(
            "partition.replay_s", replay_partition, payload, part, ("drms", "rms"),
            len(plan.partitions), carry_aware=plan.carried > 0,
        ))
        slowest = max(slowest, time.perf_counter() - start)
    p.add("partition.shard_max_s", slowest)
    p.time("partition.fold_s", merge_partition_shards, rows)
    p.add("partition.carried", plan.carried)
    p.time("pool.shm_s", _shm_round_trip, payload)


def probe_tools(p: Probe, batch: EventBatch, fuse_metric: str) -> EventBatch:
    """The runner's tool replays, fused once outside as the sweep does."""
    fused = p.time(fuse_metric, fuse_batch, batch)
    for tool in SWEEP_TOOLS:
        p.time("runner.replay_s", replay_tool, DEFAULT_TOOLS[tool], batch, 1,
               engine="columnar", fused=fused)
    return fused


def probe_store(p: Probe, store: TraceStore, key: TraceKey, batch, boundaries, fused, kernels: str) -> None:
    """Shard profiles from the fused batch (timed as ``kernels``
    metrics), then write and read one entry the way a sweep cell does."""
    drms = DrmsProfiler(keep_activations=False)
    rms = RmsProfiler(keep_activations=False)
    p.time(f"{kernels}.drms_s", _consume, drms, [fused])
    p.time(f"{kernels}.rms_s", _consume, rms, [fused])

    def write():
        store.put(key, batch, boundaries=boundaries)
        store.put_meta(key, {"workload": key.workload, "events": len(batch)})
        store.put_shard(key, "drms", drms)
        store.put_shard(key, "rms", rms)

    def read():
        store.get(key)
        store.get_meta(key)
        store.get_shard(key, "drms")
        store.get_shard(key, "rms")

    p.time("store.write_s", write)
    p.time("store.read_s", read)
    lookups = store.hits + store.misses
    p.add("store.hits", store.hits)
    p.add("store.lookups", lookups)


def probe_fits(p: Probe, profilers) -> None:
    """``classify_trend`` over the worst-case plot of every routine."""

    def fit():
        for profiler in profilers:
            for profile in profiler.profiles.by_routine().values():
                plot = profile.worst_case_plot()
                if len(plot) >= 2:
                    classify_trend(plot)

    p.time("analysis.fit_s", fit)


def probe_cell(p: Probe, store: TraceStore, workload: str, scale: int) -> None:
    """One sweep cell's layers: build, record, encode, tool replays,
    shard profiles, store write and read, then the trace-level probes
    on its bytes."""
    build = get_workload(workload).build
    machine = p.time("workloads.build_s", build, threads=SWEEP_THREADS, scale=scale)
    _t, batch, machine = p.time("vm.record_s", record_trace, lambda: machine)
    boundaries = machine.trace_boundaries
    payload = p.time("codec.encode_s", batch.to_bytes, boundaries=boundaries)
    p.add("events.rows", len(fuse_batch(batch)))
    p.add("events.events", len(batch))
    fused = probe_tools(p, batch, "events.fuse_s")
    key = TraceKey(workload, scale, SWEEP_THREADS)
    probe_store(p, store, key, batch, boundaries, fused, "kernel")
    probe_payload(p, payload, replay=False)


def probe_program(p: Probe, root: str, programs, scales) -> None:
    """Cells of one operation, then the store-level merge and fits."""
    store = TraceStore(root)
    for workload in programs:
        for scale in scales:
            probe_cell(p, store, workload, scale)
    merged, _missing = p.time(
        "sweep.merge_s", merge_store_profiles, root, list(programs), list(scales),
        threads=SWEEP_THREADS,
    )
    probe_fits(p, [prof for pair in merged.values() for prof in pair.values()])


# -- pool, service and journal probes ----------------------------------------


def probe_dispatch(p: Probe, workers: int) -> None:
    pool = get_pool().ensure(workers)
    times = []
    for _ in range(DISPATCH_TRIPS):
        start = time.perf_counter()
        p.time("pool.dispatch_s", lambda: pool.submit(os.getpid).result())
        times.append(time.perf_counter() - start)
    p.fixed["pool.dispatch_s"] = statistics.median(times)


def observe_job(p: Probe, harness, programs, scales) -> None:
    """Submit one job over HTTP and watch it through ``GET /jobs``:
    submit time, wait until its first cell is leased, and per-cell
    time from that lease until the job is terminal."""
    start = time.perf_counter()
    job = p.time("httpd.submit_s", harness.submit, programs, scales)
    submitted = time.perf_counter()
    leased = None
    while True:
        snap = next(j for j in harness.jobs() if j["job"] == job)
        now = time.perf_counter()
        cells = snap["cells"]
        if leased is None and (cells.get("leased") or cells.get("done")):
            leased = now
        if snap["state"] != "running":
            break
        time.sleep(JOBS_POLL_S)
    leased = leased or now
    p.spans.add("service.lease_wait", submitted, leased, job=job)
    p.spans.add("service.cells", leased, now, job=job)
    count = sum(cells.values())
    p.add("service.lease_wait_s", leased - submitted)
    p.add("service.cell_total_s", now - leased)
    p.add("service.cells", count)
    p.add("service.job_s", now - start)


def probe_journal(p: Probe, scratch: str) -> None:
    journal = Journal(os.path.join(scratch, "probe.rpjl"))
    times = []
    try:
        for n in range(JOURNAL_APPENDS):
            start = time.perf_counter()
            p.time("journal.append_s", journal.append, "bench_probe", durable=True, n=n)
            times.append(time.perf_counter() - start)
    finally:
        journal.close()
    p.fixed["journal.append_s"] = statistics.median(times)


def probe_restart(p: Probe, store_root: str, journal_path: str) -> None:
    """A read-only coordinator restart over a service journal."""
    start = time.perf_counter()
    coordinator = p.time("journal.replay_s", Coordinator, store_root, journal_path, readonly=True)
    p.fixed["journal.replay_s"] = time.perf_counter() - start
    p.fixed["journal.records"] = coordinator.replay_stats.records
    coordinator.close()


def probe_small_service(p: Probe, scratch: str, programs, scales) -> None:
    """For a workload that runs no service: one job of its own
    programs through a coordinator with an in-process worker thread."""
    from workloads import ServiceHarness

    harness = ServiceHarness(os.path.join(scratch, "service"), worker="thread")
    one = Probe(p.spans)
    try:
        harness.start_worker()
        observe_job(one, harness, programs, scales)
    finally:
        harness.close()
    for metric in ("httpd.submit_s", "service.lease_wait_s", "service.cell_total_s", "service.cells"):
        p.fixed[metric] = one.value(metric)
    probe_restart(p, harness.store_root, harness.journal_path)


# -- the traced run ------------------------------------------------------------


def traced_run(workload, seconds: float, run_loop, turn) -> tuple:
    """Make the workload's operations, every other pair of them inside
    a span, then probe every layer on its inputs.  Returns the loop
    record and the per-layer metrics."""
    spans = Spans()

    def is_traced(i: int) -> bool:
        # every other pair of turns, so that traced and untraced
        # operations see both CPU placements alike
        return bool(turn(workload, i) // 2 % 2)

    def wrap(i: int, kind: str):
        return spans.span(f"op.{kind}", op=i) if is_traced(i) else None

    with spans.span("run", workload=workload.name):
        loop = run_loop(workload, seconds, wrap=wrap)
        p = Probe(spans, ops=workload.probe_ops)
        with spans.span("probes", workload=workload.name):
            workload.probe_layers(p)
    plain = [t for i, t in loop["primary"].items() if not is_traced(i)]
    traced = [t for i, t in loop["primary"].items() if is_traced(i)]
    op_mean = sum(plain) / len(plain)

    stats = pool_stats()
    p.fixed["pool.spawns"] = stats["spawns"]
    p.fixed["pool.tasks_reused"] = stats["tasks_reused"]
    p.fixed["partition.degradations"] = workload.degradations()
    hit_ratio = workload.hit_ratio()
    if hit_ratio is None:
        hit_ratio = p.sums["store.hits"] / p.sums["store.lookups"]
    p.fixed["store.hit_ratio"] = hit_ratio
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "events.fused_rows_per_event":
            value = p.sums["events.rows"] / p.sums["events.events"]
        elif name == "service.cell_s":
            value = p.value("service.cell_total_s") / p.value("service.cells")
        elif name == "layers.cover":
            base = COVER_BASE.get(workload.name)
            wall = p.value(base) if base else op_mean
            value = sum(p.value(m) for m in BLOCKING[workload.name]) / wall
        elif name == "trace.overhead_ratio":
            value = statistics.median(traced) / statistics.median(plain)
        else:
            value = p.value(name)
        metrics[name] = (value, unit)

    cover = metrics["layers.cover"][0]
    marked = not (COVER_BAND[0] <= cover <= COVER_BAND[1])
    if marked:
        print(
            f"perfbench: MARK {workload.name}: layer times cover {cover:.2f} of "
            f"the operation's wall time (outside {COVER_BAND})"
        )
    self_times = spans.self_times()
    os.makedirs(".perfbench", exist_ok=True)
    path = os.path.join(".perfbench", f"trace-{workload.name}-seed{workload.seed}.json")
    metadata = {
        "workload": workload.name,
        "seed": workload.seed,
        "blocking_path": list(BLOCKING[workload.name]),
        "layers_cover": cover,
        "cover_marked": marked,
        "op_mean_s": op_mean,
        "self_time_s": self_times,
        "metrics": {k: v for k, (v, _u) in metrics.items()},
    }
    with open(path, "w") as handle:
        json.dump(spans.to_chrome(f"perfbench {workload.name}", metadata), handle)
    print(f"perfbench: spans written to {path}")
    for name in sorted(self_times):
        print(f"perfbench:   self {name:28s} {self_times[name]:10.4f} s")
    return loop, metrics
