"""The three closed-loop workloads.  Each has one client (this
process) that sends its next operation only after the previous one
has returned.

Every workload exposes the same steps, which ``run.py`` drives:
``setup`` (timed as ``setup_s``), then per operation ``prepare`` and
``note_*`` (untimed bookkeeping) around the timed ``primary`` and
``followup`` calls, then ``verify`` (the oracles, untimed), the leak
checks and ``teardown``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import threading
import time
import urllib.request
from typing import Dict, List, Optional, Set, Tuple

import checks
import layers
from common import TableBook, peak_rss_kb, profile_table, tree_bytes
from inputs import (
    JOB_NEW_SCALES,
    JOB_PROGRAMS,
    JOB_SCALES,
    JOB_STORED_SCALES,
    SPECOMP_SCALES,
    SWEEP_THREADS,
    SWEEP_TOOLS,
    fig4_table_orders,
    fig4_trace,
    job_mix,
    specomp_order,
)
from repro.core.events import EventBatch
from repro.service import Coordinator
from repro.service.httpd import serve_http
from repro.service.journal import Journal
from repro.service.worker import worker_entry
from repro.sweep import SweepConfig, TraceKey, TraceStore, merge_store_profiles, run_sweep
from repro.sweep.engine import CellTask, SweepCell, run_cell
from repro.tools.partition import replay_partitioned
from repro.tools.pool import active_segments, get_pool, pool_stats, shutdown_pool
from repro.tools.runner import record_trace
from repro.workloads.mysql import select_sweep

#: fig4-replay partitions and pool size (this host has two CPUs)
FIG4_PARTITIONS = 2
FIG4_WORKERS = 2
#: registry name of the fig-4 program (store keys of the layer probes)
FIG4_WORKLOAD = "mysql_select"
#: warm-up program of specomp-sweep's set-up (fixed, whatever the seed)
SWEEP_WARMUP_PROGRAM = "md"
#: how often the idle service worker asks for a lease, seconds
WORKER_POLL_S = 0.02
#: how often the client looks for a terminal job, seconds
CLIENT_POLL_S = 0.002


def pair_tables(drms, rms) -> checks.Pair:
    return profile_table(drms.profiles), profile_table(rms.profiles)


class Workload:
    """Common bookkeeping: per-operation events, failures and problems."""

    name = ""
    #: operations in one round; every run performs whole rounds
    round_size = 1
    #: fewest rounds a run makes, whatever its length
    min_rounds = 1
    #: operations' worth of inputs one traced run probes
    probe_ops = 1

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.op_events: Dict[int, int] = {}
        self.failed_ops: Set[int] = set()
        self.problems: List[str] = []
        self.op_degradations: Dict[int, int] = {}
        #: every operation's profiles, by digest
        self.book = TableBook()
        self._spawns_after_setup: Optional[int] = None

    # steps every workload fills in
    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, i: int) -> None:
        pass

    def primary(self, i: int):
        raise NotImplementedError

    def note_primary(self, i: int, result) -> None:
        pass

    def followup(self, i: int):
        raise NotImplementedError

    def note_followup(self, i: int, result) -> None:
        pass

    def verify(self) -> None:
        raise NotImplementedError

    def stored_bytes_per_event(self) -> float:
        raise NotImplementedError

    def worker_pids(self) -> List[int]:
        return _pool_pids()

    def teardown(self) -> None:
        shutdown_pool(terminate=True)

    # traced runs
    def probe_layers(self, p) -> None:
        """Time every layer on this workload's inputs (``layers.py``)."""
        raise NotImplementedError

    def degradations(self) -> int:
        """Replay degradations the operations reported."""
        return sum(self.op_degradations.values())

    def hit_ratio(self) -> Optional[float]:
        """Store hit ratio of the operations' reads, if they read one."""
        return None

    # shared helpers
    def fail(self, i: int, problems: List[str]) -> None:
        if problems:
            self.failed_ops.add(i)
            self.problems.extend(f"op {i}: {p}" for p in problems[:3])

    def peak_rss_mb(self) -> float:
        kb = peak_rss_kb(os.getpid())
        for pid in self.worker_pids():
            kb += peak_rss_kb(pid)
        return kb / 1024.0

    def mark_warm(self) -> None:
        self._spawns_after_setup = pool_stats()["spawns"]

    def end_loop(self) -> None:
        """Called when the timed operations are over: the pool must not
        have been respawned by them."""
        spawns = pool_stats()["spawns"]
        if self._spawns_after_setup is not None and spawns != self._spawns_after_setup:
            self.problems.append(
                f"pool.spawns grew after warm-up: "
                f"{self._spawns_after_setup} -> {spawns}"
            )

    def leak_problems(self) -> List[str]:
        if active_segments():
            return [f"{active_segments()} shared-memory segments left"]
        return []


def _pool_pids() -> List[int]:
    executor = getattr(get_pool(), "_executor", None)
    processes = getattr(executor, "_processes", None) or {}
    return [p.pid for p in processes.values() if p.is_alive()]


class Fig4Replay(Workload):
    """Bytes → merged drms and rms profiles of a long multi-run fig-4
    ``mysql_select`` trace: partitioned on the warm pool, then the same
    bytes serially in the same process."""

    name = "fig4-replay"
    probe_ops = 5

    def setup(self) -> None:
        self.payload, self.events = fig4_trace(self.seed)
        # The first replay creates a shared-memory segment before the
        # pool forks, so the workers share this process's resource
        # tracker (workers forked earlier would each start their own).
        self.primary(-1)
        pool = get_pool().ensure(FIG4_WORKERS)
        # two tasks in flight at once bring both workers up
        for future in [pool.submit(os.getpid) for _ in range(FIG4_WORKERS)]:
            future.result()
        self.primary(-1)
        self.followup(-1)
        self.mark_warm()
        self.results: Dict[int, str] = {}
        self.serial: Dict[int, str] = {}

    def primary(self, i: int):
        return replay_partitioned(
            self.payload,
            partitions=FIG4_PARTITIONS,
            workers=FIG4_WORKERS,
            kinds=("drms", "rms"),
        )

    def note_primary(self, i: int, rep) -> None:
        self.op_events[i] = self.events
        self.op_degradations[i] = len(rep.degradations)
        self.results[i] = self.book.add(
            pair_tables(rep.profilers["drms"], rep.profilers["rms"])
        )

    def followup(self, i: int):
        return replay_partitioned(self.payload, partitions=1, kinds=("drms", "rms"))

    def note_followup(self, i: int, rep) -> None:
        self.serial[i] = self.book.add(
            pair_tables(rep.profilers["drms"], rep.profilers["rms"])
        )

    def verify(self) -> None:
        batch = EventBatch.from_bytes(self.payload)
        oracle = checks.oracle_pair(batch.iter_events())
        for i, digest in self.results.items():
            pair = self.book[digest]
            problems = checks.check_same("partitioned vs oracle", pair, oracle)
            problems += checks.check_drms_geq_rms("partitioned", pair)
            if i in self.serial:
                serial = self.book[self.serial[i]]
                problems += checks.check_same("partitioned vs serial", pair, serial)
                problems += checks.check_same("serial vs oracle", serial, oracle)
            if self.op_degradations[i]:
                problems.append(f"{self.op_degradations[i]} replay degradations")
            self.fail(i, problems)

    def stored_bytes_per_event(self) -> float:
        return len(self.payload) / self.events

    def probe_layers(self, p) -> None:
        batch = EventBatch.from_bytes(self.payload)
        for k in range(self.probe_ops):
            for rows in fig4_table_orders(self.seed):
                machine = p.time("workloads.build_s", select_sweep, table_rows=rows)
                p.time("vm.record_s", record_trace, lambda: machine)
            p.time("codec.encode_s", batch.to_bytes)
            layers.probe_payload(p, self.payload, replay=True)
            fused = layers.probe_tools(p, batch, "events.batch_fuse_s")
            root = os.path.join(self.workdir, f"probe-store-{k}")
            key = TraceKey(FIG4_WORKLOAD, 1, SWEEP_THREADS)
            layers.probe_store(p, TraceStore(root), key, batch, (), fused, "kernel.batch")
            merged, _missing = p.time(
                "sweep.merge_s", merge_store_profiles, root, [FIG4_WORKLOAD], [1],
                threads=SWEEP_THREADS,
            )
            layers.probe_fits(p, merged[FIG4_WORKLOAD].values())
        layers.probe_dispatch(p, FIG4_WORKERS)
        layers.probe_journal(p, self.workdir)
        layers.probe_small_service(p, self.workdir, [FIG4_WORKLOAD], [1])


class SpecompSweep(Workload):
    """Program → cost plot: a cold serial ``run_sweep`` of one SPEC OMP
    program into an empty store, then the warm re-sweep from it."""

    name = "specomp-sweep"
    round_size = probe_ops = len(specomp_order(0))
    #: kdtree and smithwa cost far more than the other twelve programs;
    #: from six rounds on, the ten samples beyond the tail are smithwa
    #: and kdtree ones, so the tail is a kdtree operation in every run
    min_rounds = 6

    def config(self, program: str, root: str) -> SweepConfig:
        return SweepConfig(
            workloads=(program,),
            scales=SPECOMP_SCALES,
            threads=SWEEP_THREADS,
            tools=SWEEP_TOOLS,
            store_root=root,
        )

    def setup(self) -> None:
        self.order = specomp_order(self.seed)
        root = os.path.join(self.workdir, "warmup")
        run_sweep(self.config(SWEEP_WARMUP_PROGRAM, root))
        run_sweep(self.config(SWEEP_WARMUP_PROGRAM, root))
        shutil.rmtree(root)
        self.cold: Dict[int, Tuple[str, Dict[SweepCell, str]]] = {}
        self.warm: Dict[int, str] = {}
        self.stored: Dict[int, int] = {}
        self.hit_rates: Dict[int, float] = {}

    def program(self, i: int) -> str:
        return self.order[i % len(self.order)]

    def prepare(self, i: int) -> None:
        self.root = os.path.join(self.workdir, f"store-{i}")
        self.cfg = self.config(self.program(i), self.root)

    def primary(self, i: int):
        return run_sweep(self.cfg)

    @staticmethod
    def merged(result) -> checks.Pair:
        """The program's merged cost plot.  ``run_sweep`` folds every
        cell into the first cell's profilers, so those hold the merge."""
        first = result.cells[0]
        return pair_tables(first["drms"], first["rms"])

    def note_primary(self, i: int, result) -> None:
        self.op_events[i] = sum(c["events"] for c in result.cells)
        # each cell's profiles as the cold sweep left them in the store
        store = TraceStore(self.root)
        cells = {}
        for payload in result.cells:
            key = TraceKey(payload["cell"].workload, payload["cell"].scale, SWEEP_THREADS)
            cells[payload["cell"]] = self.book.add(pair_tables(
                store.get_shard(key, "drms"), store.get_shard(key, "rms")
            ))
        self.cold[i] = (self.book.add(self.merged(result)), cells)
        self.op_degradations[i] = len(result.degradations)
        if result.cache_stats()["hits"]:
            self.fail(i, ["cold sweep hit the store"])

    def followup(self, i: int):
        return run_sweep(self.cfg)

    def note_followup(self, i: int, result) -> None:
        self.op_degradations[i] += len(result.degradations)
        self.warm[i] = self.book.add(self.merged(result))
        self.hit_rates[i] = result.cache_stats()["hit_rate"]
        self.stored[i] = tree_bytes(self.root)
        shutil.rmtree(self.root)

    def verify(self) -> None:
        oracles: Dict[SweepCell, checks.Pair] = {}
        for i, (merged, cells) in self.cold.items():
            merged = self.book[merged]
            cells = {cell: self.book[d] for cell, d in cells.items()}
            problems = []
            if sorted(c.scale for c in cells) != list(SPECOMP_SCALES):
                problems.append(f"cells {sorted(cells)} missing")
            for cell, pair in sorted(cells.items(), key=lambda kv: kv[0].scale):
                if cell not in oracles:
                    oracles[cell] = checks.oracle_for_cell(
                        cell.workload, cell.scale, cell.threads
                    )
                problems += checks.check_same(f"cold {cell.id} vs oracle", pair, oracles[cell]
                )
            problems += checks.check_merged_job(
                f"cold {self.program(i)}",
                {self.program(i): merged},
                {self.program(i): [oracles[c] for c in sorted(cells, key=lambda c: c.scale)]},
            )
            if i in self.warm:
                if self.hit_rates[i] != 1.0:
                    problems.append(f"warm hit rate {self.hit_rates[i]}")
                problems += checks.check_same("warm vs cold", self.book[self.warm[i]], merged)
            self.fail(i, problems)

    def stored_bytes_per_event(self) -> float:
        ops = sorted(self.stored)
        return sum(self.stored[i] for i in ops) / sum(self.op_events[i] for i in ops)

    def hit_ratio(self) -> Optional[float]:
        return sum(self.hit_rates.values()) / len(self.hit_rates)

    def probe_layers(self, p) -> None:
        for k, program in enumerate(self.order):
            root = os.path.join(self.workdir, f"probe-{k}")
            layers.probe_program(p, root, [program], SPECOMP_SCALES)
            shutil.rmtree(root)
        layers.probe_dispatch(p, 1)
        layers.probe_journal(p, self.workdir)
        layers.probe_small_service(
            p, self.workdir, [SWEEP_WARMUP_PROGRAM], SPECOMP_SCALES
        )


def _http_json(url: str, payload: Optional[dict] = None) -> dict:
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read().decode("utf-8"))


class ServiceHarness:
    """A coordinator with its HTTP server in this process and one
    worker process leasing over HTTP."""

    def __init__(self, root: str, worker: str = "process") -> None:
        self.store_root = os.path.join(root, "store")
        self.journal_path = os.path.join(root, "journal.rpjl")
        self.coordinator = Coordinator(self.store_root, self.journal_path)
        self.server, self.url = serve_http(self.coordinator)
        if worker == "process":
            context = multiprocessing.get_context("spawn")
            self.worker = context.Process(
                target=worker_entry,
                args=(self.url, "bench-worker", WORKER_POLL_S, False),
                daemon=True,
            )
        else:
            # drains the jobs already submitted, then returns
            self.worker = threading.Thread(
                target=worker_entry,
                args=(self.url, "bench-thread", WORKER_POLL_S, True),
                daemon=True,
            )

    def start_worker(self) -> None:
        self.worker.start()

    def submit(self, workloads, scales) -> str:
        spec = {
            "workloads": list(workloads),
            "scales": list(scales),
            "threads": SWEEP_THREADS,
            "tools": list(SWEEP_TOOLS),
        }
        return _http_json(self.url + "/submit", spec)["job"]

    def wait(self, job_id: str) -> None:
        job = self.coordinator.jobs[job_id]
        while not job.terminal:
            if not self.worker.is_alive():
                raise RuntimeError("service worker died")
            time.sleep(CLIENT_POLL_S)

    def report(self, job_id: str) -> dict:
        return _http_json(f"{self.url}/jobs/{job_id}")

    def jobs(self) -> List[dict]:
        return _http_json(self.url + "/jobs")["jobs"]

    def close(self) -> None:
        if self.worker.is_alive() and hasattr(self.worker, "terminate"):
            self.worker.terminate()
        if self.worker.ident is not None:
            self.worker.join(timeout=30)
        self.server.shutdown()
        self.server.server_close()
        self.coordinator.close()


class ServiceJobs(Workload):
    """Small sweep jobs through the ``repro serve`` machinery: each job
    pairs two programs over cells already in the store and new ones."""

    name = "service-jobs"
    round_size = probe_ops = len(job_mix(0))

    def setup(self) -> None:
        self.mix = job_mix(self.seed)
        root = self.workdir
        # the store-resident cells every job finds: recorded, replayed
        # and stored the way a worker would
        store_root = os.path.join(root, "store")
        for program in JOB_PROGRAMS:
            for scale in JOB_STORED_SCALES:
                run_cell(
                    CellTask(
                        cell=SweepCell(program, scale, SWEEP_THREADS),
                        store_root=store_root,
                        tools=SWEEP_TOOLS,
                    )
                )
        self.service = ServiceHarness(root)
        self.service.start_worker()
        # a job of stored cells only: done once the worker is up
        self.service.wait(self.service.submit(JOB_PROGRAMS[:1], JOB_STORED_SCALES))
        self.mark_warm()
        self.jobs: Dict[int, str] = {}
        self.merged: Dict[int, Dict[str, str]] = {}
        self.cached: Dict[int, Tuple[int, int]] = {}
        self.at_rest: Optional[float] = None

    def programs(self, i: int) -> Tuple[str, str]:
        return self.mix[i % len(self.mix)]

    def primary(self, i: int):
        job_id = self.service.submit(self.programs(i), JOB_SCALES)
        self.service.wait(job_id)
        return job_id

    def note_primary(self, i: int, job_id: str) -> None:
        self.jobs[i] = job_id

    def followup(self, i: int):
        return self.service.report(self.jobs[i])

    def note_followup(self, i: int, report: dict) -> None:
        problems = []
        if report.get("state") != "complete":
            problems.append(f"job state {report.get('state')}")
        if sorted(report.get("trends") or {}) != sorted(self.programs(i)):
            problems.append("job report lacks the merged trends")
        summaries = [c.get("summary") or {} for c in report["cells"]]
        self.op_events[i] = sum(s.get("events", 0) for s in summaries)
        self.cached[i] = (sum(bool(s.get("cached")) for s in summaries), len(summaries))
        self.op_degradations[i] = len(report.get("degradations") or ())
        merged, missing = self.service.coordinator.merged_profiles(self.jobs[i])
        if missing:
            problems.append(f"missing shards {missing}")
        self.merged[i] = {
            name: self.book.add(pair_tables(p["drms"], p["rms"]))
            for name, p in merged.items()
        }
        self.fail(i, problems)
        if self.at_rest is None and i == self.round_size - 1:
            # bytes at rest after the first round: the store (stored
            # cells plus this job's new ones) and the journal so far
            store = TraceStore(self.service.store_root)
            events = 0
            for program in JOB_PROGRAMS:
                for scale in JOB_SCALES:
                    meta = store.get_meta(TraceKey(program, scale, SWEEP_THREADS))
                    events += (meta or {}).get("events", 0)
            held = tree_bytes(self.service.store_root)
            held += os.path.getsize(self.service.journal_path)
            self.at_rest = held / events
        self.evict(self.programs(i))

    def evict(self, programs) -> None:
        """Drop a job's new cells so the next round records them again."""
        store = TraceStore(self.service.store_root)
        for program in programs:
            for scale in JOB_NEW_SCALES:
                key = TraceKey(program, scale, SWEEP_THREADS)
                directory, digest = os.path.split(store.trace_path(key))
                digest = digest.split(".")[0]
                for name in os.listdir(directory):
                    if name.startswith(digest):
                        os.unlink(os.path.join(directory, name))

    def verify(self) -> None:
        oracles: Dict[Tuple[str, int], checks.Pair] = {}
        for i, merged in self.merged.items():
            expected = {}
            for program in self.programs(i):
                pairs = []
                for scale in JOB_SCALES:
                    if (program, scale) not in oracles:
                        oracles[(program, scale)] = checks.oracle_for_cell(
                            program, scale, SWEEP_THREADS
                        )
                    pairs.append(oracles[(program, scale)])
                expected[program] = pairs
            merged = {name: self.book[d] for name, d in merged.items()}
            self.fail(i, checks.check_merged_job(f"job {self.jobs[i]}", merged, expected))
        _records, stats = Journal(self.service.journal_path, readonly=True).replay()
        self.problems += checks.check_journal(stats)
        self.problems += checks.check_audit(TraceStore(self.service.store_root).audit())

    def stored_bytes_per_event(self) -> float:
        return self.at_rest

    def hit_ratio(self) -> Optional[float]:
        hits = sum(h for h, _n in self.cached.values())
        return hits / sum(n for _h, n in self.cached.values())

    def probe_layers(self, p) -> None:
        root = os.path.join(self.workdir, "probe-store")
        store = TraceStore(root)
        for programs in self.mix:
            layers.observe_job(p, self.service, programs, JOB_SCALES)
            merged, _missing = p.time(
                "sweep.merge_s", merge_store_profiles, self.service.store_root,
                list(programs), list(JOB_SCALES), threads=SWEEP_THREADS,
            )
            layers.probe_fits(p, [f for pair in merged.values() for f in pair.values()])
            for program in programs:
                for scale in JOB_SCALES:
                    layers.probe_cell(p, store, program, scale)
            self.evict(programs)
        layers.probe_dispatch(p, 1)
        layers.probe_journal(p, self.workdir)
        layers.probe_restart(p, self.service.store_root, self.service.journal_path)

    def worker_pids(self) -> List[int]:
        pids = _pool_pids()
        if self.service.worker.is_alive():
            pids.append(self.service.worker.pid)
        return pids

    def teardown(self) -> None:
        if getattr(self, "service", None) is not None:
            self.service.close()
        shutdown_pool(terminate=True)


WORKLOADS = {cls.name: cls for cls in (Fig4Replay, SpecompSweep, ServiceJobs)}
