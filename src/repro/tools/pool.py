"""Zero-copy trace residency and persistent warm worker pools.

Before this module, every parallel stage paid two fixed costs per use:
a fresh ``ProcessPoolExecutor`` (fork + import + teardown) per
measure/sweep-cell/retry-round, and a pickled copy of the trace payload
per submitted task.  Both costs scale with ``trace x workers x cells``
and are what made 2-worker partitioned replay *slower* than serial.

Two pieces remove them:

* :class:`SharedTrace` places the serialised trace in a POSIX
  shared-memory segment **once**; workers attach by name and decode
  their partition's byte range through a zero-copy ``memoryview``.
  Cleanup is belt-and-braces: explicit ``unlink()`` on every exit path
  of the supervisor, an ``atexit`` hook for anything still registered,
  and creator-pid-stamped segment names (``repro-shm-<pid>-<seq>``) so
  any process can reap segments whose creator died without unlinking
  (SIGKILL, power loss) — :func:`reap_stale_segments` runs on every
  ``SharedTrace`` creation, so one surviving run cleans up after any
  number of killed ones.

* :class:`WorkerPool` keeps one supervised ``ProcessPoolExecutor``
  alive for the whole process: partitions, tools, sweep cells and
  retry rounds all reuse the same warm workers instead of respawning.
  The pool only ever grows; a broken executor (a worker died) or an
  explicit :meth:`WorkerPool.terminate` (a worker wedged) respawns it
  lazily on the next :meth:`WorkerPool.ensure`.  ``tasks_reused``
  counts submissions that rode an already-warm pool — the figure the
  sweep report and ``repro stats`` surface.

Worker processes keep an **attach cache** keyed by segment name
(:func:`attached_view`): the same trace is mapped once per worker, not
once per task, and the cache is LRU-capped so long-lived workers do
not accumulate mappings.  The pool starts the parent's
``resource_tracker`` before it forks any worker, so every worker shares
the segment creator's tracker process, whether the pool was warmed
before or after the first segment.  Their attach-time REGISTERs dedupe
against the creator's and the creator's unlink balances the books — no
spurious tracker unlinks or leak warnings.

Everything degrades: platforms without working shared memory fall back
to the pickled-subrange path (callers probe :func:`shm_available`),
and a forked child inheriting this module's globals can neither unlink
the parent's segments nor reuse its executor — both are guarded by
creator-pid checks.
"""

from __future__ import annotations

import atexit
import itertools
import os
import threading
from collections import OrderedDict
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional

try:  # pragma: no cover - present on every supported platform
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover - exotic build without _posixshmem
    shared_memory = None  # type: ignore[assignment]

__all__ = [
    "SharedTrace",
    "WorkerPool",
    "active_segments",
    "attached_view",
    "detach_all",
    "get_pool",
    "pool_stats",
    "reap_stale_segments",
    "shm_available",
    "shutdown_pool",
]

#: segment name prefix; the embedded creator pid is what makes stale
#: segments reapable after a SIGKILL (``repro-shm-<pid>-<seq>``)
_SHM_PREFIX = "repro-shm"

#: where POSIX shared memory surfaces as files on Linux (reaping scans
#: it directly; attach/create never need it)
_SHM_DIR = "/dev/shm"

_seq = itertools.count()
_lock = threading.RLock()

#: creator-side registry: name -> SharedTrace, for the atexit sweep
_LIVE: Dict[str, "SharedTrace"] = {}

_SHM_OK: Optional[bool] = None


def shm_available() -> bool:
    """Probe (once) whether shared-memory segments actually work here."""
    global _SHM_OK
    if _SHM_OK is None:
        if shared_memory is None:
            _SHM_OK = False
        else:
            try:
                probe = shared_memory.SharedMemory(create=True, size=16)
                probe.close()
                probe.unlink()
                _SHM_OK = True
            except Exception:
                _SHM_OK = False
    return _SHM_OK


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, not ours
        return True
    except OSError:  # pragma: no cover - conservative: assume alive
        return True
    return True


def reap_stale_segments() -> List[str]:
    """Unlink ``repro-shm-*`` segments whose creator process is dead.

    The crash-cleanup backstop: ``atexit`` cannot run under SIGKILL, so
    a killed run leaves its segment behind — but the name carries the
    creator pid, and the next run (any run, any process) reaps it here.
    Returns the names reaped; never raises.
    """
    reaped: List[str] = []
    try:
        entries = os.listdir(_SHM_DIR)
    except OSError:
        return reaped
    own = os.getpid()
    for entry in entries:
        if not entry.startswith(_SHM_PREFIX + "-"):
            continue
        parts = entry.split("-")
        if len(parts) < 4 or not parts[2].isdigit():
            continue
        pid = int(parts[2])
        if pid == own or _pid_alive(pid):
            continue
        try:
            os.unlink(os.path.join(_SHM_DIR, entry))
            reaped.append(entry)
        except OSError:  # pragma: no cover - raced with another reaper
            pass
    return reaped


class SharedTrace:
    """One trace payload resident in a shared-memory segment.

    Created by the supervising parent; workers attach by ``name`` via
    :func:`attached_view` and read ``size`` bytes zero-copy.  The
    segment outlives worker crashes (the parent owns it) and is
    unlinked exactly once — by :meth:`unlink`, the ``atexit`` sweep, or
    a later run's :func:`reap_stale_segments` if this process was
    SIGKILLed first.  Usable as a context manager.
    """

    def __init__(self, payload) -> None:
        if shared_memory is None:
            raise RuntimeError("shared memory is not available")
        size = len(payload)
        if size == 0:
            raise ValueError("cannot share an empty payload")
        reap_stale_segments()
        shm = None
        for _ in range(8):  # name collisions only via pid reuse
            name = f"{_SHM_PREFIX}-{os.getpid()}-{next(_seq)}"
            try:
                shm = shared_memory.SharedMemory(
                    name=name, create=True, size=size
                )
                break
            except FileExistsError:  # pragma: no cover - pid-reuse race
                continue
        if shm is None:  # pragma: no cover - 8 straight collisions
            raise RuntimeError("could not allocate a shared trace segment")
        shm.buf[:size] = payload
        self._shm = shm
        self._owner = os.getpid()
        self.name = shm.name
        self.size = size
        with _lock:
            _LIVE[self.name] = self

    def view(self) -> memoryview:
        """Creator-side zero-copy view (workers use attached_view)."""
        if self._shm is None:
            raise ValueError("segment already unlinked")
        return self._shm.buf[: self.size]

    def unlink(self) -> None:
        """Close and remove the segment; idempotent, never raises.

        A forked child inheriting this object is not the owner and
        must not unlink the parent's segment out from under it.
        """
        if self._shm is None or os.getpid() != self._owner:
            return
        shm, self._shm = self._shm, None
        with _lock:
            _LIVE.pop(self.name, None)
        try:
            shm.close()
        except Exception:  # pragma: no cover - exported views linger
            pass
        try:
            shm.unlink()
        except Exception:  # pragma: no cover - already reaped
            pass

    def __enter__(self) -> "SharedTrace":
        return self

    def __exit__(self, *exc) -> None:
        self.unlink()


def active_segments() -> int:
    """Segments this process created and has not yet unlinked — the
    ``shm.segments_active`` gauge (0 after every clean replay)."""
    own = os.getpid()
    with _lock:
        return sum(1 for t in _LIVE.values() if t._owner == own)


# -- worker-side attach cache -------------------------------------------------

#: name -> SharedMemory, LRU order; per-process (each pool worker gets
#: its own after fork)
_ATTACHED: "OrderedDict[str, object]" = OrderedDict()
_ATTACH_CAP = 4
_attach_hits = 0
_attach_misses = 0


def attached_view(name: str, size: int) -> memoryview:
    """Attach to segment ``name`` (cached) and return ``size`` bytes.

    The cache keys by segment name, so a worker replaying many
    partitions — or many tasks across sweep cells — of the same trace
    maps it exactly once.  Capped LRU: attaching an evicted segment
    again is just another ``shm_open``.
    """
    global _attach_hits, _attach_misses
    if shared_memory is None:
        raise RuntimeError("shared memory is not available")
    with _lock:
        shm = _ATTACHED.get(name)
        if shm is not None:
            _ATTACHED.move_to_end(name)
            _attach_hits += 1
            return shm.buf[:size]
        _attach_misses += 1
    # NB: attaching registers with the resource tracker (unconditional
    # before Python 3.13), but pool workers are forked from the segment
    # creator and share its tracker process, whose per-name cache is a
    # set — the duplicate REGISTER dedupes and the creator's unlink
    # balances it.  Unregistering here instead would strip the
    # creator's entry and make its unlink traceback in the tracker.
    shm = shared_memory.SharedMemory(name=name)
    with _lock:
        _ATTACHED[name] = shm
        while len(_ATTACHED) > _ATTACH_CAP:
            _old, old_shm = _ATTACHED.popitem(last=False)
            try:
                old_shm.close()
            except BufferError:  # pragma: no cover - view still exported
                pass
    return shm.buf[:size]


def attach_stats() -> Dict[str, int]:
    """Hit/miss counters of this process's attach cache."""
    with _lock:
        return {
            "attached": len(_ATTACHED),
            "hits": _attach_hits,
            "misses": _attach_misses,
        }


def detach_all() -> None:
    """Drop every cached attachment (tests; also safe mid-run)."""
    with _lock:
        items = list(_ATTACHED.items())
        _ATTACHED.clear()
    for _name, shm in items:
        try:
            shm.close()
        except BufferError:  # pragma: no cover
            pass


# -- persistent warm worker pool ----------------------------------------------


class WorkerPool:
    """A supervised ``ProcessPoolExecutor`` that survives between uses.

    Callers bracket each round of submissions with
    :meth:`ensure` (grow/heal to at least N workers) and leave the pool
    running afterwards; only a wedged worker forces :meth:`terminate`.
    The executor is replaced — never resized in place — when it must
    grow, is broken, or was terminated; ``spawns`` counts those
    replacements and ``tasks_reused`` the submissions that rode an
    already-used executor (the warm-pool win).
    """

    def __init__(self) -> None:
        self._executor: Optional[ProcessPoolExecutor] = None
        self._workers = 0
        self._used = False
        self._pid = os.getpid()
        self.spawns = 0
        self.respawns_broken = 0
        self.tasks = 0
        self.tasks_reused = 0

    @property
    def workers(self) -> int:
        return self._workers

    def _broken(self) -> bool:
        return bool(getattr(self._executor, "_broken", False))

    def _respawn(self, workers: int) -> None:
        if shared_memory is not None:
            # Start this process's resource tracker before the workers
            # fork, so they inherit it: a worker forked without one
            # starts its own at its first attach, which on the worker's
            # exit reports the segment as leaked and unlinks it.
            try:
                resource_tracker.ensure_running()
            except OSError:  # pragma: no cover - tracker cannot start
                pass
        old = self._executor
        if old is not None:
            if self._broken():
                self.respawns_broken += 1
            old.shutdown(wait=False, cancel_futures=True)
        self._executor = ProcessPoolExecutor(max_workers=workers)
        self._workers = workers
        self._used = False
        self.spawns += 1

    def ensure(self, workers: int) -> "WorkerPool":
        """Make the pool usable with at least ``workers`` workers.

        Grows (never shrinks — idle workers are the warmth), and heals
        a broken or terminated executor.  Raises whatever executor
        construction raises (no fork available) — callers already
        treat that as pool-unavailable and fall back to serial.
        """
        if workers < 1:
            raise ValueError("workers must be >= 1")
        with _lock:
            if (
                self._executor is None
                or self._broken()
                or self._workers < workers
            ):
                self._respawn(max(workers, self._workers))
        return self

    def submit(self, fn, *args, **kwargs) -> Future:
        """Submit one task; heals a just-broken executor once."""
        with _lock:
            if self._executor is None:
                raise RuntimeError("WorkerPool.ensure() before submit()")
            warm = self._used
            try:
                future = self._executor.submit(fn, *args, **kwargs)
            except (BrokenProcessPool, RuntimeError):
                self._respawn(self._workers)
                warm = False
                future = self._executor.submit(fn, *args, **kwargs)
            self._used = True
            self.tasks += 1
            if warm:
                self.tasks_reused += 1
            return future

    def terminate(self) -> None:
        """Kill the workers outright (a task wedged past its deadline);
        the next :meth:`ensure` respawns.  Never hangs."""
        with _lock:
            executor, self._executor = self._executor, None
            self._used = False  # _workers survives so regrow keeps size
        if executor is None:
            return
        processes = list(getattr(executor, "_processes", {}).values())
        executor.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join(timeout=5)

    def shutdown(self) -> None:
        """Graceful teardown (atexit, tests)."""
        with _lock:
            executor, self._executor = self._executor, None
            self._used = False
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def stats(self) -> Dict[str, int]:
        return {
            "workers": self._workers,
            "spawns": self.spawns,
            "respawns_broken": self.respawns_broken,
            "tasks": self.tasks,
            "tasks_reused": self.tasks_reused,
        }


_GLOBAL_POOL: Optional[WorkerPool] = None


def get_pool() -> WorkerPool:
    """The process-wide warm pool.

    One pool per process is what hoists pool lifetime to measure/sweep/
    service-job scope with no plumbing: every ``replay_partitioned``,
    ``_replay_all_supervised`` and sweep-cell round in this process
    shares it.  A forked child gets a fresh pool (executors do not
    survive fork), so nested parallelism stays safe.
    """
    global _GLOBAL_POOL
    with _lock:
        if _GLOBAL_POOL is None or _GLOBAL_POOL._pid != os.getpid():
            _GLOBAL_POOL = WorkerPool()
        return _GLOBAL_POOL


def pool_stats() -> Dict[str, int]:
    """Counters of the process-wide pool (zeros before first use)."""
    with _lock:
        if _GLOBAL_POOL is None or _GLOBAL_POOL._pid != os.getpid():
            return {
                "workers": 0,
                "spawns": 0,
                "respawns_broken": 0,
                "tasks": 0,
                "tasks_reused": 0,
            }
        return _GLOBAL_POOL.stats()


def shutdown_pool(terminate: bool = False) -> None:
    """Tear down the process-wide pool (tests, worker loops between
    jobs).  The next :func:`get_pool` starts cold."""
    global _GLOBAL_POOL
    with _lock:
        pool, _GLOBAL_POOL = _GLOBAL_POOL, None
    if pool is not None and pool._pid == os.getpid():
        if terminate:
            pool.terminate()
        else:
            pool.shutdown()


@atexit.register
def _cleanup_at_exit() -> None:  # pragma: no cover - exercised via subprocess
    """Last-chance cleanup: unlink owned segments, stop the pool.

    Runs in every process that imported this module — the owner-pid
    guards inside ``unlink()``/``shutdown_pool()`` make it a no-op in
    forked children, so a pool worker exiting cannot unlink a segment
    its parent still serves to siblings.
    """
    with _lock:
        traces = list(_LIVE.values())
    for trace in traces:
        trace.unlink()
    shutdown_pool()
    detach_all()
