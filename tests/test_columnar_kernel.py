"""Property tests for the columnar kernel and the superop fusion layer.

Three contracts:

* **Fusion is invisible.** ``fuse_batch`` (and encode-time fusion via
  ``TraceEncoder(fuse=True)``) collapses stride-1 same-thread runs into
  run superops, but ``iter_events`` expands them back to the identical
  logical stream, ``event_count`` still counts logical events, and the
  binary serialisation round-trips fused batches unchanged.  The
  vectorised pass is row-for-row the scalar loop it replaced, kept
  here as ``reference_fuse``, at every slice size.
* **The columnar engine is invisible.** On arbitrary traces —
  including tiny counter limits that force renumbering mid-batch, and
  fault-injected VM runs — ``consume_columnar`` over the fused batch
  leaves exactly the same profiler state as ``consume_batch``, the
  scalar ``consume`` loop and the naive set-based oracle: profiles,
  read-attribution splits, pending (partial) drms on the shadow stacks
  and the full metrics snapshot.
* **Caches survive compaction.** Renumbering rewrites shadow leaves in
  place, so the ``(tag, chunk)`` pairs the kernels keep in locals stay
  valid — leaf identity is asserted across a forced mid-batch renumber;
  ``begin_trace()`` instead swaps whole shadow objects, which the
  engines pick up because they re-read them on every call.
"""

import threading
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.events as events_module
import repro.tools.partition as partition_module
from repro.core import (
    FULL_POLICY,
    DrmsProfiler,
    NaiveDrmsProfiler,
    RmsProfiler,
)
from repro.core.events import (
    OP_CALL,
    OP_READ,
    OP_READ_RUN,
    OP_RETURN,
    OP_SWITCH_THREAD,
    OP_USER_TO_KERNEL,
    OP_WRITE,
    OP_WRITE_RUN,
    Call,
    EventBatch,
    Read,
    Return,
    TraceEncoder,
    Write,
    count_superops,
    decode_batch,
    encode_events,
    fuse_batch,
)
from repro.core.tracefile import (
    TraceFormatError,
    iter_section_batches,
    plan_partitions,
    trace_section_stats,
)
from repro.tools import DEFAULT_TOOLS, replay_tool, replay_tool_streaming
from repro.tools.base import AnalysisTool
from repro.tools.partition import replay_partition

from tests.test_batch_pipeline import (
    ALL_POLICIES,
    activation_sizes,
    profile_state,
    random_trace,
    tool_state,
)

# -- fusion layer -------------------------------------------------------------


@given(random_trace())
@settings(max_examples=200, deadline=None)
def test_fuse_round_trips_and_counts_logical_events(events):
    batch = encode_events(events)
    fused = fuse_batch(batch)
    assert list(fused.iter_events()) == events
    assert fused.event_count() == len(events)
    assert len(fused.ops) <= len(batch.ops)
    runs, covered = count_superops(fused)
    assert runs == sum(
        1 for op in fused.ops if op in (OP_READ_RUN, OP_WRITE_RUN)
    )
    assert covered == sum(
        c
        for op, c in zip(fused.ops, fused.costs)
        if op in (OP_READ_RUN, OP_WRITE_RUN)
    )


@given(random_trace())
@settings(max_examples=100, deadline=None)
def test_fuse_is_idempotent(events):
    fused = fuse_batch(encode_events(events))
    again = fuse_batch(fused)
    assert again.ops == fused.ops
    assert again.args == fused.args
    assert again.costs == fused.costs
    assert again.threads == fused.threads


@given(random_trace())
@settings(max_examples=100, deadline=None)
def test_encoder_fusion_matches_post_pass(events):
    """Encode-time fusion (``TraceEncoder(fuse=True)``) must emit the
    exact rows the post-pass produces."""
    encoder = TraceEncoder(fuse=True)
    for event in events:
        encoder.append_event(event)
    inline = encoder.batch
    post = fuse_batch(encode_events(events))
    assert inline.ops == post.ops
    assert inline.args == post.args
    assert inline.costs == post.costs
    assert encoder.superops_fused == sum(
        1 for op in inline.ops if op in (OP_READ_RUN, OP_WRITE_RUN)
    )


@given(random_trace())
@settings(max_examples=75, deadline=None)
def test_fused_batch_bytes_round_trip(events):
    """Run superops serialise through the v2 binary format unchanged."""
    fused = fuse_batch(encode_events(events))
    clone = EventBatch.from_bytes(fused.to_bytes())
    assert clone.ops == fused.ops
    assert decode_batch(clone) == events


def test_runs_split_at_leaf_boundaries():
    """A long stride-1 run is emitted as one superop per 64-cell leaf,
    so every run the kernel sees stays inside one shadow chunk."""
    events = [Write(1, 0x240 - 10 + i) for i in range(80)]
    fused = fuse_batch(encode_events(events))
    rows = [
        (a, c)
        for op, a, c in zip(fused.ops, fused.args, fused.costs)
        if op == OP_WRITE_RUN
    ]
    assert rows == [(0x236, 10), (0x240, 64), (0x280, 6)]
    for base, length in rows:
        assert base >> 6 == (base + length - 1) >> 6


def test_fusion_skips_non_adjacent_and_cross_thread():
    events = [Read(1, 0x10), Read(1, 0x12), Read(1, 0x13), Read(2, 0x14)]
    fused = fuse_batch(encode_events(events))
    assert fused.ops.count(OP_READ_RUN) == 1  # only 0x12,0x13 fuse
    assert fused.ops.count(OP_READ) == 2
    assert list(fused.iter_events()) == events


def reference_fuse(batch, leaf_bits=6):
    """The row-at-a-time fusion loop ``fuse_batch`` replaced, kept as
    the reference its vectorised run detection must reproduce."""
    ops, threads, args, costs = batch.ops, batch.threads, batch.args, batch.costs
    f_ops, f_threads = array("b"), array("q")
    f_args, f_costs = array("q"), array("q")
    tail_op = -1
    tail_thread = tail_next = 0
    tail_leaf = -1
    for i in range(len(ops)):
        op = ops[i]
        if op == OP_READ or op == OP_WRITE:
            thread = threads[i]
            addr = args[i]
            run_op = OP_READ_RUN if op == OP_READ else OP_WRITE_RUN
            if (
                (tail_op == op or tail_op == run_op)
                and thread == tail_thread
                and addr == tail_next
                and (addr >> leaf_bits) == tail_leaf
            ):
                if tail_op == op:
                    f_ops[-1] = run_op
                    f_costs[-1] = 2
                    tail_op = run_op
                else:
                    f_costs[-1] += 1
                tail_next = addr + 1
                continue
            tail_op = op
            tail_thread = thread
            tail_next = addr + 1
            tail_leaf = addr >> leaf_bits
        elif op == OP_READ_RUN or op == OP_WRITE_RUN:
            tail_op = op
            tail_thread = threads[i]
            tail_next = args[i] + costs[i]
            tail_leaf = args[i] >> leaf_bits
        else:
            tail_op = -1
        f_ops.append(op)
        f_threads.append(threads[i])
        f_args.append(args[i])
        f_costs.append(costs[i])
    return EventBatch(f_ops, f_threads, f_args, f_costs, names=batch.names)


def columns(batch):
    return (batch.ops, batch.threads, batch.args, batch.costs)


@st.composite
def fusion_rows(draw):
    """Raw batch rows built from segments: stride-1 plain read/write
    runs, already-fused run rows and non-memory rows, on up to three
    threads, with bases near leaf edges so runs cross leaf boundaries
    (and, at tiny slice sizes, slice cuts)."""
    ops, threads = array("b"), array("q")
    args, costs = array("q"), array("q")
    segments = draw(
        st.lists(
            st.tuples(
                st.sampled_from(("read", "write", "run", "other")),
                st.integers(1, 3),
                st.integers(0, 5),
                st.integers(-8, 8),
                st.integers(1, 12),
                st.integers(0, 2),
            ),
            max_size=40,
        )
    )
    for kind, thread, leaf, offset, length, extra in segments:
        base = leaf * 64 + offset
        if kind == "other":
            op = (OP_CALL, OP_RETURN, OP_SWITCH_THREAD, OP_USER_TO_KERNEL)[
                extra % 4
            ]
            ops.append(op)
            threads.append(thread)
            args.append(base)
            costs.append(length)
        elif kind == "run":
            ops.append(OP_WRITE_RUN if extra else OP_READ_RUN)
            threads.append(thread)
            args.append(base)
            costs.append(length)
        else:
            op = OP_READ if kind == "read" else OP_WRITE
            for k in range(length):
                ops.append(op)
                threads.append(thread)
                args.append(base + k)
                # plain rows carry no cost in VM traces; a stray one
                # must survive on an unfused row and vanish in a run
                costs.append(extra if k == 0 else 0)
    return EventBatch(ops, threads, args, costs)


def fuse_with_slice(batch, slice_rows, leaf_bits=6):
    saved = events_module._FUSE_SLICE
    events_module._FUSE_SLICE = slice_rows
    try:
        return fuse_batch(batch, leaf_bits)
    finally:
        events_module._FUSE_SLICE = saved


@given(fusion_rows(), st.sampled_from([1, 2, 3, 5, 16, 16384]), st.sampled_from([6, 3]))
@settings(max_examples=300, deadline=None)
def test_fuse_batch_matches_scalar_reference(batch, slice_rows, leaf_bits):
    """Vectorised fusion is row-for-row the scalar loop, at any slice
    size (tiny slices put many runs across slice cuts), and idempotent."""
    fused = fuse_with_slice(batch, slice_rows, leaf_bits)
    assert columns(fused) == columns(reference_fuse(batch, leaf_bits))
    assert columns(fuse_with_slice(fused, slice_rows, leaf_bits)) == columns(
        fused
    )


def test_fuse_batch_empty():
    fused = fuse_batch(EventBatch())
    assert columns(fused) == columns(EventBatch())
    assert [col.typecode for col in columns(fused)] == ["b", "q", "q", "q"]


def test_fuse_batch_beyond_one_slice():
    """A batch several slices long, whose runs straddle every slice cut
    and whose last run spans a whole slice, fuses like the reference."""
    n = 3 * events_module._FUSE_SLICE + 100
    ops = array("b", [OP_READ] * n)
    threads = array("q", [1 + (i // 5000) % 2 for i in range(n)])
    args = array("q", [i + 10 for i in range(n)])
    batch = EventBatch(ops, threads, args, array("q", [0] * n))
    assert columns(fuse_batch(batch)) == columns(reference_fuse(batch))
    wide = 20  # 1M-cell leaves: one run longer than a slice
    assert columns(fuse_batch(batch, wide)) == columns(
        reference_fuse(batch, wide)
    )


# -- engine equivalence -------------------------------------------------------


@given(random_trace(), st.sampled_from(ALL_POLICIES))
@settings(max_examples=150, deadline=None)
def test_columnar_drms_equals_batched_scalar_and_oracle(events, policy):
    batch = encode_events(events)
    fused = fuse_batch(batch)
    columnar = DrmsProfiler(policy=policy)
    batched = DrmsProfiler(policy=policy)
    oracle = NaiveDrmsProfiler(policy=policy)
    columnar.consume_columnar(fused)
    batched.run_batch(batch)
    oracle.run(events)
    assert profile_state(columnar.profiles) == profile_state(batched.profiles)
    assert activation_sizes(columnar.profiles) == activation_sizes(
        oracle.profiles
    )
    columnar_counts = {
        r: tuple(c) for r, c in columnar.read_counters.items() if any(c)
    }
    oracle_counts = {
        r: tuple(c) for r, c in oracle.read_counters.items() if any(c)
    }
    assert columnar_counts == oracle_counts
    assert columnar.space_cells() == batched.space_cells()


@given(random_trace(), st.sampled_from([None, 64, 7]))
@settings(max_examples=100, deadline=None)
def test_columnar_drms_metrics_snapshot_equals_batched(events, counter_limit):
    """Snapshot equality under renumbering: the engines must agree on
    every observable, including pending partial drms on the shadow
    stacks and the renumbering statistics.  ``superops_consumed`` is
    deliberately *not* part of the snapshot (it is engine telemetry,
    not profiler state)."""
    batch = encode_events(events)
    fused = fuse_batch(batch)
    columnar = DrmsProfiler(policy=FULL_POLICY, counter_limit=counter_limit)
    batched = DrmsProfiler(policy=FULL_POLICY, counter_limit=counter_limit)
    scalar = DrmsProfiler(policy=FULL_POLICY, counter_limit=counter_limit)
    columnar.consume_columnar(fused)
    batched.run_batch(batch)
    scalar.run(events)
    assert columnar.metrics_snapshot() == batched.metrics_snapshot()
    assert columnar.metrics_snapshot() == scalar.metrics_snapshot()
    pending = {
        t: [(e.rtn, e.ts, e.drms) for e in s.entries]
        for t, s in columnar.stacks.items()
    }
    pending_batched = {
        t: [(e.rtn, e.ts, e.drms) for e in s.entries]
        for t, s in batched.stacks.items()
    }
    assert pending == pending_batched


@given(random_trace())
@settings(max_examples=100, deadline=None)
def test_columnar_rms_equals_batched_and_scalar(events):
    batch = encode_events(events)
    fused = fuse_batch(batch)
    columnar = RmsProfiler()
    batched = RmsProfiler()
    scalar = RmsProfiler()
    columnar.consume_columnar(fused)
    batched.run_batch(batch)
    scalar.run(events)
    assert profile_state(columnar.profiles) == profile_state(batched.profiles)
    assert columnar.metrics_snapshot() == scalar.metrics_snapshot()
    assert columnar.space_cells() == batched.space_cells()


@given(random_trace(), st.integers(1, 13))
@settings(max_examples=50, deadline=None)
def test_columnar_split_batches_equal_single_batch(events, split):
    """Feeding fused slices (as the streaming decode path does) is
    equivalent to one monolithic fused batch."""
    whole = DrmsProfiler(policy=FULL_POLICY)
    whole.consume_columnar(fuse_batch(encode_events(events)))
    chunked = DrmsProfiler(policy=FULL_POLICY)
    encoder = TraceEncoder(
        consumer=lambda b: chunked.consume_columnar(fuse_batch(b)),
        flush_events=split,
    )
    for event in events:
        encoder.append_event(event)
    encoder.flush()
    assert profile_state(chunked.profiles) == profile_state(whole.profiles)
    assert chunked.space_cells() == whole.space_cells()


@given(st.integers(0, 2**32 - 1), st.integers(5, 40))
@settings(max_examples=25, deadline=None)
def test_columnar_equivalence_under_fault_injection(seed, items):
    """A fault-injected VM trace (a nonzero FaultPlan) replays
    identically under every engine."""
    from repro.vm.faults import FaultPlan
    from repro.workloads.patterns import producer_consumer

    machine = producer_consumer(items)
    machine.set_fault_plan(FaultPlan(seed=seed))
    machine.run()
    events = machine.trace
    batch = encode_events(events)
    fused = fuse_batch(batch)
    columnar = DrmsProfiler(policy=FULL_POLICY)
    batched = DrmsProfiler(policy=FULL_POLICY)
    scalar = DrmsProfiler(policy=FULL_POLICY)
    columnar.consume_columnar(fused)
    batched.run_batch(batch)
    scalar.run(events)
    assert columnar.metrics_snapshot() == batched.metrics_snapshot()
    assert columnar.metrics_snapshot() == scalar.metrics_snapshot()
    assert profile_state(columnar.profiles) == profile_state(scalar.profiles)


# -- cache safety across compaction and execution boundaries ------------------


def test_leaf_identity_survives_mid_batch_renumber():
    """Renumbering rewrites leaves in place: a chunk reference captured
    before a forced mid-batch compaction must still be the live chunk
    afterwards, holding the renumbered values."""
    warmup = [Write(1, a) for a in range(0x40)] + [
        Read(1, a) for a in range(0x40)
    ]
    prof = DrmsProfiler(policy=FULL_POLICY, counter_limit=24)
    prof.consume_columnar(fuse_batch(encode_events(warmup)))
    wts_chunk = prof.wts.leaf_peek(0x00)
    ts_chunk = prof.ts[1].leaf_peek(0x00)
    assert wts_chunk is not None and ts_chunk is not None

    # Enough calls to push count past the limit several times over, with
    # runs interleaved so the kernel replays them across compactions.
    trailer = []
    for i in range(40):
        trailer.append(Read(1, 0x10 + (i % 8)))
        trailer.append(Call(1, f"r{i % 3}"))
        trailer.extend(Read(1, a) for a in range(0x20, 0x30))
        trailer.append(Return(1))
    prof.consume_columnar(fuse_batch(encode_events(trailer)))
    assert prof.renumber_passes > 0
    assert prof.wts.leaf_peek(0x00) is wts_chunk
    assert prof.ts[1].leaf_peek(0x00) is ts_chunk
    # and the state is still exactly the unlimited profiler's
    unlimited = DrmsProfiler(policy=FULL_POLICY, counter_limit=None)
    unlimited.consume_columnar(fuse_batch(encode_events(warmup + trailer)))
    assert profile_state(prof.profiles) == profile_state(unlimited.profiles)


def test_begin_trace_swaps_shadows_for_every_engine():
    """``begin_trace()`` replaces the shadow objects wholesale; the next
    ``consume_columnar`` call re-reads them, so profiling the second
    trace starts from clean shadows under every engine."""
    first = [Write(1, a) for a in range(16)]
    second = (
        [Call(1, "f")] + [Read(1, a) for a in range(16)] + [Return(1)]
    )
    results = []
    for engine in ("batched", "columnar"):
        prof = DrmsProfiler(policy=FULL_POLICY, keep_activations=False)
        old_wts = prof.wts
        if engine == "batched":
            prof.consume_batch(encode_events(first))
        else:
            prof.consume_columnar(fuse_batch(encode_events(first)))
        prof.begin_trace()
        assert prof.wts is not old_wts
        if engine == "batched":
            prof.consume_batch(encode_events(second))
        else:
            prof.consume_columnar(fuse_batch(encode_events(second)))
        results.append(
            (profile_state(prof.profiles), dict(prof.read_counters))
        )
    assert results[0] == results[1]


# -- streaming zero-copy decode -----------------------------------------------


def _long_trace(n=2600):
    """More events than one 1024-event section, several threads."""
    events = []
    for t in (1, 2):
        events.append(Call(t, f"work{t}"))
    for i in range(n - 6):
        t = 1 + (i % 2)
        base = 0x1000 * t
        if i % 9 == 0:
            events.append(Write(t, base + (i % 200)))
        else:
            events.append(Read(t, base + (i % 200)))
    for t in (1, 2):
        events.append(Return(t))
    return events[:n]


def test_section_batches_round_trip_multi_section():
    events = _long_trace()
    payload = encode_events(events).to_bytes()
    sections = list(iter_section_batches(payload))
    assert len(sections) > 1
    decoded = [e for s in sections for e in s.iter_events()]
    assert decoded == events


def test_pipeline_reraises_decode_corruption():
    """A flipped byte in a late section surfaces as TraceFormatError in
    the decode-fuse-replay loop; the CRC-clean prefix still streams
    through first."""
    events = _long_trace()
    payload = bytearray(encode_events(events).to_bytes())
    payload[-40] ^= 0xFF  # inside the last section's event columns
    got = []
    with pytest.raises(TraceFormatError):
        for section in iter_section_batches(bytes(payload)):
            got.extend(fuse_batch(section).iter_events())
    assert got == events[: len(got)]
    assert len(got) >= 1024  # at least the first section survived


def test_streaming_profile_matches_monolithic():
    events = _long_trace()
    payload = encode_events(events).to_bytes()
    streamed = DrmsProfiler(policy=FULL_POLICY)
    for section in iter_section_batches(payload):
        streamed.consume_columnar(fuse_batch(section))
    whole = DrmsProfiler(policy=FULL_POLICY)
    whole.consume_batch(encode_events(events))
    assert streamed.metrics_snapshot() == whole.metrics_snapshot()


def test_partition_replay_decodes_and_fuses_each_section_once(monkeypatch):
    """Both profiler kinds of a partition replay share one decode and
    one fusion per section, in the calling thread."""
    events = _long_trace()
    batch = encode_events(events)
    payload = batch.to_bytes()
    part = plan_partitions(payload, 1).partitions[0]
    decoded, fused = [], []
    real_iter = partition_module.iter_section_batches
    real_fuse = partition_module.fuse_batch

    def counting_iter(*args, **kwargs):
        for section in real_iter(*args, **kwargs):
            decoded.append(len(section))
            yield section

    def counting_fuse(section, *args, **kwargs):
        fused.append(len(section))
        return real_fuse(section, *args, **kwargs)

    def no_threads(self):
        raise AssertionError(f"replay started a thread: {self.name}")

    monkeypatch.setattr(partition_module, "iter_section_batches", counting_iter)
    monkeypatch.setattr(partition_module, "fuse_batch", counting_fuse)
    monkeypatch.setattr(threading.Thread, "start", no_threads)
    shards = replay_partition(payload, part, ("drms", "rms"), 1)
    sections = len(trace_section_stats(payload))
    assert sections > 1
    assert len(decoded) == sections
    assert fused == decoded
    assert [s.kind for s in shards] == ["drms", "rms"]
    assert shards[0].decode_fuse_s == shards[1].decode_fuse_s > 0.0
    drms = DrmsProfiler(policy=FULL_POLICY, keep_activations=False)
    rms = RmsProfiler(keep_activations=False)
    drms.consume_batch(batch)
    rms.consume_batch(batch)
    assert profile_state(shards[0].profiler.profiles) == profile_state(
        drms.profiles
    )
    assert profile_state(shards[1].profiler.profiles) == profile_state(
        rms.profiles
    )
    # the runner's streaming replay stays on the calling thread too
    replay_tool_streaming(DEFAULT_TOOLS["aprof-drms"], payload, repeats=1)


# -- tool replay engines ------------------------------------------------------


@given(random_trace())
@settings(max_examples=40, deadline=None)
def test_every_tool_agrees_across_engines(events):
    batch = encode_events(events)
    fused = fuse_batch(batch)
    for name, factory in DEFAULT_TOOLS.items():
        scalar = factory()
        for event in events:
            scalar.consume(event)
        batched = factory()
        batched.consume_batch(batch)
        columnar = factory()
        columnar.consume_columnar(fused if columnar.supports_superops else batch)
        assert tool_state(batched) == tool_state(scalar), name
        assert tool_state(columnar) == tool_state(scalar), name


class _PayloadSpy(AnalysisTool):
    """Records which batch shape the runner hands it."""

    name = "spy"

    def __init__(self, superops):
        self.supports_superops = superops
        self.saw_runs = None

    def consume_batch(self, batch):
        self.saw_runs = OP_READ_RUN in batch.ops or OP_WRITE_RUN in batch.ops

    def consume_columnar(self, batch):
        self.consume_batch(batch)

    def space_cells(self):
        return 0

    def finish(self):
        return {}


def test_replay_tool_gates_superops_on_capability():
    """Under the columnar engine, only superop-capable tools ever see
    fused batches; the rest get the plain opcode stream."""
    events = [Read(1, a) for a in range(32)]
    batch = encode_events(events)
    spies = []

    def make(superops):
        def factory():
            spy = _PayloadSpy(superops)
            spies.append(spy)
            return spy

        return factory

    replay_tool(make(True), batch, repeats=1, engine="columnar")
    replay_tool(make(False), batch, repeats=1, engine="columnar")
    replay_tool(make(True), batch, repeats=1, engine="batched")
    capable, plain, batched = spies
    assert capable.saw_runs is True
    assert plain.saw_runs is False
    assert batched.saw_runs is False


def test_replay_tool_rejects_unknown_engine():
    batch = encode_events([Read(1, 0x10)])
    with pytest.raises(ValueError, match="unknown engine"):
        replay_tool(DEFAULT_TOOLS["aprof"], batch, repeats=1, engine="turbo")


def test_replay_tool_streaming_matches_direct_replay():
    events = _long_trace(1500)
    batch = encode_events(events)
    payload = batch.to_bytes()
    for name, factory in DEFAULT_TOOLS.items():
        _, space_direct = replay_tool(
            factory, batch, repeats=1, engine="columnar"
        )
        _, space_streamed = replay_tool_streaming(factory, payload, repeats=1)
        assert space_streamed == space_direct, name
