"""Tests of the benchmark itself: a short run of every workload, and
every output check shown to reject a deliberately wrong reference.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
from common import merge_tables, profile_table, tail  # noqa: E402
from inputs import fig4_trace  # noqa: E402
from repro.core.events import EventBatch  # noqa: E402
from repro.service.journal import Journal  # noqa: E402
from repro.sweep import SweepConfig, TraceKey, TraceStore, run_sweep  # noqa: E402
from repro.tools.partition import replay_partitioned  # noqa: E402

E2E = {
    "profile_events_per_s", "op_p50_s", "op_tail_s", "followup_p50_s",
    "stored_bytes_per_event", "peak_rss_mb", "setup_s",
}


def run_bench(workload, trace=0, seconds=1):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["fig4-replay", "specomp-sweep", "service-jobs"])
def test_short_run(workload):
    result = run_bench(workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 80  # at least 40 primary operations
    assert set(result["metrics"]) == E2E
    for metric in result["metrics"].values():
        assert metric["value"] > 0
    assert result["metrics"]["op_tail_s"]["value"] != result["metrics"]["op_p50_s"]["value"]


def test_traced_run_writes_spans():
    import layers

    result = run_bench("fig4-replay", trace=1)
    assert result["correct"] is True
    assert set(result["metrics"]) == set(layers.PER_LAYER)
    with open(os.path.join(ROOT, ".perfbench", "trace-fig4-replay-seed3.json")) as handle:
        trace = json.load(handle)
    names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
    assert {"codec.decode", "events.fuse", "kernel.drms", "partition.fold"} <= names
    assert trace["metadata"]["self_time_s"]["codec.decode"] > 0


def test_bench_fails_without_program(tmp_path):
    """In a directory holding only the benchmark it must fail, quietly."""
    import shutil

    shutil.copytree(BENCH, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig4-replay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_tail_has_ten_samples_beyond():
    values = list(range(40))
    assert tail(values) == 29
    assert sum(v > tail(values) for v in values) == 10
    with pytest.raises(ValueError):
        tail(range(10))


# -- every check rejects a wrong reference --------------------------------------


@pytest.fixture(scope="module")
def fig4():
    payload, _events = fig4_trace(seed=5, runs=1)
    oracle = checks.oracle_pair(EventBatch.from_bytes(payload).iter_events())
    rep = replay_partitioned(payload, partitions=1, kinds=("drms", "rms"))
    observed = (
        profile_table(rep.profilers["drms"].profiles),
        profile_table(rep.profilers["rms"].profiles),
    )
    return observed, oracle


def off_by_one(table):
    """The same table with one routine's drms total one too high."""
    key = sorted(table)[0]
    calls, total, points = table[key]
    return {**table, key: (calls, total + 1, points)}


def test_oracle_check_catches_off_by_one(fig4):
    observed, oracle = fig4
    assert checks.check_same("fig4 vs oracle", observed, oracle) == []
    wrong = (off_by_one(oracle[0]), oracle[1])
    assert checks.check_same("fig4 vs oracle", observed, wrong)
    wrong = (oracle[0], off_by_one(oracle[1]))
    assert checks.check_same("fig4 vs oracle", observed, wrong)


def test_partitioned_vs_serial_check_catches_a_swap(fig4):
    observed, _oracle = fig4
    other_payload, _ = fig4_trace(seed=6, runs=2)
    other = checks.oracle_pair(EventBatch.from_bytes(other_payload).iter_events())
    assert checks.check_same("serial", observed, observed) == []
    assert checks.check_same("serial", observed, other)


def test_drms_geq_rms_check_catches_an_inflated_rms(fig4):
    observed, _oracle = fig4
    assert checks.check_drms_geq_rms("fig4", observed) == []
    drms, rms = observed
    routine_key = max(drms, key=lambda k: drms[k][1])
    calls, total, points = rms[routine_key]
    inflated = dict(rms)
    inflated[routine_key] = (calls, drms[routine_key][1] + 1, points)
    assert checks.check_drms_geq_rms("fig4", (drms, inflated))


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("store"))
    cfg = SweepConfig(workloads=("md",), scales=(1, 2), threads=4,
                      tools=("aprof", "aprof-drms"), store_root=root)
    cold = run_sweep(cfg)
    merged = (profile_table(cold.cells[0]["drms"].profiles),
              profile_table(cold.cells[0]["rms"].profiles))
    warm = run_sweep(cfg)
    warm_merged = (profile_table(warm.cells[0]["drms"].profiles),
                   profile_table(warm.cells[0]["rms"].profiles))
    store = TraceStore(root)
    cells = {}
    for scale in (1, 2):
        key = TraceKey("md", scale, 4)
        cells[scale] = (profile_table(store.get_shard(key, "drms").profiles),
                        profile_table(store.get_shard(key, "rms").profiles))
    oracles = {s: checks.oracle_for_cell("md", s, 4) for s in (1, 2)}
    return root, merged, warm_merged, cells, oracles


def test_cell_oracle_check_catches_a_swapped_cell(sweep):
    _root, _merged, _warm, cells, oracles = sweep
    assert checks.check_same("md@s1 vs oracle", cells[1], oracles[1]) == []
    assert checks.check_same("md@s1 vs oracle", cells[1], oracles[2])


def test_warm_check_catches_another_cells_profile(sweep):
    _root, merged, warm, cells, _oracles = sweep
    assert checks.check_same("warm", warm, merged) == []
    assert checks.check_same("warm", cells[2], merged)


def test_merged_job_check_catches_a_wrong_cell_oracle(sweep):
    _root, merged, _warm, _cells, oracles = sweep
    good = {"md": [oracles[1], oracles[2]]}
    assert checks.check_merged_job("job", {"md": merged}, good) == []
    bad = {"md": [oracles[2], oracles[2]]}
    assert checks.check_merged_job("job", {"md": merged}, bad)
    shifted = {"md": [(off_by_one(oracles[1][0]), oracles[1][1]), oracles[2]]}
    assert checks.check_merged_job("job", {"md": merged}, shifted)


def test_merge_tables_folds_like_the_profiles(sweep):
    _root, merged, _warm, cells, _oracles = sweep
    assert merge_tables([cells[1][0], cells[2][0]]) == merged[0]


def test_journal_check_catches_torn_and_corrupt_frames(tmp_path):
    path = str(tmp_path / "j.rpjl")
    with Journal(path, fsync=False) as journal:
        for n in range(5):
            journal.append("probe", n=n)
    _records, stats = Journal(path, readonly=True).replay()
    assert checks.check_journal(stats) == []
    data = open(path, "rb").read()
    open(path, "wb").write(data[:-3])
    _records, stats = Journal(path, readonly=True).replay()
    assert checks.check_journal(stats)
    middle = bytearray(data)
    middle[len(data) // 2] ^= 0xFF
    open(path, "wb").write(bytes(middle))
    _records, stats = Journal(path, readonly=True).replay()
    assert checks.check_journal(stats)


def test_audit_check_catches_a_corrupt_shard(sweep):
    root, *_ = sweep
    store = TraceStore(root)
    assert checks.check_audit(store.audit()) == []
    shard = store.shard_path(TraceKey("md", 1, 4), "drms")
    with open(shard, "r+b") as handle:
        handle.seek(10)
        handle.write(b"\x00garbage\x00")
    assert checks.check_audit(TraceStore(root).audit())
