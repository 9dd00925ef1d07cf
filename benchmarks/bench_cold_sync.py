"""Benchmark E12 — checkpointed retrieval for cold-start synchronisation.

The paper's retrieval procedure replays the timestamped patch log entry by
entry, so a freshly joined or long-offline peer pays for every timestamp
of document history.  With the checkpointing subsystem the peer bootstraps
from the newest DHT-stored snapshot and fetches only the suffix.  This benchmark runs the same
256-commit history with checkpointing off and on and asserts the headline
claim: at history length 256 a cold sync sends **at least 5x fewer
messages** with checkpointing enabled, while converging to the identical
state.

Run with ``pytest benchmarks/bench_cold_sync.py --benchmark-only -s``.
"""

from repro.experiments import run_experiment

HISTORY = 256


def test_benchmark_cold_sync(benchmark):
    """E12: checkpoints cut cold-sync messages >=5x at history 256."""
    run = benchmark.pedantic(
        lambda: run_experiment(
            "E12",
            quick=True,
            overrides={
                "histories": (HISTORY,),
                "peers": 10,
                "checkpoint_interval": 32,
            },
        ),
        rounds=1,
        iterations=1,
    )
    table = run.table
    print()
    print(table.render())

    rows = {row["checkpointing"]: row for row in run.result.rows}
    baseline = rows[False]
    checkpointed = rows[True]
    # Both arms fully catch up on the identical history and converge.
    for row in (baseline, checkpointed):
        assert row["synced_ts"] == HISTORY
        assert row["converged"] is True
    assert baseline["used_checkpoint"] is False
    assert checkpointed["used_checkpoint"] is True
    # Full replay retrieves the whole history; the fast path only a suffix
    # bounded by the checkpoint interval.
    assert baseline["retrieved_patches"] == HISTORY
    assert checkpointed["retrieved_patches"] <= 32
    # The acceptance bar: >= 5x fewer messages for the cold sync.
    assert checkpointed["sync_messages"] * 5 <= baseline["sync_messages"], (
        f"cold sync sent {checkpointed['sync_messages']} messages with "
        f"checkpoints vs {baseline['sync_messages']} without"
    )
