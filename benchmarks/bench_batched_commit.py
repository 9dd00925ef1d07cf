"""Benchmark E11 — commit throughput vs. chain length (batch size).

The commit pipeline pays one Master round-trip, one KTS allocation and one
grouped log publish per proposed chain; the paper's per-edit commit is the
chain of one, a staged batch pays them once per *batch*.  This benchmark
sweeps the batch size over the same seed and asserts the scaling lever
actually levers: at batch size 16 the commit throughput must be at least 3x
the batch-size-1 (per-edit) profile, with dense timestamps and full
convergence at every size.

Run with ``pytest benchmarks/bench_batched_commit.py --benchmark-only -s``.
"""

from repro.experiments import run_experiment


def test_benchmark_batched_commit(benchmark):
    """E11: batching multiplies commit throughput without breaking invariants."""
    run = benchmark.pedantic(
        lambda: run_experiment(
            "E11",
            quick=True,
            overrides={"batch_sizes": (1, 4, 16), "peers": 12, "edits": 48},
        ),
        rounds=1,
        iterations=1,
    )
    table = run.table
    print()
    print(table.render())

    rows = {row["batch_size"]: row for row in run.result.rows}
    # Every sweep point commits all edits, densely timestamped and converged.
    for row in rows.values():
        assert row["last_ts"] == row["edits"]
        assert row["converged"] is True
    # The acceptance bar: >= 3x commit throughput at batch size 16 vs. 1.
    assert rows[16]["commits_per_s"] >= 3 * rows[1]["commits_per_s"]
    # Monotone coordination savings: fewer KTS allocations and fewer
    # network messages as the batch grows.
    assert rows[16]["kts_allocations"] < rows[4]["kts_allocations"] < rows[1]["kts_allocations"]
    assert rows[16]["network_messages"] < rows[1]["network_messages"]
