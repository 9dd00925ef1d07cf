"""Quickstart: a first P2P-LTR system, then a first declarative scenario.

Builds a small DHT ring, lets two peers edit the same document, and shows
the three things P2P-LTR guarantees: continuous timestamps, a complete
patch log, and eventual consistency of every replica.  The closing section
declares the same measurement as a :class:`~repro.engine.ScenarioSpec` and
lets the scenario engine do the sweeping and tabulation — that is how all
of E1..E20 are written.

Run with ``python examples/quickstart.py``.
"""

from repro import LtrSystem
from repro.engine import ScenarioSpec, run_scenario


def main() -> None:
    # 1. Build a system: 8 peers forming a Chord ring, every peer hosting the
    #    timestamp authority and Master-key service for its share of the keys.
    system = LtrSystem(seed=42)
    peers = system.bootstrap(8)
    print(f"ring formed with {len(peers)} peers: {', '.join(peers)}")

    # 2. peer-0 creates a document and publishes the first patch.
    key = "xwiki:GettingStarted"
    first = system.edit_and_commit("peer-0", key, "P2P-LTR in one page")
    print(f"peer-0 published revision ts={first.ts} "
          f"(latency {first.latency * 1000:.1f} ms, "
          f"{first.log_replicas} log replicas)")

    # 3. peer-1 edits the same document *without* having seen peer-0's patch.
    #    The Master-key peer tells it that it is behind; it retrieves the
    #    missing patch from the P2P-Log, merges, and retries automatically.
    second = system.edit_and_commit("peer-1", key, "a second line from peer-1")
    print(f"peer-1 published revision ts={second.ts} after retrieving "
          f"{second.retrieved_patches} missing patch(es) "
          f"in {second.attempts} validation attempt(s)")

    # 4. Everyone synchronises and all replicas are identical.
    report = system.check_consistency(key)
    print(f"document is at ts={report.last_ts}; "
          f"log continuous: {report.log_continuous}; "
          f"replicas converged: {report.converged}")
    print("final content:")
    for line in report.canonical_lines:
        print(f"  | {line}")

    # 5. Where is the Master-key peer for this document?
    print(f"Master-key peer for {key!r} is {system.master_of(key)}")

    # 6. The same steps as a declarative scenario: the engine sweeps the
    #    ring size, derives the seeds, and builds the result table.
    def measure(ctx):
        sized = ctx.build_system()  # peers/seed/latency come from the context
        created = sized.edit_and_commit("peer-0", key, "P2P-LTR in one page")
        merged = sized.edit_and_commit("peer-1", key, "a second line from peer-1")
        sized_report = sized.check_consistency(key)
        return {
            "peers": ctx.params["peers"],
            "final_ts": merged.ts,
            "retrieved": merged.retrieved_patches,
            "first_commit_ms": round(created.latency * 1000, 2),
            "converged": sized_report.converged,
        }

    spec = ScenarioSpec(
        scenario_id="QUICKSTART",
        title="Quickstart as a scenario: two sequential edits per ring size",
        columns=("peers", "final_ts", "retrieved", "first_commit_ms", "converged"),
        grid={"peers": (4, 8, 16)},
        seed=42,
        measure=measure,
    )
    print()
    print(run_scenario(spec).table.render())


if __name__ == "__main__":
    main()
