"""Churn tolerance: Master-key departures, crashes and joins during editing.

Reproduces the paper's dynamicity scenarios end to end — while a document
keeps receiving updates, the peer currently acting as its Master-key peer
leaves gracefully, then a later Master crashes, then a brand-new peer joins
and takes over part of the key space.  After every event the timestamp
sequence continues without a gap and the replicas stay consistent.

The whole storyline is declared as one custom
:class:`~repro.engine.ScenarioSpec` and executed by the scenario engine:
the measurement callback narrates as it goes and returns one table row per
churn event.

Run with ``python examples/churn_tolerance.py``.
"""

from repro.core import LtrConfig
from repro.engine import ScenarioSpec, run_scenario

KEY = "xwiki:LivingDocument"


def measure_churn_story(ctx):
    """One row per churn event: leave, crash, then a fresh join."""
    system = ctx.build_system(ltr_config=LtrConfig(log_replication_factor=3))
    print(f"  ring up with {len(system.peer_names())} peers (seed {ctx.seed})")

    print("  initial updates...")
    for index in range(3):
        writer = system.peer_names()[index % len(system.peer_names())]
        result = system.edit_and_commit(writer, KEY, f"revision {index} by {writer}")
        print(f"    {writer} -> ts={result.ts}")
    system.run_for(2.0)

    rows = []
    for event in ("leave", "crash", "join"):
        master_before = system.master_of(KEY)
        ts_before = system.last_ts(KEY)
        if event == "leave":
            print(f"  Master-key peer {master_before} leaves the system normally...")
            system.leave(master_before)
            writer = system.peer_names()[0]
        elif event == "crash":
            print(f"  Master-key peer {master_before} crashes without warning...")
            system.crash(master_before)
            writer = system.peer_names()[0]
        else:
            print("  a new peer 'fresh-peer' joins the system...")
            system.add_peer("fresh-peer")
            writer = "fresh-peer"
        result = system.edit_and_commit(writer, KEY, f"update right after the {event}")
        report = system.check_consistency(KEY)
        print(f"    {writer} -> ts={result.ts} (sequence continues without a gap)")
        rows.append({
            "event": event,
            "master_before": master_before,
            "master_after": system.master_of(KEY),
            "ts_before": ts_before,
            "next_ts": result.ts,
            "no_gap": result.ts == ts_before + 1,
            "converged": report.converged,
        })
    return rows


def main() -> None:
    spec = ScenarioSpec(
        scenario_id="CHURN-STORY",
        title="Churn tolerance: departures, crashes and joins during editing",
        columns=("event", "master_before", "master_after", "ts_before",
                 "next_ts", "no_gap", "converged"),
        constants={"peers": 10},
        seed=99,
        measure=measure_churn_story,
        notes=("paper claim: keys and last-ts transfer to the Master-key-Succ, "
               "so no timestamp gap appears under churn",),
    )
    print("running the churn storyline through the scenario engine...")
    result = run_scenario(spec)
    print()
    print(result.table.render())


if __name__ == "__main__":
    main()
