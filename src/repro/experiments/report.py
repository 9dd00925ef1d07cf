"""Report generation: turn experiment runs into an EXPERIMENTS.md-style document."""

from __future__ import annotations

from typing import Sequence

from .runner import ExperimentRun

#: One-line description of what each experiment reproduces.
EXPERIMENT_DESCRIPTIONS = {
    "E1": "Scenario 'Timestamp generation' (Figure 4): responsibility spread and continuity.",
    "E2": "Scenario 'Concurrent patch publishing' (Figure 5): serialization and total-order retrieval.",
    "E3": "Scenario 'Master-key peer departures': graceful leave and crash.",
    "E4": "Scenario 'New Master-key peer joining': key and timestamp hand-over.",
    "E5": "Prototype measurement: update response time vs. peers and network latency.",
    "E6": "Motivation (Section 1): P2P-LTR vs. centralized reconciler vs. LWW.",
    "E7": "Design ablation: P2P-Log availability vs. replication factor |Hr|.",
    "E8": "Substrate validation: Chord lookup correctness, hop counts and route cache.",
    "E9": "Extension: Zipf-skewed edits concentrating load on few Master-key peers.",
    "E10": "Extension: periodic commits soaked in scripted join/leave/crash churn.",
    "E11": "Extension: commit chain length (batch size) sweep — one Master round-trip, one KTS range, one grouped log write per chain.",
    "E12": "Extension: checkpointed retrieval — cold-start sync bootstraps from a DHT-stored snapshot plus a grouped suffix fetch, or takes the whole history from the Master's answer while its tail holds it.",
    "E13": "Extension: live mode — the unchanged stack on the wall-clock asyncio runtime, commit invariants verified under real interleavings.",
    "E14": "Nemesis: partition + heal + re-join swept over duration and edit rate; invariant snapshots at every fault boundary, post-heal convergence timed.",
    "E15": "Nemesis: Master crash + amnesiac restart under sustained load; Master-key-Succ takeover timed, timestamp continuity checked end-to-end.",
    "E16": "Cluster: the ring split across real OS processes speaking the versioned wire codec over sockets; mid-run SIGKILL of the Master's process, takeover and log continuity verified across the process boundary.",
    "E17": "Adversarial: byzantine storage peers (drop/corrupt/replay) and an equivocating Master under authenticated patches; every misbehavior masked by replication or detected and attributed by the checker's signature scan.",
    "E18": "Scale: warm-wired rings of 10^3..10^5 peers serving Zipf lookups; kernel events/sec and peak RSS headlines.",
    "E19": "Durable storage: a log shard's owner and backup crash together; restart-from-disk (SQLite/WAL) vs amnesiac re-replication, messages and time to a cold reader's convergence.",
    "E20": "Scale: the full commit pipeline (chains of 16 and of 1) on warm 10^3..10^4-peer rings; commits/sec, events/sec, hop-count and peak-RSS headlines.",
}


def render_markdown_report(runs: Sequence[ExperimentRun], *, title: str = "Experiment results") -> str:
    """Render runs as a markdown document (tables + descriptions)."""
    lines = [f"# {title}", ""]
    for run in runs:
        spec = run.result.spec
        description = EXPERIMENT_DESCRIPTIONS.get(run.experiment_id, spec.description)
        title = run.table.title
        if title.startswith(f"{run.experiment_id} "):
            title = title[len(run.experiment_id) + 1:]
        lines.append(f"## {run.experiment_id} — {title}")
        if description:
            lines.append("")
            lines.append(description)
        # The parameters in force, read off the spec that ran: swept axes
        # (tuples) and constants, whatever profile or override set them.
        parameters = {**{name: tuple(values) for name, values in spec.grid.items()},
                      **spec.constants}
        if parameters:
            rendered = ", ".join(f"{key}={value}" for key, value in sorted(parameters.items()))
            lines.append("")
            lines.append(f"Parameters: `{rendered}`")
        lines.append("")
        lines.append(run.table.to_markdown())
        for note in run.table.notes:
            lines.append(f"*{note}*")
            lines.append("")
    return "\n".join(lines)
