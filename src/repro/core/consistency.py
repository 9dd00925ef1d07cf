"""Eventual-consistency checking utilities.

The paper's claim is that P2P-LTR "behaves correctly and assures eventual
consistency despite peers' dynamicity and failures".  This module provides
the checks the test-suite and the experiment harness use to verify that
claim mechanically:

* the P2P-Log contains a *continuous* sequence of patches ``1 .. last-ts``
  for every document (no gaps, no duplicates);
* replaying that sequence yields a canonical document state;
* every user replica that has integrated all patches holds exactly that
  state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..errors import DivergenceDetected, TimestampGapDetected
from ..ot import Document
from ..p2plog import LogEntry, P2PLogClient


@dataclass
class ConsistencyReport:
    """Outcome of a consistency check over one document."""

    document_key: str
    last_ts: int
    converged: bool
    replica_count: int
    distinct_contents: int
    canonical_lines: list[str] = field(default_factory=list)
    #: True on every report :func:`build_report` makes (a gap raises
    #: before one is built); the experiments' invariant columns read it.
    log_continuous: bool = True
    details: dict = field(default_factory=dict)

    def raise_if_inconsistent(self) -> None:
        """Raise :class:`~repro.errors.DivergenceDetected` unless the replicas converged.

        A gap in the log never reaches a report: :func:`verify_log_continuity`
        raises :class:`~repro.errors.TimestampGapDetected` first.
        """
        if not self.converged:
            raise DivergenceDetected(
                f"{self.distinct_contents} distinct replica contents for "
                f"{self.document_key!r} at ts {self.last_ts}"
            )


def verify_log_continuity(log: P2PLogClient, key: str, last_ts: int):
    """Fetch patches ``1 .. last_ts`` and verify the sequence is continuous.

    Simulation process returning the entries in timestamp order; raises
    :class:`~repro.errors.TimestampGapDetected` if an entry is missing or
    carries an unexpected timestamp.
    """
    entries = yield from log.fetch_range(key, 1, last_ts)
    for expected_ts, entry in enumerate(entries, start=1):
        if entry.ts != expected_ts:
            raise TimestampGapDetected(
                f"log entry for {key!r} at position {expected_ts} carries ts {entry.ts}"
            )
    if len(entries) != last_ts:
        raise TimestampGapDetected(
            f"expected {last_ts} log entries for {key!r}, retrieved {len(entries)}"
        )
    return entries


def replay_log(key: str, entries: Sequence[LogEntry]) -> Document:
    """Rebuild the canonical document state by applying entries in order."""
    document = Document(key=key)
    for entry in entries:
        document.apply_patch(entry.patch, ts=entry.ts)
    return document


def compare_replicas(replicas: Iterable[Document], canonical: Document) -> dict:
    """Compare replica contents against the canonical log replay.

    Only replicas that are fully caught up (``applied_ts == canonical.applied_ts``)
    are required to match; lagging replicas are reported separately.
    """
    caught_up = []
    lagging = []
    for replica in replicas:
        if replica.applied_ts == canonical.applied_ts:
            caught_up.append(replica)
        else:
            lagging.append(replica)
    contents = {tuple(replica.lines) for replica in caught_up}
    matches = all(replica.lines == canonical.lines for replica in caught_up)
    return {
        "caught_up": len(caught_up),
        "lagging": len(lagging),
        "distinct_contents": len(contents) if contents else 0,
        "matches_canonical": matches,
    }


def build_report(
    key: str,
    last_ts: int,
    entries: Sequence[LogEntry],
    replicas: Sequence[Document],
) -> ConsistencyReport:
    """Assemble a :class:`ConsistencyReport` from already-retrieved data.

    ``entries`` are what :func:`verify_log_continuity` returned, so the log
    is continuous by construction (a gap raised there).
    """
    canonical = replay_log(key, entries)
    comparison = compare_replicas(replicas, canonical)
    converged = bool(
        comparison["matches_canonical"] and comparison["distinct_contents"] <= 1
    )
    return ConsistencyReport(
        document_key=key,
        last_ts=last_ts,
        converged=converged,
        replica_count=len(replicas),
        distinct_contents=comparison["distinct_contents"],
        canonical_lines=list(canonical.lines),
        details=comparison,
    )
