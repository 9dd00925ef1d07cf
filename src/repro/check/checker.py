"""The convergence checker: invariant snapshots at fault boundaries.

:class:`ConvergenceChecker` is the model-checking half of the nemesis
subsystem (:mod:`repro.faults`).  It is attached to a running
:class:`~repro.core.LtrSystem` as an opt-in fault observer; at every fault
boundary it takes a *global-state snapshot* — reading node storage, counter
items and user replicas directly, with the omniscience only a test harness
has — and verifies the paper's three commit invariants, and the one its
retry loop needs, without driving the runtime (observer callbacks run
inside timer callbacks, where re-entrant ``run`` calls are forbidden):

1. **Dense timestamps** — the authoritative counter of every tracked
   document stays within ``max_in_flight`` of the newest *surviving* log
   entry, in both directions.  The Master publishes *before* it advances
   the counter (publish-then-allocate is the protocol), so mid-commit
   snapshots legitimately observe the newest entry without its timestamp
   allocation; a counter further behind would let a timestamp be re-issued and fork
   the total order, and a counter further *ahead* means acked tail entries
   vanished from every live peer.
2. **Prefix-complete log** — every timestamp ``1 .. log_max`` survives on
   at least one live peer (owned or replica copy), and all surviving copies
   of one timestamp agree on *content* (``base_ts`` + patch).  Provenance
   fields (``published_at``) may differ: a publish that was retracted or
   re-run after a partial failure leaves re-stamped copies behind, which is
   benign as long as the replayed content is identical.
3. **OT convergence** — every caught-up user replica equals the canonical
   replay of the log prefix.
4. **At most once** — no proposal identity (``author`` +
   ``LogEntry.proposal``) appears under two timestamps of one document, over
   every surviving copy.  The first three cannot see a proposal that was
   re-sent and committed twice: the timestamps are dense, the log complete
   and the replicas agree — on a text that holds the edit twice.  Entries
   without an identity (rows from before identities, hand-built entries)
   are skipped, not flagged.

When the system runs with authenticated patches
(``ltr_config.auth_enabled``), two *adversarial* detectors join the pass:

5. **Tamper detection** — every surviving log-entry and checkpoint copy is
   re-verified against its carried HMAC signature; a copy whose content no
   longer matches is reported with the name of the peer custodying it.
6. **Equivocation detection** — surviving copies of one timestamp are
   compared across placements; diverging content is attributed to the
   Master-key peer of the document (the only role that can write a
   timestamp to multiple placements), i.e. a forked timestamp sequence.

Adversarial findings are reported both as human-readable violation lines
and as structured records (``kind``/``key``/``ts``/``peer``/``detail``) in
:attr:`CheckSnapshot.structured`, so drivers like the E17 misbehavior
sweep can assert *which* peer was caught, not just that something was.

:meth:`final_check` adds the *post-heal eventual convergence* check: it may
drive the runtime (sync every peer, fetch the log through the real
retrieval procedure) and is called once the plan has finished and the
network healed.

Snapshots are plain deterministic data: on the simulation backend the same
``(plan, seed)`` pair yields byte-identical :meth:`to_json` reports across
runs, which the test-suite asserts.

Caveat: the snapshot gap check assumes log publication is ordered per key
(chains of one patch, or quiescent batches at fault boundaries).  A
snapshot taken mid-flight of a longer chain's publish may observe a
transient gap, because a chain's placements are written in parallel.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from ..core.consistency import replay_log
from ..errors import ReproError
from ..kts.authority import COUNTER_PREFIX
from ..p2plog import (
    Checkpoint,
    LogEntry,
    make_log_key,
    verify_checkpoint,
    verify_entry,
)

#: A snapshot's read of the ring: storage key -> its ``(node name, item)``
#: copies on live peers, in ring order.
Stored = dict[str, list[tuple[str, Any]]]


@dataclass
class CheckSnapshot:
    """One invariant snapshot: global state at a single instant."""

    time: float
    label: str
    keys: dict[str, dict[str, Any]] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    #: Structured adversarial findings: ``{"kind", "key", "ts", "peer",
    #: "detail"}`` dicts, one per tampered copy / forked timestamp / doubled
    #: proposal.  Kinds: ``tampered-entry``, ``tampered-checkpoint``,
    #: ``forked``, ``doubled`` (``peer`` is the proposal's author, ``ts`` the
    #: later timestamp).
    structured: list[dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """``True`` when no invariant was violated at this boundary."""
        return not self.violations

    def to_dict(self) -> dict[str, Any]:
        """Deterministic serializable form (sorted by document key)."""
        return {
            "time": self.time,
            "label": self.label,
            "keys": {key: dict(info) for key, info in sorted(self.keys.items())},
            "violations": list(self.violations),
            "structured": [dict(record) for record in self.structured],
        }


class ConvergenceChecker:
    """Snapshots system state at fault boundaries and checks invariants."""

    def __init__(self, keys: Optional[Iterable[str]] = None,
                 *, max_in_flight: int = 1) -> None:
        #: Documents to check.  When empty, every document with a counter
        #: item anywhere in the ring is discovered at snapshot time.
        self.tracked: list[str] = sorted(set(keys)) if keys else []
        #: How far the newest log entry may run ahead of the counter at a
        #: fault boundary (publish-before-ack in-flight window): the longest
        #: chain the run commits — one for ``edit``/``commit``, the batch
        #: size for staged runs.
        self.max_in_flight = max_in_flight
        self.snapshots: list[CheckSnapshot] = []

    def track(self, key: str) -> None:
        """Add ``key`` to the tracked set (sorted, duplicates ignored)."""
        if key not in self.tracked:
            self.tracked.append(key)
            self.tracked.sort()

    # ------------------------------------------------------------ observer --

    def on_fault(self, system, label: str, details: dict) -> None:
        """Fault-boundary hook: snapshot and record (never drives the run)."""
        self.snapshots.append(self.check_now(system, label=label))

    # ----------------------------------------------------------- snapshots --

    def check_now(self, system, *, label: str = "manual",
                  strict_counter: bool = False) -> CheckSnapshot:
        """Take one invariant snapshot of ``system`` (read-only).

        ``strict_counter=True`` requires ``counter == log_max`` exactly (no
        in-flight allowance) — correct only at quiescence, where an entry
        still running ahead of its counter means an abandoned publish whose
        timestamp will be re-issued.
        """
        snapshot = CheckSnapshot(time=system.runtime.now, label=label)
        stored, checkpoints = self._read_storage(system)
        for key in self._keys(stored):
            snapshot.keys[key] = self._check_key(
                system, stored, checkpoints.get(key, []), key,
                snapshot.violations, snapshot.structured,
                strict_counter=strict_counter,
            )
        return snapshot

    def final_check(self, system, *, settle: float = 0.0,
                    label: str = "final") -> CheckSnapshot:
        """Post-heal eventual-convergence check (drives the runtime).

        Runs the real retrieval procedure on every live user peer and the
        end-to-end consistency report; call it only from driver code, after
        the plan's last fault (and any heal) has fired.
        """
        if settle > 0.0:
            system.run_for(settle)
        # Quiescent state pass first: with no commit in flight the counter
        # and the log must agree exactly.
        state = self.check_now(system, label=f"{label}:state", strict_counter=True)
        self.snapshots.append(state)
        snapshot = CheckSnapshot(time=system.runtime.now, label=label)
        for key in state.keys:
            try:
                report = system.check_consistency(key)
            except ReproError as error:
                # An unretrievable log or unreachable Master at quiescence
                # is itself the verdict, not a harness crash.
                snapshot.keys[key] = {"error": type(error).__name__}
                snapshot.violations.append(
                    f"{key}: final consistency check failed "
                    f"({type(error).__name__}: {error})"
                )
                continue
            snapshot.keys[key] = {
                "last_ts": report.last_ts,
                "replicas": report.replica_count,
                "distinct_contents": report.distinct_contents,
                "log_continuous": report.log_continuous,
                "converged": report.converged,
            }
            if not report.log_continuous:
                snapshot.violations.append(
                    f"{key}: final log not continuous up to {report.last_ts}"
                )
            if not report.converged:
                snapshot.violations.append(
                    f"{key}: replicas did not converge after heal "
                    f"({report.distinct_contents} distinct contents)"
                )
        self.snapshots.append(snapshot)
        return snapshot

    # -------------------------------------------------------------- report --

    def violations(self) -> list[str]:
        """Every violation recorded so far, in snapshot order."""
        found: list[str] = []
        for snapshot in self.snapshots:
            found.extend(snapshot.violations)
        return found

    def findings(self) -> list[dict[str, Any]]:
        """Every structured adversarial finding so far, in snapshot order."""
        found: list[dict[str, Any]] = []
        for snapshot in self.snapshots:
            found.extend(snapshot.structured)
        return found

    @property
    def ok(self) -> bool:
        """``True`` while no snapshot has recorded a violation."""
        return not self.violations()

    def report(self) -> dict[str, Any]:
        """The full checker report (what artifacts and tests consume)."""
        return {
            "tracked": list(self.tracked),
            "snapshots": [snapshot.to_dict() for snapshot in self.snapshots],
            "violations_total": len(self.violations()),
            "findings_total": len(self.findings()),
        }

    def to_json(self) -> str:
        """Canonical JSON rendering; byte-identical for replayed sim runs."""
        return json.dumps(self.report(), indent=2, sort_keys=True, default=str)

    # ------------------------------------------------------------ internals --

    @staticmethod
    def _read_storage(system) -> tuple[Stored, dict[str, list[tuple[str, Checkpoint]]]]:
        """Everything the live peers store, read in one pass in ring order.

        Returns ``(stored, checkpoints)``: ``stored`` maps a storage key to
        its ``(node name, item)`` copies, ``checkpoints`` a document key to
        its ``(node name, checkpoint)`` copies in scan order.  Copies are
        found where they are stored, not where their own fields say they
        belong, so a byzantine replay is judged at the address it took.
        """
        stored: Stored = {}
        checkpoints: dict[str, list[tuple[str, Checkpoint]]] = {}
        for node in system.ring.live_nodes():
            name = node.address.name
            for item in node.storage:
                stored.setdefault(item.key, []).append((name, item))
                if isinstance(item.value, Checkpoint):
                    checkpoints.setdefault(item.value.document_key, []).append(
                        (name, item.value)
                    )
        return stored, checkpoints

    def _keys(self, stored: Stored) -> list[str]:
        if self.tracked:
            return list(self.tracked)
        return sorted(storage_key[len(COUNTER_PREFIX):] for storage_key in stored
                      if storage_key.startswith(COUNTER_PREFIX))

    def _check_key(self, system, stored: Stored,
                   checkpoints: list[tuple[str, Checkpoint]], key: str,
                   violations: list[str], structured: list[dict[str, Any]],
                   *, strict_counter: bool = False) -> dict[str, Any]:
        owned, replicas = self._counter_values(stored, key)
        last_ts = max(owned) if owned else max(replicas, default=0)
        secret = (
            system.ltr_config.auth_secret
            if system.ltr_config.auth_enabled else None
        )

        log_max = self._probe_log_max(system, stored, key, last_ts)
        missing: list[int] = []
        mismatched: list[int] = []
        tampered: list[int] = []
        forked: list[int] = []
        doubled: list[int] = []
        landed_at: dict[tuple[str, Any], int] = {}  # proposal identity -> first ts
        entries: list[LogEntry] = []
        for ts in range(1, log_max + 1):
            located = self._entry_copies(system, stored, key, ts)
            if not located:
                missing.append(ts)
                continue
            trusted = [copy for _, _, copy in located]
            if secret is not None:
                # Tamper detector: a copy whose content no longer matches
                # its author signature, attributed to the custodying peer.
                verified = []
                for _, node_name, copy in located:
                    if verify_entry(secret, copy):
                        verified.append(copy)
                        continue
                    if ts not in tampered:
                        tampered.append(ts)
                    violations.append(
                        f"{key}: log entry ts {ts} copy on {node_name} "
                        f"fails signature verification"
                    )
                    structured.append({
                        "kind": "tampered-entry", "key": key, "ts": ts,
                        "peer": node_name,
                        "detail": "copy content does not match its signature",
                    })
                if verified:
                    trusted = verified
            # At most once: an identity this document already holds under an
            # earlier timestamp is a proposal that was committed again.  (Over
            # the copies that verify, where entries are signed: what a
            # tampered copy claims is its custodian's doing, reported above,
            # not its author's.)
            for author, proposal in sorted({
                (copy.author, copy.proposal) for copy in trusted
                if copy.proposal is not None
            }):
                first_ts = landed_at.setdefault((author, proposal), ts)
                if first_ts != ts:
                    doubled.append(ts)
                    violations.append(
                        f"{key}: proposal {proposal} of {author} is in the log "
                        f"twice, at ts {first_ts} and ts {ts}"
                    )
                    structured.append({
                        "kind": "doubled", "key": key, "ts": ts, "peer": author,
                        "detail": f"proposal {proposal} already landed at ts {first_ts}",
                    })
            # Content signature: what a replay applies.  Copies re-stamped
            # by a retried publish differ only in provenance and agree here.
            signatures = {(copy.base_ts, repr(copy.patch)) for copy in trusted}
            if len(signatures) > 1:
                mismatched.append(ts)
            # Equivocation detector: every copy *within* a placement agrees
            # yet the placements disagree with each other.  Only the
            # Master-key peer writes one timestamp to several placements,
            # so a placement-aligned fork means it served diverging
            # histories to disjoint reader sets.  (A byzantine *replica*
            # corrupts individual copies instead, leaving its placement
            # internally inconsistent — the tamper detector's territory.)
            per_placement: dict[int, set] = {}
            for index, _, copy in located:
                per_placement.setdefault(index, set()).add(
                    (copy.base_ts, repr(copy.patch))
                )
            if (
                len(per_placement) > 1
                and all(len(seen) == 1 for seen in per_placement.values())
                and len(set().union(*per_placement.values())) > 1
            ):
                forked.append(ts)
                try:
                    master = system.master_of(key)
                except ReproError:
                    master = "<unreachable>"
                violations.append(
                    f"{key}: placements hold diverging content for ts {ts} "
                    f"(timestamp sequence forked by Master-key peer {master})"
                )
                structured.append({
                    "kind": "forked", "key": key, "ts": ts, "peer": master,
                    "detail": (
                        f"{len(set().union(*per_placement.values()))} distinct "
                        f"contents across {len(located)} surviving copies"
                    ),
                })
            entries.append(trusted[0])

        for ts in missing:
            violations.append(
                f"{key}: log entry ts {ts} lost from every live peer"
            )
        for ts in mismatched:
            violations.append(
                f"{key}: surviving copies of ts {ts} disagree on content"
            )
        tampered_checkpoints = self._check_checkpoints(
            checkpoints, key, secret, violations, structured
        )
        allowance = 0 if strict_counter else self.max_in_flight
        if log_max - last_ts > allowance:
            violations.append(
                f"{key}: counter last-ts {last_ts} behind log max {log_max} "
                f"(timestamp fork hazard)"
            )
        if last_ts - log_max > allowance:
            # An entry exists before its timestamp is allocated (the Master
            # publishes, then advances the counter), so a counter ahead of
            # the *surviving* log is the tail-loss direction: acked
            # timestamps whose entries vanished from every live peer.
            violations.append(
                f"{key}: counter last-ts {last_ts} ahead of surviving log "
                f"max {log_max} (newest acked entries lost)"
            )

        caught_up = lagging = 0
        diverged: list[str] = []
        ahead: list[str] = []
        if not missing and not mismatched and log_max > 0:
            canonical = replay_log(key, entries)
            for author, replica in self._replicas(system, key):
                if replica.applied_ts == log_max:
                    caught_up += 1
                    if replica.lines != canonical.lines:
                        diverged.append(author)
                elif replica.applied_ts > log_max + allowance:
                    ahead.append(author)
                else:
                    # Behind the log, or within the in-flight window above
                    # it (it applied an acked entry whose copies the
                    # tail-loss rule already accounts for): not comparable
                    # against the canonical replay either way.
                    lagging += 1
            for author in diverged:
                violations.append(
                    f"{key}: caught-up replica at {author} diverges from "
                    f"the canonical log replay"
                )
            for author in ahead:
                violations.append(
                    f"{key}: replica at {author} applied ts beyond the "
                    f"surviving log (applied > {log_max})"
                )

        return {
            "last_ts": last_ts,
            "log_max": log_max,
            "counter_owners": len(owned),
            "missing_ts": missing,
            "mismatched_ts": mismatched,
            "tampered_ts": tampered,
            "forked_ts": forked,
            "doubled_ts": doubled,
            "tampered_checkpoints": tampered_checkpoints,
            "caught_up": caught_up,
            "lagging": lagging,
            "diverged": sorted(diverged),
        }

    @staticmethod
    def _check_checkpoints(checkpoints: list[tuple[str, Checkpoint]], key: str,
                           secret: Optional[str], violations: list[str],
                           structured: list[dict[str, Any]]) -> list[int]:
        """Signature-verify every surviving checkpoint copy of ``key``.

        Returns the sorted timestamps with at least one tampered copy.
        Checkpoints are recognized by type while reading node storage, so
        no checkpoint hash family needs reconstructing.
        """
        if secret is None:
            return []
        tampered: list[int] = []
        for node_name, checkpoint in checkpoints:
            if verify_checkpoint(secret, checkpoint):
                continue
            if checkpoint.ts not in tampered:
                tampered.append(checkpoint.ts)
            violations.append(
                f"{key}: checkpoint ts {checkpoint.ts} copy on "
                f"{node_name} fails signature verification"
            )
            structured.append({
                "kind": "tampered-checkpoint", "key": key, "ts": checkpoint.ts,
                "peer": node_name,
                "detail": "snapshot content does not match its signature",
            })
        return sorted(tampered)

    @staticmethod
    def _counter_values(stored: Stored, key: str) -> tuple[list[int], list[int]]:
        owned: list[int] = []
        replicas: list[int] = []
        for _, item in stored.get(f"{COUNTER_PREFIX}{key}", ()):
            (replicas if item.is_replica else owned).append(int(item.value))
        return owned, replicas

    def _probe_log_max(self, system, stored: Stored, key: str, last_ts: int) -> int:
        """Newest timestamp with a surviving log copy.

        Starts from the counter value and probes upward, so entries that
        outlived their counter (e.g. after an amnesiac Master restart) are
        still accounted for.
        """
        log_max = last_ts
        while log_max > 0 and not self._entry_copies(system, stored, key, log_max):
            log_max -= 1
        while self._entry_copies(system, stored, key, log_max + 1):
            log_max += 1
        return log_max

    @staticmethod
    def _entry_copies(system, stored: Stored, key: str,
                      ts: int) -> list[tuple[int, str, LogEntry]]:
        """Surviving copies of ``(key, ts)`` with their location.

        Yields ``(placement_index, node_name, entry)`` so detectors can
        attribute a bad copy to the peer custodying it and group copies by
        the hash-family placement they belong to.
        """
        log_key = make_log_key(key, ts)
        return [
            (index, node_name, item.value)
            for index, function in enumerate(system.hash_family)
            for node_name, item in stored.get(function.placement_key(log_key), ())
            if isinstance(item.value, LogEntry)
        ]

    @staticmethod
    def _replicas(system, key: str):
        """(author, document) pairs of live user replicas of ``key``."""
        pairs = []
        for user in system.users():
            name = user.node.address.name
            node = system.ring.nodes.get(name)
            if node is None or not node.alive:
                continue
            replica = user.documents.get(key)
            if replica is not None:
                pairs.append((user.author, replica))
        return sorted(pairs, key=lambda pair: pair[0])
