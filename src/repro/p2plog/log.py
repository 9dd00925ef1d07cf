"""The P2P-Log: highly available storage of timestamped patches.

Every validated patch is placed at ``n = |Hr|`` distinct Log-Peers by
hashing ``key + ts`` with each replication hash function
(``Put(h1(key+ts), patch) ... Put(hn(key+ts), patch)``), exactly as in
Section 2/3 of the paper.  Retrieval tries the placements in order until one
responds, so a patch stays available as long as at least one of its
Log-Peers (or their successor replicas) is alive.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..chord import HashFunctionFamily
from ..dht import ChordDhtClient
from ..errors import (
    PLACEMENT_FAILURES,
    AuthenticationError,
    CheckpointUnavailable,
    KeyNotFound,
    PatchUnavailable,
)
from .checkpoint import (
    CHECKPOINT_SALT_PREFIX,
    Checkpoint,
    make_checkpoint_key,
    retained_boundaries,
)
from .entry import LogEntry, make_log_key

#: One rule for every per-placement loop: a placement that cannot be routed
#: to or does not answer (:data:`~repro.errors.PLACEMENT_FAILURES`) is
#: skipped, and so, on a read, is one that does not hold the key.
_READ_MISSES = (KeyNotFound, *PLACEMENT_FAILURES)

#: How many primary placements a range retrieval resolves and fetches at a
#: time (:meth:`P2PLogClient.fetch_range`); 1 is the paper's one
#: ``get(hi(key+ts))`` at a time.
MAX_PARALLEL = 16


class P2PLogClient:
    """Publish and retrieve timestamped patches in the DHT."""

    def __init__(
        self,
        dht: ChordDhtClient,
        hash_family: HashFunctionFamily,
        *,
        entry_verifier=None,
        checkpoint_verifier=None,
    ) -> None:
        self.dht = dht
        self.hash_family = hash_family
        # Same |Hr| and identifier width as the patch placements, but
        # independent salts: a document's checkpoints live at different
        # Log-Peers than its patches.
        self.checkpoint_family = HashFunctionFamily.create(
            len(hash_family),
            bits=hash_family[0].bits,
            prefix=CHECKPOINT_SALT_PREFIX,
        )
        #: Optional authenticity predicates (``DESIGN.md`` §"Adversarial
        #: model & authenticity"): ``entry_verifier(entry) -> bool`` is
        #: applied to every retrieved log entry and
        #: ``checkpoint_verifier(checkpoint) -> bool`` to every retrieved
        #: checkpoint.  A replica whose copy fails verification is treated
        #: like an unreachable placement — retrieval falls through to the
        #: next hash function — so tampering is *masked* while any honest
        #: copy survives.
        self.entry_verifier = entry_verifier
        self.checkpoint_verifier = checkpoint_verifier
        self.auth_rejects = 0
        self.checkpoint_auth_rejects = 0
        self.published_entries = 0
        self.retrievals = 0
        self.fallback_reads = 0
        self.checkpoints_published = 0
        self.checkpoints_fetched = 0
        self.checkpoint_misses = 0
        self.checkpoints_removed = 0

    @property
    def replication_factor(self) -> int:
        """Number of independent placements of every log entry (``|Hr|``)."""
        return len(self.hash_family)

    # -- publication ------------------------------------------------------------

    def append_many(self, entries: Sequence[LogEntry]):
        """Store ``entries`` at all their Log-Peers in one sweep (process).

        Every entry gets its full ``|Hr|`` placements
        (``Put(h1(key+ts), patch) ... Put(hn(key+ts), patch)``); the
        placements of the whole chain are pushed through
        :meth:`~repro.dht.ChordDhtClient.put_many`, which resolves them
        concurrently and groups them by responsible peer — so the chain
        lands in the log with one replicated write per peer instead of one
        per placement.  A placement whose Log-Peer is unreachable is skipped
        (its successor replica is rebuilt by the DHT replication when the
        ring stabilizes).  Returns the list of per-entry placement counts
        (aligned with ``entries``); raises
        :class:`~repro.errors.PatchUnavailable` if any entry could not be
        stored at a single Log-Peer.
        """
        entries = list(entries)
        if not entries:
            return []
        items = []
        entry_of: list[int] = []
        for index, entry in enumerate(entries):
            log_key = entry.log_key
            for function in self.hash_family:
                items.append((function.placement_key(log_key), entry, function(log_key)))
                entry_of.append(index)
        answer = yield from self.dht.put_many(items)
        per_entry = [0] * len(entries)
        for flag, index in zip(answer["stored"], entry_of):
            if flag:
                per_entry[index] += 1
        for index, placements in enumerate(per_entry):
            if placements == 0:
                raise PatchUnavailable(entries[index].document_key, entries[index].ts)
        self.published_entries += len(entries)
        return per_entry

    def warm(self, document_key: str, from_ts: int, to_ts: int) -> None:
        """Resolve the Log-Peers of entries ``from_ts .. to_ts`` ahead of their publish.

        Placements are a pure function of ``key + ts``, so whoever knows the
        next timestamps (the Master-key peer) can have every one of their
        ``|Hr|`` placements routed before :meth:`append_many` needs them.
        Fire and forget (:meth:`~repro.dht.ChordDhtClient.warm`): it returns at
        once, never raises and writes nothing.
        """
        self.dht.warm([
            placement
            for ts in range(from_ts, to_ts + 1)
            for placement in self.placements(document_key, ts)
        ])

    def retract_many(self, entries: Sequence[LogEntry]):
        """Best-effort removal of every placement of ``entries`` (process).

        Used by the Master-key peer to clean up entries whose timestamps
        were never allocated — a batch publish that was rejected by the
        re-election guard, or that failed partway.  Each removal is a
        compare-and-delete (``delete_value``), atomic at the Log-Peer: a
        placement that was already re-used by the *new* Master for a
        legitimately validated patch under the same ``key + ts`` is left
        untouched.  A placement that cannot be reached is skipped, and the
        others are still retracted; any orphan that survives is overwritten
        when the timestamp is eventually allocated (placement keys are a pure
        function of ``key + ts``).
        """
        removed = 0
        for entry in entries:
            log_key = entry.log_key
            for function in self.hash_family:
                storage_key = function.placement_key(log_key)
                try:
                    answer = yield from self.dht.call_owner(
                        storage_key,
                        "delete_value",
                        key_id=function(log_key),
                        key=storage_key,
                        expected=entry,
                    )
                except PLACEMENT_FAILURES:
                    continue
                if answer.get("result"):
                    removed += 1
        return removed

    # -- retrieval ---------------------------------------------------------------

    def fetch(self, document_key: str, ts: int, *, skip: int = 0, tampered: int = 0):
        """Retrieve the entry ``(document_key, ts)`` from any placement (process).

        Tries the replication hash functions in order, exactly like the
        paper's ``get(hi(key+ts))`` retrieval — a placement that cannot be
        routed to is skipped like one that does not answer — and raises
        :class:`~repro.errors.PatchUnavailable` when no placement answers
        (:class:`~repro.errors.AuthenticationError` when the only copies
        that do answer fail verification).  A caller that already tried the
        first ``skip`` placements — :meth:`fetch_range` reads ``h1`` through
        the grouped read — starts the chain after them, and says how many of
        those served a ``tampered`` copy (already counted in
        :attr:`auth_rejects`), so the outcome is that of the whole chain.
        """
        log_key = make_log_key(document_key, ts)
        self.retrievals += 1
        for index, function in enumerate(self.hash_family):
            if index < skip:
                continue
            storage_key = function.placement_key(log_key)
            try:
                answer = yield from self.dht.get(storage_key, key_id=function(log_key))
            except _READ_MISSES:
                continue
            value = answer["value"]
            if self.entry_verifier is not None and not self.entry_verifier(value):
                # A reachable replica served a copy that fails signature
                # verification — skip it like a dead placement and keep
                # looking for an honest copy.
                self.auth_rejects += 1
                tampered += 1
                continue
            if index > 0:
                self.fallback_reads += 1
            return value
        if tampered:
            raise AuthenticationError(
                f"every surviving copy of ({document_key!r}, ts={ts}) failed "
                f"signature verification ({tampered} tampered placement(s))",
                key=document_key,
                ts=ts,
            )
        raise PatchUnavailable(document_key, ts)

    def fetch_range(self, document_key: str, from_ts: int, to_ts: int):
        """Retrieve entries ``from_ts .. to_ts`` inclusive, in timestamp order.

        This is the retrieval procedure a user peer runs when the Master-key
        peer tells it that it is behind: the result is a list of entries in
        *continuous total order* ready to be integrated by the
        reconciliation engine.

        The range's primary placements (``h1(key+ts)``) are worked through
        in windows of :data:`MAX_PARALLEL`: a window is resolved
        concurrently, grouped by responsible Log-Peer and fetched with one
        ``fetch_many`` RPC per peer, so a cold catch-up over *n* entries
        costs one request per distinct Log-Peer per window instead of *n*
        routed round-trips (``MAX_PARALLEL = 1`` is the paper's one
        ``get(hi(key+ts))`` at a time).  The range is known exactly, so each
        window hands :meth:`~repro.dht.ChordDhtClient.get_many` the placements of
        the next one: they are resolved while this window's reads are in
        flight — after its own resolutions returned, so never more than
        ``MAX_PARALLEL`` routings are in flight and nothing is resolved that
        is not fetched.

        A timestamp the grouped read could not serve (its primary Log-Peer
        is down, lost the entry or serves a tampered copy) falls back to the
        per-timestamp chain over the *remaining* hash functions
        (:meth:`fetch`) once the last window is in — a fallback routes too,
        and must not add to a window's routings;
        :class:`~repro.errors.PatchUnavailable` is raised only when every
        placement of some entry is gone.
        """
        primary = self.hash_family[0]

        def window(start_ts: int) -> list[tuple[str, int]]:
            # Windowed: each get_many resolves its items' placements
            # concurrently, so handing it the whole range at once would put
            # one in-flight routing per timestamp on the wire — exactly the
            # flood MAX_PARALLEL exists to prevent.
            end_ts = min(start_ts + MAX_PARALLEL - 1, to_ts)
            return [
                (primary.placement_key(log_key), primary(log_key))
                for log_key in (
                    make_log_key(document_key, ts)
                    for ts in range(start_ts, end_ts + 1)
                )
            ]

        entries: list[Any] = []
        unserved: list[tuple[int, int]] = []  # (index in entries, tampered 0 | 1)
        items = window(from_ts)
        while items:
            following = window(from_ts + len(entries) + len(items))
            answer = yield from self.dht.get_many(items, following)
            for value in answer["values"]:
                tampered = (
                    value is not None and self.entry_verifier is not None
                    and not self.entry_verifier(value)
                )
                if tampered:
                    self.auth_rejects += 1
                if value is None or tampered:
                    # A miss, or a tampered primary copy treated like one:
                    # the chain below hunts for an honest replica (and
                    # counts its own retrieval and fallback statistics).
                    unserved.append((len(entries), int(tampered)))
                else:
                    self.retrievals += 1
                entries.append(value)
            items = following
        for index, tampered in unserved:
            entries[index] = yield from self.fetch(
                document_key, from_ts + index, skip=1, tampered=tampered
            )
        return entries

    def availability(self, document_key: str, ts: int):
        """Count how many placements of ``(document_key, ts)`` still answer (process).

        Used by experiment E7 to measure patch availability under Log-Peer
        failures as a function of the replication factor.
        """
        log_key = make_log_key(document_key, ts)
        alive = 0
        for function in self.hash_family:
            storage_key = function.placement_key(log_key)
            try:
                yield from self.dht.get(storage_key, key_id=function(log_key))
                alive += 1
            except _READ_MISSES:
                continue
        return alive

    # -- checkpoints -------------------------------------------------------------

    def publish_checkpoint(self, checkpoint: Checkpoint):
        """Store ``checkpoint`` at all its placements in one sweep (process).

        One :meth:`~repro.dht.ChordDhtClient.put_many` over the checkpoint
        hash family, as :meth:`append_many` does for entries; a placement
        that cannot be reached is skipped.  Returns the number of copies
        stored; raises :class:`~repro.errors.CheckpointUnavailable` when
        none lands.
        """
        checkpoint_key = checkpoint.checkpoint_key
        answer = yield from self.dht.put_many([
            (storage_key, checkpoint, identifier)
            for storage_key, identifier in self.checkpoint_placements(
                checkpoint.document_key, checkpoint.ts)
        ])
        stored = sum(answer["stored"])
        if stored == 0:
            raise CheckpointUnavailable(checkpoint.document_key, checkpoint.ts)
        self.checkpoints_published += 1
        return stored

    def fetch_checkpoint(self, document_key: str, ts: int):
        """Retrieve the checkpoint ``(document_key, ts)`` (process).

        Tries the checkpoint hash functions in order, like :meth:`fetch`;
        raises :class:`~repro.errors.CheckpointUnavailable` when no
        placement answers.
        """
        for storage_key, identifier in self.checkpoint_placements(document_key, ts):
            try:
                answer = yield from self.dht.get(storage_key, key_id=identifier)
            except _READ_MISSES:
                continue
            value = answer["value"]
            if self.checkpoint_verifier is not None \
                    and not self.checkpoint_verifier(value):
                # A corrupted checkpoint is never fatal: skip the copy, and
                # if every placement is tampered the caller degrades to the
                # paper's full log replay (the tampering is masked).
                self.checkpoint_auth_rejects += 1
                continue
            self.checkpoints_fetched += 1
            return value
        self.checkpoint_misses += 1
        raise CheckpointUnavailable(document_key, ts)

    def latest_checkpoint(self, document_key: str, max_ts: int, interval: int):
        """The newest reachable checkpoint with ``ts <= max_ts`` (process).

        This is the bootstrap step of the checkpointed retrieval fast path.
        Checkpoints sit at multiples of ``interval``, so the reader computes
        where they are: it tries the retained boundaries at or below
        ``max_ts`` (:func:`~repro.p2plog.checkpoint.retained_boundaries`),
        newest first.  Returns ``None`` — *never* raises — when none of them
        answers, so callers degrade gracefully to the paper's full log
        replay.
        """
        for boundary in retained_boundaries(max_ts, interval):
            try:
                checkpoint = yield from self.fetch_checkpoint(document_key, boundary)
            except CheckpointUnavailable:
                continue
            return checkpoint
        return None

    def gc_checkpoint(self, document_key: str, ts: int):
        """Best-effort removal of every placement of one checkpoint (process).

        Called by the Master-key peer when a boundary leaves the retention
        window.  A placement that cannot be reached is skipped.  Returns the
        number of placements removed.
        """
        removed = 0
        for storage_key, identifier in self.checkpoint_placements(document_key, ts):
            try:
                answer = yield from self.dht.remove(storage_key, key_id=identifier)
            except PLACEMENT_FAILURES:
                continue
            if answer.get("removed"):
                removed += 1
        if removed:
            self.checkpoints_removed += 1
        return removed

    def checkpoint_placements(self, document_key: str, ts: int) -> list[tuple[str, int]]:
        """The ``(storage key, ring identifier)`` placements of a checkpoint."""
        checkpoint_key = make_checkpoint_key(document_key, ts)
        return [
            (function.placement_key(checkpoint_key), function(checkpoint_key))
            for function in self.checkpoint_family
        ]

    # -- diagnostics ----------------------------------------------------------------

    def placements(self, document_key: str, ts: int) -> list[tuple[str, int]]:
        """The ``(storage key, ring identifier)`` placements of an entry."""
        log_key = make_log_key(document_key, ts)
        return [
            (function.placement_key(log_key), function(log_key))
            for function in self.hash_family
        ]

    def statistics(self) -> dict[str, Any]:
        """Publication / retrieval counters for experiment reports."""
        return {
            "published_entries": self.published_entries,
            "retrievals": self.retrievals,
            "fallback_reads": self.fallback_reads,
            "checkpoints_published": self.checkpoints_published,
            "checkpoints_fetched": self.checkpoints_fetched,
            "checkpoint_misses": self.checkpoint_misses,
            "checkpoints_removed": self.checkpoints_removed,
            "auth_rejects": self.auth_rejects,
            "checkpoint_auth_rejects": self.checkpoint_auth_rejects,
            "replication_factor": self.replication_factor,
        }
