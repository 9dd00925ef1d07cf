"""The Master-key peer: patch timestamp validation and publication.

Every DHT node hosts a :class:`MasterService`; the node acts as Master-key
peer for the documents whose ``ht(key)`` falls into its responsibility
interval.  The service implements the heart of P2P-LTR (Section 3 of the
paper):

* ``ltr_validate_and_publish`` — the patch timestamp validation procedure,
  run on a chain of ``n >= 1`` patches (the paper's per-edit commit is the
  chain of length one).  If the proposed timestamp equals ``last-ts + 1`` the
  Master publishes the chain at the Log-Peers (``sendToPublish``), advances
  ``last-ts`` by ``n`` through the timestamp authority (which also replicates
  it to the Master-key-Succ) and acknowledges the user peer with the validated
  timestamps.  A *stale* proposal whose missing entries the Master still holds
  (:class:`EntryTail`) is transformed over them — by the function the proposer
  would run on the same entries — and committed the same way, in the same
  round; the acknowledgement carries those entries.  Only where it cannot do
  that (a signed chain, a gap older than the tail, a proposal ahead of
  ``last-ts``) does it answer ``behind`` with the current ``last-ts``, so the
  user peer integrates first and comes round again; a gap the Master cannot
  supply is retrieved from the P2P-Log.
* ``ltr_catch_up`` — a reader's question for ``last-ts``, answered like a
  proposal that is *behind*: with what the reader misses whenever the tail
  holds it, so a sync is one round-trip (:meth:`MasterService.handle_catch_up`).
* At most once — a proposal carries an identity, every entry records it, and
  a proposal whose identity is among the entries it missed is a re-sent one:
  it is answered with the acknowledgement of the entry that carries it.
* Per-document serialization — "a new timestamp for a given document d is
  provided after the replication of the previous timestamped patch on d":
  one replication round per document at a time, and timestamps only for what
  that round replicated.  The round carries every proposal that queued while
  the previous one ran (*group commit*): the handler that gets the document's
  lock serves the queue behind it too — one publish, one allocation, one
  counter push — and each proposer is answered as if it had been served
  alone, in arrival order.  Routing is kept out of that critical section:
  the Master knows the next timestamps, so it has their Log-Peers resolved
  ahead of the proposals that will need them (``_warm_ahead``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Any, Iterable, Optional, Sequence

from ..chord import HashFunctionFamily, NodeService, StoredItem
from ..dht import ChordDhtClient
from ..errors import (
    AuthenticationError,
    CheckpointUnavailable,
    NodeUnreachable,
    PatchUnavailable,
    ReproError,
    RequestTimeout,
    ValidationFailed,
)
from ..kts import TimestampAuthority
from ..net import payload_size
from ..ot import Document, InsertLine, rebase_chain
from ..p2plog import (
    Checkpoint,
    LogEntry,
    P2PLogClient,
    find_proposal,
    sign_checkpoint,
    verify_commit,
)
from ..runtime import FifoLock
from .config import LtrConfig
from .protocol import ValidationResult

#: ``(checkpoint ts, snapshot lines or None)``: a job scheduled inside the
#: per-document critical section and run in the background once its group
#: has been answered.
CheckpointJob = tuple[int, Optional[list[str]]]

#: How many checkpoints per document are retained; older ones are
#: garbage-collected from the DHT when a new checkpoint slides them out of the
#: window (the log's compaction story).
CHECKPOINT_RETENTION = 2

#: Bounds of the per-document tail of allocated entries a stale proposal is
#: served from — transformed over, and handed with the answer — in entries
#: and in ``payload_size`` bytes (what the reply costs on the wire, to a
#: proposer or a reader).  64 entries cover every gap a chain-of-one editor
#: falls behind by under Zipf contention; batched editors fall behind by whole
#: chains of 16.  A larger gap is answered *behind* and read from the P2P-Log.
TAIL_MAX_ENTRIES = 256
TAIL_MAX_BYTES = 256 * 1024

#: How far past ``last-ts`` the Master resolves Log-Peers ahead of the
#: proposals that will need them, in multiples of what it is looking at: the
#: chains queued plus the chains being answered (``_warm_ahead``).
#: One chain is not enough: a hot document's next proposal arrives one
#: round-trip after the ack, a lookup that misses the route cache takes two.
WARM_AHEAD_CHAINS = 4


class EntryTail:
    """The newest entries one Master allocated for one document, contiguous.

    Holds only entries whose timestamps were consumed (never an unallocated
    or retracted one), in timestamp order without gaps, trimmed from the old
    end to :data:`TAIL_MAX_ENTRIES` and :data:`TAIL_MAX_BYTES`.  It is a
    cache of what this Master published during its current tenure; the
    P2P-Log stays the source of truth.  Three things are served from it:

    * the **gap** a stale proposal is transformed over and that comes back
      with its *ok* — or with *behind*, where the Master cannot transform —
      so the bounds of the tail are the bounds of that work and of that reply
      (a gap may end in the entries of the proposals served ahead of it in
      the same round, which join the tail with it; a round is held to the
      tail's bounds too, :meth:`DocumentQueue.take`) — and the suffix a
      reader misses, with the answer to its catch-up
      (:meth:`MasterService.handle_catch_up`);
    * the **identities** of the proposals that landed lately: the tail is the
      Master's whole table of them (walked with the gap, bounded with it,
      gone with the tenure; beyond it the log is the table and the proposer
      the one who looks, ``UserPeer._integrate``);
    * :attr:`warmed_ts`, which looks the other way: the *warmed horizon*, the
      highest timestamp whose Log-Peers this tenure already had resolved
      (:meth:`MasterService._warm_ahead`).  It lives and dies with the tail
      — which is why a proposal that queues behind the first publish of a
      tenure finds an empty tail made for it.
    """

    __slots__ = ("entries", "sizes", "bytes", "warmed_ts")

    def __init__(self) -> None:
        self.entries: list[LogEntry] = []
        self.sizes: list[int] = []
        self.bytes = 0
        self.warmed_ts = 0

    def extend(self, entries: list[LogEntry]) -> None:
        """Append a freshly allocated chain; a gap restarts the tail."""
        if self.entries and self.last_ts + 1 != entries[0].ts:
            self.entries, self.sizes, self.bytes, self.warmed_ts = [], [], 0, 0
        for entry in entries:
            size = payload_size(entry)
            self.entries.append(entry)
            self.sizes.append(size)
            self.bytes += size
        while len(self.entries) > TAIL_MAX_ENTRIES or self.bytes > TAIL_MAX_BYTES:
            del self.entries[0]
            self.bytes -= self.sizes.pop(0)

    @property
    def last_ts(self) -> int:
        """Timestamp of the newest entry held (0 when empty)."""
        return self.entries[-1].ts if self.entries else 0

    def suffix(self, after_ts: int) -> Optional[list[LogEntry]]:
        """Every entry newer than ``after_ts``, if the tail reaches back that far."""
        if not self.entries:
            return None
        skip = after_ts + 1 - self.entries[0].ts
        if skip < 0 or skip >= len(self.entries):
            return None
        return self.entries[skip:]


class Proposal:
    """One validation request, for as long as it is at the Master.

    What was proposed, and the slot its outcome is put into — by the handler
    that holds the document's lock when the proposal is served, which is its
    own or that of a proposal queued ahead of it
    (:meth:`MasterService.validate_and_publish`).
    """

    __slots__ = ("ts", "patches", "author", "base_ts", "signatures", "proposal",
                 "answer", "error")

    def __init__(self, ts: int, patches: list, author: str, base_ts: Optional[int],
                 signatures: Optional[Any], proposal: Optional[int]) -> None:
        self.ts = ts
        self.patches = patches
        self.author = author
        self.base_ts = base_ts
        self.signatures = signatures
        self.proposal = proposal
        self.answer: Optional[dict] = None
        self.error: Optional[BaseException] = None

    @property
    def served(self) -> bool:
        """Has a lock holder put this proposal's outcome into its slot?"""
        return self.answer is not None or self.error is not None


class DocumentQueue:
    """The proposals one Master has for one document: its lock and who waits.

    ``waiting`` holds, in arrival order, the proposals no lock holder has
    taken yet (so it is the order of the lock's own queue, minus the
    proposals already served); ``publishing`` is how many entries the lock
    holder has out at the Log-Peers right now, published and not allocated.
    """

    __slots__ = ("lock", "waiting", "publishing")

    def __init__(self, runtime) -> None:
        self.lock = FifoLock(runtime)
        self.waiting: deque[Proposal] = deque()
        self.publishing = 0

    @property
    def queued(self) -> int:
        """Entries the waiting proposals will add to the log."""
        return sum(len(member.patches) for member in self.waiting)

    def take(self) -> list[Proposal]:
        """The next group: the head of the queue and who fits in behind it.

        A group's entries are one publish, one stretch of the tail and — for
        the last member, which is transformed over all the others — one gap,
        so together they stay within the tail's bounds; the head is served
        whatever its size.
        """
        group = [self.waiting.popleft()]
        entries = len(group[0].patches)
        size = payload_size(group[0].patches) if self.waiting else 0
        while self.waiting:
            entries += len(self.waiting[0].patches)
            size += payload_size(self.waiting[0].patches)
            if entries > TAIL_MAX_ENTRIES or size > TAIL_MAX_BYTES:
                break
            group.append(self.waiting.popleft())
        return group


class MasterService(NodeService):
    """Per-node implementation of the Master-key peer role."""

    name = "ltr-master"

    def __init__(self, config: Optional[LtrConfig] = None,
                 hash_family: Optional[HashFunctionFamily] = None) -> None:
        super().__init__()
        self.config = config if config is not None else LtrConfig()
        self._hash_family = hash_family
        self.log: Optional[P2PLogClient] = None
        self.authority: Optional[TimestampAuthority] = None
        self._queues: dict[str, DocumentQueue] = {}
        # Per document, the entries allocated here during the current tenure
        # as its Master (created on the first publish, dropped when the
        # tenure ends); read and written under the document's lock.
        self._tails: dict[str, EntryTail] = {}
        # One proposal = one validation request, whatever its chain length;
        # one publish = one round of append_many that allocated, whatever the
        # number of proposals in it.
        self.publishes = 0
        self.proposals_ok = 0
        # ... of which transformed over the tail, or over the proposals ahead
        # of them in their group, before they were published,
        self.proposals_rebased = 0
        # and, counted in none of the others, answered from it: re-sent.
        self.proposals_deduplicated = 0
        self.proposals_behind = 0
        self.proposals_rejected = 0
        self.proposals_auth_rejected = 0
        self.patches_published = 0
        # Fault-injection knob, set by the ``MasterEquivocation`` nemesis
        # action: while positive, each successfully published entry
        # additionally gets its *secondary* log placements overwritten
        # with a forked copy, so the peer sets reading h1 and h2..hn
        # observe diverging timestamp sequences.  Never set in production.
        self.equivocate_next = 0
        self.equivocations = 0
        # Checkpointing state: the materialized document view this Master
        # maintains by applying each patch it validates (rebuilt from
        # checkpoint + log after a takeover), and the per-key timestamp of
        # the last checkpoint written here (0 / unknown after a takeover,
        # which merely makes the next checkpoint come early).
        self._views: dict[str, Document] = {}
        self._last_checkpoint_ts: dict[str, int] = {}
        self._checkpoint_locks: dict[str, FifoLock] = {}
        self.checkpoints_written = 0
        self.checkpoint_rebuilds = 0
        self.checkpoint_placements_removed = 0

    # -- NodeService wiring ------------------------------------------------------

    def register_handlers(self, node) -> None:  # noqa: D401 - see base class
        if self._hash_family is None:
            self._hash_family = HashFunctionFamily.create(
                self.config.log_replication_factor, bits=node.config.bits
            )
        if self.config.auth_enabled:
            from ..p2plog import verify_checkpoint, verify_entry

            secret = self.config.auth_secret
            entry_verifier = lambda entry: verify_entry(secret, entry)  # noqa: E731
            checkpoint_verifier = lambda ckpt: verify_checkpoint(secret, ckpt)  # noqa: E731
        else:
            entry_verifier = None
            checkpoint_verifier = None
        self.log = P2PLogClient(
            ChordDhtClient(node),
            self._hash_family,
            entry_verifier=entry_verifier,
            checkpoint_verifier=checkpoint_verifier,
        )
        node.rpc.expose("ltr_validate_and_publish", self.validate_and_publish)
        node.rpc.expose("ltr_catch_up", self.handle_catch_up)

    @property
    def hash_family(self) -> HashFunctionFamily:
        """The replication hash family ``Hr`` used for log placement."""
        if self._hash_family is None:
            raise RuntimeError("MasterService used before being attached to a node")
        return self._hash_family

    def _authority(self) -> TimestampAuthority:
        if self.authority is None:
            service = self.node.service("kts") if self.node is not None else None
            if service is None:
                raise RuntimeError(
                    "MasterService requires a TimestampAuthority ('kts') service "
                    "on the same node"
                )
            self.authority = service
        return self.authority

    def _queue_for(self, key: str) -> DocumentQueue:
        queue = self._queues.get(key)
        if queue is None:
            queue = self._queues[key] = DocumentQueue(self.node.runtime)
        return queue

    def _lock_for(self, key: str) -> FifoLock:
        return self._queue_for(key).lock

    # -- RPC handlers ---------------------------------------------------------------

    def handle_last_ts(self, key: str) -> int:
        """Return ``last-ts`` for ``key`` (0 when no patch was ever validated)."""
        return self._authority().last_ts(key)

    def handle_catch_up(self, key: str, after_ts: int) -> dict:
        """``last-ts`` for a reader at ``after_ts``, with what it misses if held.

        The answer is a *behind* :class:`~repro.core.protocol.ValidationResult`
        payload: ``entries`` is ``(after_ts, last_ts]`` out of the document's
        tail when the tail ends at ``last-ts`` and reaches back that far —
        bounded like every reply served from it — and ``None`` otherwise,
        which sends the reader to the checkpoints and the P2P-Log.  Read-only
        and lock-free: a tail of an earlier tenure is left for
        :meth:`_missing_suffix` to drop under the lock.
        """
        last_ts = self._authority().last_ts(key)
        tail = self._tails.get(key)
        entries = None
        if after_ts < last_ts and tail is not None and tail.last_ts == last_ts:
            entries = tail.suffix(after_ts)
        return ValidationResult.behind(last_ts, entries).to_payload()

    def validate_and_publish(self, key: str, ts: int, patches: Any,
                             author: str = "unknown",
                             base_ts: Optional[int] = None,
                             signatures: Optional[Any] = None,
                             proposal: Optional[int] = None):
        """Validate a proposed chain of patches and publish it.

        Generator RPC handler — the patch timestamp validation procedure.
        ``patches`` is a chain of ``n >= 1`` patches, each expressed against
        its predecessor's output (the paper's single tentative patch is the
        chain of length one).  If the proposed base timestamp ``ts`` equals
        ``last-ts + 1`` the Master publishes *all* of the chain at the
        Log-Peers through one grouped write per responsible peer
        (:meth:`~repro.p2plog.P2PLogClient.append_many`) and consumes one
        dense timestamp range through
        :meth:`~repro.kts.TimestampAuthority.next_timestamps` — one KTS
        advance and one replica push for the whole chain.  Returns a
        :class:`~repro.core.protocol.ValidationResult` payload.

        **A stale proposal** (``ts <= last-ts``) is one pass too, whenever the
        document's :class:`EntryTail` covers the gap ``(ts - 1, last-ts]``:
        the chain is transformed over the gap's patches by
        :func:`~repro.ot.rebase_chain` — the function the proposer would run
        on the same entries after a *behind* answer — re-based to ``last-ts``
        and then takes the very code a current proposal takes.  The answer is
        ``ok first_ts..last_ts`` and carries the gap in ``entries``; the
        proposer integrates it and only then applies its chain, so what it
        applies is what the log holds.  *behind* is still the answer wherever
        the Master cannot do this: ``signatures`` given (the author's HMAC
        covers patch, timestamp and base; the Master cannot sign the
        transformed chain for it), a gap the tail does not cover (older than
        its bounds, or a Master fresh from a takeover), a proposal ahead of
        ``last-ts``.  Which of the two goes out is decided by what the
        proposal and the tail hold; no switch selects it.

        **At most once.**  ``proposal`` is the identity of the chain's first
        patch (the author's, dense per document; the following patches carry
        the following numbers) and is recorded on every entry.  Walking the
        gap it is about to transform over, the Master looks for it: a hit is
        a re-sent proposal whose first copy landed — or is about to, ahead of
        it in the same group — and is answered with the ``ok`` that copy was
        (or would have been) answered — the timestamps it landed at, the gap
        before them — while nothing is published.  The tail is the whole
        table; a copy that arrives after its original left the tail is
        answered *behind* and recognised by its proposer in the log.

        What runs under the per-document lock sets a hot document's commit
        rate, so it is kept to: validate — with the transform, which is local
        and bounded by the tail's bounds —, one ``store_many`` round-trip per
        Log-Peer, allocate.  The Log-Peers themselves are resolved *before*
        the proposal that needs them: a proposal that has to wait has its
        own placements routed on arrival, every answer those of the next
        timestamps (:meth:`_warm_ahead`), and the publish finds them in the
        node's route cache.

        **Group commit.**  That round-trip is shared.  A proposal is queued
        (:class:`DocumentQueue`) before it waits for the lock, and the handler
        that gets the lock takes the queue along — itself first, the others
        in arrival order, as many as fit the tail's bounds; the rest are the
        next holder's — and runs the statements above *once* for the group:
        each member is verified and placed behind the members ahead of it
        (exactly next, or transformed over the tail's suffix **plus their
        entries**; a re-sent identity is found in either), the concatenation
        goes out as one ``append_many``, is guarded by one re-election check,
        allocated by one ``next_timestamps`` (one counter push) and joins the
        tail, the checkpoint view and the equivocation knob as one chain.
        Every member is answered what a Master serving the same arrivals one
        by one would have answered — its own timestamps, the replicas of its
        own entries, its own gap — and collects the answer when the lock
        reaches it in turn.  A group of one is the only path there is.  What
        a group may not change: a member that fails verification, proposes
        an empty chain or cannot be transformed gets that error, alone; a
        member that can only be answered *behind* is, with the ``last-ts``
        and suffix that hold after the group's allocation; a failed publish
        raises at every member that was in it, a lost Master role rejects
        every one, and either way the whole concatenation is retracted once,
        after the lock; and no member leaves the queue without an answer or
        an exception, whatever becomes of the handler that took it.

        The chain is atomic: it either commits completely or not at all, and
        so does a group.  In particular, when a re-election moves the
        Master-key role away while the (yielding) log publication is in
        flight, the handler detects the hand-over before advancing any
        timestamp and answers ``rejected`` without consuming the range — the
        user peers re-propose, and routing delivers the retries to the new
        Master.  Without that guard the old Master would resurrect a counter
        it no longer owns and fork the timestamp sequence (see
        ``tests/test_core_master.py``).

        **The answer does not wait for a checkpoint.**  The commit ends when
        the chain is published and allocated; a checkpoint is a retrieval aid
        that may be late.  The one job a group may make due
        (:meth:`_note_published`) is spawned once the lock is released —
        also when the holder's own proposal was refused — and its failures
        are traced, never raised at a proposer
        (:meth:`_checkpoint_in_background`).

        When ``auth_enabled``, ``signatures`` must hold the author's HMAC
        over each chained commit (see :mod:`repro.p2plog.auth`); a missing
        or invalid signature raises
        :class:`~repro.errors.AuthenticationError` before any timestamp
        state is consulted.
        """
        queue = self._queue_for(key)
        member = Proposal(ts, list(patches), author, base_ts, signatures, proposal)
        queue.waiting.append(member)
        if queue.lock.locked:
            # It will wait, and its timestamps are known while it does.
            self._warm_ahead(key, self._authority().last_ts(key) + queue.publishing, 0)
        group: list[Proposal] = []
        retract: list[LogEntry] = []
        checkpoint: Optional[CheckpointJob] = None
        yield from queue.lock.acquire()
        try:
            if not member.served:
                # Nobody ahead took it along: it is the head of the queue.
                group = queue.take()
                checkpoint = yield from self._validate_locked(key, group, retract)
        finally:
            for taken in group:
                if not taken.served:
                    # The handler died with proposals in its hands; what
                    # became of their entries is not known here.
                    taken.error = PatchUnavailable(key, taken.ts)
            queue.lock.release()
        if checkpoint is not None:
            self.node.runtime.process(
                self._checkpoint_in_background(key, *checkpoint),
                name=f"checkpoint:{key}@{checkpoint[0]}",
            )
        if retract:
            # A rejected or partially failed publish left entries carrying
            # timestamps that were never allocated.  Clean up *after*
            # releasing the lock — the removal round-trips need no
            # serialization, and holding the lock through them would stall
            # every other proposer.
            yield from self.log.retract_many(retract)
        if member.error is not None:
            raise member.error
        return member.answer

    def _validate_locked(self, key: str, group: list[Proposal],
                         retract: list[LogEntry]):
        """The critical section of :meth:`validate_and_publish`.

        Runs with the per-document lock held, once for all of ``group``, and
        leaves every member's outcome in its slot.  Entries that must be
        removed from the log (rejected or partially-failed publishes) are
        appended to ``retract``; the caller performs the removal after the
        lock is released.  Returns the checkpoint job the group made due, if
        any, which the caller starts after the lock is released.
        """
        node = self.node
        authority = self._authority()
        last_ts = authority.last_ts(key)
        # The concatenation: what this round publishes, in group order ...
        entries: list[LogEntry] = []
        # ... and who is in it — with where its own entries start and the gap
        # it was transformed over — or repeats a member that is.
        placed: list[tuple[Proposal, int, Optional[list[LogEntry]]]] = []
        repeats: list[tuple[Proposal, ValidationResult]] = []
        behind: list[Proposal] = []
        for member in group:
            try:
                chain, gap = self._place(key, member, last_ts, entries)
            except Exception as error:  # noqa: BLE001 - this member's answer, nobody else's
                member.error = error
                continue
            if chain is None:
                behind.append(member)
            elif isinstance(chain, ValidationResult):
                if chain.last_ts > last_ts:
                    repeats.append((member, chain))
                else:
                    member.answer = chain.to_payload()
            else:
                placed.append((member, len(entries), gap))
                entries.extend(chain)
        published = [member for member, _start, _gap in placed]
        published += [member for member, _result in repeats]
        per_entry = None
        checkpoint = None
        if entries:
            per_entry = yield from self._replicate(key, last_ts, entries, published, retract)
        if per_entry is not None:
            first_ts = authority.next_timestamps(key, len(entries))
            # Only now are the entries part of the log for good: remember them
            # for the proposers this commit has just put behind.
            tail = self._tails.setdefault(key, EntryTail())
            # Paced by the allocation before this one, so: before it joins the tail.
            self._warm_ahead(key, entries[-1].ts, len(entries))
            tail.extend(entries)
            for entry in entries[:self.equivocate_next]:
                yield from self._equivocate(entry)
            checkpoint = self._note_published(
                key, [entry.patch for entry in entries], first_ts
            )
            self.publishes += 1
            self.proposals_ok += len(placed)
            self.patches_published += len(entries)
            ends = [start for _member, start, _gap in placed[1:]] + [len(entries)]
            for (member, start, gap), end in zip(placed, ends):
                self.proposals_rebased += gap is not None
                replicas = min(per_entry[start:end])
                node.runtime.trace.annotate(
                    node.runtime.now, "ltr-master",
                    "{} validated {}@{}..{} from {} ({} log replicas)",
                    node.address.name, key, entries[start].ts, entries[end - 1].ts,
                    member.author, replicas,
                )
                member.answer = ValidationResult.ok(
                    entries[start].ts, entries[end - 1].ts, replicas, gap
                ).to_payload()
            for member, result in repeats:
                member.answer = result.to_payload()
        if behind:
            # Answered last, with what holds now: a proposer that integrates
            # this does not come round a second time for the group's entries.
            last_ts = authority.last_ts(key)
            for member in behind:
                self.proposals_behind += 1
                node.runtime.trace.annotate(
                    node.runtime.now, "ltr-master",
                    "{} rejects {}@{}(+{}) from {} (last-ts={})",
                    node.address.name, key, member.ts, len(member.patches),
                    member.author, last_ts,
                )
                self._warm_ahead(key, last_ts, len(member.patches))
                member.answer = ValidationResult.behind(
                    last_ts, self._missing_suffix(key, member.ts - 1, last_ts)
                ).to_payload()
        return checkpoint

    def _replicate(self, key: str, last_ts: int, entries: list[LogEntry],
                   published: list[Proposal], retract: list[LogEntry]):
        """Publish a round's ``entries``; their placement counts if it may be allocated.

        ``None`` when it may not — the Log-Peers refused it, or the Master
        role moved meanwhile: every member of ``published`` has its outcome
        then, and the entries are in ``retract``.
        """
        node = self.node
        queue = self._queue_for(key)
        queue.publishing = len(entries)
        try:
            per_entry = yield from self.log.append_many(entries)
        except PatchUnavailable as error:
            # Partial publish: what landed carries timestamps that were
            # never allocated — schedule it for removal, then propagate
            # so the proposers keep their edits and retry.
            retract.extend(entries)
            for member in published:
                member.error = PatchUnavailable(error.key, error.ts)
            return None
        finally:
            queue.publishing = 0
        # Re-election check before any timestamp is consumed: the publish
        # above yields, and even the lock acquisition can span a takeover,
        # so the Master role may have moved since the request arrived.
        if self._lost_master_role(key, last_ts):
            self.proposals_rejected += len(published)
            node.runtime.trace.annotate(
                node.runtime.now, "ltr-master",
                "{} rejects in-flight {}@{}(+{}): master role moved during publication",
                node.address.name, key, last_ts + 1, len(entries),
            )
            # The published entries carry timestamps that were never
            # allocated; retract them so no reader can observe them
            # before the new Master reuses the range.
            retract.extend(entries)
            self._tails.pop(key, None)  # the tenure these came from is over
            rejected = ValidationResult.reelection(
                self._authority().last_ts(key)).to_payload()
            for member in published:
                member.answer = rejected
            return None
        return per_entry

    def _place(self, key: str, member: Proposal, last_ts: int,
               ahead: list[LogEntry]):
        """Where ``member`` goes in the round that already holds ``ahead``.

        Returns ``(entries, gap)`` — its chain as the log entries that follow
        ``ahead``, transformed over ``gap`` unless it was exactly next —, or
        ``(answer, None)`` for a re-sent proposal whose first copy is in the
        tail or in ``ahead``, or ``(None, None)`` for a proposal the Master
        cannot place, which is answered *behind*.  Raises what the proposal
        alone is to blame for.
        """
        node = self.node
        patches = member.patches
        ts = member.ts
        base_ts = member.base_ts
        if not patches:
            raise ValidationFailed(f"empty commit chain proposed for {key!r}")
        sigs: list[Optional[str]] = (
            list(member.signatures) if member.signatures is not None
            else [None] * len(patches)
        )
        # The chain's patches are numbered on from the identity of its first.
        identities: Sequence[Optional[int]] = (
            range(member.proposal, member.proposal + len(patches))
            if member.proposal is not None else [None] * len(patches)
        )
        if self.config.auth_enabled:
            valid = len(sigs) == len(patches) and all(
                verify_commit(
                    self.config.auth_secret, sigs[offset], key, ts + offset,
                    patches[offset], member.author,
                    (base_ts + offset) if base_ts is not None else None,
                    identities[offset],
                )
                for offset in range(len(patches))
            )
            if not valid:
                self.proposals_auth_rejected += 1
                node.runtime.trace.annotate(
                    node.runtime.now, "ltr-master",
                    "{} rejects {}@{}(+{}) from {}: bad or missing commit signatures",
                    node.address.name, key, ts, len(patches), member.author,
                )
                raise AuthenticationError(
                    f"commit {key}@{ts}(+{len(patches)}) from {member.author!r} "
                    f"failed signature verification",
                    key=key,
                    ts=ts,
                )
        gap: Optional[list[LogEntry]] = None
        next_ts = last_ts + len(ahead) + 1
        if ts != next_ts:
            gap = self._missing_suffix(key, ts - 1, last_ts, ahead)
            if gap is None or member.signatures is not None:
                # Ahead of last-ts, a gap the tail does not cover, or a
                # signed chain (the author's HMAC covers the patch and its
                # timestamp; the Master cannot sign a transformed one for
                # it): the proposer integrates and comes round again.
                return None, None
            landed = find_proposal(gap, member.author, member.proposal, len(patches))
            if landed is not None:
                # A re-sent proposal: its first copy is in the gap.  Answer
                # what the first copy was answered; publish nothing.
                first, count = landed
                self.proposals_deduplicated += 1
                node.runtime.trace.annotate(
                    node.runtime.now, "ltr-master",
                    "{} has {}@{}(+{}) from {} already, at ts {}",
                    node.address.name, key, ts, len(patches), member.author,
                    gap[first].ts,
                )
                return ValidationResult.ok(
                    gap[first].ts, gap[first].ts + count - 1, 0, gap[:first],
                ), None
            # Stale, and everything it missed is right here: transform the
            # chain over the gap — the function the proposer would run on the
            # same entries — and carry on as if it had been proposed now.
            patches = rebase_chain(patches, [entry.patch for entry in gap], next_ts - 1)
            ts = next_ts
            if base_ts is not None:
                base_ts = next_ts - 1
        return [
            LogEntry(
                document_key=key,
                ts=ts + offset,
                patch=patch,
                author=member.author,
                published_at=node.runtime.now,
                # The chain: patch `offset` is expressed against the
                # state produced by its predecessor, i.e. `offset`
                # timestamps past the chain's base.
                base_ts=(base_ts + offset) if base_ts is not None else None,
                # The author's proof travels with every replica; metadata is
                # excluded from entry equality, so signed and unsigned copies
                # compare the same everywhere else.
                metadata=(
                    {"sig": sigs[offset]} if sigs[offset] is not None else {}
                ),
                proposal=identities[offset],
            )
            for offset, patch in enumerate(patches)
        ], gap

    def _equivocate(self, entry: LogEntry):
        """Fault injection: serve a forked copy of ``entry`` to part of the ring.

        Overwrites every *secondary* placement (``h2..hn``) of the entry
        with a copy whose patch was altered after signing — the peer set
        whose reads land on ``h1`` and the (disjoint) set falling back to
        the other placements observe diverging timestamp sequences.  The
        forked copy keeps the original signature, so signed-mode readers
        reject it on retrieval and the cross-copy comparison in
        ``repro.check`` names this Master.  Armed by the
        ``MasterEquivocation`` nemesis action via :attr:`equivocate_next`.
        """
        self.equivocate_next -= 1
        self.equivocations += 1
        forked_patch = entry.patch.with_operations(
            tuple(entry.patch.operations)
            + (InsertLine(0, f"<equivocation fork ts={entry.ts}>"),)
        )
        forked = replace(entry, patch=forked_patch)
        log_key = entry.log_key
        for index, function in enumerate(self.hash_family):
            if index == 0:
                continue
            storage_key = function.placement_key(log_key)
            try:
                yield from self.log.dht.put(storage_key, forked, key_id=function(log_key))
            except (RequestTimeout, NodeUnreachable):
                continue
        self.node.runtime.trace.annotate(
            self.node.runtime.now, "ltr-master",
            "{} EQUIVOCATES on {}@{}: secondary placements forked",
            self.node.address.name, entry.document_key, entry.ts,
        )

    # -- the tail stale proposals are served from -------------------------------------

    def _missing_suffix(self, key: str, after_ts: int, last_ts: int,
                        ahead: Sequence[LogEntry] = ()) -> Optional[list[LogEntry]]:
        """Entries ``(after_ts, last_ts]`` of ``key`` and ``ahead``, if held.

        Runs under the document's lock; ``ahead`` is what the round being put
        together already holds past ``last_ts``.  A tail that does not end at
        ``last-ts`` belongs to an earlier tenure (the counter moved on
        elsewhere) and is dropped; ``None`` — also for a gap older than the
        tail, and for a proposal that is not behind at all — means *behind*
        without entries, which sends the proposer to the P2P-Log.
        """
        if after_ts >= last_ts:
            missed = list(ahead[after_ts - last_ts:])
            return missed or None
        tail = self._tails.get(key)
        if tail is None or not tail.entries:
            return None
        if tail.last_ts != last_ts:
            del self._tails[key]
            return None
        held = tail.suffix(after_ts)
        return None if held is None else held + list(ahead)

    def _warm_ahead(self, key: str, last_ts: int, answered: int) -> None:
        """Resolve the Log-Peers of the timestamps about to be handed out.

        ``h_i(key + ts)`` is a pure function and the next ``ts`` are known
        here, so the placement lookups of the coming publishes run now, in the
        background, instead of inside a later round's critical section (a new
        ``key + ts`` lands on a random arc; a route-cache miss costs more than
        the publish it delays).  It only spawns, it never yields.  Called

        * when a proposal arrives and has to wait (``answered`` 0, ``last_ts``
          counting what the lock holder has out at the Log-Peers): its
          timestamps are ``last_ts`` + what is queued ahead of it + its own
          chain, whatever round carries it — also behind the first publish of
          a tenure, when nothing else says that a second will follow;
        * for every group that was allocated and every proposal answered
          *behind*, under the document's lock (``answered``: the entries
          allocated, proposed): whoever was just answered comes round again,
          and so will whoever is still queued, so the horizon moves on by as
          much as both, past what is queued now.

        The queue is the proposals *waiting*, not the lock's waiters (which
        include members already served).  One cap for both: never further
        than :data:`WARM_AHEAD_CHAINS` times what the Master is looking at —
        ``queued + answered`` — past ``last_ts``, and never over a timestamp
        twice.  Nothing is warmed that would be stale when used: without a
        queue only while the document's previous allocation is younger than
        the route-cache TTL.
        """
        queue = self._queue_for(key)
        tail = self._tails.get(key)
        if not (
            queue.waiting or (
                tail is not None and tail.entries
                and self.node.runtime.now - tail.entries[-1].published_at
                < self.node.config.route_cache_ttl
            )
        ):
            return
        if tail is None:
            tail = self._tails[key] = EntryTail()
        queued = queue.queued
        warmed = max(tail.warmed_ts, last_ts)
        horizon = min(
            max(warmed, last_ts + queued) + (answered + queued if answered else 0),
            last_ts + WARM_AHEAD_CHAINS * (queued + answered),
        )
        if horizon > warmed:
            self.log.warm(key, warmed + 1, horizon)
            tail.warmed_ts = horizon

    def _forget_tails(self, items: Iterable[StoredItem]) -> None:
        """Drop the tail of every document whose counter is among ``items``."""
        if self._tails:
            storage_key = self._authority().storage_key
            moved = {item.key for item in items}
            for key in [key for key in self._tails if storage_key(key) in moved]:
                del self._tails[key]

    def on_items_handed_off(self, items: Iterable[StoredItem],
                            successor_name: str) -> None:
        self._forget_tails(items)  # the new Master answers from its own tenure

    def on_items_received(self, items: Iterable[StoredItem], *,
                          as_replica: bool) -> None:
        if not as_replica:
            # A counter coming (back) here was advanced by someone else: what
            # a previous tenure left behind no longer describes the log.
            self._forget_tails(items)

    def _lost_master_role(self, key: str, expected_last_ts: int) -> bool:
        """Did a re-election move the Master-key role away mid-request?

        The log publication yields (and even the lock acquisition can span a
        takeover), so a join can take over the arc holding ``ht(key)`` —
        hand-off moves the counter away — while a validation is in flight.
        Advancing the counter afterwards would create a *local* stale copy
        diverging from the new Master's authoritative one and fork the
        timestamp sequence.  This predicate re-checks, before any timestamp
        is consumed, that this node still holds the authoritative counter
        and that ``last-ts`` is untouched; callers reject the whole request
        atomically when it returns ``True``.
        """
        node = self.node
        authority = self._authority()
        owned = authority.owns_counter(key)
        still_responsible = (
            node is not None
            and node.alive
            # A hand-off downgrades the local counter to a replica before the
            # predecessor pointer reflects the joiner, so the ownership check
            # must come first; when no counter materialised yet (last-ts 0),
            # fall back to the ring's responsibility interval.
            and (owned if owned is not None
                 else node.is_responsible_for(authority.placement_id(key)))
        )
        return not (still_responsible and authority.last_ts(key) == expected_last_ts)

    # -- checkpointing -----------------------------------------------------------------

    def _note_published(self, key: str, patches: Any,
                        first_ts: int) -> Optional[CheckpointJob]:
        """Track the materialized view; return the checkpoint job now due.

        Runs inside the per-document critical section (cheap, local-only),
        once per group: every validated patch is applied to this Master's
        materialized view of the document, and when the published
        timestamps cross the checkpoint interval the ``(ts, lines)`` job is
        returned — the snapshot lines are captured *here*, while no
        concurrent proposal can advance the document.  The DHT writes run
        in the background after the group has been answered
        (:meth:`validate_and_publish`).
        """
        view = self._views.get(key)
        ts = first_ts
        for patch in patches:
            if view is None and ts == 1:
                view = Document(key=key)
                self._views[key] = view
            if view is not None:
                if view.applied_ts == ts - 1:
                    view.apply_patch(patch, ts=ts)
                else:
                    # A takeover left a view that does not line up with the
                    # validated sequence; drop it and rebuild from the
                    # checkpoint + log at the next checkpoint.
                    self._views.pop(key, None)
                    view = None
            ts += 1
        last_ts = first_ts + len(patches) - 1
        if last_ts - self._last_checkpoint_ts.get(key, 0) < self.config.checkpoint_interval:
            return None
        lines = (
            list(view.lines)
            if view is not None and view.applied_ts == last_ts
            else None
        )
        # Recorded eagerly so the next group does not schedule the same
        # checkpoint again; a failed write simply waits for the next interval.
        self._last_checkpoint_ts[key] = last_ts
        return last_ts, lines

    def _checkpoint_lock_for(self, key: str) -> FifoLock:
        """The per-document lock serializing checkpoint-index updates.

        Deliberately distinct from the validation lock: index maintenance
        performs DHT round-trips and must not stall queued proposers, but
        two concurrent read-modify-writes of the same index record would
        lose whichever update lands first.
        """
        lock = self._checkpoint_locks.get(key)
        if lock is None:
            lock = FifoLock(self.node.runtime)
            self._checkpoint_locks[key] = lock
        return lock

    def _checkpoint_in_background(self, key: str, ts: int, lines: Optional[list[str]]):
        """Write the checkpoint a group made due (process; nobody waits for it).

        So nobody can be told that it failed: an error of the library is
        traced and dropped here, and the next interval writes a checkpoint.
        """
        try:
            yield from self._write_checkpoint(key, ts, lines)
        except ReproError as error:
            node = self.node
            node.runtime.trace.annotate(
                node.runtime.now, "ltr-master",
                "{} could not checkpoint {}@{}: {!r}",
                node.address.name, key, ts, error,
            )

    def _write_checkpoint(self, key: str, ts: int, lines: Optional[list[str]]):
        """Serialized wrapper around :meth:`_write_checkpoint_locked`."""
        lock = self._checkpoint_lock_for(key)
        yield from lock.acquire()
        try:
            result = yield from self._write_checkpoint_locked(key, ts, lines)
        finally:
            lock.release()
        return result

    def _write_checkpoint_locked(self, key: str, ts: int, lines: Optional[list[str]]):
        """Materialize, store, index and garbage-collect checkpoints (process).

        ``lines`` is the snapshot content captured under the lock, or
        ``None`` when this Master has no materialized view at ``ts`` (fresh
        takeover) — then the state is rebuilt from the newest reachable
        checkpoint plus the log suffix.  The retained-checkpoint index is
        re-read from the DHT on every write (checkpoints are rare) so an
        interim Master's checkpoints are never forgotten, and everything
        sliding out of the retention window is removed from the DHT — the
        log's compaction step.  Best effort throughout: on any failure the
        system simply keeps the previous checkpoints.
        """
        node = self.node
        if lines is None:
            lines = yield from self._rebuild_lines(key, ts)
            if lines is None:
                return None  # log suffix unavailable; retry at the next interval
        checkpoint = Checkpoint(
            document_key=key,
            ts=ts,
            lines=tuple(lines),
            created_at=node.runtime.now,
            author=node.address.name,
        )
        if self.config.auth_enabled:
            checkpoint.metadata["sig"] = sign_checkpoint(
                self.config.auth_secret, checkpoint
            )
        try:
            yield from self.log.publish_checkpoint(checkpoint)
        except CheckpointUnavailable:
            return None
        self.checkpoints_written += 1
        self._last_checkpoint_ts[key] = max(self._last_checkpoint_ts.get(key, 0), ts)
        stored_index = yield from self.log.fetch_checkpoint_index(key)
        # Union merge, newest first: an entry *newer* than this write (an
        # interleaved or out-of-order job) must survive the update, or the
        # DHT would keep an unindexed — hence never-collected — snapshot.
        merged = tuple(sorted(set(stored_index or ()) | {ts}, reverse=True))
        keep = merged[:CHECKPOINT_RETENTION]
        drop = merged[CHECKPOINT_RETENTION:]
        yield from self.log.publish_checkpoint_index(key, keep)
        for old_ts in drop:
            removed = yield from self.log.gc_checkpoint(key, old_ts)
            self.checkpoint_placements_removed += removed
        node.runtime.trace.annotate(
            node.runtime.now, "ltr-master",
            "{} checkpointed {}@{} (retained {}, collected {})",
            node.address.name, key, ts, list(keep), list(drop),
        )
        return ts

    def _rebuild_lines(self, key: str, ts: int) -> Any:
        """Reconstruct the document state at ``ts`` from checkpoint + log (process).

        Returns the line list, or ``None`` when some log suffix entry is
        unavailable.  The rebuilt state is adopted as the live view so
        subsequent validations extend it incrementally.
        """
        base = Document(key=key)
        checkpoint = yield from self.log.latest_checkpoint(key, ts)
        if checkpoint is not None:
            base.lines = list(checkpoint.lines)
            base.applied_ts = checkpoint.ts
        if base.applied_ts < ts:
            try:
                entries = yield from self.log.fetch_range(key, base.applied_ts + 1, ts)
            except PatchUnavailable:
                return None
            for entry in entries:
                base.apply_patch(entry.patch, ts=entry.ts)
        self.checkpoint_rebuilds += 1
        existing = self._views.get(key)
        if existing is None or existing.applied_ts < base.applied_ts:
            self._views[key] = base
        return list(base.lines)

    def force_checkpoint(self, key: str):
        """Materialize a checkpoint at the current ``last-ts`` (process driver).

        Used by scenario drivers and the fuzz harness to checkpoint at an
        arbitrary moment instead of waiting for the interval.  Returns the
        checkpoint timestamp, or ``None`` when nothing was published yet or
        the write could not complete.
        """
        ts = self._authority().last_ts(key)
        if ts < 1:
            return None
        view = self._views.get(key)
        lines = list(view.lines) if view is not None and view.applied_ts == ts else None
        result = yield from self._write_checkpoint(key, ts, lines)
        return result

    def gc_checkpoints(self, key: str):
        """Re-apply the retention window to the stored index (process driver).

        Normally a no-op (writes garbage-collect as they go); after churn
        it removes checkpoints an interim Master retained beyond the
        window.  Returns how many checkpoints were collected.
        """
        lock = self._checkpoint_lock_for(key)
        yield from lock.acquire()
        try:
            index = yield from self.log.fetch_checkpoint_index(key)
            if not index:
                return 0
            ordered = tuple(sorted(index, reverse=True))
            keep = ordered[:CHECKPOINT_RETENTION]
            drop = ordered[CHECKPOINT_RETENTION:]
            if not drop:
                return 0
            yield from self.log.publish_checkpoint_index(key, keep)
            for old_ts in drop:
                removed = yield from self.log.gc_checkpoint(key, old_ts)
                self.checkpoint_placements_removed += removed
            return len(drop)
        finally:
            lock.release()

    # -- diagnostics ------------------------------------------------------------------

    def keys_mastered(self) -> dict[str, int]:
        """Documents this node currently is the Master-key peer for."""
        return self._authority().managed_keys()

    def statistics(self) -> dict[str, Any]:
        """Counters for the experiment reports."""
        stats = {
            "publishes": self.publishes,
            "proposals_ok": self.proposals_ok,
            "proposals_rebased": self.proposals_rebased,
            "proposals_deduplicated": self.proposals_deduplicated,
            "proposals_behind": self.proposals_behind,
            "proposals_rejected": self.proposals_rejected,
            "proposals_auth_rejected": self.proposals_auth_rejected,
            "patches_published": self.patches_published,
            "equivocations": self.equivocations,
            "checkpoints_written": self.checkpoints_written,
            "checkpoint_rebuilds": self.checkpoint_rebuilds,
            "checkpoint_placements_removed": self.checkpoint_placements_removed,
            "keys_mastered": len(self.keys_mastered()) if self.node is not None else 0,
        }
        if self.log is not None:
            stats["log"] = self.log.statistics()
        return stats
