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
* Per-document order — "a new timestamp for a given document d is provided
  after the replication of the previous timestamped patch on d": timestamps
  are allocated one round at a time, in order, each only once its own
  entries are at the Log-Peers.  The replications themselves overlap
  (:class:`Round`): a proposal is placed behind the entries still out at the
  Log-Peers as soon as it arrives, and published at once; the per-document
  lock covers that placement only, which does not yield.  Routing is kept
  out of the way too: the Master knows the next timestamps, so it has their
  Log-Peers resolved ahead of the proposals that will need them
  (``_warm_ahead``).
* Tenure — what a Master knows of a document besides the log
  (:class:`Tenure`) sits on the document's one record
  (:class:`DocumentQueue`) and ends in one place,
  :meth:`MasterService.end_tenure`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Any, Optional, Sequence

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
from ..kts import TimestampAuthority, counter_documents
from ..net import payload_size
from ..ot import Document, InsertLine, rebase_chain
from ..p2plog import (
    Checkpoint,
    LogEntry,
    P2PLogClient,
    find_proposal,
    retained_boundaries,
    sign_checkpoint,
    verify_commit,
)
from ..runtime import FifoLock
from .config import LtrConfig
from .protocol import ValidationResult

#: ``(tenure, boundary, snapshot lines or None, boundaries that left the
#: window)``: a job made due by a round's allocation and run in the
#: background once the round has been answered, writing only into the tenure
#: it was scheduled under.
CheckpointJob = tuple["Tenure", int, Optional[list[str]], list[int]]

#: Bounds of the per-document tail of allocated entries a stale proposal is
#: served from — transformed over, and handed with the answer — in entries
#: and in ``payload_size`` bytes (what the reply costs on the wire, to a
#: proposer or a reader).  64 entries cover every gap a chain-of-one editor
#: falls behind by under Zipf contention; batched editors fall behind by whole
#: chains of 16.  A larger gap is answered *behind* and read from the P2P-Log.
#: The entries out at the Log-Peers at once are held to the same bounds
#: (:meth:`DocumentQueue.full`): a gap ends in them.
TAIL_MAX_ENTRIES = 256
TAIL_MAX_BYTES = 256 * 1024

#: How far past ``last-ts`` the Master resolves Log-Peers ahead of the
#: proposals that will need them, in multiples of what it is looking at: the
#: entries in flight plus the ones being answered (``_warm_ahead``).
#: One chain is not enough: a hot document's next proposal arrives one
#: round-trip after the ack, a lookup that misses the route cache takes two.
WARM_AHEAD_CHAINS = 4


class EntryTail:
    """The newest entries one Master allocated for one document, contiguous.

    Holds only entries whose timestamps were consumed (never an unallocated
    or retracted one), in timestamp order without gaps, trimmed from the old
    end to :data:`TAIL_MAX_ENTRIES` and :data:`TAIL_MAX_BYTES`.  It is a
    cache of what this Master published during its current :class:`Tenure`;
    the P2P-Log stays the source of truth.  Two things are served from it:

    * the **gap** a stale proposal is transformed over and that comes back
      with its *ok* — or with *behind*, where the Master cannot transform —
      so the bounds of the tail are the bounds of that work and of that reply
      (a gap may end in the entries of the rounds still in flight ahead of
      it, which are held to the tail's bounds too, :meth:`DocumentQueue.full`)
      — and the suffix a reader misses, with the answer to its catch-up, or,
      for a reader older than the tail, the rest it applies over the newest
      checkpoint (:meth:`MasterService.handle_catch_up`);
    * the **identities** of the proposals that landed lately: the tail is the
      Master's whole table of them (walked with the gap, bounded with it,
      gone with the tenure; beyond it the log is the table and the proposer
      the one who looks, ``UserPeer._integrate``).
    """

    __slots__ = ("entries", "sizes", "bytes")

    def __init__(self) -> None:
        self.entries: list[LogEntry] = []
        self.sizes: list[int] = []
        self.bytes = 0

    def extend(self, entries: list[LogEntry], sizes: list[int]) -> None:
        """Append a freshly allocated chain (with the ``payload_size`` of each
        entry); a gap restarts the tail."""
        if self.entries and self.last_ts + 1 != entries[0].ts:
            self.entries, self.sizes, self.bytes = [], [], 0
        self.entries.extend(entries)
        self.sizes.extend(sizes)
        self.bytes += sum(sizes)
        while len(self.entries) > TAIL_MAX_ENTRIES or self.bytes > TAIL_MAX_BYTES:
            del self.entries[0]
            self.bytes -= self.sizes.pop(0)

    @property
    def last_ts(self) -> int:
        """Timestamp of the newest entry held (0 when empty)."""
        return self.entries[-1].ts if self.entries else 0

    def suffix(self, after_ts: int) -> Optional[list[LogEntry]]:
        """Every entry newer than ``after_ts``, if the tail reaches back that far
        (none, ``[]``, when ``after_ts`` is the newest entry held)."""
        if not self.entries:
            return None
        skip = after_ts + 1 - self.entries[0].ts
        if skip < 0 or skip > len(self.entries):
            return None
        return self.entries[skip:]


class Tenure:
    """What one Master knows of one document while nobody else allocates for it.

    The :attr:`tail`; the *warmed horizon* :attr:`warmed_ts`, the highest
    timestamp whose Log-Peers this tenure had resolved
    (:meth:`MasterService._warm_ahead`); and the materialized :attr:`view`
    checkpoints are cut from.  A tenure is replaced, never emptied
    (:meth:`MasterService.end_tenure`); a job that outlives its round writes
    only into the tenure it was scheduled under, never into the next one.
    """

    __slots__ = ("tail", "warmed_ts", "view")

    def __init__(self) -> None:
        self.tail = EntryTail()
        self.warmed_ts = 0
        self.view: Optional[Document] = None

    def lapsed(self, now: float, ttl: float) -> bool:
        """Is this tenure's newest allocation older than ``ttl``, the
        route-cache TTL?  Then the routes it warmed before have expired."""
        entries = self.tail.entries
        return bool(entries) and now - entries[-1].published_at >= ttl


class Proposal:
    """What one validation request proposes (:meth:`MasterService.validate_and_publish`)."""

    __slots__ = ("ts", "patches", "author", "base_ts", "signatures", "proposal")

    def __init__(self, ts: int, patches: list, author: str, base_ts: Optional[int],
                 signatures: Optional[Any], proposal: Optional[int]) -> None:
        self.ts = ts
        self.patches = patches
        self.author = author
        self.base_ts = base_ts
        self.signatures = signatures
        self.proposal = proposal


class Failure:
    """Why a round, and every round placed behind it, was given up.

    ``refused`` when the Log-Peers refused a publish (each round raises
    :class:`~repro.errors.PatchUnavailable`), otherwise the Master role was
    lost (each round is answered ``rejected``).  The rounds behind were
    transformed over the entries of the one that failed, so they cannot be
    allocated either.  ``entries`` collects what the rounds given up so far
    published, and ``pending`` counts those still out at the Log-Peers: the
    last of them to come back retracts the whole lot, once.
    """

    __slots__ = ("refused", "entries", "pending")

    def __init__(self, refused: bool) -> None:
        self.refused = refused
        self.entries: list[LogEntry] = []
        self.pending = 0


class Round:
    """One placed proposal, from its placement until it is settled.

    ``entries`` — with the ``payload_size`` of each in ``sizes`` — is the
    chain as the log will hold it, ``gap`` what it was transformed over
    (``None`` when it was exactly next).  ``done`` triggers when the round is
    settled: allocated, or given up with a :class:`Failure` in ``failure``
    (which a round placed behind a failed one gets too, before it is
    settled).  The round behind it waits for that before it may allocate.
    """

    __slots__ = ("entries", "sizes", "gap", "done", "failure")

    def __init__(self, entries: list[LogEntry], sizes: list[int],
                 gap: Optional[list[LogEntry]], done) -> None:
        self.entries = entries
        self.sizes = sizes
        self.gap = gap
        self.done = done
        self.failure: Optional[Failure] = None


class DocumentQueue:
    """One Master's record of one document: its lock, its rounds, its tenure.

    ``rounds`` holds the rounds placed and not yet settled, in timestamp
    order: their entries follow ``last-ts`` without a gap, so the next
    proposal is placed behind them (:meth:`ahead`).  The ``lock`` is held
    while one proposal is placed, and by a proposal that waits for room in
    front of it (:meth:`full`) or for rounds given up to come back; the
    proposals behind that one wait on the lock, in arrival order.
    ``given_up`` counts the entries of rounds given up whose retraction has
    not finished: like those in flight, they are at the Log-Peers past
    ``last-ts``.  Only ``tenure`` is ever replaced: the lock may be held or
    waited on, and rounds may be in flight.
    """

    __slots__ = ("lock", "rounds", "given_up", "tenure")

    def __init__(self, runtime) -> None:
        self.lock = FifoLock(runtime)
        self.rounds: deque[Round] = deque()
        self.given_up = 0
        self.tenure = Tenure()

    @property
    def in_flight(self) -> int:
        """Entries placed and not yet settled."""
        return sum(len(round_.entries) for round_ in self.rounds)

    def ahead(self) -> list[LogEntry]:
        """The entries of the rounds in flight, in timestamp order."""
        return [entry for round_ in self.rounds for entry in round_.entries]

    def full(self, entries: int, size: int) -> bool:
        """Would a round of ``entries`` entries and ``size`` bytes take what is
        in flight past the tail's bounds?  The first round goes whatever its
        size."""
        return bool(self.rounds) and (
            self.in_flight + entries > TAIL_MAX_ENTRIES
            or sum(sum(round_.sizes) for round_ in self.rounds) + size > TAIL_MAX_BYTES
        )

    def doomed(self) -> Optional[Round]:
        """The last round in flight that was given up, if any."""
        for round_ in reversed(self.rounds):
            if round_.failure is not None:
                return round_
        return None

    def holding(self, ts: int) -> Optional[Round]:
        """The round in flight whose entries include ``ts`` (``None`` once allocated)."""
        for round_ in self.rounds:
            if round_.entries[0].ts <= ts <= round_.entries[-1].ts:
                return round_
        return None


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
        # One record per document this node was asked to master: the locks,
        # the rounds in flight and the current tenure.
        self._documents: dict[str, DocumentQueue] = {}
        # One proposal = one validation request, whatever its chain length;
        # one publish = one round (one proposal's append_many) that allocated.
        self.publishes = 0
        self.proposals_ok = 0
        # ... of which transformed over the tail, or over the rounds in flight
        # ahead of them, before they were published,
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
        self.checkpoints_written = 0
        self.checkpoint_failures = 0
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

    def _document(self, key: str) -> DocumentQueue:
        queue = self._documents.get(key)
        if queue is None:
            queue = self._documents[key] = DocumentQueue(self.node.runtime)
        return queue

    def end_tenure(self, key: str) -> None:
        """The one place a tenure ends: ``key``'s record gets a fresh :class:`Tenure`."""
        queue = self._documents.get(key)
        if queue is not None:
            queue.tenure = Tenure()

    # -- RPC handlers ---------------------------------------------------------------

    def handle_last_ts(self, key: str) -> int:
        """Return ``last-ts`` for ``key`` (0 when no patch was ever validated)."""
        return self._authority().last_ts(key)

    def handle_catch_up(self, key: str, after_ts: int) -> dict:
        """``last-ts`` for a reader at ``after_ts``, with what it misses if held.

        The answer is a *behind* :class:`~repro.core.protocol.ValidationResult`
        payload whose ``entries`` come out of the document's tail, when the
        tail ends at ``last-ts`` — bounded like every reply served from it:

        * ``(after_ts, last_ts]`` when the tail reaches back that far: the
          reader needs nothing else;
        * otherwise, for a reader more than ``checkpoint_interval`` behind —
          one that will probe a checkpoint — ``(boundary, last_ts]`` after
          the newest boundary ``last_ts - last_ts % checkpoint_interval``, if
          the tail reaches back to it: the rest the reader applies over that
          checkpoint (empty when ``last-ts`` is the boundary; the wire drops
          an empty list, and the reader's read of the empty range sends
          nothing);
        * ``None`` otherwise, which sends the reader to the checkpoints and
          the P2P-Log.

        Read-only and lock-free: a tail of an earlier tenure is left for
        :meth:`_missing_suffix` to end under the lock.
        """
        last_ts = self._authority().last_ts(key)
        queue = self._documents.get(key)
        entries = None
        if after_ts < last_ts and queue is not None and queue.tenure.tail.last_ts == last_ts:
            tail = queue.tenure.tail
            entries = tail.suffix(after_ts)
            interval = self.config.checkpoint_interval
            if entries is None and last_ts - after_ts > interval:
                entries = tail.suffix(last_ts - last_ts % interval)
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
        a re-sent proposal whose first copy landed — or is on its way, in a
        round still in flight — and is answered with the ``ok`` that copy was
        (or will be) answered — the timestamps it landed at, the gap before
        them — once that copy's round is allocated, and the way that round
        failed if it failed; nothing is published.  The tail is the whole
        table; a copy that arrives after its original left the tail is
        answered *behind* and recognised by its proposer in the log.

        **Overlapping rounds.**  Only the placement runs under the
        per-document lock: verify, transform over the tail *and the entries
        of every round still in flight* (a re-sent identity is found in
        either), build the entries that follow them — local work that does
        not yield.  The proposal is then a :class:`Round` of its own, sent to
        its Log-Peers at once, while the rounds ahead of it are still there;
        the Log-Peers were resolved before it arrived (:meth:`_warm_ahead`).
        Timestamps stay in publish-then-allocate order: a round whose publish
        is back waits for the round ahead of it to be settled, and only then
        runs the re-election check, ``next_timestamps``, joins the tail and
        the checkpoint view and is answered (:meth:`_publish`) — so the
        counter moves densely, in order, and the tail never holds an
        unallocated entry.  What is in flight is held to the tail's bounds
        (:meth:`DocumentQueue.full`): a proposal that does not fit waits,
        holding the lock, for the oldest round to settle — the proposals
        behind it wait on the lock, in arrival order.  A proposal that can
        only be answered *behind* is, once the rounds ahead of it are
        settled, with the ``last-ts`` and suffix that hold then, so it does
        not come round again for them.  A member that fails verification,
        proposes an empty chain or cannot be transformed gets that error,
        alone, and nothing is placed.

        The chain is atomic: it either commits completely or not at all, and
        so does every round behind it that was transformed over it.  When
        the Log-Peers refuse a round (``PatchUnavailable``) or a re-election
        moves the Master-key role away while it was in flight — the handler
        detects the hand-over before advancing any timestamp — the round and
        every round behind it fail the same way: they raise
        ``PatchUnavailable``, or are answered ``rejected`` without consuming
        the range (the user peers re-propose, and routing delivers the
        retries to the new Master).  Their entries are retracted once, after
        the last of them is back from the Log-Peers, and nothing is placed
        behind them meanwhile.  Without the guard the old Master would
        resurrect a counter it no longer owns and fork the timestamp
        sequence (see ``tests/test_core_master.py``).  No round is left
        unsettled, whatever becomes of the handler that publishes it.

        **The answer does not wait for a checkpoint.**  The commit ends when
        the chain is published and allocated; a checkpoint is a retrieval aid
        that may be late.  The one job a round may make due
        (:meth:`_note_published`) is spawned once it has been answered, and
        its failures are counted, never raised at a proposer
        (:meth:`_checkpoint_in_background`).

        When ``auth_enabled``, ``signatures`` must hold the author's HMAC
        over each chained commit (see :mod:`repro.p2plog.auth`); a missing
        or invalid signature raises
        :class:`~repro.errors.AuthenticationError` before any timestamp
        state is consulted.
        """
        queue = self._document(key)
        member = Proposal(ts, list(patches), author, base_ts, signatures, proposal)
        yield from queue.lock.acquire()
        try:
            placed, ahead = yield from self._admit(key, queue, member)
        finally:
            queue.lock.release()
        if isinstance(placed, Round):
            answer = yield from self._publish(key, queue, placed, ahead)
            return answer
        if ahead is not None and not ahead.done.triggered:
            yield ahead.done
        if placed is None:
            # Answered after the rounds ahead of it, with what holds now: a
            # proposer that integrates this does not come round again for them.
            self.proposals_behind += 1
            last_ts = self._authority().last_ts(key)
            self._warm_ahead(key, last_ts, len(member.patches))
            return ValidationResult.behind(
                last_ts, self._missing_suffix(key, member.ts - 1, last_ts)
            ).to_payload()
        if ahead is not None and ahead.failure is not None:
            return self._given_up(key, ahead.failure, placed.first_ts)
        return placed.to_payload()

    def _admit(self, key: str, queue: DocumentQueue, member: Proposal):
        """Place ``member`` behind the rounds in flight (under the lock).

        Returns ``(round, the round ahead of it)`` for a chain that is now in
        flight, ``(answer, round)`` for a re-sent proposal — ``round`` the one
        its first copy is in, if that is still in flight — or ``(None, the
        last round in flight)`` for a proposal answered *behind*.  Waits —
        the only yields under the lock — while rounds that were given up are
        still out, and while the chain does not fit in what may be in flight.
        """
        authority = self._authority()
        while True:
            doomed = queue.doomed()
            if doomed is not None:
                # Nothing is placed behind entries that will be retracted.
                yield doomed.done
                continue
            chain, gap = self._place(key, member, authority.last_ts(key), queue.ahead())
            if chain is None:
                return None, (queue.rounds[-1] if queue.rounds else None)
            if isinstance(chain, ValidationResult):
                return chain, queue.holding(chain.last_ts)
            sizes = [payload_size(entry) for entry in chain]
            if queue.full(len(chain), sum(sizes)):
                yield queue.rounds[0].done
                continue
            placed = Round(chain, sizes, gap, self.node.runtime.future())
            ahead = queue.rounds[-1] if queue.rounds else None
            if ahead is None and queue.tenure.lapsed(
                    self.node.runtime.now, self.node.config.route_cache_ttl):
                queue.tenure.warmed_ts = 0  # what was warmed before the lull expired
            queue.rounds.append(placed)
            if ahead is not None:
                self._warm_ahead(key, authority.last_ts(key), 0)
            return placed, ahead

    def _publish(self, key: str, queue: DocumentQueue, placed: Round,
                 ahead: Optional[Round]):
        """Publish a placed round, then allocate it after ``ahead`` — or give it up."""
        refused = False
        try:
            try:
                per_entry = yield from self.log.append_many(placed.entries)
            except PatchUnavailable:
                # Partial publish: what landed carries timestamps that were
                # never allocated — retracted with the round's failure, so
                # the proposer keeps its edits and retries.
                refused = True
            if ahead is not None and not ahead.done.triggered:
                yield ahead.done
            if placed.failure is None and not refused and not self._lost_master_role(
                    key, placed.entries[0].ts - 1):
                answer, checkpoint = self._allocate(key, queue, placed, per_entry)
            else:
                if placed.failure is None and not refused:
                    # Re-election check: the publish yields, so the Master
                    # role may have moved since the proposal was placed.
                    self.end_tenure(key)  # the tenure these came from is over
                retract = self._give_up(queue, placed, Failure(refused=refused))
                if retract:
                    yield from self._retract(queue, retract)
                return self._given_up(key, placed.failure, placed.entries[0].ts)
        finally:
            if not placed.done.triggered:
                # The handler died with its round out: what became of the
                # entries is not known here; the rounds behind it fail too.
                retract = self._give_up(queue, placed, Failure(refused=True))
                if retract:
                    self.node.runtime.process(self._retract(queue, retract),
                                              name=f"retract:{key}")
        for entry in placed.entries[:self.equivocate_next]:
            yield from self._equivocate(entry)
        if checkpoint is not None:
            self.node.runtime.process(
                self._checkpoint_in_background(key, *checkpoint),
                name=f"checkpoint:{key}@{checkpoint[1]}",
            )
        return answer

    def _allocate(self, key: str, queue: DocumentQueue, placed: Round,
                  per_entry: list[int]) -> tuple[dict, Optional[CheckpointJob]]:
        """Consume the timestamps of a round whose publish is back and whose
        predecessor is allocated; settle it.  Returns its answer and the
        checkpoint job it made due, if any."""
        entries = placed.entries
        first_ts = self._authority().next_timestamps(key, len(entries))
        queue.rounds.remove(placed)
        placed.done.succeed()
        # Only now are the entries part of the log for good: remember them
        # for the proposers this commit has just put behind.
        tenure = queue.tenure
        # Paced by the allocation before this one, so: before it joins the tail.
        self._warm_ahead(key, entries[-1].ts, len(entries))
        tenure.tail.extend(entries, placed.sizes)
        checkpoint = self._note_published(
            key, tenure, [entry.patch for entry in entries], first_ts
        )
        self.publishes += 1
        self.proposals_ok += 1
        self.proposals_rebased += placed.gap is not None
        self.patches_published += len(entries)
        answer = ValidationResult.ok(
            first_ts, entries[-1].ts, min(per_entry), placed.gap
        ).to_payload()
        return answer, checkpoint

    @staticmethod
    def _give_up(queue: DocumentQueue, placed: Round,
                 failure: Failure) -> Optional[list[LogEntry]]:
        """Settle ``placed`` as failed — with ``failure``, unless it was
        placed behind a round that failed before it — and return the entries
        to retract now, if it is the last of its failure to come back."""
        if placed.failure is None:
            placed.failure = failure
            for behind in queue.rounds:
                if behind.failure is None and behind.entries[0].ts > placed.entries[0].ts:
                    behind.failure = failure
                    failure.pending += 1
        else:
            failure = placed.failure
            failure.pending -= 1
        failure.entries.extend(placed.entries)
        queue.rounds.remove(placed)
        queue.given_up += len(placed.entries)
        placed.done.succeed()
        return failure.entries if failure.pending == 0 else None

    def _retract(self, queue: DocumentQueue, entries: list[LogEntry]):
        """Remove the entries of rounds given up from the Log-Peers (process).

        They carry timestamps that were never allocated: removed so no reader
        observes them before the range is reused (compare-and-delete: a round
        placed since at the same timestamps is left alone).
        """
        try:
            yield from self.log.retract_many(entries)
        finally:
            queue.given_up -= len(entries)

    def _given_up(self, key: str, failure: Failure, ts: int) -> dict:
        """The outcome of a proposal whose round failed: raise or answer."""
        if failure.refused:
            raise PatchUnavailable(key, ts)
        self.proposals_rejected += 1
        return ValidationResult.reelection(self._authority().last_ts(key)).to_payload()

    def _place(self, key: str, member: Proposal, last_ts: int,
               ahead: list[LogEntry]):
        """Where ``member`` goes behind the entries ``ahead`` still in flight.

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
                # The author's proof travels with every replica; it is
                # excluded from entry equality, so signed and unsigned copies
                # compare the same everywhere else.
                sig=sigs[offset],
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

    # -- the tail stale proposals are served from -------------------------------------

    def _missing_suffix(self, key: str, after_ts: int, last_ts: int,
                        ahead: Sequence[LogEntry] = ()) -> Optional[list[LogEntry]]:
        """Entries ``(after_ts, last_ts]`` of ``key`` and ``ahead``, if held.

        Runs under the document's lock; ``ahead`` is what the rounds in flight
        hold past ``last_ts``.  A tail that does not end at
        ``last-ts`` belongs to an earlier tenure (the counter moved on
        elsewhere) and is dropped; ``None`` — also for a gap older than the
        tail, and for a proposal that is not behind at all — means *behind*
        without entries, which sends the proposer to the P2P-Log.
        """
        if after_ts >= last_ts:
            missed = list(ahead[after_ts - last_ts:])
            return missed or None
        tail = self._documents[key].tenure.tail
        if not tail.entries:
            return None
        if tail.last_ts != last_ts:
            self.end_tenure(key)
            return None
        held = tail.suffix(after_ts)
        return None if held is None else held + list(ahead)

    def _warm_ahead(self, key: str, last_ts: int, answered: int) -> None:
        """Resolve the Log-Peers of the timestamps about to be handed out.

        ``h_i(key + ts)`` is a pure function and the next ``ts`` are known
        here, so the placement lookups of the coming publishes run now, in the
        background, instead of inside a later round's publish (a new
        ``key + ts`` lands on a random arc; a route-cache miss costs more than
        the publish it delays).  It only spawns, it never yields.  Called

        * for every round that was allocated and every proposal answered
          *behind* (``answered``: the entries allocated, proposed): whoever was
          just answered comes round again, and so will whoever has a round
          still in flight, so the horizon moves on by as much as both, past
          what is in flight now (which its own publish routed);
        * for every round placed behind another (``answered`` 0): an arrival
          while rounds are out says the document is contended, so the horizon
          moves one timestamp further — one, not a chain: the answers move it
          by chains.  It is what warms the third writer of a tenure's opening
          burst, placed behind the second before the first is allocated.

        Never further than :data:`WARM_AHEAD_CHAINS` times what the Master is
        looking at — ``in flight + answered`` — past ``last_ts``, and never
        over a timestamp twice while the document is busy.  Nothing is warmed
        that would be stale when used: with nothing in flight, only while the
        document's previous allocation in this tenure is younger than the
        route-cache TTL; and a round placed after such a lull drops the
        horizon (:meth:`_admit`) — the routes warmed before it have expired,
        so the timestamps past the new rounds are warmed again.  A
        tenure that allocated nothing yet has none to pace by, and warms
        wherever this node holds the document's counter: a new Master's
        writers come round together — the ones a fault cut off retry at once
        — and the rounds that arrive behind the first would otherwise route
        their own placements.  A peer without the counter (a stale route led
        a proposer to it) warms nothing.
        """
        queue = self._documents[key]
        tenure = queue.tenure
        tail = tenure.tail
        if not queue.rounds and (
            tenure.lapsed(self.node.runtime.now, self.node.config.route_cache_ttl)
            if tail.entries else not self._authority().owns_counter(key)
        ):
            return
        in_flight = queue.in_flight
        # What is in flight was routed by its own publish.
        warmed = max(tenure.warmed_ts, last_ts + in_flight)
        horizon = min(
            warmed + (answered + in_flight if answered else 1),
            last_ts + WARM_AHEAD_CHAINS * (in_flight + answered),
        )
        if horizon > warmed:
            self.log.warm(key, warmed + 1, horizon)
            tenure.warmed_ts = horizon

    def on_ownership_moved(self, items: list[StoredItem]) -> None:
        # A counter that moved, either way, ends the tenure here: a new
        # Master answers from its own tenure, and what a previous one left
        # behind no longer describes a log someone else advanced meanwhile.
        for key in counter_documents(items):
            self.end_tenure(key)

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

    def _note_published(self, key: str, tenure: Tenure, patches: Any,
                        first_ts: int) -> Optional[CheckpointJob]:
        """Track the materialized view; return the checkpoint job now due.

        Runs once per round, as it is allocated (cheap, local-only, in
        timestamp order): every validated patch is applied to the view of
        ``tenure`` (the one the round was allocated in).  The round's range
        alone decides the job: when it crosses a *boundary* (a multiple of
        ``checkpoint_interval``), the newest boundary crossed is written —
        its snapshot lines captured *here*, at exactly that timestamp, while
        no other allocation can advance the document — and the boundaries
        that left the retention window with it are removed.  The DHT writes
        run in the background after the round has been answered
        (:meth:`validate_and_publish`).
        """
        interval = self.config.checkpoint_interval
        window = retained_boundaries(first_ts + len(patches) - 1, interval)
        boundary = window[0] if window and window[0] >= first_ts else None
        lines = None
        view = tenure.view
        ts = first_ts
        for patch in patches:
            if view is None and ts == 1:
                view = tenure.view = Document(key=key)
            if view is not None:
                if view.applied_ts == ts - 1:
                    view.apply_patch(patch, ts=ts)
                    if ts == boundary:
                        lines = list(view.lines)
                else:
                    # A view rebuilt behind the validated sequence: drop it,
                    # the next checkpoint rebuilds from checkpoint + log.
                    view = tenure.view = None
            ts += 1
        if boundary is None:
            return None
        left = [old for old in retained_boundaries(first_ts - 1, interval)
                if old not in window]
        return tenure, boundary, lines, left

    def _checkpoint_in_background(self, key: str, tenure: Tenure, ts: int,
                                  lines: Optional[list[str]], left: list[int]):
        """Remove the boundaries that left the window, then write the
        checkpoint a round made due (process; nobody waits for it).

        So nobody can be told that it failed: an error of the library is
        counted (``checkpoint_failures``) and dropped here, and the next
        boundary writes a checkpoint.
        """
        try:
            for old_ts in left:
                removed = yield from self.log.gc_checkpoint(key, old_ts)
                self.checkpoint_placements_removed += removed
            yield from self._write_checkpoint(key, tenure, ts, lines)
        except ReproError:
            self.checkpoint_failures += 1

    def _write_checkpoint(self, key: str, tenure: Tenure, ts: int,
                          lines: Optional[list[str]]):
        """Materialize and store the checkpoint at boundary ``ts`` (process).

        ``lines`` is the snapshot captured as its round was allocated, or
        ``None`` when ``tenure`` has no view at ``ts`` (fresh takeover) —
        then the state is rebuilt from the newest reachable checkpoint plus
        the log suffix.  Best effort: on any failure the system simply keeps
        the previous checkpoints.  Returns ``ts``, or ``None`` when nothing
        was stored.
        """
        node = self.node
        if lines is None:
            lines = yield from self._rebuild_lines(key, tenure, ts)
            if lines is None:
                return None  # log suffix unavailable; retry at the next boundary
        checkpoint = Checkpoint(
            document_key=key,
            ts=ts,
            lines=tuple(lines),
            created_at=node.runtime.now,
            author=node.address.name,
        )
        if self.config.auth_enabled:
            checkpoint = replace(
                checkpoint, sig=sign_checkpoint(self.config.auth_secret, checkpoint)
            )
        try:
            yield from self.log.publish_checkpoint(checkpoint)
        except CheckpointUnavailable:
            return None
        self.checkpoints_written += 1
        return ts

    def _rebuild_lines(self, key: str, tenure: Tenure, ts: int) -> Any:
        """Reconstruct the document state at ``ts`` from checkpoint + log (process).

        Starts from the newest reachable checkpoint *before* ``ts`` (the one
        at ``ts`` is what is being written).  Returns the line list, or
        ``None`` when some log suffix entry is unavailable.  The rebuilt
        state is adopted as the view of ``tenure`` (unless it holds a newer
        one) so later validations extend it.
        """
        base = Document(key=key)
        checkpoint = yield from self.log.latest_checkpoint(
            key, ts - 1, self.config.checkpoint_interval
        )
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
        if tenure.view is None or tenure.view.applied_ts < base.applied_ts:
            tenure.view = base
        return list(base.lines)

    def force_checkpoint(self, key: str):
        """Rewrite the checkpoint at the newest boundary at or below
        ``last-ts`` (process).

        Used by the fuzz harness to checkpoint at an arbitrary moment; the
        snapshot is cut from the view when it stands at the boundary and
        rebuilt from checkpoint + log otherwise.  Returns the boundary, or
        ``None`` when no boundary was reached yet or the write could not
        complete.
        """
        window = retained_boundaries(self._authority().last_ts(key),
                                     self.config.checkpoint_interval)
        if not window:
            return None
        ts = window[0]
        tenure = self._document(key).tenure
        view = tenure.view
        lines = list(view.lines) if view is not None and view.applied_ts == ts else None
        result = yield from self._write_checkpoint(key, tenure, ts, lines)
        return result

    # -- diagnostics ------------------------------------------------------------------

    def entries_out(self, key: str) -> int:
        """Entries of ``key`` this Master has at the Log-Peers past ``last-ts``:
        those of the rounds in flight and those given up and not yet retracted
        (what a snapshot may find in the log beyond the counter)."""
        queue = self._documents.get(key)
        return 0 if queue is None else queue.in_flight + queue.given_up

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
            "checkpoint_failures": self.checkpoint_failures,
            "checkpoint_rebuilds": self.checkpoint_rebuilds,
            "checkpoint_placements_removed": self.checkpoint_placements_removed,
            "keys_mastered": len(self.keys_mastered()) if self.node is not None else 0,
        }
        if self.log is not None:
            stats["log"] = self.log.statistics()
        return stats
