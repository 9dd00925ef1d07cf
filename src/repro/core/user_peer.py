"""The user peer: local editing, timestamp validation and reconciliation.

A :class:`UserPeer` is the application side of a P2P-LTR peer (the paper's
*User Peer* running e.g. the XWiki application).  It keeps local primary
copies of documents, captures tentative patches on save, and runs the three
P2P-LTR procedures:

1. *Edit a page locally* — :meth:`UserPeer.edit` / :meth:`UserPeer.stage`
   (a save becomes a tentative patch against the last validated state).
2. *Validate the tentative patch timestamp value and retrieve patches if
   necessary* — :meth:`UserPeer.commit` (:meth:`UserPeer.flush` is the same
   function under its other name).
3. *Replicate the new patch at the P2P-Log* — performed by the Master-key
   peer during validation; the user peer only applies the patch locally once
   the Master has acknowledged the validated timestamp.

**One chain per document.**  The tentative state of a document is one thing:
its chain of patches, ``batches[key]`` (a
:class:`~repro.core.batch.CommitBatch`), each patch expressed against the
output of its predecessor and the first against the validated replica.  The
two saving verbs differ in how a save joins it — ``edit`` composes it into
the chain's last patch (the paper's "updates are wrapped together in the form
of a patch": a chain of one), ``stage`` appends it as a patch, and a log
entry, of its own — and every other operation sees just the chain.

**One operation per document at a time.**  While :meth:`UserPeer.commit` has
a document's chain out with the Master the document is marked
(``_flushing``): ``edit`` / ``stage`` are refused and :meth:`UserPeer.sync`
stands back.  Everything between two waits of a process is atomic, so the
mark is a plain set, not a lock.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from ..chord import ChordNode, HashFunctionFamily, timestamp_hash
from ..dht import ChordDhtClient
from ..errors import (
    ConfigurationError,
    MasterUnavailable,
    NodeUnreachable,
    ReproError,
    RequestTimeout,
    ValidationFailed,
)
from ..ot import (
    Document,
    Patch,
    install_snapshot_into_staged,
    integrate_remote_into_staged,
    integrate_remote_patches,
    make_patch,
)
from ..p2plog import (
    LogEntry,
    P2PLogClient,
    author_key,
    find_proposal,
    sign_commit,
    verify_checkpoint,
    verify_entry,
)
from .batch import CommitBatch
from .config import LtrConfig
from .protocol import CommitResult, SyncResult, ValidationResult

_ROUTING_ERRORS = (RequestTimeout, NodeUnreachable)

#: Upper bound on the validate → retrieve → retry loop of a commit.  The
#: paper loops "until last-ts value is equal to ts value"; the bound only
#: exists to turn a livelock into a diagnosable error.  Losing a race no
#: longer costs an attempt — the Master commits a stale proposal behind what
#: it missed, so on the Zipf benchmark every commit takes one attempt on the
#: paper path and at most two with chains of 16 (round seeds 1000 .. 10000;
#: 28 and 13 while a loser was sent back).  What the number still guards is
#: where *behind* remains the answer and a proposer can lose again on the way
#: back: signed deployments (``auth_enabled``: the Master cannot re-sign a
#: transformed patch), Masters fresh from a takeover, gaps older than the
#: Master's tail — and the paced retries while routing re-converges after a
#: fault.
MAX_VALIDATION_ATTEMPTS = 64


class UserPeer:
    """A collaborating user working on local replicas of shared documents."""

    def __init__(
        self,
        node: ChordNode,
        config: Optional[LtrConfig] = None,
        *,
        author: Optional[str] = None,
        hash_family: Optional[HashFunctionFamily] = None,
    ) -> None:
        self.node = node
        self.config = config if config is not None else LtrConfig()
        self.author = author if author is not None else node.address.name
        self.dht = ChordDhtClient(node)
        self.ht = timestamp_hash(node.config.bits)
        if hash_family is None:
            hash_family = HashFunctionFamily.create(
                self.config.log_replication_factor, bits=node.config.bits
            )
        if self.config.auth_enabled:
            # Keyed at peer creation (DESIGN.md §"Adversarial model &
            # authenticity"): the signing key for this author, plus
            # retrieval-side verifiers so every fetched log entry and
            # checkpoint is authenticated before it is trusted.
            secret = self.config.auth_secret
            self._auth_key: Optional[bytes] = author_key(secret, self.author)
            entry_verifier = lambda entry: verify_entry(secret, entry)  # noqa: E731
            checkpoint_verifier = lambda ckpt: verify_checkpoint(secret, ckpt)  # noqa: E731
        else:
            self._auth_key = None
            entry_verifier = None
            checkpoint_verifier = None
        self.log = P2PLogClient(
            self.dht, hash_family,
            entry_verifier=entry_verifier,
            checkpoint_verifier=checkpoint_verifier,
        )
        self.documents: dict[str, Document] = {}
        # The tentative chain of every document that has one (never empty) ...
        self.batches: dict[str, CommitBatch] = {}
        # ... and the documents whose chain is out with the Master right now.
        self._flushing: set[str] = set()
        # Proposal identities (at-most-once commits; see _commit_chain).  A
        # patch is named by its author and a number that is dense per
        # document: the base is drawn once per incarnation of this peer, so a
        # restarted peer never re-uses the identities of its former self.
        self._proposal_base = node.runtime.rng.stream(
            f"proposals:{self.author}"
        ).getrandbits(48)
        # Per document: how many of its patches were acknowledged (or given
        # up) so far, i.e. the offset of its first tentative patch ...
        self._acknowledged: dict[str, int] = {}
        # ... and how many of the chain's leading patches were proposed
        # without an answer — a failed commit put them back, they may have
        # landed all the same.  They keep their identities, so nothing is
        # composed into them any more: what is edited since follows them.
        self._in_doubt: dict[str, int] = {}
        self.commit_results: list[CommitResult] = []
        self.sync_results: list[SyncResult] = []

    # ------------------------------------------------------------ local copies --

    def document(self, key: str) -> Document:
        """The local replica of ``key`` (created empty on first access)."""
        replica = self.documents.get(key)
        if replica is None:
            replica = Document(key=key)
            self.documents[key] = replica
        return replica

    def batch(self, key: str) -> Optional[CommitBatch]:
        """The tentative chain of ``key``, if it has one."""
        return self.batches.get(key)

    def has_pending(self, key: str) -> bool:
        """``True`` when there are local edits not yet validated."""
        batch = self.batches.get(key)
        return batch is not None and any(len(patch) > 0 for patch in batch.patches)

    def working_lines(self, key: str) -> list[str]:
        """The document as the user sees it: validated state plus the chain."""
        replica = self.document(key)
        batch = self.batches.get(key)
        return batch.tip_lines(replica.lines) if batch is not None else list(replica.lines)

    staged_lines = working_lines

    def working_text(self, key: str) -> str:
        """:meth:`working_lines` joined with newlines."""
        return "\n".join(self.working_lines(key))

    # ------------------------------------------------------------------- editing --

    def edit(self, key: str, new_text: str, *, comment: str = "") -> Patch:
        """Replace the working copy of ``key`` with ``new_text`` (procedure 1).

        The difference between the current working copy and ``new_text`` is
        captured as a tentative patch; successive edits before a commit are
        composed into a single patch, mirroring "updates are wrapped together
        in the form of a patch after each document save operation".  A save
        that changed nothing is recorded too (an empty patch: an explicit
        save always has something to commit).  Returns the patch the save
        went into.
        """
        new_lines = new_text.split("\n") if new_text else []
        return self.edit_lines(key, lambda _current: new_lines, comment=comment)

    def edit_lines(self, key: str, mutate: Callable[[list[str]], Sequence[str]],
                   *, comment: str = "") -> Patch:
        """Apply ``mutate`` to the working copy and record the tentative patch."""
        return self._save(key, mutate, comment, compose=True).patches[-1]

    def stage(self, key: str, new_text: str, *, comment: str = "") -> CommitBatch:
        """Stage one edit of ``key`` as a patch of its own.

        Unlike :meth:`edit`, a staged edit is *not* composed into its
        predecessor: it keeps its own patch (and will receive its own
        timestamp and log entry), so the chain — returned — grows by one,
        up to ``batch_max_edits``; commit it once it is full or due.  An edit
        that changes nothing is skipped.
        """
        new_lines = new_text.split("\n") if new_text else []
        return self._save(key, lambda _current: new_lines, comment, compose=False)

    def _save(self, key: str, mutate: Callable[[list[str]], Sequence[str]],
              comment: str, *, compose: bool) -> CommitBatch:
        """One save of the working copy joins the chain of ``key``.

        Composed into the chain's last patch (``edit``) or appended behind it
        (``stage``).  Nothing is ever composed into a patch that was proposed
        (``_in_doubt``): the proposal may have landed as it was, so what is
        saved after it follows as a patch of its own.
        """
        self._refuse_in_flight(key)
        replica = self.document(key)
        batch = self.batches.get(key)
        if batch is None:
            batch = CommitBatch(
                key=key, opened_at=self.node.runtime.now,
                max_edits=self.config.batch_max_edits,
            )
        before = batch.tip_lines(replica.lines)
        after = list(mutate(list(before)))
        patch = make_patch(before, after, base_ts=replica.applied_ts,
                           author=self.author, comment=comment)
        if compose:
            batch.compose(patch, tip=after, proposed=self._in_doubt.get(key, 0))
        elif len(patch) == 0:
            # A no-op edit deserves no timestamp or log entry — and must not
            # open a chain, or the deadline clock would start before the
            # first real edit (a new one is returned for inspection only).
            return batch
        else:
            batch.add(patch, tip=after)
        self.batches[key] = batch
        return batch

    def discard_pending(self, key: str) -> None:
        """Drop the tentative chain of ``key`` without publishing it.

        Dropped edits take their identities with them: what was proposed
        under them may have landed, nothing else may ever be proposed under
        the same identities.  Refused, like a save, while a commit of ``key``
        is in flight: the chain is out with the Master, and retiring its
        identities under the proposal would hand them to the next edit.
        """
        self._refuse_in_flight(key)
        self.batches.pop(key, None)
        self._acknowledge(key, self._in_doubt.get(key, 0))

    discard_batch = discard_pending

    def _refuse_in_flight(self, key: str) -> None:
        """One operation per document at a time: not while its commit is out."""
        if key in self._flushing:
            raise ConfigurationError(
                f"a commit of {key!r} is in flight; edit again once it "
                f"completes (edits made now could be lost or mis-based)"
            )

    # --------------------------------------------------------------------- commit --

    def commit(self, key: str):
        """Validate and publish the chain of ``key`` (procedures 2 + 3).

        Simulation process returning a
        :class:`~repro.core.protocol.CommitResult`, or ``None`` when there
        was nothing to commit.  The whole chain is proposed to the Master-key
        peer in one round (:meth:`_commit_chain`) — a chain of one is the
        paper's per-edit commit — and the document is marked for as long as
        it is out: no save is accepted, no :meth:`sync` integrates, a second
        commit finds nothing to do.

        Whatever goes wrong — unreachable Master, failed publish at the
        Log-Peers, a failed retrieval, too many attempts — nothing is known
        to be committed: the (possibly rebased) chain goes back so the user's
        edits are never lost, and is remembered as proposed.  It may have
        landed all the same, so the next commit proposes it under the
        identities it had, ahead of whatever is saved since.
        """
        started_at = self.node.runtime.now
        batch = self.batches.pop(key, None)
        if batch is None:
            return None
        chain = list(batch.patches)
        self._flushing.add(key)
        try:
            outcome = yield from self._commit_chain(key, chain, started_at)
            return outcome
        except ReproError:
            batch.replace_patches(chain)
            self.batches[key] = batch
            self._in_doubt[key] = len(chain)
            if not self.has_pending(key):
                # Nothing to keep: empty patches are given up with their
                # identities rather than proposed again (this commit is over).
                self._flushing.discard(key)
                self.discard_pending(key)
            raise
        finally:
            self._flushing.discard(key)

    flush = commit

    def _commit_chain(self, key: str, chain: list[Patch], started_at: float):
        """The validate → retrieve → retry loop (process).

        The loop matches the paper: propose ``ts = applied_ts + 1`` for the
        chain's first patch and repeat until the chain has landed.  What the
        peer is missing comes back with the answer whenever the Master holds
        it (:meth:`_carried_suffix`) and from the P2P-Log otherwise, and is
        integrated by one function (:meth:`_integrate`: the chain is rebased
        over it patch by patch, preserving the chain):

        * *ok* ``first_ts .. last_ts`` — the chain is in the log at those
          timestamps.  They need not start where it was proposed: the Master
          transforms a stale chain over the gap ``(applied_ts, first_ts - 1]``
          itself, by the function this peer would have used, so the gap is
          integrated first and only then is the chain applied — what a
          proposer applies is what the log holds.
        * *behind* — the Master could not do that (a signed proposal, a gap
          older than its tail, a Master fresh from a takeover): integrate up
          to its ``last_ts``, re-propose.
        * *rejected* (the Master lost the key to a re-election mid-flight),
          or an answer from a peer that is behind *us* — nothing was
          committed; the proposal is simply retried, which re-routes it to
          the new Master.

        **At most once.**  Every patch of the chain travels under a proposal
        identity (this author + :meth:`_proposal` + its offset in the chain)
        that it keeps across re-sends, rebases and a failed commit, until it
        is acknowledged; every log entry records it.  A proposal that landed
        without this peer learning of it — the reply was lost, the Master
        died between publish and ack — is therefore recognised, not committed
        again: by the Master, which answers a re-sent identity it still holds
        with the *ok* of the entry that carries it, and by this peer, which
        adopts entries carrying its own identity wherever it comes across
        them (:meth:`_integrate`).  An *ok* may thus acknowledge fewer patches
        than were proposed (the chain grew after the attempt that landed);
        the loop goes on with the rest.

        ``chain`` is rebased *in place* and shrinks as its patches land, so
        the caller still holds what is left and can put it back when any
        round raises.
        """
        replica = self.document(key)
        edits = len(chain)
        attempts = 0
        retrieved_total = 0
        replicas = 0
        while True:
            attempts += 1
            if attempts > MAX_VALIDATION_ATTEMPTS:
                raise ValidationFailed(
                    f"{self.author} could not validate {len(chain)} edit(s) "
                    f"for {key!r} after {attempts - 1} attempts"
                )
            proposal_ts = replica.applied_ts + 1
            proposal = self._proposal(key)
            arguments: dict[str, Any] = dict(
                ts=proposal_ts,
                patches=chain,
                author=self.author,
                base_ts=replica.applied_ts,
                proposal=proposal,
            )
            if self._auth_key is not None:
                # One HMAC per chained patch, re-signed on every attempt: a
                # behind round rebases the chain and moves the proposal
                # timestamp, so each proposal carries fresh HMACs over
                # exactly what it submits.
                arguments["signatures"] = [
                    sign_commit(
                        self._auth_key, key, proposal_ts + offset, patch,
                        self.author, replica.applied_ts + offset,
                        proposal + offset,
                    )
                    for offset, patch in enumerate(chain)
                ]
            payload = yield from self._call_master(
                key, "ltr_validate_and_publish", **arguments
            )
            result = ValidationResult.from_payload(payload)

            if not result.accepted and (
                result.rejected or result.last_ts <= replica.applied_ts
            ):
                # Nothing was committed and there is nothing to retrieve.
                # Either an atomic rejection (re-election mid-publication),
                # or the answering peer is behind *us*: a stale counter copy
                # — routing landed on a spuriously promoted or
                # not-yet-caught-up Master during a fault window.
                # Hot-retrying would burn the whole attempt budget in
                # milliseconds, so pause a stabilization-sized delay and let
                # routing re-converge on the real Master — and forget the
                # route the answer came by, or the retry rides the same
                # cached interval to the same wrong peer until its TTL.
                self.node.forget_route(self.ht(key))
                yield self.node.runtime.timeout(self.config.validation_retry_delay)
                continue

            # Catch up first: to just below where the chain landed, or to the
            # Master's last-ts when it did not.  What the Master handed over
            # is used if it is exactly the missing range, else the retrieval
            # procedure runs.
            landed_ts = 0
            if result.catch_up_ts > replica.applied_ts:
                entries = self._carried_suffix(key, replica.applied_ts, result)
                if entries is None:
                    entries = yield from self.log.fetch_range(
                        key, replica.applied_ts + 1, result.catch_up_ts
                    )
                landed_ts = self._integrate(key, replica, entries, chain)
                retrieved_total += len(entries)
            if result.accepted:
                landed = chain[:result.last_ts - result.first_ts + 1]
                for offset, patch in enumerate(landed):
                    landed_ts = result.first_ts + offset
                    # Skip timestamps something else (e.g. a racing
                    # retrieval that fetched our own published entries)
                    # already integrated — the content is identical.
                    if landed_ts > replica.applied_ts:
                        replica.apply_patch(patch, ts=landed_ts)
                del chain[:len(landed)]
                self._acknowledge(key, len(landed))
                replicas = result.replicas
            if chain:
                continue  # behind, or a grown chain whose head had landed
            outcome = CommitResult(
                document_key=key,
                ts=landed_ts,
                attempts=attempts,
                retrieved_patches=retrieved_total,
                started_at=started_at,
                finished_at=self.node.runtime.now,
                author=self.author,
                log_replicas=replicas,
                edits=edits,
            )
            self.commit_results.append(outcome)
            self.node.runtime.trace.annotate(
                self.node.runtime.now, "ltr-user",
                "{} committed {} edit(s) of {} up to ts {} after {} attempt(s)",
                self.author, edits, key, landed_ts, attempts,
            )
            return outcome

    def _carried_suffix(self, key: str, applied_ts: int,
                        result: ValidationResult) -> Optional[Sequence[LogEntry]]:
        """The entries an answer carried, if they can stand in for the log.

        The reply is outside input: it is used only when it is exactly the
        range this peer has to integrate next — ``applied_ts + 1 .. last_ts``
        of this document for a *behind* answer (a proposal's, or a reader's
        in :meth:`sync`), ``applied_ts + 1 .. first_ts - 1`` (the gap the
        Master transformed the chain over) for an *ok* — every item a
        :class:`~repro.p2plog.LogEntry` that passes the verifier a fetched
        entry passes.  Anything else returns ``None`` and the caller reads
        the range from the P2P-Log, which stays the source of truth.  This
        is the only check of carried entries.
        """
        entries = result.entries
        if (
            not isinstance(entries, (list, tuple))
            or len(entries) != result.catch_up_ts - applied_ts
        ):
            return None
        verifier = self.log.entry_verifier
        for offset, entry in enumerate(entries, start=1):
            if (
                not isinstance(entry, LogEntry)
                or entry.document_key != key
                or entry.ts != applied_ts + offset
            ):
                return None
            if verifier is not None and not verifier(entry):
                self.log.auth_rejects += 1
                return None
        return entries

    def _integrate(self, key: str, replica: Document,
                   entries: Sequence[LogEntry], chain: list[Patch]) -> int:
        """Integrate ``entries`` (continuous from ``applied_ts + 1``) under ``chain``.

        The replica advances over every entry and the tentative ``chain`` is
        rebased over them in place
        (:func:`~repro.ot.integrate_remote_into_staged`; with no chain — a
        reader — the entries are simply applied,
        :func:`~repro.ot.integrate_remote_patches`) — except over
        entries that *are* the chain: entries carrying this author and the
        identity of the chain's leading patches are a proposal of this peer
        that landed unacknowledged.  Those are adopted, not rebased over:
        what precedes them is integrated, they are applied as the log holds
        them, the patches they stand for leave the chain, and the rest of the
        range is integrated under the rest of the chain.  Rebasing over them
        instead would commit the edit a second time.

        Returns the timestamp of the last adopted entry (0 when there was
        none).
        """
        pairs = [(entry.ts, entry.patch) for entry in entries]
        if not chain:
            integrate_remote_patches(replica, pairs)
            return 0
        found = find_proposal(entries, self.author, self._proposal(key), len(chain))
        if found is None:
            chain[:] = integrate_remote_into_staged(replica, pairs, chain)
            return 0
        own, landed = found
        chain[:] = integrate_remote_into_staged(replica, pairs[:own], chain)
        for ts, patch in pairs[own:own + landed]:
            replica.apply_patch(patch, ts=ts)
        del chain[:landed]
        self._acknowledge(key, landed)
        chain[:] = integrate_remote_into_staged(replica, pairs[own + landed:], chain)
        self.node.runtime.trace.annotate(
            self.node.runtime.now, "ltr-user",
            "{} adopts its own {}@{}..{}: landed unacknowledged",
            self.author, key, entries[own].ts, entries[own + landed - 1].ts,
        )
        return entries[own + landed - 1].ts

    # ---------------------------------------------------------- proposal identity --

    def _proposal(self, key: str) -> int:
        """Identity of the first patch of ``key`` that is not acknowledged yet.

        The patches of a chain are numbered from it, in order; with the
        author's name the number identifies a patch for the life of the
        document.  One chain per document is in flight at a time, so the
        numbers of a document are dense and survive whatever happens to the
        chain in between: re-sends, rebases, a restore after a failed commit,
        further edits behind it.
        """
        return self._proposal_base + self._acknowledged.get(key, 0)

    def _acknowledge(self, key: str, count: int) -> None:
        """The first ``count`` tentative patches of ``key`` are settled."""
        self._acknowledged[key] = self._acknowledged.get(key, 0) + count
        if self._in_doubt.get(key, 0) > count:
            self._in_doubt[key] -= count
        else:
            self._in_doubt.pop(key, None)

    # ----------------------------------------------------------------------- sync --

    def sync(self, key: str):
        """Bring the local replica of ``key`` up to date (retrieval procedure).

        Simulation process returning a :class:`~repro.core.protocol.SyncResult`.
        The tentative chain, if any, is transformed so it still applies to
        the refreshed replica (:meth:`_integrate`).

        The Master is asked for ``last-ts`` (``ltr_catch_up``), and what the
        replica misses comes from the first of three sources that has it:

        1. the answer itself — the Master hands over ``(applied_ts,
           last-ts]`` whenever its tail of recent entries holds all of it, a
           *behind* answer checked like any other (:meth:`_carried_suffix`);
           then the sync is that one round-trip;
        2. a checkpoint plus the log: a replica more than
           ``config.checkpoint_interval`` timestamps behind bootstraps from
           the newest reachable checkpoint at or below ``last-ts``
           (installing the snapshot and rebasing the chain over the jump,
           :func:`~repro.ot.install_snapshot_into_staged`), then fetches
           only the remaining suffix — O(staleness past the last checkpoint)
           instead of O(document age);
        3. the P2P-Log alone, the paper's replay: for a replica at most one
           interval behind, without a probe, and whenever no checkpoint can
           be read (none yet, unreachable, no route).

        A document whose chain is out with the Master is left alone — at the
        start and after every wait, since a commit may begin while this
        process waits: the commit brings the replica up to date itself, and a
        retrieval that advanced the replica under it would make the accepted
        chain apply a second time, or un-rebased (the result then says
        ``details["deferred_to_flush"]``).  A commit that began *and ended*
        during a wait leaves nothing to stand back from; what it integrated
        already is skipped.
        """
        started_at = self.node.runtime.now
        replica = self.document(key)
        from_ts = replica.applied_ts
        checkpoint_ts = None

        def finished(retrieved: int = 0) -> SyncResult:
            result = SyncResult(
                document_key=key,
                from_ts=from_ts,
                to_ts=replica.applied_ts,
                retrieved_patches=retrieved,
                started_at=started_at,
                finished_at=self.node.runtime.now,
                already_current=replica.applied_ts == from_ts,
                checkpoint_ts=checkpoint_ts,
                details={"deferred_to_flush": True} if key in self._flushing else {},
            )
            self.sync_results.append(result)
            return result

        if key in self._flushing:
            return finished()
        payload = yield from self._call_master(
            key, "ltr_catch_up", after_ts=replica.applied_ts
        )
        answer = ValidationResult.from_payload(payload)
        last_ts = answer.last_ts
        if key in self._flushing or last_ts <= replica.applied_ts:
            return finished()
        entries = self._carried_suffix(key, replica.applied_ts, answer)
        if entries is None:
            if (
                last_ts - replica.applied_ts > self.config.checkpoint_interval
                # A snapshot cannot tell whether it contains a proposal of ours
                # that is still in doubt; the log can (see _integrate).
                and key not in self._in_doubt
            ):
                checkpoint = yield from self.log.latest_checkpoint(key, last_ts)
                if key in self._flushing:
                    return finished()
                if checkpoint is not None and checkpoint.ts > replica.applied_ts:
                    self._rebased(key, install_snapshot_into_staged(
                        replica, checkpoint.lines, checkpoint.ts, self._chain(key)
                    ))
                    checkpoint_ts = checkpoint.ts
            entries = yield from self.log.fetch_range(key, replica.applied_ts + 1, last_ts)
            if key in self._flushing:
                return finished()
            entries = [entry for entry in entries if entry.ts > replica.applied_ts]
        chain = self._chain(key)
        self._integrate(key, replica, entries, chain)
        self._rebased(key, chain)
        return finished(len(entries))

    def _chain(self, key: str) -> list[Patch]:
        """The patches of the tentative chain of ``key`` (none: an empty list)."""
        batch = self.batches.get(key)
        return list(batch.patches) if batch is not None else []

    def _rebased(self, key: str, chain: Sequence[Patch]) -> None:
        """The replica advanced under the chain of ``key``; ``chain`` is what
        it is now (nothing, once all of it turned out to have landed)."""
        if chain:
            self.batches[key].replace_patches(chain)
        else:
            self.batches.pop(key, None)

    def last_known_ts(self, key: str) -> int:
        """Timestamp of the last patch integrated into the local replica."""
        return self.document(key).applied_ts

    # -------------------------------------------------------------------- plumbing --

    def _call_master(self, key: str, method: str, **arguments: Any):
        """Route a request to the current Master-key peer of ``key``.

        Retries (with a delay) when the Master is unreachable, because after
        a crash the DHT needs a stabilization round before lookups resolve
        to the Master-key-Succ that took over.
        """
        attempt = 0
        while True:
            try:
                answer = yield from self.dht.call_owner(
                    key, method, key_id=self.ht(key), key=key, **arguments
                )
                return answer["result"]
            except _ROUTING_ERRORS as exc:
                attempt += 1
                if attempt > self.config.validation_retries:
                    raise MasterUnavailable(
                        f"Master-key peer for {key!r} unreachable after {attempt} attempts"
                    ) from exc
                yield self.node.runtime.timeout(self.config.validation_retry_delay)

    # ------------------------------------------------------------------ statistics --

    def statistics(self) -> dict[str, Any]:
        """Per-peer counters used by the experiment reports."""
        commits = self.commit_results
        return {
            "author": self.author,
            "commits": len(commits),
            "edits": sum(commit.edits for commit in commits),
            "conflict_commits": sum(1 for commit in commits if commit.had_conflicts),
            "mean_commit_latency": (
                sum(commit.latency for commit in commits) / len(commits) if commits else 0.0
            ),
            "mean_attempts": (
                sum(commit.attempts for commit in commits) / len(commits) if commits else 0.0
            ),
            "syncs": len(self.sync_results),
            "documents": sorted(self.documents),
        }
