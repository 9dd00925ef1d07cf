"""The user peer: local editing, timestamp validation and reconciliation.

A :class:`UserPeer` is the application side of a P2P-LTR peer (the paper's
*User Peer* running e.g. the XWiki application).  It keeps local primary
copies of documents, captures tentative patches on save, and runs the three
P2P-LTR procedures:

1. *Edit a page locally* — :meth:`UserPeer.edit` (produces a tentative
   patch against the last validated state).
2. *Validate the tentative patch timestamp value and retrieve patches if
   necessary* — the one loop behind :meth:`UserPeer.commit` (a chain of one
   patch) and :meth:`UserPeer.flush` (a staged chain of several).
3. *Replicate the new patch at the P2P-Log* — performed by the Master-key
   peer during validation; the user peer only applies the patch locally once
   the Master has acknowledged the validated timestamp.
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
    install_snapshot,
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
        self.pending: dict[str, Patch] = {}
        self.batches: dict[str, CommitBatch] = {}
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
        # ... and the operation counts of the leading tentative patches that
        # were proposed without an answer — a failed commit put them back,
        # they may have landed all the same.  They keep their identities, so
        # they keep their boundaries: a pending patch that grew since is
        # proposed as the chain it was plus what is new.
        self._in_doubt: dict[str, list[int]] = {}
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

    def has_pending(self, key: str) -> bool:
        """``True`` when there are local edits not yet validated."""
        patch = self.pending.get(key)
        return patch is not None and len(patch) > 0

    def working_lines(self, key: str) -> list[str]:
        """The document as the user sees it: validated state plus pending edits."""
        replica = self.document(key)
        patch = self.pending.get(key)
        if patch is None:
            return list(replica.lines)
        return patch.apply(replica.lines)

    def working_text(self, key: str) -> str:
        """:meth:`working_lines` joined with newlines."""
        return "\n".join(self.working_lines(key))

    # ------------------------------------------------------------------- editing --

    def edit(self, key: str, new_text: str, *, comment: str = "") -> Patch:
        """Replace the working copy of ``key`` with ``new_text`` (procedure 1).

        The difference between the current working copy and ``new_text`` is
        captured as a tentative patch; successive edits before a commit are
        composed into a single pending patch, mirroring "updates are wrapped
        together in the form of a patch after each document save operation".
        """
        new_lines = new_text.split("\n") if new_text else []
        return self.edit_lines(key, lambda _current: new_lines, comment=comment)

    def edit_lines(
        self,
        key: str,
        mutate: Callable[[list[str]], Sequence[str]],
        *,
        comment: str = "",
    ) -> Patch:
        """Apply ``mutate`` to the working copy and record the tentative patch."""
        batch = self.batches.get(key)
        if (batch is not None and len(batch) > 0) or key in self._flushing:
            raise ConfigurationError(
                f"{key!r} has a staged or in-flight commit batch; flush or "
                f"discard it before using edit()"
            )
        replica = self.document(key)
        before = self.working_lines(key)
        after = list(mutate(list(before)))
        increment = make_patch(before, after, base_ts=replica.applied_ts,
                               author=self.author, comment=comment)
        existing = self.pending.get(key)
        if existing is None:
            self.pending[key] = increment
        else:
            self.pending[key] = existing.compose(increment)
        return self.pending[key]

    def discard_pending(self, key: str) -> None:
        """Drop local tentative edits of ``key`` without publishing them."""
        self.pending.pop(key, None)
        self._retire_proposals(key)

    # ------------------------------------------------------------ staged editing --

    def batch(self, key: str) -> Optional[CommitBatch]:
        """The open commit batch for ``key``, if any."""
        return self.batches.get(key)

    def staged_lines(self, key: str) -> list[str]:
        """The document as the staging user sees it: validated state plus batch."""
        replica = self.document(key)
        batch = self.batches.get(key)
        if batch is None:
            return list(replica.lines)
        return batch.tip_lines(replica.lines)

    def stage(self, key: str, new_text: str, *, comment: str = "") -> CommitBatch:
        """Stage one edit of ``key`` into the open commit batch.

        Unlike :meth:`edit`, consecutive staged edits are *not* composed:
        each keeps its own patch (and will receive its own timestamp and log
        entry), chained against its predecessor's output.  The batch must be
        flushed with :meth:`flush` once it is full or due.  A document is
        edited through one front at a time: :meth:`edit` and ``stage``
        refuse to mix on the same key.
        """
        if self.has_pending(key):
            raise ConfigurationError(
                f"{key!r} has a pending edit(); commit or discard it "
                f"before staging into a batch"
            )
        if key in self._flushing:
            raise ConfigurationError(
                f"a flush of {key!r} is in flight; stage again once it "
                f"completes (edits staged now could be lost or mis-based)"
            )
        now = self.node.runtime.now
        replica = self.document(key)
        batch = self.batches.get(key)
        before = (batch.tip_lines(replica.lines) if batch is not None
                  else list(replica.lines))
        after = new_text.split("\n") if new_text else []
        patch = make_patch(before, after, base_ts=replica.applied_ts,
                           author=self.author, comment=comment)
        if len(patch) == 0:
            # A no-op edit deserves no timestamp or log entry — and must not
            # open (or age) a batch, or the deadline clock would start
            # before the first real edit.
            if batch is None:
                batch = CommitBatch(
                    key=key, opened_at=now,
                    max_edits=self.config.batch_max_edits,
                    deadline=self.config.batch_deadline,
                )  # returned for inspection, deliberately not registered
            return batch
        if batch is None:
            batch = CommitBatch(
                key=key, opened_at=now,
                max_edits=self.config.batch_max_edits,
                deadline=self.config.batch_deadline,
            )
            self.batches[key] = batch
        elif len(batch) == 0:
            batch.opened_at = now  # the deadline runs from the first real edit
        batch.add(patch, tip=after)
        return batch

    def discard_batch(self, key: str) -> None:
        """Drop the staged batch of ``key`` without publishing it."""
        self.batches.pop(key, None)
        self._retire_proposals(key)

    # --------------------------------------------------------------------- commit --

    def commit(self, key: str):
        """Validate and publish the pending patch of ``key`` (procedures 2 + 3).

        Simulation process returning a
        :class:`~repro.core.protocol.CommitResult`, or ``None`` when there
        was nothing to commit.  The paper's per-edit commit: the pending
        patch goes through :meth:`_commit_chain` as a chain of one.  When
        the commit fails, the (possibly rebased) tentative patch is restored
        so the user's edit is never lost — and remembered as proposed: it may
        have landed all the same, so the next commit proposes it under the
        identity it had, ahead of whatever was edited since
        (:meth:`_pending_chain`).
        """
        started_at = self.node.runtime.now
        pending = self.pending.pop(key, None)
        if pending is None:
            return None
        chain = self._pending_chain(key, pending)
        try:
            outcome = yield from self._commit_chain(key, chain, started_at)
            return outcome
        except ReproError:
            self._restore_pending(key, chain)
            self._mark_in_doubt(key, chain)
            if not self.has_pending(key):
                # Nothing to keep — and an empty patch left in doubt would
                # not stop stage() from opening a batch under its identity.
                self.discard_pending(key)
            raise

    def flush(self, key: str):
        """Commit the staged batch of ``key`` in one pipelined round (process).

        The whole batch is proposed to the Master-key peer as one chain
        (:meth:`_commit_chain`).  Returns a
        :class:`~repro.core.protocol.CommitResult`, or ``None`` when the
        batch was empty or absent.
        """
        started_at = self.node.runtime.now
        batch = self.batches.pop(key, None)
        if batch is None or len(batch) == 0:
            return None
        chain = list(batch.patches)
        self._flushing.add(key)  # stage() refuses this key until we finish
        try:
            outcome = yield from self._commit_chain(key, chain, started_at)
            return outcome
        except ReproError:
            # Whatever went wrong — unreachable Master, failed publish at
            # the Log-Peers, a failed behind-path retrieval, too many
            # attempts — nothing is known to be committed: the (possibly
            # rebased) edits go back into the batch for a later flush, which
            # proposes them under the identities they had.
            batch.replace_patches(chain)
            self.batches[key] = batch
            self._mark_in_doubt(key, chain)
            raise
        finally:
            self._flushing.discard(key)

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
            if attempts > self.config.max_validation_attempts:
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
        of this document for a *behind* answer, ``applied_ts + 1 .. first_ts
        - 1`` (the gap the Master transformed the chain over) for an *ok* —
        every item a :class:`~repro.p2plog.LogEntry` that passes the verifier
        a fetched entry passes.  Anything else returns ``None`` and the
        caller reads the range from the P2P-Log, which stays the source of
        truth.  This is the only check of carried entries.
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
        (:func:`~repro.ot.integrate_remote_into_staged`) — except over
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
        found = find_proposal(
            entries, self.author, self._proposal(key), len(chain)
        ) if chain else None
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
        in_doubt = self._in_doubt.get(key)
        if in_doubt is not None:
            del in_doubt[:count]
            if not in_doubt:
                del self._in_doubt[key]

    def _mark_in_doubt(self, key: str, chain: Sequence[Patch]) -> None:
        """``chain`` was proposed and is going back unacknowledged."""
        if chain:
            self._in_doubt[key] = [len(patch) for patch in chain]

    def _retire_proposals(self, key: str) -> None:
        """Dropped edits take their identities with them.

        What was proposed under them may have landed; nothing else may ever
        be proposed under the same identities.
        """
        self._acknowledge(key, len(self._in_doubt.get(key, ())))

    def _pending_chain(self, key: str, pending: Patch) -> list[Patch]:
        """The pending patch of ``key`` as the chain it is proposed as.

        A chain of one — unless part of it was proposed before without an
        answer (a failed commit put it back, further saves were composed onto
        it): that part keeps the identities, hence the boundaries, it was
        proposed with, and what is new follows as one more patch.  Rebasing
        preserves the number of operations, so the boundaries are operation
        counts.
        """
        in_doubt = self._in_doubt.get(key)
        if not in_doubt:
            return [pending]
        operations = pending.operations
        chain, start = [], 0
        for count in in_doubt:
            chain.append(pending.with_operations(operations[start:start + count]))
            start += count
        if start < len(operations):
            chain.append(pending.with_operations(operations[start:]))
        return chain

    def _restore_pending(self, key: str, chain: Sequence[Patch]) -> None:
        """Put what is left of a pending chain back as one pending patch."""
        if chain:
            pending = chain[0]
            for later in chain[1:]:
                pending = pending.compose(later)
            self.pending[key] = pending

    # ----------------------------------------------------------------------- sync --

    def sync(self, key: str):
        """Bring the local replica of ``key`` up to date (retrieval procedure).

        Simulation process returning a :class:`~repro.core.protocol.SyncResult`.
        Pending local edits, if any, are transformed so they still apply to
        the refreshed replica.

        With ``config.checkpoint_enabled``, a replica more than
        ``checkpoint_interval`` timestamps behind first bootstraps from the
        newest reachable checkpoint at or below the Master's ``last-ts``
        (installing the snapshot and rebasing pending / staged-batch edits
        over the jump), then fetches only the remaining suffix — so a cold
        catch-up costs O(staleness past the last checkpoint) instead of
        O(document age).  When every checkpoint replica is unreachable the
        sync silently falls back to the paper's full log replay.
        """
        started_at = self.node.runtime.now
        replica = self.document(key)
        if key in self._flushing:
            # A flush of this key is in flight: it will bring the replica up
            # to date itself, and a concurrent retrieval advancing the
            # replica under it would make its accepted batch double-apply.
            result = SyncResult(
                document_key=key,
                from_ts=replica.applied_ts,
                to_ts=replica.applied_ts,
                already_current=True,
                started_at=started_at,
                finished_at=self.node.runtime.now,
                details={"deferred_to_flush": True},
            )
            self.sync_results.append(result)
            return result
        last_ts = yield from self._call_master(key, "ltr_last_ts")
        if last_ts <= replica.applied_ts:
            result = SyncResult(
                document_key=key,
                from_ts=replica.applied_ts,
                to_ts=replica.applied_ts,
                already_current=True,
                started_at=started_at,
                finished_at=self.node.runtime.now,
            )
            self.sync_results.append(result)
            return result

        from_ts = replica.applied_ts
        checkpoint_ts = None
        if (
            self.config.checkpoint_enabled
            and last_ts - replica.applied_ts > self.config.checkpoint_interval
            # A snapshot cannot tell whether it contains a proposal of ours
            # that is still in doubt; the log can (see _integrate).
            and key not in self._in_doubt
        ):
            checkpoint = yield from self.log.latest_checkpoint(key, last_ts)
            if checkpoint is not None and checkpoint.ts > replica.applied_ts:
                self._install_checkpoint(key, replica, checkpoint)
                checkpoint_ts = checkpoint.ts
        entries = yield from self.log.fetch_range(key, replica.applied_ts + 1, last_ts)
        batch = self.batches.get(key)
        if batch is not None and len(batch) > 0:
            # A staged batch: rebase the whole chain instead.  A
            # coexisting pending patch can only be empty (stage() refuses
            # otherwise), so dropping it loses nothing.
            self.pending.pop(key, None)
            chain = list(batch.patches)
            self._integrate(key, replica, entries, chain)
            batch.replace_patches(chain)
        elif key in self._in_doubt and key in self.pending:
            # Part of the pending patch was proposed and may be among what
            # was just fetched: integrate it as the chain it was proposed as.
            chain = self._pending_chain(key, self.pending.pop(key))
            self._integrate(key, replica, entries, chain)
            self._restore_pending(key, chain)
        else:
            pending = self.pending.get(key)
            merge = integrate_remote_patches(
                replica, [(entry.ts, entry.patch) for entry in entries], pending
            )
            if pending is not None and merge.rebased_local is not None:
                self.pending[key] = merge.rebased_local
        result = SyncResult(
            document_key=key,
            from_ts=from_ts,
            to_ts=replica.applied_ts,
            retrieved_patches=len(entries),
            started_at=started_at,
            finished_at=self.node.runtime.now,
            checkpoint_ts=checkpoint_ts,
        )
        self.sync_results.append(result)
        return result

    def _install_checkpoint(self, key: str, replica: Document, checkpoint) -> None:
        """Install a snapshot as the replica's validated state (fast path).

        Local tentative edits survive the jump: a pending patch is
        transformed against the synthetic snapshot diff
        (:func:`~repro.ot.install_snapshot`), a staged batch chain through
        its chained counterpart — mirroring how the full-replay path
        rebases them patch by patch.
        """
        batch = self.batches.get(key)
        if batch is not None and len(batch) > 0:
            self.pending.pop(key, None)  # can only be empty; see sync()
            batch.replace_patches(
                install_snapshot_into_staged(
                    replica, checkpoint.lines, checkpoint.ts, batch.patches
                )
            )
            return
        pending = self.pending.get(key)
        rebased = install_snapshot(replica, checkpoint.lines, checkpoint.ts, pending)
        if pending is not None and rebased is not None:
            self.pending[key] = rebased

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
