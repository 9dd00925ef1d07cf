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

    # --------------------------------------------------------------------- commit --

    def commit(self, key: str):
        """Validate and publish the pending patch of ``key`` (procedures 2 + 3).

        Simulation process returning a
        :class:`~repro.core.protocol.CommitResult`, or ``None`` when there
        was nothing to commit.  The paper's per-edit commit: the pending
        patch goes through :meth:`_commit_chain` as a chain of one.  When
        the commit fails, the (possibly rebased) tentative patch is restored
        so the user's edit is never lost.
        """
        started_at = self.node.runtime.now
        pending = self.pending.pop(key, None)
        if pending is None:
            return None
        chain = [pending]
        try:
            outcome = yield from self._commit_chain(key, chain, started_at)
            return outcome
        except ReproError:
            self.pending[key] = chain[0]
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
            # attempts — nothing was committed: the (possibly rebased)
            # edits go back into the batch for a later flush.
            batch.replace_patches(chain)
            self.batches[key] = batch
            raise
        finally:
            self._flushing.discard(key)

    def _commit_chain(self, key: str, chain: list[Patch], started_at: float):
        """The validate → retrieve → retry loop (process).

        The loop matches the paper: propose ``ts = applied_ts + 1`` for the
        chain's first patch; if the Master-key peer answers *behind*, take
        the missing patches in continuous order — from the answer itself
        when the Master carried them (:meth:`_carried_suffix`), from the
        P2P-Log otherwise — integrate them (rebasing every patch of the
        chain, preserving the chain) and retry until the proposal is
        accepted; on *rejected* (the Master lost the key to a re-election
        mid-flight) the proposal is simply retried, which re-routes it to
        the new Master.

        ``chain`` is rebased *in place*, so the caller still holds the
        current chain and can put it back when any round raises.
        """
        replica = self.document(key)
        attempts = 0
        retrieved_total = 0
        while True:
            attempts += 1
            if attempts > self.config.max_validation_attempts:
                raise ValidationFailed(
                    f"{self.author} could not validate {len(chain)} edit(s) "
                    f"for {key!r} after {attempts - 1} attempts"
                )
            proposal_ts = replica.applied_ts + 1
            arguments: dict[str, Any] = dict(
                ts=proposal_ts,
                patches=chain,
                author=self.author,
                base_ts=replica.applied_ts,
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
                    )
                    for offset, patch in enumerate(chain)
                ]
            payload = yield from self._call_master(
                key, "ltr_validate_and_publish", **arguments
            )
            result = ValidationResult.from_payload(payload)

            if result.accepted:
                for offset, patch in enumerate(chain):
                    entry_ts = result.first_ts + offset
                    # Skip timestamps something else (e.g. a racing
                    # retrieval that fetched our own published entries)
                    # already integrated — the content is identical.
                    if entry_ts > replica.applied_ts:
                        replica.apply_patch(patch, ts=entry_ts)
                outcome = CommitResult(
                    document_key=key,
                    ts=result.last_ts,
                    attempts=attempts,
                    retrieved_patches=retrieved_total,
                    started_at=started_at,
                    finished_at=self.node.runtime.now,
                    author=self.author,
                    log_replicas=result.replicas,
                    edits=len(chain),
                )
                self.commit_results.append(outcome)
                self.node.runtime.trace.annotate(
                    self.node.runtime.now, "ltr-user",
                    "{} committed {}@{}..{} after {} attempt(s)",
                    self.author, key, result.first_ts, result.last_ts, attempts,
                )
                return outcome

            if result.rejected or result.last_ts <= replica.applied_ts:
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

            # We are behind: integrate what the Master handed over if it is
            # exactly the missing suffix, else run the retrieval procedure;
            # rebase, try again.
            entries = self._carried_suffix(key, replica.applied_ts, result)
            if entries is None:
                entries = yield from self.log.fetch_range(
                    key, replica.applied_ts + 1, result.last_ts
                )
            chain[:] = integrate_remote_into_staged(
                replica, [(entry.ts, entry.patch) for entry in entries], chain
            )
            retrieved_total += len(entries)

    def _carried_suffix(self, key: str, applied_ts: int,
                        result: ValidationResult) -> Optional[Sequence[LogEntry]]:
        """The entries a *behind* answer carried, if they can stand in for the log.

        The reply is outside input: it is used only when it is exactly
        ``applied_ts + 1 .. last_ts`` of this document, every item a
        :class:`~repro.p2plog.LogEntry` that passes the verifier a fetched
        entry passes.  Anything else returns ``None`` and the caller reads
        the range from the P2P-Log, which stays the source of truth.
        """
        entries = result.entries
        if (
            not isinstance(entries, (list, tuple))
            or len(entries) != result.last_ts - applied_ts
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
        ):
            checkpoint = yield from self.log.latest_checkpoint(key, last_ts)
            if checkpoint is not None and checkpoint.ts > replica.applied_ts:
                self._install_checkpoint(key, replica, checkpoint)
                checkpoint_ts = checkpoint.ts
        entries = yield from self.log.fetch_range(key, replica.applied_ts + 1, last_ts)
        pairs = [(entry.ts, entry.patch) for entry in entries]
        pending = self.pending.get(key)
        batch = self.batches.get(key)
        if batch is not None and len(batch) > 0:
            # A staged batch: rebase the whole chain instead.  A
            # coexisting pending patch can only be empty (stage() refuses
            # otherwise), so dropping it loses nothing.
            self.pending.pop(key, None)
            batch.replace_patches(
                integrate_remote_into_staged(replica, pairs, batch.patches)
            )
        else:
            merge = integrate_remote_patches(replica, pairs, pending)
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
