"""Merging remote validated patches into a replica with local pending edits.

This is the reconciliation step the paper delegates to So6: when the
Master-key peer rejects a tentative patch because the user peer is behind,
the peer retrieves the missing patches from the P2P-Log *in continuous
timestamp order* and must integrate them locally while preserving its own
not-yet-validated changes.  :func:`integrate_remote_patches` applies each
remote patch to the replica and transforms the pending local patch against
it, producing the rebased tentative patch the peer then resubmits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..errors import DivergenceDetected, InvalidOperation
from .diff import make_patch
from .document import Document
from .patch import Patch
from .transform import transform_sequences


@dataclass(frozen=True)
class MergeResult:
    """Outcome of integrating remote patches into a replica."""

    document: Document
    rebased_local: Optional[Patch]
    integrated: int

    @property
    def new_base_ts(self) -> int:
        """Timestamp of the replica after integration."""
        return self.document.applied_ts


def integrate_remote_patches(
    document: Document,
    remote_patches: Sequence[tuple[int, Patch]],
    local_pending: Optional[Patch] = None,
) -> MergeResult:
    """Apply validated remote patches and rebase the local pending patch.

    Parameters
    ----------
    document:
        The local replica; it is modified in place (its ``applied_ts``
        advances) and also returned inside the result for convenience.
    remote_patches:
        ``(ts, patch)`` pairs in strictly increasing, continuous timestamp
        order starting at ``document.applied_ts + 1``.
    local_pending:
        The user's tentative patch, expressed against the replica's current
        *validated* state (``document.applied_ts``), or ``None`` if there are
        no local changes.  The replica itself must only contain validated
        content — tentative edits live in the pending patch, never in
        ``document.lines`` (that is the contract the P2P-LTR user peer
        follows).

    Returns
    -------
    MergeResult
        The updated document, the transformed local patch (``None`` if none
        was supplied) and the number of remote patches integrated.
    """
    pending_ops = list(local_pending.operations) if local_pending is not None else []
    integrated = 0
    for ts, remote in remote_patches:
        expected = document.applied_ts + 1
        if ts != expected:
            raise DivergenceDetected(
                f"patch stream for {document.key!r} is not continuous: "
                f"expected ts {expected}, got {ts}"
            )
        if pending_ops:
            # The remote patch was validated without knowledge of our pending
            # operations; rebase the pending operations so they still express
            # the user's intent against the new validated state.
            pending_ops, _ = transform_sequences(pending_ops, list(remote.operations))
        document.apply_patch(remote, ts=ts)
        integrated += 1

    rebased_local = None
    if local_pending is not None:
        rebased_local = local_pending.with_operations(pending_ops).with_base(
            document.applied_ts
        )
    return MergeResult(document=document, rebased_local=rebased_local, integrated=integrated)


def rebase_chain(
    staged: Sequence[Patch],
    remote_patches: Sequence[Patch],
    base_ts: int,
) -> list[Patch]:
    """Transform a chain of staged patches over concurrent remote patches.

    The OT chaining itself, with no document involved: ``staged`` is a chain
    ``p1 .. pk`` (each ``p(i+1)`` expressed against the state produced by
    ``p(i)``) and ``remote_patches`` the validated patches it must follow, in
    timestamp order, the first of them concurrent with ``p1``.  Each remote
    patch is transformed forward through the chain as each staged patch is
    transformed against it, so the result still applies cleanly, in order, on
    top of the state the last remote patch produces — ``base_ts``.

    A pure function of operations: whoever holds the chain and the patches it
    missed computes the same result.  The user peer calls it through
    :func:`integrate_remote_into_staged` when it integrates what it was
    behind by; the Master-key peer calls it on a stale proposal whose gap it
    still holds — which is why the entry the Master logs is, byte for byte,
    the patch the proposer applies.
    """
    staged_ops = [list(patch.operations) for patch in staged]
    for remote in remote_patches:
        remote_ops = list(remote.operations)
        for index, ops in enumerate(staged_ops):
            staged_ops[index], remote_ops = transform_sequences(ops, remote_ops)
    return [
        patch.with_operations(ops).with_base(base_ts)
        for patch, ops in zip(staged, staged_ops)
    ]


def integrate_remote_into_staged(
    document: Document,
    remote_patches: Sequence[tuple[int, Patch]],
    staged: Sequence[Patch],
) -> list[Patch]:
    """Apply remote patches and rebase a *sequence* of staged patches.

    A commit proposes a chain of individual patches ``p1 .. pk``
    (``k = 1`` for ``UserPeer.commit``, a staged batch for
    ``UserPeer.flush``) where each ``p(i+1)`` is expressed against the state
    produced by ``p(i)``.  When the proposer turns out to be behind, the
    whole sequence must be transformed against the missing remote patches
    while preserving that chaining (:func:`rebase_chain`, the standard OT
    chaining), so the rebased sequence still applies cleanly in order on top
    of the refreshed replica.

    ``document`` advances exactly like in :func:`integrate_remote_patches`
    (a stream that is not continuous is refused before anything moves); the
    returned list replaces the staged patches.
    """
    expected = document.applied_ts
    for ts, _remote in remote_patches:
        expected += 1
        if ts != expected:
            raise DivergenceDetected(
                f"patch stream for {document.key!r} is not continuous: "
                f"expected ts {expected}, got {ts}"
            )
    rebased = rebase_chain(staged, [remote for _ts, remote in remote_patches], expected)
    for ts, remote in remote_patches:
        document.apply_patch(remote, ts=ts)
    return rebased


def install_snapshot_into_staged(
    document: Document,
    lines: Sequence[str],
    ts: int,
    staged: Sequence[Patch],
) -> list[Patch]:
    """Replace the replica's validated state with a snapshot, rebasing ``staged``.

    Snapshot counterpart of :func:`integrate_remote_into_staged`.  The
    checkpointed retrieval fast path cannot transform local edits against
    the individual missing patches (it deliberately never fetched them);
    instead the whole jump from the replica's current validated state to the
    snapshot is expressed as *one* synthetic remote patch (the line diff
    between the two states) and the staged chain ``p1 .. pk`` — possibly
    empty: a reader — is transformed against it with the same
    forward-chaining as the patch-wise variant, so the rebased sequence
    still applies cleanly in order on top of the installed snapshot.  The
    replica's content becomes exactly ``lines`` and its ``applied_ts``
    becomes ``ts``; the suffix of real log entries after ``ts`` is then
    integrated patch by patch as usual.
    """
    if ts <= document.applied_ts:
        raise InvalidOperation(
            f"snapshot of {document.key!r} at ts {ts} is not ahead of the "
            f"replica (applied_ts {document.applied_ts})"
        )
    jump = make_patch(
        document.lines, list(lines), base_ts=document.applied_ts, author="checkpoint",
        comment=f"snapshot jump to ts {ts}",
    )
    rebased = rebase_chain(staged, [jump], ts)
    document.apply_patch(jump)
    document.applied_ts = ts
    return rebased


def converge_check(replicas: Sequence[Document]) -> None:
    """Raise :class:`~repro.errors.DivergenceDetected` unless all replicas match.

    Only replicas that have integrated the same number of patches are
    compared (a replica that is still behind is not divergent, just late).
    """
    by_ts: dict[int, set[tuple[str, ...]]] = {}
    for replica in replicas:
        by_ts.setdefault(replica.applied_ts, set()).add(tuple(replica.lines))
    for ts, contents in by_ts.items():
        if len(contents) > 1:
            raise DivergenceDetected(
                f"replicas at ts {ts} have {len(contents)} distinct contents"
            )
