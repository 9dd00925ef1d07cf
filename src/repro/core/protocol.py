"""Result types exchanged by the P2P-LTR procedures."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence


#: Validation statuses returned by the Master-key peer.
STATUS_OK = "ok"
STATUS_BEHIND = "behind"
#: The Master lost responsibility for the key while the request was in
#: flight (re-election); nothing was committed — the proposal must be
#: re-issued, which re-routes it to the new Master.
STATUS_REJECTED = "rejected"


@dataclass(frozen=True)
class ValidationResult:
    """Answer of the Master-key peer to a validation request.

    A proposal is a chain of ``n >= 1`` patches (the paper's single patch is
    the chain of length one).  On success the Master assigned the dense
    timestamp range ``first_ts .. last_ts`` to the chain's patches (in
    order) and published all of them; ``behind`` and ``rejected`` carry the
    Master's current ``last_ts`` so the user peer can retrieve / re-propose.

    ``first_ts`` need not be the timestamp that was proposed.  A stale
    proposal whose gap ``(proposed ts - 1, first_ts - 1]`` the Master still
    held was transformed over it and committed behind it; the answer is
    ``ok`` and ``entries`` carries that gap, which the proposer integrates
    (transforming its chain by the same function) before it applies the
    chain at ``first_ts ..``.  The gap may end in entries no older than the
    chain itself: those of the rounds that were still at the Log-Peers when it
    was placed (overlapping rounds) — to the proposer a gap like any other,
    and each answer carries its own.  A proposal that had already landed — a re-sent
    one — is answered with the same shape and the timestamps it landed at;
    ``last_ts`` then ends what landed, which is less than what was proposed
    when the chain has grown since.  A ``behind`` answer carries in
    ``entries`` the whole of what the proposer is missing, ``(proposed ts -
    1, last_ts]``, whenever the Master holds all of it.  The answer to a
    reader (``ltr_catch_up``, :meth:`UserPeer.sync
    <repro.core.user_peer.UserPeer.sync>`) reuses the *behind* shape: the
    Master's ``last_ts`` and, when it holds all of it, ``(applied_ts,
    last_ts]`` — or, to a reader that will install a checkpoint, the rest
    after the newest checkpoint boundary.  On the receiving side ``entries`` is outside input every
    way, checked by the user peer (``UserPeer._carried_suffix``) before
    anything is integrated; without it the range is read from the
    checkpoints and the P2P-Log.
    """

    status: str
    first_ts: Optional[int] = None
    last_ts: Optional[int] = None
    #: Placements the publish reached (0 on an *ok* that repeats an earlier
    #: one: the Master does not keep what it reported then).
    replicas: int = 0
    entries: Any = None

    @property
    def accepted(self) -> bool:
        """``True`` when the whole chain was validated and published."""
        return self.status == STATUS_OK

    @property
    def rejected(self) -> bool:
        """``True`` when the Master refused atomically (re-election mid-flight)."""
        return self.status == STATUS_REJECTED

    @property
    def catch_up_ts(self) -> int:
        """What the proposer has to have integrated before it acts on this answer.

        Just below where its chain landed for an *ok*, the Master's ``last_ts``
        otherwise — and so the end of the range ``entries`` stands for.
        """
        return self.first_ts - 1 if self.accepted else self.last_ts

    @classmethod
    def ok(cls, first_ts: int, last_ts: int, replicas: int,
           entries: Optional[Sequence[Any]] = None) -> "ValidationResult":
        """The chain was committed with timestamps ``first_ts..last_ts``.

        ``entries`` is the gap the chain was transformed over, when there
        was one: what lies between the proposer's replica and ``first_ts``.
        """
        return cls(status=STATUS_OK, first_ts=first_ts, last_ts=last_ts,
                   replicas=replicas, entries=entries)

    @classmethod
    def behind(cls, last_ts: int,
               entries: Optional[Sequence[Any]] = None) -> "ValidationResult":
        """The proposer is behind; it must integrate patches up to ``last_ts``.

        ``entries`` is the missing suffix when the Master can supply it;
        without it the proposer retrieves the range from the P2P-Log.
        """
        return cls(status=STATUS_BEHIND, last_ts=last_ts, entries=entries)

    @classmethod
    def reelection(cls, last_ts: int) -> "ValidationResult":
        """The Master lost the key mid-publication; nothing was committed."""
        return cls(status=STATUS_REJECTED, last_ts=last_ts)

    def to_payload(self) -> dict:
        """Serialise for transmission over the (simulated) network."""
        payload = {
            "status": self.status,
            "first_ts": self.first_ts,
            "last_ts": self.last_ts,
            "replicas": self.replicas,
        }
        if self.entries:
            payload["entries"] = self.entries
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "ValidationResult":
        """Rebuild from a network payload."""
        return cls(
            status=payload["status"],
            first_ts=payload.get("first_ts"),
            last_ts=payload.get("last_ts"),
            replicas=payload.get("replicas", 0),
            entries=payload.get("entries"),
        )


@dataclass(frozen=True)
class CommitResult:
    """Outcome of committing one chain of edits (procedures 2 and 3 of the paper).

    ``UserPeer.commit`` commits a chain of one (``edits == 1``, the paper's
    shape); ``UserPeer.flush`` commits a staged batch, whose patches received
    the dense range ``first_ts .. ts``.
    """

    document_key: str
    #: Timestamp validated for the chain's last (or only) patch.
    ts: int
    #: Proposals sent; one even when the chain was stale, unless the Master
    #: had to send it back (``ValidationResult``).
    attempts: int
    #: Patches of others integrated on the way, whoever supplied them.
    retrieved_patches: int
    started_at: float
    finished_at: float
    author: str = "unknown"
    #: Placements the Master reported for the publish; 0 when nobody reported
    #: any — the chain had landed earlier and was recognised, not published.
    log_replicas: int = 0
    edits: int = 1

    @property
    def first_ts(self) -> int:
        """Timestamp validated for the chain's first patch.

        A chain lands as one dense range.  (The one exception: a chain that
        grew after a failed attempt that had landed all the same — its old
        part is where it landed then, ``ts`` is where the rest landed now.)
        """
        return self.ts - self.edits + 1

    @property
    def latency(self) -> float:
        """Wall-clock (simulated) duration of the whole commit."""
        return self.finished_at - self.started_at

    @property
    def had_conflicts(self) -> bool:
        """``True`` when concurrent updates forced at least one retrieval round."""
        return self.retrieved_patches > 0


@dataclass
class SyncResult:
    """Outcome of a read-only synchronisation (retrieval procedure alone)."""

    document_key: str
    from_ts: int
    to_ts: int
    retrieved_patches: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0
    already_current: bool = False
    #: Timestamp of the checkpoint the fast path bootstrapped from, or
    #: ``None`` when the sync replayed patches only (at most
    #: ``checkpoint_interval`` behind, no checkpoint taken yet, or none
    #: readable).
    checkpoint_ts: Optional[int] = None
    details: dict = field(default_factory=dict)

    @property
    def used_checkpoint(self) -> bool:
        """``True`` when the sync bootstrapped from a document snapshot."""
        return self.checkpoint_ts is not None

    @property
    def latency(self) -> float:
        """Wall-clock (simulated) duration of the synchronisation."""
        return self.finished_at - self.started_at
