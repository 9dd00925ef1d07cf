"""Document checkpoints: materialized snapshots stored in the P2P-Log's DHT.

The paper's retrieval procedure (Procedure 3) replays the timestamped patch
log from the reader's ``applied_ts`` onward, so a freshly joined or
long-offline peer pays O(document age) routed fetches.  A
:class:`Checkpoint` is a full snapshot of a document at one *boundary*, a
validated timestamp that is a multiple of ``checkpoint_interval``,
materialized by the Master-key peer and replicated at ``|Hr|`` distinct
peers through a *salted checkpoint hash family* (``Hc``, salts
``hc1 .. hcN``) — exactly mirroring the Log-Peer placement of patches, so
checkpoint placements enjoy the same hand-off-on-churn and
successor-replication guarantees as log entries.

A checkpoint's address is computed, as a log entry's is: the snapshot at
boundary ``b`` is stored at ``hc_i(key!ckpt#b)``.  A document keeps the
:data:`CHECKPOINT_RETENTION` newest boundaries at or below its ``last-ts``
(:func:`retained_boundaries`); a reader probes exactly those, newest first,
and falls back to full log replay when none answers.  Nothing lists them:
every process knows the interval, as it knows ``|Hr|``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

#: Salt prefix of the checkpoint hash family (``Hc``), kept distinct from
#: the patch replication family's ``hr`` salts so checkpoint and log
#: placements of the same document are independent.
CHECKPOINT_SALT_PREFIX = "hc"

#: How many checkpoints a document keeps: the newest boundaries at or below
#: its ``last-ts``.  The Master removes a boundary once it leaves this
#: window, and a reader probes no further back.
CHECKPOINT_RETENTION = 2


@dataclass(frozen=True)
class Checkpoint:
    """A full snapshot of one document at one validated timestamp.

    Attributes
    ----------
    document_key:
        The document this snapshot belongs to.
    ts:
        The validated timestamp the snapshot materializes: applying patches
        ``1 .. ts`` of the log in order yields exactly ``lines``.
    lines:
        The document content at ``ts``, line by line.
    created_at:
        Simulated time at which the Master-key peer materialized it.
    author:
        Name of the Master-key peer that produced the snapshot.
    sig:
        The Master's signature over the snapshot (:mod:`repro.p2plog.auth`),
        ``None`` when checkpoints are unsigned; not part of equality.
    """

    document_key: str
    ts: int
    lines: tuple[str, ...] = ()
    created_at: float = 0.0
    author: str = "master"
    sig: Optional[str] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.ts < 1:
            raise ValueError(f"checkpoint timestamps start at 1, got {self.ts}")
        object.__setattr__(self, "lines", tuple(self.lines))

    @property
    def checkpoint_key(self) -> str:
        """The logical string hashed by the checkpoint hash family."""
        return make_checkpoint_key(self.document_key, self.ts)


def make_checkpoint_key(document_key: str, ts: int) -> str:
    """The canonical placement string of the checkpoint ``(key, ts)``."""
    if ts < 1:
        raise ValueError(f"checkpoint timestamps start at 1, got {ts}")
    return f"{document_key}!ckpt#{ts}"


def retained_boundaries(last_ts: int, interval: int) -> range:
    """The :data:`CHECKPOINT_RETENTION` newest multiples of ``interval`` in
    ``1 .. last_ts``, newest first: where a document's checkpoints are."""
    newest = last_ts - last_ts % interval
    return range(newest, max(newest - CHECKPOINT_RETENTION * interval, 0), -interval)


# -- wire registration (see repro.net.codec) ---------------------------------

from ..net.codec import register_wire_type  # noqa: E402

register_wire_type(
    Checkpoint,
    "checkpoint",
    pack=lambda obj, enc: [
        obj.document_key, obj.ts, list(obj.lines), obj.created_at,
        obj.author, obj.sig,
    ],
    unpack=lambda body, dec: Checkpoint(
        document_key=body[0], ts=body[1], lines=tuple(body[2]),
        created_at=body[3], author=body[4], sig=body[5],
    ),
)
