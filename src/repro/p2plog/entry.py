"""Log entries: the unit of storage of the P2P-Log.

A :class:`LogEntry` records one validated patch of one document together
with its continuous timestamp and provenance.  Entries are immutable: the
log is append-only and a ``(document key, timestamp)`` pair is never
rewritten, which is what makes the multi-placement replication of the
P2P-Log trivially consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence


@dataclass(frozen=True)
class LogEntry:
    """One timestamped patch stored in the P2P-Log.

    Attributes
    ----------
    document_key:
        The document (page) this patch applies to.
    ts:
        The continuous timestamp assigned by the Master-key peer
        (``ts = previous ts + 1``).
    patch:
        The patch payload, an immutable value: a :class:`repro.ot.Patch`
        (tests use strings).  The P2P-Log treats it as opaque and never
        changes it, so an entry is shared, not copied, wherever it travels.
    author:
        Name of the user peer that produced the patch.
    published_at:
        Simulated time at which the Master-key peer published the entry.
    base_ts:
        The timestamp of the document state the author edited (i.e. the
        patch was generated against the state after applying ``base_ts``
        patches).  Used by the reconciliation engine to transform the patch
        against concurrent ones.
    sig:
        The author's signature over the entry (:mod:`repro.p2plog.auth`),
        ``None`` when commits are unsigned.  Not part of equality, so signed
        and unsigned copies of an entry compare the same.
    proposal:
        The proposal identity the author gave this patch: together with
        ``author`` it names one patch of one proposal for the life of the
        document, however often the proposal was re-sent or rebased before
        it landed (``None``: an entry from before identities, or built by
        hand).  It is what makes a commit at-most-once — the Master-key peer
        and the author both recognise a proposal that already landed by it
        (``DESIGN.md`` §"The commit pipeline", *At most once*) — and it is
        part of what the author signs.
    """

    document_key: str
    ts: int
    patch: Any
    author: str = "unknown"
    published_at: float = 0.0
    base_ts: Optional[int] = None
    sig: Optional[str] = field(default=None, compare=False)
    proposal: Optional[int] = None

    def __post_init__(self) -> None:
        if self.ts < 1:
            raise ValueError(f"log timestamps start at 1, got {self.ts}")

    @property
    def log_key(self) -> str:
        """The logical ``key + ts`` string hashed by the replication functions."""
        return make_log_key(self.document_key, self.ts)


def find_proposal(entries: Sequence[LogEntry], author: str,
                  proposal: Optional[int], count: int) -> Optional[tuple[int, int]]:
    """Where in ``entries`` a proposal landed: ``(index, patches)`` or ``None``.

    A proposal is recognised by its first patch's identity — ``author`` and
    ``proposal`` — and covers the entries that follow it with the following
    identities, at most ``count``, the length of the chain being looked for
    (a chain that grew since it was first sent holds more patches than
    landed).  The one search behind at-most-once commits: the Master-key peer
    runs it over the gap of a stale proposal, the author over whatever range
    it integrates.
    """
    if proposal is None:
        return None
    for first, entry in enumerate(entries):
        if entry.proposal == proposal and entry.author == author:
            landed = 1
            while (
                landed < count and first + landed < len(entries)
                and entries[first + landed].proposal == proposal + landed
                and entries[first + landed].author == author
            ):
                landed += 1
            return first, landed
    return None


def make_log_key(document_key: str, ts: int) -> str:
    """The canonical ``key + ts`` string used for log placement hashing."""
    if ts < 1:
        raise ValueError(f"log timestamps start at 1, got {ts}")
    return f"{document_key}#{ts}"


# -- wire registration (see repro.net.codec) ---------------------------------
# The OT layer sits below the network and cannot register its own types;
# the P2P-Log is the layer that ships patches (inside log entries and
# validation payloads) over RPC, so the patch family registers here.

from ..net.codec import register_wire_type  # noqa: E402
from ..ot.operations import DeleteLine, InsertLine, NoOp  # noqa: E402
from ..ot.patch import Patch  # noqa: E402

register_wire_type(
    InsertLine,
    "op-ins",
    pack=lambda obj, enc: [obj.position, obj.line, obj.origin],
    unpack=lambda body, dec: InsertLine(body[0], body[1], body[2]),
)

register_wire_type(
    DeleteLine,
    "op-del",
    pack=lambda obj, enc: [obj.position, obj.line, obj.origin],
    unpack=lambda body, dec: DeleteLine(body[0], body[1], body[2]),
)

register_wire_type(
    NoOp,
    "op-noop",
    pack=lambda obj, enc: obj.origin,
    unpack=lambda body, dec: NoOp(body),
)

register_wire_type(
    Patch,
    "patch",
    pack=lambda obj, enc: [
        [enc(op) for op in obj.operations], obj.base_ts, obj.author, obj.comment,
    ],
    unpack=lambda body, dec: Patch(
        operations=tuple(dec(op) for op in body[0]),
        base_ts=body[1], author=body[2], comment=body[3],
    ),
)

register_wire_type(
    LogEntry,
    "log-entry",
    pack=lambda obj, enc: [
        obj.document_key, obj.ts, enc(obj.patch), obj.author,
        obj.published_at, obj.base_ts, obj.sig, obj.proposal,
    ],
    unpack=lambda body, dec: LogEntry(
        document_key=body[0], ts=body[1], patch=dec(body[2]), author=body[3],
        published_at=body[4], base_ts=body[5], sig=body[6], proposal=body[7],
    ),
)
