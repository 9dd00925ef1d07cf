"""The replicated document: a list of lines plus integration bookkeeping.

Each user peer holds a local primary copy of every document it edits (the
paper's model).  :class:`Document` is that copy: the line content, the
timestamp of the last patch integrated in total order and the history of
integrated patches (useful for audits and for the consistency checker).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..errors import InvalidOperation
from .patch import Patch


@dataclass
class Document:
    """A local replica of one shared text document."""

    key: str
    lines: list[str] = field(default_factory=list)
    applied_ts: int = 0
    history: list[Patch] = field(default_factory=list)

    # -- content --------------------------------------------------------------

    @property
    def text(self) -> str:
        """The document rendered as a newline-joined string."""
        return "\n".join(self.lines)

    def line_count(self) -> int:
        """Number of lines currently in the document."""
        return len(self.lines)

    def copy(self) -> "Document":
        """An independent deep-enough copy of this replica."""
        return Document(
            key=self.key,
            lines=list(self.lines),
            applied_ts=self.applied_ts,
            history=list(self.history),
        )

    @classmethod
    def from_text(cls, key: str, text: str) -> "Document":
        """Build a document from newline-separated ``text`` (timestamp 0)."""
        lines = text.split("\n") if text else []
        return cls(key=key, lines=lines)

    # -- patch integration --------------------------------------------------------

    def apply_patch(self, patch: Patch, ts: Optional[int] = None) -> None:
        """Apply ``patch`` in place, recording it in the history.

        ``ts`` is the patch's validated timestamp; when provided it must be
        exactly ``applied_ts + 1`` (total order, no gaps).  Tentative local
        patches (not yet validated) are applied with ``ts=None`` and do not
        advance ``applied_ts``.
        """
        if ts is not None:
            if ts != self.applied_ts + 1:
                raise InvalidOperation(
                    f"document {self.key!r} at ts {self.applied_ts} cannot apply patch ts {ts}"
                )
        self.lines = patch.apply(self.lines)
        self.history.append(patch)
        if ts is not None:
            self.applied_ts = ts

    # -- comparisons -----------------------------------------------------------------

    def same_content(self, other: "Document") -> bool:
        """``True`` when both replicas hold identical line content."""
        return self.lines == other.lines

    def digest(self) -> int:
        """A cheap content fingerprint for convergence checks over many replicas."""
        return hash(tuple(self.lines))


def all_converged(documents: Iterable[Document]) -> bool:
    """``True`` when every replica in ``documents`` has identical content."""
    digests = {tuple(document.lines) for document in documents}
    return len(digests) <= 1
