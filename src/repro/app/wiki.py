"""A small collaborative wiki built on the P2P-LTR public API.

The paper motivates P2P-LTR with "a second generation wiki such as XWiki
that works over a P2P network and enables users to edit, add, and delete Web
documents".  :class:`CollaborativeWiki` is that application layer for this
reproduction: wiki pages are P2P-LTR documents, saving a page runs the
validation/publication procedure, and page history is read straight from
the P2P-Log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core import CommitResult, LtrSystem

#: Prefix distinguishing wiki pages from other DHT keys.
PAGE_PREFIX = "xwiki:"


@dataclass(frozen=True)
class PageRevision:
    """One revision of a wiki page, reconstructed from the P2P-Log."""

    title: str
    ts: int
    author: str
    comment: str
    published_at: float


class CollaborativeWiki:
    """Multi-user wiki façade over an :class:`~repro.core.LtrSystem`."""

    def __init__(self, system: LtrSystem) -> None:
        self.system = system

    # -- key mapping --------------------------------------------------------

    @staticmethod
    def page_key(title: str) -> str:
        """The DHT document key of a wiki page."""
        return f"{PAGE_PREFIX}{title}"

    # -- reading ---------------------------------------------------------------

    def read(self, peer: str, title: str, *, refresh: bool = True) -> str:
        """The page content as seen from ``peer`` (optionally syncing first)."""
        key = self.page_key(title)
        if refresh:
            self.system.sync(peer, key)
        return self.system.user(peer).working_text(key)

    def exists(self, title: str) -> bool:
        """``True`` if at least one revision of the page has been published."""
        return self.system.last_ts(self.page_key(title)) > 0

    def revision_count(self, title: str) -> int:
        """Number of published revisions of the page."""
        return self.system.last_ts(self.page_key(title))

    def history(self, title: str) -> list[PageRevision]:
        """All revisions of the page, oldest first (from the P2P-Log)."""
        key = self.page_key(title)
        last_ts = self.system.last_ts(key)
        if last_ts == 0:
            return []
        entries = self.system.fetch_log(key, 1, last_ts)
        return [
            PageRevision(
                title=title,
                ts=entry.ts,
                author=entry.author,
                comment=getattr(entry.patch, "comment", ""),
                published_at=entry.published_at,
            )
            for entry in entries
        ]

    # -- writing --------------------------------------------------------------------

    def save(self, peer: str, title: str, content: str, *, comment: str = "") -> CommitResult:
        """Save a page: capture the patch and run the P2P-LTR procedures.

        The peer's replica is refreshed first so the captured patch expresses
        the user's change against the latest validated revision (what the
        XWiki editor shows before editing starts).
        """
        key = self.page_key(title)
        self.system.sync(peer, key)
        self.system.edit(peer, key, content, comment=comment)
        result = self.system.commit(peer, key)
        assert result is not None  # an explicit save always produces a patch
        return result

    def append_line(self, peer: str, title: str, line: str, *, comment: str = "") -> CommitResult:
        """Append one line to the page (refreshing the peer's copy first)."""
        key = self.page_key(title)
        self.system.sync(peer, key)
        user = self.system.user(peer)
        user.edit_lines(key, lambda lines: lines + [line], comment=comment)
        result = self.system.commit(peer, key)
        assert result is not None
        return result

    def delete_page(self, peer: str, title: str, *, comment: str = "deleted") -> CommitResult:
        """Publish a revision that empties the page (wiki-style deletion)."""
        return self.save(peer, title, "", comment=comment)

    # -- consistency ------------------------------------------------------------------

    def check_consistency(self, title: str):
        """Run the eventual-consistency check for a page."""
        return self.system.check_consistency(self.page_key(title))


class EditorSession:
    """An interactive editing session of one user on one page.

    Mirrors the edit/save cycle of the XWiki editor in Figure 2 of the
    paper: the user opens a page (pulling the latest validated state),
    modifies the working copy any number of times, then saves — which is
    when the tentative patch gets timestamped and published.
    """

    def __init__(self, wiki: CollaborativeWiki, peer: str, title: str) -> None:
        self.wiki = wiki
        self.peer = peer
        self.title = title
        self.key = wiki.page_key(title)
        self.saves: list[CommitResult] = []
        self.wiki.system.sync(peer, self.key)

    @property
    def content(self) -> str:
        """The current working copy (validated state plus unsaved edits)."""
        return self.wiki.system.user(self.peer).working_text(self.key)

    def replace(self, content: str) -> None:
        """Replace the whole working copy (not yet published)."""
        self.wiki.system.edit(self.peer, self.key, content)

    def append(self, line: str) -> None:
        """Append a line to the working copy (not yet published)."""
        user = self.wiki.system.user(self.peer)
        user.edit_lines(self.key, lambda lines: lines + [line])

    def save(self, *, comment: str = "") -> Optional[CommitResult]:
        """Publish the pending edits (no-op when nothing changed)."""
        user = self.wiki.system.user(self.peer)
        if not user.has_pending(self.key):
            return None
        if comment:
            # One more save that changes nothing, wrapped into the pending
            # patch like the others: it carries the comment into the entry.
            user.edit_lines(self.key, lambda lines: lines, comment=comment)
        result = self.wiki.system.commit(self.peer, self.key)
        if result is not None:
            self.saves.append(result)
        return result
