"""The tentative chain of one document, bounded in size and age.

A :class:`CommitBatch` is everything a user peer holds of a document that is
not validated yet: the chain of patches its saves produced, committed in one
round — the Master validates the chain's base timestamp once, allocates a
dense timestamp range through ``next_timestamps(key, n)`` and lands every
entry in the P2P-Log with one replicated write per responsible Log-Peer.  A
save joins the chain one of two ways: *composed* into its last patch
(``UserPeer.edit``, the paper's one patch per commit — the chain stays a
chain of one) or *added* as a patch, timestamp and log entry of its own
(``UserPeer.stage``).

A chain is bounded two ways:

* **size** — once ``batch_max_edits`` (an
  :class:`~repro.core.config.LtrConfig` field) patches are staged the chain
  is *full* and must be committed before more edits are staged;
* **deadline** — a chain whose first save is older than :attr:`deadline`
  simulated seconds reports itself as *due* (``LtrSystem.flush_due`` commits
  it even when it is not full), so drivers committing on a timer never park
  a trickle of edits indefinitely.  The clock does not ask which verb made
  the save: a chain built by ``edit`` alone is due like a staged one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..errors import ConfigurationError
from ..ot import Patch


@dataclass
class CommitBatch:
    """The saves of one document waiting for a single commit.

    The patches form a chain: each patch is expressed against the
    state produced by its predecessor (the first against the replica's
    validated state), so committing them in order with consecutive
    timestamps reproduces the user's editing history exactly.
    """

    key: str
    opened_at: float
    max_edits: int = 16
    deadline: float = 0.25
    patches: list[Patch] = field(default_factory=list)
    #: Memoized output of applying the whole chain to the base lines it was
    #: last materialised from (see :meth:`tip_lines`); staging N edits is
    #: O(N) patch applications instead of O(N^2).
    _tip: Optional[list[str]] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.max_edits < 1:
            raise ValueError(f"max_edits must be >= 1, got {self.max_edits}")
        if self.deadline < 0:
            raise ValueError(f"deadline must be >= 0, got {self.deadline}")

    def __len__(self) -> int:
        return len(self.patches)

    @property
    def full(self) -> bool:
        """``True`` once the size bound is reached (commit before staging more)."""
        return len(self.patches) >= self.max_edits

    def tip_lines(self, base_lines: Sequence[str]) -> list[str]:
        """The chain's output when applied on top of ``base_lines``.

        The result is memoized; it stays valid while the base (the
        replica's validated state) is unchanged, which the user peer
        guarantees by replacing the chain through :meth:`replace_patches`
        whenever the replica advances under it.
        """
        if not self.patches:
            # An empty chain has no state of its own: never memoize the
            # base, which may advance while the batch sits empty.
            return list(base_lines)
        if self._tip is None:
            lines = list(base_lines)
            for patch in self.patches:
                lines = patch.apply(lines)
            self._tip = lines
        return list(self._tip)

    def add(self, patch: Patch, *, tip: Optional[Sequence[str]] = None) -> None:
        """Stage one more patch; refuses to grow past the size bound.

        ``tip`` (the chain's output including ``patch``) keeps the memoized
        tip current; without it the memo is dropped and recomputed lazily.
        """
        if self.full:
            raise ConfigurationError(
                f"batch for {self.key!r} already holds {len(self.patches)} edits "
                f"(max_edits={self.max_edits}); flush it first"
            )
        self.patches.append(patch)
        self._tip = list(tip) if tip is not None else None

    def compose(self, patch: Patch, *, tip: Sequence[str], proposed: int) -> None:
        """Record one more save, wrapped into the chain's last patch.

        The first ``proposed`` patches are out of bounds — they were proposed
        as they are and may have landed — so a save behind them follows as a
        patch of its own (whatever the size bound: it is the user's one
        pending patch).  A save that changed nothing opens a chain, an
        explicit save always having something to commit, but is not worth a
        patch behind proposed ones.
        """
        if len(self.patches) > proposed:
            self.patches[-1] = self.patches[-1].compose(patch)
        elif len(patch) > 0 or not self.patches:
            self.patches.append(patch)
        self._tip = list(tip)

    def replace_patches(self, patches: Sequence[Patch]) -> None:
        """Swap the whole chain (rebase after a sync or a failed commit)."""
        self.patches = list(patches)
        self._tip = None

    def age(self, now: float) -> float:
        """Simulated seconds since the chain's first save."""
        return now - self.opened_at

    def due(self, now: float) -> bool:
        """``True`` when the chain should be committed (full or past deadline)."""
        if not self.patches:
            return False
        return self.full or self.age(now) >= self.deadline

