"""Service plug-in interface for Chord nodes.

The P2P-LTR roles (Master-key peer, Log-Peer, timestamp counter holder) are
not separate machines: they are responsibilities taken on by whichever DHT
node is currently the successor of a key.  To model that cleanly, a Chord
node hosts a list of :class:`NodeService` instances.  A service can expose
extra RPC methods and learns of every ownership change through one hook,
:meth:`NodeService.on_ownership_moved`.  The node fires it from its one
ownership transition, for the items it took (a join reclaiming its arc, a
leaving predecessor's hand-over, a misplaced item forwarded here, replica
promotion after a predecessor failure) or released (its own hand-off to a
joiner or at leave, a misplaced item forwarded to its owner).  That is the
hook the P2P-LTR succession procedures need.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .storage import StoredItem

if TYPE_CHECKING:  # pragma: no cover
    from .node import ChordNode


class NodeService:
    """Base class for per-node application services.

    Subclasses override the hooks they care about; all hooks default to
    no-ops so services stay small.
    """

    #: Short identifier used in traces and diagnostics.
    name = "service"

    def __init__(self) -> None:
        self.node: "ChordNode | None" = None

    # -- lifecycle ----------------------------------------------------------

    def attach(self, node: "ChordNode") -> None:
        """Bind the service to its hosting node and register RPC handlers."""
        self.node = node
        self.register_handlers(node)

    def register_handlers(self, node: "ChordNode") -> None:
        """Expose the service's RPC methods on the node's agent (override)."""

    # -- ownership hook ---------------------------------------------------------

    def on_ownership_moved(self, items: list[StoredItem]) -> None:
        """Called once per ownership change with the items that changed hands.

        The node took them (owned here now) or released them (a replica copy
        here at most).
        """
