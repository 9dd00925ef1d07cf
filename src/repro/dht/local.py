"""A trivial single-process DHT, for tests only.

:class:`LocalDht` honours the :class:`~repro.dht.api.DhtClient` contract but
keeps everything in one Python dictionary, optionally charging a fixed
simulated delay per operation.  Unit tests use it to exercise client-side
logic without a ring; no experiment runs on it (the centralized baseline of
E6 uses no DHT at all).
"""

from __future__ import annotations

from typing import Any, Optional

from ..errors import KeyNotFound
from ..runtime import Runtime
from .api import DhtClient


class LocalDht(DhtClient):
    """An in-process key/value table with the DHT client interface."""

    def __init__(self, runtime: Runtime, *, operation_delay: float = 0.0, name: str = "local-dht") -> None:
        self.runtime = runtime
        self.operation_delay = operation_delay
        self.name = name
        self._table: dict[str, Any] = {}
        self._handlers: dict[str, Any] = {}
        self.operations = 0

    # -- handler registration (mimics RPC methods of the owner peer) ----------

    def expose(self, method: str, handler: Any) -> None:
        """Register a callable reachable through :meth:`call_owner`."""
        self._handlers[method] = handler

    # -- DhtClient interface ----------------------------------------------------

    def _charge(self):
        self.operations += 1
        if self.operation_delay > 0:
            yield self.runtime.timeout(self.operation_delay)
        return None

    def put(self, key: str, value: Any, *, key_id: Optional[int] = None):
        yield from self._charge()
        self._table[key] = value
        return {"owner": self.name, "hops": 0, "stored": True}

    def get(self, key: str, *, key_id: Optional[int] = None):
        yield from self._charge()
        if key not in self._table:
            raise KeyNotFound(key)
        return {"owner": self.name, "hops": 0, "value": self._table[key]}

    def remove(self, key: str, *, key_id: Optional[int] = None):
        yield from self._charge()
        existed = self._table.pop(key, None) is not None
        return {"owner": self.name, "hops": 0, "removed": existed}

    def lookup(self, key: str, *, key_id: Optional[int] = None):
        yield from self._charge()
        return {"node": self.name, "hops": 0}

    def call_owner(self, routing_key: str, method: str, *, key_id: Optional[int] = None,
                   **arguments: Any):
        yield from self._charge()
        handler = self._handlers.get(method)
        if handler is None:
            raise KeyNotFound(f"no handler registered for {method!r}")
        return {"owner": self.name, "hops": 0, "result": handler(**arguments)}

    # -- direct inspection helpers ------------------------------------------------

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, key: str) -> bool:
        return key in self._table

    def snapshot(self) -> dict[str, Any]:
        """A copy of the whole table (for assertions)."""
        return dict(self._table)
