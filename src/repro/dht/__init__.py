"""DHT client: put/get/lookup routed through the peer's own Chord node."""

from .chord_client import ChordDhtClient, GetItem, PutItem

__all__ = ["ChordDhtClient", "GetItem", "PutItem"]
