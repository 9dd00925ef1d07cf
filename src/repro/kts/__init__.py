"""Key-based Timestamp Service (KTS).

Reproduction of the timestamping substrate P2P-LTR builds on (Akbarinia et
al., "Data Currency in Replicated DHTs", SIGMOD 2007 — ref [7] of the
report): for every key, the DHT node responsible for ``ht(key)`` generates
monotonically increasing, gap-free integer timestamps through ``gen_ts`` and
exposes the latest one through ``last_ts``.

* :class:`TimestampAuthority` — the per-node service holding and advancing
  counters (the Master-key peer role).
* :class:`KtsClient` — the client-side API any peer uses to request
  timestamps for a document key.
"""

from .authority import COUNTER_PREFIX, TimestampAuthority, counter_documents
from .client import KtsClient

__all__ = ["COUNTER_PREFIX", "KtsClient", "TimestampAuthority", "counter_documents"]
