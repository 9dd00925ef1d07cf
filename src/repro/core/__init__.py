"""P2P-LTR: the paper's primary contribution.

This package ties the substrates together into the protocol described in
Sections 2 and 3 of the report:

* :class:`MasterService` — the Master-key peer role (validation,
  publication, per-document serialization), hosted by every DHT node.
* :class:`UserPeer` — the user application holding local primary copies,
  producing tentative patches and running the validation / retrieval loop.
* :class:`LtrSystem` — a whole deployment (ring + services + users) behind
  a synchronous driver API for scenarios and benchmarks.
* :mod:`repro.core.consistency` — the eventual-consistency checks.
"""

from .batch import CommitBatch
from .config import LtrConfig
from .consistency import (
    ConsistencyReport,
    build_report,
    compare_replicas,
    replay_log,
    verify_log_continuity,
)
from .master import MasterService
from .protocol import (
    STATUS_BEHIND,
    STATUS_OK,
    STATUS_REJECTED,
    CommitResult,
    SyncResult,
    ValidationResult,
)
from .system import DEFAULT_CHORD_CONFIG, LtrSystem
from .user_peer import UserPeer

__all__ = [
    "DEFAULT_CHORD_CONFIG",
    "CommitBatch",
    "CommitResult",
    "ConsistencyReport",
    "LtrConfig",
    "LtrSystem",
    "MasterService",
    "STATUS_BEHIND",
    "STATUS_OK",
    "STATUS_REJECTED",
    "SyncResult",
    "UserPeer",
    "ValidationResult",
    "build_report",
    "compare_replicas",
    "replay_log",
    "verify_log_continuity",
]
