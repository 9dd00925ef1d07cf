"""P2P-Log: the highly available, DHT-resident log of timestamped patches."""

from .auth import (
    author_key,
    canonical_bytes,
    sign_checkpoint,
    sign_commit,
    verify_checkpoint,
    verify_commit,
    verify_entry,
)
from .checkpoint import (
    CHECKPOINT_RETENTION,
    CHECKPOINT_SALT_PREFIX,
    Checkpoint,
    make_checkpoint_key,
    retained_boundaries,
)
from .entry import LogEntry, find_proposal, make_log_key
from .log import P2PLogClient

__all__ = [
    "CHECKPOINT_RETENTION",
    "CHECKPOINT_SALT_PREFIX",
    "Checkpoint",
    "LogEntry",
    "P2PLogClient",
    "author_key",
    "canonical_bytes",
    "find_proposal",
    "make_checkpoint_key",
    "make_log_key",
    "retained_boundaries",
    "sign_checkpoint",
    "sign_commit",
    "verify_checkpoint",
    "verify_commit",
    "verify_entry",
]
