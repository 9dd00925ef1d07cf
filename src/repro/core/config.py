"""Configuration of the P2P-LTR protocol layer."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigurationError
from ..storage import BACKEND_NAMES


@dataclass(frozen=True)
class LtrConfig:
    """Tunable parameters of P2P-LTR.

    Attributes
    ----------
    log_replication_factor:
        ``n = |Hr|`` — how many independent Log-Peer placements each
        timestamped patch gets (paper Section 2).
    validation_retries:
        How many times a single validation RPC is re-routed when the
        Master-key peer is unreachable (crash/churn window).
    validation_retry_delay:
        Delay between those re-routing attempts, in simulated seconds.  It
        should be of the order of the DHT stabilization interval so a
        retried request reaches the new Master-key peer.
    batch_max_edits:
        Size bound of a document's tentative chain
        (:class:`~repro.core.batch.CommitBatch`): every ``UserPeer.stage``
        adds a patch of its own to the chain, which is committed in one round
        — one Master round-trip, one KTS range allocation and one grouped
        P2P-Log publish (``DESIGN.md`` §"The commit pipeline") — and is
        *full* once it holds this many, at which point it must be committed
        before more edits are staged.  ``1`` is the paper's
        one-round-trip-per-edit shape.  ``UserPeer.edit`` is not bounded by
        it: it wraps every save into the chain's last patch instead of
        adding one (a peer that saves with ``edit`` alone proposes chains of
        one).
    checkpoint_interval:
        Where the checkpoints of a document are: the Master-key peer
        materializes a snapshot at every multiple of this timestamp (a
        *boundary*) and stores it replicated under the salted checkpoint
        hash family, and ``UserPeer.sync`` bootstraps a catch-up more than
        this many timestamps behind from the newest boundary instead of
        replaying the whole patch log (``DESIGN.md`` §"Checkpointed
        retrieval").  A shorter suffix is replayed without a probe.  The
        interval is part of a checkpoint's address, so it must be the same
        in every process of a system, like ``log_replication_factor``.  The
        paper's full-replay retrieval is the value longer than the
        document's history.
    runtime_backend:
        Which execution runtime a :class:`~repro.core.LtrSystem` built from
        this config runs on when no explicit runtime is supplied:
        ``"sim"`` (the default — deterministic virtual clock, byte-identical
        seeded experiments) or ``"asyncio"`` (wall-clock timers, real
        in-process concurrency; see ``DESIGN.md`` §"Execution runtimes").
    storage_backend:
        Which persistence backend every peer's node storage uses:
        ``"memory"`` (the default — the historical volatile dict) or
        ``"sqlite"`` (one WAL database file per node; crashed peers can
        restart with ``recover=True`` and reload their data from disk).
        See ``DESIGN.md`` §"Durable storage".
    storage_dir:
        Directory holding the per-node database files of the ``"sqlite"``
        backend.  ``None`` (the default) lets :class:`~repro.core.LtrSystem`
        create a private temporary directory and remove it on
        :meth:`~repro.core.LtrSystem.shutdown`.
    auth_enabled:
        When ``True``, every commit carries a per-author HMAC over the
        canonical wire encoding of the patch tuple, the Master rejects
        unsigned or mis-signed submissions with
        :class:`~repro.errors.AuthenticationError`, signs the checkpoints
        it writes, and user peers verify signatures on every log entry and
        checkpoint they retrieve, skipping tampered replicas (``DESIGN.md``
        §"Adversarial model & authenticity").  ``False`` (the default)
        keeps the trusting paper protocol byte-identical.
    auth_secret:
        Shared secret from which the per-author keys are derived
        (HMAC-SHA256 of the author name under this secret).  Any holder of
        the secret can mint any author's key — the scheme authenticates
        *against outsiders and accidental corruption*, not against
        colluding insiders; see the threat-model table in ``DESIGN.md``.
    """

    log_replication_factor: int = 3
    validation_retries: int = 8
    validation_retry_delay: float = 0.5
    batch_max_edits: int = 16
    checkpoint_interval: int = 64
    runtime_backend: str = "sim"
    storage_backend: str = "memory"
    storage_dir: Optional[str] = None
    auth_enabled: bool = False
    auth_secret: str = "p2p-ltr-dev-secret"

    def __post_init__(self) -> None:
        if self.auth_enabled and not self.auth_secret:
            raise ConfigurationError(
                "auth_enabled requires a non-empty auth_secret"
            )
        if self.runtime_backend not in ("sim", "asyncio"):
            raise ConfigurationError(
                f"runtime_backend must be 'sim' or 'asyncio', "
                f"got {self.runtime_backend!r}"
            )
        if self.storage_backend not in BACKEND_NAMES:
            raise ConfigurationError(
                f"storage_backend must be one of {BACKEND_NAMES}, "
                f"got {self.storage_backend!r}"
            )
        if self.log_replication_factor < 1:
            raise ConfigurationError(
                f"log_replication_factor must be >= 1, got {self.log_replication_factor}"
            )
        if self.validation_retries < 0:
            raise ConfigurationError(
                f"validation_retries must be >= 0, got {self.validation_retries}"
            )
        if self.validation_retry_delay < 0:
            raise ConfigurationError(
                f"validation_retry_delay must be >= 0, got {self.validation_retry_delay}"
            )
        if self.batch_max_edits < 1:
            raise ConfigurationError(
                f"batch_max_edits must be >= 1, got {self.batch_max_edits}"
            )
        if self.checkpoint_interval < 1:
            raise ConfigurationError(
                f"checkpoint_interval must be >= 1, got {self.checkpoint_interval}"
            )
