"""repro — a reproduction of *P2P Logging and Timestamping for Reconciliation*.

Tlili, Dedzoe, Pacitti, Akbarinia, Valduriez — INRIA RR-6497 / VLDB 2008
demonstration.  The package implements the full system described in the
report and every substrate it depends on:

* :mod:`repro.sim` — deterministic discrete-event simulation kernel.
* :mod:`repro.runtime` — the execution-runtime abstraction the whole stack
  runs on: the deterministic ``SimRuntime`` (default) and the wall-clock
  ``AsyncioRuntime`` live backend.
* :mod:`repro.net` — simulated network (latency, partitions, perturbation
  windows, RPC).
* :mod:`repro.chord` — a from-scratch Chord DHT (the Open Chord substitute).
* :mod:`repro.dht` — uniform DHT client facade.
* :mod:`repro.kts` — key-based timestamp service (gen_ts / last_ts).
* :mod:`repro.p2plog` — the replicated, highly available patch log.
* :mod:`repro.ot` — line-based operational transformation (So6 substitute).
* :mod:`repro.core` — the P2P-LTR protocol itself (Master-key peers, user
  peers, validation, retrieval, succession) and the :class:`LtrSystem`
  deployment wrapper.
* :mod:`repro.app` — a small collaborative wiki built on the public API.
* :mod:`repro.baselines` — centralized-reconciler and last-writer-wins
  baselines used by the evaluation.
* :mod:`repro.workloads` — synthetic editing and churn workload generators.
* :mod:`repro.metrics` — measurement helpers and result tables.
* :mod:`repro.faults` — declarative fault injection: composable
  :class:`~repro.faults.FaultPlan` schedules replayed by a nemesis.
* :mod:`repro.check` — the convergence checker snapshotting the commit
  invariants at every fault boundary.
* :mod:`repro.experiments` — the harness regenerating every scenario and
  figure of the paper's evaluation (see ``EXPERIMENTS.md``).

Quickstart::

    from repro import LtrSystem

    system = LtrSystem(seed=1)
    system.bootstrap(8)
    system.edit_and_commit("peer-0", "wiki:home", "Hello from peer-0")
    system.edit_and_commit("peer-1", "wiki:home", "Hello from peer-0\\nand peer-1")
    report = system.check_consistency("wiki:home")
    assert report.converged
"""

from .core import (
    CommitResult,
    ConsistencyReport,
    LtrConfig,
    LtrSystem,
    MasterService,
    SyncResult,
    UserPeer,
    ValidationResult,
)
from .errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "CommitResult",
    "ConsistencyReport",
    "LtrConfig",
    "LtrSystem",
    "MasterService",
    "ReproError",
    "SyncResult",
    "UserPeer",
    "ValidationResult",
    "__version__",
]
