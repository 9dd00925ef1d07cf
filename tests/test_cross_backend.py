"""Cross-backend equivalence and determinism regression tests.

Three guarantees of the execution-runtime abstraction:

1. **SimRuntime is the kernel, bit for bit** — a seeded E2-style commit
   history replays identically across two independently built systems,
   and the PR-3 checkpoint-equivalence differential rows reproduce the
   golden values captured before the refactor (``GOLDEN_DIFFERENTIAL``).
2. **AsyncioRuntime is correct under real interleavings** — concurrent
   editors on the wall-clock backend preserve the three commit invariants
   (dense timestamps, prefix-complete log, OT convergence), within a
   bounded wall-clock budget.
3. The acceptance-scale live run (≥16 peers, ≥4 editors, ≥200 edits) is
   the ``slow``-marked variant of (2).
"""

import hashlib
import time

import pytest

from repro.core import LtrConfig, LtrSystem
from repro.experiments.scenarios import LIVE_CHORD_CONFIG
from repro.net import ConstantLatency
from repro.runtime import AsyncioRuntime, RandomStreams, SimRuntime

from test_checkpoint_equivalence import KEY as DIFF_KEY
from test_checkpoint_equivalence import build_system as build_diff_system
from test_checkpoint_equivalence import drive_history
from test_invariants import assert_system_invariants, drop_master_tail

# ------------------------------------------------- sim-backend identity --

#: Golden rows of the PR-3 differential harness (checkpointed deployment,
#: cold sync of peer #2), captured on the pre-refactor kernel.  SimRuntime
#: must reproduce them bit for bit: same retrieval counts, same checkpoint
#: bootstrap, same replica bytes.
GOLDEN_DIFFERENTIAL = {
    (2, False): {"steps": 12, "fast_retrieved": 0, "full_retrieved": 12,
                 "checkpoint_ts": 12,
                 "text_sha256": "94a2d9007b85d8d275c96be6c51485a52cbd2c7f93e41a47a45f82584b1b4a5f"},
    (2, True): {"steps": 12, "fast_retrieved": 1, "full_retrieved": 12,
                "checkpoint_ts": 11,
                "text_sha256": "6b5fdf01d303b13b74f428672830fb042273386fa497f48e5d27224a43f096e8"},
    (7, False): {"steps": 12, "fast_retrieved": 0, "full_retrieved": 12,
                 "checkpoint_ts": 12,
                 "text_sha256": "b9520c2a588a0cd273db3aaaa467a4e32973f6d266b234c8b7bac5020ff1fdd2"},
    (7, True): {"steps": 12, "fast_retrieved": 1, "full_retrieved": 12,
                "checkpoint_ts": 11,
                "text_sha256": "5b29f2548bdabdafa8590bf6f5305edfbcdc6ee5f92fae698235b98df2bcee42"},
    (13, False): {"steps": 13, "fast_retrieved": 1, "full_retrieved": 13,
                  "checkpoint_ts": 12,
                  "text_sha256": "49eb9ce823c9be394d42c0dd8c984f76514b9d547d211178b2a2f84479d6f07c"},
    (13, True): {"steps": 13, "fast_retrieved": 1, "full_retrieved": 13,
                 "checkpoint_ts": 12,
                 "text_sha256": "49eb9ce823c9be394d42c0dd8c984f76514b9d547d211178b2a2f84479d6f07c"},
}

KEY = "xwiki:cross"


def seeded_commit_history(system: LtrSystem, *, seed: int, waves: int):
    """A deterministic E2-style run: waves of concurrent two-writer commits."""
    rng = RandomStreams(seed).stream("cross-backend")
    writers = system.peer_names()[:3]
    transcript = []
    for wave in range(waves):
        pair = rng.sample(writers, 2)
        edits = [
            (writer, KEY,
             "\n".join(f"{KEY} l{line} w{wave} by {writer}"
                       for line in range(rng.randint(1, 3))))
            for writer in pair
        ]
        for result in system.run_concurrent_commits(edits):
            transcript.append((result.author, result.ts, result.attempts))
    system.sync_all(KEY)
    replica_texts = sorted(
        "\n".join(user.document(KEY).lines) for user in system.users()
    )
    return transcript, system.last_ts(KEY), replica_texts


def test_sim_runtime_replays_seeded_history_identically():
    outcomes = []
    for _ in range(2):
        system = LtrSystem(seed=29, latency=ConstantLatency(0.004))
        system.bootstrap(8)
        assert isinstance(system.runtime, SimRuntime)
        outcomes.append(seeded_commit_history(system, seed=29, waves=6))
    first, second = outcomes
    assert first == second, "SimRuntime runs with one seed diverged"
    transcript, last_ts, _texts = first
    assert last_ts == len(transcript) == 12


@pytest.mark.parametrize("batched", [False, True], ids=["unbatched", "batched"])
@pytest.mark.parametrize("seed", [2, 7, 13])
def test_sim_runtime_reproduces_pr3_differential_rows(seed, batched):
    """The refactored stack reproduces the pre-refactor golden rows exactly."""
    golden = GOLDEN_DIFFERENTIAL[(seed, batched)]
    steps = golden["steps"]
    fast = build_diff_system(seed, checkpointing=True)
    full = build_diff_system(seed, checkpointing=False)
    for system in (fast, full):
        drive_history(system, seed=seed, batched=batched, steps=steps)
        drop_master_tail(system, DIFF_KEY)  # the rows were read from the log
    cold = fast.peer_names()[2]
    fast_result = fast.sync(cold, DIFF_KEY)
    full_result = full.sync(cold, DIFF_KEY)
    replica = fast.user(cold).document(DIFF_KEY)
    digest = hashlib.sha256("\n".join(replica.lines).encode()).hexdigest()

    assert fast.last_ts(DIFF_KEY) == steps
    assert fast_result.retrieved_patches == golden["fast_retrieved"]
    assert full_result.retrieved_patches == golden["full_retrieved"]
    assert fast_result.checkpoint_ts == golden["checkpoint_ts"]
    assert replica.applied_ts == steps
    assert digest == golden["text_sha256"], (
        "replica bytes diverged from the pre-refactor kernel"
    )


# ------------------------------------------------ asyncio-backend runs --


def build_live_system(peers: int, seed: int) -> LtrSystem:
    config = LtrConfig(
        runtime_backend="asyncio",
        validation_retry_delay=0.02,
    )
    system = LtrSystem(
        ltr_config=config,
        chord_config=LIVE_CHORD_CONFIG,
        seed=seed,
        latency=ConstantLatency(0.0005),
    )
    system.bootstrap(peers, stabilize_time=20.0)
    return system


def drive_live_editors(system: LtrSystem, *, editors: int, edits: int) -> int:
    writers = system.peer_names()[:editors]
    committed = 0
    for wave in range(max(1, edits // editors)):
        batch = [
            (writer, KEY,
             "\n".join(f"live l{line} w{wave} by {writer}" for line in range(3)))
            for writer in writers
        ]
        committed += len(system.run_concurrent_commits(batch))
    return committed


def test_asyncio_backend_preserves_commit_invariants():
    """Fast live run: real interleavings, all three invariants, bounded wall-clock."""
    started = time.monotonic()
    system = build_live_system(peers=8, seed=5)
    try:
        assert isinstance(system.runtime, AsyncioRuntime)
        committed = drive_live_editors(system, editors=3, edits=24)
        assert committed == 24
        assert system.last_ts(KEY) == committed
        assert_system_invariants(system, [KEY])
    finally:
        system.shutdown()
    assert time.monotonic() - started < 90.0, "live smoke run blew its wall-clock budget"


@pytest.mark.slow
def test_asyncio_backend_at_acceptance_scale():
    """≥16-peer ring, ≥200 edits from ≥4 concurrent editors (acceptance run)."""
    started = time.monotonic()
    system = build_live_system(peers=16, seed=17)
    try:
        committed = drive_live_editors(system, editors=4, edits=200)
        assert committed >= 200
        assert system.last_ts(KEY) == committed
        assert_system_invariants(system, [KEY])
    finally:
        system.shutdown()
    assert time.monotonic() - started < 300.0, "live acceptance run blew its wall-clock budget"
