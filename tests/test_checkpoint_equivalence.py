"""Differential test harness for the retrieval fast paths.

Every run builds *two* byte-identical deployments from the same seed — one
checkpointing every ``INTERVAL`` timestamps, one replaying the full patch
log (the paper's Procedure 3: a checkpoint interval longer than the
history) — drives the identical seeded multi-writer editing history against
both, and then lets a peer that never synchronised catch up cold on each.
The full replay always reads the log: its Master forgets the entries it
holds in memory first, as a takeover leaves it.  The fast deployment runs
one of two arms:

* ``checkpoint`` — its Master forgets them too, and the cold peer
  bootstraps from a checkpoint, retrieving strictly fewer patches;
* ``tail`` — its Master keeps them, and hands the whole history over with
  its answer: the same patches as the full replay, with no checkpoint probed
  and no log read.

The differential property, on either arm:

* the fast-path replica converges to **byte-identical text and
  ``applied_ts``** as the full-replay replica,
* and local tentative edits (a pending patch, or a staged commit batch)
  survive the snapshot jump: they remain committable and every paper
  invariant (dense timestamps, prefix-complete log, OT convergence — see
  ``test_invariants.py``) holds on both deployments afterwards.

The sweep covers >= 25 seeds at both chain lengths — ``unbatched`` commits
every edit as a chain of one (``edit``/``commit``), ``batched`` stages chains
of up to three (``stage``/``flush``) — rotating the cold peer's local-edit
mode (none / pending / staged batch) across seeds.
"""

import pytest

from repro.core import LtrConfig, LtrSystem
from repro.net import ConstantLatency
from repro.sim.rng import RandomStreams

from test_invariants import assert_system_invariants, drop_master_tail

KEY = "xwiki:diff"
PEERS = 6
INTERVAL = 4
#: Longer than any history here: no checkpoint is written, none is probed.
FULL_REPLAY_INTERVAL = 64
SEEDS = range(25)


def build_system(seed: int, *, checkpointing: bool) -> LtrSystem:
    config = LtrConfig(
        batch_max_edits=3,
        checkpoint_interval=INTERVAL if checkpointing else FULL_REPLAY_INTERVAL,
    )
    system = LtrSystem(ltr_config=config, seed=seed, latency=ConstantLatency(0.004))
    system.bootstrap(PEERS)
    return system


def drive_history(system: LtrSystem, *, seed: int, batched: bool, steps: int) -> None:
    """The identical seeded two-writer editing run, on either deployment."""
    rng = RandomStreams(seed).stream("diff-history")
    writers = system.peer_names()[:2]
    for step in range(steps):
        writer = rng.choice(writers)
        lines = [f"{KEY} l{line} s{step} by {writer}"
                 for line in range(rng.randint(1, 4))]
        text = "\n".join(lines)
        if batched:
            system.stage(writer, KEY, text)
        else:
            system.edit_and_commit(writer, KEY, text)
    if batched:
        for writer in writers:
            system.flush(writer, KEY)
    system.run_for(1.0)  # let checkpoint/log replication settle


def add_cold_local_edits(system: LtrSystem, cold: str, *, mode: str) -> None:
    """Give the cold peer local tentative state before it synchronises."""
    user = system.user(cold)
    if mode == "pending":
        user.edit(KEY, f"local draft by {cold}\nsecond local line")
    elif mode == "staged":
        user.stage(KEY, f"staged one by {cold}")
        user.stage(KEY, f"staged one by {cold}\nstaged two")


def run_differential(seed: int, *, batched: bool, mode: str,
                     arm: str = "checkpoint") -> None:
    steps = 10 + (seed % 5)  # history varies per seed, always > INTERVAL
    fast = build_system(seed, checkpointing=True)
    full = build_system(seed, checkpointing=False)
    for system in (fast, full):
        drive_history(system, seed=seed, batched=batched, steps=steps)
    assert fast.last_ts(KEY) == full.last_ts(KEY) == steps

    cold = fast.peer_names()[2]
    assert cold == full.peer_names()[2]
    for system in (fast, full):
        add_cold_local_edits(system, cold, mode=mode)
    drop_master_tail(full, KEY)
    if arm == "checkpoint":
        drop_master_tail(fast, KEY)

    log_reads = fast.network.stats.per_method.get("fetch_many", 0)
    fast_result = fast.sync(cold, KEY)
    full_result = full.sync(cold, KEY)

    assert full_result.checkpoint_ts is None
    assert full_result.retrieved_patches == steps
    if arm == "checkpoint":
        # The fast path really ran: it bootstrapped from a snapshot and
        # fetched strictly fewer patches than the full replay.
        assert fast_result.used_checkpoint, f"seed {seed}: no checkpoint used"
        assert fast_result.retrieved_patches < full_result.retrieved_patches
    else:
        # The Master's answer carried the whole history: nothing was probed
        # or read from the log, and nothing was skipped.
        assert fast_result.checkpoint_ts is None, f"seed {seed}: checkpoint probed"
        assert fast.network.stats.per_method.get("fetch_many", 0) == log_reads
        assert fast_result.retrieved_patches == full_result.retrieved_patches

    # The differential property: byte-identical validated state.
    fast_replica = fast.user(cold).document(KEY)
    full_replica = full.user(cold).document(KEY)
    assert fast_replica.applied_ts == full_replica.applied_ts == steps
    assert fast_replica.lines == full_replica.lines

    # Local tentative edits survived the jump and remain committable.
    if mode == "pending":
        for system in (fast, full):
            assert system.user(cold).has_pending(KEY)
            commit = system.commit(cold, KEY)
            assert commit is not None and commit.ts == steps + 1
    elif mode == "staged":
        for system in (fast, full):
            batch = system.user(cold).batch(KEY)
            assert batch is not None and len(batch) == 2
            flush = system.flush(cold, KEY)
            assert flush is not None and flush.first_ts == steps + 1
    assert fast.last_ts(KEY) == full.last_ts(KEY)

    # And every paper invariant holds on both deployments afterwards
    # (including the checkpoint-placement invariant on the fast one).
    assert_system_invariants(fast, [KEY])
    assert_system_invariants(full, [KEY])


def mode_for(seed: int, batched: bool) -> str:
    modes = ("none", "pending", "staged") if batched else ("none", "pending")
    return modes[seed % len(modes)]


@pytest.mark.parametrize("batched", [False, True], ids=["unbatched", "batched"])
@pytest.mark.parametrize("seed", [2, 13])
def test_checkpoint_sync_matches_full_replay_smoke(seed, batched):
    """Quick differential check (always runs; the 25-seed sweep is `slow`)."""
    run_differential(seed, batched=batched, mode=mode_for(seed, batched))


@pytest.mark.parametrize("mode", ["pending", "staged"])
def test_checkpoint_sync_preserves_local_edits_every_mode(mode):
    """Each local-edit mode explicitly, on staged chains."""
    run_differential(7, batched=True, mode=mode)


@pytest.mark.slow
@pytest.mark.parametrize("batched", [False, True], ids=["unbatched", "batched"])
@pytest.mark.parametrize("seed", list(SEEDS))
def test_checkpoint_sync_matches_full_replay(seed, batched):
    """The acceptance sweep: >= 25 seeds per chain length."""
    run_differential(seed, batched=batched, mode=mode_for(seed, batched))


@pytest.mark.parametrize("batched", [False, True], ids=["unbatched", "batched"])
@pytest.mark.parametrize("seed", [2, 13])
def test_tail_sync_matches_full_replay_smoke(seed, batched):
    """The cold sync served from the Master's answer (the 25-seed sweep is `slow`)."""
    run_differential(seed, batched=batched, mode=mode_for(seed, batched), arm="tail")


@pytest.mark.parametrize("mode", ["pending", "staged"])
def test_tail_sync_preserves_local_edits_every_mode(mode):
    run_differential(7, batched=True, mode=mode, arm="tail")


@pytest.mark.slow
@pytest.mark.parametrize("batched", [False, True], ids=["unbatched", "batched"])
@pytest.mark.parametrize("seed", list(SEEDS))
def test_tail_sync_matches_full_replay(seed, batched):
    run_differential(seed, batched=batched, mode=mode_for(seed, batched), arm="tail")
