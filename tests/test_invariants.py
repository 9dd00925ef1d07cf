"""Reusable invariant checkers for the P2P-LTR commit pipeline.

The paper's guarantees — dense, gap-free timestamps per document; a
prefix-complete P2P-Log readable from every peer; OT convergence of all
replicas — must hold whatever the chain length: through ``edit``/``commit``
(chains of one patch, ids ``unbatched``) *and* through ``stage``/``flush``
(chains of several, ids ``batched``).  This module provides the checkers as
plain functions (also imported by ``test_commit_fuzz.py``) and asserts them
over randomized, seeded multi-writer runs of both fronts.
"""

import pytest

from repro.core import CommitBatch, LtrConfig, LtrSystem
from repro.core import master as master_module
from repro.core import user_peer as user_peer_module
from repro.core.consistency import replay_log, verify_log_continuity
from repro.errors import ConfigurationError, ReproError, ValidationFailed
from repro.net import ConstantLatency
from repro.sim.rng import RandomStreams

import diff_paths

# ------------------------------------------------------------- checkers --


def assert_timestamps_dense(system: LtrSystem, key: str):
    """The timestamp sequence of ``key`` is 1..last_ts with no gap or dupe."""
    last_ts = system.last_ts(key)
    client = system.log_client()
    entries = system.runtime.run(
        until=system.runtime.process(verify_log_continuity(client, key, last_ts))
    )
    observed = [entry.ts for entry in entries]
    assert observed == list(range(1, last_ts + 1)), (
        f"timestamps of {key!r} are not dense: {observed}"
    )
    return entries


def assert_log_prefix_complete(system: LtrSystem, key: str) -> None:
    """Every live peer can retrieve the full log prefix 1..last_ts of ``key``."""
    last_ts = system.last_ts(key)
    for name in system.peer_names():
        client = system.log_client(via=name)
        entries = system.runtime.run(
            until=system.runtime.process(client.fetch_range(key, 1, last_ts))
        )
        assert len(entries) == last_ts, (
            f"peer {name} retrieved {len(entries)}/{last_ts} entries of {key!r}"
        )


def assert_replicas_converge(system: LtrSystem, key: str):
    """After syncing, all replicas of ``key`` equal the canonical log replay."""
    report = system.check_consistency(key)
    assert report.log_continuous, f"log of {key!r} is not continuous"
    assert report.converged, (
        f"{report.distinct_contents} distinct replica contents for {key!r} "
        f"at ts {report.last_ts}"
    )
    return report


def assert_checkpoint_placements(system: LtrSystem, key: str):
    """Every retained checkpoint of ``key`` is correct, placed and reachable.

    The checkpoint-placement invariant of the checkpointing subsystem: each
    timestamp listed in the document's checkpoint index must resolve to a
    retrievable snapshot whose content equals the canonical replay of log
    entries ``1 .. ts``, and at least one peer currently responsible for a
    placement of the ``Hc`` hash family must hold a copy (hand-off on
    churn keeps placements with the responsible arc).
    """
    client = system.log_client()
    index = system.runtime.run(until=system.runtime.process(client.fetch_checkpoint_index(key)))
    if not index:
        return ()
    assert list(index) == sorted(index, reverse=True), (
        f"checkpoint index of {key!r} is not newest-first: {index}"
    )
    for ts in index:
        checkpoint = system.runtime.run(
            until=system.runtime.process(client.fetch_checkpoint(key, ts))
        )
        assert checkpoint.document_key == key and checkpoint.ts == ts
        entries = system.runtime.run(
            until=system.runtime.process(client.fetch_range(key, 1, ts))
        )
        canonical = replay_log(key, entries)
        assert list(checkpoint.lines) == canonical.lines, (
            f"checkpoint {key!r}@{ts} does not match the log replay"
        )
        held = sum(
            1
            for storage_key, identifier in client.checkpoint_placements(key, ts)
            if system.ring.responsible_node_for_id(identifier).storage.value(storage_key)
            == checkpoint
        )
        assert held >= 1, f"no responsible peer holds checkpoint {key!r}@{ts}"
    return index


def assert_proposals_landed_once(key: str, entries) -> None:
    """No proposal identity (author + number) is in the log of ``key`` twice."""
    landed_at: dict = {}
    for entry in entries:
        if entry.proposal is not None:
            first_ts = landed_at.setdefault((entry.author, entry.proposal), entry.ts)
            assert first_ts == entry.ts, (
                f"proposal {entry.proposal} of {entry.author} is in the log of "
                f"{key!r} twice: ts {first_ts} and ts {entry.ts}"
            )


def assert_system_invariants(system: LtrSystem, keys) -> None:
    """All three paper invariants, at-most-once and checkpoint placement,
    over every given key."""
    for key in keys:
        assert_proposals_landed_once(key, assert_timestamps_dense(system, key))
        assert_log_prefix_complete(system, key)
        assert_replicas_converge(system, key)
        assert_checkpoint_placements(system, key)


def drop_master_tail(system: LtrSystem, key: str) -> None:
    """Make the Master of ``key`` forget the entries it holds in memory, as a
    takeover leaves it: the next reader is served by the checkpoints and the
    P2P-Log, not by the Master's answer."""
    system.master_service(key)._tails.pop(key, None)


# ------------------------------------------------------ randomized runs --


def build_system(peers: int = 8, seed: int = 0, **ltr_overrides) -> LtrSystem:
    system = LtrSystem(
        ltr_config=LtrConfig(**ltr_overrides) if ltr_overrides else LtrConfig(),
        seed=seed,
        latency=ConstantLatency(0.004),
    )
    system.bootstrap(peers)
    return system


def run_random_workload(system: LtrSystem, *, seed: int, keys, writers,
                        steps: int, batched: bool) -> int:
    """Drive a deterministic pseudo-random multi-writer editing run.

    Returns the number of edits that were issued.  Transient commit
    failures (churn-free here, so none are expected) would propagate.
    """
    rng = RandomStreams(seed).stream("workload")
    issued = 0
    for step in range(steps):
        writer = rng.choice(writers)
        key = rng.choice(keys)
        lines = [f"{key} line {index} rev {step} by {writer}"
                 for index in range(rng.randint(1, 4))]
        text = "\n".join(lines)
        if batched:
            system.stage(writer, key, text)
        else:
            system.edit_and_commit(writer, key, text)
        issued += 1
    if batched:
        for writer in writers:
            for key in keys:
                system.flush(writer, key)
    return issued


@pytest.mark.parametrize("batched", [False, True], ids=["unbatched", "batched"])
@pytest.mark.parametrize("seed", [3, 41, 2024])
def test_randomized_runs_preserve_all_invariants(seed, batched):
    overrides = {"batch_max_edits": 3} if batched else {}
    system = build_system(peers=8, seed=seed, **overrides)
    keys = ["xwiki:inv-a", "xwiki:inv-b"]
    writers = system.peer_names()[:3]
    issued = run_random_workload(
        system, seed=seed, keys=keys, writers=writers, steps=14, batched=batched
    )
    assert issued == 14
    assert sum(system.last_ts(key) for key in keys) == issued
    assert_system_invariants(system, keys)


def test_batched_and_unbatched_paths_agree_on_canonical_state():
    """Chain length does not change the outcome: the same edit sequence
    committed through ``edit``/``commit``, as k one-patch chains, as chains
    of four or as one chain of k yields the same converged text and the
    same dense log, entry for entry."""
    texts = [f"rev {index}\nshared tail" for index in range(6)]
    key = "xwiki:agree"

    def log_of(system):
        return [(entry.ts, entry.base_ts, entry.author, entry.patch.operations)
                for entry in system.fetch_log(key, 1, system.last_ts(key))]

    plain = build_system(peers=6, seed=9)
    for text in texts:
        plain.edit_and_commit("peer-0", key, text)
    plain_report = assert_replicas_converge(plain, key)
    assert plain_report.last_ts == len(texts)

    for chain_length in (1, 4, len(texts)):
        staged = build_system(peers=6, seed=9, batch_max_edits=chain_length)
        for text in texts:
            staged.stage("peer-0", key, text)
        staged.flush("peer-0", key)
        staged_report = assert_replicas_converge(staged, key)
        assert staged_report.last_ts == plain_report.last_ts
        assert staged_report.canonical_lines == plain_report.canonical_lines
        assert log_of(staged) == log_of(plain)
        proposals = staged.master_service(key).statistics()["proposals_ok"]
        assert proposals == -(-len(texts) // chain_length)


@pytest.mark.parametrize("further", [0, 1])
@pytest.mark.parametrize("variant", diff_paths.IN_DOUBT_VARIANTS)
def test_both_saving_verbs_agree_after_a_commit_left_in_doubt(variant, further):
    """... and neither does the verb when a commit fails although it landed:
    the reply is lost after the publish, ``further`` saves follow, somebody
    else commits, the writer goes on (``diff_paths.run_in_doubt``) — through
    ``edit``/``commit`` and through ``stage``/``flush`` (bound: the patch in
    doubt and the saves behind it, each one a chain of one otherwise) the
    same log, entry for entry, identities included, and the same replicas."""
    reports = {}
    for staged in (False, True):
        report = diff_paths.run_in_doubt(9, variant, staged=staged, further=further,
                                         max_edits=1 + further)
        report.assert_invariants(f"in doubt / {variant} / staged={staged}")
        assert report.failed_commits == 1  # the one that had landed
        reports[staged] = report
    assert reports[True].dump == reports[False].dump
    assert len(reports[True].logged[diff_paths.IN_DOUBT_KEY]) == (
        5 if variant == "discard-then-edit" else 4 + further
    )


def test_concurrent_batched_flushes_converge():
    """Contending batches are serialized, rebased and still converge."""
    system = build_system(peers=10, seed=13, batch_max_edits=8)
    key = "xwiki:contend"
    first, second = system.peer_names()[:2]
    for index in range(3):
        system.user(first).stage(key, f"alpha-{index}\ncommon")
    for index in range(2):
        system.user(second).stage(key, f"common\nbeta-{index}")
    results = system.run_concurrent_flushes([(first, key), (second, key)])
    assert len(results) == 2
    assert {result.first_ts for result in results} == {1, 4}
    assert any(result.retrieved_patches > 0 for result in results)
    assert_system_invariants(system, [key])


# ----------------------------------------------------- unit-level gates --


def test_edit_and_stage_share_one_chain():
    """One chain per document: ``stage`` adds a patch to it, ``edit`` wraps a
    save into its last patch, and every other verb sees just the chain."""
    system = build_system(peers=6, seed=5)
    key = "xwiki:fronts"
    user = system.user("peer-0")
    user.edit(key, "first")
    user.stage(key, "first\nsecond")
    assert user.has_pending(key) and len(user.batch(key)) == 2
    user.edit(key, "first\nsecond\nthird")  # joins the staged patch
    assert len(user.batch(key)) == 2
    assert user.working_lines(key) == user.staged_lines(key) == ["first", "second", "third"]
    result = system.commit("peer-0", key)
    assert (result.first_ts, result.ts, result.edits) == (1, 2, 2)
    inserted = [[operation.line for operation in entry.patch.operations]
                for entry in system.fetch_log(key, 1, 2)]
    assert inserted == [["first"], ["second", "third"]]
    assert not user.has_pending(key) and user.batch(key) is None
    # The deadline runs from a chain's first save, whichever verb made it.
    user.edit(key, "first\nsecond\nthird\nfourth")
    assert system.flush_due() == []
    system.run_for(CommitBatch.deadline + 0.5)
    assert [outcome.ts for outcome in system.flush_due()] == [3]
    user.stage(key, "dropped")
    user.discard_pending(key)
    assert user.working_lines(key) == ["first", "second", "third", "fourth"]
    assert_system_invariants(system, [key])


def test_edit_refused_while_a_flush_is_in_flight():
    """edit() mid-flush would base its patch on the pre-flush replica."""
    system = build_system(peers=8, seed=61, batch_max_edits=8)
    key = "xwiki:midflight"
    user = system.user("peer-0")
    for index in range(3):
        user.stage(key, f"staged {index}\ncommon")
    flush = system.runtime.process(user.flush(key))
    system.runtime.run(until=system.runtime.now + 0.001)  # flush now awaits the Master
    with pytest.raises(ConfigurationError):
        user.edit(key, "edit() during flush")
    with pytest.raises(ConfigurationError):
        user.stage(key, "staged during flush")
    outcome = system.runtime.run(until=flush)
    assert outcome is not None and outcome.edits == 3
    assert_system_invariants(system, [key])


def test_noop_stage_does_not_start_the_deadline_clock():
    system = build_system(peers=6, seed=67, batch_max_edits=16)
    key = "xwiki:noop-deadline"
    user = system.user("peer-0")
    user.stage(key, "")  # a no-op against the empty document: opens nothing
    assert user.batch(key) is None
    system.run_for(5.0)  # well past the deadline
    user.stage(key, "first real edit")
    batch = user.batch(key)
    assert batch is not None and len(batch) == 1
    assert not batch.due(system.runtime.now)  # the clock started at the real edit
    system.run_for(batch.deadline + 0.5)
    assert batch.due(system.runtime.now)


def test_commit_batch_size_and_deadline_bounds():
    batch = CommitBatch(key="doc", opened_at=10.0, max_edits=2, deadline=1.0)
    assert not batch.due(now=10.5)  # empty: never due
    from repro.ot import InsertLine, Patch
    batch.add(Patch((InsertLine(0, "a"),), base_ts=0))
    assert not batch.full and not batch.due(now=10.5)
    assert batch.due(now=11.0)  # past the deadline
    batch.add(Patch((InsertLine(0, "b"),), base_ts=0))
    assert batch.full and batch.due(now=10.0)
    # (Pinned a bare ValueError, which reached ``stage``'s caller after a
    # failed flush had left a full chain; typed now, same message.)
    with pytest.raises(ConfigurationError, match="flush it first"):
        batch.add(Patch((InsertLine(0, "c"),), base_ts=0))
    with pytest.raises(ValueError):
        CommitBatch(key="doc", opened_at=0.0, max_edits=0)


def test_flush_due_respects_the_deadline():
    system = build_system(peers=6, seed=21, batch_max_edits=16)
    key = "xwiki:deadline"
    system.user("peer-0").stage(key, "first revision")
    assert system.flush_due() == []  # too young
    system.run_for(CommitBatch.deadline + 0.5)
    results = system.flush_due()
    assert [result.edits for result in results] == [1]
    assert system.last_ts(key) == 1
    assert_system_invariants(system, [key])


def test_next_timestamps_allocates_dense_ranges():
    system = build_system(peers=6, seed=33)
    key = "xwiki:ranges"
    authority = system.ring.responsible_node_for_id(system.ht(key)).service("kts")
    assert authority.next_timestamps(key, 5) == 1
    assert authority.next_timestamps(key, 1) == 6
    assert authority.next_timestamps(key, 3) == 7
    assert authority.last_ts(key) == 9
    assert authority.allocations == 3
    assert authority.range_allocations == 2  # the two count>1 calls
    with pytest.raises(ValueError):
        authority.next_timestamps(key, 0)


# ------------------------------------------------------- checkpointing --


def test_randomized_checkpointed_runs_preserve_all_invariants():
    """The paper invariants plus checkpoint placement, checkpointing often."""
    for batched in (False, True):
        overrides = {"checkpoint_interval": 3}
        if batched:
            overrides["batch_max_edits"] = 3
        system = build_system(peers=8, seed=77, **overrides)
        keys = ["xwiki:ckpt-a", "xwiki:ckpt-b"]
        writers = system.peer_names()[:3]
        run_random_workload(
            system, seed=77, keys=keys, writers=writers, steps=14, batched=batched
        )
        assert_system_invariants(system, keys)
        assert any(
            assert_checkpoint_placements(system, key) for key in keys
        ), "no checkpoint was ever taken"


def test_checkpoints_survive_responsible_peer_departure():
    """Hand-off on churn keeps checkpoints reachable (placement invariant)."""
    system = build_system(peers=12, seed=29, checkpoint_interval=3)
    key = "xwiki:ckpt-churn"
    writer = system.peer_names()[0]
    for index in range(8):
        system.edit_and_commit(writer, key, f"revision {index}\nshared tail")
    system.run_for(2.0)  # let checkpoint/log replicas settle
    client = system.log_client()
    index = system.runtime.run(until=system.runtime.process(client.fetch_checkpoint_index(key)))
    assert index and index[0] == 6  # checkpoints at ts 3 and 6, newest first
    newest = index[0]

    # Depart every peer responsible for a placement of the newest
    # checkpoint — graceful leaves and a crash, both churn paths.
    victims = []
    for _storage_key, identifier in client.checkpoint_placements(key, newest):
        owner = system.ring.responsible_node_for_id(identifier).address.name
        if owner != writer and owner not in victims:
            victims.append(owner)
    assert victims, "every placement resolved to the writer; adjust the seed"
    for position, victim in enumerate(victims):
        if victim not in system.peer_names():
            continue  # already gone via an earlier victim's hand-off
        if position % 2:
            system.crash(victim)
        else:
            system.leave(victim)
    system.run_for(3.0)

    # The newest checkpoint survived via hand-off / replica promotion...
    survivor = system.runtime.run(
        until=system.runtime.process(
            system.log_client().latest_checkpoint(key, system.last_ts(key))
        )
    )
    assert survivor is not None and survivor.ts == newest
    # ...a cold peer still fast-paths from it...
    cold = next(name for name in system.peer_names() if name != writer)
    drop_master_tail(system, key)
    result = system.sync(cold, key)
    assert result.checkpoint_ts == newest
    assert result.retrieved_patches == system.last_ts(key) - newest
    # ...and all invariants (incl. checkpoint placement) hold after churn.
    assert_system_invariants(system, [key])


def test_sync_falls_back_to_full_replay_when_checkpoints_unreachable():
    """No reachable checkpoint replica => the paper's full replay, silently."""
    system = build_system(peers=8, seed=31, checkpoint_interval=3)
    key = "xwiki:ckpt-fallback"
    writer = system.peer_names()[0]
    for index in range(7):
        system.edit_and_commit(writer, key, f"revision {index}")
    system.run_for(2.0)  # the checkpoints are written after the commits are answered
    client = system.log_client()
    index = system.runtime.run(until=system.runtime.process(client.fetch_checkpoint_index(key)))
    assert index

    # Stage 1: every checkpoint replica is gone but the index survives —
    # the probe misses every listed timestamp and replays the full log.
    for ts in index:
        system.runtime.run(until=system.runtime.process(client.gc_checkpoint(key, ts)))
    drop_master_tail(system, key)
    first_cold = system.peer_names()[2]
    result = system.sync(first_cold, key)
    assert result.checkpoint_ts is None
    assert result.retrieved_patches == system.last_ts(key)
    assert system.user(first_cold).document(key).applied_ts == system.last_ts(key)

    # Stage 2: the index itself is unreachable too — same graceful fallback.
    from repro.p2plog import make_checkpoint_index_key
    index_key = make_checkpoint_index_key(key)
    for function in client.checkpoint_family:
        system.runtime.run(
            until=system.runtime.process(
                client.dht.remove(function.placement_key(index_key),
                                  key_id=function(index_key))
            )
        )
    second_cold = system.peer_names()[3]
    result = system.sync(second_cold, key)
    assert result.checkpoint_ts is None
    assert result.retrieved_patches == system.last_ts(key)
    assert_system_invariants(system, [key])  # index gone => invariant vacuous


def test_a_checkpoint_read_with_no_route_falls_back_to_full_replay(monkeypatch):
    """Regression: a ``LookupFailed`` (no route, or the hop bound) on the
    reader's checkpoint-index read is a missing checkpoint, not an error of
    the sync: ``latest_checkpoint`` answers ``None`` and the log is replayed."""
    from repro.errors import LookupFailed
    from repro.p2plog import make_checkpoint_index_key

    system = build_system(peers=8, seed=31, checkpoint_interval=3)
    key = "xwiki:ckpt-no-route"
    writer = system.peer_names()[0]
    for index in range(7):
        system.edit_and_commit(writer, key, f"revision {index}")
    system.run_for(2.0)  # the checkpoints are written after the commits are answered
    cold = system.peer_names()[2]
    log = system.user(cold).log
    index_placements = {
        function.placement_key(make_checkpoint_index_key(key))
        for function in log.checkpoint_family
    }
    get = log.dht.get

    def get_without_route(storage_key, **arguments):
        if storage_key in index_placements:
            raise LookupFailed(f"no route towards {storage_key}")
        return (yield from get(storage_key, **arguments))

    monkeypatch.setattr(log.dht, "get", get_without_route)
    probe = log.latest_checkpoint(key, system.last_ts(key))
    assert system.runtime.run(until=system.runtime.process(probe)) is None
    drop_master_tail(system, key)
    result = system.sync(cold, key)
    assert result.checkpoint_ts is None
    assert result.retrieved_patches == system.last_ts(key) == 7
    assert_system_invariants(system, [key])


def test_the_default_config_checkpoints_a_long_history():
    """Checkpoints are on for everyone: a cold reader of a history longer
    than the default interval (64) bootstraps from a checkpoint."""
    system = build_system(peers=8, seed=43)
    interval = system.ltr_config.checkpoint_interval
    assert interval == 64
    key = "xwiki:ckpt-default"
    writer = system.peer_names()[0]
    for index in range(interval + 6):
        system.edit_and_commit(writer, key, f"revision {index}")
    system.run_for(2.0)  # the checkpoint is written after the commit is answered
    drop_master_tail(system, key)
    result = system.sync(system.peer_names()[2], key)
    assert result.checkpoint_ts == interval
    assert result.retrieved_patches == 6
    assert_system_invariants(system, [key])


def test_checkpoint_index_survives_out_of_order_writes(monkeypatch):
    """Regression: a late write for an *older* ts must not drop newer entries.

    The index update is a read-modify-write; if it filtered the stored
    index against its own timestamp, a job that completes after a newer
    checkpoint landed would erase that newer entry — leaving an unindexed
    (hence never-collected) snapshot in the DHT and sending readers to an
    older bootstrap point.
    """
    monkeypatch.setattr(master_module, "CHECKPOINT_RETENTION", 3)
    system = build_system(peers=8, seed=41, checkpoint_interval=3)
    key = "xwiki:ckpt-order"
    writer = system.peer_names()[0]
    for index in range(7):
        system.edit_and_commit(writer, key, f"revision {index}")
    service = system.master_service(key)
    # Checkpoints exist at ts 3 and 6; now a straggler job writes ts 5
    # (content rebuilt from checkpoint 3 + the log suffix).
    system.runtime.run(until=system.runtime.process(service._write_checkpoint(key, 5, None)))
    client = system.log_client()
    stored = system.runtime.run(until=system.runtime.process(client.fetch_checkpoint_index(key)))
    assert list(stored) == [6, 5, 3]
    assert system.latest_checkpoint(key).ts == 6
    assert_system_invariants(system, [key])  # ts-5 snapshot matches the replay


def test_gc_checkpoints_trims_beyond_the_retention_window():
    """The compaction story: old snapshots leave the DHT as new ones land."""
    system = build_system(peers=8, seed=37, checkpoint_interval=2)
    key = "xwiki:ckpt-gc"
    writer = system.peer_names()[0]
    for index in range(9):
        system.edit_and_commit(writer, key, f"revision {index}")
    system.run_for(2.0)  # the checkpoints are written after the commits are answered
    client = system.log_client()
    index = system.runtime.run(until=system.runtime.process(client.fetch_checkpoint_index(key)))
    assert master_module.CHECKPOINT_RETENTION == 2
    assert list(index) == [8, 6]  # ts 2 and 4 were collected
    from repro.errors import CheckpointUnavailable
    for collected in (2, 4):
        with pytest.raises(CheckpointUnavailable):
            system.runtime.run(
                until=system.runtime.process(client.fetch_checkpoint(key, collected))
            )
    assert system.gc_checkpoints(key) == 0  # idempotent: window already applied
    assert_system_invariants(system, [key])


def test_validation_failure_restages_the_batch(monkeypatch):
    """A flush that cannot complete puts the (rebased) edits back.

    (The proposer used to fail by being stale with a budget of one attempt;
    a stale chain whose gap the Master holds is committed in one attempt now,
    so the Master is made to forget the gap: *behind*, and the budget is
    spent.)
    """
    monkeypatch.setattr(user_peer_module, "MAX_VALIDATION_ATTEMPTS", 1)
    system = build_system(peers=6, seed=55, batch_max_edits=8)
    key = "xwiki:restage"
    # Make the proposer stale: another peer commits out from under it.
    user = system.user("peer-0")
    user.stage(key, "staged once")
    other = system.peer_names()[1]
    system.edit_and_commit(other, key, "committed first")
    drop_master_tail(system, key)
    with pytest.raises(ValidationFailed):
        system.flush("peer-0", key)
    restaged = user.batch(key)
    assert restaged is not None and len(restaged) == 1
    assert restaged.patches[0].base_ts == 1  # rebased over what was retrieved
    assert system.last_ts(key) == 1  # nothing of it was committed
    # After syncing, the retried flush lands cleanly.
    system.sync("peer-0", key)
    result = system.flush("peer-0", key)
    assert result is not None and result.first_ts == 2
    assert_system_invariants(system, [key])


def test_failed_retrieval_restores_the_pending_edit():
    """Regression: a commit whose behind-path retrieval raises used to drop
    the user's tentative patch (only an unreachable Master or an exhausted
    attempt budget put it back)."""
    from repro.errors import PatchUnavailable

    system = build_system(peers=6, seed=55)
    key = "xwiki:restore"
    user = system.user("peer-0")
    system.edit_and_commit(system.peer_names()[1], key, "committed first")
    user.edit(key, "my draft")

    def unavailable(document_key, from_ts, to_ts):
        raise PatchUnavailable(document_key, from_ts)
        yield  # pragma: no cover - makes this a generator like the original

    plain_fetch_range = user.log.fetch_range
    user.log.fetch_range = unavailable
    # Force the fallback: with its tail in place the Master would hand the
    # missing entry over and the log would not be read at all.
    drop_master_tail(system, key)
    with pytest.raises(PatchUnavailable):
        system.commit("peer-0", key)
    assert user.has_pending(key)
    assert user.working_text(key) == "my draft"
    # Once the log answers again the very same edit commits.
    user.log.fetch_range = plain_fetch_range
    result = system.commit("peer-0", key)
    assert result is not None and result.ts == 2 and result.retrieved_patches == 1
    assert_system_invariants(system, [key])
