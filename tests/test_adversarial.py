"""Adversarial-layer tests: authenticated patches, byzantine peers, detectors.

Mutation gate for the adversarial detectors in ``repro.check``: each test
injects one known misbehavior — a tampered log entry, a replayed patch, a
forked timestamp sequence, a corrupted checkpoint — and asserts the checker
*reports* it (naming the peer custodying the bad copy).  A detector that
stays green under these mutations is decoration, not verification; this is
the CI ``adversarial-smoke`` job's gate.

The first half covers the authenticity layer itself: per-author HMAC
signing over the canonical codec encoding, Master-side rejection of
unsigned/forged commits, and reader-side masking of tampered copies.
"""

from dataclasses import replace

import pytest

from repro.check import ConvergenceChecker
from repro.core import LtrConfig, LtrSystem
from repro.errors import AuthenticationError, ConfigurationError
from repro.faults import (
    BYZANTINE_MODES,
    ByzantinePeer,
    FaultPlan,
    MasterEquivocation,
    MisbehavingStore,
    Nemesis,
    RestoreStorage,
)
from repro.ot import InsertLine, Patch
from repro.p2plog import (
    Checkpoint,
    author_key,
    canonical_bytes,
    make_log_key,
    sign_checkpoint,
    sign_commit,
    verify_checkpoint,
    verify_commit,
    verify_entry,
)

from test_invariants import drop_master_tail

KEY = "xwiki:adversarial"

AUTH_CONFIG = LtrConfig(auth_enabled=True)


def signed_system(seed: int = 7, commits: int = 4, *,
                  config: LtrConfig = AUTH_CONFIG) -> LtrSystem:
    system = LtrSystem(seed=seed, ltr_config=config)
    system.bootstrap(8)
    writer = system.peer_names()[0]
    for index in range(commits):
        system.edit_and_commit(
            writer, KEY, "\n".join(f"line-{line}-rev-{index}" for line in range(3))
        )
    system.run_for(2.0)
    return system


def placement_items(system, ts, key: str = KEY):
    log_key = make_log_key(key, ts)
    found = []
    for function in system.hash_family:
        storage_key = function.placement_key(log_key)
        for node in system.ring.live_nodes():
            item = node.storage.get(storage_key)
            if item is not None:
                found.append((node, storage_key, item))
    return found


# -------------------------------------------------------------- signatures --


def test_canonical_bytes_are_compact_sorted_and_stable():
    patch = Patch(operations=(InsertLine(0, "hello"),), author="alice")
    first = canonical_bytes(("commit", KEY, 1, patch, "alice", None))
    second = canonical_bytes(("commit", KEY, 1, patch, "alice", None))
    assert first == second
    assert b" " not in first  # compact separators, no pretty-printing


def test_sign_and_verify_commit_roundtrip():
    patch = Patch(operations=(InsertLine(0, "hello"),), author="alice")
    key = author_key("secret", "alice")
    signature = sign_commit(key, KEY, 3, patch, "alice", base_ts=2)
    assert verify_commit("secret", signature, KEY, 3, patch, "alice", base_ts=2)
    # Any signed field changing breaks verification.
    assert not verify_commit("secret", signature, KEY, 4, patch, "alice", base_ts=2)
    assert not verify_commit("secret", signature, KEY, 3, patch, "bob", base_ts=2)
    assert not verify_commit("wrong", signature, KEY, 3, patch, "alice", base_ts=2)
    assert not verify_commit("secret", None, KEY, 3, patch, "alice", base_ts=2)


def test_author_keys_are_distinct_per_author():
    assert author_key("secret", "alice") != author_key("secret", "bob")
    assert author_key("secret", "alice") != author_key("other", "alice")


def test_checkpoint_sign_and_verify_roundtrip():
    checkpoint = Checkpoint(document_key=KEY, ts=4, lines=("a", "b"),
                            author="master")
    checkpoint.metadata["sig"] = sign_checkpoint("secret", checkpoint)
    assert verify_checkpoint("secret", checkpoint)
    tampered = replace(checkpoint, lines=("a", "b", "evil"))
    tampered.metadata.update(checkpoint.metadata)
    assert not verify_checkpoint("secret", tampered)


def test_auth_enabled_requires_a_secret():
    with pytest.raises(ConfigurationError):
        LtrConfig(auth_enabled=True, auth_secret="")


# ------------------------------------------------------ master-side checks --


def test_signed_commits_converge_and_entries_carry_signatures():
    system = signed_system()
    for _node, _storage_key, item in placement_items(system, ts=1):
        assert verify_entry(AUTH_CONFIG.auth_secret, item.value)
    checker = ConvergenceChecker(keys=[KEY])
    assert checker.final_check(system).ok


def test_unsigned_submission_is_rejected_when_auth_enabled():
    system = signed_system(commits=1)
    writer = system.peer_names()[0]
    patch = Patch(operations=(InsertLine(0, "forged"),), author=writer)
    client = system.user(writer).dht
    last = system.last_ts(KEY)

    def submit():
        return client.call_owner(KEY, "ltr_validate_and_publish",
                                 key_id=system.ht(KEY), key=KEY, ts=last + 1,
                                 patches=[patch], author=writer)

    with pytest.raises(AuthenticationError):
        system.runtime.run(until=system.runtime.process(submit()))
    service = system.master_service(KEY)
    assert service.statistics()["proposals_auth_rejected"] == 1


def test_forged_signature_is_rejected_when_auth_enabled():
    system = signed_system(commits=1)
    writer = system.peer_names()[0]
    patch = Patch(operations=(InsertLine(0, "forged"),), author=writer)
    client = system.user(writer).dht
    last = system.last_ts(KEY)

    def submit():
        return client.call_owner(KEY, "ltr_validate_and_publish",
                                 key_id=system.ht(KEY), key=KEY, ts=last + 1,
                                 patches=[patch], author=writer,
                                 signatures=["not-a-real-hmac"])

    with pytest.raises(AuthenticationError):
        system.runtime.run(until=system.runtime.process(submit()))


def signed_proposal(secret, author, ts, line, *, forged=False):
    """The RPC arguments of ``author``'s signed chain of one at ``ts``."""
    patch = Patch(operations=(InsertLine(0, line),), base_ts=ts - 1, author=author)
    signature = sign_commit(author_key(secret, author), KEY, ts, patch, author,
                            base_ts=ts - 1)
    return dict(key=KEY, ts=ts, patches=[patch], author=author, base_ts=ts - 1,
                signatures=["not-a-real-hmac" if forged else signature])


def test_bad_signature_in_the_middle_of_a_group_fails_that_proposer_alone():
    """Isolation: proposals queued behind a publish are served as one group;
    the one whose signature does not verify gets ``AuthenticationError``, the
    others land densely around it, every logged entry verifies."""
    system = signed_system(commits=1)
    secret = AUTH_CONFIG.auth_secret
    master = system.master_service(KEY)
    lanes = [system.runtime.process(master.validate_and_publish(**arguments))
             for arguments in (
                 signed_proposal(secret, "holder", 2, "holds the lock"),
                 signed_proposal(secret, "alice", 3, "next"),
                 signed_proposal(secret, "mallory", 4, "forged", forged=True),
                 signed_proposal(secret, "bob", 4, "next but one"))]
    holder, alice = (system.runtime.run(until=lane) for lane in lanes[:2])
    with pytest.raises(AuthenticationError, match="mallory"):
        system.runtime.run(until=lanes[2])
    bob = system.runtime.run(until=lanes[3])
    assert [(answer["status"], answer["first_ts"]) for answer in (holder, alice, bob)] == \
        [("ok", 2), ("ok", 3), ("ok", 4)]
    stats = master.statistics()
    assert (stats["proposals_auth_rejected"], stats["proposals_ok"],
            stats["publishes"]) == (1, 4, 3)  # one commit before, the holder, the group
    entries = system.fetch_log(KEY, 1, 4)
    assert [entry.author for entry in entries[1:]] == ["holder", "alice", "bob"]
    assert all(verify_entry(secret, entry) for entry in entries)
    assert system.last_ts(KEY) == 4


def test_batched_signed_commits_converge():
    config = replace(AUTH_CONFIG, batch_max_edits=4)
    system = LtrSystem(seed=11, ltr_config=config)
    system.bootstrap(6)
    writer = system.peer_names()[0]
    for index in range(8):
        system.stage(writer, KEY, f"batched revision {index}")
    system.flush(writer, KEY)
    system.run_for(2.0)
    assert system.last_ts(KEY) > 0
    assert ConvergenceChecker(keys=[KEY]).final_check(system).ok


# ----------------------------------------------------- reader-side masking --


def test_tampered_copy_is_skipped_at_retrieval():
    """A reader hunting the log must skip a copy failing verification."""
    system = signed_system()
    items = placement_items(system, ts=2)
    for node, storage_key, item in items:
        bad = replace(
            item.value,
            patch=item.value.patch.with_operations(
                tuple(item.value.patch.operations)
                + (InsertLine(0, "<tampered>"),)
            ),
        )
        bad.metadata.update(item.value.metadata)  # keep the now-stale sig
        node.storage.put(storage_key, bad, is_replica=item.is_replica,
                         now=system.runtime.now, key_id=item.key_id)
        break  # tamper exactly one copy; honest copies remain
    drop_master_tail(system, KEY)  # the reader has to hunt the log
    reader = system.peer_names()[1]
    system.sync(reader, KEY)
    replica = system.user(reader).documents[KEY]
    assert replica.applied_ts == system.last_ts(KEY)
    assert "<tampered>" not in "\n".join(replica.lines)


def test_all_copies_tampered_raises_authentication_error():
    system = signed_system()
    for node, storage_key, item in placement_items(system, ts=2):
        bad = replace(item.value, author=item.value.author + "?")
        bad.metadata.update(item.value.metadata)
        node.storage.put(storage_key, bad, is_replica=item.is_replica,
                         now=system.runtime.now, key_id=item.key_id)
    drop_master_tail(system, KEY)
    reader = system.peer_names()[1]
    system.forget_user(reader)  # cold replica: must fetch ts 2 from the DHT
    with pytest.raises(AuthenticationError):
        system.sync(reader, KEY)


# ----------------------------------------------- mutation gate: detectors --


def test_mutation_tampered_entry_is_reported_with_custodian():
    system = signed_system()
    items = placement_items(system, ts=3)
    node, storage_key, item = items[0]
    bad = replace(
        item.value,
        patch=item.value.patch.with_operations(
            tuple(item.value.patch.operations) + (InsertLine(0, "<evil>"),)
        ),
    )
    bad.metadata.update(item.value.metadata)
    node.storage.put(storage_key, bad, is_replica=item.is_replica,
                     now=system.runtime.now, key_id=item.key_id)
    snapshot = ConvergenceChecker(keys=[KEY]).check_now(system)
    assert any("fails signature verification" in violation
               for violation in snapshot.violations)
    assert snapshot.keys[KEY]["tampered_ts"] == [3]
    findings = [record for record in snapshot.structured
                if record["kind"] == "tampered-entry"]
    assert findings and findings[0]["peer"] == node.address.name
    assert findings[0]["ts"] == 3


def test_mutation_replayed_patch_is_reported():
    """An old entry re-stamped at a new timestamp fails its signature."""
    system = signed_system()
    node, _storage_key, item = placement_items(system, ts=1)[0]
    replayed = replace(item.value, ts=4)
    replayed.metadata.update(item.value.metadata)  # sig binds ts=1, not 4
    log_key = make_log_key(KEY, 4)
    function = system.hash_family[0]
    node.storage.put(function.placement_key(log_key), replayed,
                     now=system.runtime.now, key_id=function(log_key))
    snapshot = ConvergenceChecker(keys=[KEY]).check_now(system)
    assert 4 in snapshot.keys[KEY]["tampered_ts"]
    assert any(record["kind"] == "tampered-entry" and record["ts"] == 4
               for record in snapshot.structured)


def test_mutation_forked_timestamp_sequence_names_the_master():
    """Placement-aligned divergence is attributed to the Master-key peer."""
    system = signed_system()
    master = system.master_of(KEY)
    service = system.ring.node(master).service("ltr-master")
    service.equivocate_next = 1
    writer = system.peer_names()[0]
    system.edit_and_commit(writer, KEY, "post-fork revision")
    assert service.statistics()["equivocations"] == 1
    snapshot = ConvergenceChecker(keys=[KEY]).check_now(system)
    forked = [record for record in snapshot.structured
              if record["kind"] == "forked"]
    assert forked and forked[0]["peer"] == master
    assert snapshot.keys[KEY]["forked_ts"] == [forked[0]["ts"]]
    assert any("forked by Master-key peer" in violation
               for violation in snapshot.violations)


def test_equivocation_forks_every_armed_entry_of_a_staged_chain():
    """The fork is applied per published entry, whatever the chain length."""
    system = signed_system()
    master = system.master_of(KEY)
    service = system.ring.node(master).service("ltr-master")
    service.equivocate_next = 2
    writer = system.peer_names()[0]
    base = system.last_ts(KEY)
    for index in range(3):
        system.user(writer).stage(KEY, f"staged revision {index}")
    outcome = system.flush(writer, KEY)
    assert (outcome.first_ts, outcome.ts) == (base + 1, base + 3)
    assert service.statistics()["equivocations"] == 2
    assert service.equivocate_next == 0
    snapshot = ConvergenceChecker(keys=[KEY]).check_now(system)
    assert snapshot.keys[KEY]["forked_ts"] == [base + 1, base + 2]
    assert {record["peer"] for record in snapshot.structured
            if record["kind"] == "forked"} == {master}


def test_equivocation_armed_for_two_forks_exactly_two_entries_of_a_group_of_three():
    """The knob counts entries of the round, whoever proposed them: a group
    is one chain to it."""
    system = LtrSystem(seed=7, ltr_config=LtrConfig())
    system.bootstrap(8)
    system.edit_and_commit(system.peer_names()[0], KEY, "base")
    service = system.master_service(KEY)

    def propose(author, ts):
        patch = Patch(operations=(InsertLine(0, f"by {author}"),), base_ts=ts - 1,
                      author=author)
        return system.runtime.process(service.validate_and_publish(
            key=KEY, ts=ts, patches=[patch], author=author, base_ts=ts - 1))

    lanes = [propose("holder", 2)] + [propose(f"u{member}", 2) for member in range(3)]
    system.runtime.run(until=lanes[0])
    service.equivocate_next = 2  # armed while the group of three publishes
    answers = [system.runtime.run(until=lane) for lane in lanes]
    assert [answer["first_ts"] for answer in answers] == [2, 3, 4, 5]
    assert service.statistics()["equivocations"] == 2 and service.equivocate_next == 0
    assert service.statistics()["publishes"] == 3
    snapshot = ConvergenceChecker(keys=[KEY]).check_now(system)
    assert snapshot.keys[KEY]["forked_ts"] == [3, 4]


def test_mutation_corrupted_checkpoint_is_reported():
    config = replace(AUTH_CONFIG, checkpoint_interval=2)
    system = signed_system(commits=4, config=config)
    mutated = None
    for node in system.ring.live_nodes():
        for item in node.storage:
            if isinstance(item.value, Checkpoint):
                bad = replace(item.value,
                              lines=tuple(item.value.lines) + ("<evil>",))
                bad.metadata.update(item.value.metadata)
                node.storage.put(item.key, bad, is_replica=item.is_replica)
                mutated = (node.address.name, item.value.ts)
                break
        if mutated:
            break
    assert mutated is not None, "checkpointing produced no stored snapshot"
    snapshot = ConvergenceChecker(keys=[KEY]).check_now(system)
    findings = [record for record in snapshot.structured
                if record["kind"] == "tampered-checkpoint"]
    assert findings and (findings[0]["peer"], findings[0]["ts"]) == mutated
    assert snapshot.keys[KEY]["tampered_checkpoints"] == [mutated[1]]


def test_detectors_stay_quiet_on_honest_signed_runs():
    system = signed_system()
    checker = ConvergenceChecker(keys=[KEY])
    checker.check_now(system, label="boundary")
    checker.final_check(system)
    assert checker.ok
    assert checker.findings() == []
    assert checker.report()["findings_total"] == 0


# ------------------------------------------------------- byzantine actions --


def test_misbehaving_store_modes_are_validated():
    with pytest.raises(ConfigurationError):
        MisbehavingStore(object(), mode="lie")
    with pytest.raises(ConfigurationError):
        MisbehavingStore(object(), every=0)
    assert set(BYZANTINE_MODES) == {"drop", "corrupt", "replay"}


def test_byzantine_corrupt_is_masked_or_detected():
    system = signed_system(commits=0)
    writer, master = system.peer_names()[0], system.master_of(KEY)
    victim = next(name for name in system.peer_names()
                  if name not in (writer, master))
    plan = FaultPlan().byzantine(at=0.5, peer=victim, mode="corrupt", rate=1.0)
    checker = ConvergenceChecker(keys=[KEY])
    system.add_observer(checker)
    nemesis = Nemesis(system, plan)
    nemesis.start()
    system.run_for(1.0)
    for index in range(6):
        system.edit_and_commit(writer, KEY, f"revision {index}")
    assert isinstance(system.ring.node(victim).storage, MisbehavingStore)
    final = checker.final_check(system, settle=1.0)
    converged = bool(final.keys.get(KEY, {}).get("converged", False))
    detected = bool(checker.violations())
    assert converged or detected, "misbehavior was neither masked nor detected"
    if system.ring.node(victim).storage.misbehaved:
        assert detected
        assert victim in {record["peer"] for record in checker.findings()}


def test_byzantine_wrapper_is_removed_by_restore_action():
    system = signed_system(commits=1)
    victim = system.peer_names()[2]
    plan = (FaultPlan()
            .byzantine(at=0.5, peer=victim, mode="drop", rate=1.0, duration=1.0))
    nemesis = Nemesis(system, plan)
    nemesis.start()
    system.run_for(1.0)
    assert isinstance(system.ring.node(victim).storage, MisbehavingStore)
    system.run_for(1.0)
    assert not isinstance(system.ring.node(victim).storage, MisbehavingStore)


def test_equivocation_action_arms_the_master_service():
    system = signed_system(commits=1)
    master = system.master_of(KEY)
    nemesis = Nemesis(system, FaultPlan())
    MasterEquivocation(peer=master, count=3).apply(nemesis)
    assert system.ring.node(master).service("ltr-master").equivocate_next == 3


def test_byzantine_rate_is_validated():
    system = signed_system(commits=1)
    nemesis = Nemesis(system, FaultPlan())
    with pytest.raises(ConfigurationError):
        ByzantinePeer(peer=system.peer_names()[0], rate=0.0).apply(nemesis)
    with pytest.raises(ConfigurationError):
        MasterEquivocation(peer=system.peer_names()[0], count=0).apply(nemesis)


def test_restore_action_is_a_noop_on_honest_storage():
    system = signed_system(commits=1)
    victim = system.peer_names()[2]
    before = system.ring.node(victim).storage
    RestoreStorage(peer=victim).apply(Nemesis(system, FaultPlan()))
    assert system.ring.node(victim).storage is before


# ----------------------------------------------------------------- E17 glue --


def test_e17_is_registered_everywhere():
    from repro.experiments.runner import FULL_PARAMETERS
    from repro.experiments.scenarios import SPEC_FACTORIES

    assert "E17" in SPEC_FACTORIES
    assert "E17" in FULL_PARAMETERS
    spec = SPEC_FACTORIES["E17"]()
    assert spec.description
    assert "silent_divergence" in spec.columns


@pytest.mark.slow
def test_e17_sweep_has_no_silent_divergence():
    from repro.experiments import run_experiment

    rows = run_experiment("E17", overrides={"rates": (1.0,), "probes": 6}).rows
    assert rows, "the sweep produced no rows"
    for row in rows:
        assert row["silent_divergence"] is False
        assert row["culprit_named"] is True
