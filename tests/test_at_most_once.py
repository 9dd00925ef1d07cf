"""A proposal lands at most once (repro.core.user_peer / master / check).

Every patch travels under a proposal identity — its author and a number that
is dense per document — which it keeps across re-sends, rebases and a failed
commit until it is acknowledged, and which every log entry records.  The
Master answers a re-sent identity it still holds in its tail with the *ok* of
the entry that carries it (``tests/test_master_rebase.py``); this file pins
the proposer's half — a peer that comes across its own identity in a carried
or fetched range adopts those entries instead of rebasing over them — and the
regressions that were committed twice (or three times) before: a publish that
outlasts the proposer's RPC timeout, a Master that dies between publish and
ack, a failed commit followed by ``sync``, further edits, or a restart.
"""

import pytest

from repro.check import ConvergenceChecker
from repro.core import LtrConfig, LtrSystem
from repro.core import master as master_module
from repro.errors import MasterUnavailable, ReproError
from repro.net import ConstantLatency
from repro.ot import InsertLine

from test_invariants import assert_proposals_landed_once

KEY = "xwiki:once"


def build_system(peers=8, seed=21, **ltr):
    system = LtrSystem(ltr_config=LtrConfig(**ltr), seed=seed,
                       latency=ConstantLatency(0.004))
    system.bootstrap(peers)
    return system


def cast(system):
    """``(writer, other)``: two peers that are not the document's Master."""
    master = system.master_of(KEY)
    writer, other = [name for name in system.peer_names() if name != master][:2]
    return writer, other


def slow_next_publish(system, delay):
    """The Master's next publish of ``KEY`` takes ``delay`` seconds longer."""
    log = system.master_service(KEY).log
    plain = log.append_many

    def slowed(entries):
        log.append_many = plain
        yield system.runtime.timeout(delay)
        result = yield from plain(entries)
        return result

    log.append_many = slowed


def lose_next_reply(system, key=KEY):
    """The Master publishes and allocates the next proposal of ``key`` — and
    crashes before the answer leaves.  Returns the Master's name."""
    master = system.master_service(key)
    name = master.node.address.name
    plain = master._note_published

    def crash_after_allocation(*arguments):
        master._note_published = plain
        plain(*arguments)
        system.ring.crash(name, stabilize=False)

    master._note_published = crash_after_allocation
    return name


def log_lines(system, key=KEY):
    """Every line the log of ``key`` inserts, in timestamp order."""
    entries = system.fetch_log(key, 1, system.last_ts(key))
    assert_proposals_landed_once(key, entries)
    return [operation.line for entry in entries for operation in entry.patch.operations
            if isinstance(operation, InsertLine)]


def assert_checker_green(system, chain=1):
    checker = ConvergenceChecker(keys=[KEY], max_in_flight=chain)
    final = checker.final_check(system, settle=1.0)
    assert checker.violations() == [] and final.ok


# ------------------------------------------------ regressions: committed twice before --


@pytest.mark.parametrize("signed", [False, True], ids=["unsigned", "signed"])
def test_publish_outlasting_the_rpc_timeout_lands_once(signed):
    """(a) The proposal is re-sent while its first copy is still publishing:
    one entry, one ok.  Unsigned, the Master recognises the copy; signed, it
    answers *behind* with the entry and the proposer recognises itself."""
    system = build_system(auth_enabled=signed)
    writer, _other = cast(system)
    system.edit_and_commit(writer, KEY, "base")
    slow_next_publish(system, system.network.default_timeout + 0.2)
    sent = system.network.stats.per_method["ltr_validate_and_publish"]
    result = system.edit_and_commit(writer, KEY, "base\nthe edit")
    assert result.ts == 2 and result.edits == 1
    assert system.network.stats.per_method["ltr_validate_and_publish"] > sent + 2  # re-sent
    assert system.last_ts(KEY) == 2
    assert log_lines(system) == ["base", "the edit"]
    stats = system.master_service(KEY).statistics()
    assert stats["proposals_ok"] == 2 and stats["patches_published"] == 2
    assert (stats["proposals_deduplicated"], stats["proposals_behind"]) == \
        ((0, 1) if signed else (1, 0))
    user = system.user(writer)
    assert [result.ts for result in user.commit_results] == [1, 2]
    assert user.document(KEY).lines == ["base", "the edit"] and not user.has_pending(KEY)
    assert_checker_green(system)


@pytest.mark.parametrize("chain", [1, 4])
def test_master_dying_between_publish_and_ack_lands_once(chain):
    """(b) The successor answers *behind* (it has no tail), the proposer reads
    the log, finds its own entries and adopts them."""
    system = build_system(batch_max_edits=chain)
    writer, other = cast(system)
    system.edit_and_commit(other, KEY, "base")
    system.run_for(1.0)
    old_master = lose_next_reply(system)
    user = system.user(writer)
    if chain == 1:
        user.edit(KEY, "the edit")
        result = system.commit(writer, KEY)
    else:
        text = []
        for number in range(chain):
            text.insert(0, f"the edit {number}")
            user.stage(KEY, "\n".join(text))
        result = system.flush(writer, KEY)
    assert system.master_of(KEY) != old_master
    assert (result.first_ts, result.ts, result.edits) == (2, 1 + chain, chain)
    assert result.retrieved_patches == 1 + chain  # the base, and its own
    assert result.log_replicas == 0  # nobody told it
    assert system.last_ts(KEY) == 1 + chain
    lines = log_lines(system)
    assert len(lines) == 1 + chain == len(set(lines))
    assert system.master_service(KEY).statistics()["proposals_ok"] == 0
    assert not user.has_pending(KEY) and user.batch(KEY) is None
    assert user._in_doubt == {} and user._acknowledged[KEY] == chain
    # The next commit is an ordinary one.
    follow_up = system.edit_and_commit(writer, KEY, user.document(KEY).text + "\nnext")
    assert follow_up.ts == 2 + chain and follow_up.attempts == 1
    assert_checker_green(system, chain)


# ------------------------------------------------------- after a commit that failed --


def fail_in_doubt(system, writer, text, staged=False):
    """A commit that raises although it landed; returns the user."""
    system_master = lose_next_reply(system)
    user = system.user(writer)
    if staged:
        user.stage(KEY, text)
    else:
        user.edit(KEY, text)
    with pytest.raises(MasterUnavailable):
        (system.flush if staged else system.commit)(writer, KEY)
    assert system_master not in system.peer_names()
    return user


#: Fail fast: the proposer gives up before the ring has routed around the
#: dead Master, so the commit *fails* although it landed.
IMPATIENT = dict(validation_retries=0)


def test_failed_commit_keeps_its_identity_and_the_next_commit_adopts_what_landed():
    system = build_system(**IMPATIENT)
    writer, other = cast(system)
    system.edit_and_commit(other, KEY, "base")
    system.sync(writer, KEY)
    system.run_for(1.0)
    user = fail_in_doubt(system, writer, "base\nthe edit")
    assert user.has_pending(KEY) and user.working_lines(KEY) == ["base", "the edit"]
    assert user._in_doubt == {KEY: 1} and user._acknowledged.get(KEY, 0) == 0
    system.ring.wait_until_stable(max_time=60)
    assert system.last_ts(KEY) == 2  # it had landed
    result = system.commit(writer, KEY)
    assert (result.ts, result.edits, result.retrieved_patches) == (2, 1, 1)  # its own
    assert system.last_ts(KEY) == 2 and log_lines(system) == ["base", "the edit"]
    assert user._in_doubt == {} and not user.has_pending(KEY)
    assert_checker_green(system)


def test_edits_made_after_a_failed_commit_follow_it_as_a_patch_of_their_own():
    """The chain grew since it was proposed: what was proposed keeps its
    identity and its boundary, and is adopted; what is new is committed
    behind it."""
    system = build_system(**IMPATIENT)
    writer, other = cast(system)
    system.edit_and_commit(other, KEY, "base")
    system.sync(writer, KEY)
    system.run_for(1.0)
    user = fail_in_doubt(system, writer, "base\nthe edit")
    system.ring.wait_until_stable(max_time=60)
    user.edit(KEY, "base\nthe edit\nand more")  # follows the proposed patch
    assert [len(patch) for patch in user.batch(KEY).patches] == [1, 1]
    system.sync(other, KEY)
    system.edit_and_commit(other, KEY, "somebody else\nbase\nthe edit")
    result = system.commit(writer, KEY)
    assert result.ts == 4 and result.edits == 2 and result.attempts == 2
    assert log_lines(system) == ["base", "the edit", "somebody else", "and more"]
    assert user.document(KEY).lines == ["somebody else", "base", "the edit", "and more"]
    assert user._in_doubt == {} and user._acknowledged[KEY] == 2
    assert_checker_green(system)


def test_sync_after_a_failed_commit_adopts_what_landed_instead_of_rebasing_over_it():
    system = build_system(**IMPATIENT)
    writer, other = cast(system)
    system.edit_and_commit(other, KEY, "base")
    system.sync(writer, KEY)
    system.run_for(1.0)
    user = fail_in_doubt(system, writer, "base\nthe edit")
    system.ring.wait_until_stable(max_time=60)
    user.edit(KEY, "base\nthe edit\nand more")
    sync = system.sync(writer, KEY)
    assert sync.to_ts == 2 and user.document(KEY).lines == ["base", "the edit"]
    # What landed left the chain; what was edited since is still there.
    assert [[operation.line for operation in patch.operations]
            for patch in user.batch(KEY).patches] == [["and more"]]
    assert user._in_doubt == {} and user._acknowledged[KEY] == 1
    result = system.commit(writer, KEY)
    assert result.ts == 3 and result.edits == 1
    assert log_lines(system) == ["base", "the edit", "and more"]
    assert_checker_green(system)


def test_failed_flush_keeps_its_identities_through_sync_and_further_staging():
    system = build_system(batch_max_edits=4, **IMPATIENT)
    writer, other = cast(system)
    system.edit_and_commit(other, KEY, "base")
    system.sync(writer, KEY)
    system.run_for(1.0)
    user = system.user(writer)
    user.stage(KEY, "base\none")
    user = fail_in_doubt(system, writer, "base\none\ntwo", staged=True)
    system.ring.wait_until_stable(max_time=60)
    assert len(user.batch(KEY)) == 2 and user._in_doubt == {KEY: 2}
    user.stage(KEY, "base\none\ntwo\nthree")
    assert system.last_ts(KEY) == 3
    result = system.flush(writer, KEY)
    assert result.ts == 4 and result.edits == 3
    assert log_lines(system) == ["base", "one", "two", "three"]
    assert user._in_doubt == {} and user._acknowledged[KEY] == 3
    assert_checker_green(system, chain=4)


def test_discarded_edits_take_their_identities_with_them():
    """What was dropped may have landed; nothing else is ever proposed under
    its identity (or the next edit would be taken for a copy of it)."""
    system = build_system(**IMPATIENT)
    writer, other = cast(system)
    system.edit_and_commit(other, KEY, "base")
    system.sync(writer, KEY)
    system.run_for(1.0)
    user = fail_in_doubt(system, writer, "base\ndropped")
    system.ring.wait_until_stable(max_time=60)
    first = user._proposal(KEY)
    user.discard_pending(KEY)
    assert user._proposal(KEY) == first + 1 and user._in_doubt == {}
    system.sync(writer, KEY)  # it did land: the replica learns it like anybody's
    result = system.edit_and_commit(writer, KEY, "base\ndropped\nnext")
    assert result.ts == 3
    assert log_lines(system) == ["base", "dropped", "next"]
    # A patch that was never proposed gives nothing up.
    user.edit(KEY, "scratch")
    second = user._proposal(KEY)
    user.discard_pending(KEY)
    assert user._proposal(KEY) == second
    assert_checker_green(system)


def test_a_restarted_peer_does_not_reuse_the_identities_of_its_former_self():
    system = build_system()
    writer, other = cast(system)
    first = system.user(writer)
    system.edit_and_commit(writer, KEY, "from the first life")
    system.forget_user(writer)
    second = system.user(writer)
    assert second is not first and second.author == first.author
    assert second._proposal(KEY) != first._proposal_base
    # From a cold replica its first proposal is stale and its gap is in the
    # Master's tail: a re-used identity would be answered "already landed".
    result = system.edit_and_commit(writer, KEY, "from the second life")
    assert result.ts == 2
    assert system.master_service(KEY).statistics()["proposals_deduplicated"] == 0
    assert log_lines(system) == ["from the first life", "from the second life"]


# ------------------------------------------------------ the tail bound patched away --


def test_re_sent_proposal_beyond_the_tail_is_recognised_by_the_proposer(monkeypatch):
    """The Master's tail is its whole memory; beyond it the log is the table."""
    monkeypatch.setattr(master_module, "TAIL_MAX_ENTRIES", 0)
    system = build_system()
    writer, _other = cast(system)
    system.edit_and_commit(writer, KEY, "base")
    slow_next_publish(system, system.network.default_timeout + 0.2)
    result = system.edit_and_commit(writer, KEY, "base\nthe edit")
    assert result.ts == 2 and system.last_ts(KEY) == 2
    assert log_lines(system) == ["base", "the edit"]
    stats = system.master_service(KEY).statistics()
    assert stats["proposals_behind"] == 1 and stats["proposals_deduplicated"] == 0


def test_every_surviving_commit_error_leaves_the_log_free_of_doubles():
    """A partition between the writer and the Log-Peers, probes throughout."""
    system = build_system(peers=10, validation_retries=2, validation_retry_delay=0.25)
    writer, _other = cast(system)
    master = system.master_of(KEY)
    system.edit_and_commit(writer, KEY, "base")
    others = [name for name in system.peer_names() if name not in (writer, master)]
    system.network.partitions.split([[system.ring.node(name).address for name in others[:3]]])
    acked = 0
    for probe in range(8):
        try:
            system.edit_and_commit(writer, KEY, f"revision {probe}")
            acked += 1
        except ReproError:
            pass
        system.run_for(0.3)
    system.network.partitions.heal()
    system.run_for(3.0)
    try:
        system.commit(writer, KEY)
    except ReproError:
        pass
    lines = log_lines(system)
    assert len(lines) == len(set(lines)) and acked >= 1


def test_an_empty_edit_that_failed_is_given_up_with_its_identity():
    """Nothing to keep — and left in doubt it would not stop ``stage`` from
    opening a batch under the identity it was proposed with."""
    system = build_system(**IMPATIENT)
    writer, other = cast(system)
    system.edit_and_commit(other, KEY, "base")
    system.sync(writer, KEY)
    system.run_for(1.0)
    user = system.user(writer)
    first = user._proposal(KEY)
    lose_next_reply(system)
    user.edit(KEY, "base")  # a save that changed nothing: an empty patch
    assert len(user.batch(KEY)) == 1 and not user.has_pending(KEY)
    with pytest.raises(MasterUnavailable):
        system.commit(writer, KEY)
    assert user.batch(KEY) is None and user._in_doubt == {}
    assert user._proposal(KEY) == first + 1
    system.ring.wait_until_stable(max_time=60)
    user.stage(KEY, "base\nstaged")
    result = system.flush(writer, KEY)
    assert result.ts == 3 and log_lines(system) == ["base", "staged"]
    assert system.master_service(KEY).statistics()["proposals_deduplicated"] == 0


# ----------------------------------------------------------- inside one round --


def test_the_same_identity_queued_twice_lands_once_and_both_copies_get_the_same_ok():
    """The proposer's RPC timed out while its proposal was at the Log-Peers,
    and the re-sent copy arrives behind it.  The copy finds the identity among
    the entries of the rounds still in flight and is answered once that round
    is allocated — one entry, the same *ok* for both, nothing published twice."""
    from repro.core.protocol import ValidationResult
    from repro.ot import Patch

    system = build_system()
    writer, other = cast(system)
    system.edit_and_commit(other, KEY, "base")
    master = system.master_service(KEY)

    def propose(author, identity, line):
        patch = Patch((InsertLine(1, line),), base_ts=1, author=author)
        return system.runtime.process(master.validate_and_publish(
            key=KEY, ts=2, patches=[patch], author=author, base_ts=1, proposal=identity))

    lanes = [propose(other, 7, "theirs"),                   # holds the lock, publishing
             propose(writer, 500, "mine"), propose(writer, 500, "mine")]
    holder, first, copy = [ValidationResult.from_payload(system.runtime.run(until=lane))
                           for lane in lanes]
    assert holder.accepted and (holder.first_ts, holder.last_ts) == (2, 2)
    assert first.accepted and copy.accepted
    assert (first.first_ts, first.last_ts) == (copy.first_ts, copy.last_ts) == (3, 3)
    assert [entry.ts for entry in first.entries] == [entry.ts for entry in copy.entries] == [2]
    assert (first.replicas, copy.replicas) == (3, 0)  # the copy was not published
    stats = master.statistics()
    assert (stats["publishes"], stats["proposals_ok"], stats["proposals_deduplicated"],
            stats["patches_published"]) == (3, 3, 1, 3)
    assert system.last_ts(KEY) == 3
    assert log_lines(system) == ["base", "theirs", "mine"]
    assert_checker_green(system)


def test_a_copy_of_a_round_that_fails_in_flight_fails_the_same_way():
    """The copy's original is in a round still at the Log-Peers, and the
    Log-Peers refuse that round: the copy is answered with the original's
    outcome — ``PatchUnavailable`` for both, nothing in the log, nothing
    allocated — not with an *ok* for an entry that was never committed."""
    from repro.errors import PatchUnavailable
    from repro.ot import Patch

    system = build_system()
    writer, other = cast(system)
    system.edit_and_commit(other, KEY, "base")
    master = system.master_service(KEY)
    plain = master.log.append_many

    def refused(entries):
        yield system.runtime.timeout(0.01)
        if entries[0].author == writer:
            raise PatchUnavailable(KEY, entries[0].ts)
        result = yield from plain(entries)
        return result

    def propose(author, identity, line):
        patch = Patch((InsertLine(1, line),), base_ts=1, author=author)
        return system.runtime.process(master.validate_and_publish(
            key=KEY, ts=2, patches=[patch], author=author, base_ts=1, proposal=identity))

    master.log.append_many = refused
    original, copy = propose(writer, 500, "mine"), propose(writer, 500, "mine")
    for lane in (original, copy):
        with pytest.raises(PatchUnavailable):
            system.runtime.run(until=lane)
    master.log.append_many = plain
    assert master.statistics()["proposals_deduplicated"] == 1
    assert system.last_ts(KEY) == 1 and log_lines(system) == ["base"]
    assert_checker_green(system)


def test_discarding_a_document_whose_commit_is_in_flight_is_refused():
    """``discard_pending`` under a proposal would retire the identities it
    travels under — the next edit would be proposed under them and taken for a
    copy of it.  Refused like a save (it went through before, and the edit
    made next was answered with the first one's *ok*: lost)."""
    from repro.errors import ConfigurationError

    system = build_system()
    writer, other = cast(system)
    system.edit_and_commit(other, KEY, "base")
    system.sync(writer, KEY)
    user = system.user(writer)
    user.edit(KEY, "base\nin flight")
    first = user._proposal(KEY)
    commit = system.runtime.process(user.commit(KEY))
    system.runtime.run(until=system.runtime.now + 0.005)  # the proposal is out
    for discard in (user.discard_pending, user.discard_batch):
        with pytest.raises(ConfigurationError, match="in flight"):
            discard(KEY)
    assert user._proposal(KEY) == first and user._acknowledged.get(KEY, 0) == 0
    result = system.runtime.run(until=commit)
    assert result.ts == 2 and user._proposal(KEY) == first + 1
    user.edit(KEY, "base\nin flight\nnext")
    user.discard_pending(KEY)  # nothing in flight: dropped, as ever
    assert not user.has_pending(KEY)
    assert log_lines(system) == ["base", "in flight"]
    assert_checker_green(system)


def test_staging_onto_a_full_chain_left_by_a_failed_flush_is_a_typed_error():
    """A failed flush puts its chain back, full; the next ``stage`` used to
    raise a bare ``ValueError`` out of ``CommitBatch.add`` — not a
    ``ReproError``, so a driver that survives every failure of the library
    (the fuzzers, ltrbench's lanes) died of it."""
    from repro.errors import ConfigurationError

    system = build_system(batch_max_edits=2, **IMPATIENT)
    writer, other = cast(system)
    system.edit_and_commit(other, KEY, "base")
    system.sync(writer, KEY)
    system.run_for(1.0)
    user = system.user(writer)
    user.stage(KEY, "base\none")
    fail_in_doubt(system, writer, "base\none\ntwo", staged=True)
    assert user.batch(KEY).full
    with pytest.raises(ConfigurationError, match="flush it first") as refusal:
        user.stage(KEY, "base\none\ntwo\nthree")
    assert isinstance(refusal.value, ReproError)
    assert user.staged_lines(KEY) == ["base", "one", "two"]  # nothing was lost
    system.ring.wait_until_stable(max_time=60)
    result = system.flush(writer, KEY)                     # it had landed: adopted
    assert (result.first_ts, result.ts) == (2, 3)
    user.stage(KEY, "base\none\ntwo\nthree")
    assert system.flush(writer, KEY).ts == 4
    assert log_lines(system) == ["base", "one", "two", "three"]
    assert_checker_green(system, chain=2)
