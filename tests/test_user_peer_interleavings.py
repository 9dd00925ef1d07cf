"""One operation per document at a time (repro.core.user_peer).

A user peer runs one procedure on a document at a time.  The commit verb
(``commit`` ≡ ``flush``) marks the document for as long as its chain is out
with the Master; ``edit`` / ``stage`` of a marked document are refused and
``sync`` stands back from it — at its start and after every wait.  Nothing
else in the suite overlaps a peer with itself, so the overlaps are scripted
here: before the one mark each of them either raised out of a process or left
the replica silently diverged from the log.
"""

import pytest

from repro.check import ConvergenceChecker
from repro.core.consistency import replay_log
from repro.errors import ConfigurationError

from test_invariants import assert_system_invariants, build_system, drop_master_tail

KEY = "xwiki:overlap"
OFFSETS_MS = range(0, 45, 5)


def contended_peer(stage=False):
    """``(system, user)``: ``user`` holds one tentative line and is three
    top-inserted commits of a second writer behind."""
    system = build_system(peers=8, seed=5)
    master = system.master_of(KEY)
    name, other = [peer for peer in system.peer_names() if peer != master][:2]
    system.edit_and_commit(other, KEY, "base")
    system.sync(name, KEY)
    for number in range(3):
        text = system.user(other).document(KEY).text
        system.edit_and_commit(other, KEY, f"b{number}\n{text}")
    user = system.user(name)
    (user.stage if stage else user.edit)(KEY, "base\na-line")
    return system, user


def assert_replica_is_a_log_prefix(system, user):
    replica = user.document(KEY)
    entries = system.fetch_log(KEY, 1, replica.applied_ts)
    assert replica.lines == replay_log(KEY, entries).lines, (
        f"replica of {user.author} at ts {replica.applied_ts} is not the "
        f"replay of the log prefix"
    )


def overlap_sync_and_commit(order, verb, offset_ms, *, from_log=False):
    """``from_log``: the Master's tail is dropped, as a takeover leaves it, so
    the sync reads the P2P-Log (a wait more) instead of integrating what the
    Master's answer carries."""
    system, user = contended_peer(stage=verb == "flush")
    if from_log:
        drop_master_tail(system, KEY)
    runtime = system.runtime
    operations = [user.sync, getattr(user, verb)]
    if order == "commit-first":
        operations.reverse()

    def delayed(operation):
        yield runtime.timeout(offset_ms / 1000.0)
        result = yield from operation(KEY)
        return result

    first = runtime.process(operations[0](KEY))
    second = runtime.process(delayed(operations[1]))
    runtime.run(until=first)  # a process that raised raises here
    runtime.run(until=second)
    assert_replica_is_a_log_prefix(system, user)
    # The commit landed, whatever the sync did: after the three commits it
    # was behind by and the base revision.
    assert [result.ts for result in user.commit_results] == [5]
    assert not user.has_pending(KEY) and user.batch(KEY) is None
    system.sync(user.author, KEY)
    assert user.document(KEY).lines == ["b2", "b1", "b0", "base", "a-line"]
    assert_system_invariants(system, [KEY])
    checker = ConvergenceChecker(keys=[KEY])
    assert checker.final_check(system).ok and checker.violations() == []


@pytest.mark.parametrize("offset_ms", OFFSETS_MS)
@pytest.mark.parametrize("verb", ["commit", "flush"])
@pytest.mark.parametrize("order", ["sync-first", "commit-first"])
def test_sync_and_commit_of_one_document_overlap_on_one_peer(order, verb, offset_ms):
    overlap_sync_and_commit(order, verb, offset_ms)


@pytest.mark.parametrize("offset_ms", OFFSETS_MS)
@pytest.mark.parametrize("verb", ["commit", "flush"])
@pytest.mark.parametrize("order", ["sync-first", "commit-first"])
def test_a_sync_reading_the_log_and_a_commit_overlap_on_one_peer(order, verb, offset_ms):
    overlap_sync_and_commit(order, verb, offset_ms, from_log=True)


@pytest.mark.parametrize("save", ["edit", "stage"])
@pytest.mark.parametrize("verb", ["commit", "flush"])
def test_saves_are_refused_while_the_chain_is_out(verb, save):
    """A save made now would be based on a replica the commit is about to
    move (and, composed into the proposed patch, change what was proposed)."""
    system, user = contended_peer(stage=verb == "flush")
    runtime = system.runtime
    in_flight = runtime.process(getattr(user, verb)(KEY))
    runtime.run(until=runtime.now + 0.001)  # the proposal is on its way
    before = user.working_text(KEY)
    with pytest.raises(ConfigurationError):
        getattr(user, save)(KEY, "base\na-line\nsecond")
    assert user.working_text(KEY) == before and user.batch(KEY) is None
    outcome = runtime.run(until=in_flight)
    assert (outcome.ts, outcome.edits) == (5, 1)
    assert user.document(KEY).lines == ["b2", "b1", "b0", "base", "a-line"]
    # Once it is back the document takes saves again.
    getattr(user, save)(KEY, user.working_text(KEY) + "\nsecond")
    assert system.commit(user.author, KEY).ts == 6
    assert_replica_is_a_log_prefix(system, user)
    assert_system_invariants(system, [KEY])
