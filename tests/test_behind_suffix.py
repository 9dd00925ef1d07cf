"""The Master's answer carries what the peer missed (repro.core.master / user_peer).

The Master keeps a bounded tail of the entries it allocated per document.  A
stale proposal whose gap the tail covers is transformed over it and committed
— the answer is *ok* and carries the gap; where the Master cannot do that (a
signed proposal, a gap older than the tail, a Master fresh from a takeover)
the answer is *behind*, carrying ``(base_ts, last_ts]`` when the tail holds
it.  Either way the user peer integrates what was carried only if it is
exactly the missing range and passes the checks a fetched entry passes, and
reads the P2P-Log otherwise.  These tests pin the reply shapes, the tail's
bounds and lifetime, and every way the proposer falls back to
``fetch_range``; ``tests/test_master_rebase.py`` pins the transform.  A
reader asks the same question without a proposal (``ltr_catch_up``): the
answer is *behind* and carries ``(applied_ts, last_ts]`` when the tail holds
it, checked by the same function — the last sections pin that too, and
what the answer carries for a reader older than the tail: the rest after the
newest checkpoint boundary, applied over that checkpoint.
"""

from dataclasses import replace

import pytest

from repro.core import LtrConfig, LtrSystem
from repro.core import master as master_module
from repro.core.master import EntryTail
from repro.core.protocol import ValidationResult
from repro.net import ConstantLatency, payload_size
from repro.ot import InsertLine
from repro.p2plog import LogEntry

import test_at_most_once as at_most_once
from test_core_master import (
    build_system,
    find_takeover_joiner,
    is_fresh,
    make_patch,
    run_validation,
    tenure,
)

KEY = "xwiki:suffix"


def publish(system, count, key=KEY, start=1):
    """``count`` chains of one, validated directly at the key's Master."""
    master = system.master_service(key)
    for ts in range(start, start + count):
        result = run_validation(system, master, key, ts,
                                [make_patch(f"u{ts}", f"line {ts}", base_ts=ts - 1)],
                                f"u{ts}")
        assert result.accepted
    return master


def handle(system, master, key, ts, patches, author, **arguments):
    """``run_validation`` with the optional arguments of the RPC."""
    handler = master.validate_and_publish(key=key, ts=ts, patches=patches,
                                          author=author, **arguments)
    return ValidationResult.from_payload(system.runtime.run(until=system.runtime.process(handler)))


def log_reads(system):
    per_method = system.network.stats.per_method
    return per_method.get("fetch_many", 0) + per_method.get("fetch", 0)


# ------------------------------------------------------------ the reply --


def test_behind_answer_carries_exactly_the_missing_suffix():
    """(Pinned *behind* + ``(ts - 1, last_ts]`` for every stale proposal; a
    covered gap is committed now, and what it carries is the same range.)"""
    system = build_system()
    master = publish(system, 5)
    stale = run_validation(system, master, KEY, 3, [make_patch("late", "x", 2)], "late")
    assert stale.accepted and (stale.first_ts, stale.last_ts) == (6, 6)
    assert [entry.ts for entry in stale.entries] == [3, 4, 5]  # (ts - 1, first_ts - 1]
    assert list(stale.entries) == system.fetch_log(KEY, 3, 5)  # what the log holds
    # The proposer that is only one behind gets one entry, not the tail.
    near = run_validation(system, master, KEY, 6, [make_patch("late", "x", 5)], "late")
    assert near.accepted and [entry.ts for entry in near.entries] == [6]
    stats = master.statistics()
    assert (stats["proposals_ok"], stats["proposals_rebased"],
            stats["proposals_behind"]) == (7, 2, 0)
    # A signed chain cannot be transformed for its author: behind, same range.
    signed = handle(system, master, KEY, 5, [make_patch("late", "x", 4)], "late",
                    signatures=["not checked without auth_enabled"])
    assert not signed.accepted and signed.last_ts == 7
    assert [entry.ts for entry in signed.entries] == [5, 6, 7]  # (ts - 1, last_ts]
    assert list(signed.entries) == system.fetch_log(KEY, 5, 7)
    assert master.statistics()["proposals_behind"] == 1


def test_other_answers_carry_no_entries():
    system = build_system()
    master = publish(system, 2)
    accepted = run_validation(system, master, KEY, 3, [make_patch("u", "x", 2)], "u")
    assert accepted.accepted and accepted.entries is None
    assert "entries" not in accepted.to_payload()
    # A proposer *ahead* of this Master (stale counter copy) is missing nothing.
    ahead = run_validation(system, master, KEY, 9, [make_patch("u", "x", 8)], "u")
    assert not ahead.accepted and ahead.last_ts == 3 and ahead.entries is None


def test_payload_round_trip_keeps_the_entries():
    entries = [LogEntry(KEY, 4, make_patch("a", "x", 3)), LogEntry(KEY, 5, make_patch("b", "y", 4))]
    result = ValidationResult.behind(5, entries)
    assert ValidationResult.from_payload(result.to_payload()).entries == entries
    assert "entries" not in ValidationResult.behind(5).to_payload()
    result = ValidationResult.ok(6, 6, 3, entries)
    assert ValidationResult.from_payload(result.to_payload()) == result
    assert "entries" not in ValidationResult.ok(6, 6, 3, []).to_payload()


# ------------------------------------------------------------- the tail --


def test_tail_bounds_are_pinned():
    """The constants are the protocol's reply budget: moving them is a decision."""
    assert master_module.TAIL_MAX_ENTRIES == 256
    assert master_module.TAIL_MAX_BYTES == 256 * 1024


def test_tail_is_bounded_in_entries(monkeypatch):
    monkeypatch.setattr(master_module, "TAIL_MAX_ENTRIES", 4)
    system = build_system()
    master = publish(system, 7)
    tail = tenure(master, KEY).tail
    assert [entry.ts for entry in tail.entries] == [4, 5, 6, 7]
    assert tail.bytes == sum(tail.sizes) == sum(payload_size(e) for e in tail.entries)
    # A reader's catch-up likewise: nothing from behind the tail, all of it inside.
    assert catch_up(master, 2).entries is None
    assert [entry.ts for entry in catch_up(master, 3).entries] == [4, 5, 6, 7]
    # A gap that reaches behind the tail is answered behind and carries
    # nothing; one inside it is committed over what it carries.
    far = run_validation(system, master, KEY, 3, [make_patch("late", "x", 2)], "late")
    assert not far.accepted and far.last_ts == 7 and far.entries is None
    near = run_validation(system, master, KEY, 4, [make_patch("late", "x", 3)], "late")
    assert near.accepted and near.first_ts == 8
    assert [entry.ts for entry in near.entries] == [4, 5, 6, 7]


def extend(tail, entries):
    """Allocate ``entries`` into ``tail`` as the Master does, sizes alongside."""
    tail.extend(entries, [payload_size(entry) for entry in entries])


def test_tail_is_bounded_in_bytes(monkeypatch):
    entry = LogEntry(KEY, 1, make_patch("u1", "line 1"), author="u1")
    monkeypatch.setattr(master_module, "TAIL_MAX_BYTES", int(2.5 * payload_size(entry)))
    tail = EntryTail()
    for ts in range(1, 6):
        extend(tail, [replace(entry, ts=ts)])
        assert tail.bytes <= master_module.TAIL_MAX_BYTES
    assert [held.ts for held in tail.entries] == [4, 5]
    # One entry bigger than the whole budget is not kept at all.
    extend(tail, [replace(entry, ts=6, patch=make_patch("u1", "x" * 4096))])
    assert tail.entries == [] and tail.bytes == 0 and tail.suffix(5) is None


def test_tail_restarts_on_a_gap_and_is_dropped_when_the_counter_moved_on():
    tail = EntryTail()
    entry = LogEntry(KEY, 1, make_patch("u1", "line"))
    extend(tail, [replace(entry, ts=1), replace(entry, ts=2)])
    extend(tail, [replace(entry, ts=7)])  # 3..6 were allocated elsewhere
    assert [held.ts for held in tail.entries] == [7]
    assert tail.suffix(5) is None and [held.ts for held in tail.suffix(6)] == [7]
    # At the Master: a tail that does not end at last-ts is from another tenure.
    system = build_system()
    master = publish(system, 3)
    master._authority().advance_ts(KEY, 5)  # someone else allocated 4 and 5
    # A reader's catch-up carries nothing either, and leaves the tail alone:
    # the handler is read-only, dropping is the lock holder's.
    answer = catch_up(master, 1)
    assert answer.last_ts == 5 and answer.entries is None
    ended = tenure(master, KEY)
    assert [entry.ts for entry in ended.tail.entries] == [1, 2, 3]
    stale = run_validation(system, master, KEY, 3, [make_patch("late", "x", 2)], "late")
    assert not stale.accepted and stale.last_ts == 5 and stale.entries is None
    # A new tenure, holding nothing of the old one; the *behind* answer warmed
    # its first timestamp, the one the proposer comes round for (the counter
    # is still here).
    current = tenure(master, KEY)
    assert current is not ended and (current.tail.entries, current.view) == ([], None)
    assert current.warmed_ts == 6


def test_tail_is_allocated_lazily_and_dropped_on_hand_off():
    system = LtrSystem(ltr_config=LtrConfig(), seed=42, latency=ConstantLatency(0.02))
    system.bootstrap(8)
    assert all(node.service("ltr-master")._documents == {} for node in system.ring.live_nodes())
    old_master = publish(system, 3)
    assert list(old_master._documents) == [KEY] and tenure(old_master, KEY).tail.entries
    system.run_for(2.0)
    system.add_peer(find_takeover_joiner(system, KEY))  # hand-off moves the counter
    assert is_fresh(tenure(old_master, KEY))
    # The new Master is fresh from a takeover: it has nothing to hand over ...
    new_master = system.master_service(KEY)
    assert new_master is not old_master and new_master._documents == {}
    stale = run_validation(system, new_master, KEY, 2, [make_patch("late", "x", 1)], "late")
    assert not stale.accepted and stale.last_ts == 3 and stale.entries is None
    # ... so a stale editor's commit reads the log, and lands on the second try.
    reads = log_reads(system)
    result = system.edit_and_commit(system.peer_names()[0], KEY, "after the takeover")
    assert (result.ts, result.attempts, result.retrieved_patches) == (4, 2, 3)
    assert log_reads(system) > reads
    assert [entry.ts for entry in tenure(new_master, KEY).tail.entries] == [4]


def test_counter_coming_back_ends_the_tenure_the_tail_was_from():
    """A crashed Master that restarts with its memory intact gets its counter
    back from whoever stood in — what it remembers no longer describes the log.
    So does a peer whose replica of the counter is promoted."""
    system = build_system()
    master = publish(system, 2)
    node = master.node
    counter_key = master._authority().storage_key(KEY)
    counter = node.storage.get(counter_key)
    node.rpc_receive_items([counter], as_replica=True)  # our own replica echo
    assert [entry.ts for entry in tenure(master, KEY).tail.entries] == [1, 2]
    node.rpc_receive_items([counter], as_replica=False)
    assert is_fresh(tenure(master, KEY))
    publish(system, 2, start=3)
    assert [entry.ts for entry in tenure(master, KEY).tail.entries] == [3, 4]
    held = node.storage.get(counter_key)
    held.is_replica = True  # planted: a replica copy, the tail still from its tenure
    assert node._take([held]) == [held]
    assert is_fresh(tenure(master, KEY))


@pytest.mark.parametrize("departure", ["leave", "crash"])
def test_a_regained_tenure_reads_nothing_of_the_one_before(departure):
    """A Master hands the document off at ts 5 and gets it back at ts 6: the
    stand-in leaves (the counter comes back) or crashes (its replica here is
    promoted).  The first round of the regained tenure to cross a boundary
    (8) writes its checkpoint, as any takeover's does — cut from a view
    rebuilt out of the checkpoint at 4 and the log, not from the old
    tenure's view, nor its tail."""
    system = LtrSystem(ltr_config=LtrConfig(checkpoint_interval=4), seed=42,
                       latency=ConstantLatency(0.02))
    system.bootstrap(8)
    master = publish(system, 5)
    system.run_for(2.0)
    old = tenure(master, KEY)
    assert system.latest_checkpoint(KEY).ts == 4 and old.view.applied_ts == 5
    assert [entry.ts for entry in old.tail.entries] == [1, 2, 3, 4, 5]
    stand_in = find_takeover_joiner(system, KEY)
    system.add_peer(stand_in)
    assert system.master_of(KEY) == stand_in
    publish(system, 1, start=6)
    system.run_for(2.0)
    getattr(system, departure)(stand_in)
    assert system.master_service(KEY) is master and system.last_ts(KEY) == 6
    assert is_fresh(tenure(master, KEY))
    written, rebuilds = master.checkpoints_written, master.checkpoint_rebuilds
    publish(system, 1, start=7)
    system.run_for(2.0)
    assert master.checkpoints_written == written  # ts 7 crosses no boundary
    publish(system, 1, start=8)
    system.run_for(2.0)
    # ts 8 is a boundary: written from a view rebuilt out of checkpoint + log.
    assert system.latest_checkpoint(KEY).ts == 8
    assert (master.checkpoints_written, master.checkpoint_rebuilds) == (written + 1, rebuilds + 1)
    regained = tenure(master, KEY)
    assert regained is not old
    assert regained.view.applied_ts == 8
    assert [entry.ts for entry in regained.tail.entries] == [7, 8]
    # The old tenure was left as it ended: nothing written into it since.
    assert old.view.applied_ts == 5
    assert [entry.ts for entry in old.tail.entries] == [1, 2, 3, 4, 5]


# ------------------------------------------------------- the proposer --


def stale_editor(system, behind_by=3, key=KEY):
    """A user with a pending edit whose replica is ``behind_by`` commits old."""
    names = system.peer_names()
    for index in range(behind_by):
        system.edit_and_commit(names[1], key, f"revision {index}")
    user = system.user(names[0])
    user.edit(key, "my draft")
    return user


def test_commit_served_by_a_carried_suffix_makes_zero_log_reads():
    """(Pinned two attempts — behind, then ok; the covered gap costs one.)"""
    system = build_system()
    user = stale_editor(system)
    reads, retrievals = log_reads(system), user.log.retrievals
    proposals = system.network.stats.per_method["ltr_validate_and_publish"]
    result = system.commit(user.author, KEY)
    assert (result.ts, result.attempts, result.retrieved_patches) == (4, 1, 3)
    assert log_reads(system) == reads and user.log.retrievals == retrievals
    # One request, one reply.
    assert system.network.stats.per_method["ltr_validate_and_publish"] == proposals + 2
    assert user.document(KEY).applied_ts == 4 and "my draft" in user.document(KEY).lines
    report = system.check_consistency(KEY)
    assert report.converged and report.log_continuous


def test_gap_beyond_the_tail_falls_back_to_the_log(monkeypatch):
    monkeypatch.setattr(master_module, "TAIL_MAX_ENTRIES", 2)
    system = build_system()
    user = stale_editor(system, behind_by=4)
    reads = log_reads(system)
    result = system.commit(user.author, KEY)
    assert (result.ts, result.attempts, result.retrieved_patches) == (5, 2, 4)
    assert log_reads(system) > reads and user.log.retrievals == 4
    assert system.master_service(KEY).statistics()["proposals_behind"] == 1
    assert system.check_consistency(KEY).converged


def carried(user, applied_ts, last_ts, entries, answer=ValidationResult.behind):
    return user._carried_suffix(KEY, applied_ts, answer(last_ts, entries))


def ok_after(last_ts, entries):
    """An *ok* for a chain of one that landed right behind ``last_ts``."""
    return ValidationResult.ok(last_ts + 1, last_ts + 1, 3, entries)


def test_carried_gap_of_an_ok_answer_is_checked_the_same_way():
    """``applied_ts + 1 .. first_ts - 1`` for *ok*, ``.. last_ts`` for *behind*."""
    system = build_system()
    user = system.user(system.peer_names()[0])
    entry = LogEntry(KEY, 1, make_patch("u", "x"))
    three = [replace(entry, ts=ts) for ts in (3, 4, 5)]
    assert carried(user, 2, 5, three, ok_after) == three
    assert carried(user, 2, 5, None, ok_after) is None
    assert carried(user, 1, 5, three, ok_after) is None              # starts too late
    assert carried(user, 2, 6, three, ok_after) is None              # ends too early
    assert carried(user, 2, 4, three, ok_after) is None              # reaches into the chain
    assert carried(user, 2, 5, three[::-1], ok_after) is None
    assert carried(user, 2, 5, three[:2] + [{"ts": 5}], ok_after) is None
    # A chain of three that landed at 6..8: the gap still ends at 5.
    assert user._carried_suffix(KEY, 2, ValidationResult.ok(6, 8, 3, three)) == three


def test_carried_suffix_is_used_only_if_it_is_exactly_the_missing_range():
    system = build_system()
    user = system.user(system.peer_names()[0])
    entry = LogEntry(KEY, 1, make_patch("u", "x"))
    three = [replace(entry, ts=ts) for ts in (3, 4, 5)]
    assert carried(user, 2, 5, three) == three
    assert list(carried(user, 2, 5, tuple(three))) == three     # any sequence
    assert carried(user, 2, 5, None) is None                     # nothing carried
    assert carried(user, 2, 5, []) is None
    assert carried(user, 1, 5, three) is None                    # starts too late
    assert carried(user, 2, 6, three) is None                    # ends too early
    assert carried(user, 2, 5, [three[0], three[2], three[1]]) is None   # out of order
    assert carried(user, 2, 5, [three[0], three[0], three[2]]) is None   # not contiguous
    assert carried(user, 2, 5, three[:2] + [replace(three[2], document_key="other")]) is None
    assert carried(user, 2, 5, three[:2] + [{"ts": 5}]) is None  # not a LogEntry
    assert carried(user, 2, 5, "abc") is None and carried(user, 2, 5, 3) is None


@pytest.mark.parametrize("mangle", [
    lambda entries: entries[:-1],                                       # a hole
    lambda entries: [replace(e, document_key="xwiki:other") for e in entries],
    lambda entries: [vars(e) for e in entries],                         # not LogEntry
], ids=["non-contiguous", "mis-keyed", "non-log-entry"])
def test_unusable_carried_suffix_falls_back_to_the_log(mangle, monkeypatch):
    """(The mangled entries came with *behind*; they come with the *ok* of a
    commit that has landed, so the fallback has to finish it: exactly the
    gap is read, then the chain is applied where it landed.)"""
    system = build_system()
    user = stale_editor(system)
    honest = ValidationResult.to_payload

    def mangled(self):
        payload = honest(self)
        if "entries" in payload:
            payload["entries"] = mangle(list(payload["entries"]))
        return payload

    monkeypatch.setattr(ValidationResult, "to_payload", mangled)
    reads, retrievals = log_reads(system), user.log.retrievals
    result = system.commit(user.author, KEY)
    assert (result.ts, result.attempts, result.retrieved_patches) == (4, 1, 3)
    assert log_reads(system) > reads  # the honest copies came from the log
    assert user.log.retrievals == retrievals + 3  # ... ts 1..3, not its own ts 4
    report = system.check_consistency(KEY)
    assert report.converged and report.log_continuous
    assert system.last_ts(KEY) == 4


def test_tampered_tail_entry_is_rejected_counted_and_the_log_copy_used():
    system = LtrSystem(seed=7, ltr_config=LtrConfig(auth_enabled=True))
    system.bootstrap(8)
    user = stale_editor(system)
    tail = tenure(system.master_service(KEY), KEY).tail
    honest = tail.entries[1]
    forged = honest.patch.with_operations(
        tuple(honest.patch.operations) + (InsertLine(0, "<forged in the tail>"),)
    )
    tail.entries[1] = replace(honest, patch=forged)  # keeps the author's signature
    reads, rejects = log_reads(system), user.log.auth_rejects
    result = system.commit(user.author, KEY)
    assert (result.ts, result.attempts, result.retrieved_patches) == (4, 2, 3)
    assert user.log.auth_rejects == rejects + 1
    assert log_reads(system) > reads
    assert "<forged in the tail>" not in user.document(KEY).lines
    report = system.check_consistency(KEY)
    assert report.converged and report.log_continuous


def test_signed_carried_suffix_verifies_and_skips_the_log():
    system = LtrSystem(seed=7, ltr_config=LtrConfig(auth_enabled=True))
    system.bootstrap(8)
    user = stale_editor(system)
    reads, rejects = log_reads(system), user.log.auth_rejects
    result = system.commit(user.author, KEY)
    assert (result.ts, result.attempts, result.retrieved_patches) == (4, 2, 3)  # behind, ok
    assert log_reads(system) == reads and user.log.auth_rejects == rejects
    stats = system.master_service(KEY).statistics()
    assert (stats["proposals_behind"], stats["proposals_rebased"]) == (1, 0)


# ---------------------------------------------------------- the reader --


def catch_up(master, after_ts, key=KEY):
    return ValidationResult.from_payload(master.handle_catch_up(key, after_ts))


def test_catch_up_answer_carries_the_readers_suffix_from_the_tail():
    """(Pinned one request and one reply for the whole sync, no log read.)"""
    system = build_system()
    master = publish(system, 5)
    answer = catch_up(master, 2)
    assert answer.status == "behind" and answer.last_ts == 5
    assert list(answer.entries) == system.fetch_log(KEY, 3, 5)
    assert catch_up(master, 5).entries is None  # current: nothing to carry
    assert catch_up(master, 0, key="xwiki:never").last_ts == 0
    reader = system.user(system.peer_names()[0])
    reads, calls = log_reads(system), system.network.stats.per_method.get("ltr_catch_up", 0)
    result = system.sync(reader.author, KEY)
    assert (result.retrieved_patches, result.checkpoint_ts) == (5, None)
    assert log_reads(system) == reads and reader.log.retrievals == 0
    assert system.network.stats.per_method["ltr_catch_up"] == calls + 2
    assert reader.document(KEY).lines == [f"line {ts}" for ts in range(5, 0, -1)]


def test_reader_refuses_a_tampered_tail_entry_and_reads_the_log():
    system = LtrSystem(seed=7, ltr_config=LtrConfig(auth_enabled=True))
    system.bootstrap(8)
    writer, reader = system.peer_names()[1], system.user(system.peer_names()[0])
    for index in range(3):
        system.edit_and_commit(writer, KEY, f"revision {index}")
    tail = tenure(system.master_service(KEY), KEY).tail
    honest = tail.entries[1]
    forged = honest.patch.with_operations(
        tuple(honest.patch.operations) + (InsertLine(0, "<forged in the tail>"),)
    )
    tail.entries[1] = replace(honest, patch=forged)  # keeps the author's signature
    reads, rejects = log_reads(system), reader.log.auth_rejects
    result = system.sync(reader.author, KEY)
    assert (result.retrieved_patches, result.checkpoint_ts) == (3, None)
    assert reader.log.auth_rejects == rejects + 1
    assert log_reads(system) > reads
    assert reader.document(KEY).lines == system.user(writer).document(KEY).lines
    assert "<forged in the tail>" not in reader.document(KEY).lines


# ------------------------------------- the reader older than the tail --
#
# ``TAIL_MAX_ENTRIES`` 4 and ``checkpoint_interval`` 3: a writer commits 10
# revisions, the tail holds 7..10, the newest boundary is 9.  A cold reader
# is 10 behind — more than an interval, older than the tail — so the answer
# carries the rest after the boundary, ``[10]``, and the reader applies it
# over the checkpoint at 9.


def read_messages(system, sync):
    """Per method, the messages ``sync()`` sends to the Master and to the
    Log-Peers (routing and ring maintenance aside)."""
    before = dict(system.network.stats.per_method)
    result = sync()
    sent = {method: system.network.stats.per_method.get(method, 0) - before.get(method, 0)
            for method in ("ltr_catch_up", "fetch", "fetch_many")}
    return result, {method: count for method, count in sent.items() if count}


def long_history(monkeypatch, revisions=10, tail=4, **ltr):
    """A writer's ``revisions`` commits at interval 3, checkpoints written;
    returns the system, the writer and a cold reader."""
    monkeypatch.setattr(master_module, "TAIL_MAX_ENTRIES", tail)
    system = build_system(checkpoint_interval=3, **ltr)
    writer, reader = system.peer_names()[1], system.peer_names()[0]
    for index in range(revisions):
        system.edit_and_commit(writer, KEY, f"revision {index}")
    system.run_for(2.0)  # the checkpoint is written after the commit is answered
    return system, writer, reader


def test_reader_beyond_the_tail_still_probes_a_checkpoint(monkeypatch):
    """(Pinned one catch-up and one checkpoint read, no ``fetch_many``: while
    the answer carried nothing, the sync read entry 10 from its Log-Peer,
    ``fetch_many`` 2.)"""
    system, writer, reader = long_history(monkeypatch)
    master = system.master_service(KEY)
    assert catch_up(master, 0).entries == catch_up(master, 5).entries \
        == system.fetch_log(KEY, 10, 10)
    assert catch_up(master, 6).entries == system.fetch_log(KEY, 7, 10)  # all of it
    reads = log_reads(system)
    cold, sent = read_messages(system, lambda: system.sync(reader, KEY))
    assert (cold.checkpoint_ts, cold.retrieved_patches) == (9, 1)
    assert sent == {"ltr_catch_up": 2, "fetch": 2}
    # Its one read is the checkpoint's ``fetch``, request and reply.
    assert log_reads(system) == reads + 2
    assert system.user(reader).log.retrievals == 0
    assert system.user(reader).document(KEY).lines == \
        system.user(writer).document(KEY).lines == ["revision 9"]
    # More than an interval behind, but within the tail: served from the
    # answer, before any probe, with no log read.
    for index in range(4):
        system.edit_and_commit(writer, KEY, f"revision {10 + index}")
    system.run_for(2.0)  # (the checkpoint at ts 12 is written: not the reader)
    reads = log_reads(system)
    warm = system.sync(reader, KEY)
    assert (warm.checkpoint_ts, warm.retrieved_patches) == (None, 4)
    assert log_reads(system) == reads
    assert system.user(reader).document(KEY).lines == \
        system.user(writer).document(KEY).lines


def test_a_reader_within_an_interval_is_carried_no_rest(monkeypatch):
    """With a tail of 2 (9..10), a reader at 7 is older than the tail but
    only an interval behind: it will not probe, so the rest is not sent."""
    system, writer, reader = long_history(monkeypatch, tail=2)
    master = system.master_service(KEY)
    assert catch_up(master, 7).entries is None
    assert catch_up(master, 6).entries == system.fetch_log(KEY, 10, 10)


def test_last_ts_on_a_boundary_leaves_an_empty_rest(monkeypatch):
    """``last-ts`` 9 is the boundary: the rest is ``[]`` (which the wire drops
    — the reader's read of the empty range 10..9 sends nothing)."""
    system, writer, reader = long_history(monkeypatch, revisions=9)
    assert tenure(system.master_service(KEY), KEY).tail.suffix(9) == []
    result, sent = read_messages(system, lambda: system.sync(reader, KEY))
    assert sent == {"ltr_catch_up": 2, "fetch": 2}
    assert (result.checkpoint_ts, result.retrieved_patches, result.to_ts) == (9, 0, 9)
    assert system.user(reader).document(KEY).lines == \
        system.user(writer).document(KEY).lines


def test_an_older_checkpoint_is_not_completed_by_the_carried_rest(monkeypatch):
    """The checkpoint at 9 is not there yet (its placements are removed): the
    reader installs the one at 6, the carried ``[10]`` is not 7..10, and the
    log serves the rest."""
    system, writer, reader = long_history(monkeypatch)
    master = system.master_service(KEY)
    system.runtime.run(until=system.runtime.process(master.log.gc_checkpoint(KEY, 9)))
    assert system.latest_checkpoint(KEY).ts == 6
    result, sent = read_messages(system, lambda: system.sync(reader, KEY))
    assert (result.checkpoint_ts, result.retrieved_patches) == (6, 4)
    assert sent["fetch_many"] > 0 and system.user(reader).log.retrievals == 4
    assert system.user(reader).document(KEY).lines == \
        system.user(writer).document(KEY).lines


def test_a_tampered_rest_is_refused_once_and_read_from_the_log(monkeypatch):
    system, writer, reader = long_history(monkeypatch, auth_enabled=True)
    tail = tenure(system.master_service(KEY), KEY).tail
    honest = tail.entries[-1]
    forged = honest.patch.with_operations(
        tuple(honest.patch.operations) + (InsertLine(0, "<forged in the tail>"),)
    )
    tail.entries[-1] = replace(honest, patch=forged)  # keeps the author's signature
    user = system.user(reader)
    rejects = user.log.auth_rejects
    result, sent = read_messages(system, lambda: system.sync(reader, KEY))
    assert (result.checkpoint_ts, result.retrieved_patches) == (9, 1)
    assert user.log.auth_rejects == rejects + 1  # checked once, after the install
    assert sent["fetch_many"] > 0 and user.log.retrievals == 1
    assert user.document(KEY).lines == system.user(writer).document(KEY).lines
    assert "<forged in the tail>" not in user.document(KEY).lines


def test_a_fresh_tenures_short_tail_carries_nothing(monkeypatch):
    """A tail that starts after the boundary (10 revisions, the tenure ends,
    one more) cannot hand over 10..11: the reader reads them from the log."""
    system, writer, reader = long_history(monkeypatch)
    master = system.master_service(KEY)
    master.end_tenure(KEY)
    system.edit_and_commit(writer, KEY, "revision 10")
    assert [entry.ts for entry in tenure(master, KEY).tail.entries] == [11]
    assert catch_up(master, 0).entries is None
    result, sent = read_messages(system, lambda: system.sync(reader, KEY))
    assert (result.checkpoint_ts, result.retrieved_patches) == (9, 2)
    assert sent["fetch_many"] > 0 and system.user(reader).log.retrievals == 2
    assert system.user(reader).document(KEY).lines == \
        system.user(writer).document(KEY).lines


def test_an_in_doubt_reader_reads_the_log(monkeypatch):
    """A peer whose commit failed although it landed (ts 2) cannot tell from a
    snapshot whether it holds its proposal, so it never probes one: the rest
    after the boundary comes all the same, unused, and the log serves 2..10."""
    monkeypatch.setattr(master_module, "TAIL_MAX_ENTRIES", 4)
    system = at_most_once.build_system(checkpoint_interval=3, **at_most_once.IMPATIENT)
    key = at_most_once.KEY
    writer, other = at_most_once.cast(system)
    system.edit_and_commit(other, key, "base")
    system.sync(writer, key)
    system.run_for(1.0)
    user = at_most_once.fail_in_doubt(system, writer, "base\nthe edit")
    system.ring.wait_until_stable(max_time=60)
    for index in range(8):
        system.edit_and_commit(other, key, f"base\nthe edit\nrevision {index}")
    system.run_for(2.0)
    assert user._in_doubt == {key: 1} and system.last_ts(key) == 10
    assert catch_up(system.master_service(key), 1, key).entries == system.fetch_log(key, 10, 10)
    result, sent = read_messages(system, lambda: system.sync(writer, key))
    assert sent == {"ltr_catch_up": 2, "fetch_many": 10}  # no checkpoint read
    assert (result.checkpoint_ts, result.retrieved_patches) == (None, 9)
    assert user._in_doubt == {} and not user.has_pending(key)  # its own, adopted
    assert user.document(key).lines == system.user(other).document(key).lines
