"""A stale proposal is committed in the round it arrives in (repro.core.master).

A proposal at ``ts <= last-ts`` whose gap ``(ts - 1, last-ts]`` the Master's
tail covers is transformed over the gap's patches — by ``repro.ot.rebase_chain``,
the function the proposer runs on the same entries — and then takes the code a
current proposal takes: publish, re-election guard, allocate, tail, warm.  The
answer is *ok* and carries the gap.  A proposal whose identity is already in
the gap is a re-sent one: it is answered with the *ok* of the entry that
carries it, and nothing is published.  These tests pin the transform, the
retraction of a rejected rebased chain, every case in which the answer is
still *behind*, the bound on the work, and the answer to a re-sent identity;
``tests/test_at_most_once.py`` pins the proposer's half and
``tests/test_diff_paths.py`` proves the Master's transform equal to the
proposer's on whole runs.
"""

from unittest import mock

import pytest

from repro.core import LtrConfig, LtrSystem
from repro.core import master as master_module
from repro.core.protocol import ValidationResult
from repro.errors import KeyNotFound, PatchUnavailable
from repro.net import ConstantLatency
from repro.ot import Document, InsertLine, Patch, integrate_remote_into_staged, rebase_chain

from test_behind_suffix import KEY, handle, log_reads, publish
from test_core_master import build_system, find_takeover_joiner, is_fresh, make_patch, tenure

# ---------------------------------------------------------------- the transform --


@pytest.mark.parametrize("chain", [1, 16])
def test_the_logged_entries_are_what_the_proposer_applied(chain):
    system = build_system(batch_max_edits=chain)
    names = system.peer_names()
    for index in range(5):
        system.edit_and_commit(names[1], KEY, "\n".join(
            f"line {line} rev {index}" for line in range(index + 2)))
    user = system.user(names[0])
    if chain == 1:
        user.edit(KEY, "my line\nmy other line")
        result = system.commit(user.author, KEY)
    else:
        text = []
        for number in range(chain):
            text.insert(number // 2, f"mine {number}")
            user.stage(KEY, "\n".join(text))
        result = system.flush(user.author, KEY)
    assert (result.attempts, result.retrieved_patches, result.edits) == (1, 5, chain)
    assert (result.first_ts, result.ts) == (6, 5 + chain)
    master = system.master_service(KEY)
    assert master.statistics()["proposals_rebased"] == 1
    # What the proposer applied at 6.. is, patch for patch, what the log holds
    # there (operations, base, author, comment) — and so is what the Master
    # keeps for the next stale proposer.
    replica = user.document(KEY)
    applied = replica.history[-chain:]
    logged = system.fetch_log(KEY, 6, 5 + chain)
    assert [entry.patch for entry in logged] == applied
    assert [entry.base_ts for entry in logged] == list(range(5, 5 + chain))
    assert all(patch.base_ts == 5 for patch in applied)
    assert [entry.patch for entry in tenure(master, KEY).tail.entries[-chain:]] == applied
    # The proposer integrated the gap first, in order.
    assert [patch.author for patch in replica.history[:5]] == [names[1]] * 5
    report = system.check_consistency(KEY)
    assert report.converged and report.log_continuous and report.last_ts == 5 + chain


def test_the_master_and_the_proposer_call_one_function():
    """``integrate_remote_into_staged`` is ``rebase_chain`` plus a document."""
    remote = [Patch((InsertLine(0, "r1"),), author="r"),
              Patch((InsertLine(0, "r2"), InsertLine(2, "r3")), base_ts=1, author="r")]
    staged = [Patch((InsertLine(0, "a"),), author="me"),
              Patch((InsertLine(1, "b"),), author="me")]
    document = Document(key=KEY)
    with mock.patch("repro.ot.merge.rebase_chain", wraps=rebase_chain) as shared:
        mine = integrate_remote_into_staged(
            document, list(enumerate(remote, start=1)), staged)
    assert shared.call_count == 1
    assert mine == rebase_chain(staged, remote, 2)
    assert master_module.rebase_chain is rebase_chain
    lines = document.lines
    for patch in mine:
        lines = patch.apply(lines)
    assert sorted(lines) == ["a", "b", "r1", "r2", "r3"]


def test_rebase_work_is_bounded_by_the_tail_bounds(monkeypatch):
    monkeypatch.setattr(master_module, "TAIL_MAX_ENTRIES", 4)
    system = build_system()
    master = publish(system, 9)
    with mock.patch.object(master_module, "rebase_chain", wraps=rebase_chain) as shared:
        for ts in range(1, 11):
            handle(system, master, KEY, ts, [make_patch("late", f"x{ts}", ts - 1)], "late")
    # Whatever is proposed, the Master never transforms over more than the
    # tail holds; a longer gap is answered behind without any transform.
    gaps = [len(call.args[1]) for call in shared.call_args_list]
    assert gaps and max(gaps) <= 4
    stats = master.statistics()
    assert stats["proposals_rebased"] == len(gaps)
    assert stats["proposals_behind"] == 10 - len(gaps) > 0
    # ... nor over more bytes.
    size = tenure(master, KEY).tail.sizes[-1]
    monkeypatch.setattr(master_module, "TAIL_MAX_BYTES", 2 * size + size // 2)
    publish(system, 3, start=system.last_ts(KEY) + 1)
    last_ts = system.last_ts(KEY)
    assert len(tenure(master, KEY).tail.entries) == 2
    far = handle(system, master, KEY, last_ts - 2, [make_patch("late", "far")], "late")
    assert not far.accepted and far.entries is None


# ----------------------------------------------------- where *behind* is still the answer --


def behind_payload(last_ts, entries=None):
    return ValidationResult.behind(last_ts, entries).to_payload()


def answer(system, master, ts, **arguments):
    handler = master.validate_and_publish(
        key=KEY, ts=ts, patches=[make_patch("late", "x", ts - 1)], author="late",
        **arguments)
    return system.runtime.run(until=system.runtime.process(handler))


def test_behind_goes_out_exactly_as_before_where_the_master_cannot_rebase(monkeypatch):
    system = build_system()
    master = publish(system, 6)
    tail = list(tenure(master, KEY).tail.entries)
    # A signed proposal: the same payload as ever, suffix and all.
    assert answer(system, master, 4, signatures=["sig"]) == behind_payload(6, tail[3:])
    # A proposal ahead of last-ts.
    assert answer(system, master, 9) == behind_payload(6)
    # A gap older than the tail.
    monkeypatch.setattr(master_module, "TAIL_MAX_ENTRIES", 2)
    publish(system, 1, start=7)
    assert [entry.ts for entry in tenure(master, KEY).tail.entries] == [6, 7]
    assert answer(system, master, 5) == behind_payload(7)
    # An empty tail: a Master fresh from a takeover.
    master.end_tenure(KEY)
    assert answer(system, master, 7) == behind_payload(7)
    stats = master.statistics()
    assert (stats["proposals_behind"], stats["proposals_rebased"],
            stats["proposals_deduplicated"], stats["proposals_ok"]) == (4, 0, 0, 7)
    assert system.last_ts(KEY) == 7


def test_signed_deployment_is_answered_behind_and_commits_on_the_second_attempt():
    system = LtrSystem(seed=7, ltr_config=LtrConfig(auth_enabled=True))
    names = system.bootstrap(8)
    for index in range(3):
        system.edit_and_commit(names[1], KEY, f"revision {index}")
    user = system.user(names[0])
    user.edit(KEY, "my draft")
    result = system.commit(user.author, KEY)
    assert (result.ts, result.attempts, result.retrieved_patches) == (4, 2, 3)
    stats = system.master_service(KEY).statistics()
    assert (stats["proposals_behind"], stats["proposals_rebased"]) == (1, 0)
    # Every entry verifies: each carries its author's signature over what was
    # logged, identity included.
    from repro.p2plog import verify_entry
    entries = system.fetch_log(KEY, 1, 4)
    assert all(verify_entry(system.ltr_config.auth_secret, entry) for entry in entries)
    assert all(entry.proposal is not None for entry in entries)


# ------------------------------------------------------------- re-election --


@pytest.mark.parametrize("chain_length", [1, 3])
def test_a_rebased_chain_rejected_on_re_election_is_retracted_and_never_enters_the_tail(
        chain_length):
    system = LtrSystem(ltr_config=LtrConfig(), seed=42, latency=ConstantLatency(0.02))
    system.bootstrap(8)
    key = "xwiki:reelect"
    system.edit_and_commit("peer-0", key, "base revision")
    system.edit_and_commit("peer-0", key, "base revision\nsecond revision")
    system.run_for(2.0)
    joiner = find_takeover_joiner(system, key)
    old_master = system.master_service(key)
    assert [entry.ts for entry in tenure(old_master, key).tail.entries] == [1, 2]

    patches = [make_patch("u9", f"chain line {index}", base_ts=0)
               for index in range(chain_length)]
    process = system.runtime.process(old_master.validate_and_publish(
        key=key, ts=1, patches=patches, author="u9", base_ts=0, proposal=77))
    system.runtime.run(until=system.runtime.now + 0.005)  # the rebased publish is in flight
    system.add_peer(joiner)  # hand-off happens while the chain publishes
    result = ValidationResult.from_payload(system.runtime.run(until=process))

    assert result.rejected and result.entries is None
    assert old_master.proposals_rejected == 1 and old_master.proposals_rebased == 0
    assert is_fresh(tenure(old_master, key))
    assert system.master_of(key) == joiner and system.last_ts(key) == 2
    log = system.log_client()
    for orphan_ts in range(3, 3 + chain_length):
        with pytest.raises((PatchUnavailable, KeyNotFound)):
            system.runtime.run(until=system.runtime.process(log.fetch(key, orphan_ts)))
    # The retry reaches the new Master, which holds no tail: behind, as ever.
    new_master = system.master_service(key)
    retry = handle(system, new_master, key, 1, patches, "u9", base_ts=0, proposal=77)
    assert not retry.accepted and retry.last_ts == 2 and retry.entries is None
    follow_up = system.edit_and_commit("peer-0", key, "post-reelection revision")
    assert follow_up.ts == 3
    report = system.check_consistency(key)
    assert report.converged and report.log_continuous


# ------------------------------------------------------- a re-sent proposal --


def propose(master, ts, author, proposal, lines=("x",)):
    return master.validate_and_publish(
        key=KEY, ts=ts, author=author, base_ts=ts - 1, proposal=proposal,
        patches=[make_patch(author, line, ts - 1) for line in lines])


def answered(system, generator):
    return ValidationResult.from_payload(
        system.runtime.run(until=system.runtime.process(generator)))


def test_a_re_sent_identity_is_answered_with_the_original_ok_at_any_queue_position():
    system = build_system()
    master = publish(system, 2)
    # Queued on the document's lock at one instant, in this order: the
    # original, a copy, somebody else, another copy, somebody else, a copy.
    queue = [("me", 500), ("me", 500), ("other", 900), ("me", 500), ("third", 40),
             ("me", 500)]
    lanes = [system.runtime.process(propose(master, 3, author, proposal))
             for author, proposal in queue]
    results = [ValidationResult.from_payload(system.runtime.run(until=lane)) for lane in lanes]
    assert [(r.accepted, r.first_ts, r.last_ts) for r in results] == [
        (True, 3, 3), (True, 3, 3), (True, 4, 4), (True, 3, 3), (True, 5, 5), (True, 3, 3)]
    # The original ok: the timestamps it landed at, the gap before them — from
    # where this copy stands, which here is nothing at all.
    assert [r.entries for r in results] == [None, None, [system.fetch_log(KEY, 3, 3)[0]],
                                            None, system.fetch_log(KEY, 3, 4), None]
    stats = master.statistics()
    assert (stats["proposals_ok"], stats["proposals_deduplicated"],
            stats["proposals_rebased"], stats["patches_published"]) == (5, 3, 2, 5)
    assert system.last_ts(KEY) == 5
    authors = [entry.author for entry in system.fetch_log(KEY, 1, 5)]
    assert authors.count("me") == 1
    # An identity names one author's patch: the same number from somebody
    # else is somebody else's proposal.
    same_number = answered(system, propose(master, 3, "fourth", 500))
    assert same_number.accepted and same_number.first_ts == 6
    assert master.statistics()["proposals_deduplicated"] == 3


def test_a_rebased_then_re_sent_proposal_gets_the_ok_of_where_it_landed():
    """The reply was lost and the original landed at a *later* timestamp than
    it was proposed at: the copy is told where, and handed what precedes."""
    system = build_system()
    master = publish(system, 3)
    original = answered(system, propose(master, 1, "me", 500))
    assert original.accepted and (original.first_ts, original.last_ts) == (4, 4)
    publish(system, 2, start=5)
    reads = log_reads(system)
    copy = answered(system, propose(master, 1, "me", 500))
    assert copy.accepted and (copy.first_ts, copy.last_ts) == (4, 4)
    assert copy.replicas == 0  # how many placements the original reached is not kept
    # A proposer that has integrated part of the gap since is handed the rest.
    later = answered(system, propose(master, 3, "me", 500))
    assert (later.first_ts, later.last_ts) == (4, 4)
    assert [entry.ts for entry in later.entries] == [3]
    assert log_reads(system) == reads  # answered out of the tail
    assert list(copy.entries) == list(original.entries) == system.fetch_log(KEY, 1, 3)
    assert system.last_ts(KEY) == 6
    assert master.statistics()["proposals_deduplicated"] == 2


def test_a_chain_that_grew_since_it_landed_is_acknowledged_up_to_what_landed():
    system = build_system()
    master = publish(system, 1)
    original = answered(system, propose(master, 2, "me", 500, lines=("a", "b")))
    assert (original.first_ts, original.last_ts) == (2, 3)
    publish(system, 1, start=4)
    grown = answered(system, propose(master, 2, "me", 500, lines=("a", "b", "c")))
    assert grown.accepted and (grown.first_ts, grown.last_ts) == (2, 3)
    assert grown.entries is None and system.last_ts(KEY) == 4
    # The rest is a proposal of its own, under the identities that follow.
    rest = answered(system, propose(master, 4, "me", 502, lines=("c",)))
    assert rest.accepted and (rest.first_ts, rest.last_ts) == (5, 5)
    assert [entry.proposal for entry in system.fetch_log(KEY, 1, 5)] == \
        [None, 500, 501, None, 502]


def test_an_identity_beyond_the_tail_is_left_to_the_proposer(monkeypatch):
    """The tail is the Master's whole memory of identities: past it, the
    answer is *behind* and the log is the table (``test_at_most_once``)."""
    monkeypatch.setattr(master_module, "TAIL_MAX_ENTRIES", 2)
    system = build_system()
    master = publish(system, 1)
    assert answered(system, propose(master, 2, "me", 500)).first_ts == 2
    publish(system, 2, start=3)
    copy = answered(system, propose(master, 2, "me", 500))
    assert not copy.accepted and copy.last_ts == 4 and copy.entries is None
    assert system.last_ts(KEY) == 4  # and in no case is it committed again


# ---------------------------------------- overlapping rounds ≡ one by one --


def chain_of(author, ts, length):
    """``length`` patches, each against its predecessor's output, the first
    against the log prefix ``1 .. ts - 1``."""
    return [Patch((InsertLine(offset, f"{author} {offset}"),), base_ts=ts - 1 + offset,
                  author=author) for offset in range(length)]


#: ``(author, proposed ts, chain, proposal identity, extra arguments)`` in
#: arrival order, on a log of three entries: current, stale by one, two and
#: three, chains of 1 and 16 mixed, a re-sent identity, one whose patch
#: cannot be transformed, one signed (*behind*: it goes last, because it is
#: answered with the ``last-ts`` that holds after the rounds ahead of it).
ARRIVALS = [
    ("now", 4, 1, 100, {}),
    ("one", 3, 16, 200, {}),
    ("two", 2, 1, 300, {}),
    ("now", 4, 1, 100, {}),
    ("three", 1, 16, 400, {}),
    ("hostile", 2, None, 500, {}),
    ("signed", 2, 1, 600, {"signatures": ["not checked without auth_enabled"]}),
]


def serve(together):
    """The proposals of ``ARRIVALS`` at one Master, arriving together (each
    placed behind the rounds still out, all of them out at once) or one by one."""
    system = build_system()
    master = publish(system, 3)
    authority = master._authority()
    allocations = authority.allocations

    def proposal(author, ts, length, identity, extra):
        patches = chain_of(author, ts, length) if length else ["not a patch"]
        return master.validate_and_publish(
            key=KEY, ts=ts, patches=patches, author=author, base_ts=ts - 1,
            proposal=identity, **extra)

    def outcome(process):
        try:
            result = ValidationResult.from_payload(system.runtime.run(until=process))
        except Exception as error:  # noqa: BLE001 - compared by type across the arms
            return type(error).__name__
        return (result.status, result.first_ts, result.last_ts, result.entries)

    plain, peaks = master.log.append_many, []

    def counting(entries):
        peaks.append(len(master._document(KEY).rounds))
        result = yield from plain(entries)
        return result

    with mock.patch.object(master.log, "append_many", side_effect=counting) as publishes:
        if together:
            holder = system.runtime.process(proposal("holder", 4, 1, 1, {}))
            lanes = [system.runtime.process(proposal(*member)) for member in ARRIVALS]
            answers = [outcome(holder)] + [outcome(lane) for lane in lanes]
        else:
            answers = [outcome(system.runtime.process(proposal(*member)))
                       for member in [("holder", 4, 1, 1, {})] + ARRIVALS]
    logged = system.fetch_log(KEY, 1, system.last_ts(KEY))
    log = [(entry.ts, entry.author, entry.base_ts, entry.proposal, entry.patch.operations)
           for entry in logged]
    # Every proposer applies its answer: the gap under its chain, then the chain.
    texts = []
    for (author, ts, length, _identity, _extra), answer in zip(ARRIVALS, answers[1:]):
        if not isinstance(answer, tuple) or answer[0] != "ok":
            texts.append(None)
            continue
        replica = Document(key=KEY)
        for entry in logged[:ts - 1]:
            replica.apply_patch(entry.patch, ts=entry.ts)
        chain = integrate_remote_into_staged(
            replica, [(entry.ts, entry.patch) for entry in answer[3] or []],
            chain_of(author, ts, length))
        for offset, patch in enumerate(chain[:answer[2] - answer[1] + 1]):
            if answer[1] + offset > replica.applied_ts:  # (a repeat: it is in the gap)
                replica.apply_patch(patch, ts=answer[1] + offset)
        texts.append(replica.text)
    return {"answers": answers, "log": log, "texts": texts,
            "allocations": authority.allocations - allocations,
            "publishes": publishes.call_count, "peak_in_flight": max(peaks),
            "statistics": master.statistics()}


def test_overlapping_rounds_serve_the_same_proposals_as_one_by_one():
    overlapped, single = serve(together=True), serve(together=False)
    assert overlapped["log"] == single["log"]

    def comparable(answer):
        # (``published_at`` is when the round went out: the one thing that differs.)
        if isinstance(answer, str) or answer[3] is None:
            return answer
        return answer[:3] + ([(entry.ts, entry.author, entry.base_ts, entry.proposal,
                               entry.patch.operations) for entry in answer[3]],)

    assert [comparable(answer) for answer in overlapped["answers"]] == \
        [comparable(answer) for answer in single["answers"]]
    assert overlapped["texts"] == single["texts"]
    # What it is about: one round per proposal that publishes (the repeat, the
    # hostile and the signed one do not) either way — all of them out at the
    # Log-Peers at once, against one after the other.
    assert (overlapped["allocations"], overlapped["publishes"]) == (5, 5)
    assert (single["allocations"], single["publishes"]) == (5, 5)
    assert overlapped["statistics"]["publishes"] == single["statistics"]["publishes"] == 3 + 5
    assert overlapped["peak_in_flight"] == 5 and single["peak_in_flight"] == 1
    # ... and the shape of the run itself, so that equality is not vacuous.
    statuses = [answer if isinstance(answer, str) else answer[0]
                for answer in overlapped["answers"]]
    assert statuses == ["ok", "ok", "ok", "ok", "ok", "ok", "AttributeError", "behind"]
    holder, now, one, two, repeat, three, _hostile, signed = overlapped["answers"]
    assert [(a[1], a[2]) for a in (holder, now, one, two, repeat, three)] == \
        [(4, 4), (5, 5), (6, 21), (22, 22), (5, 5), (23, 38)]
    assert [len(a[3] or []) for a in (holder, now, one, two, repeat, three)] == \
        [0, 1, 3, 20, 1, 22]
    assert signed[2] == 38 and [entry.ts for entry in signed[3]] == list(range(2, 39))
    for key in ("proposals_ok", "proposals_rebased", "proposals_deduplicated",
                "proposals_behind", "patches_published"):
        assert overlapped["statistics"][key] == single["statistics"][key], key
    assert (overlapped["statistics"]["proposals_ok"], overlapped["statistics"]["proposals_rebased"],
            overlapped["statistics"]["proposals_deduplicated"]) == (3 + 5, 4, 1)
    # Every replica that applied its answer reads as the log does up to there.
    logged = [operations for _ts, _author, _base, _proposal, operations in overlapped["log"]]
    for answer, text in zip(overlapped["answers"][1:], overlapped["texts"]):
        if text is not None:
            lines = []
            for operations in logged[:answer[2]]:
                lines = Patch(operations).apply(lines)
            assert text == "\n".join(lines)
