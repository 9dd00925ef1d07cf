"""The message budget of a contended commit (simulated-clock counts).

One commit of the paper's protocol is: route to the Master-key peer,
validate, ``Put`` at the ``|Hr|`` Log-Peers, ack — and, when *behind*, one
more validation round, which a stale proposal no longer pays: the Master
transforms it over what it missed and commits it in the round it arrived in.
Two redundant routed round-trips used to ride along
(76 % of the traffic): re-routing to peers already known, because a route
relayed out of another node's cache was never learned, and re-reading from
the P2P-Log what the Master had just published.  This test pins the budget
on a small warm ring under Zipf contention so neither can quietly come
back; the counts are exact for one seed (discrete-event simulation).

A third cost was still paid *under the per-document lock*: routing to the
Log-Peers of a timestamp nobody had used before.  The Master now resolves
them ahead of the proposal that needs them, so a publish whose timestamps
were warmed sends no ``find_successor`` between lock acquire and release —
pinned here too, next to what warming costs (lookups for each document's
last, never-used warmed timestamps; lanes that reach a hot document sooner
propose more often).  Exact counts of this run (360 commits), before the
Master transformed stale proposals → after → with group commit:
``find_successor`` 1258 → 1260 → 1264, ``ltr_validate_and_publish`` 1752 →
720 → 720 (2.43 → 1.00 proposals a commit: one request, one reply — a group
shares the publish, not the proposal), ``store_many`` 2120 → 2120 → 2094 and
``receive_items`` 1420 → 1420 → 1375 (the proposals that queue behind a
running publish go out in one round: 328 publishes for the 360 commits, 26
of two and 3 of three — one grouped write per Log-Peer and one counter push
each), total 6550 → 5520 → 5453 (18.19 → 15.33 → 15.15 a commit).

Every Master checkpoints too, every 64 timestamps, and the hottest document
crosses ts 64 once in this run.  The Master writes that checkpoint in the
background: its index read misses at all three placements (6 ``fetch``),
then it stores the snapshot and the index at three each (12 ``store``).
That traffic is counted on a line of its own, so "the log is never read"
stays exact for log keys.  Its routing and replica pushes stay in the total
(+4 ``find_successor``, +6 ``receive_items``).  By arriving between the
proposals, the job shifts which of them queue together: 329 publishes,
``store_many`` 2096 and 2 more ``receive_items``, total 5467 (15.19 a
commit).

A ``find_successor`` answer now carries the answering peer's fresh routes,
not only the one it was asked for, so an editor or a Master that looks up
one arc learns the ring around it: ``find_successor`` 1268 → 582.  With
lookups shorter, proposals queue together differently: 323 publishes,
``store_many`` 2096 → 2098, ``receive_items`` 1383 → 1378, total 5467 →
4778 (15.19 → 13.27 a commit).

A checkpoint now sits at an address computed from its boundary (ts 64), so
the job reads no index and writes none: of its 6 ``fetch`` and 12 ``store``
only the three snapshot copies remain, stored with one ``put_many`` — one
``store_many`` to each of the three owners and its answer, 6 messages.
Their replica pushes and routing stay in the total, as before.  Done
sooner, the job shifts which proposals queue together once more: 326
publishes (three more groups of one), ``store_many`` 2098 → 2108,
``receive_items`` 1378 → 1383, total 4778 → 4793 (13.27 → 13.31 a commit).

The Master no longer holds a document's lock across the publish: a proposal
is placed behind the rounds still at the Log-Peers and published at once, and
allocation follows in timestamp order.  So there is no group any more — one
publish, one allocation and one counter push a commit: 360 publishes for the
360 commits (326 in groups).  ``receive_items`` 1383 → 1423 (34 more counter
pushes, one for each round that used to ride in a group), ``store_many``
2108 → 2120 (placements of two proposals that shared an owner used to share a
grouped write), ``find_successor`` 582 → 578 (the horizon is counted past the
rounds in flight, which their own publishes routed, so no warm-up asks for
them again; an arrival behind a round in flight warms one timestamp on);
total 4793 → 4841 (13.31 → 13.45 a commit).  A tenure's first allocation
warms the timestamps after it, where one with nothing in flight used to warm
nothing (no previous allocation to pace by): ``find_successor`` 578 → 566,
total 4841 → 4829 (13.41 a commit).

The read phase has a budget of its own (:func:`run_read_phase`): cold readers
of a document longer than the Master's tail, each of which needs a checkpoint
and the entries after it.
"""

import random

from route_probe import trace_routing

from repro.core import LtrConfig, LtrSystem
from repro.core import master as master_module
from repro.experiments.scenarios import SCALE_CHORD_CONFIG
from repro.net import MessageKind, UniformLatency
from repro.p2plog import CHECKPOINT_SALT_PREFIX
from repro.workloads.skew import sample_zipf_rank, zipf_weights

PEERS, EDITORS, DOCUMENTS, COMMITS = 48, 6, 12, 360


def count_checkpoint_traffic(system: LtrSystem) -> dict[str, int]:
    """Count, per method, the requests naming checkpoint placements alone
    (``hc*`` keys, or a ``store_many`` of them) and their answers, as they are
    sent from now on."""
    counted: dict[str, int] = {}
    requests = set()
    send = system.network.send

    def observed(message):
        if message.kind is MessageKind.RESPONSE:
            ours = (message.destination, message.request_id) in requests
        else:
            payload = message.payload if isinstance(message.payload, dict) else {}
            keys = ([item["key"] for item in payload["items"]]
                    if message.method == "store_many" else [payload.get("key")])
            ours = all(isinstance(key, str) and key.startswith(CHECKPOINT_SALT_PREFIX)
                       for key in keys)
            if ours:
                requests.add((message.source, message.request_id))
        if ours:
            counted[message.method] = counted.get(message.method, 0) + 1
        return send(message)

    system.network.send = observed
    return counted


def run_write_phase(seed: int) -> tuple[dict[str, int], dict[str, int], list[int]]:
    """Messages sent by the write phase, other than the checkpoint reads and
    writes; those; and the attempts of every commit."""
    system = LtrSystem(chord_config=SCALE_CHORD_CONFIG, seed=seed,
                       latency=UniformLatency(0.002, 0.004))
    names = system.bootstrap(PEERS, warm=True)
    editors = [system.user(names[slot * (PEERS // EDITORS)]) for slot in range(EDITORS)]
    rng = random.Random(f"commit-budget:{seed}")
    weights = zipf_weights(DOCUMENTS, 1.1)
    schedule = [
        (f"doc-{sample_zipf_rank(rng, weights):02d}", f"#{number} {rng.random():.12f}")
        for number in range(COMMITS)
    ]
    schedule.reverse()
    attempts: list[int] = []

    def lane(user):
        while schedule:
            key, line = schedule.pop()
            lines = user.working_lines(key)
            lines.insert(len(lines) // 2, line)
            user.edit(key, "\n".join(lines[-24:]))
            result = yield from user.commit(key)
            attempts.append(result.attempts)

    before = dict(system.network.stats.per_method)
    counted = count_checkpoint_traffic(system)
    lanes = [system.runtime.process(lane(user)) for user in editors]
    system.runtime.run(until=system.runtime.all_of(lanes))
    after = system.network.stats.per_method
    checkpoint = dict(counted)  # the write phase's alone
    sent = {method: count - before.get(method, 0) - checkpoint.get(method, 0)
            for method, count in after.items()}
    sent = {method: count for method, count in sent.items() if count}
    for key in sorted({f"doc-{index:02d}" for index in range(DOCUMENTS)}):
        if system.last_ts(key):
            report = system.check_consistency(key)
            assert report.converged and report.log_continuous, key
    return sent, checkpoint, attempts


def test_contended_commit_pays_only_for_the_round_trips_it_needs():
    sent, checkpoint, attempts = run_write_phase(seed=1)
    assert len(attempts) == COMMITS
    proposals = sent["ltr_validate_and_publish"] / 2  # request + response
    assert proposals == sum(attempts)
    # Contended (most proposals are stale when they arrive: 2.43 a commit
    # while they were sent back), and every one of them lands all the same.
    assert set(attempts) == {1}
    per_commit = {method: count / COMMITS for method, count in sent.items()}
    # No Master changed hands, every gap fits the tail: the log is never read.
    assert sent.get("fetch_many", 0) == 0 and sent.get("fetch", 0) == 0
    # Routing is warm-up only — each editor and each Master learns its few
    # routes once, authoritatively, relayed or carried along with another
    # answer: 1.6 messages a commit over these 360 commits (3.5 when an
    # answer carried one route) and falling with the run's length, where
    # PR 16 paid 22.5 (and 7.4 fetch_many) whatever the length.
    assert per_commit["find_successor"] <= 4.0, per_commit
    # The protocol itself: proposals, grouped puts, replica pushes
    # (2.0 + 5.9 + 3.9 measured).
    assert per_commit["ltr_validate_and_publish"] == 2.0, per_commit
    assert per_commit["store_many"] <= 6.0, per_commit
    assert per_commit["receive_items"] <= 4.0, per_commit
    # The exact budget (module docstring): a count that moves is a
    # behavioural change of the commit path and has to be explained.
    assert sent == {"find_successor": 566, "ltr_validate_and_publish": 720,
                    "store_many": 2120, "receive_items": 1423}
    assert sum(sent.values()) == 4829  # 13.41 a commit
    # One checkpoint in the background: its three snapshot copies, one
    # ``store_many`` and one answer per owner, no index (module docstring).
    assert checkpoint == {"store_many": 6}


def test_a_warmed_publish_routes_nothing_under_the_lock():
    """(The name is from when the publish ran under the document's lock; the
    lock covers placement now, and what is pinned is the same stretch: from a
    round's placement to its allocation, its publish.)"""
    with trace_routing() as trace:
        run_write_phase(seed=1)
    # (Pinned 326 rounds, 30 of them for more than one proposal, while
    # proposals that queued behind a running publish shared the next.)  Every
    # commit is published once, in a round of its own: 360.
    assert sum(len(publish.timestamps) for publish in trace.publishes) == COMMITS
    assert len(trace.publishes) == COMMITS
    warmed = [publish for publish in trace.publishes if trace.was_warmed(publish)]
    cold = [publish for publish in trace.publishes if not trace.was_warmed(publish)]
    # All but each tenure's first publish (no previous allocation to pace by)
    # and those placed while the rounds ahead of them were still out, past
    # the horizon: 338 of 360 (329 while a tenure's first allocation warmed
    # nothing; 304 of 326 in groups, whose waiters were warmed as they
    # arrived).
    assert len(warmed) == 338 >= len(trace.publishes) - 3 * DOCUMENTS
    assert all(len(publish.timestamps) == 1 for publish in cold)
    assert [trace.lookups_under_lock(publish) for publish in warmed] == [[]] * len(warmed)
    # ... which is where the routing of the others still sits, and was for all.
    assert sum(len(trace.lookups_under_lock(publish)) for publish in cold) > 0
    # The lookups did not vanish, they moved ahead of the placement.
    assert sum(lookup.warm for lookup in trace.routed) > 0


def test_budget_counts_repeat_exactly_for_one_seed():
    assert run_write_phase(seed=3) == run_write_phase(seed=3)


READERS, REVISIONS, INTERVAL, TAIL = 6, 45, 8, 16


def run_read_phase(seed: int) -> tuple[dict[str, int], list]:
    """Messages sent while ``READERS`` cold peers sync, one after the other,
    a document one writer committed ``REVISIONS`` times; and their results."""
    system = LtrSystem(chord_config=SCALE_CHORD_CONFIG,
                       ltr_config=LtrConfig(checkpoint_interval=INTERVAL),
                       seed=seed, latency=UniformLatency(0.002, 0.004))
    names = system.bootstrap(PEERS, warm=True)
    writer, readers = names[0], names[1:1 + READERS]
    for revision in range(REVISIONS):
        system.edit_and_commit(writer, "doc", f"revision {revision}")
    system.run_for(2.0)  # the checkpoint at 40 is written after its commit
    before = dict(system.network.stats.per_method)
    results = [system.sync(reader, "doc") for reader in readers]
    sent = {method: count - before.get(method, 0)
            for method, count in system.network.stats.per_method.items()}
    for reader in readers:
        assert system.user(reader).document("doc").lines == \
            system.user(writer).document("doc").lines
    return {method: count for method, count in sent.items() if count}, results


def test_cold_readers_read_one_checkpoint_and_the_carried_rest(monkeypatch):
    """The Master's tail holds 30..45 (``TAIL_MAX_ENTRIES`` patched to 16), so
    it does not reach back to a cold reader; the newest boundary is 40.  Per
    reader, exactly:

    * ``ltr_catch_up`` 2 — the request for ``last-ts`` and its answer, which
      carries 41..45, the rest after the boundary, out of the tail;
    * ``fetch`` 2 — the checkpoint at 40, from its first placement;
    * ``find_successor`` 4 to 8 — the routes to the Master and to that
      placement, one or two hops each (34 for the six);
    * no ``fetch_many``: nothing comes from the log.

    While the answer carried nothing to a reader older than the tail, the six
    read 41..45 from the log: ``fetch_many`` 48 (four Log-Peers each) and
    ``find_successor`` 72 with the routes to them, 144 messages in all.
    """
    monkeypatch.setattr(master_module, "TAIL_MAX_ENTRIES", TAIL)
    sent, results = run_read_phase(seed=1)
    assert [(result.checkpoint_ts, result.retrieved_patches) for result in results] \
        == [(40, 5)] * READERS
    assert sent == {"find_successor": 34, "ltr_catch_up": 2 * READERS,
                    "fetch": 2 * READERS}
    assert sum(sent.values()) == 58
