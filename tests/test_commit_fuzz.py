"""Property-based fuzzing of the commit pipeline under churn.

Random interleavings of edits, batch flushes, synchronisations (also of one
peer with its own commit), Master departures/re-elections and peer churn are
generated deterministically from
a seed (via :mod:`repro.sim.rng`) and replayed against a fresh system; at
the end the paper's invariants (dense timestamps, prefix-complete log,
OT convergence — see ``test_invariants.py``) must hold.  Every script runs
at two chain lengths: ``unbatched`` commits each edit as a chain of one
(``edit``/``commit``), ``batched`` stages up to four edits per chain
(``stage``/``flush``).

On a violation the harness *shrinks* the failing run to the shortest action
prefix that still fails and reports the seed plus prefix length, so every
failure is reproducible with one function call::

    run_actions(seed=<seed>, batched=<batched>,
                actions=generate_actions(<seed>)[:<prefix>])
"""

import pytest

from repro.core import LtrConfig, LtrSystem
from repro.errors import ReproError
from repro.net import ConstantLatency
from repro.sim.rng import RandomStreams

from test_invariants import assert_system_invariants

KEYS = ("xwiki:fuzz-a", "xwiki:fuzz-b")
PEERS = 8
WRITERS = 3  # the first WRITERS peers edit and are protected from churn
STEPS = 24
MIN_LIVE_PEERS = 5


def generate_actions(seed: int, steps: int = STEPS) -> list[tuple]:
    """A deterministic action script; every choice is pre-drawn.

    Action forms (all fields drawn here so any prefix replays identically):

    * ``("edit", writer_index, key, revision_lines)``
    * ``("overlap", writer_index, key, revision_lines, delay, sync_first)`` —
      the edit is saved, then the writer overlaps with itself: ``sync`` and
      the commit of ``key`` start ``delay`` seconds apart, in either order
    * ``("flush", writer_index, key)`` — a (normally empty) ``commit`` at chain length one
    * ``("sync", writer_index, key)``
    * ``("join", tag)``
    * ``("depart_master", key, crash?)`` — re-election of the key's Master
    * ``("checkpoint", key)`` — rewrite the checkpoint at the newest boundary
    * ``("cold_join", tag, key)`` — a fresh peer joins and cold-syncs ``key``
    * ``("settle", seconds)``
    """
    rng = RandomStreams(seed).stream("fuzz-actions")
    # An overlap is an edit as far as the main stream goes; what it draws on
    # top comes from a stream of its own, so the rest of a seed's script is
    # what it was before the grammar knew overlaps.
    overlap_rng = RandomStreams(seed).stream("fuzz-overlaps")
    actions: list[tuple] = []
    for step in range(steps):
        roll = rng.random()
        if roll < 0.40:
            lines = rng.randint(1, 4)
            edit = (rng.randrange(WRITERS), rng.choice(KEYS),
                    [f"r{step}l{line}" for line in range(lines)])
            if roll < 0.30:
                actions.append(("edit", *edit))
            else:
                actions.append(("overlap", *edit, overlap_rng.randrange(0, 45, 5) / 1000,
                                overlap_rng.random() < 0.5))
        elif roll < 0.52:
            actions.append(("flush", rng.randrange(WRITERS), rng.choice(KEYS)))
        elif roll < 0.60:
            actions.append(("sync", rng.randrange(WRITERS), rng.choice(KEYS)))
        elif roll < 0.66:
            actions.append(("join", step))
        elif roll < 0.74:
            actions.append(("depart_master", rng.choice(KEYS), rng.random() < 0.5))
        elif roll < 0.85:
            actions.append(("checkpoint", rng.choice(KEYS)))
        elif roll < 0.91:
            actions.append(("cold_join", step, rng.choice(KEYS)))
        else:
            actions.append(("settle", round(rng.uniform(0.5, 2.0), 3)))
    return actions


def run_actions(seed: int, batched: bool, actions: list[tuple]) -> None:
    """Replay an action script and assert the invariants at the end.

    Both chain lengths checkpoint at a small interval so the fuzz covers
    checkpoint production, removal and cold-start syncs interleaved with
    flushes, churn and re-elections.
    """
    config = LtrConfig(
        batch_max_edits=4,
        checkpoint_interval=4,
    )
    system = LtrSystem(ltr_config=config, seed=seed, latency=ConstantLatency(0.004))
    system.bootstrap(PEERS)
    writers = system.peer_names()[:WRITERS]

    for action in actions:
        try:
            _replay_honest_action(system, writers, batched, action)
        except ReproError:
            # A commit racing a membership change may fail; the edits stay
            # pending/staged and the invariants must still hold at the end.
            continue

    system.run_for(3.0)
    if batched:
        for writer in writers:
            for key in KEYS:
                try:
                    system.flush(writer, key)
                except ReproError:
                    system.user(writer).discard_batch(key)
    assert_system_invariants(system, KEYS)


def _failure(seed: int, batched: bool, actions: list[tuple]):
    try:
        run_actions(seed, batched, actions)
    except (AssertionError, ReproError) as exc:
        return exc
    return None


def _shrink(seed: int, batched: bool, actions: list[tuple]) -> int:
    """Shortest failing prefix length (invariants are end-checked, so any
    prefix is itself a complete, smaller scenario)."""
    best = len(actions)
    candidate = best // 2
    while candidate > 0 and _failure(seed, batched, actions[:candidate]) is not None:
        best = candidate
        candidate //= 2
    while best > 1 and _failure(seed, batched, actions[:best - 1]) is not None:
        best -= 1
    return best


@pytest.mark.slow
@pytest.mark.parametrize("batched", [False, True], ids=["unbatched", "batched"])
@pytest.mark.parametrize("seed", [8, 31, 71, 512])  # 31: a peer overlapping itself
def test_fuzzed_interleavings_preserve_invariants(seed, batched):
    actions = generate_actions(seed)
    failure = _failure(seed, batched, actions)
    if failure is None:
        return
    prefix = _shrink(seed, batched, actions)
    pytest.fail(
        f"commit invariants violated: {failure!r}\n"
        f"reproduce with: run_actions(seed={seed}, batched={batched}, "
        f"actions=generate_actions({seed})[:{prefix}])"
    )


def test_action_scripts_are_deterministic():
    """The same seed draws the same script (reproducibility contract)."""
    assert generate_actions(99) == generate_actions(99)
    assert generate_actions(99) != generate_actions(100)


# ---------------------------------------------------------------------------
# Byzantine extension: tamper / replay / equivocate in the action grammar
# ---------------------------------------------------------------------------
#
# Signed-mode runs add three adversarial action forms.  The invariant is
# weaker than the honest grammar's — byzantine lies *may* break the commit
# invariants — but it is never vacuous: a run must either stay clean
# (every lie masked by replication and signature-checked retrieval) or the
# convergence checker must report a violation.  Failing both — broken
# invariants with a silent checker — is the bug class this fuzz hunts.

ADVERSARIAL_STEPS = 20


def generate_adversarial_actions(seed: int,
                                 steps: int = ADVERSARIAL_STEPS) -> list[tuple]:
    """The honest grammar plus byzantine action forms (all draws up front):

    * ``("tamper", victim_slot, mode)`` — wrap the victim's storage in a
      :class:`~repro.faults.MisbehavingStore` (``mode`` is ``corrupt`` or
      ``drop``)
    * ``("replay", victim_slot)`` — same wrapper in replay mode
    * ``("unwrap", victim_slot)`` — restore the victim's honest storage
    * ``("equivocate", key)`` — arm the key's Master to fork its next
      validation across placements
    """
    rng = RandomStreams(seed).stream("adversarial-actions")
    honest = generate_actions(seed, steps)
    actions: list[tuple] = []
    for action in honest:
        roll = rng.random()
        if roll < 0.10:
            actions.append(("tamper", rng.randrange(PEERS - WRITERS),
                            rng.choice(("corrupt", "drop"))))
        elif roll < 0.15:
            actions.append(("replay", rng.randrange(PEERS - WRITERS)))
        elif roll < 0.19:
            actions.append(("unwrap", rng.randrange(PEERS - WRITERS)))
        elif roll < 0.26:
            actions.append(("equivocate", rng.choice(KEYS)))
        actions.append(action)
    return actions


def run_adversarial_actions(seed: int, batched: bool,
                            actions: list[tuple]) -> None:
    """Replay a byzantine action script in signed mode; converge or report.

    Raises AssertionError only on *silent divergence*: the end-state
    invariants are broken and the checker recorded no violation.
    """
    from repro.check import ConvergenceChecker
    from repro.faults import MisbehavingStore

    config = LtrConfig(
        auth_enabled=True,
        batch_max_edits=4,
        checkpoint_interval=4,
    )
    system = LtrSystem(ltr_config=config, seed=seed, latency=ConstantLatency(0.004))
    system.bootstrap(PEERS)
    writers = system.peer_names()[:WRITERS]
    bystanders = system.peer_names()[WRITERS:]

    def victim(slot: int):
        name = bystanders[slot % len(bystanders)]
        node = system.ring.nodes.get(name)
        return node if node is not None and node.alive else None

    for action in actions:
        kind = action[0]
        try:
            if kind in ("tamper", "replay"):
                mode = action[2] if kind == "tamper" else "replay"
                node = victim(action[1])
                if node is None:
                    continue
                store = node.storage
                if isinstance(store, MisbehavingStore):
                    store = store._inner
                node.storage = MisbehavingStore(store, mode=mode, every=2)
            elif kind == "unwrap":
                node = victim(action[1])
                if node is not None and isinstance(node.storage, MisbehavingStore):
                    node.storage = node.storage._inner
            elif kind == "equivocate":
                master = system.master_of(action[1])
                service = system.ring.node(master).service("ltr-master")
                service.equivocate_next += 1
            else:
                _replay_honest_action(system, writers, batched, action)
        except ReproError:
            continue

    system.run_for(3.0)
    if batched:
        for writer in writers:
            for key in KEYS:
                try:
                    system.flush(writer, key)
                except ReproError:
                    system.user(writer).discard_batch(key)

    clean = True
    try:
        assert_system_invariants(system, KEYS)
    except (AssertionError, ReproError):
        clean = False
    if clean:
        return
    checker = ConvergenceChecker(keys=list(KEYS))
    snapshot = checker.check_now(system, label="adversarial-end")
    assert snapshot.violations, (
        "silent divergence: byzantine run broke the commit invariants and "
        "the checker reported nothing"
    )


def _replay_honest_action(system, writers, batched, action) -> None:
    """One honest-grammar action against ``system`` (shared replay body)."""
    kind = action[0]
    if kind == "edit":
        _, writer_index, key, lines = action
        writer = writers[writer_index]
        text = "\n".join(f"{line} by {writer}" for line in lines)
        if batched:
            system.stage(writer, key, text)
        else:
            system.edit_and_commit(writer, key, text)
    elif kind == "overlap":
        _, writer_index, key, lines, delay, sync_first = action
        user = system.user(writers[writer_index])
        text = "\n".join(f"{line} by {user.author}" for line in lines)
        (system.stage if batched else system.edit)(user.author, key, text)
        operations = [user.sync, user.flush if batched else user.commit]
        if not sync_first:
            operations.reverse()

        def delayed():
            yield system.runtime.timeout(delay)
            yield from operations[1](key)

        processes = [system.runtime.process(operations[0](key)),
                     system.runtime.process(delayed())]
        failures = []
        for process in processes:  # both run to their end, whatever the first did
            try:
                system.runtime.run(until=process)
            except ReproError as error:
                failures.append(error)
        if failures:
            raise failures[0]
    elif kind == "flush":
        _, writer_index, key = action
        if batched:
            system.flush(writers[writer_index], key)
        else:
            system.commit(writers[writer_index], key)
    elif kind == "sync":
        _, writer_index, key = action
        system.sync(writers[writer_index], key)
    elif kind == "join":
        system.add_peer(f"fuzz-joiner-{action[1]}")
    elif kind == "depart_master":
        _, key, crash = action
        master = system.master_of(key)
        if master in writers or len(system.peer_names()) <= MIN_LIVE_PEERS:
            return
        if crash:
            system.crash(master)
        else:
            system.leave(master)
    elif kind == "checkpoint":
        system.checkpoint_now(action[1])
    elif kind == "cold_join":
        _, tag, key = action
        name = f"cold-joiner-{tag}"
        system.add_peer(name)
        system.sync(name, key)
    elif kind == "settle":
        system.run_for(action[1])


def _adversarial_failure(seed: int, batched: bool, actions: list[tuple]):
    try:
        run_adversarial_actions(seed, batched, actions)
    except AssertionError as exc:
        return exc
    return None


def _shrink_adversarial(seed: int, batched: bool, actions: list[tuple]) -> int:
    best = len(actions)
    candidate = best // 2
    while candidate > 0 and _adversarial_failure(
            seed, batched, actions[:candidate]) is not None:
        best = candidate
        candidate //= 2
    while best > 1 and _adversarial_failure(
            seed, batched, actions[:best - 1]) is not None:
        best -= 1
    return best


def test_adversarial_scripts_are_deterministic():
    assert generate_adversarial_actions(99) == generate_adversarial_actions(99)
    assert generate_adversarial_actions(99) != generate_adversarial_actions(100)
    kinds = {action[0] for action in generate_adversarial_actions(99)}
    assert kinds & {"tamper", "replay", "equivocate"}, (
        "the adversarial grammar drew no byzantine actions at this seed"
    )


def test_adversarial_smoke_seed_converges_or_reports():
    """One fast signed-mode byzantine run (the CI adversarial-smoke gate)."""
    actions = generate_adversarial_actions(8)
    failure = _adversarial_failure(8, False, actions)
    if failure is None:
        return
    prefix = _shrink_adversarial(8, False, actions)
    pytest.fail(
        f"silent divergence: {failure!r}\n"
        f"reproduce with: run_adversarial_actions(seed=8, batched=False, "
        f"actions=generate_adversarial_actions(8)[:{prefix}])"
    )


@pytest.mark.slow
@pytest.mark.parametrize("batched", [False, True], ids=["unbatched", "batched"])
@pytest.mark.parametrize("seed", [8, 71, 512])
def test_fuzzed_byzantine_interleavings_converge_or_report(seed, batched):
    actions = generate_adversarial_actions(seed)
    failure = _adversarial_failure(seed, batched, actions)
    if failure is None:
        return
    prefix = _shrink_adversarial(seed, batched, actions)
    pytest.fail(
        f"silent divergence: {failure!r}\n"
        f"reproduce with: run_adversarial_actions(seed={seed}, "
        f"batched={batched}, "
        f"actions=generate_adversarial_actions({seed})[:{prefix}])"
    )
