"""Differential harness: one seeded script, run once per *arm*.

A change that replaces (or short-cuts) a path of the commit pipeline proves
itself here before the old path goes: the same seeded script — three
writers on a hot and a cold document, optionally through a fault, in two
bursts with the fault between them — is run on each arm, and every arm must
end with the checker's four invariants green (dense timestamps,
prefix-complete log, OT convergence, no proposal in the log twice), every
replica converged, every acknowledged edit in the log and none of them
twice.

There are two scripts.  In the **contended** one (:func:`run_arm`) the
writers race; commit *orders* may differ between arms (an arm that saves a
round-trip changes who wins the next race), invariants may not.  In the
**sequential** one (``sequential=True``) the writers take turns, two commits
each, never synchronising in between: every other commit is stale, nothing
depends on timing (a partition is healed again before the second burst), and
so two arms must agree on more than invariants — the same log, entry for
entry, and the same replica texts
(:meth:`ArmReport.assert_same_outcome`).  That is how a transform that moved
(the Master rebasing a stale proposal) is proven equal to the one it
replaces (the proposer rebasing after a *behind* answer and a log read).

An arm is any context manager that is active while the script runs; see
``test_diff_paths.py`` for the arms: the Master's tail against the log
retrieval it short-cuts, warmed routes against routing under the lock.

**Across trees.**  A collapse that leaves no arm behind — the old path is
gone from the tree that has the new one — proves itself between two
checkouts instead: every report carries a canonical text dump
(:func:`canonical_dump`: every replica as the script left it and after the
final synchronisation, the log entry for entry with its proposal identities),
and run as a script this module writes the dumps of a whole grid to a file::

    PYTHONPATH=<tree>/src python tests/diff_paths.py <out> [--seeds 25]

Run it once per tree (this file against either ``src``) and compare the two
files byte for byte.  The grid is the contended script over every fault and
both chain lengths (``--sequential``: the sequential one, for a change that
moves the contended script's timing but must leave alone whoever proposes
alone), and the **in-doubt** script (:func:`run_in_doubt`): a
commit whose reply is lost after the publish, further saves behind it, a
foreign commit, and then one of three ways on — through ``edit``/``commit``
and through ``stage``/``flush``, which must agree with each other too
(``test_invariants.py``).

**Overlapping rounds.**  The Master places a proposal behind the rounds of
its document still at the Log-Peers and publishes it at once; arm ``serial``
(:data:`PIPELINE_ARMS`) patches the room check to let one round out at a
time, which is the Master publishing them one after the other.
:func:`check_pipeline_cell` holds both arms to the invariants on one cell;
``--pipeline-sweep`` runs it over the whole grid of ``--seeds`` seeds.
"""

from __future__ import annotations

import contextlib
import random
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, Iterator
from unittest import mock

from repro.check import ConvergenceChecker
from repro.core import LtrConfig, LtrSystem
from repro.core import master as master_module
from repro.errors import ReproError
from repro.net import UniformLatency
from repro.ot import InsertLine

from route_probe import trace_routing
from test_core_master import find_takeover_joiner

IN_DOUBT_KEY = "xwiki:diff-in-doubt"
#: How the writer goes on after the commit that failed although it landed.
IN_DOUBT_VARIANTS = ("commit-again", "sync-then-commit", "discard-then-edit")

FAULTS = ("none", "partition-heal", "master-crash", "churn")
HOT, COLD = "xwiki:diff-hot", "xwiki:diff-cold"
KEYS = (HOT, COLD)
PEERS = 8
WRITERS = 3
#: Edits per writer and burst, by chain length; with three writers mostly on
#: one document, well over half of the proposals are answered *behind*.
EDITS = {1: 8, 16: 24}

Arm = Callable[[], ContextManager[Any]]


@dataclass
class ArmReport:
    """What one arm left behind (everything the assertions read)."""

    acked: dict[str, set[str]] = field(default_factory=dict)
    logged: dict[str, list[str]] = field(default_factory=dict)
    #: Per document the log ``1 .. last-ts`` as ``(ts, author, base_ts,
    #: operations)``, and the text of every writer's replica after the final
    #: synchronisation: what two arms of the sequential script must share.
    log: dict[str, list[tuple]] = field(default_factory=dict)
    texts: dict[str, dict[str, str]] = field(default_factory=dict)
    #: :func:`canonical_dump` of the final state, after the replicas as the
    #: script left them: what two *trees* must share, byte for byte.
    dump: str = ""
    violations: list[str] = field(default_factory=list)
    converged: bool = True
    #: Commits that raised (the sequential script expects none).
    failed_commits: int = 0
    #: ``fetch_many`` requests sent while only commits were running: every
    #: one of them is a *behind* round that read the P2P-Log.
    write_phase_log_reads: int = 0
    behind_answers: int = 0
    #: Stale proposals the Master transformed and committed itself.
    rebased_proposals: int = 0
    #: Publishes, and the lookups they sent out themselves, i.e. while holding
    #: the per-document lock (``route_probe``: routing that was not done
    #: ahead) — of all publishes, and of those whose timestamps the Master
    #: had warmed before they arrived.
    publishes: int = 0
    #: Most publishes one Master had out for one document at one instant.
    peak_rounds: int = 0
    lookups_under_lock: int = 0
    warmed_publishes: int = 0
    warmed_lookups_under_lock: int = 0

    @property
    def missing(self) -> list[tuple[str, str]]:
        """Acknowledged edits the log does not hold."""
        return sorted(
            (key, marker)
            for key, markers in self.acked.items()
            for marker in markers - set(self.logged.get(key, ()))
        )

    @property
    def doubled(self) -> list[tuple[str, str]]:
        """Edits the log holds more than once."""
        return sorted(
            (key, marker)
            for key, markers in self.logged.items()
            for marker in set(markers) if markers.count(marker) > 1
        )

    def assert_invariants(self, label: str) -> None:
        assert self.violations == [], (label, self.violations)
        assert self.converged, f"{label}: replicas did not converge"
        assert self.missing == [], f"{label}: acked edits not in the log: {self.missing}"
        assert self.doubled == [], f"{label}: edits in the log twice: {self.doubled}"

    def assert_same_outcome(self, other: "ArmReport", label: str) -> None:
        """Both arms produced the same log and the same replicas, byte for byte."""
        assert self.failed_commits == other.failed_commits == 0, label
        for key in KEYS:
            ours, theirs = self.log.get(key, []), other.log.get(key, [])
            assert len(ours) == len(theirs), (label, key, len(ours), len(theirs))
            for mine, yours in zip(ours, theirs):
                assert mine == yours, f"{label}: {key} differs at ts {mine[0]}: {mine} != {yours}"
        assert self.texts == other.texts, f"{label}: replica texts differ"


def _edit(rng: random.Random, lines: list[str], marker: str,
          keep: list[str]) -> str:
    """The next text: ``marker`` in at a random line, one line out once there
    are more than twelve — never one of ``keep`` (an edit of ours that is
    still unacknowledged: composed into one pending patch, insert + delete
    would cancel out and the edit would, rightly, never reach the log)."""
    deletable = [line for line in lines if line not in keep]
    if len(lines) > 12 and deletable:
        lines.remove(rng.choice(deletable))
    lines.insert(rng.randrange(len(lines) + 1), marker)
    return "\n".join(lines)


def _turns(system: LtrSystem, writers: list[str], seed: int, chain: int,
           phase: int, report: ArmReport) -> None:
    """The sequential script: one commit at a time, every other one stale.

    The writers take turns of two commits, each writer on the document the
    turn picks; nobody synchronises.  The first commit of a turn is behind
    by whatever the others committed since this writer's last turn, the
    second is current.  With ``chain > 1`` a commit is a staged chain of
    2 .. ``chain`` edits.
    """
    rng = random.Random(f"diff-paths-sequential:{seed}:{phase}")
    stats = system.network.stats
    reads = stats.per_method.get("fetch_many", 0)
    for turn in range(9 if chain == 1 else 6):
        name = writers[turn % len(writers)]
        user = system.user(name)
        key = HOT if rng.random() < 0.75 else COLD
        for commit in range(2):
            markers = [f"{name}#{phase}.{turn}.{commit}.{edit}"
                       for edit in range(1 if chain == 1 else rng.randint(2, chain))]
            for marker in markers:
                if chain > 1:
                    user.stage(key, _edit(rng, user.staged_lines(key), marker, markers))
                else:
                    user.edit(key, _edit(rng, user.working_lines(key), marker, markers))
            try:
                result = (system.flush if chain > 1 else system.commit)(name, key)
            except ReproError:
                report.failed_commits += 1
                continue
            if result is not None:
                report.acked.setdefault(key, set()).update(markers)
    report.write_phase_log_reads += stats.per_method.get("fetch_many", 0) - reads


def _writer(system: LtrSystem, name: str, seed: int, chain: int, phase: int,
            acked: dict[str, set[str]]) -> Iterator[Any]:
    """One closed-loop writer: edit (or stage a chain), commit, repeat."""
    rng = random.Random(f"diff-paths:{seed}:{name}:{phase}")
    user = system.user(name)
    runtime = system.runtime
    unacked: dict[str, list[str]] = {key: [] for key in KEYS}

    def commit(key: str) -> Iterator[Any]:
        # A failed commit keeps the (rebased) edits pending / staged: retry
        # a few times across the fault window, then move on — a later
        # commit of the same document carries them along.
        for _attempt in range(6):
            try:
                result = yield from (user.flush(key) if chain > 1 else user.commit(key))
            except ReproError:
                yield runtime.timeout(0.5)
                continue
            if result is not None:
                acked.setdefault(key, set()).update(unacked[key])
                unacked[key] = []
            return

    for number in range(EDITS[chain]):
        key = HOT if rng.random() < 0.75 else COLD
        marker = f"{name}#{phase}.{number}"
        lines = user.staged_lines(key) if chain > 1 else user.working_lines(key)
        text = _edit(rng, lines, marker, unacked[key])
        unacked[key].append(marker)
        if chain > 1:
            user.stage(key, text)
            if not user.batch(key).full:
                continue
        else:
            user.edit(key, text)
        yield from commit(key)
        yield runtime.timeout(rng.uniform(0.0, 0.02))
    for key in KEYS:
        if unacked[key]:
            yield from commit(key)


def _burst(system: LtrSystem, writers: list[str], seed: int, chain: int,
           phase: int, report: ArmReport) -> None:
    """Every writer runs its script for ``phase`` concurrently, to completion."""
    stats = system.network.stats
    reads = stats.per_method.get("fetch_many", 0)
    lanes = [
        system.runtime.process(
            _writer(system, name, seed, chain, phase, report.acked)
        )
        for name in writers
    ]
    system.runtime.run(until=system.runtime.all_of(lanes))
    report.write_phase_log_reads += stats.per_method.get("fetch_many", 0) - reads


def _inject(system: LtrSystem, fault: str, writers: list[str]) -> Callable[[], None]:
    """Apply ``fault`` between the two bursts; returns what undoes it after.

    Faults land on a quiescent system and membership changes settle before
    the next burst: proposals in flight while their Master leaves, or
    re-sent because a publish outlasts the proposer's RPC timeout, are what
    ``test_at_most_once.py`` and the commit fuzzer are for.  The second
    burst then meets what this harness is about: a Master fresh from a
    takeover, a ring routing around a partition, a log whose placements
    moved.
    """
    bystanders = [name for name in system.peer_names() if name not in writers]
    masters = {system.master_of(key) for key in KEYS}
    if fault == "partition-heal":
        cut = [name for name in bystanders if name not in masters][:2]
        system.network.partitions.split(
            [[system.ring.node(name).address for name in cut]]
        )
        system.notify_fault("partition", {})
        system.run_for(2.0)

        def heal() -> None:
            system.network.partitions.heal()
            for name in cut:
                gateway = system.ring.node(writers[0]).address
                system.runtime.run(
                    until=system.runtime.process(system.ring.node(name).rejoin(gateway))
                )
            system.notify_fault("heal", {})
        return heal
    if fault == "master-crash":
        system.crash(system.master_of(HOT))
    elif fault == "churn":
        system.add_peer(find_takeover_joiner(system, HOT))
        system.leave(next(name for name in bystanders if name not in masters))
        system.add_peer("diff-joiner")
    if fault != "none":
        system.notify_fault(fault, {})
        system.run_for(2.0)
    return lambda: None


def canonical_dump(system: LtrSystem, keys, logs=None) -> str:
    """Replicas and logs of ``keys`` as text, one line each.

    ``replica <key> <peer> <applied_ts> <text>`` for every user peer, and,
    for the entries ``logs`` holds of a key (none: replicas only), ``entry
    <key> <ts> <author> <base_ts> <proposal> <operations>`` — the proposal
    identity less its author's base, so it reads 0, 1, 2 … per author and
    document (as drawn where the author is no longer around to ask).
    """
    users = {user.author: user for user in system.users()}
    lines = []
    for key in keys:
        for name in sorted(users):
            replica = users[name].documents.get(key)
            if replica is not None:
                lines.append(f"replica {key} {name} {replica.applied_ts} {replica.text!r}")
        for entry in (logs or {}).get(key, ()):
            proposal = entry.proposal
            if proposal is not None and entry.author in users:
                proposal -= users[entry.author]._proposal_base
            lines.append(
                f"entry {key} {entry.ts} {entry.author} {entry.base_ts} "
                f"{proposal} {entry.patch.operations!r}"
            )
    return "\n".join(lines) + "\n"


def _finish(system: LtrSystem, checker: ConvergenceChecker, keys,
            report: ArmReport, settle: float) -> None:
    """The final check of a script, and what the script left, into ``report``."""
    report.dump = canonical_dump(system, keys)
    final = checker.final_check(system, settle=settle)
    report.violations = [
        f"[{snapshot.label}] {violation}"
        for snapshot in checker.snapshots
        for violation in snapshot.violations
    ]
    report.converged = all(
        info.get("converged", False) for info in final.keys.values()
    )
    logs = {}
    for key in keys:
        last_ts = system.last_ts(key)
        logs[key] = entries = system.fetch_log(key, 1, last_ts) if last_ts else []
        report.logged[key] = [
            operation.line
            for entry in entries
            for operation in entry.patch.operations
            if isinstance(operation, InsertLine)
        ]
        report.log[key] = [
            (entry.ts, entry.author, entry.base_ts, entry.patch.operations)
            for entry in entries
        ]
    report.dump += canonical_dump(system, keys, logs)


def run_in_doubt(seed: int, variant: str, *, staged: bool, further: int = 2,
                 max_edits: int = 4) -> ArmReport:
    """The in-doubt script: a commit fails although it landed; what then.

    The Master publishes the writer's proposal and dies before the answer
    leaves; the writer, too impatient to wait for the ring to route around
    it, is left with edits it proposed and no answer.  It saves ``further``
    more times, somebody else commits in between, and then it goes on one of
    :data:`IN_DOUBT_VARIANTS` ways.  With ``staged`` every save is a patch of
    its own (``stage``/``flush``, chains of up to ``max_edits``), otherwise
    the saves after the lost one are wrapped into one patch behind it
    (``edit``/``commit``); with no more than one of them the two fronts
    propose the same chains.
    """
    from test_at_most_once import lose_next_reply

    if variant not in IN_DOUBT_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; known: {IN_DOUBT_VARIANTS}")
    key = IN_DOUBT_KEY
    rng = random.Random(f"diff-paths-in-doubt:{seed}")
    report = ArmReport()
    system = LtrSystem(
        ltr_config=LtrConfig(batch_max_edits=max_edits, validation_retries=0),
        seed=seed,
        latency=UniformLatency(0.002, 0.006),
    )
    try:
        system.bootstrap(PEERS)
        master = system.master_of(key)
        name, other = [peer for peer in system.peer_names() if peer != master][:2]
        user = system.user(name)
        checker = ConvergenceChecker([key], max_in_flight=max_edits)
        system.add_observer(checker)
        save = user.stage if staged else user.edit
        working_lines = user.staged_lines if staged else user.working_lines
        commit = system.flush if staged else system.commit
        markers: list[str] = []

        def saves(count: int) -> None:
            for _save in range(count):
                markers.append(f"{name}#{len(markers)}")
                save(key, _edit(rng, working_lines(key), markers[-1], markers))

        def foreign(marker: str) -> None:
            system.sync(other, key)
            lines = system.user(other).working_lines(key)
            system.edit_and_commit(other, key, _edit(rng, lines, marker, []))
            report.acked.setdefault(key, set()).add(marker)

        foreign(f"{other}#base")
        system.sync(name, key)
        system.run_for(1.0)
        lose_next_reply(system, key)
        saves(1)
        try:
            commit(name, key)
        except ReproError:
            report.failed_commits += 1
        system.ring.wait_until_stable(max_time=60)
        saves(further)
        foreign(f"{other}#between")
        if variant == "sync-then-commit":
            system.sync(name, key)
        elif variant == "discard-then-edit":
            (user.discard_batch if staged else user.discard_pending)(key)
            del markers[1:]  # the lost one may be in the log, the rest is not
            saves(1)
        commit(name, key)
        saves(1)
        commit(name, key)
        report.acked[key].update(markers)
        _finish(system, checker, [key], report, settle=1.0)
    finally:
        system.shutdown()
    return report


def run_arm(seed: int, fault: str, chain: int,
            arm: Arm = contextlib.nullcontext, *, sequential: bool = False) -> ArmReport:
    """Run a script for ``(seed, fault, chain)`` inside ``arm()``.

    The contended script by default, the sequential one on request.
    """
    if fault not in FAULTS:
        raise ValueError(f"unknown fault {fault!r}; known: {FAULTS}")
    report = ArmReport()
    script = _turns if sequential else _burst
    with arm(), trace_routing() as routing:
        system = LtrSystem(
            ltr_config=LtrConfig(batch_max_edits=chain),
            seed=seed,
            latency=UniformLatency(0.002, 0.006),
        )
        try:
            system.bootstrap(PEERS)
            # The documents' Masters are fault targets, not writers.
            masters = {system.master_of(key) for key in KEYS}
            writers = [name for name in system.peer_names()
                       if name not in masters][:WRITERS]
            checker = ConvergenceChecker(KEYS, max_in_flight=chain)
            system.add_observer(checker)
            script(system, writers, seed, chain, 1, report)
            undo = _inject(system, fault, writers)
            if sequential:
                # Both bursts on a whole ring, the fault and its repair on the
                # boundary: while the partition lasts an entry whose
                # placements are all cut off cannot be read, so the arm that
                # reads the log fails commits the other one does not need the
                # log for — a difference in availability, not in outcome.
                undo()
                undo = lambda: None  # noqa: E731
                system.run_for(2.0)  # the re-joined peers settle into their arcs
            script(system, writers, seed, chain, 2, report)
            undo()
            statistics = system.statistics()
            report.behind_answers = statistics["proposals_behind"]
            report.rebased_proposals = statistics["proposals_rebased"]
            _finish(system, checker, KEYS, report, settle=4.0)
            for key in KEYS:
                report.texts[key] = {
                    name: system.user(name).document(key).text for name in writers
                }
        finally:
            system.shutdown()
    report.peak_rounds = _peak_rounds(routing.publishes)
    for publish in routing.publishes:
        routed = len(routing.lookups_under_lock(publish))
        warmed = routing.was_warmed(publish)
        report.publishes += 1
        report.lookups_under_lock += routed
        report.warmed_publishes += warmed
        report.warmed_lookups_under_lock += routed * warmed
    return report


def _peak_rounds(publishes) -> int:
    """Most publishes one node had out for one document at one instant."""
    edges: dict[tuple[str, str], list[tuple[float, int]]] = {}
    for publish in publishes:
        # a publish that returns at t is over before one that starts at t
        edges.setdefault((publish.node, publish.key), []).extend(
            ((publish.started, 1), (publish.finished, -1)))
    peak = 0
    for moments in edges.values():
        current = 0
        for _time, step in sorted(moments):
            current += step
            peak = max(peak, current)
    return peak


def run_differential(seed: int, fault: str, chain: int, arms: dict[str, Arm],
                     *, sequential: bool = False) -> dict[str, ArmReport]:
    """Run every arm on the same cell and assert the invariants on each."""
    reports = {}
    for name, arm in arms.items():
        reports[name] = run_arm(seed, fault, chain, arm, sequential=sequential)
        reports[name].assert_invariants(f"seed {seed} / {fault} / chain {chain} / {name}")
    return reports


#: The code as it is against a Master that lets one round of a document out at
#: a time (``DocumentQueue.full`` as soon as anything is in flight).
PIPELINE_ARMS: dict[str, Arm] = {
    "overlap": contextlib.nullcontext,
    "serial": lambda: mock.patch.object(
        master_module.DocumentQueue, "full",
        lambda queue, entries, size: bool(queue.rounds)),
}


def check_pipeline_cell(seed: int, fault: str, chain: int) -> dict[str, ArmReport]:
    """``overlap`` and ``serial`` on one cell of the contended script.

    Both arms hold the checker's four invariants, lose no acknowledged edit
    and double none (:func:`run_differential`); commit orders may differ —
    overlapping rounds change who is answered when, and so who proposes
    next.  What the arms differ in is how many rounds were out at once.
    """
    reports = run_differential(seed, fault, chain, PIPELINE_ARMS)
    overlap, serial = reports["overlap"], reports["serial"]
    assert serial.peak_rounds <= 1, (seed, serial.peak_rounds)
    if chain == 1 and fault == "none":
        # One round per commit either way.
        commits = sum(map(len, serial.log.values()))
        assert sum(map(len, overlap.log.values())) == commits
        assert overlap.publishes == serial.publishes == commits, (seed, overlap.publishes)
    return reports


def dump_grid(seeds: int, *, sequential: bool = False) -> Iterator[str]:
    """The dumps of every cell of the cross-tree grid, labelled, in order."""
    script = "sequential" if sequential else "contended"
    for seed in range(1, seeds + 1):
        for fault in FAULTS:
            for chain in (1, 16):
                report = run_arm(seed, fault, chain, sequential=sequential)
                report.assert_invariants(f"seed {seed} / {fault} / chain {chain}")
                yield f"== {script} seed={seed} fault={fault} chain={chain}\n{report.dump}"
        for variant in IN_DOUBT_VARIANTS:
            for staged in (False, True):
                report = run_in_doubt(seed, variant, staged=staged)
                report.assert_invariants(f"seed {seed} / in doubt / {variant} / staged={staged}")
                yield f"== in-doubt seed={seed} variant={variant} staged={staged}\n{report.dump}"


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("out", help="file the dumps are written to")
    parser.add_argument("--seeds", type=int, default=25)
    parser.add_argument("--sequential", action="store_true",
                        help="the sequential script in place of the contended one")
    parser.add_argument("--pipeline-sweep", action="store_true",
                        help="arms overlap and serial over the contended grid; "
                             "the publishes and peak rounds of either are "
                             "written to OUT")
    arguments = parser.parse_args()
    with open(arguments.out, "w", encoding="utf-8") as out:
        cells = 0
        if arguments.pipeline_sweep:
            red = 0
            for seed in range(1, arguments.seeds + 1):
                for fault in FAULTS:
                    for chain in (1, 16):
                        try:
                            reports = check_pipeline_cell(seed, fault, chain)
                            line = " ".join(f"{name}.publishes={report.publishes} "
                                            f"{name}.peak_rounds={report.peak_rounds}"
                                            for name, report in reports.items())
                        except AssertionError as violation:  # reported, and counted
                            line, red = f"RED {violation}", red + 1
                        out.write(f"seed={seed} fault={fault} chain={chain} {line}\n")
                        cells += 1
            print(f"{red} of {cells} cells red")
        else:
            for cell in dump_grid(arguments.seeds, sequential=arguments.sequential):
                out.write(cell)
                cells += 1
    print(f"{cells} cells written to {arguments.out}")
