"""The short cuts of the commit path against what they short-cut (``diff_paths``).

Arm ``suffix`` is the code as it is: the Master transforms a stale proposal
over the entries it missed, out of its tail, and commits it; and it resolves
the Log-Peers of the timestamps it is about to hand out ahead of the proposals
that need them.  Arm ``log`` empties every tail (the bound is patched to zero
entries, so nothing is ever held), which answers every stale proposal *behind*
and sends it through ``P2PLogClient.fetch_range`` and the proposer's own
transform — the paper's path, and the one that remains for signed proposals,
gaps beyond the tail and fresh Masters (with the bound at zero it also lets one
round of a document out at a time).  Arm ``cold`` patches the warmed
horizon's cap to zero chains, which puts every placement lookup back into the
publish that needs it.  Same invariants on every arm of the
contended script — the checker's four, and no edit in the log twice; on the
sequential script ``suffix`` and ``log`` must also produce the same log and
the same replicas, byte for byte: the Master's transform is the proposer's.
Arm ``serial`` (``diff_paths.PIPELINE_ARMS``) lets one round of a document out
at a time, where arm ``overlap`` — the code as it is — places a proposal behind
the rounds still at the Log-Peers and publishes it at once.
"""

import contextlib
from unittest import mock

import pytest

import diff_paths
from repro.core import master as master_module

ARMS = {
    "suffix": contextlib.nullcontext,
    "log": lambda: mock.patch.object(master_module, "TAIL_MAX_ENTRIES", 0),
    "cold": lambda: mock.patch.object(master_module, "WARM_AHEAD_CHAINS", 0),
}


def check_cell(seed, fault, chain):
    reports = diff_paths.run_differential(seed, fault, chain, ARMS)
    suffix, log, cold = reports["suffix"], reports["log"], reports["cold"]
    # The arms really took different paths: with every tail empty each stale
    # proposal was sent back and read the log, with the tail in place (almost)
    # none was — a takeover or a join leaves a new Master with nothing to
    # transform over.
    assert log.behind_answers > 0 and log.write_phase_log_reads > 0
    assert log.rebased_proposals == 0 < suffix.rebased_proposals
    assert suffix.write_phase_log_reads < log.write_phase_log_reads
    assert suffix.behind_answers < log.behind_answers
    if fault in ("none", "partition-heal"):  # the Masters kept their tenure
        assert suffix.write_phase_log_reads == suffix.behind_answers == 0
    # ... and with the cap at zero no publish found its timestamps warmed,
    # while most did otherwise (chains of one: 1,083–1,103 of 1,200 per fault
    # over seeds 1–25; chains of 16: 260–276 of 421 — not the first round of
    # a tenure, nor most rounds placed behind it before it was allocated:
    # they publish at once and route their own placements; the tenure's first
    # allocation warms for the rest) — and those routed less than a publish
    # that had to do it all itself: nothing at all while no fault cleared the
    # caches in between.
    assert cold.warmed_publishes == 0
    assert suffix.warmed_publishes > suffix.publishes / 2
    assert (suffix.warmed_lookups_under_lock / suffix.warmed_publishes
            < cold.lookups_under_lock / cold.publishes)
    if fault == "none":
        assert suffix.warmed_lookups_under_lock == 0
    if chain == 1:  # (chains of 16: ~16 publishes, the few cold ones route 48 placements each)
        assert suffix.lookups_under_lock < cold.lookups_under_lock
    return reports


@pytest.mark.parametrize("chain", [1, 16])
@pytest.mark.parametrize("fault", diff_paths.FAULTS)
@pytest.mark.parametrize("seed", [1, 2])
def test_suffix_and_log_arms_hold_the_same_invariants(seed, fault, chain):
    check_cell(seed, fault, chain)


@pytest.mark.slow
@pytest.mark.parametrize("chain", [1, 16])
@pytest.mark.parametrize("fault", diff_paths.FAULTS)
def test_suffix_and_log_arms_sweep(fault, chain):
    # (Doubled edits used to be reported through ``record_property``; every
    # arm is held to none now, inside ``run_differential``.)
    for seed in range(3, 26):
        check_cell(seed, fault, chain)


# ------------------------------------- the Master's transform is the proposer's --

TRANSFORM_ARMS = {name: ARMS[name] for name in ("suffix", "log")}


def check_transform_cell(seed, fault, chain):
    """The sequential script: ``suffix`` (the Master rebases) ≡ ``log`` (the
    proposer does, after *behind* and a log read — the paper's path)."""
    reports = diff_paths.run_differential(seed, fault, chain, TRANSFORM_ARMS,
                                          sequential=True)
    suffix, log = reports["suffix"], reports["log"]
    label = f"seed {seed} / {fault} / chain {chain}"
    suffix.assert_same_outcome(log, label)
    # Every other commit was stale (but for a writer whose document nobody
    # touched since its last turn), and the arms dealt with it differently.
    commits = 2 * 2 * (9 if chain == 1 else 6)
    assert sum(len(entries) for entries in suffix.log.values()) >= commits
    assert log.rebased_proposals == 0 < suffix.rebased_proposals, label
    assert log.write_phase_log_reads > suffix.write_phase_log_reads, label
    if fault in ("none", "partition-heal"):
        # No Master crashed or left (one that does takes its statistics with
        # it): every stale proposal the paper path sent back was committed in
        # place — all of them while the Masters kept their tenure; a healed
        # partition hands a counter back to its Master, which ends the tenure
        # the tail was from, so the first stale proposal after it goes round.
        assert suffix.rebased_proposals >= commits // 4, label
        assert (log.behind_answers
                == suffix.rebased_proposals + suffix.behind_answers), label
        assert suffix.behind_answers <= (len(diff_paths.KEYS) if fault != "none" else 0), label
    if fault == "none":
        assert suffix.write_phase_log_reads == 0, label
    return reports


@pytest.mark.parametrize("chain", [1, 16])
@pytest.mark.parametrize("fault", diff_paths.FAULTS)
@pytest.mark.parametrize("seed", [1, 2])
def test_master_side_and_proposer_side_rebase_produce_the_same_log(seed, fault, chain):
    check_transform_cell(seed, fault, chain)


@pytest.mark.slow
@pytest.mark.parametrize("chain", [1, 16])
@pytest.mark.parametrize("fault", diff_paths.FAULTS)
def test_master_side_and_proposer_side_rebase_sweep(fault, chain):
    for seed in range(3, 26):
        check_transform_cell(seed, fault, chain)


# ------------------------------------- overlapping rounds ≡ one at a time --


@pytest.mark.parametrize("chain", [1, 16])
@pytest.mark.parametrize("fault", diff_paths.FAULTS)
@pytest.mark.parametrize("seed", [1, 2])
def test_overlapping_and_serial_arms_hold_the_same_invariants(seed, fault, chain):
    """The Master with rounds of a document out at once against one round at a
    time (``diff_paths.PIPELINE_ARMS``; seeds 3–25 swept through
    ``python tests/diff_paths.py OUT --pipeline-sweep``, see CHANGES.md)."""
    reports = diff_paths.check_pipeline_cell(seed, fault, chain)
    if chain == 1 and fault == "none":
        # Three writers on a hot document: rounds overlapped.
        assert reports["overlap"].peak_rounds > 1
