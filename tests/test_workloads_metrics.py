"""Tests for workload generators (repro.workloads) and metrics (repro.metrics)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    ResultTable,
    jains_fairness,
    percentile,
    render_tables,
    summarize,
)
from repro.sim import Simulator
from repro.workloads import (
    PROFILES,
    ChurnProfile,
    apply_churn_action,
    document_frequencies,
    generate_churn_schedule,
    generate_corpus,
    generate_workload,
    generate_zipf_workload,
    hot_document_share,
    sample_zipf_rank,
    single_document_contention,
    zipf_weights,
)


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------


def test_corpus_generation_is_deterministic():
    a = generate_corpus(10, seed=3)
    b = generate_corpus(10, seed=3)
    assert a.keys() == b.keys()
    assert [doc.lines for doc in a] == [doc.lines for doc in b]
    assert len(a) == 10


def test_corpus_documents_have_title_and_content():
    corpus = generate_corpus(5, seed=1, lines_per_document=6)
    for document in corpus:
        assert document.lines[0].startswith("= ")
        assert len(document.lines) == 6
        assert document.text.count("\n") == 5
    assert corpus.get(corpus.keys()[0]) is not None
    assert corpus.get("missing") is None


def test_corpus_negative_count_rejected():
    with pytest.raises(ValueError):
        generate_corpus(-1)


# ---------------------------------------------------------------------------
# edit workloads
# ---------------------------------------------------------------------------


def test_workload_generation_shape_and_determinism():
    peers = [f"peer-{index}" for index in range(6)]
    documents = [f"doc-{index}" for index in range(4)]
    a = generate_workload(peers=peers, documents=documents, waves=5, writers_per_wave=3, seed=9)
    b = generate_workload(peers=peers, documents=documents, waves=5, writers_per_wave=3, seed=9)
    assert len(a) == 15
    assert a.actions == b.actions
    assert len(a.waves()) == 5
    assert all(len(wave) == 3 for wave in a.waves())
    assert set(a.peers()).issubset(set(peers))
    assert set(a.documents()).issubset(set(documents))


def test_workload_writers_per_wave_are_distinct_peers():
    peers = [f"peer-{index}" for index in range(4)]
    workload = generate_workload(peers=peers, documents=["d"], waves=8,
                                 writers_per_wave=4, seed=2)
    for wave in workload.waves():
        writers = [action.peer for action in wave]
        assert len(set(writers)) == len(writers)


def test_workload_validation_errors():
    with pytest.raises(ValueError):
        generate_workload(peers=["a"], documents=["d"], waves=1, writers_per_wave=2)
    with pytest.raises(ValueError):
        generate_workload(peers=["a"], documents=[], waves=1, writers_per_wave=1)
    with pytest.raises(ValueError):
        generate_workload(peers=["a"], documents=["d"], waves=1, writers_per_wave=1,
                          hot_document_bias=2.0)


def test_single_document_contention_targets_one_document():
    workload = single_document_contention(peers=[f"p{index}" for index in range(5)],
                                          waves=4, writers_per_wave=3, seed=1)
    assert workload.documents() == ["xwiki:hot-page"]


def test_edit_action_mutations():
    rng = random.Random(0)
    workload = generate_workload(peers=["p0", "p1"], documents=["d"], waves=6,
                                 writers_per_wave=2, seed=4)
    lines = ["seed line"]
    for action in workload:
        lines = action.mutate(lines, rng)
        assert isinstance(lines, list)
    # appends dominate, so the document generally grows
    assert len(lines) >= 1


# ---------------------------------------------------------------------------
# zipf-skewed workloads
# ---------------------------------------------------------------------------


def test_zipf_weights_shapes():
    assert zipf_weights(4, 0.0) == [1.0, 1.0, 1.0, 1.0]
    weights = zipf_weights(4, 1.0)
    assert weights == [1.0, 0.5, pytest.approx(1 / 3), 0.25]
    with pytest.raises(ValueError):
        zipf_weights(0, 1.0)
    with pytest.raises(ValueError):
        zipf_weights(4, -0.5)


def test_sample_zipf_rank_respects_weights():
    rng = random.Random(0)
    weights = zipf_weights(10, 2.0)
    ranks = [sample_zipf_rank(rng, weights) for _ in range(500)]
    assert all(0 <= rank < 10 for rank in ranks)
    # With s=2 the head rank must dominate.
    assert ranks.count(0) > len(ranks) / 2


def test_generate_zipf_workload_is_deterministic_and_skewed():
    peers = [f"p{index}" for index in range(6)]
    documents = [f"doc-{index}" for index in range(12)]
    first = generate_zipf_workload(peers=peers, documents=documents, waves=8,
                                   writers_per_wave=3, s=1.5, seed=7)
    second = generate_zipf_workload(peers=peers, documents=documents, waves=8,
                                    writers_per_wave=3, s=1.5, seed=7)
    assert first.actions == second.actions
    assert len(first) == 24
    uniform = generate_zipf_workload(peers=peers, documents=documents, waves=8,
                                     writers_per_wave=3, s=0.0, seed=7)
    assert hot_document_share(first) > hot_document_share(uniform)
    frequencies = document_frequencies(first)
    assert sum(frequencies.values()) == len(first)
    # the hottest document sits at the head of the declared order (within
    # sampling noise: 24 draws can swap the first couple of ranks)
    assert frequencies.most_common(1)[0][0] in {"doc-0", "doc-1", "doc-2"}


def test_generate_zipf_workload_validates_inputs():
    with pytest.raises(ValueError):
        generate_zipf_workload(peers=["p0"], documents=["d"], waves=1,
                               writers_per_wave=2, s=1.0)
    with pytest.raises(ValueError):
        generate_zipf_workload(peers=["p0"], documents=[], waves=1,
                               writers_per_wave=1, s=1.0)


def test_hot_document_share_empty_workload():
    workload = generate_zipf_workload(peers=["p0"], documents=["d"], waves=0,
                                      writers_per_wave=1, s=1.0)
    assert hot_document_share(workload) == 0.0


# ---------------------------------------------------------------------------
# churn workloads
# ---------------------------------------------------------------------------


def test_churn_profiles_and_validation():
    assert PROFILES["stable"].total_rate() == 0
    assert PROFILES["aggressive"].total_rate() > PROFILES["gentle"].total_rate()
    with pytest.raises(ValueError):
        ChurnProfile(leave_rate=-1).validate()


def test_churn_schedule_generation_is_deterministic_and_bounded():
    peers = [f"peer-{index}" for index in range(10)]
    a = generate_churn_schedule(initial_peers=peers, duration=100,
                                profile=PROFILES["gentle"], seed=5)
    b = generate_churn_schedule(initial_peers=peers, duration=100,
                                profile=PROFILES["gentle"], seed=5)
    assert list(a) == list(b)
    assert all(0 <= time < 100 for time, _action, _peer in a)
    actions = {action for _time, action, _peer in a}
    assert actions.issubset({"join", "leave", "crash"})


def test_churn_schedule_respects_protected_peers():
    peers = [f"peer-{index}" for index in range(8)]
    schedule = generate_churn_schedule(
        initial_peers=peers, duration=200, profile=PROFILES["aggressive"],
        seed=11, protected=["peer-0"],
    )
    removed = {peer for _t, action, peer in schedule if action in ("leave", "crash")}
    assert "peer-0" not in removed


def test_churn_schedule_stable_profile_is_empty():
    schedule = generate_churn_schedule(initial_peers=["a", "b"], duration=50,
                                       profile=PROFILES["stable"], seed=1)
    assert schedule == []


def test_apply_churn_action_rejects_unknown_action():
    with pytest.raises(ValueError):
        apply_churn_action(None, "explode", "peer-0")


# ---------------------------------------------------------------------------
# metrics: statistics
# ---------------------------------------------------------------------------


def test_percentile_interpolation_and_bounds():
    values = [1, 2, 3, 4]
    assert percentile(values, 0.0) == 1
    assert percentile(values, 1.0) == 4
    assert percentile(values, 0.5) == 2.5
    assert percentile([7], 0.9) == 7
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1], 1.5)


def test_summarize_basic_and_empty():
    summary = summarize([2.0, 4.0, 6.0])
    assert summary.count == 3
    assert summary.mean == 4.0
    assert summary.minimum == 2.0 and summary.maximum == 6.0
    assert summary.median == 4.0
    assert summary.total == 12.0
    assert summary.as_dict()["p95"] == pytest.approx(5.8)
    empty = summarize([])
    assert empty.count == 0 and empty.mean == 0.0
    assert empty.median == 0.0 and empty.p95 == 0.0


@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=50))
@settings(max_examples=200)
def test_summary_bounds_property(values):
    tolerance = 1e-9 * (1.0 + max(values))
    summary = summarize(values)
    assert summary.minimum <= summary.median <= summary.maximum
    assert summary.minimum - tolerance <= summary.mean <= summary.maximum + tolerance
    assert summary.minimum <= summary.p95 <= summary.maximum


def test_jains_fairness_range():
    assert jains_fairness([5, 5, 5, 5]) == pytest.approx(1.0)
    skewed = jains_fairness([10, 0, 0, 0])
    assert skewed == pytest.approx(0.25)
    assert jains_fairness([0, 0]) == 1.0
    with pytest.raises(ValueError):
        jains_fairness([])


# ---------------------------------------------------------------------------
# metrics: tables
# ---------------------------------------------------------------------------


def test_result_table_row_handling_and_rendering():
    table = ResultTable(title="demo", columns=["a", "b"])
    table.add_row(1, 2.5)
    table.add_row(a=3, b=4.0)
    table.add_note("just a note")
    assert len(table) == 2
    assert table.column("a") == [1, 3]
    text = table.render()
    assert "demo" in text and "just a note" in text
    assert "2.5" in text
    csv = table.to_csv()
    assert csv.splitlines()[0] == "a,b"
    markdown = table.to_markdown()
    assert markdown.startswith("| a | b |")
    assert render_tables([table]).startswith("== demo ==")


def test_result_table_validation():
    table = ResultTable(title="demo", columns=["a", "b"])
    with pytest.raises(ValueError):
        table.add_row(1)
    with pytest.raises(ValueError):
        table.add_row(a=1)
    with pytest.raises(ValueError):
        table.add_row(1, 2, a=3)
