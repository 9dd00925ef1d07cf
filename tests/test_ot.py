"""Tests for the operational-transformation engine (repro.ot).

Includes hypothesis property tests for the core convergence invariant
(TP1): for any two concurrent operations a and b defined on the same
document, applying ``a`` then ``transform(b, a)`` equals applying ``b`` then
``transform(a, b)``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DivergenceDetected, InvalidOperation
from repro.ot import (
    DeleteLine,
    Document,
    InsertLine,
    NoOp,
    Patch,
    all_converged,
    converge_check,
    diff_lines,
    install_snapshot_into_staged,
    integrate_remote_into_staged,
    integrate_remote_patches,
    is_noop,
    make_patch,
    transform,
    transform_pair,
    transform_sequences,
)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def test_insert_apply_and_bounds():
    assert InsertLine(0, "x").apply(["a"]) == ["x", "a"]
    assert InsertLine(1, "x").apply(["a"]) == ["a", "x"]
    with pytest.raises(InvalidOperation):
        InsertLine(3, "x").apply(["a"])
    with pytest.raises(InvalidOperation):
        InsertLine(-1, "x")


def test_delete_apply_and_bounds():
    assert DeleteLine(1, "b").apply(["a", "b"]) == ["a"]
    with pytest.raises(InvalidOperation):
        DeleteLine(5, "x").apply(["a"])
    with pytest.raises(InvalidOperation):
        DeleteLine(-2, "x")


def test_noop_apply_returns_copy():
    lines = ["a", "b"]
    result = NoOp().apply(lines)
    assert result == lines and result is not lines
    assert is_noop(NoOp())
    assert not is_noop(InsertLine(0, "x"))


def test_inverse_operations_round_trip():
    lines = ["a", "b", "c"]
    insert = InsertLine(1, "x")
    assert insert.inverse().apply(insert.apply(lines)) == lines
    delete = DeleteLine(2, "c")
    assert delete.inverse().apply(delete.apply(lines)) == lines
    assert NoOp().inverse() == NoOp()


def test_describe_strings():
    assert InsertLine(2, "hi").describe() == "ins@2:'hi'"
    assert DeleteLine(0, "x").describe() == "del@0:'x'"
    assert NoOp().describe() == "noop"


# ---------------------------------------------------------------------------
# transformation: explicit cases
# ---------------------------------------------------------------------------


def test_insert_insert_different_positions():
    a, b = InsertLine(1, "a"), InsertLine(3, "b")
    assert transform(a, b) == a
    assert transform(b, a) == InsertLine(4, "b")


def test_insert_insert_same_position_tie_break_is_antisymmetric():
    a = InsertLine(2, "from-u1", origin="u1")
    b = InsertLine(2, "from-u2", origin="u2")
    a_prime, b_prime = transform_pair(a, b)
    shifted = {a_prime.position, b_prime.position}
    assert shifted == {2, 3}


def test_insert_vs_delete():
    assert transform(InsertLine(1, "x"), DeleteLine(3, "y")) == InsertLine(1, "x")
    assert transform(InsertLine(4, "x"), DeleteLine(1, "y")) == InsertLine(3, "x")
    assert transform(InsertLine(1, "x"), DeleteLine(1, "y")) == InsertLine(1, "x")


def test_delete_vs_insert():
    assert transform(DeleteLine(1, "x"), InsertLine(3, "y")) == DeleteLine(1, "x")
    assert transform(DeleteLine(3, "x"), InsertLine(1, "y")) == DeleteLine(4, "x")
    assert transform(DeleteLine(1, "x"), InsertLine(1, "y")) == DeleteLine(2, "x")


def test_delete_vs_delete_same_position_cancels():
    assert isinstance(transform(DeleteLine(2, "x"), DeleteLine(2, "x")), NoOp)
    assert transform(DeleteLine(1, "x"), DeleteLine(3, "y")) == DeleteLine(1, "x")
    assert transform(DeleteLine(3, "x"), DeleteLine(1, "y")) == DeleteLine(2, "x")


def test_transform_against_noop_is_identity():
    op = InsertLine(1, "x")
    assert transform(op, NoOp()) == op
    assert transform(NoOp(), op) == NoOp()


def test_transform_rejects_unknown_types():
    with pytest.raises(TypeError):
        transform("not an op", InsertLine(0, "x"))  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# transformation: property-based convergence (TP1)
# ---------------------------------------------------------------------------


LINES = st.lists(st.sampled_from(["alpha", "beta", "gamma", "delta", "epsilon"]),
                 min_size=1, max_size=6)


def operations_for(lines, origin):
    """Strategy generating a valid operation for a document of ``len(lines)``."""
    length = len(lines)
    inserts = st.builds(
        InsertLine,
        position=st.integers(min_value=0, max_value=length),
        line=st.sampled_from(["new-1", "new-2", "new-3"]),
        origin=st.just(origin),
    )
    if length == 0:
        return inserts
    deletes = st.builds(
        lambda position: DeleteLine(position, lines[position], origin=origin),
        position=st.integers(min_value=0, max_value=length - 1),
    )
    return st.one_of(inserts, deletes)


@given(data=st.data(), lines=LINES)
@settings(max_examples=300)
def test_tp1_single_operations_converge(data, lines):
    op_a = data.draw(operations_for(lines, "site-a"), label="op_a")
    op_b = data.draw(operations_for(lines, "site-b"), label="op_b")
    path_one = transform(op_b, op_a).apply(op_a.apply(lines))
    path_two = transform(op_a, op_b).apply(op_b.apply(lines))
    assert path_one == path_two


@given(data=st.data(), lines=LINES)
@settings(max_examples=150)
def test_tp1_sequences_converge(data, lines):
    def sequence_for(origin):
        current = list(lines)
        ops = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            op = data.draw(operations_for(current, origin))
            ops.append(op)
            current = op.apply(current)
        return ops

    ours = sequence_for("site-a")
    theirs = sequence_for("site-b")
    ours_prime, theirs_prime = transform_sequences(ours, theirs)

    state_one = list(lines)
    for op in ours:
        state_one = op.apply(state_one)
    for op in theirs_prime:
        state_one = op.apply(state_one)

    state_two = list(lines)
    for op in theirs:
        state_two = op.apply(state_two)
    for op in ours_prime:
        state_two = op.apply(state_two)

    assert state_one == state_two


# ---------------------------------------------------------------------------
# patches
# ---------------------------------------------------------------------------


def test_patch_apply_sequence():
    patch = Patch((InsertLine(0, "a"), InsertLine(1, "b"), DeleteLine(0, "a")))
    assert patch.apply([]) == ["b"]
    assert len(patch) == 3
    assert [op.describe() for op in patch] == ["ins@0:'a'", "ins@1:'b'", "del@0:'a'"]


def test_patch_validation_and_emptiness():
    with pytest.raises(InvalidOperation):
        Patch((), base_ts=-1)
    assert Patch((NoOp(),)).is_empty()
    assert not Patch((InsertLine(0, "x"),)).is_empty()


def test_patch_compose_and_inverse():
    first = Patch((InsertLine(0, "a"),), author="u1")
    second = Patch((InsertLine(1, "b"),), author="u1")
    composed = first.compose(second)
    assert composed.apply([]) == ["a", "b"]
    assert composed.inverse().apply(["a", "b"]) == []


def test_patch_with_base_and_operations():
    patch = Patch((InsertLine(0, "a"),), base_ts=0, author="u1")
    rebased = patch.with_base(7)
    assert rebased.base_ts == 7 and rebased.author == "u1"
    replaced = patch.with_operations([NoOp()])
    assert replaced.is_empty()


def test_patch_describe_mentions_author():
    assert Patch((InsertLine(0, "a"),), author="alice").describe().startswith("alice[")


def test_patch_transformed_against_concurrent_patch():
    base = ["shared"]
    ours = Patch((InsertLine(0, "ours"),), author="u1")
    theirs = Patch((InsertLine(1, "theirs"),), author="u2")
    ours_rebased = ours.transformed_against(theirs)
    assert ours_rebased.apply(theirs.apply(base)) == ["ours", "shared", "theirs"]


# ---------------------------------------------------------------------------
# diff
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "before, after",
    [
        ([], ["a"]),
        (["a"], []),
        (["a", "b", "c"], ["a", "x", "c"]),
        (["a", "b", "c", "d"], ["a", "d"]),
        (["a", "c"], ["a", "b", "c"]),
        (["x", "y"], ["y", "x"]),
        (["one", "two", "three"], ["zero", "one", "three", "four"]),
        ([], []),
        (["same"], ["same"]),
    ],
)
def test_diff_lines_rewrites_before_into_after(before, after):
    operations = diff_lines(before, after)
    current = list(before)
    for operation in operations:
        current = operation.apply(current)
    assert current == after


@given(
    before=st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=8),
    after=st.lists(st.sampled_from(["a", "b", "c", "d", "e", "f"]), max_size=8),
)
@settings(max_examples=300)
def test_diff_round_trip_property(before, after):
    patch = make_patch(before, after, author="prop")
    assert patch.apply(before) == after


def test_make_patch_records_metadata():
    patch = make_patch(["a"], ["a", "b"], base_ts=4, author="alice", comment="add b")
    assert patch.base_ts == 4
    assert patch.author == "alice"
    assert patch.comment == "add b"
    assert all(op.origin == "alice" for op in patch.operations)


# ---------------------------------------------------------------------------
# documents and merging
# ---------------------------------------------------------------------------


def test_document_from_text_and_properties():
    document = Document.from_text("page", "line1\nline2")
    assert document.lines == ["line1", "line2"]
    assert document.text == "line1\nline2"
    assert document.line_count() == 2
    assert Document.from_text("empty", "").lines == []


def test_document_apply_patch_enforces_continuity():
    document = Document("page")
    document.apply_patch(Patch((InsertLine(0, "a"),)), ts=1)
    assert document.applied_ts == 1
    with pytest.raises(InvalidOperation):
        document.apply_patch(Patch((InsertLine(0, "b"),)), ts=3)
    document.apply_patch(Patch((InsertLine(0, "b"),)), ts=2)
    assert document.lines == ["b", "a"]
    assert len(document.history) == 2


def test_document_copy_is_independent():
    document = Document.from_text("page", "a")
    clone = document.copy()
    clone.lines.append("b")
    assert document.lines == ["a"]


def test_document_digest_and_convergence_helpers():
    a = Document.from_text("k", "same")
    b = Document.from_text("k", "same")
    c = Document.from_text("k", "different")
    assert a.same_content(b)
    assert a.digest() == b.digest()
    assert all_converged([a, b])
    assert not all_converged([a, c])


def test_converge_check_groups_by_applied_ts():
    ahead = Document("k", lines=["x"], applied_ts=2)
    behind = Document("k", lines=["only-one"], applied_ts=1)
    converge_check([ahead, behind])  # different ts: not compared
    twin = Document("k", lines=["x"], applied_ts=2)
    converge_check([ahead, twin])
    divergent = Document("k", lines=["y"], applied_ts=2)
    with pytest.raises(DivergenceDetected):
        converge_check([ahead, divergent])


def test_integrate_remote_patches_without_pending():
    document = Document("page")
    remote = [
        (1, Patch((InsertLine(0, "first"),), author="u2")),
        (2, Patch((InsertLine(1, "second"),), author="u3")),
    ]
    result = integrate_remote_patches(document, remote)
    assert result.integrated == 2
    assert result.rebased_local is None
    assert document.lines == ["first", "second"]
    assert result.new_base_ts == 2


def test_integrate_remote_patches_rejects_gaps():
    document = Document("page")
    with pytest.raises(DivergenceDetected):
        integrate_remote_patches(document, [(2, Patch((InsertLine(0, "x"),)))])


def test_integrate_remote_patches_rebases_pending_local_patch():
    # Shared validated state: ["title", "body"]
    document = Document("page", lines=["title", "body"], applied_ts=3)
    pending = Patch((InsertLine(2, "local-footer"),), base_ts=3, author="me")
    remote = [(4, Patch((InsertLine(0, "remote-header"),), base_ts=3, author="other"))]
    result = integrate_remote_patches(document, remote, pending)
    assert document.lines == ["remote-header", "title", "body"]
    rebased = result.rebased_local
    assert rebased.base_ts == 4
    # applying the rebased local patch keeps the user's intent (footer at the end)
    assert rebased.apply(document.lines) == ["remote-header", "title", "body", "local-footer"]


def test_integrate_preserves_intent_under_conflicting_edits():
    document = Document("page", lines=["a", "b", "c"], applied_ts=1)
    pending = Patch((DeleteLine(1, "b"),), base_ts=1, author="me")
    remote = [(2, Patch((DeleteLine(1, "b"),), base_ts=1, author="other"))]
    result = integrate_remote_patches(document, remote, pending)
    assert document.lines == ["a", "c"]
    # both sides deleted the same line; the pending patch must become a no-op
    assert result.rebased_local.is_empty()
    assert result.rebased_local.apply(document.lines) == ["a", "c"]


# ---------------------------------------------------------------------------
# snapshot install (the checkpointed retrieval's one path)
# ---------------------------------------------------------------------------


def test_install_snapshot_under_an_empty_chain_is_what_a_cold_reader_runs():
    document = Document("page", lines=["stale"], applied_ts=2)
    assert install_snapshot_into_staged(document, ["a", "b", "c"], 9, []) == []
    assert (document.lines, document.applied_ts) == (["a", "b", "c"], 9)
    with pytest.raises(InvalidOperation):  # a snapshot must be ahead of the replica
        install_snapshot_into_staged(document, ["older"], 9, [])
    assert (document.lines, document.applied_ts) == (["a", "b", "c"], 9)


def test_install_snapshot_rebases_a_chain_of_one_like_the_patches_it_stands_for():
    """The user's one pending patch, jumped over a snapshot: the same replica
    and the same working copy as integrating the missing patches one by one."""
    remote = [
        (4, Patch((InsertLine(0, "remote-header"),), base_ts=3, author="other")),
        (5, Patch((DeleteLine(2, "body"),), base_ts=4, author="other")),
    ]
    pending = Patch((InsertLine(2, "local-footer"), DeleteLine(0, "title")),
                    base_ts=3, author="me", comment="mine")
    replayed = Document("page", lines=["title", "body"], applied_ts=3)
    (patch_wise,) = integrate_remote_into_staged(replayed, remote, [pending])
    jumped = Document("page", lines=["title", "body"], applied_ts=3)
    (rebased,) = install_snapshot_into_staged(jumped, replayed.lines, 5, [pending])
    assert (jumped.lines, jumped.applied_ts) == (["remote-header", "title"], 5)
    assert (rebased.base_ts, rebased.author, rebased.comment) == (5, "me", "mine")
    assert len(rebased) == len(pending)  # boundaries survive: counts are kept
    assert rebased.apply(jumped.lines) == patch_wise.apply(replayed.lines) \
        == ["remote-header", "local-footer"]

