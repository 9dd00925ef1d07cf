"""Tests for the collaborative wiki application layer (repro.app)."""

import pytest

from repro.app import CollaborativeWiki, EditorSession, PAGE_PREFIX
from repro.core import LtrSystem
from repro.net import ConstantLatency


@pytest.fixture
def wiki():
    system = LtrSystem(seed=51, latency=ConstantLatency(0.004))
    system.bootstrap(6)
    return CollaborativeWiki(system)


def test_page_key_prefix(wiki):
    assert wiki.page_key("Home") == f"{PAGE_PREFIX}Home"


def test_save_and_read_roundtrip(wiki):
    result = wiki.save("peer-0", "Home", "Welcome to the wiki", comment="first version")
    assert result.ts == 1
    assert wiki.exists("Home")
    assert wiki.read("peer-1", "Home") == "Welcome to the wiki"


def test_unsaved_page_does_not_exist(wiki):
    assert not wiki.exists("Ghost")
    assert wiki.revision_count("Ghost") == 0
    assert wiki.history("Ghost") == []


def test_revision_history_records_authors_in_order(wiki):
    wiki.save("peer-0", "Guide", "v1", comment="init")
    wiki.append_line("peer-1", "Guide", "extra line from peer-1")
    wiki.append_line("peer-2", "Guide", "extra line from peer-2")
    history = wiki.history("Guide")
    assert [revision.ts for revision in history] == [1, 2, 3]
    assert [revision.author for revision in history] == ["peer-0", "peer-1", "peer-2"]
    assert wiki.revision_count("Guide") == 3


def test_append_line_preserves_previous_content(wiki):
    wiki.save("peer-0", "List", "item 1")
    wiki.append_line("peer-3", "List", "item 2")
    content = wiki.read("peer-5", "List")
    assert content.split("\n") == ["item 1", "item 2"]


def test_delete_page_publishes_empty_revision(wiki):
    wiki.save("peer-0", "Temp", "to be removed")
    result = wiki.delete_page("peer-1", "Temp")
    assert result.ts == 2
    assert wiki.read("peer-2", "Temp") == ""
    assert wiki.revision_count("Temp") == 2  # deletion is just another revision


def test_concurrent_saves_converge(wiki):
    system = wiki.system
    key = wiki.page_key("Shared")
    system.run_concurrent_commits(
        [(f"peer-{index}", key, f"note from peer-{index}") for index in range(4)]
    )
    report = wiki.check_consistency("Shared")
    assert report.converged
    assert wiki.revision_count("Shared") == 4
    # all contributions visible from any peer
    content = wiki.read("peer-5", "Shared")
    for index in range(4):
        assert f"peer-{index}" in content


def test_editor_session_edit_save_cycle(wiki):
    session = EditorSession(wiki, "peer-0", "Draft")
    assert session.content == ""
    session.replace("first line")
    session.append("second line")
    assert session.content == "first line\nsecond line"
    result = session.save()
    assert result is not None and result.ts == 1
    assert session.save() is None  # nothing pending
    assert wiki.read("peer-4", "Draft") == "first line\nsecond line"
    assert len(session.saves) == 1


def test_editor_session_save_comment_reaches_the_log(wiki):
    session = EditorSession(wiki, "peer-0", "Draft")
    session.replace("hello\nworld")
    session.save(comment="first draft")
    wiki.save("peer-1", "Draft", "hello\nworld\nagain", comment="via save")
    session.append("and again")
    session.save(comment="second draft")
    history = [(revision.ts, revision.comment) for revision in wiki.history("Draft")]
    assert history == [(1, "first draft"), (2, "via save"), (3, "second draft")]
    assert session.save(comment="nothing changed") is None
    assert wiki.revision_count("Draft") == 3


def test_editor_sessions_from_two_users_merge(wiki):
    alice = EditorSession(wiki, "peer-0", "Minutes")
    alice.replace("agenda")
    alice.save()
    bob = EditorSession(wiki, "peer-1", "Minutes")
    bob.append("bob's remark")
    bob.save()
    alice2 = EditorSession(wiki, "peer-0", "Minutes")
    assert "agenda" in alice2.content
    assert "bob's remark" in alice2.content
    assert wiki.check_consistency("Minutes").converged
