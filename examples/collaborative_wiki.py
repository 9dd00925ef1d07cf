"""Collaborative wiki: the paper's motivating XWiki-style application.

Several users edit wiki pages concurrently from different peers.  The
example shows page revisions being timestamped in continuous order, the
revision history reconstructed from the P2P-Log, and all replicas
converging to the same content.  The concurrent-editing stress section is
declared as a small :class:`~repro.engine.ScenarioSpec` so the engine
sweeps the number of simultaneous editors.

Run with ``python examples/collaborative_wiki.py``.
"""

from repro import LtrSystem
from repro.app import CollaborativeWiki, EditorSession
from repro.engine import ScenarioSpec, run_scenario


def main() -> None:
    system = LtrSystem(seed=7)
    system.bootstrap(10)
    wiki = CollaborativeWiki(system)

    # --- a page is created and extended by different users -------------------
    wiki.save("peer-0", "ProjectPlan", "= Project plan =", comment="create page")
    wiki.append_line("peer-3", "ProjectPlan", "* milestone 1: prototype the DHT",
                     comment="add milestone")
    wiki.append_line("peer-6", "ProjectPlan", "* milestone 2: integrate the wiki",
                     comment="add milestone")

    print("page content as seen from peer-9:")
    for line in wiki.read("peer-9", "ProjectPlan").split("\n"):
        print(f"  | {line}")

    print("\nrevision history (reconstructed from the P2P-Log):")
    for revision in wiki.history("ProjectPlan"):
        print(f"  ts={revision.ts}  author={revision.author:<8}  comment={revision.comment!r}")

    # --- an interactive editor session ----------------------------------------
    print("\nan editor session on peer-2 (open, type, save):")
    session = EditorSession(wiki, "peer-2", "ProjectPlan")
    session.append("action item: review the reconciliation engine")
    saved = session.save()
    print(f"  saved as revision ts={saved.ts}")
    print(f"  page now has {wiki.revision_count('ProjectPlan')} revisions")

    # --- concurrent editing, declared as a scenario ----------------------------
    def measure(ctx):
        editors = ctx.params["editors"]
        sized = ctx.build_system()
        sized_wiki = CollaborativeWiki(sized)
        key = sized_wiki.page_key("MeetingNotes")
        results = sized.run_concurrent_commits(
            [(f"peer-{index}", key, f"note from peer-{index}")
             for index in range(editors)]
        )
        report = sized_wiki.check_consistency("MeetingNotes")
        return {
            "editors": editors,
            "revisions": report.last_ts,
            "total_retrieved": sum(result.retrieved_patches for result in results),
            "converged": report.converged,
        }

    spec = ScenarioSpec(
        scenario_id="WIKI-CONTENTION",
        title="Concurrent editors hammering one wiki page",
        columns=("editors", "revisions", "total_retrieved", "converged"),
        grid={"editors": (2, 4, 8)},
        constants={"peers": 10},
        seed=7,
        measure=measure,
    )
    print("\nconcurrent editing of 'MeetingNotes', swept by the engine:")
    print(run_scenario(spec).table.render())


if __name__ == "__main__":
    main()
