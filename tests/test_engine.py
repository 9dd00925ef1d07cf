"""Tests for the declarative scenario engine (repro.engine)."""

import json

import pytest

from repro.engine import (
    Experiment,
    ScenarioSpec,
    Topology,
    headline_metrics,
    read_artifact,
    render_results,
    resolve_latency,
    run_scenario,
    with_parameters,
    write_artifact,
)
from repro.net import ConstantLatency, LogNormalLatency


def _record_contexts(seen):
    def measure(ctx):
        seen.append((dict(ctx.params), ctx.repeat, ctx.seed))
        return {"x": ctx.params.get("x", 0), "y": ctx.params.get("y", 0),
                "seed": ctx.seed}
    return measure


def simple_spec(**kwargs):
    defaults = dict(
        scenario_id="T1",
        title="engine smoke",
        columns=("x", "y", "seed"),
        grid={"x": (1, 2), "y": (10, 20)},
        measure=lambda ctx: {"x": ctx.params["x"], "y": ctx.params["y"],
                             "seed": ctx.seed},
        seed=5,
    )
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


def test_grid_cross_product_in_declaration_order():
    result = run_scenario(simple_spec())
    assert [(row["x"], row["y"]) for row in result.rows] == [
        (1, 10), (1, 20), (2, 10), (2, 20),
    ]
    assert len(result.table) == 4
    assert result.column("x") == [1, 1, 2, 2]


def test_constants_merge_under_grid_points():
    seen = []
    spec = ScenarioSpec(
        scenario_id="T2",
        title="constants",
        columns=("x", "y", "seed"),
        grid={"x": (1,)},
        constants={"y": 42},
        measure=_record_contexts(seen),
    )
    run_scenario(spec)
    assert seen[0][0] == {"x": 1, "y": 42}


def test_grid_and_constants_must_not_overlap():
    with pytest.raises(ValueError):
        simple_spec(constants={"x": 9})


def test_repeats_derive_distinct_seeds_and_fill_repeat_column():
    seen = []
    spec = ScenarioSpec(
        scenario_id="T3",
        title="repeats",
        columns=("value", "repeat"),
        measure=lambda ctx: {"value": ctx.seed},
        repeats=3,
        seed=100,
    )
    result = run_scenario(spec)
    seeds = result.column("value")
    assert len(set(seeds)) == 3  # every repeat gets its own derived seed
    assert result.column("repeat") == [0, 1, 2]
    assert seeds[0] == 100  # repeat 0 keeps the base seed


def test_seed_offset_reproduces_legacy_per_point_seeds():
    spec = simple_spec(seed_offset=lambda params: params["x"])
    result = run_scenario(spec)
    by_x = {row["x"]: row["seed"] for row in result.rows}
    assert by_x == {1: 5 + 1, 2: 5 + 2}


def test_measure_may_return_multiple_rows():
    spec = ScenarioSpec(
        scenario_id="T4",
        title="multi-row",
        columns=("event", "index"),
        measure=lambda ctx: [{"event": "a", "index": 0}, {"event": "b", "index": 1}],
    )
    result = run_scenario(spec)
    assert result.column("event") == ["a", "b"]


def test_with_parameters_overrides_grid_constants_and_seed():
    spec = simple_spec()
    tweaked = with_parameters(spec, x=(7,), extra="hello", seed=99)
    assert tweaked.grid["x"] == (7,)
    assert tweaked.constants["extra"] == "hello"
    assert tweaked.seed == 99
    # the original spec is untouched (specs are frozen values)
    assert spec.grid["x"] == (1, 2) and spec.seed == 5


def test_run_scenario_accepts_inline_overrides():
    result = run_scenario(simple_spec(), x=(3,), y=(30,))
    assert [(row["x"], row["y"]) for row in result.rows] == [(3, 30)]


def test_experiment_groups_runs_in_order_and_filters():
    specs = [simple_spec(scenario_id=f"S{i}", grid={"x": (i,), "y": (0,)})
             for i in range(3)]
    experiment = Experiment(name="campaign", specs=specs)
    assert experiment.scenario_ids() == ["S0", "S1", "S2"]
    results = experiment.run()
    assert [r.scenario_id for r in results] == ["S0", "S1", "S2"]
    subset = experiment.run(only=["S2", "S0"])
    assert [r.scenario_id for r in subset] == ["S0", "S2"]  # registration order
    with pytest.raises(KeyError):
        experiment.run(only=["S9"])
    with pytest.raises(KeyError):
        experiment.spec("S9")


def test_experiment_per_scenario_overrides():
    specs = [simple_spec(scenario_id="A"), simple_spec(scenario_id="B")]
    experiment = Experiment(name="campaign", specs=specs)
    results = experiment.run(overrides={"A": {"x": (9,), "y": (9,)}})
    by_id = {result.scenario_id: result for result in results}
    assert [(row["x"], row["y"]) for row in by_id["A"].rows] == [(9, 9)]
    assert len(by_id["B"].rows) == 4


def test_artifacts_round_trip(tmp_path):
    result = run_scenario(simple_spec())
    path = write_artifact(result, tmp_path, prefix="BENCH_", profile="quick")
    assert path.name == "BENCH_T1.json"
    payload = read_artifact(path)
    assert payload["scenario_id"] == "T1"
    assert payload["columns"] == ["x", "y", "seed"]
    assert payload["rows"] == result.rows
    assert "headline" in payload
    assert payload["profile"] == "quick"
    # the artifact is plain JSON, diffable across commits
    assert json.loads(path.read_text())["grid"] == {"x": [1, 2], "y": [10, 20]}


def test_headline_metrics_average_numeric_columns_and_flag_fractions():
    spec = ScenarioSpec(
        scenario_id="T5",
        title="headline",
        columns=("mean_hops", "mean_commit_latency_s", "converged"),
        measure=lambda ctx: [
            {"mean_hops": 2.0, "mean_commit_latency_s": 0.1, "converged": True},
            {"mean_hops": 4.0, "mean_commit_latency_s": 0.3, "converged": False},
        ],
    )
    metrics = headline_metrics(run_scenario(spec))
    assert metrics["mean_mean_hops"] == pytest.approx(3.0)
    assert metrics["mean_mean_commit_latency_s"] == pytest.approx(0.2)
    assert metrics["fraction_converged"] == pytest.approx(0.5)


def test_resolve_latency_accepts_presets_constants_and_models():
    assert resolve_latency(None) == ConstantLatency(0.005)
    assert resolve_latency(0.02) == ConstantLatency(0.02)
    assert isinstance(resolve_latency("wan"), LogNormalLatency)
    model = ConstantLatency(0.001)
    assert resolve_latency(model) is model


def test_context_builders_produce_working_systems():
    built = {}

    def measure(ctx):
        system = ctx.build_system()
        result = system.edit_and_commit(system.peer_names()[0], "doc", "hello")
        ring = ctx.build_ring(4, settle=2.0)
        answer = ring.lookup("doc")
        built["peers"] = len(system.peer_names())
        return {"ts": result.ts, "correct": answer["node"] == ring.responsible_node("doc").ref}

    spec = ScenarioSpec(
        scenario_id="T6",
        title="builders",
        columns=("ts", "correct"),
        topology=Topology(peers=5),
        measure=measure,
        seed=3,
    )
    result = run_scenario(spec)
    assert result.rows[0] == {"ts": 1, "correct": True}
    assert built["peers"] == 5


def test_render_results_concatenates_tables():
    text = render_results([run_scenario(simple_spec())])
    assert "engine smoke" in text


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        simple_spec(repeats=0)
    with pytest.raises(ValueError):
        simple_spec(columns=())
    with pytest.raises(ValueError):
        run_scenario(simple_spec(grid={"x": ()}))
