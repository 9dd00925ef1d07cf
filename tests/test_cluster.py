"""Tests for multi-process cluster mode (repro.cluster).

The deployment config, offline placement math, the process-kill fault
action, and a real cross-process smoke: a ring of host processes over
Unix-domain sockets with commits crossing the wire codec.
"""

import json
import os
import warnings

import pytest

from repro.chord.successors import SUCCESSOR_LIST_SIZE
from repro.cluster import (
    CLIENT_NAME,
    CLUSTER_CHORD_CONFIG,
    CLUSTER_LTR_CONFIG,
    Cluster,
    ClusterConfig,
    find_killable_placement,
    placement_of,
)
from repro.cluster.placement import next_on_ring, ring_ids, successor_name
from repro.errors import ClusterError, ConfigurationError, NetworkError
from repro.faults import ALL_ACTION_KINDS, FaultPlan, KillProcess
from repro.net import Address


# ---------------------------------------------------------------------------
# ClusterConfig: validation, naming, endpoints
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ClusterError):
        ClusterConfig(processes=0)
    with pytest.raises(ClusterError):
        ClusterConfig(peers_per_process=0)
    with pytest.raises(ClusterError):
        ClusterConfig(transport="carrier-pigeon")
    with pytest.raises(ClusterError):
        ClusterConfig(transport="tcp")  # tcp needs an explicit base_port


def test_config_naming_and_membership():
    config = ClusterConfig(processes=2, peers_per_process=2)
    assert config.peer_name(1, 0) == "p1n0"
    assert config.process_peers(0) == ["p0n0", "p0n1"]
    assert config.all_host_peers() == ["p0n0", "p0n1", "p1n0", "p1n1"]
    assert config.all_peers()[-1] == CLIENT_NAME
    assert config.founder == "p0n0"
    assert config.process_of("p1n1") == 1
    assert config.process_of(CLIENT_NAME) is None
    with pytest.raises(ClusterError):
        config.process_of("p9n9")


def test_config_uds_endpoints_need_resolved_socket_dir():
    unresolved = ClusterConfig(processes=2)
    with pytest.raises(ClusterError):
        unresolved.endpoint_for(0)
    with pytest.raises(ClusterError):
        unresolved.client_endpoint()
    resolved = ClusterConfig(processes=2, socket_dir="/tmp/clu")
    assert resolved.endpoint_for(1) == "uds:///tmp/clu/h1.sock"
    assert resolved.client_endpoint() == "uds:///tmp/clu/client.sock"


def test_config_tcp_endpoints_and_routes():
    config = ClusterConfig(processes=2, peers_per_process=1,
                           transport="tcp", base_port=9500)
    assert config.endpoint_for(0) == "tcp://127.0.0.1:9500"
    assert config.endpoint_for(1) == "tcp://127.0.0.1:9501"
    assert config.client_endpoint() == "tcp://127.0.0.1:9502"
    routes = config.routes()
    # Every ring member — hosted peers and the client — has a route.
    assert set(routes) == {"p0n0", "p1n0", CLIENT_NAME}
    assert routes["p1n0"] == "tcp://127.0.0.1:9501"


def test_config_json_round_trip():
    config = ClusterConfig(processes=4, peers_per_process=3, seed=42,
                           socket_dir="/tmp/clu")
    assert ClusterConfig.from_json(config.to_json()) == config


def test_rpc_timeout_reaches_the_network_not_the_chord_config(tmp_path):
    # The deployment timeout is the wire network's default; the ring
    # tuning every process shares carries no timeout of its own.
    from repro.cluster.host import RPC_TIMEOUT, build_host_system

    assert not hasattr(CLUSTER_CHORD_CONFIG, "rpc_timeout")
    config = ClusterConfig(processes=1, socket_dir=str(tmp_path))
    _runtime, network, system = build_host_system(config, 0, process_name="host-0")
    try:
        assert network.default_timeout == RPC_TIMEOUT
        assert system.chord_config is CLUSTER_CHORD_CONFIG
        assert system.ltr_config is CLUSTER_LTR_CONFIG
    finally:
        network.stop()
        system.shutdown()


# ---------------------------------------------------------------------------
# Placement math
# ---------------------------------------------------------------------------


def test_successor_name_wraps_around_the_ring():
    ids = {"a": 10, "b": 20, "c": 30}
    assert successor_name(ids, 15) == "b"
    assert successor_name(ids, 20) == "b"
    assert successor_name(ids, 31) == "a"  # wraps past the highest id
    assert next_on_ring(ids, "c") == "a"
    assert next_on_ring(ids, "a") == "b"


def test_placement_is_deterministic_and_process_independent():
    config = ClusterConfig(processes=3, peers_per_process=2)
    first = placement_of(config, "doc-1")
    second = placement_of(config, "doc-1")
    assert first == second
    # Only names feed the hash: a config differing in its seed places
    # identically, which is what lets every process agree without talking.
    other = ClusterConfig(processes=3, peers_per_process=2, seed=99)
    assert placement_of(other, "doc-1") == first
    ids = ring_ids(config.all_peers(), CLUSTER_CHORD_CONFIG.bits)
    assert first.successor == next_on_ring(ids, first.master)


def test_find_killable_placement_invariants():
    config = ClusterConfig(processes=3, peers_per_process=2)
    placement = find_killable_placement(config)
    assert placement.master_process is not None  # not the launcher's client
    assert placement.successor_process != placement.master_process
    assert placement.kill_target == placement.master_process
    assert placement.master in config.process_peers(placement.master_process)


def test_find_killable_placement_needs_two_processes():
    with pytest.raises(ClusterError):
        find_killable_placement(ClusterConfig(processes=1))


# ---------------------------------------------------------------------------
# The CLI: flags are the deployment's fields
# ---------------------------------------------------------------------------


HEALTHY_REPORT = {"commits_ok": 3, "log_continuous": True}


@pytest.fixture
def cli_runs(monkeypatch):
    """Stand in for the live run: record each ``(config, commits, kill)``."""
    import repro.cluster.__main__ as cli

    runs = []
    report = dict(HEALTHY_REPORT)

    def fake_run(config, *, commits, kill):
        runs.append((config, commits, kill))
        return report

    monkeypatch.setattr(cli, "run_live_cluster", fake_run)
    return cli, runs, report


def test_cli_flags_left_out_keep_the_field_defaults(cli_runs, capsys):
    cli, runs, _report = cli_runs
    assert cli.main(["run"]) == 0
    ((config, commits, kill),) = runs
    assert config == ClusterConfig()
    assert (commits, kill) == (30, True)
    assert json.loads(capsys.readouterr().out) == HEALTHY_REPORT


def test_cli_flags_set_the_deployment_fields(cli_runs):
    cli, runs, _report = cli_runs
    assert cli.main([
        "run", "--processes", "5", "--peers-per-process", "3",
        "--transport", "tcp", "--base-port", "9600", "--seed", "9",
        "--commits", "4", "--no-kill", "--output", os.devnull,
    ]) == 0
    ((config, commits, kill),) = runs
    assert config == ClusterConfig(processes=5, peers_per_process=3,
                                   transport="tcp", base_port=9600, seed=9)
    assert (commits, kill) == (4, False)


def test_cli_reports_an_invalid_deployment_as_a_cluster_error(cli_runs, capsys):
    cli, runs, _report = cli_runs
    assert cli.main(["run", "--processes", "0"]) == 1
    assert runs == []  # refused before anything was spawned
    assert "cluster error" in capsys.readouterr().err


def test_cli_exit_code_and_output_file_follow_the_report(cli_runs, tmp_path):
    cli, _runs, report = cli_runs
    output = tmp_path / "report.json"
    assert cli.main(["run", "--output", str(output)]) == 0
    assert json.loads(output.read_text()) == HEALTHY_REPORT
    report["log_continuous"] = False
    assert cli.main(["run", "--output", str(output)]) == 2
    report.update(log_continuous=True, commits_ok=0)
    assert cli.main(["run", "--output", str(output)]) == 2


# ---------------------------------------------------------------------------
# The launcher's retry loops and child spawning, without child processes
# ---------------------------------------------------------------------------


class _ClockStub:
    """A runtime whose timeouts are recorded instead of waited out."""

    def __init__(self, fail_runs=0):
        self.delays = []
        self.fail_runs = fail_runs

    def timeout(self, delay):
        self.delays.append(delay)
        return ("timeout", delay)

    def process(self, work):
        work.close()  # the join coroutine is never driven
        return ("process",)

    def run(self, until):
        if until[0] == "process" and self.fail_runs:
            self.fail_runs -= 1
            raise NetworkError("gateway not listening yet")


class _CommitterStub:
    """A client-side system whose commits follow a script of outcomes."""

    def __init__(self, outcomes):
        self.runtime = _ClockStub()
        self.outcomes = list(outcomes)
        self.commits = 0

    def edit_and_commit(self, user, key, text):
        self.commits += 1
        outcome = self.outcomes.pop(0) if self.outcomes else None
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def test_commit_with_retries_gives_up_after_the_constant_budget(tmp_path):
    from repro.cluster.launcher import COMMIT_RETRIES, COMMIT_RETRY_DELAY

    cluster = Cluster(ClusterConfig(processes=1, socket_dir=str(tmp_path)))
    cluster.system = _CommitterStub([NetworkError("master down")])
    result, attempts = cluster.commit_with_retries("doc", "line")
    assert result is None
    assert attempts == cluster.system.commits == COMMIT_RETRIES + 1
    # A pause between two attempts, none after the last.
    assert cluster.system.runtime.delays == [COMMIT_RETRY_DELAY] * COMMIT_RETRIES


def test_commit_with_retries_returns_the_first_success(tmp_path):
    from repro.cluster.launcher import COMMIT_RETRY_DELAY

    committed = object()
    cluster = Cluster(ClusterConfig(processes=1, socket_dir=str(tmp_path)))
    cluster.system = _CommitterStub([NetworkError("master down"), None, committed])
    assert cluster.commit_with_retries("doc", "line") == (committed, 3)
    assert cluster.system.runtime.delays == [COMMIT_RETRY_DELAY] * 2


class _JoinerStub:
    def __init__(self, fail_runs):
        self.runtime = _ClockStub(fail_runs)
        self.node = self
        self.alive = False
        self.ring = self

    def create_node(self, name):
        return self.node

    async def join(self, gateway):  # driven only through _ClockStub.process
        return None


def test_join_with_retries_rides_out_a_late_gateway_then_gives_up():
    from repro.cluster.host import JOIN_RETRIES, JOIN_RETRY_DELAY, join_with_retries

    gateway = Address("p0n0", "default")
    late = _JoinerStub(fail_runs=2)
    join_with_retries(late, "p1n0", gateway)
    assert late.runtime.delays == [JOIN_RETRY_DELAY] * 2

    never = _JoinerStub(fail_runs=JOIN_RETRIES + 1)
    with pytest.raises(ClusterError, match="could not join"):
        join_with_retries(never, "p1n0", gateway)
    assert never.runtime.delays == [JOIN_RETRY_DELAY] * (JOIN_RETRIES + 1)


def test_spawn_host_leaves_no_log_handle_open_in_the_launcher(tmp_path, monkeypatch):
    """Regression: the launcher passed ``stderr=open(log_path, "wb")`` to the
    child and never closed its own handle, one leaked file per host."""
    import repro.cluster.launcher as launcher

    handed = []

    def fake_popen(argv, **kwargs):
        handed.append(kwargs["stderr"])
        return object()

    monkeypatch.setattr(launcher.subprocess, "Popen", fake_popen)
    monkeypatch.setattr(Cluster, "_await_ready", lambda self, process, index: None)
    cluster = Cluster(ClusterConfig(processes=2, socket_dir=str(tmp_path)))
    cluster._spawn_host(0)
    cluster._spawn_host(1)
    assert [log.name for log in handed] == [
        str(tmp_path / "host-0.log"), str(tmp_path / "host-1.log"),
    ]
    assert all(log.closed for log in handed)


# ---------------------------------------------------------------------------
# KillProcess fault action
# ---------------------------------------------------------------------------


class _StubNemesis:
    def __init__(self, system):
        self.system = system


class _ClusterStub:
    def __init__(self):
        self.killed = []

    def kill_process(self, index):
        self.killed.append(index)


def test_kill_process_is_a_registered_action_kind():
    assert "kill-process" in ALL_ACTION_KINDS


def test_kill_process_builder_and_apply():
    plan = FaultPlan().kill_process(1.5, 2)
    (event,) = plan.events
    assert event.action.kind == "kill-process"
    assert event.action.describe() == "kill-process[2]"
    system = _ClusterStub()
    event.action.apply(_StubNemesis(system))
    assert system.killed == [2]


def test_kill_process_rejects_negative_index_and_plain_systems():
    with pytest.raises(ConfigurationError):
        FaultPlan().kill_process(1.0, -1)
    action = KillProcess(index=0)
    with pytest.raises(ConfigurationError):
        action.apply(_StubNemesis(object()))  # no kill_process(): not a cluster


# ---------------------------------------------------------------------------
# Cross-process smoke: a real three-process ring over the wire codec
# ---------------------------------------------------------------------------


def test_three_process_cluster_commits_across_the_wire():
    """Also a regression: the launcher kept its handle of every host's log
    file open, one ``ResourceWarning: unclosed file`` per host."""
    config = ClusterConfig(processes=3, peers_per_process=1, seed=3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with Cluster(config) as cluster:
            last_ts = 0
            for index in range(3):
                result, attempts = cluster.commit_with_retries(
                    "smoke-doc", f"line-{index}"
                )
                assert result is not None, f"commit {index} failed"
                assert attempts >= 1
                last_ts = result.ts
            assert last_ts == 3
            assert cluster.log_is_continuous("smoke-doc", last_ts)
            stats = cluster.wire_stats()
            # The client's ring traffic genuinely crossed process boundaries.
            assert stats["frames_out"] > 0
            assert stats["frames_in"] > 0
            assert stats["decode_errors"] == 0
    leaked = [str(warning.message) for warning in caught
              if issubclass(warning.category, ResourceWarning)]
    assert leaked == []


def test_route_cache_and_stabilization_work_across_processes():
    """Regression: ``Network.is_up`` only knows this process's endpoints, so
    on a wire every peer hosted elsewhere read as down — the client purged
    each cached route on sight (0 entries after any number of commits),
    never adopted a remote predecessor-of-successor and kept a successor
    list of one process's peers with no predecessor at all."""
    config = ClusterConfig(processes=2, peers_per_process=3, seed=3)
    with Cluster(config) as cluster:
        # Several documents: a Master that happens to be the client's own
        # successor is resolved without the cache.
        for index in range(12):
            result, _attempts = cluster.commit_with_retries(
                f"cache-doc-{index % 4}", f"line-{index}"
            )
            assert result is not None, f"commit {index} failed"
        client = cluster.ring.node(CLIENT_NAME)
        stats = client.route_cache.stats()
        assert stats["entries"] > 0, "every cached route was purged on sight"
        assert stats["hits"] > stats["invalidations"], stats  # hits were served
        ids = ring_ids(config.all_peers(), CLUSTER_CHORD_CONFIG.bits)
        ring_order, name = [], CLIENT_NAME
        for _ in range(SUCCESSOR_LIST_SIZE):
            name = next_on_ring(ids, name)
            ring_order.append(name)
        assert [ref.name for ref in client.successors.entries()] == ring_order
        assert client.predecessor is not None
        assert next_on_ring(ids, client.predecessor.name) == CLIENT_NAME
