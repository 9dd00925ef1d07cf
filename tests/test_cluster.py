"""Tests for multi-process cluster mode (repro.cluster).

Configuration layering, offline placement math, the process-kill fault
action, and a real cross-process smoke: a two-process ring over Unix-domain
sockets with commits crossing the wire codec.
"""

import json

import pytest

from repro.cluster import (
    CLIENT_NAME,
    Cluster,
    ClusterConfig,
    find_killable_placement,
    load_cluster_config,
    placement_of,
)
from repro.cluster.placement import next_on_ring, ring_ids, successor_name
from repro.errors import ClusterError, ConfigurationError
from repro.faults import ALL_ACTION_KINDS, FaultPlan, KillProcess


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


# ---------------------------------------------------------------------------
# load_cluster_config: layering precedence
# ---------------------------------------------------------------------------


def test_load_config_layering_precedence(tmp_path):
    config_file = tmp_path / "cluster.json"
    config_file.write_text(json.dumps(
        {"processes": 5, "peers_per_process": 4, "seed": 1}
    ))
    loaded = load_cluster_config(
        config_file,
        env={"REPRO_CLUSTER_PEERS_PER_PROCESS": "3", "REPRO_CLUSTER_SEED": "2"},
        overrides={"seed": 9},
    )
    assert loaded.processes == 5          # file beats defaults
    assert loaded.peers_per_process == 3  # env beats file
    assert loaded.seed == 9               # overrides beat env
    assert loaded.transport == "uds"      # untouched default


def test_load_config_rejects_unknown_keys(tmp_path):
    config_file = tmp_path / "cluster.json"
    config_file.write_text(json.dumps({"procesess": 5}))  # typo must not pass
    with pytest.raises(ClusterError):
        load_cluster_config(config_file, env={})
    with pytest.raises(ClusterError):
        load_cluster_config(env={}, overrides={"procesess": 5})


def test_load_config_coerces_and_rejects_bad_values():
    loaded = load_cluster_config(env={"REPRO_CLUSTER_RPC_TIMEOUT": "2.5"})
    assert loaded.rpc_timeout == 2.5
    with pytest.raises(ClusterError):
        load_cluster_config(env={"REPRO_CLUSTER_PROCESSES": "many"})


def test_rpc_timeout_reaches_the_network_not_the_chord_config():
    # The deployment timeout is the wire network's default; the ring
    # tuning every process shares carries no timeout of its own.
    chord = ClusterConfig(rpc_timeout=5.0).chord_config()
    assert not hasattr(chord, "rpc_timeout")
    assert chord == ClusterConfig(rpc_timeout=1.0).chord_config()


def test_load_config_none_overrides_are_skipped():
    loaded = load_cluster_config(env={}, overrides={"processes": None})
    assert loaded.processes == ClusterConfig().processes


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
    # Only names feed the hash: a config differing in seeds/timeouts places
    # identically, which is what lets every process agree without talking.
    other = ClusterConfig(processes=3, peers_per_process=2, seed=99,
                          rpc_timeout=5.0)
    assert placement_of(other, "doc-1") == first
    ids = ring_ids(config.all_peers(), config.bits)
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
    config = ClusterConfig(processes=3, peers_per_process=1, seed=3,
                           settle_time=0.5)
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


def test_route_cache_and_stabilization_work_across_processes():
    """Regression: ``Network.is_up`` only knows this process's endpoints, so
    on a wire every peer hosted elsewhere read as down — the client purged
    each cached route on sight (0 entries after any number of commits),
    never adopted a remote predecessor-of-successor and kept a successor
    list of one process's peers with no predecessor at all."""
    config = ClusterConfig(processes=2, peers_per_process=3, seed=3,
                           settle_time=1.0)
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
        ids = ring_ids(config.all_peers(), config.bits)
        ring_order, name = [], CLIENT_NAME
        for _ in range(client.config.successor_list_size):
            name = next_on_ring(ids, name)
            ring_order.append(name)
        assert [ref.name for ref in client.successors.entries()] == ring_order
        assert client.predecessor is not None
        assert next_on_ring(ids, client.predecessor.name) == CLIENT_NAME
