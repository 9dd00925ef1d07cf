"""CLI for cluster mode: ``python -m repro.cluster {run,host}``.

``run`` boots a whole cluster, drives the canonical commit-kill-recover
exercise (:func:`~repro.cluster.scenario.run_live_cluster`) and prints the
report as JSON.  ``host`` is the internal child-process entry point the
launcher spawns; it is not meant to be invoked by hand.

The flags of ``run`` are the deployment's fields (:class:`ClusterConfig`);
a flag left out keeps the field's default.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..errors import ClusterError
from .config import ClusterConfig
from .host import run_host
from .scenario import run_live_cluster


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description="Run a multi-process P2P-LTR ring over real sockets.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="boot a cluster and drive commits")
    run.add_argument("--processes", type=int, help="number of host processes")
    run.add_argument("--peers-per-process", type=int, dest="peers_per_process")
    run.add_argument("--transport", choices=("uds", "tcp"))
    run.add_argument("--socket-dir", dest="socket_dir")
    run.add_argument("--base-port", type=int, dest="base_port")
    run.add_argument("--seed", type=int)
    run.add_argument("--commits", type=int, default=30,
                     help="edits committed from the client peer")
    run.add_argument("--no-kill", action="store_true",
                     help="skip the mid-run SIGKILL of the Master's process")
    run.add_argument("--output", help="write the JSON report here (default stdout)")

    host = commands.add_parser(
        "host", help="internal: one host process (spawned by the launcher)"
    )
    host.add_argument("--index", type=int, required=True)
    host.add_argument("--config", required=True,
                      help="resolved ClusterConfig as JSON (from the launcher)")
    return parser


def main(argv: list[str] | None = None) -> int:
    arguments = _build_parser().parse_args(argv)
    if arguments.command == "host":
        return run_host(ClusterConfig.from_json(arguments.config), arguments.index)

    overrides = {
        name: getattr(arguments, name)
        for name in ("processes", "peers_per_process", "transport",
                     "socket_dir", "base_port", "seed")
        if getattr(arguments, name) is not None
    }
    try:
        config = ClusterConfig(**overrides)
        report = run_live_cluster(
            config, commits=arguments.commits, kill=not arguments.no_kill
        )
    except ClusterError as error:
        print(f"cluster error: {error}", file=sys.stderr)
        return 1
    rendered = json.dumps(report, indent=2, sort_keys=True)
    if arguments.output:
        with open(arguments.output, "w") as handle:
            handle.write(rendered + "\n")
    else:
        print(rendered)
    healthy = report["commits_ok"] > 0 and report["log_continuous"]
    return 0 if healthy else 2


if __name__ == "__main__":
    sys.exit(main())
