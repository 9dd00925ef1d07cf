"""The cluster launcher: spawn, drive, fault and tear down an N-process ring.

:class:`Cluster` turns a :class:`~repro.cluster.config.ClusterConfig` into a
running deployment: it spawns one ``python -m repro.cluster host`` child per
host process (handshaking on each child's READY banner before starting the
next), then joins its *own* client peer to the ring over the same wire
transport, so every commit the launcher drives crosses real process
boundaries through the serialized codec.

The launcher doubles as the nemesis surface for process-level faults: it
exposes ``runtime``/``ring``/``network``/``notify_fault`` (delegated to the
client-side :class:`~repro.core.LtrSystem`) plus :meth:`kill_process`, which
SIGKILLs a child — the fault the
:class:`~repro.faults.plan.KillProcess` action fires.  A killed process's
peers are never told anything; the survivors discover the loss through RPC
timeouts, exactly like the paper's failure model assumes.
"""

from __future__ import annotations

import os
import select
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional

from ..core import CommitResult, LtrSystem
from ..errors import ClusterError, ReproError
from ..net import Address
from .config import CLIENT_NAME, ClusterConfig

if TYPE_CHECKING:  # pragma: no cover - the host side loads asyncio
    from ..net import WireNetwork

#: Wall-clock budget each child gets to report READY.
STARTUP_TIMEOUT = 30.0

#: How :meth:`Cluster.commit_with_retries` rides out the window after a
#: fault: retries, and the wall-clock pause between two attempts.
COMMIT_RETRIES = 16
COMMIT_RETRY_DELAY = 0.25


def _repro_src_dir() -> str:
    """The directory that must be on PYTHONPATH for ``import repro``."""
    import repro

    return str(Path(repro.__file__).resolve().parent.parent)


class Cluster:
    """A live multi-process P2P-LTR deployment plus its driver client."""

    def __init__(self, config: ClusterConfig) -> None:
        if config.transport == "uds" and not config.socket_dir:
            # UDS paths are capped around 107 bytes; a short tmp dir keeps
            # headroom for the per-process socket names.
            self._auto_dir = tempfile.mkdtemp(prefix="repro-clu-")
            config = replace(config, socket_dir=self._auto_dir)
        else:
            self._auto_dir = None
        self.config = config
        self.processes: list[Optional[subprocess.Popen]] = []
        self.killed: list[int] = []
        self._logs: list[Path] = []
        self.system: Optional[LtrSystem] = None
        self._network: Optional[WireNetwork] = None
        self._started = False

    # -- nemesis / driver surface (delegates to the client-side system) ------

    @property
    def runtime(self):
        assert self.system is not None
        return self.system.runtime

    @property
    def ring(self):
        assert self.system is not None
        return self.system.ring

    @property
    def network(self):
        assert self.system is not None
        return self.system.network

    def notify_fault(self, label: str, details: Optional[dict] = None) -> None:
        assert self.system is not None
        self.system.notify_fault(label, details)

    def forget_user(self, name: str) -> None:
        assert self.system is not None
        self.system.forget_user(name)

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "Cluster":
        """Spawn every host process, then join the client peer to the ring."""
        if self._started:
            raise ClusterError("this cluster has already been started")
        self._started = True
        try:
            for index in range(self.config.processes):
                self._spawn_host(index)
            self._start_client()
        except BaseException:
            self.stop()
            raise
        return self

    def _spawn_host(self, index: int) -> None:
        log_dir = Path(self.config.socket_dir or tempfile.gettempdir())
        log_path = log_dir / f"host-{index}.log"
        self._logs.append(log_path)
        env = dict(os.environ)
        env["PYTHONPATH"] = _repro_src_dir() + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        # The child keeps its own descriptor of the log; ours closes here.
        with open(log_path, "wb") as log:
            process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cluster", "host",
                    "--index", str(index), "--config", self.config.to_json(),
                ],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=log,
                env=env,
            )
        self.processes.append(process)
        self._await_ready(process, index)

    def _await_ready(self, process: subprocess.Popen, index: int) -> None:
        """Block until the child prints its READY banner (or fail loudly)."""
        from .host import READY_BANNER

        assert process.stdout is not None
        deadline = time.monotonic() + STARTUP_TIMEOUT
        buffer = b""
        fd = process.stdout.fileno()
        while time.monotonic() < deadline:
            if process.poll() is not None:
                raise ClusterError(
                    f"host {index} exited with {process.returncode} during "
                    f"startup (see {self._logs[index]})"
                )
            readable, _w, _x = select.select([fd], [], [], 0.25)
            if not readable:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                raise ClusterError(
                    f"host {index} closed stdout before READY "
                    f"(see {self._logs[index]})"
                )
            buffer += chunk
            if f"{READY_BANNER} {index}".encode() in buffer:
                return
        raise ClusterError(
            f"host {index} not READY within {STARTUP_TIMEOUT}s "
            f"(see {self._logs[index]})"
        )

    def _start_client(self) -> None:
        from .host import build_host_system, join_with_retries

        runtime, network, system = build_host_system(
            self.config, -1, process_name=CLIENT_NAME
        )
        self._network = network
        self.system = system
        network.start()
        join_with_retries(system, CLIENT_NAME, Address(self.config.founder, "default"))
        runtime.run(until=runtime.timeout(self.config.settle_time))

    def stop(self) -> None:
        """Tear the deployment down: children first, then the client leg."""
        for process in self.processes:
            if process is None or process.poll() is not None:
                continue
            if process.stdin is not None:
                try:
                    process.stdin.close()  # EOF: the child's shutdown signal
                except OSError:
                    pass
        for process in self.processes:
            if process is None:
                continue
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            if process.stdout is not None:
                process.stdout.close()
        if self._network is not None:
            self._network.stop()
            self._network = None
        if self.system is not None:
            self.system.shutdown()
            self.system = None
        if self._auto_dir is not None:
            shutil.rmtree(self._auto_dir, ignore_errors=True)
            self._auto_dir = None

    def __enter__(self) -> "Cluster":
        return self.start()

    def __exit__(self, *_exc_info: Any) -> None:
        self.stop()

    # -- faults ---------------------------------------------------------------

    def kill_process(self, index: int) -> None:
        """SIGKILL host process ``index`` (the KillProcess fault action).

        No goodbye is sent anywhere: the OS reaps the sockets, in-flight
        frames are lost, and the survivors find out through RPC timeouts —
        the crash-stop failure model the protocol's procedures target.
        """
        if not 0 <= index < len(self.processes):
            raise ClusterError(f"no host process with index {index}")
        process = self.processes[index]
        if process is None or process.poll() is not None:
            raise ClusterError(f"host process {index} is not running")
        process.kill()
        process.wait()
        self.killed.append(index)

    # -- driving --------------------------------------------------------------

    def commit(self, key: str, text: str) -> Optional[CommitResult]:
        """One edit+commit from the client peer (crosses the wire)."""
        assert self.system is not None
        return self.system.edit_and_commit(CLIENT_NAME, key, text)

    def commit_with_retries(self, key: str, text: str) -> tuple[Optional[CommitResult], int]:
        """Commit, riding out the unavailability window after a fault.

        Returns ``(result, attempts_used)``; ``result`` is ``None`` when
        every attempt failed.  The retry loop exists for the post-kill
        window in which the dethroned Master's successor has not yet been
        promoted by stabilization.
        """
        assert self.system is not None
        runtime = self.system.runtime
        for attempt in range(COMMIT_RETRIES + 1):
            try:
                result = self.commit(key, text)
                if result is not None:
                    return result, attempt + 1
            except ReproError:
                pass
            if attempt < COMMIT_RETRIES:
                runtime.run(until=runtime.timeout(COMMIT_RETRY_DELAY))
        return None, COMMIT_RETRIES + 1

    def run_for(self, duration: float) -> None:
        """Let the client leg idle for ``duration`` wall-clock seconds."""
        assert self.system is not None
        runtime = self.system.runtime
        runtime.run(until=runtime.timeout(duration))

    def fetch_log(self, key: str, from_ts: int, to_ts: int):
        """Fetch log entries through the client's own DHT leg."""
        assert self.system is not None
        return self.system.fetch_log(key, from_ts, to_ts)

    def log_is_continuous(self, key: str, last_ts: int) -> bool:
        """``True`` when every timestamp ``1..last_ts`` is retrievable."""
        try:
            entries = self.fetch_log(key, 1, last_ts)
        except ReproError:
            return False
        timestamps = sorted(entry.ts for entry in entries)
        return timestamps == list(range(1, last_ts + 1))

    # -- reporting ------------------------------------------------------------

    def wire_stats(self) -> dict[str, int]:
        """The client leg's wire counters (frames in/out, drops, ...)."""
        assert self._network is not None
        return dict(self._network.wire_stats)
