"""Layer replay: per-layer speeds on the workload's own data.

A traced round keeps a uniform sample of up to 2000 inputs per function
(messages handed to ``Network.send``, arguments of
``integrate_remote_patches``, items written to a storage backend).  After
the wrappers are removed, each function is fed its sample in a tight loop
for at least ``min_seconds``: the speed of one layer on this workload's
data, free of wrapper overhead and of every other layer.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Callable, Optional

from repro.net import codec
from repro.ot import Document, integrate_remote_patches
from repro.storage import create_backend

Values = dict[str, Optional[float]]


def _rate(work: Callable[[], float], min_seconds: float) -> float:
    """Units of work per second: repeat ``work`` until the time is spent."""
    done = 0.0
    started = time.perf_counter()
    while True:
        done += work()
        elapsed = time.perf_counter() - started
        if elapsed >= min_seconds:
            return done / elapsed


def replay(captures: dict[str, list[Any]], scratch: Path,
           min_seconds: float = 0.5) -> Values:
    values: Values = {
        "replay.codec_encode_mb_per_s": None,
        "replay.codec_decode_mb_per_s": None,
        "replay.copy_payload_msgs_per_s": None,
        "replay.ot_integrate_patches_per_s": None,
        "replay.storage_put_memory_rows_per_s": None,
        "replay.storage_put_sqlite_rows_per_s": None,
    }

    messages = captures.get("message", [])
    if messages:
        frames = [codec.encode_message(message) for message in messages]
        megabytes = sum(len(frame) for frame in frames) / 1e6

        def encode() -> float:
            for message in messages:
                codec.encode_message(message)
            return megabytes

        def decode() -> float:
            for frame in frames:
                codec.decode_message(frame)
            return megabytes

        def copy() -> float:
            for message in messages:
                codec.copy_payload(message.payload)
            return len(messages)

        values["replay.codec_encode_mb_per_s"] = _rate(encode, min_seconds)
        values["replay.codec_decode_mb_per_s"] = _rate(decode, min_seconds)
        values["replay.copy_payload_msgs_per_s"] = _rate(copy, min_seconds)

    merges = captures.get("integrate", [])
    if merges:
        patches = sum(len(remote) for _k, _l, _t, remote, _p in merges)

        def integrate() -> float:
            for key, lines, applied_ts, remote, pending in merges:
                replica = Document(key=key, lines=list(lines), applied_ts=applied_ts)
                integrate_remote_patches(replica, remote, pending)
            return patches

        values["replay.ot_integrate_patches_per_s"] = _rate(integrate, min_seconds)

    items = captures.get("stored_item", [])
    if items:
        scratch.mkdir(parents=True, exist_ok=True)
        for name in ("memory", "sqlite"):
            backend = create_backend(name, path=scratch / "replay.sqlite")
            try:
                def put() -> float:
                    for item in items:
                        backend.put(item)
                    return len(items)

                values[f"replay.storage_put_{name}_rows_per_s"] = _rate(
                    put, min_seconds)
            finally:
                backend.close()
    return values
