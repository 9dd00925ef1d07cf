"""Execution runtimes: the substrate the protocol stack runs on.

This package decouples the stack from the discrete-event simulator.  All
layers above it (``repro.net`` upward) program against the
:class:`~repro.runtime.api.Runtime` contract — clock, timers, generator
processes, futures, named RNG streams — and two backends implement it:

* :class:`SimRuntime` (``"sim"``, the default): the deterministic
  discrete-event kernel, dispatching in ``(time, sequence)`` order.
* :class:`AsyncioRuntime` (``"asyncio"``): wall-clock timers and real
  in-process concurrency on an asyncio event loop, bridging to native
  tasks and queues.  It is loaded on first use, so a simulated process
  never imports asyncio.

Backends are selected by name through :func:`create_runtime` /
:func:`resolve_runtime`, which ``LtrConfig.runtime_backend`` feeds.  The
event, process and RNG primitives and :class:`FifoLock` are re-exported
here so upper layers never import ``repro.sim`` directly —
``tests/test_layering.py`` enforces that.
"""

from ..sim.events import AllOf, AnyOf, ConditionValue, Event, Future, Timeout
from ..sim.process import Process, ProcessGenerator
from ..sim.rng import RandomStreams, derive_seed
from ..sim.sync import FifoLock
from .api import (
    RUNTIME_BACKENDS,
    Runtime,
    backend_name,
    create_runtime,
    resolve_runtime,
)
from .sim_backend import SimRuntime

__all__ = [
    "AllOf",
    "AnyOf",
    "AsyncioRuntime",
    "ConditionValue",
    "Event",
    "FifoLock",
    "Future",
    "Process",
    "ProcessGenerator",
    "RUNTIME_BACKENDS",
    "RandomStreams",
    "Runtime",
    "SimRuntime",
    "Timeout",
    "backend_name",
    "create_runtime",
    "derive_seed",
    "resolve_runtime",
]


def __getattr__(name: str):
    if name == "AsyncioRuntime":
        from .asyncio_backend import AsyncioRuntime

        return AsyncioRuntime
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
