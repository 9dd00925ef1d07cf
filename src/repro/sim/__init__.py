"""Deterministic discrete-event simulation kernel.

This package is the reference implementation of the execution-runtime
contract (:mod:`repro.runtime`): the network (:mod:`repro.net`), the Chord
DHT (:mod:`repro.chord`) and the P2P-LTR peers (:mod:`repro.core`) are all
written as processes driven by a runtime, and a single :class:`Simulator`
(wrapped as ``repro.runtime.SimRuntime``, the default backend) schedules
them on a virtual clock — which makes experiments reproducible and lets
the benchmarks sweep latency, churn and failure parameters without
wall-clock sleeps.  Upper layers never import this package directly; they
program against :mod:`repro.runtime` (enforced by ``tests/test_layering.py``).
"""

from .events import AllOf, AnyOf, ConditionValue, Event, Future, Timeout
from .process import Process, ProcessGenerator
from .rng import RandomStreams, derive_seed
from .scheduler import Simulator
from .sync import FifoLock

__all__ = [
    "AllOf",
    "AnyOf",
    "ConditionValue",
    "Event",
    "FifoLock",
    "Future",
    "Process",
    "ProcessGenerator",
    "RandomStreams",
    "Simulator",
    "Timeout",
    "derive_seed",
]
