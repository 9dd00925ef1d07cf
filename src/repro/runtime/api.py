"""The execution-runtime interface of the protocol stack.

Everything above this layer — the network substrate, the Chord DHT, the
timestamp service, the P2P log and the P2P-LTR protocol — is written as
generator *processes* that yield :class:`~repro.sim.events.Event` objects
and is driven by a **runtime**: the object owning the clock, the timers,
the process scheduler, the RPC futures and the named RNG streams.

:class:`Runtime` is the structural contract those layers program against.
Two backends implement it:

* :class:`~repro.runtime.sim_backend.SimRuntime` — the deterministic
  discrete-event kernel (virtual clock; the default).  Byte-identical to
  the historical ``repro.sim.Simulator`` runs: every seeded experiment and
  artifact reproduces exactly.
* :class:`~repro.runtime.asyncio_backend.AsyncioRuntime` — wall-clock
  timers and real in-process concurrency on an asyncio event loop.

No module above ``repro.runtime`` imports ``repro.sim`` directly; the
layering test (``tests/test_layering.py``) enforces the downward-only
import DAG recorded in ``DESIGN.md``.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Iterable,
    Optional,
    Protocol,
    Union,
    runtime_checkable,
)

from ..errors import ConfigurationError
from ..sim.events import AllOf, AnyOf, Event, Future, Timeout
from ..sim.process import Process, ProcessGenerator
from ..sim.rng import RandomStreams

#: Names of the available runtime backends (see :func:`create_runtime`).
RUNTIME_BACKENDS = ("sim", "asyncio")


@runtime_checkable
class Runtime(Protocol):
    """Structural interface every execution backend provides.

    The contract mirrors the de-facto kernel surface the stack always used,
    so the simulation backend implements it natively; annotations across
    the stack reference this protocol instead of a concrete backend.
    """

    rng: RandomStreams
    fail_silently: bool
    crashed_processes: list

    @property
    def now(self) -> float:
        """Current time (virtual seconds or wall-clock seconds since start)."""
        ...  # pragma: no cover - protocol definition

    # -- event primitives -------------------------------------------------

    def event(self) -> Event: ...  # pragma: no cover - protocol definition

    def future(self) -> Future: ...  # pragma: no cover - protocol definition

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        ...  # pragma: no cover - protocol definition

    def all_of(self, events: Iterable[Event]) -> AllOf:
        ...  # pragma: no cover - protocol definition

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        ...  # pragma: no cover - protocol definition

    # -- processes and timers ---------------------------------------------

    def process(
        self, generator: ProcessGenerator, name: Optional[str] = None
    ) -> Process:
        ...  # pragma: no cover - protocol definition

    def schedule(self, event: Event, delay: float = 0.0) -> None:
        ...  # pragma: no cover - protocol definition

    def call_later(
        self, delay: float, callback: Callable[[Any], None], value: Any = None
    ) -> Event:
        ...  # pragma: no cover - protocol definition

    # -- execution --------------------------------------------------------

    def run(self, until: Optional[Union[float, Event]] = None) -> Any:
        ...  # pragma: no cover - protocol definition


def backend_name(runtime: Any) -> str:
    """The backend identifier of a runtime instance (``"sim"`` by default)."""
    return getattr(runtime, "backend", "sim")


def create_runtime(
    backend: str = "sim",
    *,
    seed: int = 0,
    **options: Any,
) -> "Runtime":
    """Instantiate a runtime backend by name.

    ``backend`` is one of :data:`RUNTIME_BACKENDS`; extra keyword options
    are forwarded to the backend constructor (e.g. ``run_guard`` for the
    asyncio backend).
    """
    if backend == "sim":
        from .sim_backend import SimRuntime

        return SimRuntime(seed=seed, **options)
    if backend == "asyncio":
        from .asyncio_backend import AsyncioRuntime

        return AsyncioRuntime(seed=seed, **options)
    raise ConfigurationError(
        f"unknown runtime backend {backend!r}; known: {list(RUNTIME_BACKENDS)}"
    )


def resolve_runtime(
    runtime: Union["Runtime", str, None],
    *,
    seed: int = 0,
    default: str = "sim",
) -> "Runtime":
    """Normalize a runtime knob: an instance, a backend name, or ``None``.

    ``None`` builds the ``default`` backend; a string builds that backend;
    an existing runtime instance is returned unchanged.
    """
    if runtime is None:
        return create_runtime(default, seed=seed)
    if isinstance(runtime, str):
        return create_runtime(runtime, seed=seed)
    return runtime
