"""Declarative scenario specifications.

A :class:`ScenarioSpec` describes *what* an experiment measures without
spelling out *how* to loop over its parameters: a parameter grid, a repeat
count and a measurement callback.  The engine runner
(:mod:`repro.engine.runner`) expands the grid, derives per-point and
per-repeat seeds, hands the callback a :class:`ScenarioContext` with ready
made system builders, and assembles the returned rows into a
:class:`~repro.metrics.ResultTable` plus a machine-readable artifact.

A complete scenario fits in a handful of lines::

    spec = ScenarioSpec(
        scenario_id="EX",
        title="Example: lookup hops by ring size",
        columns=("peers", "mean_hops"),
        grid={"peers": (8, 16, 32)},
        measure=measure_hops,          # def measure_hops(ctx) -> dict
        seed=7,
    )
    result = run_scenario(spec)

A spec's factory keywords are its parameters: a different profile is a
different spec, never an override applied to a built one.  A scenario under
faults builds its :class:`~repro.faults.FaultPlan` inside the measurement,
from the built system's topology, and arms it there with
``Nemesis(system, plan).start()``; the spec itself carries no fault plan.
Nor does it carry a deployment: the context's builders make a ring of
:data:`DEFAULT_PEERS` peers on the interactive Chord defaults and 5 ms
links, a ``peers`` parameter (grid axis or constant) sets the ring size,
and a measurement passes anything else per builder call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence, Union

from ..chord import ChordConfig
from ..core import DEFAULT_CHORD_CONFIG, LtrConfig, LtrSystem
from ..net import ConstantLatency, LatencyModel, latency_preset

ParamDict = dict[str, Any]
MeasureFn = Callable[["ScenarioContext"], Union[ParamDict, Iterable[ParamDict]]]


def resolve_latency(latency: Union[str, float, LatencyModel, None]) -> LatencyModel:
    """Normalize a latency knob: preset name, constant seconds, or a model."""
    if latency is None:
        return ConstantLatency(0.005)
    if isinstance(latency, str):
        return latency_preset(latency)
    if isinstance(latency, (int, float)):
        return ConstantLatency(float(latency))
    return latency


#: Ring size of a context's builders when neither the call nor a ``peers``
#: parameter gives one.
DEFAULT_PEERS = 8


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative scenario: grid + repeats + measurement.

    Attributes
    ----------
    scenario_id, title, description:
        Identity and prose; ``scenario_id`` names the JSON artifact.
    columns:
        Result-table columns.  Every row the measurement returns must cover
        them (a ``repeat`` column, when present, is filled automatically).
    measure:
        Callback receiving a :class:`ScenarioContext`; returns one row dict
        or an iterable of row dicts.
    grid:
        Mapping of parameter name to the values it sweeps; the runner takes
        the cross product in declaration order.
    constants:
        Parameters shared by every grid point (merged under the grid point,
        which wins on collision).
    seed:
        Base seed.  The effective per-context seed adds ``seed_offset``
        (a function of the merged parameters, for backward-compatible
        per-point seeds) and a repeat-specific stride.
    repeats:
        How many times to run the measurement per grid point.
    notes:
        Free-form notes attached to the result table.
    """

    scenario_id: str
    title: str
    columns: Sequence[str]
    measure: MeasureFn
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    constants: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0
    repeats: int = 1
    seed_offset: Optional[Callable[[ParamDict], int]] = None
    notes: Sequence[str] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        if not self.columns:
            raise ValueError(f"scenario {self.scenario_id!r} declares no columns")
        overlap = set(self.grid) & set(self.constants)
        if overlap:
            raise ValueError(
                f"parameters {sorted(overlap)} appear in both grid and constants"
            )

    def grid_points(self) -> list[ParamDict]:
        """The expanded cross product of :attr:`grid`, in declaration order."""
        points: list[ParamDict] = [{}]
        for name, values in self.grid.items():
            values = list(values)
            if not values:
                raise ValueError(f"grid axis {name!r} has no values")
            points = [{**point, name: value} for point in points for value in values]
        return points

    def context_seed(self, params: ParamDict, repeat: int) -> int:
        """The derived seed for one (grid point, repeat) pair."""
        offset = self.seed_offset(params) if self.seed_offset is not None else 0
        return self.seed + offset + repeat * 7919  # prime stride keeps repeats apart


@dataclass
class ScenarioContext:
    """Everything a measurement callback needs for one (point, repeat) run."""

    spec: ScenarioSpec
    params: ParamDict
    repeat: int
    seed: int

    @property
    def base_seed(self) -> int:
        """The spec's underived base seed (for workload generators that must
        stay identical across grid points)."""
        return self.spec.seed

    def param(self, name: str, default: Any = None) -> Any:
        """A merged parameter (grid point over constants), with a default."""
        return self.params.get(name, default)

    # ----------------------------------------------------------- builders --

    def build_system(
        self,
        peers: Optional[int] = None,
        *,
        seed: Optional[int] = None,
        latency: Union[str, float, LatencyModel, None] = None,
        ltr_config: Optional[LtrConfig] = None,
        chord_config: Optional[ChordConfig] = None,
        stabilize_time: Optional[float] = None,
    ) -> LtrSystem:
        """A bootstrapped :class:`~repro.core.LtrSystem` for this context.

        The ring has the ``peers`` parameter's size (:data:`DEFAULT_PEERS`
        without one) and the context seed; every knob can be overridden per
        call.  The LTR config picks the execution and
        storage backends; ``stabilize_time`` bounds the bootstrap
        stabilization budget — live (asyncio) scenarios pass a tight bound
        because they pay it in wall-clock seconds.
        """
        count = peers if peers is not None else self.param("peers", DEFAULT_PEERS)
        system = LtrSystem(
            ltr_config=ltr_config,
            chord_config=chord_config,
            seed=seed if seed is not None else self.seed,
            latency=resolve_latency(latency),
        )
        system.bootstrap(count, stabilize_time=stabilize_time)
        return system

    def build_ring(
        self,
        peers: Optional[int] = None,
        *,
        seed: Optional[int] = None,
        latency: Union[str, float, LatencyModel, None] = None,
        config: Optional[ChordConfig] = None,
        service_factory=None,
        settle: float = 0.0,
    ):
        """A bootstrapped bare :class:`~repro.chord.ChordRing`.

        ``settle`` additionally runs the simulation for that many seconds
        (e.g. to let ``fix_fingers`` converge before measuring hop counts).
        """
        from ..chord import ChordRing  # local import: chord is below engine

        count = peers if peers is not None else self.param("peers", DEFAULT_PEERS)
        ring = ChordRing(
            config=config if config is not None else DEFAULT_CHORD_CONFIG,
            seed=seed if seed is not None else self.seed,
            latency=resolve_latency(latency),
            service_factory=service_factory,
        )
        ring.bootstrap(count)
        if settle > 0.0:
            ring.run_for(settle)
        return ring
