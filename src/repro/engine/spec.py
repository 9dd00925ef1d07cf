"""Declarative scenario specifications.

A :class:`ScenarioSpec` describes *what* an experiment measures without
spelling out *how* to loop over its parameters: a topology (peer count,
latency preset, Chord/LTR configuration), a parameter grid, a repeat count
and a measurement callback.  The engine runner
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
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence, Union

from ..chord import ChordConfig
from ..core import LtrConfig, LtrSystem
from ..faults import FaultPlan, Nemesis
from ..net import ConstantLatency, LatencyModel, latency_preset

ParamDict = dict[str, Any]
MeasureFn = Callable[["ScenarioContext"], Union[ParamDict, Iterable[ParamDict]]]
NemesisFn = Callable[["ScenarioContext", LtrSystem], FaultPlan]

#: Chord settings shared by the paper experiments (small id space keeps
#: hashing cheap; intervals sized for fast simulated convergence).
EXPERIMENT_CHORD_CONFIG = ChordConfig(
    bits=32,
    successor_list_size=4,
    replication_factor=2,
    stabilize_interval=0.25,
    fix_fingers_interval=0.5,
    check_predecessor_interval=0.5,
)


def resolve_latency(latency: Union[str, float, LatencyModel, None]) -> LatencyModel:
    """Normalize a latency knob: preset name, constant seconds, or a model."""
    if latency is None:
        return ConstantLatency(0.005)
    if isinstance(latency, str):
        return latency_preset(latency)
    if isinstance(latency, (int, float)):
        return ConstantLatency(float(latency))
    return latency


@dataclass(frozen=True)
class Topology:
    """The deployment a scenario runs against.

    ``peers`` and ``latency`` are defaults: a grid axis named ``peers`` (or
    ``latency_preset``) overrides them per grid point, and the measurement
    callback can override them again per :meth:`ScenarioContext.build_system`
    call.  The execution and storage backends are the LTR config's
    (``runtime_backend``, ``storage_backend``, ``storage_dir``).
    """

    peers: int = 8
    latency: Union[str, float, LatencyModel, None] = None
    chord_config: ChordConfig = EXPERIMENT_CHORD_CONFIG
    ltr_config: Optional[LtrConfig] = None


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative scenario: topology + grid + repeats + measurement.

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
    topology:
        Default deployment; see :class:`Topology`.
    seed:
        Base seed.  The effective per-context seed adds ``seed_offset``
        (a function of the merged parameters, for backward-compatible
        per-point seeds) and a repeat-specific stride.
    repeats:
        How many times to run the measurement per grid point.
    nemesis:
        Optional fault-plan factory: a callable receiving the
        :class:`ScenarioContext` and the built system, returning a
        :class:`~repro.faults.FaultPlan` built from the merged parameters
        and the system's actual topology (which peer is the Master-key
        peer, ring order, ...).  The measurement arms it with
        :meth:`ScenarioContext.install_nemesis`; keeping the plan on the
        spec makes the scenario's failure schedule part of its declarative
        surface (E14/E15 are written this way).
    notes:
        Free-form notes attached to the result table.
    """

    scenario_id: str
    title: str
    columns: Sequence[str]
    measure: MeasureFn
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    constants: Mapping[str, Any] = field(default_factory=dict)
    topology: Topology = Topology()
    seed: int = 0
    repeats: int = 1
    nemesis: Optional[NemesisFn] = None
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

    @property
    def topology(self) -> Topology:
        return self.spec.topology

    def param(self, name: str, default: Any = None) -> Any:
        """A merged parameter (grid point over constants), with a default."""
        return self.params.get(name, default)

    # ------------------------------------------------------------ nemesis --

    def fault_plan(self, system: LtrSystem) -> Optional[FaultPlan]:
        """The spec's fault plan built for this context (``None`` if none)."""
        if self.spec.nemesis is None:
            return None
        return self.spec.nemesis(self, system)

    def install_nemesis(
        self,
        system: LtrSystem,
        plan: Optional[FaultPlan] = None,
        *,
        observers: Sequence[Any] = (),
        start_at: float = 0.0,
        strict: bool = False,
    ) -> Nemesis:
        """Arm a fault plan against ``system`` and start its timers.

        ``plan`` defaults to the spec's :attr:`~ScenarioSpec.nemesis`
        factory; ``observers`` (e.g. a
        :class:`~repro.check.ConvergenceChecker` and a
        :class:`~repro.metrics.RecoveryTracker`) are attached to the system
        before the first fault can fire.
        """
        effective = plan if plan is not None else self.fault_plan(system)
        if effective is None:
            raise ValueError(
                f"scenario {self.spec.scenario_id!r} declares no fault plan"
            )
        for observer in observers:
            system.add_observer(observer)
        return Nemesis(system, effective, strict=strict).start(at=start_at)

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

        Defaults come from the topology and the context seed; every knob can
        be overridden per call.  The LTR config picks the execution and
        storage backends; ``stabilize_time`` bounds the bootstrap
        stabilization budget — live (asyncio) scenarios pass a tight bound
        because they pay it in wall-clock seconds.
        """
        topology = self.topology
        count = peers if peers is not None else self.param("peers", topology.peers)
        system = LtrSystem(
            ltr_config=ltr_config if ltr_config is not None else topology.ltr_config,
            chord_config=chord_config if chord_config is not None else topology.chord_config,
            seed=seed if seed is not None else self.seed,
            latency=resolve_latency(latency if latency is not None else topology.latency),
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

        topology = self.topology
        count = peers if peers is not None else self.param("peers", topology.peers)
        ring = ChordRing(
            config=config if config is not None else topology.chord_config,
            seed=seed if seed is not None else self.seed,
            latency=resolve_latency(latency if latency is not None else topology.latency),
            service_factory=service_factory,
        )
        ring.bootstrap(count)
        if settle > 0.0:
            ring.run_for(settle)
        return ring


def with_parameters(spec: ScenarioSpec, **overrides: Any) -> ScenarioSpec:
    """A copy of ``spec`` with grid axes / constants replaced by name.

    A parameter that exists as a grid axis gets its value sequence replaced;
    anything else lands in ``constants``.  ``seed`` and ``repeats`` are
    recognized as spec-level fields.
    """
    grid = dict(spec.grid)
    constants = dict(spec.constants)
    spec_fields: ParamDict = {}
    for name, value in overrides.items():
        if name in ("seed", "repeats"):
            spec_fields[name] = value
        elif name in grid:
            grid[name] = value
        else:
            constants[name] = value
    return replace(spec, grid=grid, constants=constants, **spec_fields)
