"""The transport's fault state: partitions and perturbation windows.

The paper's prototype GUI lets the demonstrator "provoke failures"; the
declarative :class:`~repro.faults.FaultPlan` is the one vocabulary for
them, and these are the two pieces of state its actions set on the
:class:`~repro.net.transport.Network`:

* **Partitions** — a :class:`PartitionManager` groups addresses into
  components; messages crossing component boundaries are dropped until the
  partition heals.
* **Perturbation windows** — a :class:`PerturbationWindow` drops,
  duplicates or delays messages while a nemesis burst runs (probabilistic
  loss is ``FaultPlan.loss_burst``).

Crashes and departures are the transport registry itself
(:meth:`~repro.net.transport.Network.crash` /
:meth:`~repro.net.transport.Network.unregister`), and a peer that receives
nothing while still listed as up is :attr:`Network.silenced
<repro.net.transport.Network.silenced>`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .address import Address


class PartitionManager:
    """Tracks network partitions between groups of addresses.

    When no partition is installed, all messages may flow.  After calling
    :meth:`split`, only messages whose endpoints are in the same group are
    delivered.  :meth:`heal` removes the partition.
    """

    def __init__(self) -> None:
        self._group_of: dict[str, int] = {}
        self._active = False

    @property
    def active(self) -> bool:
        """``True`` while a partition is installed."""
        return self._active

    def split(self, groups: Iterable[Iterable[Address]]) -> None:
        """Install a partition with the given groups of addresses.

        Addresses not mentioned in any group form an implicit extra group
        (they can talk to each other but not to the listed groups).
        """
        self._group_of = {}
        for index, group in enumerate(groups):
            for address in group:
                self._group_of[address.name] = index
        self._active = True

    def heal(self) -> None:
        """Remove the partition; all traffic flows again."""
        self._group_of = {}
        self._active = False

    def allows(self, source: Address, destination: Address) -> bool:
        """Return ``True`` if a message may cross from source to destination."""
        if not self._active:
            return True
        implicit = -1
        source_group = self._group_of.get(source.name, implicit)
        destination_group = self._group_of.get(destination.name, implicit)
        return source_group == destination_group


@dataclass(frozen=True)
class PerturbationWindow:
    """Transient message-level disturbances applied while a nemesis burst runs.

    A window is installed on the :class:`~repro.net.transport.Network` by the
    fault-injection layer (:mod:`repro.faults`) and removed when the burst
    ends.  While active, every message that survived the partition and
    silence checks is additionally subjected to:

    * an extra independent drop with probability ``drop_probability``,
    * duplication with probability ``duplicate_probability`` (the copy is
      delivered after its own sampled latency, modelling retransmission
      storms), and
    * a uniform extra delay in ``[0, reorder_jitter]`` seconds, which
      reorders messages whose base latencies are close together.

    All draws come from a dedicated ``net.perturb`` RNG stream, so installing
    a window never changes the draws of the base latency stream — runs
    without faults stay byte-identical to historical artifacts.
    """

    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    reorder_jitter: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop_probability", "duplicate_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.reorder_jitter < 0.0:
            raise ValueError(
                f"reorder_jitter must be >= 0, got {self.reorder_jitter}"
            )

    @property
    def quiet(self) -> bool:
        """``True`` when the window perturbs nothing (all knobs zero)."""
        return (
            self.drop_probability == 0.0
            and self.duplicate_probability == 0.0
            and self.reorder_jitter == 0.0
        )
