"""Recovery-time metrics for fault-injection runs.

A nemesis scenario (E14/E15) drives a *probe workload* — periodic commits
or syncs — across one or more fault windows.  :class:`RecoveryTracker`
records the fault boundaries and every probe outcome, then derives the
recovery metrics the result tables report: how long each fault degraded
the probes and when service was restored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional


@dataclass(frozen=True)
class ProbeOutcome:
    """One probe: did the workload operation succeed at ``time``?"""

    time: float
    ok: bool
    detail: str = ""


@dataclass
class RecoveryTracker:
    """Accumulates fault boundaries and probe outcomes; derives recovery times."""

    faults: list[tuple[float, str]] = field(default_factory=list)
    probes: list[ProbeOutcome] = field(default_factory=list)

    def record_fault(self, time: float, label: str) -> None:
        """A fault (or heal) boundary was crossed at ``time``."""
        self.faults.append((time, label))

    def record_probe(self, time: float, ok: bool, detail: str = "") -> None:
        """One probe operation finished (successfully or not) at ``time``."""
        self.probes.append(ProbeOutcome(time, ok, detail))

    # -- as a fault observer ----------------------------------------------

    def on_fault(self, system, label: str, details: dict) -> None:
        """Observer hook: lets the tracker attach via ``add_observer``."""
        self.record_fault(details.get("time", system.runtime.now), label)

    # -- derived metrics ---------------------------------------------------

    def attempted(self) -> int:
        return len(self.probes)

    def succeeded(self) -> int:
        return sum(1 for probe in self.probes if probe.ok)

    def success_fraction(self) -> float:
        """Fraction of successful probes (1.0 when nothing was probed)."""
        if not self.probes:
            return 1.0
        return self.succeeded() / len(self.probes)

    def recovery_time(self, fault_time: float,
                      until: Optional[float] = None) -> Optional[float]:
        """Seconds from ``fault_time`` until probes succeeded again.

        The recovery point is the first success after the fault's *first
        contiguous failure streak*: later, unrelated failure windows (a
        composed plan's next fault) are not attributed to this fault.
        ``until`` optionally bounds the window explicitly.  ``None`` when
        no probe ran in the window or the streak never ended (service did
        not recover within it), ``0.0`` when no probe failed at all (the
        fault was absorbed invisibly).
        """
        window = [
            probe for probe in self.probes
            if probe.time >= fault_time and (until is None or probe.time < until)
        ]
        if not window:
            return None
        index = next(
            (i for i, probe in enumerate(window) if not probe.ok), None
        )
        if index is None:
            return 0.0
        while index < len(window) and not window[index].ok:
            index += 1
        if index == len(window):
            return None
        return window[index].time - fault_time

    def summary(self) -> dict[str, Any]:
        """Headline numbers for result rows.

        ``faults_unrecovered`` counts fault boundaries with no successful
        probe afterwards; it must be checked alongside
        ``max_recovery_time_s``, whose 0.0 only means "absorbed invisibly"
        for the *recovered* faults.
        """
        recoveries = []
        unrecovered = 0
        for fault_time, _label in self.faults:
            recovered = self.recovery_time(fault_time)
            if recovered is None:
                unrecovered += 1
            else:
                recoveries.append(recovered)
        return {
            "probes_attempted": self.attempted(),
            "probes_ok": self.succeeded(),
            "success_fraction": self.success_fraction(),
            "faults": len(self.faults),
            "faults_unrecovered": unrecovered,
            "max_recovery_time_s": max(recoveries) if recoveries else 0.0,
        }
