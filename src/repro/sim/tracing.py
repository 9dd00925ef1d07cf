"""Lightweight tracing of simulation activity.

The trace log records processed events and arbitrary user annotations with
their simulated timestamps.  It is disabled by default (zero overhead apart
from one attribute check per event) and is used by the experiment harness to
produce per-scenario narratives similar to the walkthroughs in the paper's
demonstration section.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Optional


@dataclass(frozen=True)
class TraceRecord:
    """A single trace entry."""

    time: float
    category: str
    detail: str
    payload: Any = None


@dataclass
class TraceLog:
    """Append-only log of :class:`TraceRecord` entries."""

    enabled: bool = False
    records: list[TraceRecord] = field(default_factory=list)
    max_records: Optional[int] = None

    def record(self, time: float, event: Any) -> None:
        """Record a processed simulator event (called by the kernel)."""
        if not self.enabled:
            return
        self.annotate(time, "event", type(event).__name__, payload=event)

    def annotate(self, time: float, category: str, detail: str, *args: Any,
                 payload: Any = None) -> None:
        """Record a user-level annotation (peer actions, protocol steps...).

        With ``args``, ``detail`` is a :meth:`str.format` template that is
        only rendered when the record is kept: the protocol annotates on the
        commit hot path, where a disabled trace must cost one attribute
        check and no string building.
        """
        if not self.enabled:
            return
        if self.max_records is not None and len(self.records) >= self.max_records:
            return
        if args:
            detail = detail.format(*args)
        self.records.append(TraceRecord(time, category, detail, payload))

    # -- querying ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def filter(
        self,
        category: Optional[str] = None,
        predicate: Optional[Callable[[TraceRecord], bool]] = None,
    ) -> list[TraceRecord]:
        """Return records matching ``category`` and/or ``predicate``."""
        result: Iterable[TraceRecord] = self.records
        if category is not None:
            result = (record for record in result if record.category == category)
        if predicate is not None:
            result = (record for record in result if predicate(record))
        return list(result)

    def categories(self) -> dict[str, int]:
        """Count of records per category."""
        counts: dict[str, int] = {}
        for record in self.records:
            counts[record.category] = counts.get(record.category, 0) + 1
        return counts

    def clear(self) -> None:
        """Discard all records."""
        self.records.clear()

    def format(self, limit: Optional[int] = None) -> str:
        """Human-readable rendering of the trace, most recent last."""
        selected = self.records if limit is None else self.records[-limit:]
        lines = [
            f"[{record.time:12.6f}] {record.category:<12} {record.detail}"
            for record in selected
        ]
        return "\n".join(lines)
