"""Churn workloads: scripted peer joins, departures and failures.

The paper's prototype GUI lets the demonstrator "add/remove peers to/from
the system" and "provoke failures"; these generators produce equivalent
scripted schedules — time-sorted ``(time, action, peer)`` lists — that the
experiment harness replays during an editing workload or
:meth:`~repro.faults.FaultPlan.churn_storm` turns into fault actions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class ChurnProfile:
    """Rates describing how dynamic the peer population is.

    Rates are in events per simulated second over the whole system; the
    classic "session time" view can be obtained as ``peer_count / rate``.
    """

    leave_rate: float = 0.0
    crash_rate: float = 0.0
    join_rate: float = 0.0

    def total_rate(self) -> float:
        """Aggregate event rate."""
        return self.leave_rate + self.crash_rate + self.join_rate

    def validate(self) -> None:
        """Raise ``ValueError`` on negative rates."""
        for name in ("leave_rate", "crash_rate", "join_rate"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


#: Profiles matching the qualitative settings of the demonstration.
PROFILES = {
    "stable": ChurnProfile(),
    "gentle": ChurnProfile(leave_rate=0.02, crash_rate=0.01, join_rate=0.02),
    "aggressive": ChurnProfile(leave_rate=0.08, crash_rate=0.06, join_rate=0.08),
}


def generate_churn_schedule(
    *,
    initial_peers: Sequence[str],
    duration: float,
    profile: ChurnProfile,
    seed: int = 0,
    protected: Sequence[str] = (),
    new_peer_prefix: str = "joiner",
) -> list[tuple[float, str, str]]:
    """Build a churn schedule over ``duration`` simulated seconds.

    Departures and crashes pick random currently-alive, unprotected peers;
    joins introduce fresh names (``joiner-0``, ``joiner-1``, ...).  The
    schedule never removes the last two peers so the ring always survives.
    Entries are ``(time, action, peer)`` with ``action`` one of ``"join"``,
    ``"leave"`` or ``"crash"``, in time order.
    """
    profile.validate()
    rng = random.Random(seed)
    schedule: list[tuple[float, str, str]] = []
    alive = list(initial_peers)
    protected_set = set(protected)
    joined = 0
    total_rate = profile.total_rate()
    if total_rate <= 0 or duration <= 0:
        return schedule

    time = 0.0
    while True:
        time += rng.expovariate(total_rate)
        if time >= duration:
            break
        choice = rng.random() * total_rate
        if choice < profile.join_rate:
            name = f"{new_peer_prefix}-{joined}"
            joined += 1
            schedule.append((time, "join", name))
            alive.append(name)
            continue
        removable = [name for name in alive if name not in protected_set]
        if len(removable) <= 2:
            continue
        victim = rng.choice(removable)
        alive.remove(victim)
        if choice < profile.join_rate + profile.leave_rate:
            schedule.append((time, "leave", victim))
        else:
            schedule.append((time, "crash", victim))
    return schedule


def apply_churn_action(system, action: str, peer: str) -> None:
    """Apply one churn action to an :class:`~repro.core.LtrSystem`."""
    if action == "join":
        system.add_peer(peer)
    elif action == "leave":
        system.leave(peer)
    elif action == "crash":
        system.crash(peer)
    else:
        raise ValueError(f"unknown churn action {action!r}")
