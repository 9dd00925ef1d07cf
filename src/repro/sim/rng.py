"""Deterministic, named random-number streams.

Experiments need independent sources of randomness for independent concerns
(network latency, workload generation, churn schedules, hash salt choices)
so that changing one knob — say, the churn rate — does not perturb the
random draws of another.  :class:`RandomStreams` hands out one
:class:`random.Random` instance per *stream name*, each seeded
deterministically from the master seed and the name.

Under the deterministic simulation backend a single generator per name is
exactly right: one process runs at a time, so draws from a named stream
form one reproducible sequence.  Under a concurrent backend (the asyncio
runtime) two tasks hitting the same named stream would interleave their
draws nondeterministically *within* that stream.  A family created with a
``scope_provider`` therefore resolves every ``stream(name)`` call to a
scope-local sub-stream (``name#<scope>``): each task/process draws from its
own deterministic sequence and draws can never interleave across scopes.
Stream creation itself is guarded by a lock so the family is safe to share
between threads.
"""

from __future__ import annotations

import hashlib
import random
import threading
from typing import Callable, Dict, Optional


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and a stream ``name``.

    The derivation uses SHA-256 so that distinct names give statistically
    independent seeds, and is stable across Python versions and processes
    (unlike the built-in ``hash``).
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStreams:
    """A family of independently seeded :class:`random.Random` generators.

    Parameters
    ----------
    master_seed:
        Seed every stream's child seed is derived from.
    scope_provider:
        Optional callable returning the current *scope label* (or ``None``).
        When it returns a label, :meth:`stream` transparently resolves to
        the sub-stream ``f"{name}#{label}"`` — the task-local sub-streams
        that keep concurrently running asyncio processes from interleaving
        draws within one named stream.  The default (``None``) preserves
        the historical single-generator-per-name behaviour bit for bit.
    """

    def __init__(
        self,
        master_seed: int = 0,
        *,
        scope_provider: Optional[Callable[[], Optional[str]]] = None,
    ) -> None:
        self.master_seed = master_seed
        self.scope_provider = scope_provider
        self._streams: Dict[str, random.Random] = {}
        self._lock = threading.Lock()

    def _resolve(self, name: str) -> str:
        if self.scope_provider is None:
            return name
        scope = self.scope_provider()
        if not scope:
            return name
        return f"{name}#{scope}"

    def stream(self, name: str) -> random.Random:
        """Return the generator for ``name``, creating it on first use.

        With a ``scope_provider`` the effective stream is scope-local (see
        the class docstring), so two concurrent tasks asking for the same
        ``name`` receive independent generators.
        """
        resolved = self._resolve(name)
        with self._lock:
            generator = self._streams.get(resolved)
            if generator is None:
                generator = random.Random(derive_seed(self.master_seed, resolved))
                self._streams[resolved] = generator
            return generator
