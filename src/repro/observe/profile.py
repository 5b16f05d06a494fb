"""Hot-path profiler: virtual and wall time per named section.

Virtual time (what the simulation charged) is deterministic and may be
published into the metrics registry; wall time (what this host actually
spent in graph build, GNN forward, executor stepping...) is inherently
machine-dependent and therefore appears only in the human-facing
``report()`` — never in canonical exports, which must stay
byte-reproducible.
"""

from __future__ import annotations

import time as _time
from contextlib import contextmanager

__all__ = ["Profiler"]


class Profiler:
    """Accumulates ``(calls, wall_seconds, virtual_seconds)`` per section."""

    def __init__(self):
        self._sections: dict[str, list] = {}

    def _entry(self, name: str) -> list:
        entry = self._sections.get(name)
        if entry is None:
            entry = [0, 0.0, 0.0]
            self._sections[name] = entry
        return entry

    @contextmanager
    def section(self, name: str, clock=None):
        """Time a hot path; pass the virtual clock to also attribute
        the virtual seconds the body advances."""
        wall_start = _time.perf_counter()
        virtual_start = clock.now if clock is not None else None
        try:
            yield
        finally:
            entry = self._entry(name)
            entry[0] += 1
            entry[1] += _time.perf_counter() - wall_start
            if virtual_start is not None:
                entry[2] += clock.now - virtual_start

    def add_virtual(self, name: str, seconds: float, calls: int = 0) -> None:
        """Attribute already-accounted virtual seconds (e.g. clock charges)."""
        entry = self._entry(name)
        entry[0] += calls
        entry[2] += seconds

    def sections(self) -> dict[str, tuple]:
        return {
            name: tuple(entry)
            for name, entry in sorted(self._sections.items())
        }

    def publish(self, registry, diagnostic: bool = False) -> None:
        """Mirror the deterministic (virtual) side into ``profile.*``
        registry gauges.

        Pass ``diagnostic=True`` when the profiler itself is not part of
        the checkpoint (the fuzz loop's continuous sampling): the gauges
        then stay out of the canonical snapshot, so a resumed run — whose
        profiler restarts empty — still exports byte-identical metrics.
        """
        for name, (calls, _wall, virtual) in self.sections().items():
            registry.gauge(
                "profile.virtual", section=name, diagnostic=diagnostic
            ).set(virtual)
            registry.gauge(
                "profile.calls", section=name, diagnostic=diagnostic
            ).set(calls)

    def report(self) -> str:
        lines = [
            "profiler (wall seconds are host-dependent and excluded from exports)",
            "",
            f"  {'section':<28}  {'calls':>8}  {'wall_s':>10}  {'virtual_s':>11}",
        ]
        if not self._sections:
            lines.append("  (no sections recorded)")
            return "\n".join(lines) + "\n"
        ordered = sorted(
            self._sections.items(), key=lambda item: (-item[1][1], item[0])
        )
        for name, (calls, wall, virtual) in ordered:
            lines.append(
                f"  {name:<28}  {calls:>8}  {wall:>10.4f}  {virtual:>11.3f}"
            )
        return "\n".join(lines) + "\n"
