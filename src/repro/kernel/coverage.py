"""Coverage traces, blocks, and edges.

Mirrors the paper's post-processing of KCOV traces (§5.3.1): a trace is
the sequence of executed kernel basic blocks; *edge* coverage is the set
of unique directional pairs of consecutive blocks within one system
call's kernel path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Coverage"]


@dataclass
class Coverage:
    """Coverage of one test execution (or an accumulated union).

    ``call_traces`` holds the per-call block sequences for a single
    execution; accumulated coverages (built via :meth:`merge`) keep only
    the block and edge sets.
    """

    call_traces: list[list[int]] = field(default_factory=list)
    blocks: set[int] = field(default_factory=set)
    edges: set[tuple[int, int]] = field(default_factory=set)

    @classmethod
    def from_traces(cls, call_traces: list[list[int]]) -> "Coverage":
        coverage = cls(call_traces=[list(trace) for trace in call_traces])
        for trace in call_traces:
            coverage.blocks.update(trace)
            coverage.edges.update(zip(trace, trace[1:]))
        return coverage

    def merge(self, other: "Coverage") -> None:
        """Accumulate ``other`` into this coverage (block/edge union)."""
        self.blocks |= other.blocks
        self.edges |= other.edges

    def new_blocks(self, baseline: "Coverage") -> set[int]:
        """Blocks covered here but not in ``baseline`` (c_ij \\ c_i)."""
        return self.blocks - baseline.blocks

    def new_edges(self, baseline: "Coverage") -> set[tuple[int, int]]:
        return self.edges - baseline.edges

    def copy(self) -> "Coverage":
        return Coverage(
            call_traces=[list(trace) for trace in self.call_traces],
            blocks=set(self.blocks),
            edges=set(self.edges),
        )

    def __len__(self) -> int:
        return len(self.blocks)
