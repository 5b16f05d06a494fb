"""Node and edge schema of the mutation query graph (Figure 5)."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import GraphError
from repro.syzlang.program import ArgPath
from repro.syzlang.types import ArgKind

__all__ = ["NodeKind", "EdgeKind", "Node", "QueryGraph"]


class NodeKind(enum.Enum):
    """Vertex types of Figure 5."""

    SYSCALL = "syscall"
    ARG = "argument"
    COVERED = "covered"
    ALTERNATIVE = "alternative"


class EdgeKind(enum.Enum):
    """Edge types of Figure 5."""

    CALL_ORDER = "call_ordering"
    ARG_ORDER = "argument_ordering"
    ARG_INOUT = "argument_in_out"
    COVERED_FLOW = "covered_edge"
    UNCOVERED_FLOW = "uncovered_edge"
    CONTEXT_SWITCH = "kernel_user_space"


@dataclass
class Node:
    """One graph vertex.

    Which payload fields are meaningful depends on ``kind``:

    - SYSCALL: ``syscall_name``
    - ARG: ``arg_kind``, ``slot``, ``arg_path``, ``mutable``
    - COVERED/ALTERNATIVE: ``block_id``, ``asm``, ``target`` (alternatives
      only)
    """

    kind: NodeKind
    syscall_name: str = ""
    arg_kind: ArgKind | None = None
    slot: int = -1
    arg_path: ArgPath | None = None
    mutable: bool = False
    block_id: int = -1
    asm: tuple[str, ...] = ()
    target: bool = False


@dataclass
class QueryGraph:
    """The full mutation query: nodes, typed edges, and label support."""

    nodes: list[Node] = field(default_factory=list)
    edges: list[tuple[int, int, EdgeKind]] = field(default_factory=list)

    def add_node(self, node: Node) -> int:
        self.nodes.append(node)
        return len(self.nodes) - 1

    def add_edge(self, src: int, dst: int, kind: EdgeKind) -> None:
        if not (0 <= src < len(self.nodes) and 0 <= dst < len(self.nodes)):
            raise GraphError(f"edge ({src}, {dst}) references unknown nodes")
        self.edges.append((src, dst, kind))

    # ----- views -----

    def node_indices(self, kind: NodeKind) -> list[int]:
        return [
            index for index, node in enumerate(self.nodes)
            if node.kind is kind
        ]

    def mutable_argument_nodes(self) -> list[int]:
        return [
            index for index, node in enumerate(self.nodes)
            if node.kind is NodeKind.ARG and node.mutable
        ]

    def target_nodes(self) -> list[int]:
        return [
            index for index, node in enumerate(self.nodes)
            if node.kind is NodeKind.ALTERNATIVE and node.target
        ]

    def edge_count_by_kind(self) -> dict[EdgeKind, int]:
        counts: dict[EdgeKind, int] = {}
        for _, _, kind in self.edges:
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    def validate(self) -> None:
        """Schema invariants; raises :class:`GraphError`."""
        for index, node in enumerate(self.nodes):
            if node.kind is NodeKind.ARG and node.arg_path is None:
                raise GraphError(f"argument node {index} has no path")
            if node.kind in (NodeKind.COVERED, NodeKind.ALTERNATIVE):
                if node.block_id < 0:
                    raise GraphError(f"block node {index} has no block id")
            if node.target and node.kind is not NodeKind.ALTERNATIVE:
                raise GraphError(
                    f"node {index}: only alternative nodes may be targets"
                )
        for src, dst, kind in self.edges:
            if not (0 <= src < len(self.nodes) and 0 <= dst < len(self.nodes)):
                raise GraphError(f"edge ({src}, {dst}) out of range")
