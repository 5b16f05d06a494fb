"""AFLGo-style static distance field to a set of target blocks.

Directed greybox fuzzing (AFLGo, Hawkeye; see PAPERS.md) schedules
energy by a precomputed *seed distance*: a static map from every basic
block to the target set, aggregated over the callgraph.  The synthetic
kernel has no callgraph — handlers are independent DAGs — but it has
something real kernels lack statically: exact :class:`StateCondition`
producer edges.  A state-guarded target in one handler is reached by
first executing the effect block of a *producer* handler, so the
distance field threads a weighted edge from every state-condition block
to each effect block that writes its flag.  Covering a producer then
measurably shrinks a program's distance even though the target's own
handler was never entered — exactly the cross-call gradient the
directed scheduler climbs.

Concretely the field is :meth:`~repro.kernel.build.Kernel
.target_distances`, a multi-source Dijkstra over the reversed CFG:

- every CFG edge ``u -> v`` contributes a reverse edge of weight 1;
- every state-condition block ``c`` on flag ``k`` contributes reverse
  edges of weight :data:`STATE_EDGE_COST` to each effect block writing
  ``k`` (the def-use chase of :class:`~repro.analyze.deps
  .DependencyOracle`).

Per-block distances aggregate over the target set by minimum (AFLGo's
harmonic mean degenerates to the minimum here because targets cluster
inside a handful of handlers; DESIGN.md §Patch-impact model discusses
the simplification).  :meth:`DistanceField.program_distance` is then the
minimum over a program's covered blocks — the scheduling key of the
patch director.

Dominator trees supply the second static ingredient: the *steering
spine* of a target, the chain of condition blocks every entry path must
resolve.  The director steers the first unresolved spine condition
instead of mutating blindly at the target.
"""

from __future__ import annotations

import math

from repro.analyze.reach import dominator_tree
from repro.kernel.blocks import BlockRole
from repro.kernel.build import Kernel

__all__ = ["DistanceField", "STATE_EDGE_COST"]

# Weight of one producer hop relative to one CFG edge.  Crossing into a
# producer handler costs a separate call in the test program, so it is
# strictly more work than falling through a branch, but it must stay
# cheap enough that covering a producer beats covering an unrelated
# handler entry (whose distance is entry-depth many CFG edges).
STATE_EDGE_COST = 3.0


class DistanceField:
    """Static distances from every block to a target set."""

    def __init__(
        self,
        kernel: Kernel,
        targets: tuple[int, ...] | list[int] | set[int],
        state_edge_cost: float = STATE_EDGE_COST,
    ):
        self.kernel = kernel
        self.targets: tuple[int, ...] = tuple(
            sorted({t for t in targets if t in kernel.blocks})
        )
        self.state_edge_cost = float(state_edge_cost)
        self.distance: dict[int, float] = kernel.target_distances(
            self.targets, self.state_edge_cost
        )
        self._spines: dict[int, tuple[int, ...]] = {}
        self._dom_trees: dict[str, dict[int, int | None]] = {}

    # ----- queries -----

    def block_distance(self, block_id: int) -> float:
        """Distance of one block to the target set (inf if detached)."""
        return self.distance.get(block_id, math.inf)

    def program_distance(self, covered: set[int] | frozenset[int]) -> float:
        """Distance of a program, judged by its best covered block."""
        best = math.inf
        for block_id in covered:
            d = self.distance.get(block_id)
            if d is not None and d < best:
                best = d
        return best

    def finite_fraction(self) -> float:
        """Share of kernel blocks with a finite distance — how much of
        the kernel the directed gradient can see at all."""
        total = len(self.kernel.blocks)
        return len(self.distance) / total if total else 0.0

    def steering_spine(self, target: int) -> tuple[int, ...]:
        """Condition blocks dominating ``target`` in its handler,
        entry-first: the branches every path to the target resolves, in
        the order a program meets them."""
        cached = self._spines.get(target)
        if cached is not None:
            return cached
        syscall = self.kernel.handler_of_block.get(target)
        if syscall is None or syscall not in self.kernel.handlers:
            self._spines[target] = ()
            return ()
        cfg = self.kernel.handlers[syscall]
        if target not in cfg.blocks:
            self._spines[target] = ()
            return ()
        idom = self._dom_trees.get(syscall)
        if idom is None:
            idom = dominator_tree(cfg)
            self._dom_trees[syscall] = idom
        chain: list[int] = []
        node = idom.get(target)
        while node is not None:
            if cfg.blocks[node].role is BlockRole.CONDITION:
                chain.append(node)
            node = idom.get(node)
        spine = tuple(reversed(chain))
        self._spines[target] = spine
        return spine
