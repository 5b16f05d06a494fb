"""The Program Mutation Model.

Architecture (the three learnable components of §3.3):

- θ_TRANSFORMER — :class:`~repro.pmm.asm_encoder.AsmEncoder` embeds each
  block's assembly;
- θ_Emb — learned tables for node kinds, system-call variants, argument
  kinds, argument slots, a target marker vector, and per-relation GNN
  weights (edge-type embedding);
- θ_GNN — relational message-passing layers over the query graph,
  followed by a target-attention readout: every mutable argument node
  attends over the (target-marked) alternative block states, so the model
  can match an argument's slot against the code of the branch guarding
  the desired block, and a 2-layer MLP scores MUTATE / NOT-MUTATE.

The readout attention is the one deliberate architectural deviation from
"plain GCN": with the shallow GNNs trainable on a laptop, argument nodes
are many hops from the condition blocks encoding their slot, so a direct
argument→target comparison stage replaces extra depth (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.graphs.encode import NUM_EDGE_TYPES, EncodedGraph
from repro.nn.init import normal_init
from repro.nn.modules import Embedding, LayerNorm, Linear, Module
from repro.nn.tensor import Tensor, concat, scatter_add
from repro.pmm.asm_encoder import AsmEncoder

__all__ = ["PMM", "PMMConfig", "RelationalGNNLayer"]

_NUM_NODE_KINDS = 4
_NUM_ARG_KINDS = 16  # ArgKind cardinality + none, with headroom


@dataclass
class PMMConfig:
    """Hyperparameters of PMM (the §5.1 search tunes these)."""

    dim: int = 48
    gnn_layers: int = 3
    asm_heads: int = 4
    asm_layers: int = 2
    readout_hidden: int = 64
    # Loss weight of the positive (MUTATE) class.
    positive_weight: float = 3.0
    seed: int = 0


class RelationalGNNLayer(Module):
    """One relational message-passing step.

    h'_v = LayerNorm(ReLU(W_self h_v + Σ_r mean_{(u,v) ∈ r} W_r h_u)).
    """

    def __init__(self, dim: int, num_relations: int, rng: np.random.Generator):
        self.self_loop = Linear(dim, dim, rng)
        self.relation_weights = [
            Linear(dim, dim, rng, bias=False) for _ in range(num_relations)
        ]
        self.norm = LayerNorm(dim)

    def __call__(
        self,
        states: Tensor,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        edge_type: np.ndarray,
        num_nodes: int,
        in_degree: np.ndarray,
    ) -> Tensor:
        aggregated = self.self_loop(states)
        for relation, weight in enumerate(self.relation_weights):
            mask = edge_type == relation
            if not mask.any():
                continue
            src = edge_src[mask]
            dst = edge_dst[mask]
            messages = weight(states.index_select(src))
            aggregated = aggregated + scatter_add(messages, dst, num_nodes)
        scale = Tensor((1.0 / np.maximum(in_degree, 1.0))[:, None])
        return self.norm((aggregated * scale).relu() + states)


class PMM(Module):
    """The learned argument-mutation localizer."""

    def __init__(
        self,
        asm_vocab_size: int,
        num_syscalls: int,
        config: PMMConfig | None = None,
        asm_encoder: AsmEncoder | None = None,
    ):
        # Decision threshold for MUTATE; calibrated on validation F1 by
        # the trainer (§5.1's hyperparameter selection).
        self.decision_threshold = 0.5
        self.config = config or PMMConfig()
        cfg = self.config
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        dim = cfg.dim
        self.asm_encoder = asm_encoder or AsmEncoder(
            asm_vocab_size, dim, cfg.asm_heads, cfg.asm_layers, rng
        )
        if self.asm_encoder.dim != dim:
            raise ModelError(
                f"assembly encoder dim {self.asm_encoder.dim} != model dim {dim}"
            )
        self.kind_embedding = Embedding(_NUM_NODE_KINDS, dim, rng)
        self.syscall_embedding = Embedding(num_syscalls, dim, rng)
        self.arg_kind_embedding = Embedding(_NUM_ARG_KINDS, dim, rng)
        self.target_marker = Tensor(
            normal_init(rng, (dim,), std=0.1), requires_grad=True
        )
        self.gnn_layers = [
            RelationalGNNLayer(dim, NUM_EDGE_TYPES, rng)
            for _ in range(cfg.gnn_layers)
        ]
        # Target-attention readout.
        self.query_proj = Linear(dim, dim, rng)
        self.key_proj = Linear(dim, dim, rng)
        self.value_proj = Linear(dim, dim, rng)
        self.score_hidden = Linear(2 * dim, cfg.readout_hidden, rng)
        self.score_out = Linear(cfg.readout_hidden, 1, rng)

    # ----- forward -----

    def node_states(
        self, graph: EncodedGraph, block_encoder=None
    ) -> Tensor:
        """Initial node features + GNN message passing.

        ``block_encoder`` maps the block nodes' token rows [B, L] to
        pooled embeddings [B, D]; it defaults to :attr:`asm_encoder`.
        A fuzz-time owner of a frozen model passes a cached one
        (:class:`~repro.snowplow.fuzzer.PMMLocalizer`).
        """
        if block_encoder is None:
            block_encoder = self.asm_encoder
        block_rows = np.flatnonzero(graph.node_kind >= 2)
        states = self.kind_embedding(graph.node_kind)
        states = states + self.syscall_embedding(graph.syscall_id)
        states = states + self.arg_kind_embedding(graph.arg_kind_id)
        states = states + self._slot_vectors(graph.slot)
        if len(block_rows):
            block_embeddings = block_encoder(graph.asm_tokens[block_rows])
            expanded = scatter_add(block_embeddings, block_rows, graph.num_nodes)
            states = states + expanded
        states = states + Tensor(graph.target_flag[:, None]) * self.target_marker
        in_degree = np.bincount(graph.edge_dst, minlength=graph.num_nodes).astype(
            np.float64
        )
        for layer in self.gnn_layers:
            states = layer(
                states, graph.edge_src, graph.edge_dst, graph.edge_type,
                graph.num_nodes, in_degree,
            )
        return states

    def _slot_vectors(self, slots: np.ndarray) -> Tensor:
        """Argument-slot embeddings, weight-tied to the assembly token
        table's ``off_*`` rows.

        In a compiled kernel the "slot" of an argument *is* the memory
        offset the handler's compare instructions reference textually, so
        the same vector representing the token ``off_03f2`` in a block's
        assembly also represents an argument living at that offset.
        Tying the tables lets a single learned matching pattern cover all
        slots instead of requiring per-slot co-occurrence data.  Encoded
        slots are stored shifted by +1 (0 = none); ``off_s`` sits at
        vocab row 3 + s (after <pad>/<unk>/<mask>), hence the +2 below.
        Slot 0 ("none") maps to the <pad> row, which is near-constant.
        """
        vocab_rows = np.where(slots > 0, slots + 2, 0)
        return self.asm_encoder.token_embedding(vocab_rows)

    def forward(self, graph: EncodedGraph, block_encoder=None) -> Tensor:
        """MUTATE logits for the mutable argument nodes ([A] tensor,
        ordered as ``np.flatnonzero(graph.arg_mask)``).

        ``block_encoder``: see :meth:`node_states`.
        """
        states = self.node_states(graph, block_encoder)
        arg_rows = np.flatnonzero(graph.arg_mask)
        if len(arg_rows) == 0:
            raise ModelError("graph has no mutable argument nodes")
        arg_states = states.index_select(arg_rows)
        context = self._target_context(graph, states, arg_states)
        combined = concat([arg_states, context], axis=-1)
        hidden = self.score_hidden(combined).relu()
        return self.score_out(hidden).reshape(-1)

    def _target_context(
        self, graph: EncodedGraph, states: Tensor, arg_states: Tensor
    ) -> Tensor:
        """Token-level attention of argument nodes over the target code.

        Keys/values are the raw assembly-token embeddings of the target
        blocks *and* of the condition blocks guarding them (the sources
        of uncovered edges into targets) — where the compare instruction
        referencing the steering argument's slot lives.  Because the
        token table is weight-tied with the argument slot embedding, a
        single learned query/key pattern suffices to match any argument
        against the offset its branch tests, independent of how often
        that particular slot appeared in training.
        """
        target_rows = np.flatnonzero(graph.target_flag > 0)
        if len(target_rows) == 0:
            target_rows = np.flatnonzero(graph.node_kind == 3)
        if len(target_rows) == 0:
            return arg_states * 0.0
        key_rows = self._context_rows(graph, target_rows)
        tokens = graph.asm_tokens[key_rows].reshape(-1)  # [T*L]
        pad_mask = tokens != 0
        if not pad_mask.any():
            return arg_states * 0.0
        token_states = self.asm_encoder.token_embedding(tokens)
        queries = self.query_proj(arg_states)            # [A, d]
        keys = self.key_proj(token_states)               # [T*L, d]
        values = self.value_proj(token_states)           # [T*L, d]
        scale = 1.0 / np.sqrt(queries.shape[-1])
        scores = (queries @ keys.transpose()) * scale
        bias = np.where(pad_mask, 0.0, -1e9)[None, :]
        attention = (scores + Tensor(bias)).softmax(axis=-1)
        return attention @ values

    @staticmethod
    def _context_rows(
        graph: EncodedGraph, target_rows: np.ndarray
    ) -> np.ndarray:
        """Targets plus the condition blocks guarding them."""
        from repro.graphs.encode import _EDGE_KIND_IDS
        from repro.graphs.schema import EdgeKind

        uncovered = _EDGE_KIND_IDS[EdgeKind.UNCOVERED_FLOW]
        mask = graph.edge_type == uncovered
        into_targets = np.isin(graph.edge_dst[mask], target_rows)
        guard_rows = graph.edge_src[mask][into_targets]
        return np.unique(np.concatenate([target_rows, guard_rows]))

    # ----- inference -----

    def predict_paths(
        self, graph: EncodedGraph, threshold: float | None = None,
        block_encoder=None,
    ) -> list:
        """Argument paths predicted MUTATE (decoded from arg_mask rows).

        ``block_encoder``: see :meth:`node_states`.
        """
        from repro.nn.tensor import no_grad

        if threshold is None:
            threshold = self.decision_threshold
        with no_grad():
            logits = self.forward(graph, block_encoder)
        probabilities = 1.0 / (1.0 + np.exp(-logits.data))
        arg_rows = np.flatnonzero(graph.arg_mask)
        order = np.argsort(-probabilities)
        selected = []
        for rank in order:
            row = arg_rows[int(rank)]
            if (
                probabilities[int(rank)] >= threshold
                and graph.arg_paths[row] is not None
            ):
                selected.append(graph.arg_paths[row])
        if not selected:
            # Always return the single most likely argument; an empty
            # localization would stall the mutation engine.
            best = arg_rows[int(order[0])]
            if graph.arg_paths[best] is not None:
                selected.append(graph.arg_paths[best])
        return selected

    def loss(self, graph: EncodedGraph) -> Tensor:
        """Weighted BCE over the mutable argument nodes (§3.3)."""
        if graph.labels is None:
            raise ModelError("graph was encoded without labels")
        logits = self.forward(graph)
        arg_rows = np.flatnonzero(graph.arg_mask)
        targets = graph.labels[arg_rows]
        weights = np.where(targets > 0, self.config.positive_weight, 1.0)
        return logits.bce_with_logits(targets, weights)
