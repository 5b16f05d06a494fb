"""Neural-network layers over :class:`~repro.nn.tensor.Tensor`."""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.nn.init import normal_init, xavier_uniform
from repro.nn.tensor import Tensor, concat

__all__ = [
    "Module",
    "Linear",
    "Embedding",
    "LayerNorm",
    "MultiHeadSelfAttention",
    "TransformerEncoderLayer",
]


class Module:
    """Base class with recursive parameter collection."""

    def parameters(self) -> list[Tensor]:
        found: list[Tensor] = []
        seen: set[int] = set()
        for value in self.__dict__.values():
            for parameter in _parameters_of(value):
                if id(parameter) not in seen:
                    seen.add(id(parameter))
                    found.append(parameter)
        return found

    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.zero_grad()

    # State (de)serialisation for checkpointing.

    def state_arrays(self) -> list[np.ndarray]:
        return [parameter.data for parameter in self.parameters()]

    def load_state_arrays(self, arrays: list[np.ndarray]) -> None:
        parameters = self.parameters()
        if len(arrays) != len(parameters):
            raise ModelError(
                f"checkpoint has {len(arrays)} arrays, model has "
                f"{len(parameters)} parameters"
            )
        for parameter, array in zip(parameters, arrays):
            if parameter.data.shape != array.shape:
                raise ModelError(
                    f"shape mismatch: {parameter.data.shape} vs {array.shape}"
                )
            parameter.data = np.asarray(array, dtype=np.float64).copy()


def _parameters_of(value) -> list[Tensor]:
    if isinstance(value, Tensor):
        return [value] if value.requires_grad else []
    if isinstance(value, Module):
        return value.parameters()
    if isinstance(value, (list, tuple)):
        out: list[Tensor] = []
        for item in value:
            out.extend(_parameters_of(item))
        return out
    if isinstance(value, dict):
        out = []
        for item in value.values():
            out.extend(_parameters_of(item))
        return out
    return []


class Linear(Module):
    """Affine map y = xW + b."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 bias: bool = True):
        self.weight = Tensor(
            xavier_uniform(rng, in_dim, out_dim), requires_grad=True
        )
        self.bias = (
            Tensor(np.zeros(out_dim), requires_grad=True) if bias else None
        )

    def __call__(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Lookup table; row 0 is conventionally the padding/none row."""

    def __init__(self, num_embeddings: int, dim: int,
                 rng: np.random.Generator):
        self.table = Tensor(
            normal_init(rng, (num_embeddings, dim)), requires_grad=True
        )

    def __call__(self, indices: np.ndarray) -> Tensor:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (
            indices.min() < 0 or indices.max() >= self.table.shape[0]
        ):
            raise ModelError(
                f"embedding index out of range [0, {self.table.shape[0]})"
            )
        flat = self.table.index_select(indices.reshape(-1))
        return flat.reshape(*indices.shape, self.table.shape[1])


class LayerNorm(Module):
    """Layer normalisation over the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-5):
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        variance = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered * ((variance + self.eps) ** -0.5)
        return normed * self.gamma + self.beta


class MultiHeadSelfAttention(Module):
    """Standard multi-head self-attention with optional padding mask."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        if dim % heads != 0:
            raise ModelError(f"dim {dim} not divisible by {heads} heads")
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        self.q_proj = Linear(dim, dim, rng)
        self.k_proj = Linear(dim, dim, rng)
        self.v_proj = Linear(dim, dim, rng)
        self.out_proj = Linear(dim, dim, rng)

    def __call__(self, x: Tensor, pad_mask: np.ndarray | None = None) -> Tensor:
        """``x`` is [B, L, D]; ``pad_mask`` is [B, L] with 1 = real token."""
        batch, length, _ = x.shape
        q = self._split(self.q_proj(x), batch, length)
        k = self._split(self.k_proj(x), batch, length)
        v = self._split(self.v_proj(x), batch, length)
        scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(self.head_dim))
        if pad_mask is not None:
            bias = np.where(pad_mask[:, None, None, :] > 0, 0.0, -1e9)
            scores = scores + Tensor(bias)
        attn = scores.softmax(axis=-1)
        mixed = attn @ v  # [B, H, L, hd]
        merged = mixed.swapaxes(1, 2).reshape(batch, length, self.dim)
        return self.out_proj(merged)

    def _split(self, x: Tensor, batch: int, length: int) -> Tensor:
        return x.reshape(batch, length, self.heads, self.head_dim).swapaxes(1, 2)


class TransformerEncoderLayer(Module):
    """Pre-norm Transformer encoder block."""

    def __init__(self, dim: int, heads: int, ffn_dim: int,
                 rng: np.random.Generator):
        self.attention = MultiHeadSelfAttention(dim, heads, rng)
        self.norm1 = LayerNorm(dim)
        self.norm2 = LayerNorm(dim)
        self.ffn_in = Linear(dim, ffn_dim, rng)
        self.ffn_out = Linear(ffn_dim, dim, rng)

    def __call__(self, x: Tensor, pad_mask: np.ndarray | None = None) -> Tensor:
        x = x + self.attention(self.norm1(x), pad_mask)
        x = x + self.ffn_out(self.ffn_in(self.norm2(x)).relu())
        return x
