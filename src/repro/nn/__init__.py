"""A minimal neural-network substrate on numpy.

The paper builds PMM on fairseq (Transformer encoder) and PyTorch
Geometric (GCN); neither is available offline, so this package provides
the pieces they supply: a reverse-mode autodiff tensor, standard layers
(Linear, Embedding, LayerNorm, multi-head attention, Transformer encoder
layers), weight initialisers, and the Adam/SGD optimizers.  Everything is
plain numpy — small, deterministic, and fast enough for the laptop-scale
models this reproduction trains.
"""

from repro.nn.tensor import Tensor, concat, scatter_add, stack
from repro.nn.modules import (
    Embedding,
    LayerNorm,
    Linear,
    Module,
    MultiHeadSelfAttention,
    TransformerEncoderLayer,
)
from repro.nn.optim import SGD, Adam
from repro.nn.init import normal_init, xavier_uniform

__all__ = [
    "Adam",
    "Embedding",
    "LayerNorm",
    "Linear",
    "Module",
    "MultiHeadSelfAttention",
    "SGD",
    "Tensor",
    "TransformerEncoderLayer",
    "concat",
    "normal_init",
    "scatter_add",
    "stack",
    "xavier_uniform",
]
