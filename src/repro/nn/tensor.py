"""Reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` wraps an ``ndarray`` and records the operations applied
to it; calling :meth:`Tensor.backward` on a scalar result propagates
gradients to every tensor created with ``requires_grad=True``.  The op
set is exactly what PMM's architecture needs: broadcasting arithmetic,
matmul (batched), activations, softmax, log-sum-style reductions, row
gather/scatter (embeddings and GNN message passing), concatenation, and
a numerically stable binary cross-entropy with logits.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError

__all__ = ["Tensor", "concat", "stack", "scatter_add", "no_grad"]

_GRAD_ENABLED = True


class no_grad:
    """Context manager disabling graph construction (inference mode)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._previous = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, exc_type, exc, tb):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._previous
        return False


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(
        axis for axis, size in enumerate(shape) if size == 1 and grad.shape[axis] != 1
    )
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """An autodiff tensor."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad and _GRAD_ENABLED
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()

    # ----- construction helpers -----

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    @staticmethod
    def _wrap(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    @classmethod
    def _make(cls, data, parents, backward) -> "Tensor":
        out = cls(data)
        if _GRAD_ENABLED and any(parent.requires_grad for parent in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    # ----- arithmetic -----

    def __add__(self, other):
        other = self._wrap(other)
        out_data = self.data + other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(grad):
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other):
        return self + (-self._wrap(other))

    def __rsub__(self, other):
        return self._wrap(other) + (-self)

    def __mul__(self, other):
        other = self._wrap(other)
        out_data = self.data * other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._wrap(other)
        out_data = self.data / other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data**2), other.shape)
                )

        return Tensor._make(out_data, (self, other), backward)

    def __pow__(self, exponent: float):
        out_data = self.data**exponent

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    def matmul(self, other: "Tensor") -> "Tensor":
        other = self._wrap(other)
        out_data = np.matmul(self.data, other.data)

        def backward(grad):
            if self.requires_grad:
                grad_self = np.matmul(grad, np.swapaxes(other.data, -1, -2))
                self._accumulate(_unbroadcast(grad_self, self.shape))
            if other.requires_grad:
                grad_other = np.matmul(np.swapaxes(self.data, -1, -2), grad)
                other._accumulate(_unbroadcast(grad_other, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __matmul__ = matmul

    # ----- activations & elementwise -----

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60, 60)))

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data**2))

        return Tensor._make(out_data, (self,), backward)

    def exp(self) -> "Tensor":
        out_data = np.exp(np.clip(self.data, -60, 60))

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(np.maximum(self.data, 1e-12))

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad / np.maximum(self.data, 1e-12))

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self**0.5

    # ----- reductions & shape -----

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            if not self.requires_grad:
                return
            expanded = grad
            if axis is not None and not keepdims:
                expanded = np.expand_dims(grad, axis)
            self._accumulate(np.broadcast_to(expanded, self.shape).copy())

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            scale = self.data.size
        elif isinstance(axis, tuple):
            scale = int(np.prod([self.shape[a] for a in axis]))
        else:
            scale = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / scale)

    def reshape(self, *shape) -> "Tensor":
        out_data = self.data.reshape(*shape)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.reshape(self.shape))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        axes = axes or tuple(reversed(range(self.ndim)))
        out_data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return Tensor._make(out_data, (self,), backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        out_data = np.swapaxes(self.data, a, b)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(np.swapaxes(grad, a, b))

        return Tensor._make(out_data, (self,), backward)

    def __getitem__(self, key) -> "Tensor":
        out_data = self.data[key]

        def backward(grad):
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, key, grad)
                self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    # ----- gather / scatter -----

    def index_select(self, indices: np.ndarray) -> "Tensor":
        """Gather rows (embedding lookup); backward scatter-adds."""
        indices = np.asarray(indices, dtype=np.int64)
        out_data = self.data[indices]

        def backward(grad):
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, indices, grad)
                self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    # ----- softmax & losses -----

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        out_data = exp / exp.sum(axis=axis, keepdims=True)

        def backward(grad):
            if self.requires_grad:
                dot = (grad * out_data).sum(axis=axis, keepdims=True)
                self._accumulate(out_data * (grad - dot))

        return Tensor._make(out_data, (self,), backward)

    def bce_with_logits(
        self, targets: np.ndarray, weights: np.ndarray | None = None
    ) -> "Tensor":
        """Mean binary cross-entropy between logits and 0/1 targets.

        Numerically stable: loss = max(x,0) - x*t + log(1+exp(-|x|)).
        ``weights`` rescales per-element losses (e.g. to up-weight the
        rare MUTATE class).
        """
        x = self.data
        t = np.asarray(targets, dtype=np.float64)
        if t.shape != x.shape:
            raise ModelError(
                f"targets shape {t.shape} != logits shape {x.shape}"
            )
        w = np.ones_like(x) if weights is None else np.asarray(weights)
        per_elem = np.maximum(x, 0) - x * t + np.log1p(np.exp(-np.abs(x)))
        denom = max(w.sum(), 1e-12)
        out_data = (per_elem * w).sum() / denom

        def backward(grad):
            if self.requires_grad:
                sig = 1.0 / (1.0 + np.exp(-np.clip(x, -60, 60)))
                self._accumulate(grad * w * (sig - t) / denom)

        return Tensor._make(out_data, (self,), backward)

    # ----- backward -----

    def backward(self) -> None:
        """Backpropagate from a scalar tensor."""
        if self.data.size != 1:
            raise ModelError("backward() requires a scalar tensor")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack_: list[tuple[Tensor, bool]] = [(self, False)]
        while stack_:
            node, processed = stack_.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack_.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack_.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


# ----- free functions -----


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along an axis."""
    out_data = np.concatenate([tensor.data for tensor in tensors], axis=axis)
    sizes = [tensor.shape[axis] for tensor in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(index)])

    return Tensor._make(out_data, tuple(tensors), backward)


def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    out_data = np.stack([tensor.data for tensor in tensors], axis=axis)

    def backward(grad):
        parts = np.split(grad, len(tensors), axis=axis)
        for tensor, part in zip(tensors, parts):
            if tensor.requires_grad:
                tensor._accumulate(np.squeeze(part, axis=axis))

    return Tensor._make(out_data, tuple(tensors), backward)


def scatter_add(values: Tensor, indices: np.ndarray, num_rows: int) -> Tensor:
    """out[indices[i]] += values[i] — the GNN message aggregation."""
    indices = np.asarray(indices, dtype=np.int64)
    out_data = np.zeros((num_rows,) + values.shape[1:], dtype=np.float64)
    np.add.at(out_data, indices, values.data)

    def backward(grad):
        if values.requires_grad:
            values._accumulate(grad[indices])

    return Tensor._make(out_data, (values,), backward)
