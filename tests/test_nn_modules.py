"""Tests for NN layers and optimizers."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.nn import (
    Adam,
    Embedding,
    LayerNorm,
    Linear,
    MultiHeadSelfAttention,
    SGD,
    Tensor,
    TransformerEncoderLayer,
)
from repro.nn.modules import Module
from repro.rng import make_rng


class TestLinear:
    def test_shapes(self):
        layer = Linear(4, 7, make_rng(0))
        out = layer(Tensor(np.ones((3, 4))))
        assert out.shape == (3, 7)

    def test_no_bias(self):
        layer = Linear(4, 2, make_rng(0), bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_trains_to_fit_line(self):
        rng = make_rng(1)
        layer = Linear(1, 1, rng)
        optimizer = SGD(layer.parameters(), lr=0.1)
        x = rng.normal(size=(32, 1))
        y = 3.0 * x + 0.5
        for _ in range(300):
            optimizer.zero_grad()
            pred = layer(Tensor(x))
            loss = ((pred - Tensor(y)) ** 2.0).mean()
            loss.backward()
            optimizer.step()
        assert layer.weight.data[0, 0] == pytest.approx(3.0, abs=0.05)
        assert layer.bias.data[0] == pytest.approx(0.5, abs=0.05)


class TestEmbedding:
    def test_lookup_shape(self):
        table = Embedding(10, 5, make_rng(0))
        out = table(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 5)

    def test_out_of_range_rejected(self):
        table = Embedding(10, 5, make_rng(0))
        with pytest.raises(ModelError):
            table(np.array([10]))

    def test_gradient_reaches_rows(self):
        table = Embedding(6, 3, make_rng(0))
        out = table(np.array([2, 2, 4]))
        out.sum().backward()
        grad = table.table.grad
        assert np.allclose(grad[2], 2.0)
        assert np.allclose(grad[4], 1.0)
        assert np.allclose(grad[0], 0.0)


class TestLayerNorm:
    def test_normalises(self):
        norm = LayerNorm(8)
        x = Tensor(make_rng(0).normal(size=(4, 8)) * 5 + 3)
        out = norm(x).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-2)


class TestAttention:
    def test_output_shape(self):
        attention = MultiHeadSelfAttention(16, 4, make_rng(0))
        out = attention(Tensor(make_rng(1).normal(size=(2, 5, 16))))
        assert out.shape == (2, 5, 16)

    def test_dim_head_mismatch_rejected(self):
        with pytest.raises(ModelError):
            MultiHeadSelfAttention(10, 3, make_rng(0))

    def test_padding_masked_out(self):
        """Changing a padded position must not change real outputs."""
        attention = MultiHeadSelfAttention(8, 2, make_rng(0))
        rng = make_rng(2)
        x = rng.normal(size=(1, 4, 8))
        mask = np.array([[1, 1, 0, 0]])
        out1 = attention(Tensor(x), mask).data[:, :2]
        x2 = x.copy()
        x2[0, 3] += 100.0
        out2 = attention(Tensor(x2), mask).data[:, :2]
        assert np.allclose(out1, out2)


class TestTransformerLayer:
    def test_forward_and_backward(self):
        layer = TransformerEncoderLayer(16, 4, 32, make_rng(0))
        x = Tensor(make_rng(1).normal(size=(2, 6, 16)), requires_grad=True)
        layer(x).sum().backward()
        assert x.grad is not None
        assert all(p.grad is not None for p in layer.parameters())


class TestModule:
    def test_parameters_recursion(self):
        class Net(Module):
            def __init__(self):
                self.layers = [Linear(2, 2, make_rng(0)) for _ in range(2)]
                self.named = {"head": Linear(2, 1, make_rng(1))}

        net = Net()
        # 2 layers x (W, b) + head (W, b) = 6 parameter tensors.
        assert len(net.parameters()) == 6

    def test_parameters_deduplicated(self):
        class Tied(Module):
            def __init__(self):
                self.a = Linear(2, 2, make_rng(0))
                self.b = self.a

        assert len(Tied().parameters()) == 2

    def test_state_roundtrip(self):
        net = TransformerEncoderLayer(4, 2, 8, make_rng(0))
        arrays = [a.copy() for a in net.state_arrays()]
        for parameter in net.parameters():
            parameter.data += 1.0
        net.load_state_arrays(arrays)
        for parameter, array in zip(net.parameters(), arrays):
            assert np.allclose(parameter.data, array)

    def test_state_shape_mismatch_rejected(self):
        net = Linear(3, 4, make_rng(0))
        with pytest.raises(ModelError):
            net.load_state_arrays([np.zeros((2, 2)), np.zeros(4)])

    def test_state_count_mismatch_rejected(self):
        net = Linear(3, 4, make_rng(0))
        with pytest.raises(ModelError):
            net.load_state_arrays([np.zeros((3, 4))])


class TestOptimizers:
    def _quadratic_descent(self, optimizer_factory, steps=150):
        x = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        optimizer = optimizer_factory([x])
        for _ in range(steps):
            optimizer.zero_grad()
            loss = (x * x).sum()
            loss.backward()
            optimizer.step()
        return np.abs(x.data).max()

    def test_sgd_converges(self):
        assert self._quadratic_descent(lambda p: SGD(p, lr=0.1)) < 1e-3

    def test_sgd_momentum_converges(self):
        assert (
            self._quadratic_descent(lambda p: SGD(p, lr=0.02, momentum=0.9))
            < 1e-2
        )

    def test_adam_converges(self):
        assert self._quadratic_descent(lambda p: Adam(p, lr=0.3)) < 1e-2

    def test_adam_clips_gradients(self):
        x = Tensor(np.array([1e6]), requires_grad=True)
        optimizer = Adam([x], lr=0.1, clip_norm=1.0)
        (x * x).sum().backward()
        optimizer._clip_gradients()
        assert np.abs(x.grad).max() <= 1.0 + 1e-9

    def test_bad_lr_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.0)
        with pytest.raises(ValueError):
            SGD([], lr=-1.0)
