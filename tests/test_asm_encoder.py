"""Tests for the assembly Transformer encoder."""

import numpy as np
import pytest

from repro.graphs.encode import MAX_ASM_LEN, PAD, AsmVocab
from repro.kernel import build_kernel
from repro.pmm.asm_encoder import AsmEncoder, MaskedLMHead
from repro.rng import make_rng


@pytest.fixture()
def encoder():
    return AsmEncoder(vocab_size=50, dim=16, heads=2, layers=1,
                      rng=make_rng(0))


class TestAsmEncoder:
    def test_pooled_shape(self, encoder):
        tokens = np.zeros((3, MAX_ASM_LEN), dtype=np.int64)
        tokens[:, :4] = make_rng(1).integers(3, 50, size=(3, 4))
        pooled = encoder(tokens)
        assert pooled.shape == (3, 16)

    def test_padding_ignored_in_pool(self, encoder):
        """Changing padded positions must not change pooled output."""
        tokens = np.zeros((1, MAX_ASM_LEN), dtype=np.int64)
        tokens[0, :3] = [5, 6, 7]
        base = encoder(tokens).data
        altered = tokens.copy()
        # PAD rows stay PAD in the mask computation, so this must be
        # identical to base by construction of the mask.
        assert np.allclose(base, encoder(altered).data)

    def test_order_sensitivity(self, encoder):
        """Positional embeddings make token order matter."""
        a = np.zeros((1, MAX_ASM_LEN), dtype=np.int64)
        b = np.zeros((1, MAX_ASM_LEN), dtype=np.int64)
        a[0, :3] = [5, 6, 7]
        b[0, :3] = [7, 6, 5]
        assert not np.allclose(encoder(a).data, encoder(b).data)

    def test_contextual_states_shape(self, encoder):
        tokens = np.zeros((2, MAX_ASM_LEN), dtype=np.int64)
        tokens[:, :5] = 4
        states = encoder.encode_tokens(tokens)
        assert states.shape == (2, MAX_ASM_LEN, 16)

    def test_mlm_head_projects_to_vocab(self, encoder):
        head = MaskedLMHead(encoder, make_rng(2))
        tokens = np.zeros((2, MAX_ASM_LEN), dtype=np.int64)
        tokens[:, :3] = 9
        logits = head(encoder.encode_tokens(tokens))
        assert logits.shape == (2, MAX_ASM_LEN, 50)

    def test_gradients_flow_through_pool(self, encoder):
        tokens = np.zeros((2, MAX_ASM_LEN), dtype=np.int64)
        tokens[:, :3] = 11
        encoder.zero_grad()
        encoder(tokens).sum().backward()
        grads = [p.grad for p in encoder.parameters() if p.grad is not None]
        assert grads
        assert all(np.isfinite(g).all() for g in grads)


class TestBatchIndependence:
    """A pooled row must not depend on the batch it was encoded in.

    ``PMMLocalizer.encode_blocks`` serves each query's blocks from rows
    encoded in earlier, differently shaped batches; that is exact only
    if this holds bit for bit.  On a host whose BLAS rounds differently
    by batch shape, this test fails instead of campaigns drifting.
    """

    @pytest.fixture(scope="class")
    def block_tokens(self):
        kernel = build_kernel("6.8", seed=1, size="tiny")
        vocab = AsmVocab.build(kernel)
        rows = [vocab.encode(kernel.blocks[block].asm)
                for block in sorted(kernel.blocks)]
        return len(vocab), np.array(rows[::8], dtype=np.int64)

    @pytest.mark.parametrize("dim,heads,layers", [(16, 2, 1), (48, 4, 2)])
    def test_single_batched_and_permuted_rows_are_bit_equal(
        self, block_tokens, dim, heads, layers
    ):
        vocab_size, tokens = block_tokens
        encoder = AsmEncoder(vocab_size, dim, heads, layers, make_rng(0))
        batched = encoder(tokens).data
        single = np.concatenate(
            [encoder(tokens[i:i + 1]).data for i in range(len(tokens))]
        )
        order = make_rng(1).permutation(len(tokens))
        permuted = encoder(tokens[order]).data
        assert np.array_equal(single, batched)
        assert np.array_equal(permuted, batched[order])


class TestMaskTokens:
    def test_mask_distribution(self):
        from repro.pmm.pretrain import _mask_tokens

        rng = make_rng(3)
        batch = rng.integers(3, 50, size=(64, MAX_ASM_LEN))
        masked, positions, original = _mask_tokens(batch, rng, 50)
        rate = positions.mean()
        assert 0.10 < rate < 0.20  # ~15% masking
        # Unmasked positions are untouched.
        assert np.array_equal(masked[~positions], original[~positions])

    def test_pad_never_masked(self):
        from repro.pmm.pretrain import _mask_tokens

        rng = make_rng(4)
        batch = np.zeros((8, MAX_ASM_LEN), dtype=np.int64)  # all PAD
        masked, positions, _ = _mask_tokens(batch, rng, 50)
        assert not positions.any()
        assert (masked == PAD).all()
