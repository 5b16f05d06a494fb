"""BERT-style masked-token pretraining of the assembly encoder (§3.3).

The paper pre-trains its Transformer encoder on all x86 assembly of a
compiled Linux kernel.  Here the corpus is every basic block of a built
synthetic kernel; 15 % of tokens are masked (80 % → <mask>, 10 % →
random token, 10 % unchanged) and the encoder is trained to recover
them with a cross-entropy objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.graphs.encode import AsmVocab, MASK, MAX_ASM_LEN, PAD
from repro.kernel.build import Kernel
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.pmm.asm_encoder import AsmEncoder, MaskedLMHead
from repro.rng import split

__all__ = ["PretrainConfig", "masked_lm_pretrain"]

_MASK_PROB = 0.15
# Adam step size.
LEARNING_RATE = 2e-3


@dataclass
class PretrainConfig:
    steps: int = 60
    batch_size: int = 32
    seed: int = 0


def _block_token_matrix(kernel: Kernel, vocab: AsmVocab) -> np.ndarray:
    rows = [
        vocab.encode(block.asm)
        for block in kernel.blocks.values()
        if block.asm
    ]
    if not rows:
        raise ModelError("kernel has no assembly to pretrain on")
    return np.asarray(rows, dtype=np.int64)


def masked_lm_pretrain(
    encoder: AsmEncoder,
    kernel: Kernel,
    vocab: AsmVocab,
    config: PretrainConfig | None = None,
) -> list[float]:
    """Pretrain ``encoder`` in place; returns the per-step loss series."""
    config = config or PretrainConfig()
    corpus = _block_token_matrix(kernel, vocab)
    rng = split(config.seed, "mlm")
    head = MaskedLMHead(encoder, rng)
    optimizer = Adam(
        encoder.parameters() + head.parameters(), lr=LEARNING_RATE
    )
    losses: list[float] = []
    for _ in range(config.steps):
        rows = rng.integers(0, len(corpus), size=config.batch_size)
        batch = corpus[rows].copy()
        masked, mask_positions, original = _mask_tokens(batch, rng, len(vocab))
        if not mask_positions.any():
            continue
        optimizer.zero_grad()
        states = encoder.encode_tokens(masked)
        logits = head(states)  # [B, L, V]
        loss = _masked_cross_entropy(logits, original, mask_positions)
        loss.backward()
        optimizer.step()
        losses.append(loss.item())
    return losses


def _mask_tokens(
    batch: np.ndarray, rng: np.random.Generator, vocab_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    original = batch.copy()
    can_mask = batch != PAD
    chosen = (rng.random(batch.shape) < _MASK_PROB) & can_mask
    roll = rng.random(batch.shape)
    masked = batch.copy()
    masked[chosen & (roll < 0.8)] = MASK
    random_positions = chosen & (roll >= 0.8) & (roll < 0.9)
    masked[random_positions] = rng.integers(
        3, vocab_size, size=int(random_positions.sum())
    )
    return masked, chosen, original


def _masked_cross_entropy(
    logits: Tensor, original: np.ndarray, positions: np.ndarray
) -> Tensor:
    log_probs = (logits.softmax(axis=-1) + 1e-12).log()
    one_hot = np.zeros(logits.shape)
    batch_idx, token_idx = np.nonzero(positions)
    one_hot[batch_idx, token_idx, original[batch_idx, token_idx]] = 1.0
    picked = (log_probs * Tensor(one_hot)).sum()
    return -picked * (1.0 / max(len(batch_idx), 1))
