"""Weight initialisers."""

from __future__ import annotations

import numpy as np

__all__ = ["xavier_uniform", "normal_init"]


def xavier_uniform(
    rng: np.random.Generator, fan_in: int, fan_out: int,
    shape: tuple[int, ...] | None = None,
) -> np.ndarray:
    """Glorot/Xavier uniform initialisation."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    shape = shape or (fan_in, fan_out)
    return rng.uniform(-bound, bound, size=shape)


def normal_init(
    rng: np.random.Generator, shape: tuple[int, ...], std: float = 0.02
) -> np.ndarray:
    """Small-variance normal initialisation (embedding tables)."""
    return rng.normal(0.0, std, size=shape)
