"""Logit-offset correction: steer a black-box model with a local proxy pair.

Given three logit vectors over the same vocabulary —

* ``z_b``   from the remote black-box model,
* ``z_p``   from the local base proxy,
* ``z_p_t`` from the tuned proxy (base + adapter) —

the adjusted logits are ``z_b + (z_p_t - z_p)``: the tuning delta measured on
the proxy pair is transplanted onto the black-box logits, and the next token
is sampled from the result. With an untouched adapter the delta is zero and
the black-box behaviour passes through unchanged; under greedy selection the
adjustment is also insensitive to any constant shift applied to a whole
vector, since argmax ignores per-vector offsets.

All three vectors are binary32 and the composition is performed in binary32,
in the fixed order ``z_b + (z_p_t - z_p)``, so independent implementations
agree bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from .core import GenerationConfig, sample_token


class LengthMismatchError(ValueError):
    """Logit vectors of different lengths were combined."""


def adjusted_logits(z_b: np.ndarray, z_p: np.ndarray, z_p_tuned: np.ndarray) -> np.ndarray:
    """Canonical composition ``z_b + (z_p_tuned - z_p)``, binary32."""
    if not z_b.shape == z_p.shape == z_p_tuned.shape or z_b.ndim != 1:
        raise LengthMismatchError(
            f"logit vectors disagree in shape: {z_b.shape}, {z_p.shape}, {z_p_tuned.shape}"
        )
    offset = z_p_tuned.astype(np.float32, copy=False) - z_p.astype(np.float32, copy=False)
    return z_b.astype(np.float32, copy=False) + offset


def adapted_next_token(
    z_b: np.ndarray,
    z_p: np.ndarray,
    z_p_tuned: np.ndarray,
    config: GenerationConfig,
    rng: np.random.Generator | None = None,
) -> int:
    """Sample the next token from the offset-adjusted logits."""
    return sample_token(adjusted_logits(z_b, z_p, z_p_tuned), config, rng)
