"""Logit-offset correction: steer a black-box model with a local proxy pair.

An :class:`OffsetProxy` holds the base proxy and the tuned proxy (base +
adapter). Its one value, ``d = offset(seq)``, is the tuning delta
``z_t - z_p`` of the pair's next-token logits. It is added to the black-box
logits ``z_b``, and the next token is sampled from ``z_b + d``. With an
untouched adapter ``d`` is zero and the black-box behaviour passes through
unchanged; under greedy selection the adjustment is also insensitive to any
constant shift applied to a whole vector, since argmax ignores per-vector
offsets.

Every vector is binary32 and the composition is performed in binary32, in the
fixed order ``z_b + (z_t - z_p)``, so independent implementations agree
bit-for-bit. The pair's vocabularies are checked once, when it is built.
"""

from __future__ import annotations

import numpy as np

from .core import GenerationConfig, check_same_vocab, sample_token
from .models import LogitModel


class OffsetProxy:
    """The base and tuned proxies as one model whose value is the logit offset."""

    def __init__(self, base: LogitModel, tuned: LogitModel) -> None:
        check_same_vocab(tuned.vocab, base.vocab, "tuned proxy")
        self.vocab = base.vocab
        self.base = base
        self.tuned = tuned

    def offset(self, seq: list[int]) -> np.ndarray:
        """``d = z_t - z_p`` for the token after ``seq``, binary32; each model's own forward."""
        z_p = self.base.next_logits(seq).astype(np.float32, copy=False)
        return self.tuned.next_logits(seq).astype(np.float32, copy=False) - z_p


def adjusted_logits(z_b: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Canonical composition ``z_b + d``, binary32."""
    return z_b.astype(np.float32, copy=False) + d


def adapted_next_token(
    z_b: np.ndarray,
    d: np.ndarray,
    config: GenerationConfig,
    rng: np.random.Generator | None = None,
) -> int:
    """Sample the next token from the offset-adjusted logits."""
    return sample_token(adjusted_logits(z_b, d), config, rng)
