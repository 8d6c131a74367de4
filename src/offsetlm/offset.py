"""Logit-offset correction: steer a black-box model with a local proxy pair.

An :class:`OffsetProxy` holds the base proxy and the tuned proxy (base +
adapter). Its one value, a row ``d`` of ``offsets(seq, count)``, is the
tuning delta ``z_t - z_p`` of the pair's next-token logits. It is added to
the black-box logits ``z_b``, and the next token is sampled from ``z_b + d``.
With an untouched adapter ``d`` is zero and the black-box behaviour passes
through unchanged; under greedy selection the adjustment is also insensitive
to any constant shift applied to a whole vector, since argmax ignores
per-vector offsets.

Every vector is binary32 and the composition is performed in binary32, in the
fixed order ``z_b + (z_t - z_p)``, so independent implementations agree
bit-for-bit. The pair's vocabularies are checked once, when it is built.
"""

from __future__ import annotations

import numpy as np

from .core import GenerationConfig, check_same_vocab, pick
from .models import LogitModel


class OffsetProxy:
    """The base and tuned proxies as one model whose value is the logit offset."""

    def __init__(self, base: LogitModel, tuned: LogitModel) -> None:
        check_same_vocab(tuned.vocab, base.vocab, "tuned proxy")
        self.vocab = base.vocab
        self.window = max(base.window, tuned.window)
        self.base = base
        self.tuned = tuned

    def offsets(self, seq: list[int], count: int) -> np.ndarray:
        """Binary32 ``d = z_t - z_p`` after each of the last ``count`` prefixes of ``seq``, one row
        each; one :meth:`~offsetlm.models.LogitModel.batch_next_logits` per proxy."""
        z_p = self.base.batch_next_logits(seq, count).astype(np.float32, copy=False)
        return self.tuned.batch_next_logits(seq, count).astype(np.float32, copy=False) - z_p


def adjusted_logits(z_b: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Canonical composition ``z_b + d``, binary32."""
    return z_b.astype(np.float32, copy=False) + d


def adapted_next_token(z_b: np.ndarray, d: np.ndarray, config: GenerationConfig,
                       g: np.ndarray | None) -> int:
    """The next token: :func:`~offsetlm.core.pick` from the offset-adjusted logits with noise ``g``."""
    return pick(adjusted_logits(z_b, d), config, g)
