"""Shared fixtures and independent oracles used across the test modules."""

from __future__ import annotations

import socket
import struct

import numpy as np
import pytest

from offsetlm import GenerationConfig, LoraAdapter, TinyNeuralLM, Vocab, encode_adapter, make_rng
from offsetlm.core import GREEDY, STOCHASTIC


@pytest.fixture
def vocab() -> Vocab:
    return Vocab(size=8, eos_id=1, bos_id=2)


@pytest.fixture
def vocab32() -> Vocab:
    return Vocab(size=32, eos_id=1, bos_id=2)


def with_biases(base: TinyNeuralLM, seed: int) -> TinyNeuralLM:
    """``base`` with nonzero biases: ``TinyNeuralLM.random`` draws zeros, and
    adding a zero bias hides a change in the order of the additions."""
    rng = np.random.default_rng(seed)
    return TinyNeuralLM(base.vocab, base.context, base.embedding, base.w1,
                        rng.normal(0.0, 0.5, size=base.b1.shape), base.w2,
                        rng.normal(0.0, 0.5, size=base.b2.shape))


def _binds_ipv6_loopback() -> bool:
    if not socket.has_ipv6:
        return False
    try:
        with socket.socket(socket.AF_INET6) as sock:
            sock.bind(("::1", 0))
    except OSError:
        return False
    return True


needs_ipv6_loopback = pytest.mark.skipif(not _binds_ipv6_loopback(),
                                         reason="this host cannot bind ::1")


def prdl_layout(adapter: LoraAdapter, order) -> bytes:
    """``adapter``'s PRDL bytes with its target records in ``order``, a tuple of
    indices into ``adapter.targets`` (repeats allowed): the way to spell a layout
    that :class:`LoraAdapter` refuses to build."""
    data = encode_adapter(adapter)
    records, at = [], 11  # magic 4 + version 1 + rank u32 + target count u16
    for t in adapter.targets:
        size = 13 + 4 * adapter.rank * (t.b.shape[0] + t.a.shape[1])  # tag, m, n, scaling, B, A
        records.append(data[at:at + size])
        at += size
    return data[:9] + struct.pack("<H", len(order)) + b"".join(records[i] for i in order)


def random_corpus(rng: np.random.Generator, vocab: Vocab, n_docs: int, length: int) -> list[list[int]]:
    """Documents of ordinary tokens only (no eos/bos), uniformly random."""
    ordinary = [t for t in range(vocab.size) if t not in (vocab.eos_id, vocab.bos_id)]
    return [
        [int(ordinary[i]) for i in rng.integers(0, len(ordinary), size=length)]
        for _ in range(n_docs)
    ]


def row_stochastic(rng: np.random.Generator, size: int, concentration: float = 0.4) -> np.ndarray:
    """A random row-stochastic transition matrix (Dirichlet rows)."""
    return rng.dirichlet([concentration] * size, size=size)


def sample_transition_corpus(
    trans: np.ndarray,
    rng: np.random.Generator,
    n_docs: int,
    length: int,
    start_tokens: list[int],
) -> list[list[int]]:
    """Documents sampled from a first-order Markov chain over token ids."""
    size = trans.shape[0]
    docs = []
    for _ in range(n_docs):
        tok = int(start_tokens[rng.integers(0, len(start_tokens))])
        doc = [tok]
        for _ in range(length - 1):
            tok = int(rng.choice(size, p=trans[tok]))
            doc.append(tok)
        docs.append(doc)
    return docs


class TailOnly(list):
    """A token history that fails any read of more than its last ``limit`` tokens.

    Indexing and slicing within the tail, ``len``, ``append``, ``extend`` and
    ``del`` work; iteration, membership tests, copies and concatenation, which
    read the whole history, raise. Passing one to a decoding step shows, without
    timing anything, that the step's work does not grow with the history.
    """

    def __init__(self, tokens, limit: int) -> None:
        super().__init__(tokens)
        self.limit = limit

    def _full_read(self, *args):
        raise AssertionError(f"read the whole history of {len(self)} tokens")

    __iter__ = __reversed__ = __contains__ = __add__ = copy = _full_read

    def __getitem__(self, key):
        start = key.indices(len(self))[0] if isinstance(key, slice) else key % len(self)
        if start < len(self) - self.limit:
            raise AssertionError(
                f"read position {start} of {len(self)}, beyond the last {self.limit}"
            )
        return super().__getitem__(key)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def argmax_oracle(values) -> int:
    """Linear scan; first (lowest) index attaining the maximum."""
    best, best_i = None, -1
    for i, x in enumerate(values):
        if best is None or x > best:
            best, best_i = x, i
    return best_i


def gumbel_max_oracle(values, temperature: float, g) -> int:
    """Gumbel-max written out per entry: the first maximum of ``float(z) / T + g``."""
    return argmax_oracle([float(z) / temperature + float(gi) for z, gi in zip(values, g)])


def softmax_oracle(values, temperature: float = 1.0) -> np.ndarray:
    """Binary64 softmax via direct definition (no library shortcuts)."""
    z = [float(x) / temperature for x in values]
    m = max(z)
    exps = [np.exp(x - m) for x in z]
    total = sum(exps)
    return np.array([e / total for e in exps], dtype=np.float64)


def pair_count_oracle(corpus: list[list[int]], size: int) -> np.ndarray:
    counts = np.zeros((size, size), dtype=np.int64)
    for doc in corpus:
        for i in range(len(doc) - 1):
            counts[doc[i], doc[i + 1]] += 1
    return counts


def monolithic_generate_oracle(
    blackbox, base_proxy, tuned_proxy, prompt: list[int], config: GenerationConfig
) -> list[int]:
    """The whole adaptation loop with no protocol: logits in, tokens out.

    Independent of the protocol layer on purpose — it recomputes the offset
    composition and the greedy selection step by step and is the ground truth
    that the per-token, speculative, and transfer paths must all reproduce.
    The stochastic branch is Gumbel-max written out per entry: response
    token k is the first maximum of ``float(z) / T + g`` over the row, ``g``
    the k-th ``gumbel(size=V)`` of the config's generator.
    """
    rng = make_rng(config.seed) if config.mode == STOCHASTIC else None
    seq = list(prompt)
    out: list[int] = []
    eos = blackbox.vocab.eos_id
    if seq and seq[-1] == eos:
        return out
    while len(out) < config.max_new_tokens:
        z_b = blackbox.next_logits(seq)
        z_p = base_proxy.next_logits(seq)
        z_t = tuned_proxy.next_logits(seq)
        adjusted = (z_b.astype(np.float32) + (z_t.astype(np.float32) - z_p.astype(np.float32)))
        if config.mode == GREEDY:
            tok = argmax_oracle(adjusted)
        else:
            tok = gumbel_max_oracle(adjusted, config.temperature, rng.gumbel(size=len(adjusted)))
        out.append(int(tok))
        seq.append(int(tok))
        if tok == eos:
            break
    return out
