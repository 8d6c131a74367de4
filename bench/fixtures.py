"""Seeded benchmark inputs: models, adapter, prompts and corpus.

Everything a workload needs is a pure function of ``(scale, seed)``. The
models and the adapter are written as ``.prdm``/``.prdl`` snapshots and the
corpus as a token-per-line text file, so that set-up loads them through the
same public readers a user would (``load_model``, ``load_adapter``,
``read_corpus``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from offsetlm import TinyNeuralLM, Vocab, init_adapter, save_adapter, save_model

EOS_ID = 1
BOS_ID = 2

# The black-box weights are drawn at a large scale so that its tanh layer
# saturates and greedy decoding does not fall into a short cycle: draft
# acceptance is then an average over thousands of distinct contexts, which
# keeps it close from one seed to the next.
BLACKBOX_WEIGHT_SCALE = 2.0
PROXY_WEIGHT_SCALE = 1.0
# Standard deviation of the adapter's B factors. At this scale the tuned
# proxy differs from the base proxy by little, so greedy acceptance at S=8
# is high (about 0.88 at stress scale).
ADAPTER_B_SCALE = 0.02
# Added to the black-box eos logit in the long-decode fixtures so that no
# generation stops before its budget.
EOS_SUPPRESS = -30.0


@dataclass(frozen=True)
class Scale:
    vocab: int
    context: int
    blackbox_embed: int
    blackbox_hidden: int
    proxy_embed: int
    proxy_hidden: int
    rank: int
    decode_tokens: int
    decode_prompt: int
    warmup_tokens: int
    session_tokens: int
    session_prompt: tuple[int, int]
    session_specs: int
    draft_len: int
    corpus_docs: int
    doc_tokens: int
    train_batch: int
    train_epochs: int


SCALES = {
    "stress": Scale(
        vocab=512, context=8, blackbox_embed=32, blackbox_hidden=256,
        proxy_embed=16, proxy_hidden=64, rank=8,
        decode_tokens=4096, decode_prompt=8, warmup_tokens=64,
        session_tokens=32, session_prompt=(4, 64), session_specs=32, draft_len=8,
        corpus_docs=256, doc_tokens=64, train_batch=8, train_epochs=1,
    ),
    "desk": Scale(
        vocab=8, context=2, blackbox_embed=4, blackbox_hidden=8,
        proxy_embed=4, proxy_hidden=8, rank=2,
        decode_tokens=32, decode_prompt=3, warmup_tokens=4,
        session_tokens=8, session_prompt=(2, 4), session_specs=4, draft_len=4,
        corpus_docs=8, doc_tokens=8, train_batch=4, train_epochs=1,
    ),
}


@dataclass(frozen=True)
class Fixtures:
    """Paths of the snapshot files plus the in-memory request inputs."""

    vocab: Vocab
    blackbox: Path
    proxy: Path
    adapter: Path
    corpus: Path
    prompt: list[int]
    specs: list[tuple[list[int], int]]  # (prompt, sampling seed) per request


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, stream]))


def _random_tokens(rng: np.random.Generator, vocab: Vocab, n: int) -> list[int]:
    """``n`` tokens drawn uniformly from the ids that are neither eos nor bos."""
    ids = [t for t in range(vocab.size) if t not in (vocab.eos_id, vocab.bos_id)]
    return [ids[i] for i in rng.integers(0, len(ids), n)]


def _markov_corpus(rng: np.random.Generator, vocab: Vocab, docs: int, length: int) -> list[list[int]]:
    """Documents from a sparse random Markov chain, so an adapter can learn them."""
    ids = [t for t in range(vocab.size) if t not in (vocab.eos_id, vocab.bos_id)]
    successors = rng.integers(0, len(ids), size=(vocab.size, 4))
    out = []
    for _ in range(docs):
        tok = ids[int(rng.integers(len(ids)))]
        doc = [tok]
        picks = rng.integers(0, 4, length - 1)
        for p in picks:
            tok = ids[int(successors[tok, p])]
            doc.append(tok)
        out.append(doc)
    return out


def build(scale: Scale, seed: int, out_dir: Path, *, suppress_eos: bool) -> Fixtures:
    """Generate every input for ``seed`` and write the snapshot files."""
    vocab = Vocab(size=scale.vocab, eos_id=EOS_ID, bos_id=BOS_ID)
    seeds = _rng(seed, 0).integers(0, 2**31, size=3)
    blackbox = TinyNeuralLM.random(
        vocab, context=scale.context, embed_dim=scale.blackbox_embed,
        hidden_dim=scale.blackbox_hidden, seed=int(seeds[0]), scale=BLACKBOX_WEIGHT_SCALE,
    )
    if suppress_eos:
        b2 = blackbox.b2.copy()
        b2[vocab.eos_id] += EOS_SUPPRESS
        blackbox = TinyNeuralLM(vocab, scale.context, blackbox.embedding, blackbox.w1,
                                blackbox.b1, blackbox.w2, b2)
    proxy = TinyNeuralLM.random(
        vocab, context=scale.context, embed_dim=scale.proxy_embed,
        hidden_dim=scale.proxy_hidden, seed=int(seeds[1]), scale=PROXY_WEIGHT_SCALE,
    )
    adapter = init_adapter(proxy, scale.rank, seed=int(seeds[2]))
    b_rng = _rng(seed, 1)
    for target in adapter.targets:
        target.b = b_rng.normal(0.0, ADAPTER_B_SCALE, size=target.b.shape)

    req_rng = _rng(seed, 2)
    prompt = _random_tokens(req_rng, vocab, scale.decode_prompt)
    lo, hi = scale.session_prompt
    specs = [
        (_random_tokens(req_rng, vocab, int(req_rng.integers(lo, hi + 1))), int(req_rng.integers(2**31)))
        for _ in range(scale.session_specs)
    ]
    corpus = _markov_corpus(_rng(seed, 3), vocab, scale.corpus_docs, scale.doc_tokens)

    out_dir.mkdir(parents=True, exist_ok=True)
    fx = Fixtures(
        vocab=vocab,
        blackbox=out_dir / "blackbox.prdm",
        proxy=out_dir / "proxy.prdm",
        adapter=out_dir / "adapter.prdl",
        corpus=out_dir / "corpus.txt",
        prompt=prompt,
        specs=specs,
    )
    save_model(blackbox, fx.blackbox)
    save_model(proxy, fx.proxy)
    save_adapter(adapter, fx.adapter)
    fx.corpus.write_text("".join(" ".join(map(str, doc)) + "\n" for doc in corpus), encoding="utf-8")
    return fx
