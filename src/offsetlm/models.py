"""Deterministic desk-scale language models behind a single logits interface.

A model implements one forward, :meth:`LogitModel.batch_next_logits`: the
next-token logits after each of the last ``count`` prefixes of a sequence.
``next_logits`` is its one-row case. Two concrete backends:

* :class:`BigramTableModel` — additive-smoothed adjacent-pair counts; its
  logits are exactly ``ln(counts[last] + alpha)``, so tests can check it
  against a brute-force count oracle. ``alpha`` must stay positive and
  finite when rounded to binary32.
* :class:`TinyNeuralLM` — a fixed-context-window MLP: the last ``context``
  token embeddings are concatenated, pushed through one tanh hidden layer,
  and projected to vocab logits. Sequences shorter than the window are
  left-padded with ``bos_id``.

Both are immutable after construction and serialize to the ``PRDM`` snapshot
format (little-endian, binary32 reals). A model's fingerprint is the 64-bit
BLAKE2b digest of its snapshot bytes, read little-endian (:func:`hash64`),
which makes "same parameters" checkable across processes with one integer.

Each model reads a fixed window of trailing tokens (its ``window``), so one
decoding step costs the same however long the history is. Callers check a
whole sequence once, where it enters; each step checks only its window.

Inference parameters are binary32: training happens elsewhere in binary64
and rounds exactly once, when the snapshot is taken. A trainer raises
:class:`TrainingDivergedError` rather than return a non-finite snapshot.

The window MLP is written once, in :func:`mlp_forward`: inference (binary32,
one window or a stack for :meth:`LogitModel.batch_next_logits`), the adapted
model of :mod:`offsetlm.lora` (plus a low-rank term per dense layer), and both
trainers (binary64, a batch from :func:`training_positions`) all run it.
"""

from __future__ import annotations

import hashlib
import struct
from abc import ABC, abstractmethod

import numpy as np

from .core import ByteReader, Vocab, check_token_range

PRDM_MAGIC = b"PRDM"
PRDM_VERSION = 1
ARCH_BIGRAM = 1
ARCH_TINY_NEURAL = 2


class EmptyCorpusError(ValueError):
    """The corpus contained no tokens to fit on."""


class SnapshotFormatError(ValueError):
    """A PRDM payload was malformed or truncated."""


class TrainingDivergedError(ValueError):
    """Training gave a non-finite loss or a parameter that overflows binary32."""

    code = "training-diverged"


def hash64(data: bytes) -> int:
    """The 8-byte BLAKE2b digest of ``data`` as a little-endian integer: every fingerprint."""
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def _checked_window(seq: list[int], n: int, vocab: Vocab, count: int) -> list[int]:
    """The last ``count - 1 + n`` tokens of ``seq``, all that the ``n``-token windows of its last
    ``count`` prefixes read, each checked against ``vocab``."""
    if not 1 <= count <= len(seq):
        raise ValueError(f"cannot take the last {count} prefixes of a {len(seq)}-token sequence")
    win = list(seq[-(count - 1 + n):])
    check_token_range(win, vocab)
    return win


class LogitModel(ABC):
    """Anything that maps a token sequence to next-token logits."""

    vocab: Vocab
    window: int  # how many trailing tokens a row reads
    _fingerprint: int | None = None

    @abstractmethod
    def batch_next_logits(self, seq: list[int], count: int) -> np.ndarray:
        """Float32 ``(count, V)``: row i is :meth:`next_logits` of the i-th of the last ``count`` prefixes.

        Reads and validates only the last ``count - 1 + window`` tokens of
        ``seq``, so a row costs O(window) however long ``seq`` is. A token out
        of vocab before them goes unseen here: callers check whole sequences
        once, where they enter (:func:`~offsetlm.core.check_prompt` and the
        server's commit checks).
        """

    def next_logits(self, seq: list[int]) -> np.ndarray:
        """Float32 logits for the token following ``seq``: the one-row forward."""
        return self.batch_next_logits(seq, 1)[0]

    def snapshot_bytes(self) -> bytes:
        return encode_model(self)

    def fingerprint(self) -> int:
        """:func:`hash64` of the model's snapshot bytes.

        Hashed on the first call and memoized: models are immutable.
        """
        if self._fingerprint is None:
            self._fingerprint = hash64(self.snapshot_bytes())
        return self._fingerprint


class BigramTableModel(LogitModel):
    """Additive-smoothed bigram counts; logits are ln(counts[last] + alpha)."""

    window = 1

    def __init__(self, vocab: Vocab, counts: np.ndarray, alpha: float) -> None:
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (vocab.size, vocab.size):
            raise ValueError(
                f"counts must be {(vocab.size, vocab.size)}, got {counts.shape}"
            )
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        # Rounded to binary32 up front so in-memory logits match a reloaded
        # snapshot bit-for-bit (PRDM stores reals as binary32).
        with np.errstate(over="ignore"):
            rounded = float(np.float32(alpha))
        if not 0 < rounded < np.inf:
            raise ValueError(f"alpha must be positive and finite in binary32, got {alpha}")
        self.vocab = vocab
        self.counts = counts
        self.counts.setflags(write=False)
        self.alpha = rounded
        self._logit_table = np.log(
            self.counts.astype(np.float64) + self.alpha
        ).astype(np.float32)
        self._logit_table.setflags(write=False)

    def batch_next_logits(self, seq: list[int], count: int) -> np.ndarray:
        return self._logit_table.take(_checked_window(seq, 1, self.vocab, count), axis=0)


class TinyNeuralLM(LogitModel):
    """Fixed-window MLP language model (binary32 inference snapshot).

    Forward pass for a sequence (:func:`mlp_forward`): take the last
    ``context`` tokens (left-pad with ``bos_id``), look up and concatenate
    their embeddings, apply ``tanh(W1 @ x + b1)``, then project with
    ``W2 @ h + b2``.
    """

    def __init__(
        self,
        vocab: Vocab,
        context: int,
        embedding: np.ndarray,
        w1: np.ndarray,
        b1: np.ndarray,
        w2: np.ndarray,
        b2: np.ndarray,
    ) -> None:
        if context < 1:
            raise ValueError("context window must be at least 1")
        embedding = np.asarray(embedding, dtype=np.float32)
        w1 = np.asarray(w1, dtype=np.float32)
        b1 = np.asarray(b1, dtype=np.float32)
        w2 = np.asarray(w2, dtype=np.float32)
        b2 = np.asarray(b2, dtype=np.float32)
        v = vocab.size
        d = embedding.shape[1] if embedding.ndim == 2 else 0
        h = w1.shape[0] if w1.ndim == 2 else 0
        if embedding.shape != (v, d) or d < 1:
            raise ValueError(f"embedding must be (vocab, d), got {embedding.shape}")
        if w1.shape != (h, context * d) or h < 1:
            raise ValueError(f"w1 must be (h, context*d), got {w1.shape}")
        if b1.shape != (h,):
            raise ValueError(f"b1 must be ({h},), got {b1.shape}")
        if w2.shape != (v, h):
            raise ValueError(f"w2 must be ({v}, {h}), got {w2.shape}")
        if b2.shape != (v,):
            raise ValueError(f"b2 must be ({v},), got {b2.shape}")
        self.vocab = vocab
        self.context = context
        self.embed_dim = d
        self.hidden_dim = h
        self.embedding = embedding
        self.w1 = w1
        self.b1 = b1
        self.w2 = w2
        self.b2 = b2
        # in the order mlp_forward takes them
        self.params = (self.embedding, self.w1, self.b1, self.w2, self.b2)
        for arr in self.params:
            arr.setflags(write=False)

    @property
    def window(self) -> int:
        return self.context

    def window_ids(self, seq: list[int]) -> list[int]:
        """The last ``context`` tokens of ``seq``, left-padded with bos."""
        win = list(seq[-self.context:])
        return [self.vocab.bos_id] * (self.context - len(win)) + win

    def batch_next_logits(self, seq: list[int], count: int, low_rank=(None, None)) -> np.ndarray:
        """One :func:`mlp_forward` (``low_rank`` as there) over the :meth:`window_ids` of the last
        ``count`` prefixes, stacked ``(count, 1, context)``; one prefix goes as its window alone."""
        tail = _checked_window(seq, self.context, self.vocab, count)
        padded = [self.vocab.bos_id] * (count - 1 + self.context - len(tail)) + tail
        windows = padded if count == 1 else [[padded[i : i + self.context]] for i in range(count)]
        return mlp_forward(self.params, windows, low_rank)[1].reshape(count, -1)

    @staticmethod
    def random(
        vocab: Vocab,
        context: int = 4,
        embed_dim: int = 16,
        hidden_dim: int = 32,
        seed: int = 0,
        scale: float = 0.5,
    ) -> "TinyNeuralLM":
        """A seeded random snapshot (binary64 draws rounded once to binary32)."""
        rng = np.random.Generator(np.random.PCG64(seed))
        d, h, v = embed_dim, hidden_dim, vocab.size
        params = _init_neural_params(rng, v, context, d, h, scale)
        return TinyNeuralLM(vocab, context, *[p.astype(np.float32) for p in params])


def mlp_forward(params, windows, low_rank=(None, None)):
    """The window MLP: ``(hid, logits)`` for one window, a stack or a batch.

    ``params`` is ``(embedding, w1, b1, w2, b2)`` and fixes the dtype:
    binary32 snapshots for inference, binary64 copies for training.
    ``windows`` is one window of ``context`` token ids, a ``(count, 1,
    context)`` stack (numpy runs each stacked one-row product as that
    window's own vector product: the same bits) or an ``(n, context)``
    batch. Rows compute as ``x @ w.T``, ``x`` being a window's concatenated
    embeddings; ``low_rank`` holds, per dense layer, ``None`` or an adapter
    term ``(scaling, a, b)`` that adds ``scaling * (x @ a.T) @ b.T``.
    ``hid`` is returned for the backward pass.

    Both outputs are fresh arrays the caller owns; no input is written.
    Each dense layer updates its output in place with the same operands and
    grouping as ``x @ w.T + scaling * ((x @ a.T) @ b.T) + bias``, so in-place
    and out-of-place results are bit-identical. For a batch, the first layer
    runs one block of :func:`row_blocks` at a time, sized for its narrowest
    product (``x @ a.T``, or ``x @ w.T`` without an adapter): it gathers
    only that block's embeddings and writes into ``hid``'s rows. Within a
    layer, ``x @ w.T`` and ``x @ a.T`` run as :func:`blocked_matmul` and the
    up product ``u @ b.T`` block by block, so no temporary, and no BLAS
    scratch space, holds more than a block of an (n, context * d) or (n, V)
    array.
    """
    emb, w1, b1, w2, b2 = params
    if isinstance(windows, np.ndarray) and windows.ndim == 2:
        hid = np.empty((len(windows), w1.shape[0]), dtype=w1.dtype)
        narrow = w1 if low_rank[0] is None else low_rank[0][1]  # w1 or the down factor a
        for blk in row_blocks(len(windows), narrow.T):
            x = emb[windows[blk]]
            hid[blk] = _dense(x.reshape(len(x), -1), w1, b1, low_rank[0])
        del x  # one block's embeddings, not needed by layer 2
    else:
        x = emb.take(windows, axis=0)  # the gather emb[windows], with less overhead
        x = x.reshape(x.shape[:-2] + (-1,))
        hid = _dense(x, w1, b1, low_rank[0])
    np.tanh(hid, out=hid)
    return hid, _dense(hid, w2, b2, low_rank[1])


def _dense(x, w, bias, term):
    out = x @ w.T if x.ndim != 2 else blocked_matmul(x, w.T)
    if term is not None:
        scaling, a, b = term
        if x.ndim != 2:  # one window or a stack of one-row products
            t = (x @ a.T) @ b.T
            t *= scaling
            out += t
        else:
            u = blocked_matmul(x, a.T)
            for blk in row_blocks(len(x)):  # inner size r: no small-kernel bound
                t = u[blk] @ b.T
                t *= scaling
                out[blk] += t
                del t  # so that the next block's product does not coexist with this one
    out += bias
    return out


# A product over a block of rows gives the same bits as those rows of the
# whole product only while BLAS takes the same kernel path for both. OpenBLAS
# runs a product with one row or one column as gemv, and on AVX-512 machines
# it runs a product of at most SMALL_GEMM multiply-adds (M * N * K) on a
# small-matrix kernel. Both give other bits than the large-product kernel,
# except the small kernel at an inner size K of a few units (a rank), and
# gemv's bits also depend on where the block starts (measured table: README
# "Training memory"). So a block has at least ROW_BLOCK rows, and a loop
# whose blocks multiply by a K x N right operand passes it to row_blocks:
# its blocks then exceed SMALL_GEMM multiply-adds, or, for N = 1, span every
# row. If the reference tests of tests/test_lora.py fail on another build
# or shape, raise these floors.
ROW_BLOCK = 256
SMALL_GEMM = 10**6
MIN_BLOCK_VALUES = 2**17  # of a product's left operand per block: fewer calls start BLAS's threads


def row_blocks(n: int, right: np.ndarray | None = None) -> list[slice]:
    """Cut ``n`` rows into consecutive slices of one height.

    The height is ``ROW_BLOCK`` rows, or, given the right operand ``right``
    of a product the blocks run, ``MIN_BLOCK_VALUES / len(right)`` and more than
    ``SMALL_GEMM / right.size`` rows when taller, and all ``n`` when ``right``
    has one column. The last slice takes the remainder, so it holds one height
    up to two heights less a row; fewer than two heights make one slice, and
    then the blocked computation makes the unblocked calls.
    """
    if right is None:
        rows = ROW_BLOCK
    elif right.shape[1] == 1:
        rows = max(n, 1)
    else:
        rows = max(ROW_BLOCK, MIN_BLOCK_VALUES // len(right), SMALL_GEMM // right.size + 1)
    bounds = [i * rows for i in range(max(n // rows, 1))] + [n]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def blocked_matmul(x: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``x @ right``, one :func:`row_blocks` block at a time, into one new array."""
    out = np.empty((len(x), right.shape[1]), dtype=np.result_type(x, right))
    for blk in row_blocks(len(x), right):
        np.matmul(x[blk], right, out=out[blk])
    return out


def _init_neural_params(rng, v, context, d, h, scale):
    emb = rng.normal(0.0, scale, size=(v, d))
    w1 = rng.normal(0.0, scale / np.sqrt(context * d), size=(h, context * d))
    b1 = np.zeros(h)
    w2 = rng.normal(0.0, scale / np.sqrt(h), size=(v, h))
    b2 = np.zeros(v)
    return emb, w1, b1, w2, b2


def fit_bigram(corpus: list[list[int]], vocab: Vocab, alpha: float) -> BigramTableModel:
    """Count adjacent token pairs over the corpus and smooth with ``alpha``."""
    if not any(len(doc) > 0 for doc in corpus):
        raise EmptyCorpusError("corpus contains no tokens")
    counts = np.zeros((vocab.size, vocab.size), dtype=np.int64)
    for doc in corpus:
        check_token_range(doc, vocab)
        for a, b in zip(doc, doc[1:]):
            counts[a, b] += 1
    return BigramTableModel(vocab, counts, alpha)


# ---------------------------------------------------------------------------
# Full-parameter training for the neural backend
# ---------------------------------------------------------------------------


def train_neural_lm(
    corpus: list[list[int]],
    vocab: Vocab,
    *,
    context: int = 4,
    embed_dim: int = 16,
    hidden_dim: int = 32,
    lr: float = 0.1,
    batch_size: int = 8,
    epochs: int = 5,
    seed: int = 0,
) -> TinyNeuralLM:
    """Fit a :class:`TinyNeuralLM` with mini-batch SGD on next-token cross-entropy.

    All arithmetic runs in binary64; the returned model is the binary32
    snapshot taken once at the end. Deterministic given (seed, corpus order).
    Raises :class:`TrainingDivergedError` when a snapshot parameter is not finite.
    """
    usable = [doc for doc in corpus if len(doc) >= 2]
    if not usable:
        raise EmptyCorpusError("corpus contains no sequence of length >= 2")
    rng = np.random.Generator(np.random.PCG64(seed))
    emb, w1, b1, w2, b2 = _init_neural_params(
        rng, vocab.size, context, embed_dim, hidden_dim, 0.5
    )

    windows, targets = training_positions(usable, vocab, context)
    n = windows.shape[0]
    for _ in range(max(0, epochs)):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            win, tgt = windows[idx], targets[idx]
            hid, logits = mlp_forward((emb, w1, b1, w2, b2), win)
            z = logits - logits.max(axis=1, keepdims=True)
            p = np.exp(z)
            p /= p.sum(axis=1, keepdims=True)
            g = p
            g[np.arange(len(idx)), tgt] -= 1.0
            g /= len(idx)
            d_w2 = g.T @ hid
            d_b2 = g.sum(axis=0)
            d_hid = g @ w2
            d_pre = d_hid * (1.0 - hid * hid)
            x = emb[win].reshape(len(idx), -1)  # the gather mlp_forward made
            d_w1 = d_pre.T @ x
            d_b1 = d_pre.sum(axis=0)
            d_x = (d_pre @ w1).reshape(len(idx), context, embed_dim)
            w1 -= lr * d_w1
            b1 -= lr * d_b1
            w2 -= lr * d_w2
            b2 -= lr * d_b2
            for c in range(context):
                np.add.at(emb, win[:, c], -lr * d_x[:, c, :])
    params = [p.astype(np.float32) for p in (emb, w1, b1, w2, b2)]
    for name, p in zip(("embedding", "w1", "b1", "w2", "b2"), params):
        if not np.isfinite(p).all():
            raise TrainingDivergedError(f"training diverged: {name} is not finite in binary32")
    return TinyNeuralLM(vocab, context, *params)


def training_positions(docs, vocab: Vocab, context: int):
    """Every (window, next token) pair of ``docs`` as int64 arrays.

    Row ``j`` of a document is ``TinyNeuralLM.window_ids(doc[:j + 1])`` and
    its target is ``doc[j + 1]``. Each document is checked against ``vocab``.
    """
    windows, targets = [], []
    for doc in docs:
        check_token_range(doc, vocab)
        padded = np.array([vocab.bos_id] * context + list(doc), dtype=np.int64)
        windows.append(np.lib.stride_tricks.sliding_window_view(padded, context)[1 : len(doc)])
        targets.append(padded[context + 1 :])
    return np.concatenate(windows), np.concatenate(targets)


# ---------------------------------------------------------------------------
# PRDM snapshot format
# ---------------------------------------------------------------------------


def encode_model(model: LogitModel) -> bytes:
    """Serialize a model to PRDM bytes (little-endian, binary32 reals)."""
    head = PRDM_MAGIC + struct.pack(
        "<BB", PRDM_VERSION, _arch_tag(model)
    ) + struct.pack("<III", model.vocab.size, model.vocab.eos_id, model.vocab.bos_id)
    if isinstance(model, BigramTableModel):
        if np.any(model.counts > 0xFFFFFFFF):
            raise ValueError("bigram counts exceed the 32-bit snapshot range")
        body = model.counts.astype("<u4").tobytes(order="C")
        body += struct.pack("<f", model.alpha)
    else:
        assert isinstance(model, TinyNeuralLM)
        body = struct.pack("<III", model.context, model.embed_dim, model.hidden_dim)
        for arr in model.params:
            body += arr.astype("<f4").tobytes(order="C")
    return head + body


def _arch_tag(model: LogitModel) -> int:
    if isinstance(model, BigramTableModel):
        return ARCH_BIGRAM
    if isinstance(model, TinyNeuralLM):
        return ARCH_TINY_NEURAL
    raise TypeError(f"cannot snapshot model of type {type(model).__name__}")


def decode_model(data: bytes) -> LogitModel:
    """Parse PRDM bytes back into a model; raises SnapshotFormatError."""
    r = ByteReader(data, lambda why, at: SnapshotFormatError(f"snapshot {why} (at byte {at})"))
    if r.take(4) != PRDM_MAGIC:
        raise SnapshotFormatError("bad snapshot magic")
    version, arch = r.unpack("<BB")
    if version != PRDM_VERSION:
        raise SnapshotFormatError(f"unsupported snapshot version {version}")
    size, eos_id, bos_id = r.unpack("<III")
    try:
        vocab = Vocab(size=size, eos_id=eos_id, bos_id=bos_id)
    except ValueError as exc:
        raise SnapshotFormatError(f"invalid vocab in snapshot: {exc}") from exc
    if arch == ARCH_BIGRAM:
        counts, alpha = r.array("<u4", size, size), r.f32()
        try:
            model: LogitModel = BigramTableModel(vocab, counts.astype(np.int64), alpha)
        except ValueError as exc:
            raise SnapshotFormatError(f"invalid bigram snapshot: {exc}") from exc
    elif arch == ARCH_TINY_NEURAL:
        context, d, h = r.unpack("<III")
        if context < 1 or d < 1 or h < 1:
            raise SnapshotFormatError("invalid tiny-neural dimensions in snapshot")
        shapes = ((size, d), (h, context * d), (h,), (size, h), (size,))
        model = TinyNeuralLM(vocab, context, *[r.array("<f4", *shape) for shape in shapes])
    else:
        raise SnapshotFormatError(f"unknown architecture tag {arch}")
    r.finish()
    return model


def save_model(model: LogitModel, path) -> None:
    with open(path, "wb") as fh:
        fh.write(encode_model(model))


def load_model(path) -> LogitModel:
    with open(path, "rb") as fh:
        return decode_model(fh.read())
