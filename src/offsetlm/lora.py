"""Low-rank adapters over the tiny neural LM, trained from scratch.

An adapter stores, per target weight matrix ``W`` (shape m×n), a pair
``B`` (m×r) and ``A`` (r×n) plus a scaling; the adapted weight is
``W + scaling * B @ A`` but the forward pass never materializes that
product — it computes ``W @ x + scaling * (B @ (A @ x))``, which is what
makes rank-r adaptation cheap. Every adapter adapts both dense layers of
:class:`~offsetlm.models.TinyNeuralLM`, ``"w1"`` then ``"w2"``; a
single-layer adaptation is the one whose other layer has ``B`` zero.

There is no adapted copy of the forward pass: inference (binary32, a stack
of windows) and training (binary64, a batch of windows) both call the base
model's :func:`~offsetlm.models.mlp_forward` with the adapter's
``(scaling, A, B)`` as the low-rank term of each dense layer.

Training is plain mini-batch SGD on mean next-token cross-entropy with the
base model frozen: only ``A`` and ``B`` receive gradients (hand-derived,
verified against central finite differences in the test suite). All training
arithmetic is binary64; inference and the ``PRDL`` serialization round to
binary32 once, at snapshot time. A step is written for a device with little
memory: it reuses one (n, V) and one (n, h) buffer for n positions (see
:func:`loss_and_grads`).

``A`` is initialized uniform in (-1/sqrt(n), +1/sqrt(n)) from the seed and
``B`` starts at zero, so a freshly initialized adapter is an exact identity:
the adapted model reproduces the base model bit-for-bit.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .core import ByteReader, make_rng
from .models import (
    LogitModel,
    TinyNeuralLM,
    TrainingDivergedError,
    blocked_matmul,
    hash64,
    mlp_forward,
    row_blocks,
    training_positions,
)

PRDL_MAGIC = b"PRDL"
PRDL_VERSION = 1

TARGET_TAGS = {"w1": 1, "w2": 2}
TAG_TARGETS = {tag: name for name, tag in TARGET_TAGS.items()}


class ShapeMismatchError(ValueError):
    """Adapter factor shapes do not fit the target weight."""


class RankTooLargeError(ValueError):
    """Requested rank exceeds min(m, n) of a target weight."""


class DegenerateBatchError(ValueError):
    """A training sequence was too short to yield a prediction position."""


class AdapterFormatError(ValueError):
    """A PRDL payload was malformed or truncated."""


@dataclass
class LoraTarget:
    """One adapted weight: name, down/up factors, and their scaling."""

    name: str
    b: np.ndarray  # (m, r)
    a: np.ndarray  # (r, n)
    scaling: float = 1.0

    def delta(self) -> np.ndarray:
        """The dense update scaling * B @ A (test/oracle use only)."""
        return self.scaling * (np.asarray(self.b, dtype=np.float64)
                               @ np.asarray(self.a, dtype=np.float64))


@dataclass
class LoraAdapter:
    rank: int
    targets: list[LoraTarget]  # w1 then w2

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("rank must be positive")
        names = [t.name for t in self.targets]
        if names != list(TARGET_TAGS):
            raise ValueError(f"adapter targets must be {list(TARGET_TAGS)}, got {names}")
        for t in self.targets:
            b = np.asarray(t.b)
            a = np.asarray(t.a)
            if b.ndim != 2 or a.ndim != 2 or b.shape[1] != self.rank or a.shape[0] != self.rank:
                raise ShapeMismatchError(
                    f"target {t.name!r}: B {b.shape} / A {a.shape} do not factor at rank {self.rank}"
                )
            if not (np.isfinite(t.scaling) and np.isfinite(b).all() and np.isfinite(a).all()):
                raise ValueError(f"target {t.name!r}: a factor or the scaling is not finite")

    def snapshot(self) -> "LoraAdapter":
        """Binary32 copy, as used for inference and on the wire.

        Raises ``ValueError`` when a value overflows binary32: every adapter
        holds finite factors and scalings.
        """
        return LoraAdapter(
            rank=self.rank,
            targets=[
                LoraTarget(
                    name=t.name,
                    b=np.asarray(t.b, dtype=np.float32).copy(),
                    a=np.asarray(t.a, dtype=np.float32).copy(),
                    scaling=float(np.float32(t.scaling)),
                )
                for t in self.targets
            ],
        )

    def fingerprint(self) -> int:
        return hash64(encode_adapter(self))


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters for adapter training (desk-scale defaults)."""

    lr: float = 0.05
    batch_size: int = 4
    epochs: int = 3
    rank: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.lr > 0:
            raise ValueError("lr must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.rank < 1:
            raise ValueError("rank must be positive")


_TARGET_DIMS = {
    "w1": lambda m: (m.hidden_dim, m.context * m.embed_dim),
    "w2": lambda m: (m.vocab.size, m.hidden_dim),
}


def _check_fit(base: TinyNeuralLM, adapter: LoraAdapter) -> None:
    for t in adapter.targets:
        m, n = _TARGET_DIMS[t.name](base)
        if t.b.shape != (m, adapter.rank) or t.a.shape != (adapter.rank, n):
            raise ShapeMismatchError(
                f"target {t.name!r}: expected B {(m, adapter.rank)} / A {(adapter.rank, n)}, "
                f"got B {t.b.shape} / A {t.a.shape}"
            )


def init_adapter(base: TinyNeuralLM, rank: int, seed: int = 0) -> LoraAdapter:
    """Seeded adapter on w1 and w2 at scaling 1: A uniform in ±1/sqrt(n), B zero (exact identity)."""
    return _init_from_rng(base, rank, make_rng(seed))


def _init_from_rng(base, rank, rng) -> LoraAdapter:
    targets = []
    for name, dims in _TARGET_DIMS.items():
        m, n = dims(base)
        if rank > min(m, n):
            raise RankTooLargeError(
                f"rank {rank} exceeds min(m, n) = {min(m, n)} for target {name!r}"
            )
        bound = 1.0 / np.sqrt(n)
        a = rng.uniform(-bound, bound, size=(rank, n))
        b = np.zeros((m, rank))
        targets.append(LoraTarget(name=name, b=b, a=a))
    return LoraAdapter(rank=rank, targets=targets)


# ---------------------------------------------------------------------------
# Inference composition (binary32)
# ---------------------------------------------------------------------------


class AdaptedModel(LogitModel):
    """Base model plus adapter, exposed through the plain logits interface.

    Adapter factors are cast to binary32 at construction so that an
    in-memory adapter and one decoded from PRDL bytes produce identical
    logits. The base model is shared, never copied or modified.
    """

    def __init__(self, base: TinyNeuralLM, adapter: LoraAdapter) -> None:
        _check_fit(base, adapter)
        self.window = base.context
        self.base = base
        self.vocab = base.vocab
        self._low_rank = _low_rank(adapter.snapshot(), np.float32)

    def batch_next_logits(self, seq: list[int], count: int) -> np.ndarray:
        return self.base.batch_next_logits(seq, count, self._low_rank)


def _low_rank(adapter: LoraAdapter, dtype) -> tuple:
    """Per dense layer, w1 then w2, the adapter's ``(scaling, a, b)`` at ``dtype``."""
    return tuple((dtype(t.scaling), np.asarray(t.a, dtype=dtype), np.asarray(t.b, dtype=dtype))
                 for t in adapter.targets)


def apply_adapter(base: TinyNeuralLM, adapter: LoraAdapter) -> AdaptedModel:
    """Compose base and adapter without materializing any dense update."""
    return AdaptedModel(base, adapter)


# ---------------------------------------------------------------------------
# Training (binary64)
# ---------------------------------------------------------------------------


def loss_and_grads(
    base: TinyNeuralLM, adapter: LoraAdapter, batch: list[list[int]]
) -> tuple[float, dict[str, dict[str, np.ndarray]]]:
    """Mean next-token cross-entropy and gradients w.r.t. adapter factors only.

    The mean runs over every prediction position of every sequence in the
    batch. Returned grads are keyed by target name, each a dict with "b" and
    "a" arrays shaped like the corresponding factors.

    For n positions, the step holds one (n, V) and one (n, h) binary64
    array; every other temporary is a row block of :func:`row_blocks`, a
    narrow (n, r) or (n, context) array, or has no n dimension. Every product
    over n rows except the reductions over n (``g.T @ ·``, ``d_pre.T @ ·``)
    runs in row blocks, so BLAS's scratch space does not grow with n; the
    reductions stay whole because summing blocks would round differently.
    (At rank 1 a block spans every row, so the forward pass holds the (n,
    context * d) embeddings and the backward pass an (n, h) product.) The
    w1 gradients gather the concatenated embeddings again, into the spent
    logits buffer when they fit. The results are bit-identical to the
    out-of-place formula wherever the blocks keep BLAS on the whole
    product's kernel (see :data:`~offsetlm.models.ROW_BLOCK`).
    """
    if len(batch) == 0:
        raise DegenerateBatchError("batch must be non-empty")
    if any(len(seq) < 2 for seq in batch):
        raise DegenerateBatchError(
            "training sequences must have length >= 2 to yield a prediction"
        )
    _check_fit(base, adapter)
    windows, targets = training_positions(batch, base.vocab, base.context)
    params = tuple(p.astype(np.float64) for p in base.params)
    low_rank = _low_rank(adapter, np.float64)
    hid, g = mlp_forward(params, windows, low_rank)
    n = windows.shape[0]

    # The step holds one (n, V) array and one (n, h) array. One row block at
    # a time, the logits buffer becomes the log-probabilities (whose target
    # entries are copied out for the loss) and then the logits gradient g,
    # in place; the hidden activations become d_pre in place.
    picked = np.empty(n)
    for blk in row_blocks(n):
        z = g[blk]
        rows = np.arange(len(z))
        z -= z.max(axis=1, keepdims=True)
        z -= np.log(np.exp(z).sum(axis=1, keepdims=True))
        picked[blk] = z[rows, targets[blk]]
        np.exp(z, out=z)
        z[rows, targets[blk]] -= 1.0
        z /= n
    del z  # a view of g, which would keep its buffer alive past `del g`
    loss = float(-picked.mean())

    (s1, a1, b1), (s2, a2, b2) = low_rank  # b is the up factor, not a bias
    grads = {"w2": {"b": s2 * (g.T @ blocked_matmul(hid, a2.T)), "a": s2 * (b2.T @ (g.T @ hid))}}
    for blk in row_blocks(n, b2):  # sized for the narrow (V, r) up factor
        d = g[blk] @ params[3]  # the base w2
        t = (g[blk] @ b2) @ a2
        t *= s2
        d += t
        h = hid[blk]
        d *= 1.0 - h * h
        hid[blk] = d
    d_pre = hid

    # Nothing reads g any more: the w1 inputs x, the same gather as
    # mlp_forward's, go into the front of its buffer when they fit.
    emb = params[0]
    width = base.context * base.embed_dim
    if width <= g.shape[1]:
        x = g.reshape(-1)[: n * width].reshape(n, width)
        # the indices were range-checked by training_positions; mode="raise"
        # would buffer `out`, allocating a second (n, context * d) array
        np.take(emb, windows, axis=0, out=x.reshape(n, base.context, -1), mode="clip")
    else:
        x = emb[windows].reshape(n, width)
    del g
    grads["w1"] = {"b": s1 * (d_pre.T @ blocked_matmul(x, a1.T)), "a": s1 * (b1.T @ (d_pre.T @ x))}
    return loss, grads


def train_lora(
    base: TinyNeuralLM, corpus: list[list[int]], config: TrainConfig
) -> LoraAdapter:
    """SGD on the adapter factors with the base model bitwise frozen.

    Deterministic given (config.seed, corpus order). Zero epochs returns the
    seeded init unchanged. Raises :class:`TrainingDivergedError`, naming the
    epoch and step, at the first step whose binary64 loss is not finite or
    after which :meth:`LoraAdapter.snapshot` refuses a factor.
    """
    rng = make_rng(config.seed)
    adapter = _init_from_rng(base, config.rank, rng)
    docs = [list(doc) for doc in corpus]
    if not docs:
        raise DegenerateBatchError("corpus must be non-empty")
    steps = range(0, len(docs), config.batch_size)
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(docs))
        for step, start in enumerate(steps, 1):
            batch = [docs[i] for i in order[start : start + config.batch_size]]
            loss, grads = loss_and_grads(base, adapter, batch)
            for t in adapter.targets:
                t.b = t.b - config.lr * grads[t.name]["b"]
                t.a = t.a - config.lr * grads[t.name]["a"]
            try:
                if not np.isfinite(loss):
                    raise ValueError(f"loss {loss} is not finite")
                adapter.snapshot()
            except ValueError as exc:
                raise TrainingDivergedError(
                    f"training diverged at epoch {epoch} of {config.epochs}, "
                    f"step {step} of {len(steps)}: {exc}"
                ) from exc
    return adapter


# ---------------------------------------------------------------------------
# PRDL adapter serialization
# ---------------------------------------------------------------------------


def encode_adapter(adapter: LoraAdapter) -> bytes:
    """Serialize the binary32 :meth:`~LoraAdapter.snapshot` to PRDL bytes (little-endian)."""
    adapter = adapter.snapshot()
    out = bytearray()
    out += PRDL_MAGIC
    out += struct.pack("<B", PRDL_VERSION)
    out += struct.pack("<I", adapter.rank)
    out += struct.pack("<H", len(adapter.targets))
    for t in adapter.targets:
        m = t.b.shape[0]
        n = t.a.shape[1]
        out += struct.pack("<B", TARGET_TAGS[t.name])
        out += struct.pack("<II", m, n)
        out += struct.pack("<f", float(t.scaling))
        out += np.asarray(t.b, dtype="<f4").tobytes(order="C")
        out += np.asarray(t.a, dtype="<f4").tobytes(order="C")
    return bytes(out)


def decode_adapter(data: bytes) -> LoraAdapter:
    """Parse PRDL bytes; raises AdapterFormatError on any malformation."""
    r = ByteReader(data, lambda why, at: AdapterFormatError(f"adapter {why} (at byte {at})"))
    if r.take(4) != PRDL_MAGIC:
        raise AdapterFormatError("bad adapter magic")
    version = r.u8()
    if version != PRDL_VERSION:
        raise AdapterFormatError(f"unsupported adapter version {version}")
    rank = r.u32()
    if rank < 1:
        raise AdapterFormatError("adapter rank must be positive")
    targets = []
    for _ in range(r.u16()):
        tag = r.u8()
        if tag not in TAG_TARGETS:
            raise r.fail(f"unknown target tag {tag}", r.pos - 1)
        m, n = r.unpack("<II")
        if m < 1 or n < 1:
            raise AdapterFormatError("target dimensions must be positive")
        scaling = r.f32()
        b = r.array("<f4", m, rank).copy()
        a = r.array("<f4", rank, n).copy()
        targets.append(LoraTarget(name=TAG_TARGETS[tag], b=b, a=a, scaling=scaling))
    r.finish()
    try:
        return LoraAdapter(rank=rank, targets=targets)
    except ValueError as exc:
        raise AdapterFormatError(f"invalid adapter payload: {exc}") from exc


def save_adapter(adapter: LoraAdapter, path) -> None:
    with open(path, "wb") as fh:
        fh.write(encode_adapter(adapter))


def load_adapter(path) -> LoraAdapter:
    with open(path, "rb") as fh:
        return decode_adapter(fh.read())
