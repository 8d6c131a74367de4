"""Low-rank adapters over the tiny neural LM, trained from scratch.

An adapter stores, per target weight matrix ``W`` (shape m×n), a pair
``B`` (m×r) and ``A`` (r×n) plus a scaling; the adapted weight is
``W + scaling * B @ A`` but the forward pass never materializes that
product — it computes ``W @ x + scaling * (B @ (A @ x))``, which is what
makes rank-r adaptation cheap. Targets are the two dense layers of
:class:`~offsetlm.models.TinyNeuralLM`, named ``"w1"`` and ``"w2"``.

Training is plain mini-batch SGD on mean next-token cross-entropy with the
base model frozen: only ``A`` and ``B`` receive gradients (hand-derived,
verified against central finite differences in the test suite). All training
arithmetic is binary64; inference and the ``PRDL`` serialization round to
binary32 once, at snapshot time.

``A`` is initialized uniform in (-1/sqrt(n), +1/sqrt(n)) from the seed and
``B`` starts at zero, so a freshly initialized adapter is an exact identity:
the adapted model reproduces the base model bit-for-bit.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .core import make_rng
from .models import LogitModel, TinyNeuralLM, fnv1a64, _check_tokens

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
    targets: list[LoraTarget] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("rank must be positive")
        seen = set()
        for t in self.targets:
            if t.name not in TARGET_TAGS:
                raise ValueError(f"unknown adapter target {t.name!r}")
            if t.name in seen:
                raise ValueError(f"duplicate adapter target {t.name!r}")
            seen.add(t.name)
            b = np.asarray(t.b)
            a = np.asarray(t.a)
            if b.ndim != 2 or a.ndim != 2 or b.shape[1] != self.rank or a.shape[0] != self.rank:
                raise ShapeMismatchError(
                    f"target {t.name!r}: B {b.shape} / A {a.shape} do not factor at rank {self.rank}"
                )

    def target(self, name: str) -> LoraTarget | None:
        for t in self.targets:
            if t.name == name:
                return t
        return None

    def snapshot(self) -> "LoraAdapter":
        """Binary32 copy, as used for inference and on the wire."""
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
        return fnv1a64(encode_adapter(self))


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


def init_adapter(
    base: TinyNeuralLM,
    rank: int,
    seed: int = 0,
    scaling: float = 1.0,
    target_names: tuple[str, ...] = ("w1", "w2"),
) -> LoraAdapter:
    """Seeded adapter init: A uniform in ±1/sqrt(n), B zero (exact identity)."""
    return _init_from_rng(base, rank, scaling, make_rng(seed), target_names)


def _init_from_rng(base, rank, scaling, rng, target_names=("w1", "w2")) -> LoraAdapter:
    targets = []
    for name in target_names:
        m, n = _TARGET_DIMS[name](base)
        if rank > min(m, n):
            raise RankTooLargeError(
                f"rank {rank} exceeds min(m, n) = {min(m, n)} for target {name!r}"
            )
        bound = 1.0 / np.sqrt(n)
        a = rng.uniform(-bound, bound, size=(rank, n))
        b = np.zeros((m, rank))
        targets.append(LoraTarget(name=name, b=b, a=a, scaling=scaling))
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
        self._rank = adapter.rank
        snap = adapter.snapshot()
        self._w1t = snap.target("w1")
        self._w2t = snap.target("w2")

    def next_logits(self, seq: list[int]) -> np.ndarray:
        base = self.base
        x = base.embed_window(seq)
        pre = base.w1 @ x
        if self._w1t is not None:
            t = self._w1t
            pre = pre + np.float32(t.scaling) * (t.b @ (t.a @ x))
        pre = pre + base.b1
        hid = np.tanh(pre)
        out = base.w2 @ hid
        if self._w2t is not None:
            t = self._w2t
            out = out + np.float32(t.scaling) * (t.b @ (t.a @ hid))
        out = out + base.b2
        return out


def apply_adapter(base: TinyNeuralLM, adapter: LoraAdapter) -> AdaptedModel:
    """Compose base and adapter without materializing any dense update."""
    return AdaptedModel(base, adapter)


# ---------------------------------------------------------------------------
# Training (binary64)
# ---------------------------------------------------------------------------


def _base_params_f64(base: TinyNeuralLM):
    return (
        base.embedding.astype(np.float64),
        base.w1.astype(np.float64),
        base.b1.astype(np.float64),
        base.w2.astype(np.float64),
        base.b2.astype(np.float64),
    )


def _positions(batch: list[list[int]], base: TinyNeuralLM):
    windows, targets = [], []
    for seq in batch:
        if len(seq) < 2:
            raise DegenerateBatchError(
                "training sequences must have length >= 2 to yield a prediction"
            )
        _check_tokens(seq, base.vocab)
        for j in range(len(seq) - 1):
            windows.append(base.window_ids(seq[: j + 1]))
            targets.append(seq[j + 1])
    return np.asarray(windows, dtype=np.int64), np.asarray(targets, dtype=np.int64)


def _adapted_forward_f64(base_p, adapter: LoraAdapter, windows: np.ndarray):
    """Binary64 factored forward over a batch of context windows.

    Returns (X, H, logits) — the intermediates the backward pass needs.
    """
    emb, w1, b1, w2, b2 = base_p
    n = windows.shape[0]
    x = emb[windows].reshape(n, -1)
    pre = x @ w1.T
    t1 = adapter.target("w1")
    if t1 is not None:
        pre = pre + t1.scaling * ((x @ np.asarray(t1.a, dtype=np.float64).T)
                                  @ np.asarray(t1.b, dtype=np.float64).T)
    pre = pre + b1
    hid = np.tanh(pre)
    logits = hid @ w2.T
    t2 = adapter.target("w2")
    if t2 is not None:
        logits = logits + t2.scaling * ((hid @ np.asarray(t2.a, dtype=np.float64).T)
                                        @ np.asarray(t2.b, dtype=np.float64).T)
    logits = logits + b2
    return x, hid, logits


def loss_and_grads(
    base: TinyNeuralLM, adapter: LoraAdapter, batch: list[list[int]]
) -> tuple[float, dict[str, dict[str, np.ndarray]]]:
    """Mean next-token cross-entropy and gradients w.r.t. adapter factors only.

    The mean runs over every prediction position of every sequence in the
    batch. Returned grads are keyed by target name, each a dict with "b" and
    "a" arrays shaped like the corresponding factors.
    """
    if len(batch) == 0:
        raise DegenerateBatchError("batch must be non-empty")
    _check_fit(base, adapter)
    base_p = _base_params_f64(base)
    windows, targets = _positions(batch, base)
    x, hid, logits = _adapted_forward_f64(base_p, adapter, windows)
    n = windows.shape[0]

    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = float(-logp[np.arange(n), targets].mean())

    g = np.exp(logp)
    g[np.arange(n), targets] -= 1.0
    g /= n

    _, w1, _, w2, _ = base_p
    grads: dict[str, dict[str, np.ndarray]] = {}
    t2 = adapter.target("w2")
    if t2 is not None:
        a2 = np.asarray(t2.a, dtype=np.float64)
        b2f = np.asarray(t2.b, dtype=np.float64)
        grads["w2"] = {
            "b": t2.scaling * (g.T @ (hid @ a2.T)),
            "a": t2.scaling * (b2f.T @ (g.T @ hid)),
        }
    t1 = adapter.target("w1")
    if t1 is not None:
        d_hid = g @ w2
        if t2 is not None:
            d_hid = d_hid + t2.scaling * ((g @ np.asarray(t2.b, dtype=np.float64))
                                          @ np.asarray(t2.a, dtype=np.float64))
        d_pre = d_hid * (1.0 - hid * hid)
        a1 = np.asarray(t1.a, dtype=np.float64)
        b1f = np.asarray(t1.b, dtype=np.float64)
        grads["w1"] = {
            "b": t1.scaling * (d_pre.T @ (x @ a1.T)),
            "a": t1.scaling * (b1f.T @ (d_pre.T @ x)),
        }
    return loss, grads


def train_lora(
    base: TinyNeuralLM, corpus: list[list[int]], config: TrainConfig
) -> LoraAdapter:
    """SGD on the adapter factors with the base model bitwise frozen.

    Deterministic given (config.seed, corpus order). Zero epochs returns the
    seeded init unchanged.
    """
    rng = make_rng(config.seed)
    adapter = _init_from_rng(base, config.rank, 1.0, rng)
    docs = [list(doc) for doc in corpus]
    if not docs:
        raise DegenerateBatchError("corpus must be non-empty")
    for _ in range(config.epochs):
        order = rng.permutation(len(docs))
        for start in range(0, len(docs), config.batch_size):
            batch = [docs[i] for i in order[start : start + config.batch_size]]
            _, grads = loss_and_grads(base, adapter, batch)
            for t in adapter.targets:
                if t.name in grads:
                    t.b = t.b - config.lr * grads[t.name]["b"]
                    t.a = t.a - config.lr * grads[t.name]["a"]
    return adapter


# ---------------------------------------------------------------------------
# PRDL adapter serialization
# ---------------------------------------------------------------------------


def encode_adapter(adapter: LoraAdapter) -> bytes:
    """Serialize to PRDL bytes (little-endian, binary32 reals)."""
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
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(data):
            raise AdapterFormatError(
                f"adapter payload truncated at byte {len(data)} (needed {pos + n})"
            )
        chunk = data[pos : pos + n]
        pos += n
        return chunk

    if take(4) != PRDL_MAGIC:
        raise AdapterFormatError("bad adapter magic")
    (version,) = struct.unpack("<B", take(1))
    if version != PRDL_VERSION:
        raise AdapterFormatError(f"unsupported adapter version {version}")
    (rank,) = struct.unpack("<I", take(4))
    if rank < 1:
        raise AdapterFormatError("adapter rank must be positive")
    (n_targets,) = struct.unpack("<H", take(2))
    targets = []
    for _ in range(n_targets):
        (tag,) = struct.unpack("<B", take(1))
        if tag not in TAG_TARGETS:
            raise AdapterFormatError(f"unknown target tag {tag} at byte {pos - 1}")
        m, n = struct.unpack("<II", take(8))
        if m < 1 or n < 1:
            raise AdapterFormatError("target dimensions must be positive")
        (scaling,) = struct.unpack("<f", take(4))
        b = np.frombuffer(take(4 * m * rank), dtype="<f4").reshape(m, rank).copy()
        a = np.frombuffer(take(4 * rank * n), dtype="<f4").reshape(rank, n).copy()
        targets.append(LoraTarget(name=TAG_TARGETS[tag], b=b, a=a, scaling=float(scaling)))
    if pos != len(data):
        raise AdapterFormatError(f"adapter has trailing bytes at offset {pos}")
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
