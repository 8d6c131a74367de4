"""Vocabulary, token-sequence, logit, and sampling primitives, and
:class:`ByteReader`, the one byte reader of every binary decoder (PRDM,
PRDL, wire messages), which holds the one truncation check they share.

Conventions used throughout the package:

* token ids are plain Python ints in ``[0, vocab.size)``;
* token sequences are lists of ints, holding at most one ``eos_id`` which,
  if present, is the last element;
* logit vectors are one-dimensional ``numpy.float32`` arrays of length
  ``vocab.size`` with all entries finite;
* a stochastic generation draws one V-wide Gumbel vector per response
  token from a seeded generator (:func:`gumbel_vectors` over
  :func:`make_rng`, numpy PCG64), and :func:`pick` turns the row and that
  vector into the token, so runs are reproducible bit-for-bit from the seed;
  greedy draws nothing.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass

import numpy as np

GREEDY = "greedy"
STOCHASTIC = "stochastic"
# the little-endian scalars of every binary format (PRDM, PRDL, wire messages)
U8, U16, U32, U64, F32 = (struct.Struct(fmt) for fmt in ("<B", "<H", "<I", "<Q", "<f"))


@dataclass(frozen=True)
class Vocab:
    """A contiguous token-id space with reserved end/begin-of-sequence ids."""

    size: int
    eos_id: int
    bos_id: int

    def __post_init__(self) -> None:
        if self.size < 3:
            raise ValueError(f"vocab size must be at least 3, got {self.size}")
        for name in ("eos_id", "bos_id"):
            tok = getattr(self, name)
            if not 0 <= tok < self.size:
                raise ValueError(f"{name}={tok} out of range for vocab size {self.size}")
        if self.eos_id == self.bos_id:
            raise ValueError("eos_id and bos_id must differ")


@dataclass(frozen=True)
class GenerationConfig:
    """How to turn logits into tokens and when to stop.

    ``mode`` is either ``"greedy"`` (argmax, ties to the lowest index) or
    ``"stochastic"`` (temperature softmax sampling by Gumbel-max, driven by
    ``seed``; see :func:`pick`).
    ``max_new_tokens`` counts committed response tokens only; zero is a legal
    degenerate budget yielding an empty response.

    Every field fits the wire's config field, which ``StartSession`` and
    ``ServerGenerate`` carry, so a config that can be built runs in every
    mode: ``max_new_tokens`` is in [0, 2**32), ``seed`` in [0, 2**64), and
    ``temperature`` is stored as its binary32 rounding, which must not be
    NaN, and for stochastic sampling must be in (0, inf).
    """

    max_new_tokens: int
    mode: str = GREEDY
    temperature: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.max_new_tokens < 1 << 32:
            raise ValueError(f"max_new_tokens must be in [0, 2**32), got {self.max_new_tokens}")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.mode not in (GREEDY, STOCHASTIC):
            raise ValueError(f"unknown sampling mode {self.mode!r}")
        try:
            temperature = struct.unpack("<f", struct.pack("<f", self.temperature))[0]
        except OverflowError as exc:
            raise ValueError(f"temperature {self.temperature} is outside the binary32 range") from exc
        if math.isnan(temperature) or self.mode == STOCHASTIC and not 0.0 < temperature < math.inf:
            raise ValueError(f"{self.mode} sampling cannot use temperature {self.temperature} "
                             f"(binary32: {temperature})")
        object.__setattr__(self, "temperature", temperature)


def make_rng(seed: int) -> np.random.Generator:
    """The package-wide seeded generator: numpy PCG64.

    All stochastic sampling in this package flows through generators built
    here, which is what makes client-side and server-side stochastic runs
    reproducible and mutually comparable.
    """
    return np.random.Generator(np.random.PCG64(seed))


def argmax_sample(logits: np.ndarray) -> int:
    """Greedy selection: the smallest index attaining the maximum logit.

    Raises ``ValueError`` when that logit is not finite: numpy's argmax
    stops at the first NaN or +inf, and an all -inf row picks -inf.
    """
    if logits.ndim != 1 or logits.shape[0] == 0:
        raise ValueError("argmax_sample expects a non-empty 1-D logit vector")
    tok = int(logits.argmax())
    if not math.isfinite(logits[tok]):
        raise ValueError(f"logit row is not finite: its maximum is {logits[tok]}")
    return tok


def gumbel_vectors(config: GenerationConfig, size: int):
    """The noise of each response position, in order: ``g_k`` for position k.

    Stochastic: ``g_k`` is the k-th ``rng.gumbel(size=size)`` of
    ``make_rng(config.seed)``, so whoever knows the seed and the vocabulary
    size knows every position's vector without seeing a logit. Greedy:
    ``None`` at every position, and nothing is drawn.
    """
    if config.mode == GREEDY:
        return itertools.repeat(None)
    rng = make_rng(config.seed)
    return (rng.gumbel(size=size) for _ in itertools.count())


def pick(logits: np.ndarray, config: GenerationConfig, g: np.ndarray | None) -> int:
    """The token rule of every mode: the token ``config`` takes from ``logits`` with noise ``g``.

    Greedy: the argmax, whatever ``g``. Stochastic (Gumbel-max):
    ``argmax(float64(logits) / T + g)``, ties to the lowest index, which is a
    draw from ``softmax(logits / T)`` when ``g`` holds independent standard
    Gumbel variates. ``g`` is the position's vector of :func:`gumbel_vectors`.
    A row holding a NaN or +inf, or all -inf, raises ``ValueError`` in both
    modes before any arithmetic; a finite binary32 row is never refused.
    """
    tok = argmax_sample(logits)
    if config.mode == GREEDY:
        return tok
    scores = logits.astype(np.float64)
    scores /= config.temperature
    scores += g
    return int(scores.argmax())


class VocabMismatchError(ValueError):
    """A token id fell outside the model's vocabulary, or two vocabularies differ."""

    code = "bad-vocab"


def check_same_vocab(vocab: Vocab, other: Vocab, what: str) -> None:
    """The vocabulary rule where two models meet: ``vocab`` (``what``'s) must equal ``other``."""
    if vocab != other:
        raise VocabMismatchError(f"{what} vocab {vocab} differs from {other}")


def check_token_range(tokens, vocab: Vocab, what: str = "token") -> None:
    """Raise :class:`VocabMismatchError` for the first id outside ``vocab``."""
    for tok in tokens:
        if not 0 <= tok < vocab.size:
            raise VocabMismatchError(f"{what} {tok} out of range for vocab size {vocab.size}")


def check_prompt(tokens, vocab: Vocab) -> None:
    """The prompt rule of every generation mode: a non-empty sequence as above.

    Raises :class:`VocabMismatchError` for an id outside ``vocab``, else
    ``ValueError`` for an empty prompt or an eos before its last token.
    """
    if len(tokens) == 0:
        raise ValueError("prompt must be non-empty")
    check_token_range(tokens, vocab, "prompt token")
    if vocab.eos_id in tokens[:-1]:
        raise ValueError("eos inside the prompt body")


def parse_token_line(line: str, vocab: Vocab | None = None) -> list[int]:
    """Parse one whitespace-separated decimal token-id line."""
    tokens = [int(part) for part in line.split()]
    if vocab is not None:
        check_token_range(tokens, vocab)
    return tokens


def read_corpus(path, vocab: Vocab | None = None) -> list[list[int]]:
    """Read a corpus file: one document per line, decimal token ids.

    Blank lines are preserved as empty documents so that degenerate corpora
    stay visible to the fitting code (which decides whether to reject them).
    """
    docs = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip("\n")
            if line.strip() == "":
                docs.append([])
            else:
                docs.append(parse_token_line(line, vocab))
    return docs


class ByteReader:
    """Sequential little-endian reads over one payload, from byte ``pos`` on.

    ``error(message, offset)`` builds the caller's exception, so each format
    raises its own error type. Every read checks its length once, in
    :meth:`skip`, and a short read fails at the end of the data;
    :meth:`fail` reports the current position or a given offset.
    """

    __slots__ = ("data", "pos", "error")

    def __init__(self, data: bytes, error, pos: int = 0) -> None:
        self.data = data
        self.pos = pos
        self.error = error

    def fail(self, why: str, offset: int | None = None) -> Exception:
        return self.error(why, self.pos if offset is None else offset)

    def skip(self, n: int) -> int:
        """Move past the next ``n`` bytes and return the offset they start at."""
        at = self.pos
        end = at + n
        if end > len(self.data):
            raise self.error(f"truncated: needed {n} bytes, {len(self.data) - at} left", len(self.data))
        self.pos = end
        return at

    def take(self, n: int) -> bytes:
        at = self.skip(n)
        return self.data[at : self.pos]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.data, self.skip(struct.calcsize(fmt)))

    def u8(self) -> int:
        return self.data[self.skip(1)]

    def u16(self) -> int:
        return U16.unpack_from(self.data, self.skip(2))[0]

    def u32(self) -> int:
        return U32.unpack_from(self.data, self.skip(4))[0]

    def u64(self) -> int:
        return U64.unpack_from(self.data, self.skip(8))[0]

    def f32(self) -> float:
        return F32.unpack_from(self.data, self.skip(4))[0]

    def u32s(self, n: int) -> tuple[int, ...]:
        return struct.unpack_from(f"<{n}I", self.data, self.skip(4 * n))

    def array(self, dtype: str, *shape: int) -> np.ndarray:
        """A read-only view of ``shape`` items of ``dtype``, over a copy of their bytes."""
        n = np.dtype(dtype).itemsize * math.prod(shape)
        return np.frombuffer(self.take(n), dtype=dtype).reshape(shape)

    def finish(self) -> None:
        if self.pos != len(self.data):
            raise self.fail(f"{len(self.data) - self.pos} trailing bytes")
