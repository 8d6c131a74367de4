"""Vocabulary, token-sequence, logit, and sampling primitives, and the
byte reader behind every binary decoder (PRDM, PRDL, wire messages).

Conventions used throughout the package:

* token ids are plain Python ints in ``[0, vocab.size)``;
* token sequences are lists of ints, holding at most one ``eos_id`` which,
  if present, is the last element;
* logit vectors are one-dimensional ``numpy.float32`` arrays of length
  ``vocab.size`` with all entries finite;
* every generation draws one uniform variate per response token from a
  seeded generator (:func:`make_rng`, numpy PCG64), greedy too, and
  :func:`pick` turns the row and that uniform into the token, so runs are
  reproducible bit-for-bit from the seed.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

GREEDY = "greedy"
STOCHASTIC = "stochastic"
_U16, _U32, _U64, _F32 = (struct.Struct(fmt) for fmt in ("<H", "<I", "<Q", "<f"))  # for ByteReader


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
    ``"stochastic"`` (temperature softmax sampling driven by ``seed``).
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


def softmax64(logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Temperature softmax computed in binary64 with max subtraction."""
    if not temperature > 0.0:
        raise ValueError("temperature must be positive")
    z = np.asarray(logits, dtype=np.float64) / float(temperature)
    z = z - np.max(z)
    e = np.exp(z)
    return e / np.sum(e)


def sample_at(logits: np.ndarray, temperature: float, u: float) -> int:
    """The token at uniform ``u`` of ``softmax(logits / temperature)``'s inverse CDF.

    Computes :func:`softmax64` and its running sum in one binary64 buffer,
    with the same operands in the same order, so the CDF has the same bits.
    The token is the first whose CDF value exceeds ``u``, the last if none.
    Raises ``ValueError``, before it subtracts the maximum, when that
    maximum is not finite: a row holding a NaN or +inf, or all -inf. After
    a finite maximum the normaliser lies in [1, V].
    """
    if not temperature > 0.0:
        raise ValueError("temperature must be positive")
    cdf = np.array(logits, dtype=np.float64)
    cdf /= float(temperature)
    top = cdf.max()
    if not math.isfinite(top):
        raise ValueError(f"logit row is not finite: its maximum is {top}")
    cdf -= top
    np.exp(cdf, out=cdf)
    cdf /= cdf.sum()
    np.cumsum(cdf, out=cdf)
    return min(int(cdf.searchsorted(u, side="right")), cdf.shape[0] - 1)


def seeded_sample(logits: np.ndarray, temperature: float, rng: np.random.Generator) -> int:
    """Draw one token from ``softmax(logits / temperature)``.

    Consumes exactly one uniform variate from ``rng`` and takes
    :func:`sample_at` there, so the draw is a pure function of (logits,
    temperature, generator state). Whoever rebuilds the generator from its
    seed knows the k-th draw's uniform without seeing the logits.
    """
    return sample_at(logits, temperature, rng.random())


def pick(logits: np.ndarray, config: GenerationConfig, u: float) -> int:
    """The token rule of every mode: the token ``config`` takes from ``logits`` at uniform ``u``.

    Greedy: the argmax, whatever ``u``. Stochastic: :func:`sample_at` at the
    config's temperature. Response token k is picked at the k-th draw of
    ``make_rng(config.seed)``, greedy too. A row holding a NaN or +inf, or
    all -inf, raises ``ValueError`` in both modes rather than yield a
    token; a finite binary32 row is never refused.
    """
    if config.mode == GREEDY:
        return argmax_sample(logits)
    return sample_at(logits, config.temperature, u)


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
    """Sequential little-endian reads over one payload.

    ``error(message, offset)`` builds the caller's exception, so each format
    raises its own error type. A short read fails at the end of the data;
    :meth:`fail` reports the current position or a given offset.
    """

    def __init__(self, data: bytes, error) -> None:
        self.data = data
        self.pos = 0
        self.error = error

    def fail(self, why: str, offset: int | None = None) -> Exception:
        return self.error(why, self.pos if offset is None else offset)

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise self.error(
                f"truncated: needed {n} bytes, {len(self.data) - self.pos} left", len(self.data)
            )
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return _U16.unpack(self.take(2))[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def u64(self) -> int:
        return _U64.unpack(self.take(8))[0]

    def f32(self) -> float:
        return _F32.unpack(self.take(4))[0]

    def array(self, dtype: str, *shape: int) -> np.ndarray:
        """A read-only view of ``shape`` items of ``dtype``."""
        n = np.dtype(dtype).itemsize * math.prod(shape)
        return np.frombuffer(self.take(n), dtype=dtype).reshape(shape)

    def flag(self) -> bool:
        b = self.u8()
        if b not in (0, 1):
            raise self.fail(f"flag byte must be 0 or 1, got {b}", self.pos - 1)
        return bool(b)

    def tokens(self) -> list[int]:
        """A u32 count, then that many u32 token ids."""
        n = self.u32()
        return list(struct.unpack(f"<{n}I", self.take(4 * n)))

    def text(self) -> str:
        """A u16 byte length, then that many bytes of UTF-8."""
        n = self.u16()
        raw = self.take(n)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self.fail(f"invalid UTF-8 text: {exc}", self.pos - n) from exc

    def finish(self) -> None:
        if self.pos != len(self.data):
            raise self.fail(f"{len(self.data) - self.pos} trailing bytes")
