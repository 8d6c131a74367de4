"""Message vocabulary for the draft/verify wire protocol.

These are plain records; their byte layout lives in :mod:`offsetlm.transport`.
Structural invariants that a decoder can check without session state are
enforced here in ``__post_init__`` so that a decoded message is always a
well-formed one; :meth:`DraftBatch.from_rows`, for a round's parts that
already have the batch's shape, runs only the check they leave open, and
:meth:`Commit.from_wire` and :meth:`GenerationResult.from_wire`, for fields
whose wire types already bound them, run none.
Sampling settings travel as the
:class:`~offsetlm.core.GenerationConfig` itself, which checks its own ranges.
Cross-message invariants (commit counts versus the last draft, session ids,
budgets) belong to :mod:`offsetlm.protocol`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GenerationConfig

PROTOCOL_VERSION = 4

FLAVOR_BLACKBOX = 0  # generate from the black-box model alone (api mode)
FLAVOR_ADAPTED = 1  # offset-adapted generation using the uploaded adapter


def _from_fields(cls, **fields):
    """A ``cls`` holding ``fields``, made past its ``__post_init__``."""
    msg = object.__new__(cls)
    vars(msg).update(fields)
    return msg


def _token_tuple(tokens, what: str) -> tuple[int, ...]:
    out = tuple(map(int, tokens))
    if out and (min(out) < 0 or max(out) > 0xFFFFFFFF):
        bad = next(tok for tok in out if not 0 <= tok <= 0xFFFFFFFF)
        raise ValueError(f"{what} contains an invalid token id {bad!r}")
    return out


@dataclass(frozen=True)
class Hello:
    """Client's opening claim: protocol version and vocab geometry."""

    protocol_version: int
    vocab_size: int
    eos_id: int
    bos_id: int

    def __post_init__(self) -> None:
        if self.vocab_size < 1:
            raise ValueError("vocab_size must be positive")
        for name in ("eos_id", "bos_id"):
            if not 0 <= getattr(self, name) < self.vocab_size:
                raise ValueError(f"{name} out of range in Hello")


@dataclass(frozen=True)
class HelloAck:
    """Server's verdict on a Hello (also acks adapter uploads)."""

    accept: bool
    reason: str = ""


@dataclass(frozen=True)
class StartSession:
    """Open a draft/verify session: at most ``draft_len`` rows per draft.

    ``config`` is the client's whole sampling setting. The server takes the
    budget from it and, in a stochastic session, rebuilds the client's
    Gumbel vectors from its seed to draft with.
    """

    session_id: int
    prompt: tuple[int, ...]
    draft_len: int
    config: GenerationConfig

    def __post_init__(self) -> None:
        object.__setattr__(self, "prompt", _token_tuple(self.prompt, "prompt"))
        if not 1 <= self.draft_len < 1 << 32:
            raise ValueError(f"draft_len must be in [1, 2**32), got {self.draft_len}")


def _check_finite(rows: np.ndarray) -> None:
    if not np.isfinite(rows).all():
        raise ValueError("draft logits contain non-finite entries")


@dataclass(eq=False)
class DraftBatch:
    """One server round: drafted tokens and their black-box logit rows.

    Greedy sessions draft each row's argmax; stochastic ones draft the token
    that the client's own Gumbel vector for that position picks from the row.
    """

    session_id: int
    tokens: tuple[int, ...]
    logits: np.ndarray  # (len(tokens), vocab) float32

    def __post_init__(self) -> None:
        self.tokens = _token_tuple(self.tokens, "draft tokens")
        self.logits = np.asarray(self.logits, dtype=np.float32)
        if len(self.tokens) < 1:
            raise ValueError("a draft batch must contain at least one token")
        if self.logits.ndim != 2 or self.logits.shape[0] != len(self.tokens):
            raise ValueError(
                f"draft logits shape {self.logits.shape} does not match "
                f"{len(self.tokens)} drafted tokens"
            )
        if self.logits.shape[1] < 1:
            raise ValueError("draft logits must have at least one column")
        _check_finite(self.logits)

    @classmethod
    def from_rows(cls, session_id: int, tokens: tuple[int, ...], logits: np.ndarray) -> "DraftBatch":
        """A batch whose parts already have its shape: a tuple of at least one u32 token id and
        a float32 ``(len(tokens), V)`` block, V at least 1.

        Where a round builds or decodes a batch, its parts come that way, so of
        the constructor's checks this runs the one they leave open: every logit
        is finite.
        """
        _check_finite(logits)
        batch = cls.__new__(cls)
        batch.session_id, batch.tokens, batch.logits = session_id, tokens, logits
        return batch

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DraftBatch)
            and self.session_id == other.session_id
            and self.tokens == other.tokens
            and self.logits.shape == other.logits.shape
            and bool(np.array_equal(self.logits, other.logits))
        )


@dataclass(frozen=True)
class Commit:
    """Client's verdict on the last draft batch.

    ``accept_count`` drafted tokens are taken verbatim; ``replacement``, when
    present, is the client's corrected token at the first divergence. ``done``
    marks the session finished (eos committed or budget exhausted).
    """

    session_id: int
    accept_count: int
    replacement: int | None = None
    done: bool = False

    def __post_init__(self) -> None:
        if self.accept_count < 0:
            raise ValueError("accept_count must be non-negative")
        if self.replacement is not None:
            object.__setattr__(self, "replacement", _token_tuple([self.replacement], "replacement")[0])

    @classmethod
    def from_wire(cls, session_id: int, accept_count: int, replacement: int | None, done: bool) -> "Commit":
        """A commit from decoded fields: a u32 count, a u32 or None, and a bool, which the
        constructor's checks already pass."""
        return _from_fields(cls, session_id=session_id, accept_count=accept_count,
                            replacement=replacement, done=done)


@dataclass(frozen=True)
class UploadAdapter:
    """Ship serialized adapter bytes for server-side composition."""

    adapter_bytes: bytes
    base_fingerprint: int

    def __post_init__(self) -> None:
        if len(self.adapter_bytes) < 1:
            raise ValueError("adapter payload must be non-empty")


@dataclass(frozen=True)
class ServerGenerate:
    """Ask the server to run a whole generation locally.

    ``flavor`` selects the black-box alone (api mode) or the offset-adapted
    composition using the previously uploaded adapter (transfer mode). The
    server samples with ``config`` as it arrives, so a transfer run samples
    exactly as the client-side modes do with the same config.
    """

    session_id: int
    prompt: tuple[int, ...]
    flavor: int
    config: GenerationConfig

    def __post_init__(self) -> None:
        object.__setattr__(self, "prompt", _token_tuple(self.prompt, "prompt"))
        if self.flavor not in (FLAVOR_BLACKBOX, FLAVOR_ADAPTED):
            raise ValueError(f"unknown generation flavor {self.flavor}")


@dataclass(frozen=True)
class GenerationResult:
    session_id: int
    tokens: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", _token_tuple(self.tokens, "result tokens"))

    @classmethod
    def from_wire(cls, session_id: int, tokens: tuple[int, ...]) -> "GenerationResult":
        """A result from decoded fields: its tokens a tuple of u32 ids, which the constructor's
        checks already pass."""
        return _from_fields(cls, session_id=session_id, tokens=tokens)


@dataclass(frozen=True)
class ProtocolError:
    """Carried over the wire when one side must refuse to continue."""

    code: str
    text: str = ""

    def __post_init__(self) -> None:
        if not self.code:
            raise ValueError("protocol error code must be non-empty")


Message = (
    Hello
    | HelloAck
    | StartSession
    | DraftBatch
    | Commit
    | UploadAdapter
    | ServerGenerate
    | GenerationResult
    | ProtocolError
)
