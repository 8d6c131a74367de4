"""The draft/verify adaptation protocol over framed channels.

Roles
-----

The **server** owns the black-box generator. Per session it keeps one
canonical token sequence (prompt plus committed tokens) and, each round,
drafts tokens ahead, returning them together with their logit rows. Each
drafted token is :func:`~offsetlm.core.pick` of its row with the client's
own Gumbel vector for that response position (the argmax when greedy):
``StartSession`` carries the client's config, and the server's generator,
seeded alike, draws the same vectors in the same order. Where the offset
leaves a row's pick unchanged, the draft is accepted: with shared Gumbel
noise, at least ``(1 - TV) / (1 + TV)`` of the time, TV being the total
variation distance between the two tempered softmaxes. The client's
``draft_len`` is a ceiling: once a commit has carried a replacement, a round
drafts ``ceil(committed / replacements)`` tokens, the mean committed run per
replacement, read only from validated commits so replays draft alike.
Commits that accept only a prefix simply truncate the speculated suffix away
— the canonical sequence is the only state, so rollback is exact by
construction. A connection serves nothing before an accepted ``Hello`` and
holds at most one live session; every refusal reaches the peer as one reply.

The **client** owns the proxy pair (base + adapter) as one
:class:`~offsetlm.offset.OffsetProxy`. One stacked forward per proxy gives
the offset ``d`` at every drafted position, with the bits of each position's
forward alone. The client walks the positions with the per-token step (``d``
plus the black-box row, one pick with the position's vector) and stops at the
first token that differs from the draft, the replacement; later rows are
dropped. The client mirrors the canonical sequence locally and the final
result echoed by the server must match that mirror exactly.

``run_per_token`` is literally ``run_speculative`` with a draft length of
one. ``run_transfer`` instead uploads the serialized adapter once and asks
the server to run the whole offset-adapted generation locally; with the same
models, adapter, and config it returns the identical token sequence: every
loop, client, server or in-process, picks response token k with the k-th
vector of :func:`~offsetlm.core.gumbel_vectors`.

Every loop stops by one rule, :func:`finished`: the budget is spent or the
sequence ends in eos.

A connection's server side is one loop, :meth:`Server.connection_loop`, a
generator that yields after each reply it sends, with two drivers.
:meth:`Server.serve_connection` drains it on a thread of its own, as
:func:`serve_channel` does for a socket pair. :class:`InlineServer` steps it
over a memory channel pair, one message and its reply a step: on the
client's thread in :func:`connect_in_process`, where a client read that
finds no reply waiting serves one message first, and on the one service
thread of :class:`SocketServer`, which relays each accepted socket to a
pair and steps that connection once the step's reads have arrived. The
frames, their checks and their bills are the same over every driver.
"""

from __future__ import annotations

import contextlib
import itertools
import logging
import selectors
import socket
import threading
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .core import U32, GenerationConfig, Vocab, check_prompt, check_same_vocab, gumbel_vectors, pick
from .lora import AdapterFormatError, LoraAdapter, apply_adapter, decode_adapter, encode_adapter
from .models import LogitModel, TinyNeuralLM
from .messages import (
    FLAVOR_ADAPTED,
    FLAVOR_BLACKBOX,
    PROTOCOL_VERSION,
    Commit,
    DraftBatch,
    GenerationResult,
    Hello,
    HelloAck,
    Message,
    ProtocolError,
    ServerGenerate,
    StartSession,
    UploadAdapter,
)
from .offset import OffsetProxy, adapted_next_token
from .transport import (
    FRAME_HEADER_LEN,
    MAX_PAYLOAD_LEN,
    PREAMBLE,
    ConnectionClosedError,
    CostLedger,
    FramedConnection,
    MAX_RESULT_TOKENS,
    FrameTooLargeError,
    MalformedPayloadError,
    MemoryChannel,
    SocketChannel,
    max_draft_rows,
    memory_channel_pair,
    queue_channel_pair,  # noqa: F401 — bench/tracing.py wraps the socket pairs made through this name
)

log = logging.getLogger(__name__)

ERR_SESSION_UNKNOWN = "session-unknown"
ERR_INVALID_COMMIT = "invalid-commit"
ERR_OUT_OF_SYNC = "out-of-sync"
ERR_FINGERPRINT_MISMATCH = "fingerprint-mismatch"
ERR_MALFORMED_ADAPTER = "malformed-adapter"
ERR_UNSUPPORTED = "unsupported-request"
ERR_INVALID_PROMPT = "invalid-prompt"
ERR_MALFORMED = "malformed-payload"
ERR_SERVER_FAULT = "server-fault"
ERR_LIMIT_EXCEEDED = "limit-exceeded"


class HandshakeRejectedError(Exception):
    """The server refused the Hello (vocabulary geometry mismatch)."""


class OutOfSyncError(Exception):
    """Client mirror and server canonical sequence disagree."""


class InvalidCommitError(ValueError):
    """A commit was inconsistent with the outstanding draft."""


class BudgetExhaustedError(ValueError):
    """A draft was requested with no token budget left."""


class RemoteProtocolError(Exception):
    """The peer answered with a ProtocolError message."""

    def __init__(self, code: str, text: str = "") -> None:
        super().__init__(f"{code}: {text}" if text else code)
        self.code = code
        self.text = text


class FingerprintMismatchError(RemoteProtocolError):
    """Server-side base proxy does not match the client's adapter base."""


def _raise_remote(err: ProtocolError) -> None:
    if err.code == ERR_FINGERPRINT_MISMATCH:
        raise FingerprintMismatchError(err.code, err.text)
    raise RemoteProtocolError(err.code, err.text)


def finished(seq: list[int], prompt_len: int, max_new_tokens: int, eos_id: int) -> bool:
    """The stop rule: ``max_new_tokens`` tokens follow the prompt, or ``seq`` ends in eos.

    Reads only ``len(seq)`` and the last token. A prompt that already ends
    in eos is finished before the first step.
    """
    return len(seq) - prompt_len >= max_new_tokens or seq[-1] == eos_id


# ---------------------------------------------------------------------------
# Server side
# ---------------------------------------------------------------------------


@dataclass
class ServerSession:
    """Canonical sequence plus draft bookkeeping for one generation.

    It also keeps the client's :func:`~offsetlm.core.gumbel_vectors`, rebuilt
    from ``config``, and in ``gumbels`` the vectors it has drawn for drafted
    positions not yet committed, oldest first: at most ``draft_len`` of them
    (``None`` each when greedy).
    """

    session_id: int
    vocab: Vocab
    prompt: tuple[int, ...]
    draft_len: int
    config: GenerationConfig
    canonical: list[int] = field(default_factory=list)
    last_draft: list[int] | None = None
    replacements: int = 0  # validated commits that carried a replacement
    gumbels: list = field(default_factory=list)
    noise: Iterator = field(init=False, repr=False)
    done: bool = field(init=False)  # the stop rule, set when apply_commit extends canonical
    max_rows: int = field(init=False, repr=False)  # most rows one DraftBatch frame carries

    def __post_init__(self) -> None:
        self.canonical = list(self.prompt)
        self.noise = gumbel_vectors(self.config, self.vocab.size)
        self.done = finished(self.canonical, len(self.prompt), self.max_new_tokens, self.vocab.eos_id)
        self.max_rows = max_draft_rows(self.vocab.size)

    @property
    def max_new_tokens(self) -> int:
        return self.config.max_new_tokens

    def budget_left(self) -> int:
        return self.max_new_tokens - (len(self.canonical) - len(self.prompt))

    def response_tokens(self) -> tuple[int, ...]:
        return tuple(self.canonical[len(self.prompt):])

    def draft_size(self) -> int:
        """Rows for the next draft; ``draft_len`` is only a ceiling.

        Before any replacement: ``draft_len``. After: the mean run of committed
        tokens per replacement, ``ceil(committed / replacements)``, at most
        ``draft_len``. Clamped by the budget and by ``max_draft_rows``.
        """
        committed = len(self.canonical) - len(self.prompt)
        run = -(-committed // self.replacements) if self.replacements else self.draft_len
        return min(self.draft_len, run, self.budget_left(), self.max_rows)

    def draft_token(self, z: np.ndarray, i: int) -> int:
        """The token drafted from row ``z``, ``i`` positions past the committed ones.

        :func:`~offsetlm.core.pick` with the Gumbel vector the client draws for
        that response position, drawn forward in order from the session's noise.
        """
        while len(self.gumbels) <= i:
            self.gumbels.append(next(self.noise))
        return pick(z, self.config, self.gumbels[i])

    def draft(self, blackbox: LogitModel) -> DraftBatch:
        """Autoregressive speculation from the canonical sequence.

        Drafts :meth:`draft_size` tokens by :meth:`draft_token`, fewer when
        eos comes first. The drafted tokens are appended to ``canonical`` in
        place while drafting and removed again before returning, also when a
        forward raises, so a round costs O(steps * window) however long the
        session has run.
        """
        if self.done:
            raise BudgetExhaustedError(f"session {self.session_id} has no token budget left")
        if self.last_draft is not None:
            raise InvalidCommitError("previous draft has not been committed yet")
        ctx = self.canonical
        start = len(ctx)
        rows = np.empty((self.draft_size(), self.vocab.size), dtype=np.float32)
        try:
            for i in range(len(rows)):
                rows[i] = z = blackbox.next_logits(ctx)
                tok = self.draft_token(z, i)
                ctx.append(tok)
                if tok == self.vocab.eos_id:
                    break
            tokens = ctx[start:]
        finally:
            del ctx[start:]
        self.last_draft = tokens
        return DraftBatch.from_rows(self.session_id, tuple(tokens), rows[: len(tokens)])

    def apply_commit(self, commit: Commit) -> None:
        """Advance the canonical sequence; speculated suffix is dropped."""
        if self.last_draft is None:
            raise InvalidCommitError("no draft outstanding")
        drafted = self.last_draft
        n = len(drafted)
        if commit.accept_count > n:
            raise InvalidCommitError(
                f"accept_count {commit.accept_count} exceeds drafted count {n}"
            )
        if commit.replacement is not None and commit.accept_count >= n:
            raise InvalidCommitError("replacement present on a full accept")
        if commit.replacement is None and commit.accept_count < n:
            raise InvalidCommitError("partial accept without a replacement token")
        if commit.replacement is not None and not 0 <= commit.replacement < self.vocab.size:
            raise InvalidCommitError(f"replacement token {commit.replacement} out of vocab")
        self.canonical.extend(drafted[: commit.accept_count])
        if commit.replacement is not None:
            self.canonical.append(commit.replacement)
            self.replacements += 1
        del self.gumbels[: commit.accept_count + (commit.replacement is not None)]  # spent
        self.last_draft = None
        self.done = finished(self.canonical, len(self.prompt), self.max_new_tokens, self.vocab.eos_id)
        if bool(commit.done) != self.done:
            raise OutOfSyncError(
                f"client done={commit.done} disagrees with server done={self.done}"
            )


class _ConnectionState:
    """Per-connection server state: greeted yet, one live session, the adapter.

    Session ids are scoped to the connection, so independent clients number
    their sessions however they like without colliding on the server.
    """

    def __init__(self) -> None:
        self.greeted = False
        self.adapted_proxy = None
        self.session: ServerSession | None = None


class Server:
    """Owns the black-box model and, optionally, a copy of the base proxy.

    The models are immutable snapshots, so one server instance can serve
    any number of connections concurrently; all mutable state lives in the
    per-connection :class:`_ConnectionState`, at most one live session each.
    """

    def __init__(self, blackbox: LogitModel, base_proxy: TinyNeuralLM | None = None) -> None:
        if base_proxy is not None:
            check_same_vocab(blackbox.vocab, base_proxy.vocab, "black-box")
        self.blackbox = blackbox
        self.base_proxy = base_proxy

    @property
    def vocab(self) -> Vocab:
        return self.blackbox.vocab

    def check_hello(self, hello: Hello) -> HelloAck:
        """Accept iff the protocol version and the vocabulary geometry match."""
        v = self.vocab
        if hello.protocol_version != PROTOCOL_VERSION:
            return HelloAck(False, f"unsupported protocol version {hello.protocol_version}")
        if (hello.vocab_size, hello.eos_id, hello.bos_id) != (v.size, v.eos_id, v.bos_id):
            return HelloAck(
                False,
                f"vocab mismatch: client ({hello.vocab_size}, eos={hello.eos_id}, "
                f"bos={hello.bos_id}) vs server ({v.size}, eos={v.eos_id}, bos={v.bos_id})",
            )
        return HelloAck(True, "")

    # -- per-connection state machine ---------------------------------------

    def connection_loop(self, conn: FramedConnection) -> Iterator[None]:
        """One connection's loop, one reply per message: it yields after each reply it sends.

        Until a ``Hello`` is accepted, only a ``Hello`` is served. A bad
        preamble, an undecodable or oversized frame, or a first message that
        is not a ``Hello`` gets one ``ProtocolError`` and then a close; a
        refused ``Hello`` gets its ``HelloAck`` and then a close. A request
        whose handling raises, such as a failing black-box forward or a reply
        too big for a frame, is a fault of this server: it is logged with its
        session id and answered with ``ProtocolError(server-fault, <exception
        type>)``, then a close. A peer that leaves, at any point, ends the loop
        quietly. Any other exception, raised outside a request's handling, is
        logged with the session id of the message being served and ends the
        loop. A reply followed by a close is sent before the close and is not
        followed by a yield.

        :meth:`serve_connection` drains it on a thread of its own;
        :class:`InlineServer` runs it a step at a time.
        """
        state = _ConnectionState()
        msg = None
        try:
            try:
                conn.expect_preamble()
                while True:
                    msg = conn.recv_message()
                    if state.greeted:
                        try:
                            conn.send_message(self._dispatch(msg, state))
                        except ConnectionClosedError:
                            raise
                        except Exception as exc:  # noqa: BLE001 — reported to the peer
                            log.exception("session %s: server fault on %s",
                                          getattr(msg, "session_id", None), type(msg).__name__)
                            conn.send_message(ProtocolError(ERR_SERVER_FAULT, type(exc).__name__))
                            break
                    elif isinstance(msg, Hello):
                        reply = self.check_hello(msg)
                        conn.send_message(reply)
                        if not reply.accept:
                            break
                        state.greeted = True
                    else:
                        conn.send_message(ProtocolError(ERR_UNSUPPORTED, "expected Hello"))
                        break
                    yield
            except (MalformedPayloadError, FrameTooLargeError) as exc:
                conn.send_message(ProtocolError(ERR_MALFORMED, str(exc)))
        except ConnectionClosedError:
            pass
        except Exception:
            log.exception("session %s: connection fault", getattr(msg, "session_id", None))
            raise
        finally:
            conn.close()

    def serve_connection(self, conn: FramedConnection) -> None:
        """Run one connection to completion (blocking): :meth:`connection_loop`, drained."""
        for _ in self.connection_loop(conn):
            pass

    def _dispatch(self, msg: Message, state: "_ConnectionState") -> Message:
        if isinstance(msg, Commit):  # the message of every round
            return self._on_commit(msg, state)
        if isinstance(msg, (StartSession, ServerGenerate)):
            try:
                check_prompt(msg.prompt, self.vocab)
            except ValueError as exc:
                return ProtocolError(ERR_INVALID_PROMPT, str(exc))
            if msg.config.max_new_tokens > MAX_RESULT_TOKENS:  # its result could not be sent
                return ProtocolError(ERR_LIMIT_EXCEEDED, f"budget above {MAX_RESULT_TOKENS} tokens")
        if isinstance(msg, StartSession):
            return self._on_start(msg, state)
        if isinstance(msg, UploadAdapter):
            return self._on_upload(msg, state)
        if isinstance(msg, ServerGenerate):
            return self._on_generate(msg, state.adapted_proxy)
        return ProtocolError(ERR_UNSUPPORTED, f"unexpected {type(msg).__name__}")

    def _on_start(self, msg: StartSession, state: "_ConnectionState") -> Message:
        if state.session is not None:
            return ProtocolError(
                ERR_INVALID_COMMIT, f"session {state.session.session_id} is still live"
            )
        session = ServerSession(
            session_id=msg.session_id,
            vocab=self.vocab,
            prompt=msg.prompt,
            draft_len=msg.draft_len,
            config=msg.config,
        )
        if session.done:  # zero budget or prompt already ends in eos
            return GenerationResult(session_id=msg.session_id, tokens=())
        state.session = session
        return session.draft(self.blackbox)

    def _on_commit(self, msg: Commit, state: "_ConnectionState") -> Message:
        session = state.session
        if session is None or session.session_id != msg.session_id:
            return ProtocolError(ERR_SESSION_UNKNOWN, f"session {msg.session_id}")
        try:
            session.apply_commit(msg)
        except InvalidCommitError as exc:
            return ProtocolError(ERR_INVALID_COMMIT, str(exc))
        except OutOfSyncError as exc:
            state.session = None
            return ProtocolError(ERR_OUT_OF_SYNC, str(exc))
        if session.done:
            state.session = None
            return GenerationResult(session_id=msg.session_id, tokens=session.response_tokens())
        return session.draft(self.blackbox)

    def _on_upload(self, msg: UploadAdapter, state: "_ConnectionState") -> Message:
        if self.base_proxy is None:
            return ProtocolError(ERR_UNSUPPORTED, "server hosts no base proxy")
        if msg.base_fingerprint != self.base_proxy.fingerprint():
            return ProtocolError(
                ERR_FINGERPRINT_MISMATCH,
                f"client base {msg.base_fingerprint:016x} != "
                f"server base {self.base_proxy.fingerprint():016x}",
            )
        try:
            adapter = decode_adapter(bytes(msg.adapter_bytes))
            state.adapted_proxy = apply_adapter(self.base_proxy, adapter)
        except (AdapterFormatError, ValueError) as exc:
            return ProtocolError(ERR_MALFORMED_ADAPTER, str(exc))
        return HelloAck(True, "adapter installed")

    def _on_generate(self, msg: ServerGenerate, adapted_proxy) -> Message:
        if msg.flavor == FLAVOR_ADAPTED and adapted_proxy is None:
            return ProtocolError(ERR_UNSUPPORTED, "no adapter uploaded for adapted generation")
        if msg.flavor == FLAVOR_BLACKBOX:
            tokens = generate_blackbox(self.blackbox, list(msg.prompt), msg.config)
        else:
            tokens = generate_adapted(
                self.blackbox, self.base_proxy, adapted_proxy, list(msg.prompt), msg.config
            )
        return GenerationResult(session_id=msg.session_id, tokens=tuple(tokens))


def _generate(step, vocab: Vocab, prompt: list[int], config: GenerationConfig) -> list[int]:
    """The shared in-process loop: ``step(seq, g)`` picks each next token with its Gumbel vector.

    The prompt is checked once, here, by the rule the server applies
    (:func:`~offsetlm.core.check_prompt`); each step then reads only the
    models' windows. A prompt ending in eos yields nothing.
    """
    check_prompt(prompt, vocab)
    noise = gumbel_vectors(config, vocab.size)
    seq = list(prompt)
    while not finished(seq, len(prompt), config.max_new_tokens, vocab.eos_id):
        seq.append(step(seq, next(noise)))
    return seq[len(prompt):]


def generate_blackbox(blackbox: LogitModel, prompt: list[int], config: GenerationConfig) -> list[int]:
    """Plain autoregressive generation from the black-box model alone."""
    return _generate(
        lambda seq, g: pick(blackbox.next_logits(seq), config, g),
        blackbox.vocab, prompt, config,
    )


def generate_adapted(
    blackbox: LogitModel,
    base_proxy: LogitModel,
    tuned_proxy: LogitModel,
    prompt: list[int],
    config: GenerationConfig,
) -> list[int]:
    """Per-token offset-adapted generation, all models evaluated in-process.

    Each step picks from ``z_b + d`` by ``adapted_next_token``, as client
    verification does, with ``d`` the one-row ``proxy.offsets(seq, 1)[0]``:
    the per-token reference for the rows of a stacked verify. The three
    vocabularies are checked once, on entry.
    One Gumbel vector per response token, exactly like the protocol modes —
    which is what makes server-side (transfer) and client-side generation
    token-identical for the same seed.
    """
    proxy = OffsetProxy(base_proxy, tuned_proxy)
    check_same_vocab(blackbox.vocab, proxy.vocab, "black-box")
    return _generate(
        lambda seq, g: adapted_next_token(blackbox.next_logits(seq), proxy.offsets(seq, 1)[0], config, g),
        blackbox.vocab, prompt, config,
    )


# ---------------------------------------------------------------------------
# Client side
# ---------------------------------------------------------------------------


class Client:
    """Drives sessions, one at a time, against a server over one framed connection.

    A session that fails on the client's side leaves the server's one session
    slot taken; open a new connection for the next session.
    """

    def __init__(
        self,
        conn: FramedConnection,
        vocab: Vocab,
        base_proxy: TinyNeuralLM | None = None,
        adapter: LoraAdapter | None = None,
    ) -> None:
        if base_proxy is not None:
            check_same_vocab(vocab, base_proxy.vocab, "client")
        self.conn = conn
        self.vocab = vocab
        self.base_proxy = base_proxy
        # a copy: it freezes the adapter the client was given, so later edits reach no mode
        self.adapter = adapter.snapshot() if adapter is not None else None
        self.proxy = (
            OffsetProxy(base_proxy, apply_adapter(base_proxy, self.adapter))
            if base_proxy is not None and adapter is not None
            else None
        )
        self._session_ids = itertools.count(1)

    @property
    def ledger(self) -> CostLedger:
        return self.conn.ledger

    def handshake(self) -> None:
        """Preamble + Hello; raises HandshakeRejectedError on refusal."""
        self.conn.send_preamble()
        self.conn.send_message(
            Hello(PROTOCOL_VERSION, self.vocab.size, self.vocab.eos_id, self.vocab.bos_id))
        ack = self._recv()
        if not isinstance(ack, HelloAck):
            raise OutOfSyncError(f"expected HelloAck, got {type(ack).__name__}")
        if not ack.accept:
            raise HandshakeRejectedError(ack.reason)

    def _recv(self) -> Message:
        msg = self.conn.recv_message()
        if isinstance(msg, ProtocolError):
            _raise_remote(msg)
        return msg

    def _reply(self, session_id: int, *kinds: type) -> Message:
        """The next reply, which must be one of ``kinds`` and belong to ``session_id``."""
        msg = self._recv()
        if not isinstance(msg, kinds) or msg.session_id != session_id:
            expected = " or ".join(kind.__name__ for kind in kinds)
            raise OutOfSyncError(f"unexpected message {msg!r} in session {session_id}: "
                                 f"expected {expected}")
        return msg

    # -- speculative loop ----------------------------------------------------

    def run_speculative(
        self, prompt: list[int], config: GenerationConfig, draft_len: int = 8
    ) -> list[int]:
        """Draft/verify generation; returns the committed response tokens.

        The tokens equal ``run_per_token`` and ``generate_adapted`` for every
        draft length, greedy and stochastic: verification scores the drafted
        positions with the per-token step's bits and commits every position
        it inspects, so the k-th Gumbel vector always picks response token k.

        A draft whose rows are not ``vocab.size`` wide or whose tokens fall
        outside the vocabulary raises :class:`OutOfSyncError` before any
        forward.
        """
        if self.proxy is None:
            raise ValueError("speculative generation needs a base proxy and an adapter")
        v, conn, ledger = self.vocab.size, self.conn, self.ledger
        noise = gumbel_vectors(config, v)
        session_id = next(self._session_ids)
        mirror = list(prompt)
        conn.send_message(StartSession(session_id, tuple(prompt), draft_len, config))
        while True:
            msg = self._reply(session_id, DraftBatch, GenerationResult)
            if isinstance(msg, GenerationResult):
                got = list(msg.tokens)
                want = mirror[len(prompt):]
                if got != want:
                    raise OutOfSyncError(f"server result {got} disagrees with client mirror {want}")
                ledger.check_token_flow()
                return got
            n = len(msg.tokens)
            if msg.logits.shape != (n, v) or max(msg.tokens) >= v:
                raise OutOfSyncError(
                    f"draft of {n} tokens up to {max(msg.tokens)} with "
                    f"{msg.logits.shape} logits does not fit vocab size {v}"
                )
            commit = self._verify(mirror, msg, config, noise, len(prompt))
            ledger.note_round(n, commit.accept_count, commit.replacement is not None)
            conn.send_message(commit)

    def _verify(
        self,
        mirror: list[int],
        draft: DraftBatch,
        config: GenerationConfig,
        noise: Iterator,
        prompt_len: int,
    ) -> Commit:
        """Accept the agreeing prefix of a draft; replace the first divergence.

        One :meth:`~offsetlm.offset.OffsetProxy.offsets` call gives every
        drafted position's offset, bit for bit ``generate_adapted``'s. Each
        position then picks from the draft's black-box row plus its offset by
        ``adapted_next_token`` with the next vector of ``noise``; the token is appended to ``mirror``, and the
        walk stops at the first one that differs from the draft. On return
        ``mirror`` holds the committed tokens; when a forward raises, it is
        rolled back to its length on entry.
        """
        start = len(mirror)
        tokens, rows = draft.tokens, draft.logits
        accept, replacement = len(tokens), None
        try:
            # every window the walk can reach: the mirror's tail, then the draft
            reach = mirror[-self.proxy.window:] + list(tokens[:-1])
            offsets = self.proxy.offsets(reach, len(tokens))
            for i in range(len(tokens)):
                tok = adapted_next_token(rows[i], offsets[i], config, next(noise))
                mirror.append(tok)
                if tok != tokens[i]:
                    accept, replacement = i, tok
                    break
        except BaseException:
            del mirror[start:]
            raise
        done = finished(mirror, prompt_len, config.max_new_tokens, self.vocab.eos_id)
        return Commit(draft.session_id, accept, replacement, done)

    def run_per_token(self, prompt: list[int], config: GenerationConfig) -> list[int]:
        """One round trip per committed token: the draft-length-1 loop."""
        return self.run_speculative(prompt, config, draft_len=1)

    # -- server-side modes ----------------------------------------------------

    def run_transfer(self, prompt: list[int], config: GenerationConfig) -> list[int]:
        """Upload the adapter, then let the server generate entirely locally."""
        if self.base_proxy is None or self.adapter is None:
            raise ValueError("transfer mode needs a base proxy and an adapter")
        self.conn.send_message(
            UploadAdapter(
                adapter_bytes=encode_adapter(self.adapter),
                base_fingerprint=self.base_proxy.fingerprint(),
            )
        )
        ack = self._recv()
        if not (isinstance(ack, HelloAck) and ack.accept):
            raise OutOfSyncError(f"adapter upload not acknowledged: {ack!r}")
        return self._server_generate(prompt, config, FLAVOR_ADAPTED)

    def run_api(self, prompt: list[int], config: GenerationConfig) -> list[int]:
        """Pure black-box generation on the server; no proxies involved."""
        return self._server_generate(prompt, config, FLAVOR_BLACKBOX)

    def _server_generate(
        self, prompt: list[int], config: GenerationConfig, flavor: int
    ) -> list[int]:
        session_id = next(self._session_ids)
        self.conn.send_message(ServerGenerate(session_id, tuple(prompt), flavor, config))
        return list(self._reply(session_id, GenerationResult).tokens)


# ---------------------------------------------------------------------------
# Wiring helpers
# ---------------------------------------------------------------------------


def serve_channel(server: Server, channel) -> threading.Thread:
    """Serve one already-connected channel on a background daemon thread."""
    conn = FramedConnection(channel, side="server")
    thread = threading.Thread(target=server.serve_connection, args=(conn,), daemon=True)
    thread.start()
    return thread


class InlineServer:
    """A connection loop stepped by its caller, one message and its reply a step.

    It drives :func:`connect_in_process` on the client's thread and every
    connection of a :class:`SocketServer` on its service thread; ``is_alive``
    and ``join`` stand in for those of a thread serving one connection.
    """

    def __init__(self, loop: Iterator[None], channel: MemoryChannel) -> None:
        self._loop: Iterator[None] | None = loop
        self._channel = channel

    def step(self) -> bool:
        """Serve the next message the client has sent; False when the loop has ended or has
        nothing to read yet. An exception that escapes the loop ends it and is raised."""
        if self._loop is None or not self._channel.readable():
            return False
        try:
            next(self._loop)
        except StopIteration:
            self._loop = None  # frees the loop's connection and session
        except BaseException:
            self._loop = None
            raise
        return True

    def is_alive(self) -> bool:
        return self._loop is not None

    def join(self, timeout: float | None = None) -> None:
        """Serve every message already sent; once the client has closed, run the loop to its end.

        Nothing runs elsewhere, so ``timeout`` has nothing to wait for.
        """
        while self.step():
            pass


def _serve_inline(server: Server) -> tuple[MemoryChannel, InlineServer]:
    """One end of a memory channel pair, and the handle that runs ``server``'s loop on the other."""
    near_end, server_end = memory_channel_pair()
    return near_end, InlineServer(server.connection_loop(FramedConnection(server_end, side="server")),
                                  server_end)


def connect_in_process(
    server: Server, ledger: CostLedger | None = None
) -> tuple[FramedConnection, InlineServer]:
    """A connection to ``server`` whose server end runs inline, on the caller's thread.

    The ends share a :func:`~offsetlm.transport.memory_channel_pair`. A client
    read that finds too few bytes runs :meth:`Server.connection_loop` up to its
    next reply, so no thread, socket or wait sits between the two sides; every
    frame is still encoded, decoded and billed as over a socket. ``ledger``
    bills the client end; the server end keeps its own. The handle's ``join``
    runs the server to its end once the client has closed.
    """
    client_end, handle = _serve_inline(server)
    client_end.pump = handle.step
    return FramedConnection(client_end, side="client", ledger=ledger), handle


class _Accepted:
    """One accepted socket of a :class:`SocketServer`, relayed to an inline connection loop.

    ``requests`` holds what the socket delivered and the loop has not read,
    ``replies`` what the loop sent and the socket has not taken. The loop is
    stepped only when no reply waits and the step's reads are all in
    ``requests`` or the peer has closed; the socket is read only while no
    reply waits, so a peer that stops reading stops being served.
    """

    def __init__(self, server: Server, sock: socket.socket, selector: selectors.BaseSelector) -> None:
        sock.setblocking(False)
        with contextlib.suppress(OSError):  # a peer that has already reset it is seen on its first read
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock, self.selector = sock, selector
        self.wire, self.loop = _serve_inline(server)
        self.requests, self.replies = self.wire.outbound, self.wire.inbound
        self.at = len(PREAMBLE)  # where the next step's frame starts: past the preamble, at first
        self.eof = False  # the peer sends no more
        self.events = selectors.EVENT_READ
        selector.register(sock, self.events, self)

    def on_event(self, mask: int) -> None:
        if mask & selectors.EVENT_WRITE:
            self.flush()
        if mask & selectors.EVENT_READ:
            try:
                chunk = self.sock.recv(1 << 16)
            except BlockingIOError:
                return
            except OSError:
                chunk = b""
            if not chunk:
                self.eof = True
            elif self.loop.is_alive():  # an ended loop reads nothing more
                self.wire.send(chunk)

    def buffered(self) -> bool:
        """Whether ``requests`` holds all the next step reads: at first the preamble, then a frame.

        A preamble other than :data:`PREAMBLE`, or a frame header announcing
        more than ``MAX_PAYLOAD_LEN`` bytes, is refused without reading on.
        """
        buf, at = self.requests, self.at
        if at and len(buf) >= at and not buf.startswith(PREAMBLE):
            return True
        if len(buf) < at + FRAME_HEADER_LEN:
            return False
        (size,) = U32.unpack_from(buf, at)
        return size > MAX_PAYLOAD_LEN or len(buf) >= at + FRAME_HEADER_LEN + size

    def runnable(self) -> bool:
        """Whether the loop can step now: no reply waits, and the step's reads are buffered or
        the peer has closed."""
        return not self.replies and self.loop.is_alive() and (self.eof or self.buffered())

    def advance(self) -> bool:
        """Step the loop once if it can run; True when it can run again before the socket stirs.

        Otherwise wait on the socket for what the connection needs next, or
        close it once the loop has ended and its last reply has been taken.
        """
        if self.runnable():
            if not self.buffered():
                self.wire.close()  # the peer has closed mid-frame: the next read ends the loop
            try:
                self.loop.step()
            except Exception:  # logged by the loop; it ends only this connection
                self.replies.clear()
            self.at = 0
            self.flush()
            if self.runnable():
                return True
        if self.replies:
            self._wait_for(selectors.EVENT_WRITE)
        elif self.loop.is_alive() and not self.eof:
            self._wait_for(selectors.EVENT_READ)
        else:
            self.selector.unregister(self.sock)
            with contextlib.suppress(OSError):
                self.sock.shutdown(socket.SHUT_RDWR)
            self.sock.close()
        return False

    def _wait_for(self, events: int) -> None:
        if events != self.events:
            self.selector.modify(self.sock, events, self)
            self.events = events

    def flush(self) -> None:
        """Send as much of ``replies`` as the socket takes now."""
        out = self.replies
        try:
            while out:
                del out[: self.sock.send(out)]
        except BlockingIOError:
            pass
        except OSError:  # the peer has gone: nothing more reaches it
            out.clear()
            self.eof = True


class SocketServer:
    """Loopback/TCP front end: one service thread steps every accepted connection.

    The thread waits in one ``selectors`` loop over the listener and every
    accepted socket, all non-blocking. Each socket is relayed to its own
    :meth:`Server.connection_loop` over a memory channel pair, stepped by an
    :class:`InlineServer` once the step's reads have arrived whole. A reply
    the socket cannot take yet waits in that connection's buffer, and the
    connection is neither read nor stepped until the buffer drains, so a peer
    that stalls mid-frame or never reads holds up no other connection; an
    exception that escapes a step closes only its own connection. Messages
    are served one at a time, in the order their connections become ready,
    so a long request delays the replies of every other connection.

    ``host`` is an IPv4 or IPv6 address or a name; a literal holding ``:``
    listens on IPv6. ``address`` is the bound ``(host, port)``.
    """

    def __init__(self, server: Server, host: str = "127.0.0.1", port: int = 0) -> None:
        self.server = server
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        self._listener = socket.create_server((host, port), family=family)
        self._listener.setblocking(False)
        self.address = self._listener.getsockname()[:2]  # IPv6 adds flow info and scope id
        self._wake, self._waker = socket.socketpair()  # close() wakes the service thread through it
        self._wake.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._selector.register(self._wake, selectors.EVENT_READ)
        self._closing = False
        self.service_thread = threading.Thread(
            target=self._serve, name=f"serve_connections on {self.address}", daemon=True)

    def start(self) -> "SocketServer":
        self.service_thread.start()
        return self

    def _serve(self) -> None:
        """Accept and step connections until close(), then until the last connection ends."""
        selector = self._selector
        ready: dict[_Accepted, None] = {}  # connections that may step before their socket stirs
        listening = True
        try:
            while listening or len(selector.get_map()) > 1:  # the wake socket stays registered
                for key, mask in selector.select(0 if ready else None):
                    if key.fileobj is self._listener:
                        try:
                            _Accepted(self.server, self._listener.accept()[0], selector)
                        except (BlockingIOError, ConnectionAbortedError):
                            pass
                        except OSError:  # such as no file descriptor left
                            log.exception("accept failed: the server stops accepting")
                            self._closing = True
                    elif key.fileobj is self._wake:
                        with contextlib.suppress(BlockingIOError):
                            self._wake.recv(64)
                    else:
                        key.data.on_event(mask)
                        ready[key.data] = None
                if self._closing and listening:
                    selector.unregister(self._listener)
                    self._listener.close()
                    listening = False
                for conn in list(ready):  # one step each, in turn
                    if not conn.advance():
                        del ready[conn]
        finally:
            for key in list(selector.get_map().values()):
                key.fileobj.close()
            selector.close()
            self._waker.close()

    def close(self) -> None:
        """Stop accepting; already accepted connections run on, and the service
        thread ends with the last of them."""
        self._closing = True
        if self.service_thread.ident is None:  # never started: the sockets are ours to close
            for sock in (self._listener, self._wake, self._waker):
                sock.close()
            self._selector.close()
            return
        with contextlib.suppress(OSError):  # the service thread has already ended
            self._waker.send(b"\0")

    def __enter__(self) -> "SocketServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()


def connect_socket(
    host: str, port: int, ledger: CostLedger | None = None
) -> FramedConnection:
    """A TCP connection to a :class:`SocketServer`, billed to ``ledger`` (a fresh one if None)."""
    sock = socket.create_connection((host, port))
    return FramedConnection(SocketChannel(sock), side="client", ledger=ledger)
