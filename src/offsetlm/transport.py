"""Byte-level transport: message codec, framing, channels, and accounting.

Wire conventions (little-endian throughout):

* every message is one frame: a 32-bit payload length followed by the
  payload, capped at 64 MiB;
* the payload is a one-byte message tag, then the message's fields in wire
  order; :data:`MESSAGE_LAYOUTS` is the one place each message's tag, ledger
  category and fields are declared, and :data:`FIELD_KINDS` says how each
  kind of field is written and read;
* a connection opens with the 5-byte preamble ``b"PRDA"`` + version.

Decoding is strict: truncation, unknown tags, non-UTF-8 text, and invariant
violations all raise :class:`MalformedPayloadError` carrying the byte offset
of the failure — a decoded message is always well-formed.

The :class:`CostLedger` attributes every frame (header included) to a
category — ``data_transfer`` for prompt shipping, ``model_transfer`` for
adapter uploads, ``inference`` for draft/commit/result traffic — and a
direction; handshake traffic is tallied separately. Token counters obey
``tokens_committed + tokens_dropped == tokens_drafted + replacements``.
"""

from __future__ import annotations

import socket
import struct
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, NamedTuple

import numpy as np

from .core import GREEDY, STOCHASTIC, GenerationConfig
from .messages import (
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

FRAME_HEADER_LEN = 4
_U8, _U16, _U32, _U64 = (struct.Struct(fmt) for fmt in ("<B", "<H", "<I", "<Q"))
_ROW = np.dtype("<f4")  # one logit of a draft row
MAX_PAYLOAD_LEN = 64 * 1024 * 1024

PREAMBLE_MAGIC = b"PRDA"
PREAMBLE_VERSION = 1
PREAMBLE = PREAMBLE_MAGIC + bytes([PREAMBLE_VERSION])

CLIENT_TO_SERVER = "client_to_server"
SERVER_TO_CLIENT = "server_to_client"
DIRECTIONS = (CLIENT_TO_SERVER, SERVER_TO_CLIENT)

CAT_DATA = "data_transfer"
CAT_MODEL = "model_transfer"
CAT_INFERENCE = "inference"
CAT_HANDSHAKE = "handshake"
CATEGORIES = (CAT_DATA, CAT_MODEL, CAT_INFERENCE, CAT_HANDSHAKE)


class MalformedPayloadError(ValueError):
    """A payload failed to decode; ``offset`` is the failing byte position."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class ConnectionClosedError(Exception):
    """The peer closed the channel mid-conversation."""


class FrameTooLargeError(ValueError):
    """A frame length exceeded the 64 MiB payload cap."""


# ---------------------------------------------------------------------------
# Message codec
# ---------------------------------------------------------------------------


# Each field reader takes the payload, the offset of its field and the values
# of the message read so far, and returns its value and the offset after it.


def _truncated(data: bytes, at: int, n: int) -> MalformedPayloadError:
    return MalformedPayloadError(f"truncated: needed {n} bytes, {len(data) - at} left", len(data))


def _read_fixed(s: struct.Struct, data: bytes, at: int, _=None) -> tuple[Any, int]:
    """The one value of struct ``s`` at ``at``."""
    end = at + s.size
    if end > len(data):
        raise _truncated(data, at, s.size)
    return s.unpack_from(data, at)[0], end


def _read_u32s(data: bytes, at: int, n: int) -> tuple[tuple[int, ...], int]:
    end = at + 4 * n
    if end > len(data):
        raise _truncated(data, at, 4 * n)
    return struct.unpack_from(f"<{n}I", data, at), end


def _read_sized(head: struct.Struct, data: bytes, at: int, _=None) -> tuple[bytes, int]:
    """A byte count of struct ``head``, then that many bytes."""
    n, at = _read_fixed(head, data, at)
    end = at + n
    if end > len(data):
        raise _truncated(data, at, n)
    return data[at:end], end


def _read_flag(data: bytes, at: int, _=None) -> tuple[bool, int]:
    if at >= len(data):
        raise _truncated(data, at, 1)
    b = data[at]
    if b > 1:
        raise MalformedPayloadError(f"flag byte must be 0 or 1, got {b}", at)
    return b == 1, at + 1


def _pack_text(text: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ValueError("text field exceeds 16-bit length")
    return _U16.pack(len(raw)) + raw


def _read_text(data: bytes, at: int, _) -> tuple[str, int]:
    raw, end = _read_sized(_U16, data, at)
    try:
        return raw.decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise MalformedPayloadError(f"invalid UTF-8 text: {exc}", end - len(raw)) from exc


def _read_tokens(data: bytes, at: int, _) -> tuple[list[int], int]:
    n, at = _read_fixed(_U32, data, at)
    tokens, end = _read_u32s(data, at, n)
    return list(tokens), end


def _read_opt_u32(data: bytes, at: int, _) -> tuple[int | None, int]:
    present, at = _read_flag(data, at)
    return _read_fixed(_U32, data, at) if present else (None, at)


def _read_draft_tokens(data: bytes, at: int, _) -> tuple[tuple[int, ...], int]:
    n, at = _read_fixed(_U16, data, at)
    return _read_u32s(data, at, n)


def _read_draft_rows(data: bytes, at: int, values: list) -> tuple[np.ndarray, int]:
    n, rest = len(values[-1]), len(data) - at  # values[-1]: the token ids just read
    if n < 1:
        raise MalformedPayloadError("draft batch token count must be at least 1", at)
    if rest == 0 or rest % (4 * n) != 0:
        raise MalformedPayloadError(
            f"draft logits block of {rest} bytes does not divide into {n} float32 rows", at)
    # the slice copies the rows out of the frame, so the array is aligned
    return np.frombuffer(data[at:], _ROW).reshape(n, rest // (4 * n)), len(data)


_SAMPLING_MODES = (GREEDY, STOCHASTIC)  # a config's mode byte indexes this
_CONFIG = struct.Struct("<BfQI")


def _pack_config(c: GenerationConfig) -> bytes:
    return _CONFIG.pack(_SAMPLING_MODES.index(c.mode), c.temperature, c.seed, c.max_new_tokens)


def _read_config(data: bytes, at: int, _) -> tuple[GenerationConfig, int]:
    end = at + _CONFIG.size
    if end > len(data):
        raise _truncated(data, at, _CONFIG.size)
    mode, temperature, seed, max_new_tokens = _CONFIG.unpack_from(data, at)
    if mode >= len(_SAMPLING_MODES):
        raise MalformedPayloadError(f"unknown sampling mode byte {mode}", at)
    try:
        return GenerationConfig(max_new_tokens, _SAMPLING_MODES[mode], temperature, seed), end
    except ValueError as exc:
        raise MalformedPayloadError(f"message invariant violated: {exc}", end) from exc


class FieldKind(NamedTuple):
    write: Callable[[Any], bytes]
    read: Callable[[bytes, int, list], tuple[Any, int]]


FIELD_KINDS = {
    "u8": FieldKind(_U8.pack, partial(_read_fixed, _U8)),
    "u32": FieldKind(_U32.pack, partial(_read_fixed, _U32)),
    "u64": FieldKind(_U64.pack, partial(_read_fixed, _U64)),
    "flag": FieldKind(lambda v: b"\x01" if v else b"\x00", _read_flag),
    "text": FieldKind(_pack_text, _read_text),
    "tokens": FieldKind(lambda v: struct.pack(f"<I{len(v)}I", len(v), *v), _read_tokens),
    # u32 byte length, then the bytes
    "blob": FieldKind(lambda v: _U32.pack(len(v)) + v, partial(_read_sized, _U32)),
    # presence flag, then a u32 when present
    "opt_u32": FieldKind(lambda v: b"\x00" if v is None else struct.pack("<BI", 1, v), _read_opt_u32),
    # u16 count, then that many u32 token ids
    "draft_tokens": FieldKind(lambda v: struct.pack(f"<H{len(v)}I", len(v), *v), _read_draft_tokens),
    # binary32 rows to the end of the payload, one per drafted token (at
    # least one); the decoder infers the row width from the bytes left
    "draft_rows": FieldKind(lambda v: np.asarray(v, dtype=_ROW).tobytes(), _read_draft_rows),
    # a GenerationConfig: mode u8, temperature f32, seed u64, max_new_tokens u32
    "config": FieldKind(_pack_config, _read_config),
}


class MessageLayout(NamedTuple):
    tag: int
    category: str
    fields: tuple[tuple[str, str], ...]  # (attribute, field kind) in wire order
    # makes the message from its field values in wire order; the class by
    # default. The DraftBatch readers already give its parts the batch's
    # shape, so its builder, from_rows, runs only the check they leave open
    build: Callable[..., Any] | None = None


MESSAGE_LAYOUTS: dict[type, MessageLayout] = {
    Hello: MessageLayout(1, CAT_HANDSHAKE, (
        ("protocol_version", "u32"), ("vocab_size", "u32"), ("eos_id", "u32"), ("bos_id", "u32"),
    )),
    HelloAck: MessageLayout(2, CAT_HANDSHAKE, (("accept", "flag"), ("reason", "text"))),
    StartSession: MessageLayout(3, CAT_DATA, (
        ("session_id", "u64"), ("prompt", "tokens"), ("draft_len", "u32"), ("config", "config"),
    )),
    DraftBatch: MessageLayout(4, CAT_INFERENCE, (
        ("session_id", "u64"), ("tokens", "draft_tokens"), ("logits", "draft_rows"),
    ), DraftBatch.from_rows),
    Commit: MessageLayout(5, CAT_INFERENCE, (
        ("session_id", "u64"), ("accept_count", "u32"), ("replacement", "opt_u32"), ("done", "flag"),
    )),
    UploadAdapter: MessageLayout(6, CAT_MODEL, (("adapter_bytes", "blob"), ("base_fingerprint", "u64"))),
    ServerGenerate: MessageLayout(7, CAT_DATA, (
        ("session_id", "u64"), ("prompt", "tokens"), ("flavor", "u8"), ("config", "config"),
    )),
    GenerationResult: MessageLayout(8, CAT_INFERENCE, (("session_id", "u64"), ("tokens", "tokens"))),
    ProtocolError: MessageLayout(9, CAT_INFERENCE, (("code", "text"), ("text", "text"))),
}

# MESSAGE_LAYOUTS with each field's writer and reader looked up once, by class and by tag
_WRITERS = {cls: (bytes((layout.tag,)), [(name, FIELD_KINDS[kind].write) for name, kind in layout.fields])
            for cls, layout in MESSAGE_LAYOUTS.items()}
_BY_TAG = {layout.tag: (layout.build or cls, [FIELD_KINDS[kind].read for _, kind in layout.fields])
           for cls, layout in MESSAGE_LAYOUTS.items()}


def encode_message(msg: Message) -> bytes:
    """Serialize one message to its tagged payload bytes."""
    writer = _WRITERS.get(type(msg))
    if writer is None:
        raise TypeError(f"cannot encode object of type {type(msg).__name__}")
    tag, fields = writer
    return b"".join([tag] + [write(getattr(msg, name)) for name, write in fields])


def decode_message(data: bytes) -> Message:
    """Parse payload bytes back into a message, validating as it goes."""
    if not data:
        raise MalformedPayloadError("empty payload", 0)
    entry = _BY_TAG.get(data[0])
    if entry is None:
        raise MalformedPayloadError(f"unknown message tag {data[0]}", 0)
    build, reads = entry
    values: list[Any] = []
    at = 1
    try:
        for read in reads:
            value, at = read(data, at, values)
            values.append(value)
        msg = build(*values)
    except ValueError as exc:
        if isinstance(exc, MalformedPayloadError):
            raise
        raise MalformedPayloadError(f"message invariant violated: {exc}", at) from exc
    if at != len(data):
        raise MalformedPayloadError(f"{len(data) - at} trailing bytes", at)
    return msg


# a one-row, one-logit batch minus its row: the tag, session id and u16 count
_DRAFT_BATCH_HEAD_LEN = len(encode_message(DraftBatch(0, (0,), np.zeros((1, 1))))) - 8


# most response tokens one GenerationResult frame carries: its head, then 4 bytes a token
MAX_RESULT_TOKENS = (MAX_PAYLOAD_LEN - len(encode_message(GenerationResult(0, ())))) // 4


def max_draft_rows(vocab_size: int) -> int:
    """Most drafted tokens one DraftBatch frame can carry at ``vocab_size``.

    The token count is a u16, and each row adds a u32 token and
    ``vocab_size`` float32 logits under the payload cap.
    """
    per_row = 4 + 4 * vocab_size
    return min(0xFFFF, (MAX_PAYLOAD_LEN - _DRAFT_BATCH_HEAD_LEN) // per_row)


# ---------------------------------------------------------------------------
# Byte channels
# ---------------------------------------------------------------------------


class ByteChannel(ABC):
    """A reliable ordered byte stream with exact-read semantics.

    :class:`SocketChannel` runs over a TCP socket or one end of an in-process
    socket pair (:func:`queue_channel_pair`); :class:`MemoryChannel` over
    buffers whose two ends take turns on one thread (:func:`memory_channel_pair`).
    """

    @abstractmethod
    def send(self, data: bytes) -> None: ...

    @abstractmethod
    def recv_exact(self, n: int) -> bytes: ...

    @abstractmethod
    def close(self) -> None: ...


class SocketChannel(ByteChannel):
    """Stream-socket endpoint: TCP, or one end of a local socket pair."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._buf = bytearray()  # read ahead: a frame that has fully arrived costs one recv
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # not a TCP socket

    def send(self, data: bytes) -> None:
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise ConnectionClosedError(f"socket send failed: {exc}") from exc

    def recv_exact(self, n: int) -> bytes:
        buf = self._buf
        while len(buf) < n:
            try:
                chunk = self._sock.recv(max(n - len(buf), 1 << 16))
            except OSError as exc:
                raise ConnectionClosedError(f"socket recv failed: {exc}") from exc
            if chunk == b"":
                raise ConnectionClosedError("peer closed the socket")
            buf += chunk
        data = bytes(memoryview(buf)[:n])  # one copy; the view is gone before the buffer shrinks
        del buf[:n]
        return data

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def queue_channel_pair(timeout: float = 30.0) -> tuple[SocketChannel, SocketChannel]:
    """A connected in-process socket pair (client end, server end).

    Both ends are :class:`SocketChannel` over one ``socket.socketpair()``, so
    in-process and TCP connections run the same channel code. A read that
    waits longer than ``timeout`` seconds raises :class:`ConnectionClosedError`.
    """
    ends = socket.socketpair()
    for sock in ends:
        sock.settimeout(timeout)
    return SocketChannel(ends[0]), SocketChannel(ends[1])


class _Link:
    """What the two ends of a memory channel pair share: whether either end has closed."""

    __slots__ = ("closed",)

    def __init__(self) -> None:
        self.closed = False


class MemoryChannel(ByteChannel):
    """One end of :func:`memory_channel_pair`: a send appends to the peer's buffer.

    The ends take turns on one thread. A read that finds too few bytes calls
    ``pump()``, which runs the peer a step and returns False when the peer
    has nothing to do; the read then raises :class:`ConnectionClosedError`.
    So does a read past the bytes sent before either end closed, and any
    send after a close.
    """

    def __init__(self, inbound: bytearray, outbound: bytearray, link: _Link) -> None:
        self._in = inbound
        self._out = outbound
        self._link = link
        self.pump: Callable[[], bool] | None = None

    def readable(self) -> bool:
        """Whether a read can make progress: bytes are waiting, or the pair has closed."""
        return bool(self._in) or self._link.closed

    def send(self, data: bytes) -> None:
        if self._link.closed:
            raise ConnectionClosedError("memory channel closed")
        self._out += data

    def recv_exact(self, n: int) -> bytes:
        buf = self._in
        while len(buf) < n:
            if self._link.closed or self.pump is None or not self.pump():
                raise ConnectionClosedError(
                    "memory channel closed" if self._link.closed else "peer has nothing to send")
        data = bytes(memoryview(buf)[:n])  # one copy; the view is gone before the buffer shrinks
        del buf[:n]
        return data

    def close(self) -> None:
        self._link.closed = True


def memory_channel_pair() -> tuple[MemoryChannel, MemoryChannel]:
    """Two connected :class:`MemoryChannel` ends, with no ``pump`` yet.

    Nothing links one end to the other but their buffers, so dropping both
    ends frees the pair without the cycle collector.
    """
    a_to_b, b_to_a, link = bytearray(), bytearray(), _Link()
    return MemoryChannel(b_to_a, a_to_b, link), MemoryChannel(a_to_b, b_to_a, link)


# ---------------------------------------------------------------------------
# Cost accounting
# ---------------------------------------------------------------------------


@dataclass
class CostLedger:
    """Monotone byte and token counters for one client/server conversation."""

    bytes_by: dict[tuple[str, str], int] = field(default_factory=dict)
    round_count: int = 0
    tokens_drafted: int = 0
    tokens_committed: int = 0
    tokens_dropped: int = 0
    replacements: int = 0

    @staticmethod
    def key(category: str, direction: str) -> tuple[str, str]:
        """The ``bytes_by`` key of a category and a direction, which must be known labels."""
        if category not in CATEGORIES:
            raise ValueError(f"unknown ledger category {category!r}")
        if direction not in DIRECTIONS:
            raise ValueError(f"unknown ledger direction {direction!r}")
        return category, direction

    def record_frame(self, category: str, direction: str, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("byte count must be non-negative")
        self._add_bytes(self.key(category, direction), nbytes)

    def _add_bytes(self, key: tuple[str, str], nbytes: int) -> None:
        """Bill ``nbytes`` (not negative) to ``key``, a :meth:`key` checked beforehand."""
        self.bytes_by[key] = self.bytes_by.get(key, 0) + nbytes

    def bytes_total(self, category: str, direction: str | None = None) -> int:
        if direction is not None:
            return self.bytes_by.get((category, direction), 0)
        return sum(self.bytes_by.get((category, d), 0) for d in DIRECTIONS)

    def note_draft(self, drafted: int) -> None:
        self.round_count += 1
        self.tokens_drafted += drafted

    def note_commit(self, accepted: int, drafted: int, replaced: bool) -> None:
        self.tokens_committed += accepted + (1 if replaced else 0)
        self.tokens_dropped += drafted - accepted
        self.replacements += 1 if replaced else 0

    def acceptance_rate(self) -> float | None:
        """Fraction of drafted tokens committed verbatim; None before any draft."""
        if self.tokens_drafted == 0:
            return None
        return (self.tokens_drafted - self.tokens_dropped) / self.tokens_drafted

    def check_token_flow(self) -> None:
        if self.tokens_committed + self.tokens_dropped != self.tokens_drafted + self.replacements:
            raise AssertionError(
                "ledger token flow violated: "
                f"committed {self.tokens_committed} + dropped {self.tokens_dropped} "
                f"!= drafted {self.tokens_drafted} + replacements {self.replacements}"
            )


def classify_message(msg: Message) -> str:
    """Ledger category for a message type."""
    return MESSAGE_LAYOUTS[type(msg)].category


def ledger_report(ledger: CostLedger) -> str:
    """Line-delimited field=value report of byte totals and token counters."""
    lines = []
    for category in CATEGORIES:
        for direction in DIRECTIONS:
            lines.append(
                f"record=ledger_bytes category={category} direction={direction} "
                f"bytes={ledger.bytes_by.get((category, direction), 0)}"
            )
    for name in ("round_count", "tokens_drafted", "tokens_committed", "tokens_dropped", "replacements"):
        lines.append(f"record=ledger_counter name={name} value={getattr(ledger, name)}")
    rate = ledger.acceptance_rate()
    if rate is not None:
        lines.append(f"record=ledger_ratio name=acceptance_rate value={rate:.6f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Framed connections
# ---------------------------------------------------------------------------


class FramedConnection:
    """Length-prefixed message exchange over a byte channel, with accounting.

    ``side`` ("client" or "server") fixes the direction label attributed to
    sends; receives get the opposite label. Every connection bills each frame
    it sends or receives to its ``ledger``: a fresh :class:`CostLedger` unless
    the caller passes one to share with the protocol layer's token counts.
    """

    def __init__(self, channel: ByteChannel, side: str = "client", ledger: CostLedger | None = None) -> None:
        if side not in ("client", "server"):
            raise ValueError("side must be 'client' or 'server'")
        self.channel = channel
        self.side = side
        self.ledger = ledger if ledger is not None else CostLedger()
        sent, received = DIRECTIONS if side == "client" else DIRECTIONS[::-1]
        # every ledger key this connection bills, by message class, checked once here
        self._sent = {cls: CostLedger.key(layout.category, sent) for cls, layout in MESSAGE_LAYOUTS.items()}
        self._received = {cls: CostLedger.key(layout.category, received)
                          for cls, layout in MESSAGE_LAYOUTS.items()}
        self._preamble_keys = CostLedger.key(CAT_HANDSHAKE, sent), CostLedger.key(CAT_HANDSHAKE, received)

    def send_preamble(self) -> None:
        self.channel.send(PREAMBLE)
        self.ledger._add_bytes(self._preamble_keys[0], len(PREAMBLE))

    def expect_preamble(self) -> None:
        raw = self.channel.recv_exact(len(PREAMBLE))
        if raw[:4] != PREAMBLE_MAGIC:
            raise MalformedPayloadError(f"bad connection magic {raw[:4]!r}", 0)
        if raw[4] != PREAMBLE_VERSION:
            raise MalformedPayloadError(f"unsupported protocol version {raw[4]}", 4)
        self.ledger._add_bytes(self._preamble_keys[1], len(PREAMBLE))

    def send_message(self, msg: Message) -> None:
        payload = encode_message(msg)
        size = len(payload)
        if size > MAX_PAYLOAD_LEN:
            raise FrameTooLargeError(f"payload of {size} bytes exceeds the {MAX_PAYLOAD_LEN}-byte cap")
        self.channel.send(_U32.pack(size) + payload)
        self.ledger._add_bytes(self._sent[type(msg)], FRAME_HEADER_LEN + size)

    def recv_message(self) -> Message:
        (length,) = _U32.unpack(self.channel.recv_exact(FRAME_HEADER_LEN))
        if length > MAX_PAYLOAD_LEN:
            raise FrameTooLargeError(
                f"incoming frame of {length} bytes exceeds the {MAX_PAYLOAD_LEN}-byte cap"
            )
        msg = decode_message(self.channel.recv_exact(length))
        self.ledger._add_bytes(self._received[type(msg)], FRAME_HEADER_LEN + length)
        return msg

    def close(self) -> None:
        self.channel.close()


# ---------------------------------------------------------------------------
# Latency probing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatencyReport:
    """Wall-clock cost of one generation, normalized per response token.

    ``ms_per_token`` is None for an empty response, which has no per-token cost.
    """

    total_wall_time_s: float
    response_tokens: int
    ms_per_token: float | None


def latency_probe(run) -> LatencyReport:
    """Time ``run()`` (a complete post-handshake generation) wall-clock.

    ``run`` must return the response token list.
    """
    t0 = time.perf_counter()
    tokens = run()
    elapsed = time.perf_counter() - t0
    n = len(tokens)
    return LatencyReport(
        total_wall_time_s=elapsed,
        response_tokens=n,
        ms_per_token=1000.0 * elapsed / n if n else None,
    )


def latency_report(report: LatencyReport) -> str:
    """One ``record=latency`` line; ``ms_per_token`` is left out for an empty response."""
    line = (
        f"record=latency total_wall_time_s={report.total_wall_time_s:.6f} "
        f"response_tokens={report.response_tokens}"
    )
    if report.ms_per_token is None:
        return line
    return f"{line} ms_per_token={report.ms_per_token:.6f}"
