"""Byte-level transport: message codec, framing, channels, and accounting.

Wire conventions (little-endian throughout):

* every message is one frame: a 32-bit payload length followed by the
  payload, capped at 64 MiB;
* the payload is a one-byte message tag, then the message's fields in wire
  order; :data:`MESSAGE_LAYOUTS` is the one place each message's tag, ledger
  category and fields are declared, and :data:`FIELD_KINDS` says how each
  kind of field is written and read;
* a connection opens with the 5-byte preamble ``b"PRDA"`` + version.

Decoding is strict and reads through one :class:`~offsetlm.core.ByteReader`
per payload: truncation, unknown tags, non-UTF-8 text, and invariant
violations all raise :class:`MalformedPayloadError` carrying the byte offset
of the failure — a decoded message is always well-formed.

:class:`FramedConnection` is the one place bytes are billed: it adds every
frame (header included) to its :class:`CostLedger` under a category —
``data_transfer`` for prompt shipping, ``model_transfer`` for adapter
uploads, ``inference`` for draft/commit/result traffic, ``handshake`` for the
preamble, ``Hello`` and ``HelloAck`` — and a direction, looked up in a table
built at import. Token counters obey
``tokens_committed + tokens_dropped == tokens_drafted + replacements``.
"""

from __future__ import annotations

import socket
import struct
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

import numpy as np

from .core import GREEDY, STOCHASTIC, U8, U16, U32, U64, ByteReader, GenerationConfig
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


# Each field reader takes the message's ByteReader, at its field, and the
# values of the message read so far, and returns the field's value.


def _read_flag(r: ByteReader, _=None) -> bool:
    b = r.u8()
    if b > 1:
        raise r.fail(f"flag byte must be 0 or 1, got {b}", r.pos - 1)
    return b == 1


def _pack_text(text: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ValueError("text field exceeds 16-bit length")
    return U16.pack(len(raw)) + raw


def _read_text(r: ByteReader, _) -> str:
    raw = r.take(r.u16())
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise r.fail(f"invalid UTF-8 text: {exc}", r.pos - len(raw)) from exc


def _read_draft_rows(r: ByteReader, values: list) -> np.ndarray:
    n, rest = len(values[-1]), len(r.data) - r.pos  # values[-1]: the token ids just read
    if n < 1:
        raise r.fail("draft batch token count must be at least 1")
    if rest == 0 or rest % (4 * n) != 0:
        raise r.fail(f"draft logits block of {rest} bytes does not divide into {n} float32 rows")
    # the rows are copied out of the frame, so the array is aligned
    return np.frombuffer(r.take(rest), _ROW).reshape(n, rest // (4 * n))


_SAMPLING_MODES = (GREEDY, STOCHASTIC)  # a config's mode byte indexes this
_CONFIG = struct.Struct("<BfQI")


def _pack_config(c: GenerationConfig) -> bytes:
    return _CONFIG.pack(_SAMPLING_MODES.index(c.mode), c.temperature, c.seed, c.max_new_tokens)


def _read_config(r: ByteReader, _) -> GenerationConfig:
    mode, temperature, seed, max_new_tokens = r.unpack(_CONFIG.format)
    if mode >= len(_SAMPLING_MODES):
        raise r.fail(f"unknown sampling mode byte {mode}", r.pos - _CONFIG.size)
    try:
        return GenerationConfig(max_new_tokens, _SAMPLING_MODES[mode], temperature, seed)
    except ValueError as exc:
        raise r.fail(f"message invariant violated: {exc}") from exc


class FieldKind(NamedTuple):
    write: Callable[[Any], bytes]
    read: Callable[[ByteReader, list], Any]


FIELD_KINDS = {
    "u8": FieldKind(U8.pack, lambda r, _: r.u8()),
    "u32": FieldKind(U32.pack, lambda r, _: r.u32()),
    "u64": FieldKind(U64.pack, lambda r, _: r.u64()),
    "flag": FieldKind(lambda v: b"\x01" if v else b"\x00", _read_flag),
    "text": FieldKind(_pack_text, _read_text),
    # u32 count, then that many u32 token ids
    "tokens": FieldKind(lambda v: struct.pack(f"<I{len(v)}I", len(v), *v),
                        lambda r, _: r.u32s(r.u32())),
    # u32 byte length, then the bytes
    "blob": FieldKind(lambda v: U32.pack(len(v)) + v, lambda r, _: r.take(r.u32())),
    # presence flag, then a u32 when present
    "opt_u32": FieldKind(lambda v: b"\x00" if v is None else struct.pack("<BI", 1, v),
                         lambda r, _: r.u32() if _read_flag(r) else None),
    # u16 count, then that many u32 token ids
    "draft_tokens": FieldKind(lambda v: struct.pack(f"<H{len(v)}I", len(v), *v),
                              lambda r, _: r.u32s(r.u16())),
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
    # shape, so its builder, from_rows, runs only the check they leave open;
    # the Commit and GenerationResult readers leave none open
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
    ), Commit.from_wire),
    UploadAdapter: MessageLayout(6, CAT_MODEL, (("adapter_bytes", "blob"), ("base_fingerprint", "u64"))),
    ServerGenerate: MessageLayout(7, CAT_DATA, (
        ("session_id", "u64"), ("prompt", "tokens"), ("flavor", "u8"), ("config", "config"),
    )),
    GenerationResult: MessageLayout(8, CAT_INFERENCE, (("session_id", "u64"), ("tokens", "tokens")),
                                    GenerationResult.from_wire),
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
    r = ByteReader(data, MalformedPayloadError, 1)
    values: list[Any] = []
    try:
        for read in reads:
            values.append(read(r, values))
        msg = build(*values)
    except ValueError as exc:
        if isinstance(exc, MalformedPayloadError):
            raise
        raise r.fail(f"message invariant violated: {exc}") from exc
    r.finish()
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
    send after a close. A driver that relays one end to a socket reads and
    trims its ``inbound`` and ``outbound`` buffers in place.
    """

    def __init__(self, inbound: bytearray, outbound: bytearray, link: _Link) -> None:
        self.inbound = inbound  # sent to this end and not read yet
        self.outbound = outbound  # sent by this end and not read yet
        self._link = link
        self.pump: Callable[[], bool] | None = None

    def readable(self) -> bool:
        """Whether a read can make progress: bytes are waiting, or the pair has closed."""
        return bool(self.inbound) or self._link.closed

    def send(self, data: bytes) -> None:
        if self._link.closed:
            raise ConnectionClosedError("memory channel closed")
        self.outbound += data

    def recv_exact(self, n: int) -> bytes:
        buf = self.inbound
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

    def bytes_total(self, category: str, direction: str | None = None) -> int:
        if direction is not None:
            return self.bytes_by.get((category, direction), 0)
        return sum(self.bytes_by.get((category, d), 0) for d in DIRECTIONS)

    def note_round(self, drafted: int, accepted: int, replaced: bool) -> None:
        """Count one draft round: ``accepted`` of ``drafted`` tokens taken, then a replacement or not."""
        self.round_count += 1
        self.tokens_drafted += drafted
        self.tokens_committed += accepted + replaced
        self.tokens_dropped += drafted - accepted
        self.replacements += replaced

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


# the CostLedger key of every frame that travels in a direction: by message
# class, and the preamble under PREAMBLE
_LEDGER_KEYS = {
    direction: {cls: (layout.category, direction) for cls, layout in MESSAGE_LAYOUTS.items()}
    | {PREAMBLE: (CAT_HANDSHAKE, direction)}
    for direction in DIRECTIONS
}


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
        self._sent, self._received = _LEDGER_KEYS[sent], _LEDGER_KEYS[received]

    def _bill(self, key: tuple[str, str], nbytes: int) -> None:
        by = self.ledger.bytes_by
        by[key] = by.get(key, 0) + nbytes

    def send_preamble(self) -> None:
        self.channel.send(PREAMBLE)
        self._bill(self._sent[PREAMBLE], len(PREAMBLE))

    def expect_preamble(self) -> None:
        raw = self.channel.recv_exact(len(PREAMBLE))
        if raw[:4] != PREAMBLE_MAGIC:
            raise MalformedPayloadError(f"bad connection magic {raw[:4]!r}", 0)
        if raw[4] != PREAMBLE_VERSION:
            raise MalformedPayloadError(f"unsupported protocol version {raw[4]}", 4)
        self._bill(self._received[PREAMBLE], len(PREAMBLE))

    def send_message(self, msg: Message) -> None:
        payload = encode_message(msg)
        size = len(payload)
        if size > MAX_PAYLOAD_LEN:
            raise FrameTooLargeError(f"payload of {size} bytes exceeds the {MAX_PAYLOAD_LEN}-byte cap")
        self.channel.send(U32.pack(size) + payload)
        self._bill(self._sent[type(msg)], FRAME_HEADER_LEN + size)

    def recv_message(self) -> Message:
        (length,) = U32.unpack(self.channel.recv_exact(FRAME_HEADER_LEN))
        if length > MAX_PAYLOAD_LEN:
            raise FrameTooLargeError(
                f"incoming frame of {length} bytes exceeds the {MAX_PAYLOAD_LEN}-byte cap"
            )
        msg = decode_message(self.channel.recv_exact(length))
        self._bill(self._received[type(msg)], FRAME_HEADER_LEN + length)
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
