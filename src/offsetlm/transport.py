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
from typing import Any, Callable, NamedTuple

import numpy as np

from .core import GREEDY, STOCHASTIC, ByteReader, GenerationConfig
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


def _pack_text(text: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ValueError("text field exceeds 16-bit length")
    return struct.pack("<H", len(raw)) + raw


def _read_draft_rows(r: ByteReader, fields: dict[str, Any]) -> np.ndarray:
    n, rest = len(fields["tokens"]), len(r.data) - r.pos
    if n < 1:
        raise r.fail("draft batch token count must be at least 1")
    if rest == 0 or rest % (4 * n) != 0:
        raise r.fail(f"draft logits block of {rest} bytes does not divide into {n} float32 rows")
    return r.array("<f4", n, rest // (4 * n))


_SAMPLING_MODES = (GREEDY, STOCHASTIC)  # a config's mode byte indexes this
_CONFIG = struct.Struct("<BfQI")


def _pack_config(c: GenerationConfig) -> bytes:
    return _CONFIG.pack(_SAMPLING_MODES.index(c.mode), c.temperature, c.seed, c.max_new_tokens)


def _read_config(r: ByteReader, _) -> GenerationConfig:
    at = r.pos
    mode, temperature, seed, max_new_tokens = r.unpack(_CONFIG.format)
    if mode >= len(_SAMPLING_MODES):
        raise r.fail(f"unknown sampling mode byte {mode}", at)
    return GenerationConfig(max_new_tokens, _SAMPLING_MODES[mode], temperature, seed)


class FieldKind(NamedTuple):
    write: Callable[[Any], bytes]
    read: Callable[[ByteReader, dict[str, Any]], Any]  # also given the fields read so far


FIELD_KINDS = {
    "u8": FieldKind(struct.Struct("<B").pack, lambda r, _: r.u8()),
    "u32": FieldKind(struct.Struct("<I").pack, lambda r, _: r.u32()),
    "u64": FieldKind(struct.Struct("<Q").pack, lambda r, _: r.u64()),
    "flag": FieldKind(lambda v: b"\x01" if v else b"\x00", lambda r, _: r.flag()),
    "text": FieldKind(_pack_text, lambda r, _: r.text()),
    "tokens": FieldKind(lambda v: struct.pack(f"<I{len(v)}I", len(v), *v), lambda r, _: r.tokens()),
    # u32 byte length, then the bytes
    "blob": FieldKind(lambda v: struct.pack("<I", len(v)) + v, lambda r, _: r.take(r.u32())),
    # presence flag, then a u32 when present
    "opt_u32": FieldKind(
        lambda v: b"\x00" if v is None else struct.pack("<BI", 1, v),
        lambda r, _: r.u32() if r.flag() else None,
    ),
    # u16 count, then that many u32 token ids
    "draft_tokens": FieldKind(
        lambda v: struct.pack(f"<H{len(v)}I", len(v), *v), lambda r, _: r.unpack(f"<{r.u16()}I")
    ),
    # binary32 rows to the end of the payload, one per drafted token (at
    # least one); the decoder infers the row width from the bytes left
    "draft_rows": FieldKind(lambda v: np.asarray(v, dtype="<f4").tobytes(), _read_draft_rows),
    # a GenerationConfig: mode u8, temperature f32, seed u64, max_new_tokens u32
    "config": FieldKind(_pack_config, _read_config),
}


class MessageLayout(NamedTuple):
    tag: int
    category: str
    fields: tuple[tuple[str, str], ...]  # (attribute, field kind) in wire order


MESSAGE_LAYOUTS: dict[type, MessageLayout] = {
    Hello: MessageLayout(1, CAT_HANDSHAKE, (
        ("protocol_version", "u32"), ("vocab_size", "u32"), ("eos_id", "u32"),
        ("bos_id", "u32"), ("model_fingerprint", "u64"),
    )),
    HelloAck: MessageLayout(2, CAT_HANDSHAKE, (("accept", "flag"), ("reason", "text"))),
    StartSession: MessageLayout(3, CAT_DATA, (
        ("session_id", "u64"), ("prompt", "tokens"), ("draft_len", "u32"), ("config", "config"),
    )),
    DraftBatch: MessageLayout(4, CAT_INFERENCE, (
        ("session_id", "u64"), ("tokens", "draft_tokens"), ("logits", "draft_rows"),
    )),
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
_BY_TAG = {layout.tag: (cls, layout.fields) for cls, layout in MESSAGE_LAYOUTS.items()}


def encode_message(msg: Message) -> bytes:
    """Serialize one message to its tagged payload bytes."""
    layout = MESSAGE_LAYOUTS.get(type(msg))
    if layout is None:
        raise TypeError(f"cannot encode object of type {type(msg).__name__}")
    parts = [FIELD_KINDS[kind].write(getattr(msg, name)) for name, kind in layout.fields]
    return bytes((layout.tag,)) + b"".join(parts)


def decode_message(data: bytes) -> Message:
    """Parse payload bytes back into a message, validating as it goes."""
    r = ByteReader(data, MalformedPayloadError)
    if len(data) == 0:
        raise r.fail("empty payload")
    tag = r.u8()
    if tag not in _BY_TAG:
        raise MalformedPayloadError(f"unknown message tag {tag}", 0)
    cls, fields = _BY_TAG[tag]
    try:
        values: dict[str, Any] = {}
        for name, kind in fields:
            values[name] = FIELD_KINDS[kind].read(r, values)
        msg = cls(**values)
    except struct.error as exc:  # defensive; take() should catch first
        raise r.fail(f"bad field encoding: {exc}") from exc
    except ValueError as exc:
        if isinstance(exc, MalformedPayloadError):
            raise
        raise r.fail(f"message invariant violated: {exc}") from exc
    r.finish()
    return msg


# a one-row, one-logit batch minus its row: the tag, session id and u16 count
_DRAFT_BATCH_HEAD_LEN = len(encode_message(DraftBatch(0, (0,), np.zeros((1, 1))))) - 8


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

    :class:`SocketChannel` is the one implementation, over a TCP socket or
    one end of an in-process socket pair (:func:`queue_channel_pair`).
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
        buf = bytearray()
        while len(buf) < n:
            try:
                chunk = self._sock.recv(n - len(buf))
            except OSError as exc:
                raise ConnectionClosedError(f"socket recv failed: {exc}") from exc
            if chunk == b"":
                raise ConnectionClosedError("peer closed the socket")
            buf.extend(chunk)
        return bytes(buf)

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

    def record_frame(self, category: str, direction: str, nbytes: int) -> None:
        if category not in CATEGORIES:
            raise ValueError(f"unknown ledger category {category!r}")
        if direction not in DIRECTIONS:
            raise ValueError(f"unknown ledger direction {direction!r}")
        if nbytes < 0:
            raise ValueError("byte count must be non-negative")
        key = (category, direction)
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
        self._sent, self._received = DIRECTIONS if side == "client" else DIRECTIONS[::-1]

    def send_preamble(self) -> None:
        self.channel.send(PREAMBLE)
        self.ledger.record_frame(CAT_HANDSHAKE, self._sent, len(PREAMBLE))

    def expect_preamble(self) -> None:
        raw = self.channel.recv_exact(len(PREAMBLE))
        if raw[:4] != PREAMBLE_MAGIC:
            raise MalformedPayloadError(f"bad connection magic {raw[:4]!r}", 0)
        if raw[4] != PREAMBLE_VERSION:
            raise MalformedPayloadError(f"unsupported protocol version {raw[4]}", 4)
        self.ledger.record_frame(CAT_HANDSHAKE, self._received, len(PREAMBLE))

    def send_message(self, msg: Message) -> None:
        payload = encode_message(msg)
        if len(payload) > MAX_PAYLOAD_LEN:
            raise FrameTooLargeError(
                f"payload of {len(payload)} bytes exceeds the {MAX_PAYLOAD_LEN}-byte cap"
            )
        self.channel.send(struct.pack("<I", len(payload)) + payload)
        self.ledger.record_frame(classify_message(msg), self._sent, FRAME_HEADER_LEN + len(payload))

    def recv_message(self) -> Message:
        (length,) = struct.unpack("<I", self.channel.recv_exact(4))
        if length > MAX_PAYLOAD_LEN:
            raise FrameTooLargeError(
                f"incoming frame of {length} bytes exceeds the {MAX_PAYLOAD_LEN}-byte cap"
            )
        payload = self.channel.recv_exact(length)
        msg = decode_message(payload)
        self.ledger.record_frame(classify_message(msg), self._received, FRAME_HEADER_LEN + length)
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
