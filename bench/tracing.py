"""Spans around the calls the benchmark makes into each ``offsetlm`` layer.

Nothing here edits the package. Layers are observed from outside:

* models are wrapped in :class:`TracedModel`, a delegating ``LogitModel``
  that the benchmark hands to ``Server`` and ``Client`` in place of the
  real one;
* byte channels are wrapped in :class:`TracedChannel`, installed under
  ``FramedConnection`` by replacing the channel factories that
  ``offsetlm.protocol`` looks up at call time;
* a few module functions and methods (``adapted_next_token``,
  ``decode_adapter``, ``apply_adapter``, the ``loss_and_grads`` that
  ``train_lora`` calls, the message codec, ``Client.handshake``,
  ``ServerSession.draft``) are replaced by timing wrappers for the
  duration of the traced phase, then restored.

Each span name keeps aggregates: calls, total time, self time and a unit
count. Self time is a span's duration minus the time of its child spans on
the same thread; a per-thread stack of open spans tracks it.
"""

from __future__ import annotations

import threading
import time

from offsetlm import LogitModel, lora, protocol, transport
from offsetlm.transport import ByteChannel


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()  # guards _states when a thread first traces
        self._states: list = []
        self._absorbed: dict[str, list] = {}

    def absorb(self, aggregates: dict[str, list]) -> None:
        """Add aggregates recorded elsewhere (another process) to this tracer's."""
        merge(self._absorbed, aggregates)

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def span(self, name: str, fn, *args, units=None, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``units(result)`` gives the span's unit count (rows, bytes, ...);
        without it each call counts one unit.
        """
        st = self._state()
        st.stack.append(0.0)  # time spent in this span's children
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            child = st.stack.pop()
            if st.stack:
                st.stack[-1] += dur
            agg = st.agg.get(name)
            if agg is None:
                agg = st.agg[name] = [0, 0.0, 0.0, 0]
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - child
        agg[3] += 1 if units is None else units(result)
        return result

    def aggregates(self) -> dict[str, list]:
        """name -> [calls, total_s, self_s, units], summed over threads."""
        out: dict[str, list] = {}
        merge(out, self._absorbed)
        for st in self._states:
            merge(out, st.agg)
        return out


class _ThreadState:
    def __init__(self) -> None:
        self.stack: list[float] = []
        self.agg: dict[str, list] = {}


def merge(into: dict[str, list], other: dict[str, list]) -> None:
    for name, vals in other.items():
        acc = into.setdefault(name, [0, 0.0, 0.0, 0])
        for i, v in enumerate(vals):
            acc[i] += v


class TracedModel(LogitModel):
    """Delegates to ``inner``; times forwards under ``name`` (units = rows)."""

    def __init__(self, inner, name: str, tracer: Tracer) -> None:
        self.inner = inner
        self.vocab = inner.vocab
        self._name = name
        self._tracer = tracer
        self._snapshot_len = None

    def next_logits(self, seq):
        return self._tracer.span(self._name, self.inner.next_logits, seq)

    def batch_next_logits(self, seq, count):
        return self._tracer.span(self._name, self.inner.batch_next_logits, seq, count,
                                 units=lambda rows: rows.shape[0])

    def fingerprint(self) -> int:
        if self._snapshot_len is None:
            self._snapshot_len = len(self.inner.snapshot_bytes())
        n = self._snapshot_len
        return self._tracer.span("models.fingerprint", self.inner.fingerprint, units=lambda _: n)

    def __getattr__(self, attr):
        return getattr(self.inner, attr)


def unwrap(model):
    return model.inner if isinstance(model, TracedModel) else model


class TracedChannel(ByteChannel):
    """Times the blocking reads of one side of a byte channel."""

    def __init__(self, inner: ByteChannel, side: str, tracer: Tracer) -> None:
        self.inner = inner
        self._name = f"transport.channel_wait.{side}"
        self._tracer = tracer

    def send(self, data: bytes) -> None:
        self.inner.send(data)

    def recv_exact(self, n: int) -> bytes:
        return self._tracer.span(self._name, self.inner.recv_exact, n)

    def close(self) -> None:
        self.inner.close()


def install(tracer: Tracer, socket_side: str = "client"):
    """Replace the observed functions by timing wrappers; returns an undo callable.

    Sockets accepted or opened through ``offsetlm.protocol`` are labelled
    ``socket_side``; in-process queue pairs are labelled client and server.
    """
    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def timed(name, fn, units=None):
        return lambda *a, **k: tracer.span(name, fn, *a, units=units, **k)

    orig_pair = protocol.queue_channel_pair

    def queue_pair(*a, **k):
        client_end, server_end = orig_pair(*a, **k)
        return (TracedChannel(client_end, "client", tracer),
                TracedChannel(server_end, "server", tracer))

    orig_socket = protocol.SocketChannel
    orig_apply = protocol.apply_adapter

    def apply_adapter(base, adapter):
        tuned = tracer.span("lora.adapter_install", orig_apply, unwrap(base), adapter)
        return TracedModel(tuned, "lora.tuned_forward", tracer)

    patch(protocol, "queue_channel_pair", queue_pair)
    patch(protocol, "SocketChannel", lambda sock: TracedChannel(orig_socket(sock), socket_side, tracer))
    patch(protocol, "apply_adapter", apply_adapter)
    patch(protocol, "decode_adapter", timed("lora.adapter_install", protocol.decode_adapter))
    patch(protocol, "adapted_next_token", timed("offset.adjust_sample", protocol.adapted_next_token))
    patch(protocol.ServerSession, "draft", timed("protocol.server_draft", protocol.ServerSession.draft))
    patch(protocol.Client, "handshake", timed("protocol.handshake", protocol.Client.handshake))
    patch(transport, "encode_message", timed("transport.encode", transport.encode_message, units=len))
    patch(transport, "decode_message", timed("transport.decode", transport.decode_message))
    orig_step = lora.loss_and_grads

    def train_step(base, adapter, batch):
        positions = sum(len(doc) - 1 for doc in batch)
        return tracer.span("lora.train_step", orig_step, base, adapter, batch, units=lambda _: positions)

    patch(lora, "loss_and_grads", train_step)

    def undo():
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)

    return undo
