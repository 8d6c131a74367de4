"""Wire format, channels, cost accounting, and latency probing."""

from __future__ import annotations

import socket
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offsetlm import CostLedger, FramedConnection, GenerationConfig, decode_message, encode_message
from offsetlm.messages import (
    Commit,
    DraftBatch,
    GenerationResult,
    Hello,
    HelloAck,
    ProtocolError,
    ServerGenerate,
    StartSession,
    UploadAdapter,
)
from offsetlm.transport import (
    CAT_DATA,
    CAT_HANDSHAKE,
    CAT_INFERENCE,
    CAT_MODEL,
    CLIENT_TO_SERVER,
    MAX_PAYLOAD_LEN,
    SERVER_TO_CLIENT,
    ConnectionClosedError,
    FrameTooLargeError,
    LatencyReport,
    MalformedPayloadError,
    SocketChannel,
    classify_message,
    latency_probe,
    latency_report,
    ledger_report,
    max_draft_rows,
    queue_channel_pair,
)

u32 = st.integers(0, 2**32 - 1)
u64 = st.integers(0, 2**64 - 1)
token_lists = st.lists(u32, max_size=20)
short_text = st.text(max_size=60)


def draft_batch(session_id=7, n=3, vocab=5, seed=0) -> DraftBatch:
    rng = np.random.default_rng(seed)
    return DraftBatch(
        session_id=session_id,
        tokens=tuple(int(t) for t in rng.integers(0, vocab, size=n)),
        logits=rng.normal(size=(n, vocab)).astype(np.float32),
    )


EXAMPLES = [
    Hello(protocol_version=1, vocab_size=32, eos_id=1, bos_id=2, model_fingerprint=2**63 + 5),
    HelloAck(accept=True),
    HelloAck(accept=False, reason="vocabulary mismatch: 32 != 16"),
    StartSession(session_id=9, prompt=(3, 4, 5), draft_len=8,
                 config=GenerationConfig(max_new_tokens=40, mode="stochastic", temperature=0.75,
                                         seed=2**40 + 3)),
    StartSession(session_id=0, prompt=(), draft_len=1, config=GenerationConfig(max_new_tokens=0)),
    draft_batch(),
    Commit(session_id=9, accept_count=3),
    Commit(session_id=9, accept_count=2, replacement=11, done=True),
    UploadAdapter(adapter_bytes=b"PRDL...", base_fingerprint=77),
    ServerGenerate(session_id=4, prompt=(6,), flavor=1,
                   config=GenerationConfig(max_new_tokens=12, mode="stochastic", temperature=0.5, seed=42)),
    GenerationResult(session_id=4, tokens=(6, 7, 1)),
    GenerationResult(session_id=4, tokens=()),
    ProtocolError(code="unknown-session", text="no session 12"),
]

# encode_message(EXAMPLES[i]).hex(), pinned: a round trip cannot catch two
# same-width fields swapped in both the encoder and the decoder
GOLDEN_HEX = [
    "01010000002000000001000000020000000500000000000080",
    "02010000",
    "02001d00766f636162756c617279206d69736d617463683a20333220213d203136",
    "0309000000000000000300000003000000040000000500000008000000010000403f030000000001000028000000",
    "0300000000000000000000000001000000000000803f000000000000000000000000",
    "0407000000000000000300040000000300000002000000bdf2233fdfd5d63da12109bf"
    "fd22b93e79e9a63fe673723ffe2734bf55f9a1bfea8e1fbf6e45293d4ecd14c0ec0a60be"
    "037a9fbfe0753bbf8f540bbf",
    "050900000000000000030000000000",
    "05090000000000000002000000010b00000001",
    "06070000005052444c2e2e2e4d00000000000000",
    "070400000000000000010000000600000001010000003f2a000000000000000c000000",
    "08040000000000000003000000060000000700000001000000",
    "08040000000000000000000000",
    "090f00756e6b6e6f776e2d73657373696f6e0d006e6f2073657373696f6e203132",
]


hello_msgs = st.builds(
    lambda size, eos, bos, ver, fp: Hello(
        protocol_version=ver,
        vocab_size=size,
        eos_id=eos % size,
        bos_id=bos % size,
        model_fingerprint=fp,
    ),
    st.integers(1, 2**32 - 1), u32, u32, u32, u64,
)
hello_ack_msgs = st.builds(HelloAck, st.booleans(), short_text)
configs = st.builds(
    GenerationConfig, u32, st.sampled_from(["greedy", "stochastic"]),
    st.floats(min_value=0.0625, max_value=8.0), u64,
)
start_msgs = st.builds(
    StartSession, u64, token_lists.map(tuple), st.integers(1, 2**32 - 1), configs
)
draft_msgs = st.builds(
    draft_batch, u64, st.integers(1, 6), st.integers(1, 9), st.integers(0, 999)
)
commit_msgs = st.builds(
    Commit, u64, u32, st.none() | u32, st.booleans()
)
upload_msgs = st.builds(
    UploadAdapter, st.binary(min_size=1, max_size=200), u64
)
generate_msgs = st.builds(ServerGenerate, u64, token_lists.map(tuple), st.integers(0, 1), configs)
result_msgs = st.builds(GenerationResult, u64, token_lists.map(tuple))
error_msgs = st.builds(ProtocolError, st.text(min_size=1, max_size=30), short_text)
any_message = st.one_of(
    hello_msgs, hello_ack_msgs, start_msgs, draft_msgs, commit_msgs,
    upload_msgs, generate_msgs, result_msgs, error_msgs,
)


class TestRoundTrip:
    @pytest.mark.parametrize("msg", EXAMPLES, ids=lambda m: type(m).__name__)
    def test_examples(self, msg):
        assert decode_message(encode_message(msg)) == msg

    @settings(max_examples=300, deadline=None)
    @given(any_message)
    def test_randomized(self, msg):
        clone = decode_message(encode_message(msg))
        assert clone == msg
        assert type(clone) is type(msg)

    def test_draft_batch_preserves_exact_float_bits(self):
        msg = draft_batch(n=2, vocab=3, seed=5)
        clone = decode_message(encode_message(msg))
        assert isinstance(clone, DraftBatch)
        assert clone.logits.dtype == np.float32
        np.testing.assert_array_equal(clone.logits, msg.logits)

    @pytest.mark.parametrize(
        "msg, golden", zip(EXAMPLES, GOLDEN_HEX), ids=[type(m).__name__ for m in EXAMPLES]
    )
    def test_wire_bytes_are_pinned(self, msg, golden):
        assert encode_message(msg).hex() == golden
        assert decode_message(bytes.fromhex(golden)) == msg

    def test_encode_rejects_foreign_objects(self):
        with pytest.raises(TypeError):
            encode_message(object())


class TestFrameSizes:
    def test_hello_frame_is_29_bytes(self):
        payload = encode_message(EXAMPLES[0])
        assert len(payload) == 25  # tag + 4 u32 fields + u64 fingerprint

    def test_bare_ack_frame_is_8_bytes(self):
        assert 4 + len(encode_message(HelloAck(accept=True))) == 8

    def test_draft_batch_closed_form(self):
        # frame = header 4 + tag 1 + session 8 + count 2 + 4*S tokens + 4*S*V logits
        for s, v in ((1, 1), (3, 5), (8, 32)):
            msg = draft_batch(n=s, vocab=v)
            assert 4 + len(encode_message(msg)) == 4 + 1 + 8 + 2 + 4 * s + 4 * s * v

    def test_draft_batch_s8_v32_frame_is_1071_bytes(self):
        assert 4 + len(encode_message(draft_batch(n=8, vocab=32))) == 1071

    def test_max_draft_rows_is_the_largest_batch_one_frame_carries(self):
        # payload = 11 header bytes + rows * (4 + 4V), from the closed form above
        head = len(encode_message(draft_batch(n=1, vocab=1))) - 8
        for v in (1, 8, 255, 256, 512, 1024, 50257):
            rows, per_row = max_draft_rows(v), 4 + 4 * v
            assert 1 <= rows <= 0xFFFF
            assert head + rows * per_row <= MAX_PAYLOAD_LEN
            assert rows == 0xFFFF or head + (rows + 1) * per_row > MAX_PAYLOAD_LEN
        assert max_draft_rows(255) == 0xFFFF
        assert max_draft_rows(256) == (MAX_PAYLOAD_LEN - 11) // 1028 == 65280
        assert max_draft_rows(512) == 32704


class TestStrictDecoding:
    @pytest.mark.parametrize(
        "msg", [m for m in EXAMPLES if not isinstance(m, DraftBatch)],
        ids=lambda m: type(m).__name__,
    )
    def test_every_truncation_is_malformed(self, msg):
        data = encode_message(msg)
        for cut in range(len(data)):
            with pytest.raises(MalformedPayloadError):
                decode_message(data[:cut])

    def test_draft_truncations_never_round_trip(self):
        # a cut inside the logits block can still divide into float32 rows
        # (the vocab width is inferred), so the weaker guarantee is: no
        # truncation ever reproduces the original message
        msg = draft_batch(n=2, vocab=8)
        data = encode_message(msg)
        outcomes = set()
        for cut in range(len(data)):
            try:
                clone = decode_message(data[:cut])
            except MalformedPayloadError:
                outcomes.add("rejected")
            else:
                assert clone != msg
                outcomes.add("reinterpreted")
        assert outcomes == {"rejected", "reinterpreted"}

    def test_trailing_bytes_are_malformed(self):
        for msg in EXAMPLES:
            data = encode_message(msg) + b"\x00"
            if isinstance(msg, DraftBatch):
                continue  # extra bytes change the inferred vocab width instead
            with pytest.raises(MalformedPayloadError):
                decode_message(data)

    def test_unknown_tag(self):
        with pytest.raises(MalformedPayloadError):
            decode_message(bytes([250]))

    def test_empty_payload(self):
        with pytest.raises(MalformedPayloadError):
            decode_message(b"")

    def test_bad_flag_byte_reports_offset(self):
        data = bytearray(encode_message(HelloAck(accept=True)))
        data[1] = 7
        with pytest.raises(MalformedPayloadError) as err:
            decode_message(bytes(data))
        assert err.value.offset == 1

    def test_unknown_sampling_mode_byte_reports_offset(self):
        data = bytearray(encode_message(EXAMPLES[9]))
        data[18] = 2  # after tag 1, session 8, prompt 4 + 4, flavor 1
        with pytest.raises(MalformedPayloadError) as err:
            decode_message(bytes(data))
        assert err.value.offset == 18

    def test_refused_config_is_malformed(self):
        data = bytearray(encode_message(EXAMPLES[9]))
        data[19:23] = struct.pack("<f", 0.0)  # a stochastic config at T=0
        with pytest.raises(MalformedPayloadError, match="temperature"):
            decode_message(bytes(data))

    @pytest.mark.parametrize("draft_len, budget", [(0, 1), (2**32, 1), (1, -1), (1, 2**32)])
    def test_start_session_fields_must_fit_their_u32(self, draft_len, budget):
        with pytest.raises(ValueError):
            StartSession(session_id=1, prompt=(3,), draft_len=draft_len,
                         config=GenerationConfig(max_new_tokens=budget))

    def test_truncation_offset_points_at_the_end(self):
        data = encode_message(EXAMPLES[0])
        with pytest.raises(MalformedPayloadError) as err:
            decode_message(data[:9])
        assert err.value.offset <= 9

    def test_invalid_utf8_is_malformed(self):
        payload = encode_message(ProtocolError(code="x", text=""))
        # code text bytes start after tag(1) + len(2); overwrite with bad UTF-8
        bad = payload[:3] + b"\xff" + payload[4:]
        with pytest.raises(MalformedPayloadError):
            decode_message(bad)

    @settings(max_examples=200, deadline=None)
    @given(any_message, st.integers(0, 2**16), st.integers(0, 255))
    def test_single_byte_corruption_never_crashes(self, msg, pos, value):
        data = bytearray(encode_message(msg))
        data[pos % len(data)] = value
        try:
            decode_message(bytes(data))
        except MalformedPayloadError:
            pass  # rejection is fine; any other exception type is a bug

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=300))
    def test_random_bytes_never_crash(self, blob):
        try:
            decode_message(blob)
        except MalformedPayloadError:
            pass


class TestChannels:
    def test_queue_pair_reassembles_split_reads(self):
        a, b = queue_channel_pair()
        a.send(b"hel")
        a.send(b"lo!")
        assert b.recv_exact(2) == b"he"
        assert b.recv_exact(4) == b"llo!"
        a.close()
        b.close()

    def test_queue_close_signals_peer(self):
        a, b = queue_channel_pair()
        a.send(b"x")
        a.close()
        assert b.recv_exact(1) == b"x"
        with pytest.raises(ConnectionClosedError):
            b.recv_exact(1)
        b.close()

    def test_queue_timeout(self):
        a, b = queue_channel_pair(timeout=0.05)
        with pytest.raises(ConnectionClosedError):
            b.recv_exact(1)
        a.close()
        b.close()

    def test_send_after_close_rejected(self):
        a, b = queue_channel_pair()
        a.close()
        with pytest.raises(ConnectionClosedError):
            a.send(b"x")
        b.close()

    def test_socket_pair_round_trip(self):
        left, right = socket.socketpair()
        a, b = SocketChannel(left), SocketChannel(right)
        try:
            a.send(b"abcdef")
            assert b.recv_exact(3) == b"abc"
            assert b.recv_exact(3) == b"def"
        finally:
            a.close()
            b.close()

    def test_socket_close_raises_on_reader(self):
        left, right = socket.socketpair()
        a, b = SocketChannel(left), SocketChannel(right)
        a.close()
        with pytest.raises(ConnectionClosedError):
            b.recv_exact(1)
        b.close()


class TestFramedConnection:
    def pair(self):
        chan_c, chan_s = queue_channel_pair()
        lc, ls = CostLedger(), CostLedger()
        return (
            FramedConnection(chan_c, "client", lc),
            FramedConnection(chan_s, "server", ls),
            lc,
            ls,
        )

    def test_exchange_round_trips_and_both_ledgers_agree(self):
        client, server, lc, ls = self.pair()
        client.send_preamble()
        server.expect_preamble()
        client.send_message(EXAMPLES[0])
        assert server.recv_message() == EXAMPLES[0]
        server.send_message(HelloAck(accept=True))
        assert client.recv_message() == HelloAck(accept=True)
        client.send_message(EXAMPLES[3])
        assert server.recv_message() == EXAMPLES[3]
        assert lc.bytes_by == ls.bytes_by
        assert lc.bytes_by[(CAT_HANDSHAKE, CLIENT_TO_SERVER)] == 5 + 29
        assert lc.bytes_by[(CAT_HANDSHAKE, SERVER_TO_CLIENT)] == 8
        # StartSession: header 4 + tag 1 + session 8 + (count 4 + 3 tokens) + draft_len u32
        # + config (mode u8, temperature f32, seed u64, max_new_tokens u32)
        assert lc.bytes_by[(CAT_DATA, CLIENT_TO_SERVER)] == 4 + 1 + 8 + 4 + 12 + 4 + 17
        client.close()
        server.close()

    def test_bad_preamble_magic(self):
        chan_c, chan_s = queue_channel_pair()
        chan_c.send(b"XXXX\x01")
        with pytest.raises(MalformedPayloadError):
            FramedConnection(chan_s, "server").expect_preamble()
        chan_c.close()
        chan_s.close()

    def test_bad_preamble_version(self):
        chan_c, chan_s = queue_channel_pair()
        chan_c.send(b"PRDA\x09")
        with pytest.raises(MalformedPayloadError):
            FramedConnection(chan_s, "server").expect_preamble()
        chan_c.close()
        chan_s.close()

    def test_oversize_send_rejected(self, monkeypatch):
        monkeypatch.setattr("offsetlm.transport.MAX_PAYLOAD_LEN", 16)
        client, server, _, _ = self.pair()
        with pytest.raises(FrameTooLargeError):
            client.send_message(EXAMPLES[0])
        client.close()
        server.close()

    def test_oversize_incoming_frame_rejected(self, monkeypatch):
        monkeypatch.setattr("offsetlm.transport.MAX_PAYLOAD_LEN", 16)
        client, server, _, _ = self.pair()
        client.channel.send(struct.pack("<I", 1 << 20))
        with pytest.raises(FrameTooLargeError):
            server.recv_message()
        client.close()
        server.close()

    def test_side_must_be_valid(self):
        chan, peer = queue_channel_pair()
        with pytest.raises(ValueError):
            FramedConnection(chan, "middle")
        chan.close()
        peer.close()


class TestCostLedger:
    def test_classification(self):
        assert classify_message(EXAMPLES[0]) == CAT_HANDSHAKE
        assert classify_message(HelloAck(accept=True)) == CAT_HANDSHAKE
        assert classify_message(EXAMPLES[3]) == CAT_DATA
        assert classify_message(EXAMPLES[9]) == CAT_DATA
        assert classify_message(EXAMPLES[8]) == CAT_MODEL
        for msg in (draft_batch(), Commit(session_id=1, accept_count=0),
                    GenerationResult(session_id=1, tokens=(3,)),
                    ProtocolError(code="x")):
            assert classify_message(msg) == CAT_INFERENCE

    def test_record_frame_validation(self):
        ledger = CostLedger()
        with pytest.raises(ValueError):
            ledger.record_frame("snacks", CLIENT_TO_SERVER, 1)
        with pytest.raises(ValueError):
            ledger.record_frame(CAT_DATA, "sideways", 1)
        with pytest.raises(ValueError):
            ledger.record_frame(CAT_DATA, CLIENT_TO_SERVER, -1)

    def test_acceptance_rate_lifecycle(self):
        ledger = CostLedger()
        assert ledger.acceptance_rate() is None
        ledger.note_draft(8)
        ledger.note_commit(accepted=5, drafted=8, replaced=True)
        assert ledger.round_count == 1
        assert ledger.tokens_committed == 6
        assert ledger.tokens_dropped == 3
        assert ledger.acceptance_rate() == pytest.approx(5 / 8)
        ledger.check_token_flow()

    def test_token_flow_violation_detected(self):
        ledger = CostLedger()
        ledger.note_draft(4)
        with pytest.raises(AssertionError):
            ledger.check_token_flow()

    def test_report_format(self):
        ledger = CostLedger()
        ledger.record_frame(CAT_DATA, CLIENT_TO_SERVER, 37)
        text = ledger_report(ledger)
        lines = text.splitlines()
        assert len([l for l in lines if l.startswith("record=ledger_bytes")]) == 8
        assert "record=ledger_bytes category=data_transfer direction=client_to_server bytes=37" in lines
        assert not any("acceptance_rate" in l for l in lines)
        ledger.note_draft(4)
        ledger.note_commit(accepted=2, drafted=4, replaced=True)
        assert "record=ledger_ratio name=acceptance_rate value=0.500000" in ledger_report(ledger)
        for line in ledger_report(ledger).splitlines():
            for part in line.split():
                assert "=" in part


class TestLatency:
    def test_probe_normalizes_per_token(self):
        def run():
            time.sleep(0.05)
            return list(range(20))

        report = latency_probe(run)
        assert report.response_tokens == 20
        assert 2.0 <= report.ms_per_token <= 5.0
        assert report.total_wall_time_s == pytest.approx(
            report.ms_per_token * 20 / 1000.0
        )

    def test_zero_token_response_has_no_per_token_cost(self):
        report = latency_probe(lambda: [])
        assert report.response_tokens == 0
        assert report.ms_per_token is None
        line = latency_report(report)
        assert line.startswith("record=latency ")
        assert "response_tokens=0" in line
        assert "ms_per_token" not in line

    def test_report_line(self):
        line = latency_report(LatencyReport(0.5, 100, 5.0))
        assert line.startswith("record=latency ")
        assert "response_tokens=100" in line
        assert "ms_per_token=5.000000" in line
