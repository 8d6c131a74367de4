"""Session state machine, client/server loops, and mode equivalences."""

from __future__ import annotations

import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offsetlm import (
    BigramTableModel,
    Client,
    CostLedger,
    GenerationConfig,
    LogitModel,
    OffsetProxy,
    Server,
    SocketServer,
    TinyNeuralLM,
    Vocab,
    connect_in_process,
    apply_adapter,
    connect_socket,
    encode_adapter,
    generate_adapted,
    generate_blackbox,
    init_adapter,
)
from offsetlm.messages import (
    FLAVOR_ADAPTED,
    FLAVOR_BLACKBOX,
    PROTOCOL_VERSION,
    Commit,
    DraftBatch,
    GenerationResult,
    HelloAck,
    ProtocolError,
    ServerGenerate,
    StartSession,
    UploadAdapter,
)
from offsetlm.protocol import (
    BudgetExhaustedError,
    ERR_INVALID_COMMIT,
    ERR_INVALID_PROMPT,
    ERR_LIMIT_EXCEEDED,
    ERR_MALFORMED,
    ERR_MALFORMED_ADAPTER,
    ERR_SERVER_FAULT,
    ERR_SESSION_UNKNOWN,
    FingerprintMismatchError,
    HandshakeRejectedError,
    Hello,
    InvalidCommitError,
    OutOfSyncError,
    RemoteProtocolError,
    ServerSession,
    finished,
)
from offsetlm.core import make_rng, pick
from offsetlm.models import VocabMismatchError, decode_model, encode_model
from offsetlm.transport import (
    MAX_PAYLOAD_LEN,
    MAX_RESULT_TOKENS,
    PREAMBLE,
    ByteChannel,
    ConnectionClosedError,
    FramedConnection,
    encode_message,
    max_draft_rows,
    queue_channel_pair,
)

from conftest import (
    TailOnly,
    argmax_oracle,
    monolithic_generate_oracle,
    needs_ipv6_loopback,
    prdl_layout,
    with_biases,
)

GREEDY_CFG = GenerationConfig(max_new_tokens=12, mode="greedy")


def dense_blackbox(vocab: Vocab, seed: int = 0) -> BigramTableModel:
    """A bigram model whose greedy continuations never leave ordinary tokens.

    Every ordinary->ordinary pair gets a count of at least 1, while eos/bos
    stay at zero, so under argmax the smoothed eos logit (ln 1 = 0) always
    loses. Stochastic runs can still reach eos, which is fine: both sides of
    every equivalence see the same stopping rule.
    """
    rng = np.random.default_rng(seed)
    counts = np.zeros((vocab.size, vocab.size), dtype=np.int64)
    ordinary = [t for t in range(vocab.size) if t not in (vocab.eos_id, vocab.bos_id)]
    for i in ordinary:
        for j in ordinary:
            counts[i, j] = rng.integers(1, 30)
    return BigramTableModel(vocab, counts, alpha=1.0)


def rich_adapter(base: TinyNeuralLM, seed: int = 21, spread: float = 0.4):
    adapter = init_adapter(base, rank=2, seed=seed)
    rng = np.random.default_rng(seed)
    for t in adapter.targets:
        t.scaling = 0.9
        t.b = rng.normal(0.0, spread, size=t.b.shape)
        t.a = rng.normal(0.0, spread, size=t.a.shape)
    return adapter.snapshot()


@pytest.fixture
def world(vocab):
    blackbox = dense_blackbox(vocab)
    base = with_biases(TinyNeuralLM.random(vocab, context=3, embed_dim=4, hidden_dim=6, seed=2), 2)
    return blackbox, base, rich_adapter(base)


def connected_client(server, vocab, base=None, adapter=None, ledger=None) -> Client:
    conn, _ = connect_in_process(server, ledger)
    client = Client(conn, vocab, base_proxy=base, adapter=adapter)
    client.handshake()
    return client


class TestServerSession:
    def make(self, vocab, prompt=(3, 4), draft_len=4, budget=10, **sampling) -> ServerSession:
        return ServerSession(
            session_id=1, vocab=vocab, prompt=tuple(prompt),
            draft_len=draft_len, config=GenerationConfig(max_new_tokens=budget, **sampling),
        )

    def test_zero_budget_starts_done(self, vocab):
        assert self.make(vocab, budget=0).done

    def test_trailing_eos_prompt_starts_done(self, vocab):
        assert self.make(vocab, prompt=(3, vocab.eos_id)).done

    def test_draft_is_the_greedy_chain(self, vocab, world):
        blackbox, _, _ = world
        session = self.make(vocab, prompt=(3, 4), draft_len=4)
        batch = session.draft(blackbox)
        ctx = [3, 4]
        for i, tok in enumerate(batch.tokens):
            z = blackbox.next_logits(ctx)
            assert tok == argmax_oracle(z)
            np.testing.assert_array_equal(batch.logits[i], z)
            ctx.append(tok)
        assert len(batch.tokens) == 4

    def test_draft_capped_by_budget(self, vocab, world):
        blackbox, _, _ = world
        session = self.make(vocab, draft_len=8, budget=3)
        assert len(session.draft(blackbox).tokens) == 3

    def test_draft_stops_after_eos(self, vocab):
        counts = np.zeros((vocab.size, vocab.size), dtype=np.int64)
        counts[:, vocab.eos_id] = 50  # eos dominates every context
        eager_eos = BigramTableModel(vocab, counts, alpha=1.0)
        session = self.make(vocab, draft_len=6)
        batch = session.draft(eager_eos)
        assert batch.tokens == (vocab.eos_id,)

    def test_no_second_draft_before_commit(self, vocab, world):
        blackbox, _, _ = world
        session = self.make(vocab)
        session.draft(blackbox)
        with pytest.raises(InvalidCommitError):
            session.draft(blackbox)

    def test_no_draft_when_exhausted(self, vocab, world):
        blackbox, _, _ = world
        session = self.make(vocab, budget=0)
        with pytest.raises(BudgetExhaustedError):
            session.draft(blackbox)

    def test_full_accept_advances_canonical(self, vocab, world):
        blackbox, _, _ = world
        session = self.make(vocab, draft_len=4, budget=10)
        batch = session.draft(blackbox)
        session.apply_commit(Commit(session_id=1, accept_count=4, done=False))
        assert session.canonical == [3, 4, *batch.tokens]
        assert session.response_tokens() == batch.tokens
        assert session.budget_left() == 6
        assert not session.done

    def test_partial_accept_takes_the_replacement(self, vocab, world):
        blackbox, _, _ = world
        session = self.make(vocab, draft_len=4)
        batch = session.draft(blackbox)
        session.apply_commit(Commit(session_id=1, accept_count=1, replacement=6, done=False))
        assert session.canonical == [3, 4, batch.tokens[0], 6]
        assert session.response_tokens() == (batch.tokens[0], 6)
        assert session.budget_left() == 8

    def test_commit_validation(self, vocab, world):
        blackbox, _, _ = world
        session = self.make(vocab, draft_len=3)
        with pytest.raises(InvalidCommitError):
            session.apply_commit(Commit(session_id=1, accept_count=0, replacement=3))
        batch = session.draft(blackbox)
        n = len(batch.tokens)
        with pytest.raises(InvalidCommitError):
            session.apply_commit(Commit(session_id=1, accept_count=n + 1))
        with pytest.raises(InvalidCommitError):
            session.apply_commit(Commit(session_id=1, accept_count=n, replacement=3))
        with pytest.raises(InvalidCommitError):
            session.apply_commit(Commit(session_id=1, accept_count=0))
        with pytest.raises(InvalidCommitError):
            session.apply_commit(Commit(session_id=1, accept_count=0, replacement=vocab.size))

    def test_done_flag_must_agree(self, vocab, world):
        blackbox, _, _ = world
        session = self.make(vocab, draft_len=2, budget=10)
        session.draft(blackbox)
        with pytest.raises(OutOfSyncError):
            session.apply_commit(Commit(session_id=1, accept_count=2, done=True))

    def test_stop_rule(self, vocab):
        eos = vocab.eos_id
        assert not finished([3, 4], 2, 1, eos)
        assert finished([3, 4, 5], 2, 1, eos)  # budget spent
        assert finished([3, 4, eos], 2, 5, eos)  # ends in eos
        assert finished([3, eos], 2, 5, eos)  # prompt already ends in eos
        assert finished([3], 1, 0, eos)  # zero budget

    def test_budget_boundary_sets_done(self, vocab, world):
        blackbox, _, _ = world
        session = self.make(vocab, draft_len=4, budget=4)
        session.draft(blackbox)
        session.apply_commit(Commit(session_id=1, accept_count=4, done=True))
        assert session.done
        assert len(session.response_tokens()) == 4

    def commit_all(self, session, blackbox, accept) -> list[int]:
        """Draft and commit until done; ``accept(n)`` picks each accept count.

        Returns the size of every draft. The dense black-box never drafts eos.
        """
        sizes = []
        while not session.done:
            n = len(session.draft(blackbox).tokens)
            sizes.append(n)
            k = accept(n)
            committed = len(session.response_tokens()) + k + (k < n)
            session.apply_commit(Commit(session_id=1, accept_count=k,
                                        replacement=3 if k < n else None,
                                        done=committed >= session.max_new_tokens))
        return sizes

    def test_full_acceptance_keeps_draft_len(self, vocab, world):
        blackbox, _, _ = world
        session = self.make(vocab, draft_len=4, budget=18)
        assert self.commit_all(session, blackbox, lambda n: n) == [4, 4, 4, 4, 2]
        assert session.replacements == 0

    def test_all_reject_falls_to_one_row(self, vocab, world):
        blackbox, _, _ = world
        session = self.make(vocab, draft_len=8, budget=12)
        assert self.commit_all(session, blackbox, lambda n: 0) == [8] + [1] * 11
        assert session.replacements == 12

    def test_draft_size_is_the_mean_run_per_replacement(self, vocab, world):
        blackbox, _, _ = world
        session = self.make(vocab, draft_len=8, budget=40)
        # commits of 6 (5 + replacement), then 1 (replacement only): ceil(6/1), ceil(7/2)
        sizes = iter([5, 0])
        assert self.commit_all(session, blackbox, lambda n: next(sizes, n))[:3] == [8, 6, 4]

    def test_draft_size_never_exceeds_its_bounds(self, vocab, world):
        blackbox, _, _ = world
        rng = np.random.default_rng(17)
        for _ in range(40):
            draft_len = int(rng.integers(1, 10))
            session = self.make(vocab, draft_len=draft_len, budget=int(rng.integers(1, 30)))

            def accept(n):
                assert 1 <= n <= min(draft_len, session.budget_left())
                return int(rng.integers(0, n + 1))

            self.commit_all(session, blackbox, accept)
        wide = Vocab(size=512, eos_id=1, bos_id=2)
        session = self.make(wide, draft_len=10**6, budget=10**6)
        assert session.draft_size() == max_draft_rows(512)
        session.canonical.extend([3] * 10**5)
        session.replacements = 1  # a mean run of 10**5 tokens
        assert session.draft_size() == max_draft_rows(512)

    @pytest.mark.parametrize("mode", ["greedy", "stochastic"])
    def test_drafts_use_the_clients_uniforms(self, vocab, world, mode):
        """Each row is drafted by ``pick`` at the uniform the client draws for its position.

        Over a 10 000-token session with random commits, the session never
        holds more than ``draft_len`` uniforms: those of drafted positions
        not yet committed. Greedy sessions draw them too.
        """
        blackbox, _, _ = world
        draft_len = 8
        session = self.make(vocab, draft_len=draft_len, budget=10_000,
                            mode=mode, temperature=1.3, seed=5)
        client_rng, uniforms = make_rng(5), []  # the client's draws, by response position
        commits, peak = np.random.default_rng(23), 0
        while not session.done:
            batch = session.draft(blackbox)
            n, committed = len(batch.tokens), len(session.response_tokens())
            while len(uniforms) < committed + n:
                uniforms.append(client_rng.random())
            for i, (z, tok) in enumerate(zip(batch.logits, batch.tokens)):
                assert tok == pick(z, session.config, uniforms[committed + i])
            peak = max(peak, len(session.uniforms))
            assert session.uniforms == uniforms[committed : committed + len(session.uniforms)]
            k = int(commits.integers(0, n + 1))
            if k == n and batch.tokens[-1] == vocab.eos_id:
                k -= 1  # replace a drafted eos, so the session runs its whole budget
            committed += k + (k < n)
            session.apply_commit(Commit(session_id=1, accept_count=k,
                                        replacement=3 if k < n else None,
                                        done=committed >= session.max_new_tokens))
            assert len(session.uniforms) == len(uniforms) - committed
        assert len(session.response_tokens()) == 10_000
        assert peak == draft_len

    def test_low_acceptance_drafts_at_most_two_rows_per_token(self, vocab32):
        blackbox = dense_blackbox(vocab32)
        base = TinyNeuralLM.random(vocab32, context=3, embed_dim=4, hidden_dim=6, seed=2)
        adapter = rich_adapter(base, spread=1.0)  # at 0.4, half the coupled drafts pass
        config = GenerationConfig(max_new_tokens=64, mode="stochastic", temperature=2.0, seed=3)
        ledger = CostLedger()
        client = connected_client(Server(blackbox), vocab32, base, adapter, ledger)
        got = client.run_speculative([3, 4], config, draft_len=8)
        client.conn.close()
        assert got == generate_adapted(blackbox, base, apply_adapter(base, adapter), [3, 4], config)
        assert len(got) == ledger.tokens_committed == 64
        assert ledger.acceptance_rate() < 0.1
        assert ledger.tokens_drafted <= 2 * ledger.tokens_committed


class TestHandshake:
    def test_client_vocab_must_match_its_proxy(self, world):
        _, base, adapter = world  # built for Vocab(8, eos_id=1, bos_id=2)
        with pytest.raises(ValueError, match="vocab"):
            Client(None, Vocab(8, eos_id=2, bos_id=1), base_proxy=base, adapter=adapter)

    def test_accepts_matching_vocab(self, vocab, world):
        blackbox, base, _ = world
        client = connected_client(Server(blackbox), vocab, base)
        client.conn.close()

    def test_rejects_vocab_mismatch(self, world):
        blackbox, _, _ = world
        other = Vocab(size=16, eos_id=1, bos_id=2)
        conn, _ = connect_in_process(Server(blackbox))
        client = Client(conn, other)
        with pytest.raises(HandshakeRejectedError) as err:
            client.handshake()
        assert "mismatch" in str(err.value)
        conn.close()

    def test_rejects_wrong_protocol_version(self, vocab, world):
        blackbox, _, _ = world
        for version in (PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1):
            ack = Server(blackbox).check_hello(
                Hello(protocol_version=version, vocab_size=vocab.size,
                      eos_id=vocab.eos_id, bos_id=vocab.bos_id, model_fingerprint=0)
            )
            assert not ack.accept


# each differs from Vocab(8, eos 1, bos 2) in one field
OTHER_VOCABS = {"size": Vocab(9, eos_id=1, bos_id=2), "eos": Vocab(8, eos_id=0, bos_id=2),
                "bos": Vocab(8, eos_id=1, bos_id=0)}


class TestOneVocabularyRule:
    """Every place where two models meet refuses the same vocabulary pairings."""

    @staticmethod
    def joins(world, theirs):
        """Each entry point, given one model (or the client's vocabulary) over ``theirs``."""
        blackbox, base, adapter = world
        their_base = TinyNeuralLM.random(theirs, context=3, embed_dim=4, hidden_dim=6, seed=2)
        their_tuned = apply_adapter(their_base, init_adapter(their_base, rank=2))
        tuned = apply_adapter(base, adapter)
        return {
            "offset-proxy": lambda: OffsetProxy(base, their_tuned),
            "generate-adapted-blackbox": lambda: generate_adapted(
                dense_blackbox(theirs), base, tuned, [3], GREEDY_CFG),
            "generate-adapted-tuned": lambda: generate_adapted(
                blackbox, base, their_tuned, [3], GREEDY_CFG),
            "server": lambda: Server(dense_blackbox(theirs), base),
            "client": lambda: Client(None, theirs, base, adapter),
        }

    @pytest.mark.parametrize("differs_in", sorted(OTHER_VOCABS))
    def test_every_join_refuses_a_different_vocabulary(self, world, differs_in):
        for name, join in self.joins(world, OTHER_VOCABS[differs_in]).items():
            with pytest.raises(VocabMismatchError, match="vocab"):
                join()
                pytest.fail(f"{name} accepted a vocabulary that differs in {differs_in}")

    def test_equal_vocabularies_run(self, vocab, world):
        blackbox, base, adapter = world
        joins = self.joins(world, Vocab(8, eos_id=1, bos_id=2))
        assert joins["offset-proxy"]().vocab == vocab
        tokens = joins["generate-adapted-blackbox"]()
        assert tokens == generate_adapted(blackbox, base, apply_adapter(base, adapter), [3], GREEDY_CFG)
        assert len(tokens) == GREEDY_CFG.max_new_tokens
        assert len(joins["generate-adapted-tuned"]()) == GREEDY_CFG.max_new_tokens
        assert joins["server"]().vocab == vocab
        assert joins["client"]().proxy.vocab == vocab


class TestModeEquivalence:
    PROMPTS = ([3], [4, 5], [3, 4, 5, 6])

    def test_greedy_all_client_paths_match_the_oracle(self, vocab, world):
        blackbox, base, adapter = world
        tuned = None
        for prompt in self.PROMPTS:
            server = Server(blackbox, base)
            expect = None
            for draft_len in (1, 2, 4, 8):
                client = connected_client(Server(blackbox), vocab, base, adapter)
                got = client.run_speculative(prompt, GREEDY_CFG, draft_len=draft_len)
                client.conn.close()
                if expect is None:
                    from offsetlm import apply_adapter

                    tuned = apply_adapter(base, adapter)
                    expect = monolithic_generate_oracle(
                        blackbox, base, tuned, prompt, GREEDY_CFG
                    )
                assert got == expect, f"draft_len={draft_len} prompt={prompt}"
            transfer_client = connected_client(server, vocab, base, adapter)
            assert transfer_client.run_transfer(prompt, GREEDY_CFG) == expect
            transfer_client.conn.close()

    def test_stochastic_per_token_equals_transfer_and_oracle(self, vocab, world):
        blackbox, base, adapter = world
        from offsetlm import apply_adapter

        tuned = apply_adapter(base, adapter)
        for seed in (0, 7, 123):
            config = GenerationConfig(
                max_new_tokens=15, mode="stochastic", temperature=0.9, seed=seed
            )
            expect = monolithic_generate_oracle(blackbox, base, tuned, [3, 4], config)
            client = connected_client(Server(blackbox), vocab, base, adapter)
            per_token = client.run_per_token([3, 4], config)
            client.conn.close()
            client = connected_client(Server(blackbox, base), vocab, base, adapter)
            transfer = client.run_transfer([3, 4], config)
            client.conn.close()
            assert per_token == expect
            assert transfer == expect

    def test_stochastic_speculative_is_reproducible(self, vocab, world):
        blackbox, base, adapter = world
        config = GenerationConfig(max_new_tokens=10, mode="stochastic", temperature=1.1, seed=5)
        runs = []
        for _ in range(2):
            client = connected_client(Server(blackbox), vocab, base, adapter)
            runs.append(client.run_speculative([3], config, draft_len=4))
            client.conn.close()
        assert runs[0] == runs[1]
        client = connected_client(Server(blackbox), vocab, base, adapter)
        assert client.run_per_token([3], config) == runs[0]
        client.conn.close()
        tuned = apply_adapter(base, adapter)
        assert generate_adapted(blackbox, base, tuned, [3], config) == runs[0]

    def test_adapter_edits_after_construction_reach_no_mode(self, vocab, world):
        blackbox, base, adapter = world
        tuned = apply_adapter(base, adapter)
        for config in (GREEDY_CFG, GenerationConfig(max_new_tokens=16, mode="stochastic",
                                                    temperature=1.0, seed=5)):
            edited = adapter.snapshot()
            client = connected_client(Server(blackbox, base), vocab, base, edited)
            for t in edited.targets:
                t.b *= -3.0  # the client keeps the adapter it was built with
            speculative = client.run_speculative([3, 4], config, draft_len=4)
            transfer = client.run_transfer([3, 4], config)
            client.conn.close()
            assert speculative == transfer == generate_adapted(blackbox, base, tuned, [3, 4], config)

    def test_api_mode_is_the_plain_blackbox(self, vocab, world):
        blackbox, _, _ = world
        client = connected_client(Server(blackbox), vocab)
        got = client.run_api([3, 4], GREEDY_CFG)
        client.conn.close()
        assert got == generate_blackbox(blackbox, [3, 4], GREEDY_CFG)

    def test_zero_adapter_reduces_every_mode_to_the_blackbox(self, vocab, world):
        blackbox, base, _ = world
        zero = init_adapter(base, rank=4, seed=3)
        for config in (
            GREEDY_CFG,
            GenerationConfig(max_new_tokens=12, mode="stochastic", temperature=0.8, seed=9),
        ):
            reference = generate_blackbox(blackbox, [4, 5], config)
            api_client = connected_client(Server(blackbox), vocab)
            assert api_client.run_api([4, 5], config) == reference
            api_client.conn.close()
            for draft_len in (1, 4):
                client = connected_client(Server(blackbox), vocab, base, zero)
                assert client.run_speculative([4, 5], config, draft_len=draft_len) == reference
                client.conn.close()
            client = connected_client(Server(blackbox, base), vocab, base, zero)
            assert client.run_transfer([4, 5], config) == reference
            client.conn.close()

    def test_stochastic_transfer_samples_with_the_client_temperature(self, vocab):
        """T=0.9 has no exact binary32 value; every mode samples with the same one.

        With this black-box row and a zero adapter, seed 0's first uniform falls
        between token 0's probability at T=0.9 and at T=fl32(0.9), so sampling
        with the two temperatures picks different tokens.
        """

        class FixedRow(LogitModel):
            window = 1

            def __init__(self, vocab):
                self.vocab = vocab

            def batch_next_logits(self, seq, count):
                rows = np.zeros((count, self.vocab.size), dtype=np.float32)
                rows[:, 0] = 2.2573001
                return rows

        blackbox = FixedRow(vocab)
        base = TinyNeuralLM.random(vocab, 3, 4, 6, seed=0)
        adapter = init_adapter(base, 2, seed=0)
        config = GenerationConfig(max_new_tokens=4, mode="stochastic", temperature=0.9, seed=0)
        client = connected_client(Server(blackbox, base), vocab, base, adapter)
        per_token = client.run_per_token([3], config)
        transfer = client.run_transfer([3], config)
        client.conn.close()
        tuned = apply_adapter(base, adapter)
        assert per_token == transfer == generate_adapted(blackbox, base, tuned, [3], config)

    def test_generate_adapted_equals_oracle_directly(self, vocab, world):
        blackbox, base, adapter = world
        from offsetlm import apply_adapter

        tuned = apply_adapter(base, adapter)
        config = GenerationConfig(max_new_tokens=20, mode="greedy")
        assert generate_adapted(blackbox, base, tuned, [5], config) == (
            monolithic_generate_oracle(blackbox, base, tuned, [5], config)
        )


class TestBudgetsAndStopping:
    def run_all_modes(self, world, vocab, prompt, config):
        blackbox, base, adapter = world
        outs = {}
        client = connected_client(Server(blackbox), vocab)
        outs["api"] = client.run_api(prompt, config)
        client.conn.close()
        client = connected_client(Server(blackbox), vocab, base, adapter)
        outs["per_token"] = client.run_per_token(prompt, config)
        client.conn.close()
        client = connected_client(Server(blackbox), vocab, base, adapter)
        outs["speculative"] = client.run_speculative(prompt, config, draft_len=4)
        client.conn.close()
        client = connected_client(Server(blackbox, base), vocab, base, adapter)
        outs["transfer"] = client.run_transfer(prompt, config)
        client.conn.close()
        return outs

    def test_zero_budget_yields_empty_everywhere(self, vocab, world):
        config = GenerationConfig(max_new_tokens=0, mode="greedy")
        assert all(v == [] for v in self.run_all_modes(world, vocab, [3], config).values())

    def test_trailing_eos_prompt_yields_empty_everywhere(self, vocab, world):
        prompt = [3, vocab.eos_id]
        assert all(
            v == [] for v in self.run_all_modes(world, vocab, prompt, GREEDY_CFG).values()
        )

    def test_budget_is_exact(self, vocab, world):
        for budget in (1, 5, 12):
            config = GenerationConfig(max_new_tokens=budget, mode="greedy")
            outs = self.run_all_modes(world, vocab, [3], config)
            assert all(len(v) == budget for v in outs.values()), outs

    def test_eos_ends_generation_early(self, vocab):
        counts = np.zeros((vocab.size, vocab.size), dtype=np.int64)
        ordinary = [t for t in range(vocab.size) if t not in (vocab.eos_id, vocab.bos_id)]
        for i, j in zip(ordinary, ordinary[1:]):
            counts[i, j] = 9
        counts[ordinary[-1], vocab.eos_id] = 9  # chain walks into eos
        blackbox = BigramTableModel(vocab, counts, alpha=1.0)
        client = connected_client(Server(blackbox), blackbox.vocab)
        got = client.run_api([ordinary[0]], GenerationConfig(max_new_tokens=50, mode="greedy"))
        client.conn.close()
        assert got[-1] == vocab.eos_id
        assert len(got) < 50

    def test_empty_prompt_is_rejected(self, vocab, world):
        blackbox, base, adapter = world
        client = connected_client(Server(blackbox), vocab, base, adapter)
        with pytest.raises(RemoteProtocolError) as err:
            client.run_per_token([], GREEDY_CFG)
        assert err.value.code == ERR_INVALID_PROMPT
        client.conn.close()

    def test_interior_eos_is_rejected(self, vocab, world):
        blackbox, base, adapter = world
        prompt = [3, vocab.eos_id, 4]
        client = connected_client(Server(blackbox), vocab)
        with pytest.raises(RemoteProtocolError) as err:
            client.run_api(prompt, GREEDY_CFG)
        assert err.value.code == ERR_INVALID_PROMPT
        client.conn.close()
        with pytest.raises(ValueError, match="eos inside the prompt body"):
            generate_blackbox(blackbox, prompt, GREEDY_CFG)
        with pytest.raises(ValueError, match="eos inside the prompt body"):
            generate_adapted(blackbox, base, apply_adapter(base, adapter), prompt, GREEDY_CFG)

    def test_out_of_vocab_prompt_token_is_an_invalid_prompt(self, vocab, world):
        from offsetlm.messages import FLAVOR_BLACKBOX, ProtocolError, ServerGenerate
        from offsetlm.protocol import _ConnectionState

        blackbox, _, _ = world
        server, state = Server(blackbox), _ConnectionState()
        bad = (3, vocab.size + 5)
        for msg in (StartSession(session_id=1, prompt=bad, draft_len=4,
                                 config=GenerationConfig(max_new_tokens=4)),
                    ServerGenerate(session_id=2, prompt=bad, flavor=FLAVOR_BLACKBOX,
                                   config=GREEDY_CFG)):
            reply = server._dispatch(msg, state)
            assert isinstance(reply, ProtocolError) and reply.code == ERR_INVALID_PROMPT
            assert f"token {vocab.size + 5} " in reply.text
        assert state.session is None

    def test_draft_len_must_fit_a_u32(self, vocab, world):
        blackbox, base, adapter = world
        client = connected_client(Server(blackbox), vocab, base, adapter)
        for draft_len in (0, 2**32):
            with pytest.raises(ValueError, match="draft_len"):
                client.run_speculative([3], GREEDY_CFG, draft_len=draft_len)
        client.conn.close()


class TestTransfer:
    def test_fingerprint_mismatch_is_rejected(self, vocab, world):
        blackbox, base, adapter = world
        other_base = TinyNeuralLM.random(vocab, context=3, embed_dim=4, hidden_dim=6, seed=77)
        client = connected_client(Server(blackbox, other_base), vocab, base, adapter)
        with pytest.raises(FingerprintMismatchError):
            client.run_transfer([3], GREEDY_CFG)
        client.conn.close()

    def test_upload_needs_a_server_side_proxy(self, vocab, world):
        blackbox, base, adapter = world
        client = connected_client(Server(blackbox), vocab, base, adapter)
        with pytest.raises(RemoteProtocolError):
            client.run_transfer([3], GREEDY_CFG)
        client.conn.close()

    def test_adapted_generation_needs_an_upload_first(self, vocab, world):
        blackbox, base, _ = world
        client = connected_client(Server(blackbox, base), vocab, base)
        with pytest.raises(RemoteProtocolError):
            client._server_generate([3], GREEDY_CFG, flavor=1)
        client.conn.close()

    def test_non_finite_adapter_upload_is_malformed(self, vocab, world):
        blackbox, base, adapter = world
        blob = bytearray(encode_adapter(adapter))
        blob[20:24] = struct.pack("<f", np.inf)  # the first target's scaling
        client = connected_client(Server(blackbox, base), vocab, base)
        client.conn.send_message(UploadAdapter(bytes(blob), base.fingerprint()))
        reply = client.conn.recv_message()
        assert isinstance(reply, ProtocolError) and reply.code == ERR_MALFORMED_ADAPTER
        assert "not finite" in reply.text
        client.conn.close()

    @pytest.mark.parametrize("order", [(), (0,), (0, 0), (1, 0)],
                             ids=["none", "w1", "w1-w1", "w2-w1"])
    def test_adapter_layout_other_than_w1_then_w2_is_malformed(self, vocab, world, order):
        blackbox, base, adapter = world
        client = connected_client(Server(blackbox, base), vocab, base)
        client.conn.send_message(UploadAdapter(prdl_layout(adapter, order), base.fingerprint()))
        reply = client.conn.recv_message()
        assert isinstance(reply, ProtocolError) and reply.code == ERR_MALFORMED_ADAPTER
        assert "adapter targets must be" in reply.text
        client.conn.close()

    def test_upload_is_billed_as_model_transfer(self, vocab, world):
        blackbox, base, adapter = world
        ledger = CostLedger()
        client = connected_client(Server(blackbox, base), vocab, base, adapter, ledger)
        client.run_transfer([3], GREEDY_CFG)
        client.conn.close()
        from offsetlm import encode_adapter
        from offsetlm.transport import CAT_MODEL, CLIENT_TO_SERVER

        blob = encode_adapter(adapter.snapshot())
        # frame header 4 + tag 1 + length u32 4 + blob + fingerprint u64 8
        assert ledger.bytes_total(CAT_MODEL, CLIENT_TO_SERVER) == 4 + 1 + 4 + len(blob) + 8


def nan_snapshot(model: TinyNeuralLM) -> TinyNeuralLM:
    """``model`` through PRDM bytes with one column of w2 NaN: every logit is NaN."""
    w2 = model.w2.copy()
    w2[:, 0] = np.nan
    return decode_model(encode_model(
        TinyNeuralLM(model.vocab, model.context, model.embedding, model.w1, model.b1, w2, model.b2)))


class TestNonFiniteLogits:
    """A NaN model raises instead of emitting token 0, in every mode and both sampling modes."""

    CONFIGS = [GREEDY_CFG, GenerationConfig(max_new_tokens=12, mode="stochastic", seed=3)]

    @pytest.mark.parametrize("config", CONFIGS, ids=["greedy", "stochastic"])
    def test_generate_blackbox_raises(self, world, config):
        _, base, _ = world
        with pytest.raises(ValueError, match="not finite"):
            generate_blackbox(nan_snapshot(base), [3, 4], config)

    @pytest.mark.parametrize("config", CONFIGS, ids=["greedy", "stochastic"])
    def test_generate_adapted_raises_with_a_nan_proxy(self, world, config):
        blackbox, base, adapter = world
        nan_base = nan_snapshot(base)
        with pytest.raises(ValueError, match="not finite"):
            generate_adapted(blackbox, nan_base, apply_adapter(nan_base, adapter), [3, 4], config)

    @pytest.mark.parametrize("config", CONFIGS, ids=["greedy", "stochastic"])
    @pytest.mark.parametrize("mode", ["api", "prada-sd"])
    def test_the_server_answers_a_fault(self, vocab, world, mode, config):
        _, base, adapter = world
        conn, thread = connect_in_process(Server(nan_snapshot(base)))
        client = Client(conn, vocab, base_proxy=base, adapter=adapter)
        client.handshake()
        run = client.run_api if mode == "api" else (
            lambda prompt, cfg: client.run_speculative(prompt, cfg, 4))
        with pytest.raises(RemoteProtocolError) as err:
            run([3, 4], config)
        assert (err.value.code, err.value.text) == (ERR_SERVER_FAULT, "ValueError")
        conn.close()
        thread.join(timeout=5)
        assert not thread.is_alive()


class TestWireErrors:
    def test_commit_without_session(self, vocab, world):
        blackbox, _, _ = world
        client = connected_client(Server(blackbox), vocab)
        client.conn.send_message(Commit(session_id=9, accept_count=0, replacement=3))
        reply = client.conn.recv_message()
        from offsetlm.messages import ProtocolError

        assert isinstance(reply, ProtocolError)
        assert reply.code == ERR_SESSION_UNKNOWN
        client.conn.close()

    def test_duplicate_session_id(self, vocab, world):
        blackbox, _, _ = world
        client = connected_client(Server(blackbox), vocab)
        start = StartSession(session_id=5, prompt=(3,), draft_len=2,
                             config=GenerationConfig(max_new_tokens=10))
        client.conn.send_message(start)
        assert isinstance(client.conn.recv_message(), DraftBatch)
        client.conn.send_message(start)
        reply = client.conn.recv_message()
        from offsetlm.messages import ProtocolError

        assert isinstance(reply, ProtocolError)
        client.conn.close()

    def test_out_of_sync_commit_ends_the_session(self, vocab, world):
        from offsetlm.messages import ProtocolError
        from offsetlm.protocol import ERR_OUT_OF_SYNC, _ConnectionState

        blackbox, _, _ = world
        server, state = Server(blackbox), _ConnectionState()
        start = StartSession(session_id=1, prompt=(3,), draft_len=4,
                             config=GenerationConfig(max_new_tokens=4))
        draft = server._dispatch(start, state)
        assert isinstance(draft, DraftBatch) and len(draft.tokens) == 4
        # the full accept spends the budget, so the server is done and the client is not
        commit = Commit(session_id=1, accept_count=4, replacement=None, done=False)
        reply = server._dispatch(commit, state)
        assert isinstance(reply, ProtocolError) and reply.code == ERR_OUT_OF_SYNC
        assert state.session is None
        reply = server._dispatch(commit, state)
        assert isinstance(reply, ProtocolError) and reply.code == ERR_SESSION_UNKNOWN

    def test_malformed_frame_gets_error_then_close(self, vocab, world):
        import struct

        blackbox, _, _ = world
        client = connected_client(Server(blackbox), vocab)
        client.conn.channel.send(struct.pack("<I", 3) + b"\xff\xff\xff")
        reply = client.conn.recv_message()
        from offsetlm.messages import ProtocolError
        from offsetlm.transport import ConnectionClosedError

        assert isinstance(reply, ProtocolError)
        assert reply.code == "malformed-payload"
        with pytest.raises(ConnectionClosedError):
            client.conn.recv_message()
        client.conn.close()

    @pytest.mark.parametrize("mode", ["api", "prada"])
    def test_server_fault_is_a_reply_then_a_close(self, vocab, world, caplog, mode):
        blackbox, base, adapter = world
        conn, thread = connect_in_process(Server(FailingModel(blackbox, ok=0)))
        client = Client(conn, vocab, base_proxy=base, adapter=adapter)
        client.handshake()
        run = client.run_api if mode == "api" else client.run_per_token
        with pytest.raises(RemoteProtocolError) as err:
            run([3], GREEDY_CFG)
        assert (err.value.code, err.value.text) == (ERR_SERVER_FAULT, "RuntimeError")
        with pytest.raises(ConnectionClosedError):
            conn.recv_message()
        thread.join(timeout=5)
        assert not thread.is_alive()
        request = "ServerGenerate" if mode == "api" else "StartSession"
        assert f"session 1: server fault on {request}" in caplog.text
        conn.close()

    @pytest.mark.parametrize("mode", ["api", "prada", "prada-sd"])
    def test_a_budget_whose_result_cannot_fit_a_frame_is_refused_before_any_forward(
            self, vocab, world, mode):
        blackbox, base, adapter = world
        failing = FailingModel(blackbox, ok=0)  # raises on its first forward
        conn, thread = connect_in_process(Server(failing))
        client = Client(conn, vocab, base_proxy=base, adapter=adapter)
        client.handshake()
        run = {"api": client.run_api, "prada": client.run_per_token,
               "prada-sd": lambda prompt, config: client.run_speculative(prompt, config, 8)}[mode]
        with pytest.raises(RemoteProtocolError) as err:
            run([3], GenerationConfig(max_new_tokens=MAX_RESULT_TOKENS + 1))
        assert err.value.code == ERR_LIMIT_EXCEEDED
        assert failing.raised == 0
        assert run([3], GenerationConfig(max_new_tokens=0)) == []  # the connection stays open
        with pytest.raises(RemoteProtocolError) as err:  # the largest budget is served
            run([3], GenerationConfig(max_new_tokens=MAX_RESULT_TOKENS))
        assert (err.value.code, failing.raised) == (ERR_SERVER_FAULT, 1)
        conn.close()
        thread.join(timeout=5)

    def test_max_result_tokens_is_the_most_one_result_frame_carries(self):
        head = len(encode_message(GenerationResult(session_id=0, tokens=())))
        assert head + 4 * MAX_RESULT_TOKENS <= MAX_PAYLOAD_LEN < head + 4 * (MAX_RESULT_TOKENS + 1)
        assert len(encode_message(GenerationResult(session_id=0, tokens=(0,) * 3))) == head + 12

    def test_a_reply_too_big_for_a_frame_is_a_server_fault(self, vocab, world, caplog, monkeypatch):
        blackbox, _, _ = world  # greedy chains never reach eos
        monkeypatch.setattr("offsetlm.transport.MAX_PAYLOAD_LEN", 100)  # 40 tokens take 173 B
        conn, thread = connect_in_process(Server(blackbox))
        client = Client(conn, vocab)
        client.handshake()
        with pytest.raises(RemoteProtocolError) as err:
            client.run_api([3], GenerationConfig(max_new_tokens=40))
        assert (err.value.code, err.value.text) == (ERR_SERVER_FAULT, "FrameTooLargeError")
        with pytest.raises(ConnectionClosedError):
            conn.recv_message()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert "session 1: server fault on ServerGenerate" in caplog.text
        conn.close()

    def test_non_hello_first_message_is_refused(self, vocab, world):
        blackbox, _, _ = world
        conn, _ = connect_in_process(Server(blackbox))
        conn.send_preamble()
        conn.send_message(Commit(session_id=1, accept_count=0, replacement=3))
        from offsetlm.messages import ProtocolError

        assert isinstance(conn.recv_message(), ProtocolError)
        conn.close()


def frame(msg) -> bytes:
    payload = encode_message(msg)
    return struct.pack("<I", len(payload)) + payload


def hello_for(vocab: Vocab, size: int | None = None, version: int = PROTOCOL_VERSION) -> Hello:
    return Hello(version, vocab.size if size is None else size, vocab.eos_id, vocab.bos_id, 0)


class ScriptedChannel(ByteChannel):
    """Reads replay ``script``; the first ``sends_ok`` sends succeed, then the peer is gone."""

    def __init__(self, script: bytes, sends_ok: int) -> None:
        self.script = bytearray(script)
        self.sends_ok = sends_ok
        self.closed = False

    def send(self, data: bytes) -> None:
        if self.sends_ok == 0:
            raise ConnectionClosedError("peer left")
        self.sends_ok -= 1

    def recv_exact(self, n: int) -> bytes:
        if len(self.script) < n:
            raise ConnectionClosedError("script ended")
        out = bytes(self.script[:n])
        del self.script[:n]
        return out

    def close(self) -> None:
        self.closed = True


V8 = Vocab(size=8, eos_id=1, bos_id=2)
SEQ_BLACKBOX = dense_blackbox(V8)
SEQ_BASE = TinyNeuralLM.random(V8, context=3, embed_dim=4, hidden_dim=6, seed=2)

_ids = st.integers(0, 3)
_prompts = st.lists(st.integers(0, V8.size - 1), max_size=3)
_budgets = st.integers(0, 8)
_hellos = st.sampled_from([hello_for(V8), hello_for(V8, size=9), hello_for(V8, version=PROTOCOL_VERSION + 1)])
_configs = st.builds(GenerationConfig, _budgets, st.sampled_from(["greedy", "stochastic"]),
                     st.just(0.8), st.integers(0, 2**64 - 1))
_requests = st.one_of(
    st.builds(StartSession, _ids, _prompts, st.integers(1, 8), _configs),
    st.builds(Commit, _ids, st.integers(0, 8), st.none() | st.integers(0, V8.size - 1), st.booleans()),
    st.builds(
        UploadAdapter,
        st.binary(min_size=1, max_size=64) | st.just(encode_adapter(rich_adapter(SEQ_BASE))),
        st.sampled_from([0, SEQ_BASE.fingerprint()]),
    ),
    st.builds(
        ServerGenerate, _ids, _prompts, st.sampled_from([FLAVOR_BLACKBOX, FLAVOR_ADAPTED]), _configs,
    ),
)


class TestConnectionLoop:
    """One receive loop per connection: every refusal is a reply, a leaving peer ends it quietly."""

    @pytest.mark.parametrize(
        "opening",
        [PREAMBLE + struct.pack("<I", 3) + b"\xff\xff\xff", b"XXXX\x01", b"PRDA\x09"],
        ids=["malformed-first-frame", "bad-magic", "bad-version"],
    )
    def test_bad_opening_gets_error_then_close(self, vocab, world, opening):
        conn, thread = connect_in_process(Server(world[0]))
        conn.channel.send(opening)
        reply = conn.recv_message()
        assert isinstance(reply, ProtocolError) and reply.code == ERR_MALFORMED
        with pytest.raises(ConnectionClosedError):
            conn.recv_message()
        thread.join(timeout=5)
        assert not thread.is_alive()
        conn.close()

    @pytest.mark.parametrize("sends_ok", [0, 1], ids=["before-hello-ack", "mid-session"])
    def test_peer_that_leaves_before_a_reply_ends_the_loop(self, vocab, world, sends_ok):
        start = frame(StartSession(session_id=1, prompt=(3,), draft_len=2,
                                   config=GenerationConfig(max_new_tokens=6)))
        channel = ScriptedChannel(PREAMBLE + frame(hello_for(vocab)) + start, sends_ok)
        Server(world[0]).serve_connection(FramedConnection(channel, side="server"))
        assert channel.closed
        # the failed send is the HelloAck, or the DraftBatch that answers the StartSession
        assert len(channel.script) == (len(start) if sends_ok == 0 else 0)

    def test_one_live_session_per_connection(self, vocab, world):
        conn = connected_client(Server(world[0]), vocab).conn
        conn.send_message(StartSession(session_id=1, prompt=(3,), draft_len=8,
                                       config=GenerationConfig(max_new_tokens=4)))
        draft = conn.recv_message()
        assert isinstance(draft, DraftBatch) and len(draft.tokens) == 4
        second = StartSession(session_id=2, prompt=(4,), draft_len=2,
                              config=GenerationConfig(max_new_tokens=4))
        conn.send_message(second)
        refusal = conn.recv_message()
        assert isinstance(refusal, ProtocolError) and refusal.code == ERR_INVALID_COMMIT
        assert "session 1 " in refusal.text
        conn.send_message(Commit(session_id=1, accept_count=4, done=True))
        result = conn.recv_message()
        assert isinstance(result, GenerationResult) and result.tokens == draft.tokens
        conn.send_message(second)
        assert isinstance(conn.recv_message(), DraftBatch)
        conn.close()

    @pytest.mark.parametrize("accept_count, replacement", [(5, None), (4, 3), (2, None), (2, 8)],
                             ids=["over-accept", "replacement-on-full-accept",
                                  "partial-without-replacement", "replacement-out-of-vocab"])
    def test_invalid_commit_is_refused_and_the_session_goes_on(self, vocab, world,
                                                               accept_count, replacement):
        conn = connected_client(Server(world[0]), vocab).conn
        conn.send_message(StartSession(session_id=1, prompt=(3,), draft_len=4,
                                       config=GenerationConfig(max_new_tokens=4)))
        draft = conn.recv_message()
        assert isinstance(draft, DraftBatch) and len(draft.tokens) == 4
        conn.send_message(Commit(session_id=1, accept_count=accept_count, replacement=replacement,
                                 done=True))
        refusal = conn.recv_message()
        assert isinstance(refusal, ProtocolError) and refusal.code == ERR_INVALID_COMMIT
        # the draft is still outstanding on the same connection
        conn.send_message(Commit(session_id=1, accept_count=4, done=True))
        result = conn.recv_message()
        assert isinstance(result, GenerationResult) and result.tokens == draft.tokens
        conn.close()

    @settings(max_examples=50, deadline=None)
    @given(
        greet=st.booleans(),
        more=st.lists(_hellos | _requests, min_size=1, max_size=5),
        fault_after=st.none() | st.integers(0, 4),
    )
    def test_every_message_gets_exactly_one_reply(self, greet, more, fault_after):
        # with fault_after = k, the black box raises from its (k + 1)-th forward on
        blackbox = SEQ_BLACKBOX if fault_after is None else FailingModel(SEQ_BLACKBOX, fault_after)
        server = Server(blackbox, SEQ_BASE)
        client_end, server_end = queue_channel_pair(timeout=5.0)
        errors = []

        def serve() -> None:
            try:
                server.serve_connection(FramedConnection(server_end, side="server"))
            except Exception as exc:  # surfaced below
                errors.append(exc)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        conn = FramedConnection(client_end, side="client")
        conn.send_preamble()
        sent = [hello_for(V8), *more] if greet else more
        # anything but an accepted Hello first is refused, and the server then closes
        closes = not (isinstance(sent[0], Hello) and server.check_hello(sent[0]).accept)
        for msg in sent[:1] if closes else sent:
            conn.send_message(msg)
            reply = conn.recv_message()
            assert isinstance(reply, (HelloAck, DraftBatch, GenerationResult, ProtocolError))
            # the server handled msg before it replied, so the count is settled
            faulted = getattr(blackbox, "raised", 0) > 0
            assert (isinstance(reply, ProtocolError) and reply.code == ERR_SERVER_FAULT) == faulted
            if faulted:
                assert reply.text == "RuntimeError"
                closes = True
                break
        if not closes:
            conn.close()
        with pytest.raises(ConnectionClosedError):
            conn.recv_message()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert errors == []
        conn.close()


SEQ_ADAPTER = rich_adapter(SEQ_BASE)
SEQ_TUNED = apply_adapter(SEQ_BASE, SEQ_ADAPTER)


def _outcome(run):
    """``run()``'s tokens, or the ``ValueError`` it raised."""
    try:
        return run()
    except ValueError as exc:
        return exc


class TestOnePromptRule:
    """Every mode refuses the prompts that in-process generation refuses, and agrees on the rest."""

    MODES = {
        "api": lambda c, p, cfg: c.run_api(p, cfg),
        "prada": lambda c, p, cfg: c.run_per_token(p, cfg),
        "prada-sd-1": lambda c, p, cfg: c.run_speculative(p, cfg, draft_len=1),
        "prada-sd-3": lambda c, p, cfg: c.run_speculative(p, cfg, draft_len=3),
        "prada-transfer": lambda c, p, cfg: c.run_transfer(p, cfg),
    }

    @settings(max_examples=40, deadline=None)
    @given(
        # ids up to V + 1: out of range ones too; eos (1) may sit anywhere
        prompt=st.lists(st.integers(0, V8.size + 1), max_size=6),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_every_mode_refuses_the_same_prompts(self, prompt, seed):
        for config in (GenerationConfig(max_new_tokens=5, mode="greedy"),
                       GenerationConfig(max_new_tokens=5, mode="stochastic", temperature=0.9,
                                        seed=seed)):
            plain = _outcome(lambda: generate_blackbox(SEQ_BLACKBOX, prompt, config))
            adapted = _outcome(lambda: generate_adapted(SEQ_BLACKBOX, SEQ_BASE, SEQ_TUNED, prompt,
                                                        config))
            refused = isinstance(plain, ValueError)
            assert isinstance(adapted, ValueError) == refused
            for mode, run in self.MODES.items():
                client = connected_client(Server(SEQ_BLACKBOX, SEQ_BASE), V8, SEQ_BASE, SEQ_ADAPTER)
                try:
                    if refused:
                        with pytest.raises(RemoteProtocolError) as err:
                            run(client, prompt, config)
                        assert err.value.code == ERR_INVALID_PROMPT, mode
                        assert err.value.text == str(plain), mode
                    else:
                        want = plain if mode == "api" else adapted
                        assert run(client, prompt, config) == want, mode
                finally:
                    client.conn.close()


def rogue_server(replies: dict) -> tuple[FramedConnection, threading.Thread]:
    """A socket-pair peer that answers each message with ``replies[type(msg)]``.

    A ``Hello`` gets an accepting ``HelloAck`` unless ``replies`` says otherwise.
    The peer serves until the client leaves, then closes its end.
    """
    client_end, server_end = queue_channel_pair(timeout=5.0)
    replies = {Hello: HelloAck(True, ""), **replies}

    def serve() -> None:
        conn = FramedConnection(server_end, side="server")
        try:
            conn.expect_preamble()
            while True:
                conn.send_message(replies[type(conn.recv_message())])
        except ConnectionClosedError:
            pass
        finally:
            conn.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return FramedConnection(client_end, side="client"), thread


def one_row_draft(session_id: int) -> DraftBatch:
    return DraftBatch(session_id=session_id, tokens=(3,), logits=np.zeros((1, V8.size), np.float32))


ROGUE_RUNS = {
    "handshake": lambda c: c.handshake(),
    "speculative": lambda c: c.run_speculative([3], GREEDY_CFG, draft_len=4),
    "transfer": lambda c: c.run_transfer([3], GREEDY_CFG),
    "api": lambda c: c.run_api([3], GREEDY_CFG),
}


class TestRogueServer:
    """The client refuses replies that do not fit its request; a draft's shape before any forward."""

    @pytest.mark.parametrize("fault", ["wide-rows", "token-out-of-vocab"])
    def test_bad_draft_geometry_is_out_of_sync(self, vocab, world, fault):
        _, base, adapter = world
        v = vocab.size
        if fault == "wide-rows":
            draft = DraftBatch(session_id=1, tokens=(3, 4), logits=np.zeros((2, v + 1), np.float32))
        else:
            draft = DraftBatch(session_id=1, tokens=(3, 4000, 4), logits=np.zeros((3, v), np.float32))
        conn, thread = rogue_server({StartSession: draft})
        client = Client(conn, vocab, base_proxy=base, adapter=adapter)
        client.handshake()
        client.proxy.base = CountingModel(client.proxy.base)
        client.proxy.tuned = CountingModel(client.proxy.tuned)
        with pytest.raises(OutOfSyncError):
            client.run_speculative([3], GREEDY_CFG, draft_len=4)
        assert client.proxy.base.rows == client.proxy.tuned.rows == 0
        conn.close()
        thread.join(timeout=5)
        assert not thread.is_alive()

    @pytest.mark.parametrize("run, replies, match", [
        ("handshake", {Hello: GenerationResult(1, ())}, "expected HelloAck, got GenerationResult"),
        ("speculative", {StartSession: one_row_draft(2)}, "unexpected message DraftBatch"),
        ("speculative", {StartSession: HelloAck(True, "")}, "unexpected message HelloAck"),
        ("speculative", {StartSession: GenerationResult(1, (5,))},
         r"server result \[5\] disagrees with client mirror \[\]"),
        ("speculative", {StartSession: GenerationResult(999, ())},
         "unexpected message GenerationResult"),
        ("transfer", {UploadAdapter: HelloAck(False, "no")}, "adapter upload not acknowledged"),
        ("transfer", {UploadAdapter: GenerationResult(1, ())}, "adapter upload not acknowledged"),
        ("api", {ServerGenerate: GenerationResult(2, (3,))}, "expected GenerationResult"),
        ("api", {ServerGenerate: one_row_draft(1)}, "expected GenerationResult"),
    ], ids=["handshake-not-acked", "draft-of-another-session", "mid-session-not-a-draft",
            "result-disagrees-with-mirror", "session-result-of-another-session", "upload-refused",
            "upload-not-acked", "result-of-another-session", "generate-answered-by-a-draft"])
    def test_a_reply_that_does_not_fit_is_out_of_sync(self, vocab, world, run, replies, match):
        _, base, adapter = world
        conn, thread = rogue_server(replies)
        client = Client(conn, vocab, base_proxy=base, adapter=adapter)
        if run != "handshake":
            client.handshake()
        with pytest.raises(OutOfSyncError, match=match):
            ROGUE_RUNS[run](client)
        conn.close()
        thread.join(timeout=5)
        assert not thread.is_alive()


class TestLedgerIntegration:
    def test_zero_adapter_accepts_every_draft(self, vocab, world):
        blackbox, base, _ = world
        ledger = CostLedger()
        client = connected_client(
            Server(blackbox), vocab, base, init_adapter(base, rank=2), ledger
        )
        got = client.run_speculative([3], GenerationConfig(max_new_tokens=16, mode="greedy"),
                                     draft_len=4)
        client.conn.close()
        assert len(got) == 16
        assert ledger.acceptance_rate() == 1.0
        assert ledger.replacements == 0
        assert ledger.round_count == 4  # ceil(16 / 4)
        ledger.check_token_flow()

    def test_divergent_adapter_mixes_accepts_and_replacements(self, vocab, world):
        blackbox, base, adapter = world
        ledger = CostLedger()
        client = connected_client(Server(blackbox), vocab, base, adapter, ledger)
        got = client.run_speculative([3], GenerationConfig(max_new_tokens=24, mode="greedy"),
                                     draft_len=4)
        client.conn.close()
        assert len(got) == 24
        rate = ledger.acceptance_rate()
        assert rate is not None and 0.0 < rate < 1.0
        assert ledger.replacements > 0
        assert ledger.tokens_committed == 24
        ledger.check_token_flow()

    @pytest.mark.parametrize("mode", ["greedy", "stochastic"])
    def test_each_proxy_computes_one_row_per_drafted_token(self, vocab, world, mode):
        """One stacked forward per proxy per round scores every drafted row, cut or not."""
        blackbox, base, adapter = world
        ledger = CostLedger()
        client = connected_client(Server(blackbox), vocab, base, adapter, ledger)
        client.proxy.base = CountingModel(client.proxy.base)
        client.proxy.tuned = CountingModel(client.proxy.tuned)
        config = GenerationConfig(max_new_tokens=24, mode=mode, temperature=1.2, seed=4)
        got = client.run_speculative([3], config, draft_len=4)
        client.conn.close()
        assert ledger.tokens_committed == len(got)
        assert ledger.tokens_drafted > ledger.tokens_committed  # some drafts were cut short
        assert client.proxy.base.rows == client.proxy.tuned.rows == ledger.tokens_drafted
        assert client.proxy.base.batches == client.proxy.tuned.batches == ledger.round_count


class TestTransports:
    def test_socket_and_queue_transports_agree_bit_for_bit(self, vocab, world):
        blackbox, base, adapter = world
        config = GenerationConfig(max_new_tokens=18, mode="greedy")

        queue_ledger = CostLedger()
        client = connected_client(Server(blackbox), vocab, base, adapter, queue_ledger)
        queue_tokens = client.run_speculative([3, 4], config, draft_len=4)
        client.conn.close()

        socket_ledger = CostLedger()
        with SocketServer(Server(blackbox)) as srv:
            host, port = srv.address
            conn = connect_socket(host, port, socket_ledger)
            sclient = Client(conn, vocab, base_proxy=base, adapter=adapter)
            sclient.handshake()
            socket_tokens = sclient.run_speculative([3, 4], config, draft_len=4)
            conn.close()

        assert socket_tokens == queue_tokens
        assert socket_ledger.bytes_by == queue_ledger.bytes_by
        assert socket_ledger.round_count == queue_ledger.round_count

    @needs_ipv6_loopback
    def test_round_trip_on_ipv6_loopback(self, vocab, world):
        blackbox, base, adapter = world
        config = GenerationConfig(max_new_tokens=10, mode="greedy")
        with SocketServer(Server(blackbox), host="::1") as srv:
            host, port = srv.address
            assert host == "::1"
            conn = connect_socket(host, port)
            client = Client(conn, vocab, base_proxy=base, adapter=adapter)
            client.handshake()
            assert client.run_api([4, 5], config) == generate_blackbox(blackbox, [4, 5], config)
            assert client.run_speculative([3], config, draft_len=3) == monolithic_generate_oracle(
                blackbox, base, apply_adapter(base, adapter), [3], config)
            conn.close()

    def test_two_concurrent_clients_are_isolated(self, vocab, world):
        blackbox, base, adapter = world
        config = GenerationConfig(max_new_tokens=10, mode="greedy")
        from offsetlm import apply_adapter

        expect_adapted = monolithic_generate_oracle(
            blackbox, base, apply_adapter(base, adapter), [3], config
        )
        expect_api = generate_blackbox(blackbox, [4, 5], config)
        results: dict[str, list[int]] = {}
        errors: list[Exception] = []

        with SocketServer(Server(blackbox)) as srv:
            host, port = srv.address

            def adapted_run():
                try:
                    conn = connect_socket(host, port)
                    c = Client(conn, vocab, base_proxy=base, adapter=adapter)
                    c.handshake()
                    results["adapted"] = c.run_speculative([3], config, draft_len=3)
                    conn.close()
                except Exception as exc:  # pragma: no cover - surfaced below
                    errors.append(exc)

            def api_run():
                try:
                    conn = connect_socket(host, port)
                    c = Client(conn, vocab)
                    c.handshake()
                    results["api"] = c.run_api([4, 5], config)
                    conn.close()
                except Exception as exc:  # pragma: no cover - surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=adapted_run), threading.Thread(target=api_run)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)

        assert not errors
        assert results["adapted"] == expect_adapted
        assert results["api"] == expect_api

    def test_close_ends_the_accept_loop(self, world):
        srv = SocketServer(Server(world[0])).start()
        srv.close()
        srv._accept_thread.join(timeout=5)
        assert not srv._accept_thread.is_alive()

    def test_same_session_ids_on_separate_connections_do_not_collide(self, vocab, world):
        blackbox, base, adapter = world
        server = Server(blackbox)
        config = GenerationConfig(max_new_tokens=6, mode="greedy")
        a = connected_client(server, vocab, base, adapter)
        b = connected_client(server, vocab, base, adapter)
        # both clients use session id 1; interleave their opening rounds
        a_start = StartSession(session_id=1, prompt=(3,), draft_len=2,
                               config=GenerationConfig(max_new_tokens=6))
        b_start = StartSession(session_id=1, prompt=(4,), draft_len=2,
                               config=GenerationConfig(max_new_tokens=6))
        a.conn.send_message(a_start)
        b.conn.send_message(b_start)
        assert isinstance(a.conn.recv_message(), DraftBatch)
        assert isinstance(b.conn.recv_message(), DraftBatch)
        a.conn.close()
        b.conn.close()


class TestResultIntegrity:
    def test_result_tokens_match_the_client_mirror(self, vocab, world):
        blackbox, base, adapter = world
        client = connected_client(Server(blackbox), vocab, base, adapter)
        got = client.run_speculative([3, 4, 5], GREEDY_CFG, draft_len=5)
        client.conn.close()
        from offsetlm import apply_adapter

        expect = monolithic_generate_oracle(
            blackbox, base, apply_adapter(base, adapter), [3, 4, 5], GREEDY_CFG
        )
        assert got == expect

    def test_sequential_sessions_reuse_one_connection(self, vocab, world):
        blackbox, base, adapter = world
        client = connected_client(Server(blackbox), vocab, base, adapter)
        first = client.run_per_token([3], GREEDY_CFG)
        second = client.run_speculative([3], GREEDY_CFG, draft_len=4)
        third = client.run_per_token([4, 5], GREEDY_CFG)
        client.conn.close()
        assert first == second
        assert len(third) == GREEDY_CFG.max_new_tokens


class FailingModel(LogitModel):
    """Delegates to ``inner`` for ``ok`` rows, then raises, also part-way through a stack of rows;
    counts the raises."""

    def __init__(self, inner: LogitModel, ok: int) -> None:
        self.inner = inner
        self.vocab = inner.vocab
        self.window = inner.window
        self.ok = ok
        self.raised = 0

    def batch_next_logits(self, seq, count):
        if self.ok < count:
            self.raised += 1
            raise RuntimeError("forward failed")
        self.ok -= count
        return self.inner.batch_next_logits(seq, count)


class CountingModel(LogitModel):
    """Delegates to ``inner``; counts the rows it computes and its ``batch_next_logits`` calls."""

    def __init__(self, inner: LogitModel) -> None:
        self.inner = inner
        self.vocab = inner.vocab
        self.window = inner.window
        self.rows = 0
        self.batches = 0

    def batch_next_logits(self, seq, count):
        self.rows += count
        self.batches += 1
        return self.inner.batch_next_logits(seq, count)


class TestLinearDecoding:
    """Per-step work reads a bounded tail; whole sequences are checked on entry."""

    HISTORY = [3, 4, 5, 6, 7, 0] * 1000

    def session(self, vocab, prompt=(3, 4, 5), draft_len=4) -> ServerSession:
        return ServerSession(session_id=1, vocab=vocab, prompt=tuple(prompt),
                             draft_len=draft_len, config=GenerationConfig(max_new_tokens=10))

    def test_generate_checks_the_whole_prompt_on_entry(self, vocab, world):
        blackbox, base, adapter = world
        prompt = [vocab.size] + [3] * 10  # bad token far outside every window
        with pytest.raises(VocabMismatchError):
            generate_blackbox(blackbox, prompt, GREEDY_CFG)
        with pytest.raises(VocabMismatchError):
            generate_adapted(blackbox, base, apply_adapter(base, adapter), prompt, GREEDY_CFG)

    def test_draft_reads_only_the_tail(self, vocab, world):
        blackbox, _, _ = world
        plain = self.session(vocab, prompt=self.HISTORY)
        guarded = self.session(vocab, prompt=self.HISTORY)
        guarded.canonical = TailOnly(self.HISTORY, limit=4)
        assert guarded.draft(blackbox) == plain.draft(blackbox)
        assert guarded.canonical == self.HISTORY

    def test_verify_reads_only_the_tail(self, vocab, world):
        blackbox, base, adapter = world
        draft = self.session(vocab, prompt=self.HISTORY).draft(blackbox)
        client = Client(None, vocab, base_proxy=base, adapter=adapter)
        plain = list(self.HISTORY)
        want = client._verify(plain, draft, GREEDY_CFG, make_rng(0), len(self.HISTORY))
        mirror = TailOnly(self.HISTORY, limit=base.window)
        assert client._verify(mirror, draft, GREEDY_CFG, make_rng(0), len(self.HISTORY)) == want
        assert len(plain) > len(self.HISTORY)
        assert mirror == plain

    def test_draft_rolls_back_when_a_forward_raises(self, vocab, world):
        blackbox, _, _ = world
        session = self.session(vocab)
        with pytest.raises(RuntimeError):
            session.draft(FailingModel(blackbox, ok=2))
        assert session.canonical == [3, 4, 5]
        assert session.last_draft is None
        assert session.draft(blackbox) == self.session(vocab).draft(blackbox)

    @pytest.mark.parametrize("failing", [pytest.param("base", id="base_proxy"),
                                         pytest.param("tuned", id="tuned_proxy")])
    def test_verify_rolls_back_when_a_forward_raises(self, vocab, world, failing):
        blackbox, base, adapter = world
        draft = self.session(vocab).draft(blackbox)
        client = Client(None, vocab, base_proxy=base, adapter=adapter)
        setattr(client.proxy, failing, FailingModel(getattr(client.proxy, failing), ok=2))
        mirror = [3, 4, 5]
        with pytest.raises(RuntimeError):
            client._verify(mirror, draft, GREEDY_CFG, make_rng(0), 3)
        assert mirror == [3, 4, 5]

    def test_oversized_draft_is_capped_to_one_frame(self, vocab, world):
        blackbox, _, _ = world  # greedy chains never reach eos
        conn, thread = connect_in_process(Server(blackbox))
        Client(conn, vocab).handshake()
        conn.send_message(StartSession(session_id=1, prompt=(3,), draft_len=70000,
                                       config=GenerationConfig(max_new_tokens=70000)))
        first = conn.recv_message()
        assert isinstance(first, DraftBatch)
        assert len(first.tokens) == max_draft_rows(vocab.size) == 0xFFFF
        assert thread.is_alive()
        conn.send_message(Commit(session_id=1, accept_count=0xFFFF))
        second = conn.recv_message()
        assert isinstance(second, DraftBatch)
        assert len(second.tokens) == 70000 - 0xFFFF
        conn.send_message(Commit(session_id=1, accept_count=len(second.tokens), done=True))
        result = conn.recv_message()
        assert isinstance(result, GenerationResult)
        assert result.tokens == first.tokens + second.tokens
        conn.close()
        thread.join(timeout=10)
        assert not thread.is_alive()
