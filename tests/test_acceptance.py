"""Acceptance gate: the system's headline guarantees, one verdict line apiece.

Every test here pins one end-to-end claim at an explicit tolerance and time
budget and prints a single checklist line (visible under ``pytest -s`` or in
captured output):

    acceptance criterion=1 name=speculative-equivalence verdict=PASS elapsed=...

The shared fixture is a small Markov world: a source transition matrix feeds
the black-box and the base proxy, a second, independently drawn matrix plays
the shifted target distribution the adapter is tuned toward. Everything is
seeded, so each criterion is a deterministic replay.
"""

from __future__ import annotations

import itertools
import math
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import monolithic_generate_oracle, with_biases

from offsetlm import (
    BigramTableModel,
    Client,
    CostLedger,
    GenerationConfig,
    LoraAdapter,
    Server,
    SocketServer,
    TinyNeuralLM,
    TrainConfig,
    Vocab,
    adapted_next_token,
    apply_adapter,
    connect_in_process,
    connect_socket,
    encode_adapter,
    fit_bigram,
    generate_adapted,
    generate_blackbox,
    init_adapter,
    load_model,
    loss_and_grads,
    make_rng,
    seeded_sample,
    train_lora,
    train_neural_lm,
)
from offsetlm.cli import main
from offsetlm.core import softmax64
from offsetlm.messages import (
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
from offsetlm.protocol import FingerprintMismatchError, ServerSession
from offsetlm.transport import (
    CAT_DATA,
    CAT_HANDSHAKE,
    CAT_INFERENCE,
    CAT_MODEL,
    CLIENT_TO_SERVER,
    SERVER_TO_CLIENT,
    MalformedPayloadError,
    decode_message,
    encode_message,
)


@contextmanager
def verdict(number: int, name: str, budget_s: float):
    """Time a criterion body and print exactly one pass/fail line."""
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"acceptance criterion={number} name={name} verdict=FAIL")
        raise
    elapsed = time.perf_counter() - start
    in_budget = elapsed < budget_s
    print(
        f"acceptance criterion={number} name={name} "
        f"verdict={'PASS' if in_budget else 'FAIL'} elapsed={elapsed:.2f}s"
    )
    assert in_budget, f"criterion {number} took {elapsed:.2f}s, budget {budget_s:.0f}s"


# ---------------------------------------------------------------------------
# Shared world
# ---------------------------------------------------------------------------


@dataclass
class World:
    vocab: Vocab
    ordinary: list[int]
    corpus_source: list[list[int]]
    corpus_shifted: list[list[int]]
    blackbox: BigramTableModel
    base: TinyNeuralLM
    strong: LoraAdapter  # tuned hard toward the shifted distribution
    mild: LoraAdapter  # nudged only slightly, so drafts mostly agree
    zero: LoraAdapter
    shifted_reference: BigramTableModel  # smoothed stand-in for the target


def _markov_corpus(trans, ordinary, rng, n_docs, length):
    docs = []
    for _ in range(n_docs):
        tok = ordinary[rng.integers(0, len(ordinary))]
        doc = [tok]
        for _ in range(length - 1):
            tok = ordinary[int(rng.choice(len(ordinary), p=trans[ordinary.index(tok)]))]
            doc.append(tok)
        docs.append(doc)
    return docs


@pytest.fixture(scope="module")
def world() -> World:
    vocab = Vocab(size=8, eos_id=1, bos_id=2)
    ordinary = [t for t in range(vocab.size) if t not in (vocab.eos_id, vocab.bos_id)]
    rng = np.random.default_rng(1234)
    k = len(ordinary)
    trans_source = rng.dirichlet([0.35] * k, size=k)
    trans_shifted = rng.dirichlet([0.35] * k, size=k)
    corpus_source = _markov_corpus(trans_source, ordinary, rng, 500, 40)
    corpus_shifted = _markov_corpus(trans_shifted, ordinary, rng, 500, 40)

    base = train_neural_lm(
        corpus_source, vocab, context=2, embed_dim=8, hidden_dim=16,
        lr=0.12, batch_size=16, epochs=8, seed=0,
    )
    blend = corpus_source[:350] + corpus_shifted[:150]
    return World(
        vocab=vocab,
        ordinary=ordinary,
        corpus_source=corpus_source,
        corpus_shifted=corpus_shifted,
        blackbox=fit_bigram(corpus_source, vocab, alpha=1.0),
        base=base,
        strong=train_lora(
            base, corpus_shifted,
            TrainConfig(lr=0.12, batch_size=16, epochs=8, rank=6, seed=0),
        ),
        mild=train_lora(
            base, blend, TrainConfig(lr=0.1, batch_size=16, epochs=2, rank=2, seed=0)
        ),
        zero=init_adapter(base, rank=2, seed=0),
        shifted_reference=fit_bigram(corpus_shifted, vocab, alpha=1.0),
    )


def _connected(world: World, adapter: LoraAdapter, *, blackbox=None, with_proxy=False):
    """Fresh in-process server + handshaken client with its own ledger."""
    server = Server(blackbox or world.blackbox,
                    base_proxy=world.base if with_proxy else None)
    ledger = CostLedger()
    conn, _ = connect_in_process(server, ledger)
    client = Client(conn, world.vocab, base_proxy=world.base, adapter=adapter)
    client.handshake()
    return client, conn, ledger


def dense_blackbox(vocab: Vocab, seed: int = 0) -> BigramTableModel:
    """Bigram table whose greedy continuations never hit eos (see protocol tests)."""
    rng = np.random.default_rng(seed)
    counts = np.zeros((vocab.size, vocab.size), dtype=np.int64)
    ordinary = [t for t in range(vocab.size) if t not in (vocab.eos_id, vocab.bos_id)]
    for i in ordinary:
        for j in ordinary:
            counts[i, j] = rng.integers(1, 30)
    return BigramTableModel(vocab, counts, alpha=1.0)


# ---------------------------------------------------------------------------
# Criterion 1: draft/verify decoding is exactly vanilla decoding
# ---------------------------------------------------------------------------


def test_criterion_1_speculative_matches_per_token(world):
    with verdict(1, "speculative-equivalence", 30.0):
        rng = np.random.default_rng(0xACC)
        neural_bb = with_biases(TinyNeuralLM.random(
            world.vocab, context=3, embed_dim=6, hidden_dim=8, seed=42
        ), 42)
        blackboxes = [world.blackbox, neural_bb]
        adapters = [world.zero, world.strong]
        config = GenerationConfig(max_new_tokens=16, mode="greedy")
        for _ in range(100):
            blackbox = blackboxes[rng.integers(0, 2)]
            adapter = adapters[rng.integers(0, 2)]
            prompt = [
                world.ordinary[i]
                for i in rng.integers(0, len(world.ordinary), int(rng.integers(1, 17)))
            ]
            draft_len = int(rng.choice([1, 2, 4, 8]))

            tuned = apply_adapter(world.base, adapter)
            expected = monolithic_generate_oracle(
                blackbox, world.base, tuned, prompt, config
            )

            client, conn, _ = _connected(world, adapter, blackbox=blackbox)
            spec = client.run_speculative(prompt, config, draft_len=draft_len)
            conn.close()

            client, conn, _ = _connected(world, adapter, blackbox=blackbox)
            sequential = client.run_per_token(prompt, config)
            conn.close()

            assert spec == expected
            assert sequential == expected


def test_criterion_1_stochastic_speculative_matches_per_token(world):
    """Stochastic draft/verify equals per-token decoding for every S.

    Verification draws once per inspected draft position and commits every
    position it inspects, so the k-th draw always picks response token k.
    """
    neural_bb = with_biases(
        TinyNeuralLM.random(world.vocab, context=3, embed_dim=6, hidden_dim=8, seed=42), 42
    )

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        draft_len=st.sampled_from([1, 2, 3, 5, 8]),
        seed=st.integers(0, 2**32 - 1),
        temperature=st.sampled_from([0.5, 0.8, 1.0, 1.3, 2.0]),
        neural=st.booleans(),
        adapter_name=st.sampled_from(["mild", "strong"]),
        prompt=st.lists(st.sampled_from(world.ordinary), min_size=1, max_size=12),
    )
    def check(draft_len, seed, temperature, neural, adapter_name, prompt):
        blackbox = neural_bb if neural else world.blackbox
        adapter = getattr(world, adapter_name)
        config = GenerationConfig(max_new_tokens=16, mode="stochastic",
                                  temperature=temperature, seed=seed)
        tuned = apply_adapter(world.base, adapter)
        expected = monolithic_generate_oracle(blackbox, world.base, tuned, prompt, config)
        assert generate_adapted(blackbox, world.base, tuned, prompt, config) == expected

        client, conn, _ = _connected(world, adapter, blackbox=blackbox)
        spec = client.run_speculative(prompt, config, draft_len=draft_len)
        conn.close()

        client, conn, _ = _connected(world, adapter, blackbox=blackbox)
        sequential = client.run_per_token(prompt, config)
        conn.close()

        assert spec == expected
        assert sequential == expected

    with verdict(1, "stochastic-speculative-equivalence", 30.0):
        check()


def test_criterion_1_any_draft_size_schedule_matches_fixed_s(world, monkeypatch):
    """Tokens do not depend on how the server sizes each draft.

    The session's size choice is replaced by an arbitrary schedule of sizes
    in [1, draft_len] (still clamped by the budget); greedy and stochastic
    runs must equal the fixed-S run, ``generate_adapted`` and the oracle.
    """
    neural_bb = with_biases(
        TinyNeuralLM.random(world.vocab, context=3, embed_dim=6, hidden_dim=8, seed=42), 42
    )

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        draft_len=st.sampled_from([1, 2, 3, 5, 8]),
        schedule=st.lists(st.integers(1, 8), min_size=1, max_size=20),
        stochastic=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        neural=st.booleans(),
        adapter_name=st.sampled_from(["mild", "strong"]),
        prompt=st.lists(st.sampled_from(world.ordinary), min_size=1, max_size=12),
    )
    def check(draft_len, schedule, stochastic, seed, neural, adapter_name, prompt):
        blackbox = neural_bb if neural else world.blackbox
        adapter = getattr(world, adapter_name)
        config = GenerationConfig(max_new_tokens=16, mode="stochastic" if stochastic else "greedy",
                                  temperature=1.0, seed=seed)
        tuned = apply_adapter(world.base, adapter)
        expected = monolithic_generate_oracle(blackbox, world.base, tuned, prompt, config)
        assert generate_adapted(blackbox, world.base, tuned, prompt, config) == expected

        sizes = itertools.cycle(1 + (s - 1) % draft_len for s in schedule)
        drafted = []

        def scheduled_size(session):
            drafted.append(min(next(sizes), session.budget_left()))
            return drafted[-1]

        monkeypatch.setattr(ServerSession, "draft_size", scheduled_size)
        client, conn, ledger = _connected(world, adapter, blackbox=blackbox)
        scheduled = client.run_speculative(prompt, config, draft_len=draft_len)
        conn.close()
        monkeypatch.setattr(ServerSession, "draft_size", lambda session: min(
            session.draft_len, session.budget_left()))
        client, conn, _ = _connected(world, adapter, blackbox=blackbox)
        fixed = client.run_speculative(prompt, config, draft_len=draft_len)
        conn.close()

        assert drafted and ledger.round_count == len(drafted)
        assert scheduled == fixed == expected

    with verdict(1, "draft-size-schedule-equivalence", 30.0):
        check()


def test_criterion_1_any_drafter_matches_generate_adapted(world, monkeypatch):
    """Tokens do not depend on which tokens the server drafts.

    The session's draft-token rule is replaced by the argmax, by the coupled
    rule itself or by a seeded arbitrary token; greedy and stochastic runs at
    several S must equal ``generate_adapted`` and the oracle.
    """
    neural_bb = with_biases(
        TinyNeuralLM.random(world.vocab, context=3, embed_dim=6, hidden_dim=8, seed=42), 42
    )
    coupled = ServerSession.draft_token

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        drafter=st.sampled_from(["argmax", "coupled", "arbitrary"]),
        draft_len=st.sampled_from([1, 2, 3, 5, 8]),
        stochastic=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        temperature=st.sampled_from([0.5, 1.0, 1.3]),
        neural=st.booleans(),
        adapter_name=st.sampled_from(["zero", "mild", "strong"]),
        prompt=st.lists(st.sampled_from(world.ordinary), min_size=1, max_size=12),
    )
    def check(drafter, draft_len, stochastic, seed, temperature, neural, adapter_name, prompt):
        blackbox = neural_bb if neural else world.blackbox
        adapter = getattr(world, adapter_name)
        config = GenerationConfig(max_new_tokens=16, mode="stochastic" if stochastic else "greedy",
                                  temperature=temperature, seed=seed)
        tuned = apply_adapter(world.base, adapter)
        expected = generate_adapted(blackbox, world.base, tuned, prompt, config)
        assert monolithic_generate_oracle(blackbox, world.base, tuned, prompt, config) == expected

        junk = np.random.default_rng(seed)
        rules = {
            "argmax": lambda session, z, i: int(np.argmax(z)),
            "coupled": coupled,
            "arbitrary": lambda session, z, i: int(junk.integers(0, session.vocab.size)),
        }
        monkeypatch.setattr(ServerSession, "draft_token", rules[drafter])
        client, conn, ledger = _connected(world, adapter, blackbox=blackbox)
        got = client.run_speculative(prompt, config, draft_len=draft_len)
        conn.close()
        monkeypatch.setattr(ServerSession, "draft_token", coupled)
        assert got == expected
        assert ledger.tokens_committed == len(got)

    with verdict(1, "drafter-invariance", 30.0):
        check()


# ---------------------------------------------------------------------------
# Criterion 2: a zero adapter reduces every CLI mode to the black-box
# ---------------------------------------------------------------------------


def _cli_tokens(result) -> list[int]:
    assert result.exit_code == 0, result.output
    match = re.search(r"record=result mode=\S+ tokens=(\S*)", result.output)
    assert match, result.output
    return [int(t) for t in match.group(1).split(",") if t]


def test_criterion_2_zero_offset_cli_identity(world, tmp_path):
    with verdict(2, "zero-offset-identity", 5.0):
        corpus_path = tmp_path / "corpus.txt"
        corpus_path.write_text(
            "\n".join(" ".join(str(t) for t in doc) for doc in world.corpus_source[:120])
        )
        blackbox_path = tmp_path / "blackbox.prdm"
        base_path = tmp_path / "base.prdm"
        zero_path = tmp_path / "zero.prdl"
        vocab_flags = ["--vocab-size", "8", "--eos-id", "1", "--bos-id", "2"]

        runner = CliRunner()
        fit = runner.invoke(main, [
            "fit-blackbox", "--corpus", str(corpus_path), "--out", str(blackbox_path),
            "--arch", "bigram", "--alpha", "1.0", *vocab_flags,
        ])
        assert fit.exit_code == 0, fit.output
        fit = runner.invoke(main, [
            "fit-blackbox", "--corpus", str(corpus_path), "--out", str(base_path),
            "--arch", "neural", "--context", "2", "--embed-dim", "4",
            "--hidden-dim", "6", "--epochs", "1", *vocab_flags,
        ])
        assert fit.exit_code == 0, fit.output
        trained = runner.invoke(main, [
            "train-proxy", "--base", str(base_path), "--corpus", str(corpus_path),
            "--out", str(zero_path), "--rank", "2", "--epochs", "0",
        ])
        assert trained.exit_code == 0, trained.output

        expected = generate_blackbox(
            load_model(blackbox_path), [3, 4, 5], GenerationConfig(max_new_tokens=12)
        )
        assert expected, "scenario must actually generate tokens"

        for mode in ("api", "prada", "prada-sd", "prada-transfer"):
            args = [
                "generate", "--mode", mode, "--blackbox", str(blackbox_path),
                "--prompt", "3 4 5", "--max-new-tokens", "12",
            ]
            if mode != "api":
                args += ["--base-proxy", str(base_path), "--adapter", str(zero_path)]
            assert _cli_tokens(runner.invoke(main, args)) == expected


# ---------------------------------------------------------------------------
# Criterion 3: analytic adapter gradients against central differences
# ---------------------------------------------------------------------------


def test_criterion_3_gradients_match_finite_differences(world):
    with verdict(3, "gradient-check", 30.0):
        rng = np.random.default_rng(31)
        eps = 1e-5
        models_checked = 0
        for case in range(20):
            size = int(rng.integers(5, 10))
            vocab = Vocab(size=size, eos_id=0, bos_id=size - 1)
            base = TinyNeuralLM.random(
                vocab,
                context=int(rng.integers(2, 4)),
                embed_dim=int(rng.integers(3, 7)),
                hidden_dim=int(rng.integers(4, 9)),
                seed=100 + case,
            )
            adapter = init_adapter(base, rank=int(rng.integers(1, 4)), seed=200 + case)
            scaling = float(rng.choice([0.5, 1.0, 2.0]))
            for t in adapter.targets:
                t.scaling = scaling
                t.b = rng.normal(0.0, 0.3, size=t.b.shape)
                t.a = rng.normal(0.0, 0.3, size=t.a.shape)
            batch = [
                [int(x) for x in rng.integers(0, size, int(rng.integers(4, 9)))]
                for _ in range(int(rng.integers(2, 5)))
            ]

            _, grads = loss_and_grads(base, adapter, batch)
            for t in adapter.targets:
                for factor in ("b", "a"):
                    arr = getattr(t, factor)
                    analytic = grads[t.name][factor]
                    for idx in np.ndindex(arr.shape):
                        orig = arr[idx]
                        arr[idx] = orig + eps
                        up, _ = loss_and_grads(base, adapter, batch)
                        arr[idx] = orig - eps
                        down, _ = loss_and_grads(base, adapter, batch)
                        arr[idx] = orig
                        fd = (up - down) / (2 * eps)
                        rel = abs(fd - analytic[idx]) / max(1e-8, abs(fd) + abs(analytic[idx]))
                        assert rel < 1e-4, (
                            f"case {case} {t.name}.{factor}{idx}: "
                            f"analytic {analytic[idx]:.3e} vs fd {fd:.3e}"
                        )
            models_checked += 1
        assert models_checked == 20


# ---------------------------------------------------------------------------
# Criterion 4: offset adaptation moves samples measurably toward the target
# ---------------------------------------------------------------------------


def _kl_to_reference(histogram: np.ndarray, reference: np.ndarray) -> float:
    total = histogram.sum()
    out = 0.0
    for count, q in zip(histogram, reference):
        if count:
            p = count / total
            out += p * math.log(p / q)
    return out


def test_criterion_4_adaptation_shrinks_kl(world):
    with verdict(4, "adaptation-effect", 120.0):
        tuned = apply_adapter(world.base, world.strong)
        config = GenerationConfig(max_new_tokens=1, mode="stochastic", temperature=1.0)
        contexts = [[c] for c in world.ordinary]
        # 10_000 one-token continuations per arm, split across the contexts
        draws = [1667, 1667, 1667, 1667, 1666, 1666]
        assert sum(draws) == 10_000 and len(draws) == len(contexts)

        kl_black = []
        kl_adapted = []
        for ctx, n_draws in zip(contexts, draws):
            z_b = world.blackbox.next_logits(ctx)
            z_p, z_p_tuned = world.base.next_logits(ctx), tuned.next_logits(ctx)
            reference = softmax64(
                world.shifted_reference.next_logits(ctx).astype(np.float64), 1.0
            )
            rng_black, rng_adapted = make_rng(7), make_rng(7)
            hist_black = np.zeros(world.vocab.size)
            hist_adapted = np.zeros(world.vocab.size)
            for _ in range(n_draws):
                hist_black[seeded_sample(z_b, 1.0, rng_black)] += 1
                hist_adapted[adapted_next_token(z_b, z_p_tuned - z_p, config, rng_adapted.random())] += 1
            kl_black.append(_kl_to_reference(hist_black, reference))
            kl_adapted.append(_kl_to_reference(hist_adapted, reference))

        mean_black = float(np.mean(kl_black))
        mean_adapted = float(np.mean(kl_adapted))
        assert mean_adapted < mean_black
        # threshold locked from the calibration run: measured reduction 0.857
        reduction = (mean_black - mean_adapted) / mean_black
        assert reduction >= 0.20, f"KL reduction {reduction:.3f} below the 20% floor"


# ---------------------------------------------------------------------------
# Criterion 5: ledger totals equal a closed-form byte count
# ---------------------------------------------------------------------------


def test_criterion_5_ledger_matches_closed_form(world):
    with verdict(5, "ledger-closed-form", 5.0):
        vocab32 = Vocab(size=32, eos_id=0, bos_id=1)
        blackbox = dense_blackbox(vocab32, seed=3)
        base = TinyNeuralLM.random(vocab32, context=2, embed_dim=4, hidden_dim=6, seed=3)
        zero = init_adapter(base, rank=2, seed=0)
        prompt = [5, 6, 7, 8, 9, 10, 11, 12, 13, 14]  # ten ordinary tokens
        budget, draft_len = 24, 8

        ledger = CostLedger()
        conn, _ = connect_in_process(Server(blackbox), ledger)
        client = Client(conn, vocab32, base_proxy=base, adapter=zero)
        client.handshake()
        tokens = client.run_speculative(
            prompt, GenerationConfig(max_new_tokens=budget, mode="greedy"),
            draft_len=draft_len,
        )
        conn.close()

        assert len(tokens) == budget  # dense table: greedy never emits eos
        rounds = math.ceil(budget / draft_len)
        assert ledger.round_count == rounds

        # Frame = 4-byte length header + payload; payloads per transport.py.
        hello = 4 + (1 + 4 + 4 + 4 + 4 + 8)          # tag, version, vocab geometry, print
        preamble = 5                                  # magic + version, sent once
        hello_ack = 4 + (1 + 1 + 2)                   # tag, flag, empty reason
        start = 4 + (1 + 8 + 4 + 4 * len(prompt) + 4 + 17)  # draft_len, then the config
        draft = 4 + (1 + 8 + 2 + 4 * draft_len + 4 * draft_len * vocab32.size)
        commit = 4 + (1 + 8 + 4 + 1 + 1)              # full accept: no replacement
        result = 4 + (1 + 8 + 4 + 4 * budget)

        expected = {
            (CAT_HANDSHAKE, CLIENT_TO_SERVER): preamble + hello,
            (CAT_HANDSHAKE, SERVER_TO_CLIENT): hello_ack,
            (CAT_DATA, CLIENT_TO_SERVER): start,
            (CAT_DATA, SERVER_TO_CLIENT): 0,
            (CAT_INFERENCE, CLIENT_TO_SERVER): rounds * commit,
            (CAT_INFERENCE, SERVER_TO_CLIENT): rounds * draft + result,
            (CAT_MODEL, CLIENT_TO_SERVER): 0,
            (CAT_MODEL, SERVER_TO_CLIENT): 0,
        }
        for (category, direction), value in expected.items():
            assert ledger.bytes_total(category, direction) == value, (category, direction)

        # Qualitative cost shape: draft/verify pays inference bytes and ships no
        # model; one-shot transfer ships the adapter and pays only the result.
        config32 = GenerationConfig(max_new_tokens=32, mode="greedy")
        client, conn, led_sd = _connected(world, world.mild, with_proxy=True)
        client.run_speculative([3], config32, draft_len=8)
        conn.close()
        client, conn, led_tr = _connected(world, world.mild, with_proxy=True)
        transferred = client.run_transfer([3], config32)
        conn.close()

        assert led_sd.bytes_total(CAT_MODEL) == 0
        upload = 4 + (1 + 4 + len(encode_adapter(world.mild)) + 8)
        assert led_tr.bytes_total(CAT_MODEL, CLIENT_TO_SERVER) == upload
        assert led_tr.bytes_total(CAT_INFERENCE, CLIENT_TO_SERVER) == 0
        assert led_tr.bytes_total(CAT_INFERENCE, SERVER_TO_CLIENT) == (
            4 + (1 + 8 + 4 + 4 * len(transferred))
        )
        assert led_sd.bytes_total(CAT_INFERENCE) > led_tr.bytes_total(CAT_INFERENCE)


# ---------------------------------------------------------------------------
# Criterion 6: round counts obey the ceiling law
# ---------------------------------------------------------------------------


def test_criterion_6_round_count_law(world):
    with verdict(6, "round-count-law", 10.0):
        config = GenerationConfig(max_new_tokens=32, mode="greedy")

        for draft_len in (1, 2, 4, 8):
            client, conn, ledger = _connected(world, world.zero)
            tokens = client.run_speculative([3], config, draft_len=draft_len)
            conn.close()
            assert len(tokens) == 32
            assert ledger.round_count == math.ceil(32 / draft_len)
            assert ledger.acceptance_rate() == 1.0

        # a single-token draft can never save a round, adapted or not
        client, conn, ledger = _connected(world, world.mild)
        tokens = client.run_speculative([3], config, draft_len=1)
        conn.close()
        assert len(tokens) == 32 and ledger.round_count == 32

        for draft_len in (2, 4, 8):
            client, conn, ledger = _connected(world, world.mild)
            tokens = client.run_speculative([3], config, draft_len=draft_len)
            conn.close()
            length = len(tokens)
            assert length == 32
            floor = math.ceil(length / draft_len)
            assert floor < ledger.round_count < length, (
                f"S={draft_len}: rounds {ledger.round_count} "
                f"not strictly inside ({floor}, {length})"
            )


def test_criterion_6_zero_adapter_accepts_every_coupled_draft(world):
    """Stochastic drafts obey the ceiling law when the offset is zero.

    With B = 0 the tuned proxy's row equals the base proxy's bit for bit, so
    the adjusted row is the black-box row, and the client samples it at the
    uniform the server drafted with: every coupled draft is accepted.
    """
    with verdict(6, "zero-adapter-coupled-round-law", 10.0):
        neural_bb = with_biases(
            TinyNeuralLM.random(world.vocab, context=3, embed_dim=6, hidden_dim=8, seed=42), 42
        )
        tuned = apply_adapter(world.base, world.zero)
        lengths = []
        for blackbox, temperature, draft_len, seed in itertools.product(
            (world.blackbox, neural_bb), (1.0, 0.5), (2, 8), range(3)
        ):
            config = GenerationConfig(max_new_tokens=32, mode="stochastic",
                                      temperature=temperature, seed=seed)
            client, conn, ledger = _connected(world, world.zero, blackbox=blackbox)
            tokens = client.run_speculative([3], config, draft_len=draft_len)
            conn.close()
            assert tokens == generate_adapted(blackbox, world.base, tuned, [3], config)
            assert ledger.tokens_drafted == ledger.tokens_committed == len(tokens)
            assert ledger.replacements == 0
            assert ledger.round_count == math.ceil(len(tokens) / draft_len)
            lengths.append(len(tokens))
        assert max(lengths) == 32  # some runs spend the whole budget


# ---------------------------------------------------------------------------
# Criterion 7: one-shot transfer equals the round-trip client
# ---------------------------------------------------------------------------


def test_criterion_7_transfer_equivalence(world):
    with verdict(7, "transfer-equivalence", 5.0):
        for config in (
            GenerationConfig(max_new_tokens=24, mode="greedy"),
            GenerationConfig(max_new_tokens=24, mode="stochastic",
                             temperature=1.0, seed=11),
        ):
            client, conn, _ = _connected(world, world.strong, with_proxy=True)
            per_token = client.run_per_token([3, 4], config)
            conn.close()
            client, conn, _ = _connected(world, world.strong, with_proxy=True)
            transferred = client.run_transfer([3, 4], config)
            conn.close()
            assert transferred == per_token

        foreign_base = TinyNeuralLM.random(
            world.vocab, context=2, embed_dim=8, hidden_dim=16, seed=77
        )
        server = Server(world.blackbox, base_proxy=world.base)
        conn, _ = connect_in_process(server, CostLedger())
        client = Client(conn, world.vocab, base_proxy=foreign_base, adapter=world.strong)
        client.handshake()
        with pytest.raises(FingerprintMismatchError):
            client.run_transfer([3, 4], GenerationConfig(max_new_tokens=8))
        conn.close()


# ---------------------------------------------------------------------------
# Criterion 8: the wire format survives hostile bytes
# ---------------------------------------------------------------------------


def _random_text(rng) -> str:
    alphabet = "abcdefghij-ключ"
    return "".join(alphabet[i] for i in rng.integers(0, len(alphabet), rng.integers(0, 12)))


def _random_message(rng) -> Message:
    kind = int(rng.integers(0, 9))
    session_id = int(rng.integers(0, 2**63))
    tokens = [int(t) for t in rng.integers(0, 2**32, int(rng.integers(1, 7)))]
    if kind == 0:
        size = int(rng.integers(1, 40))
        return Hello(
            protocol_version=int(rng.integers(0, 256)),
            vocab_size=size,
            eos_id=int(rng.integers(0, size)),
            bos_id=int(rng.integers(0, size)),
            model_fingerprint=int(rng.integers(0, 2**64, dtype=np.uint64)),
        )
    if kind == 1:
        return HelloAck(accept=bool(rng.integers(0, 2)), reason=_random_text(rng))
    if kind == 2:
        return StartSession(
            session_id=session_id,
            prompt=tokens,
            draft_len=int(rng.integers(1, 17)),
            config=GenerationConfig(max_new_tokens=int(rng.integers(0, 100))),
        )
    if kind == 3:
        n, vocab = int(rng.integers(1, 7)), int(rng.integers(1, 11))
        return DraftBatch(
            session_id=session_id,
            tokens=tokens[:n] + [0] * max(0, n - len(tokens)),
            logits=rng.normal(0.0, 3.0, (n, vocab)).astype(np.float32),
        )
    if kind == 4:
        has_replacement = bool(rng.integers(0, 2))
        return Commit(
            session_id=session_id,
            accept_count=int(rng.integers(0, 17)),
            replacement=int(rng.integers(0, 2**32)) if has_replacement else None,
            done=bool(rng.integers(0, 2)),
        )
    if kind == 5:
        return UploadAdapter(
            adapter_bytes=rng.bytes(int(rng.integers(1, 60))),
            base_fingerprint=int(rng.integers(0, 2**64, dtype=np.uint64)),
        )
    if kind == 6:
        stochastic = bool(rng.integers(0, 2))
        return ServerGenerate(
            session_id=session_id,
            prompt=tokens,
            flavor=int(rng.integers(0, 2)),
            config=GenerationConfig(
                mode="stochastic" if stochastic else "greedy",
                temperature=float(rng.integers(1, 64)) / 16.0,
                seed=int(rng.integers(0, 2**64, dtype=np.uint64)),
                max_new_tokens=int(rng.integers(0, 100)),
            ),
        )
    if kind == 7:
        return GenerationResult(session_id=session_id, tokens=tokens)
    return ProtocolError(code=_random_text(rng) or "err", text=_random_text(rng))


def test_criterion_8_wire_robustness(world):
    with verdict(8, "wire-robustness", 30.0):
        rng = np.random.default_rng(88)
        samples = []
        for _ in range(10_000):
            message = _random_message(rng)
            payload = encode_message(message)
            assert decode_message(payload) == message
            samples.append((message, payload))

        # Truncation: strict decoders must refuse every prefix. The one carve-out
        # is DraftBatch, whose column count is inferred from the payload length,
        # so a prefix can parse as a *different* batch - never the original.
        for message, payload in samples[:200]:
            for cut in range(len(payload)):
                try:
                    clone = decode_message(payload[:cut])
                except MalformedPayloadError:
                    continue
                assert isinstance(message, DraftBatch) and clone != message

        # Corruption: anything may fail to parse, but only ever with the
        # malformed-payload error; a lucky corruption may still decode cleanly.
        for _ in range(2_000):
            message, payload = samples[int(rng.integers(0, len(samples)))]
            corrupted = bytearray(payload)
            for pos in rng.integers(0, len(corrupted), int(rng.integers(1, 5))):
                corrupted[pos] = (corrupted[pos] + int(rng.integers(1, 256))) % 256
            try:
                clone = decode_message(bytes(corrupted))
            except MalformedPayloadError:
                continue
            assert isinstance(clone, Message)


# ---------------------------------------------------------------------------
# Criterion 9: transports cannot change the answer or the bill
# ---------------------------------------------------------------------------


def test_criterion_9_transport_determinism(world):
    with verdict(9, "transport-determinism", 10.0):
        def scripted_session(connect):
            ledger = CostLedger()
            conn = connect(ledger)
            client = Client(conn, world.vocab, base_proxy=world.base, adapter=world.mild)
            client.handshake()
            outputs = (
                client.run_speculative(
                    [3, 4], GenerationConfig(max_new_tokens=32, mode="greedy"),
                    draft_len=4,
                ),
                client.run_per_token(
                    [5], GenerationConfig(max_new_tokens=16, mode="stochastic",
                                          temperature=1.0, seed=5)
                ),
                client.run_transfer(
                    [3], GenerationConfig(max_new_tokens=24, mode="greedy")
                ),
            )
            conn.close()
            return outputs, ledger

        def in_process(ledger):
            server = Server(world.blackbox, base_proxy=world.base)
            conn, _ = connect_in_process(server, ledger)
            return conn

        via_queue, queue_ledger = scripted_session(in_process)

        with SocketServer(Server(world.blackbox, base_proxy=world.base)) as sock_server:
            host, port = sock_server.address

            def over_socket(ledger):
                return connect_socket(host, port, ledger)

            via_socket, socket_ledger = scripted_session(over_socket)

        assert via_socket == via_queue
        assert socket_ledger.bytes_by == queue_ledger.bytes_by
        assert socket_ledger.round_count == queue_ledger.round_count
        assert socket_ledger.tokens_committed == queue_ledger.tokens_committed
