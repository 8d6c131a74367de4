"""Model backends: counting oracle, purity, batching, snapshots, fingerprints."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offsetlm import (
    BigramTableModel,
    TinyNeuralLM,
    Vocab,
    apply_adapter,
    fit_bigram,
    init_adapter,
    load_model,
    save_model,
    train_neural_lm,
)
from offsetlm import lora, models
from offsetlm.core import VocabMismatchError
from offsetlm.models import (
    EmptyCorpusError,
    SnapshotFormatError,
    TrainingDivergedError,
    decode_model,
    encode_model,
    hash64,
    training_positions,
)

from conftest import TailOnly, pair_count_oracle, random_corpus, with_biases


@pytest.fixture
def vocab3() -> Vocab:
    return Vocab(size=3, eos_id=0, bos_id=2)


@pytest.fixture
def neural(vocab) -> TinyNeuralLM:
    return with_biases(TinyNeuralLM.random(vocab, context=3, embed_dim=4, hidden_dim=6, seed=9), 9)


class TestFitBigram:
    def test_worked_example_counts(self, vocab3):
        model = fit_bigram([[1, 2, 1, 2, 1]], vocab3, alpha=1.0)
        assert model.counts[1][2] == 2
        assert model.counts[2][1] == 2
        assert model.counts.sum() == 4

    def test_worked_example_logits(self, vocab3):
        model = fit_bigram([[1, 2, 1, 2, 1]], vocab3, alpha=1.0)
        # token 2 follows token 1 twice -> smoothed counts (1, 1, 3) after 1
        after_1 = np.log(np.array([1.0, 1.0, 3.0])).astype(np.float32)
        after_2 = np.log(np.array([1.0, 3.0, 1.0])).astype(np.float32)
        np.testing.assert_array_equal(model.next_logits([1, 2, 1]), after_1)
        np.testing.assert_array_equal(model.next_logits([1, 2]), after_2)

    def test_single_pair(self, vocab3):
        model = fit_bigram([[0, 0]], vocab3, alpha=0.5)
        assert model.counts[0][0] == 1
        assert model.counts.sum() == 1

    def test_counts_match_brute_force_oracle(self, vocab):
        rng = np.random.default_rng(2)
        for trial in range(20):
            corpus = random_corpus(rng, vocab, n_docs=5, length=12)
            model = fit_bigram(corpus, vocab, alpha=1.0)
            np.testing.assert_array_equal(
                model.counts, pair_count_oracle(corpus, vocab.size)
            )

    def test_empty_corpus_errors(self, vocab):
        with pytest.raises(EmptyCorpusError):
            fit_bigram([], vocab, alpha=1.0)
        with pytest.raises(EmptyCorpusError):
            fit_bigram([[], []], vocab, alpha=1.0)

    def test_out_of_range_token_errors(self, vocab):
        with pytest.raises(VocabMismatchError):
            fit_bigram([[3, vocab.size]], vocab, alpha=1.0)

    def test_alpha_must_be_positive(self, vocab):
        with pytest.raises(ValueError):
            fit_bigram([[3, 4]], vocab, alpha=0.0)

    @pytest.mark.parametrize("alpha", [1e39, float("inf"), float("nan"), 1e-50])
    def test_alpha_must_be_positive_and_finite_in_binary32(self, vocab, alpha):
        with pytest.raises(ValueError, match="alpha must be positive and finite in binary32"):
            fit_bigram([[3, 4]], vocab, alpha=alpha)


class TestBigramTableModel:
    def test_logits_are_log_smoothed_counts(self, vocab):
        rng = np.random.default_rng(5)
        counts = rng.integers(0, 9, size=(vocab.size, vocab.size))
        model = BigramTableModel(vocab, counts, alpha=2.0)
        for ctx in range(vocab.size):
            expected = np.log(counts[ctx].astype(np.float64) + 2.0).astype(np.float32)
            np.testing.assert_array_equal(model.next_logits([ctx]), expected)

    def test_only_last_token_matters(self, vocab3):
        model = fit_bigram([[1, 2, 1, 2, 1]], vocab3, alpha=1.0)
        np.testing.assert_array_equal(
            model.next_logits([1]), model.next_logits([2, 2, 0, 1])
        )

    def test_purity(self, vocab3):
        model = fit_bigram([[1, 2, 1, 2, 1]], vocab3, alpha=1.0)
        a = model.next_logits([1, 2])
        b = model.next_logits([1, 2])
        np.testing.assert_array_equal(a, b)
        assert a.dtype == np.float32

    def test_returned_rows_are_independent_copies(self, vocab3):
        model = fit_bigram([[1, 2]], vocab3, alpha=1.0)
        row = model.next_logits([1])
        row[0] = 99.0
        assert model.next_logits([1])[0] != 99.0

    def test_rejects_bad_construction(self, vocab3):
        good = np.zeros((3, 3), dtype=np.int64)
        with pytest.raises(ValueError):
            BigramTableModel(vocab3, np.zeros((2, 3)), alpha=1.0)
        with pytest.raises(ValueError):
            BigramTableModel(vocab3, good - 1, alpha=1.0)
        for alpha in (-1.0, 1e39, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                BigramTableModel(vocab3, good, alpha=alpha)

    def test_rejects_out_of_range_query(self, vocab3):
        model = fit_bigram([[1, 2]], vocab3, alpha=1.0)
        with pytest.raises(VocabMismatchError):
            model.next_logits([1, 3])
        with pytest.raises(ValueError):
            model.next_logits([])


class TestTinyNeuralLM:
    def test_zero_output_layer_gives_zero_logits(self, vocab):
        base = TinyNeuralLM.random(vocab, context=2, embed_dim=3, hidden_dim=4, seed=0)
        model = TinyNeuralLM(
            vocab,
            base.context,
            base.embedding,
            base.w1,
            base.b1,
            np.zeros_like(base.w2),
            np.zeros_like(base.b2),
        )
        for seq in ([3], [3, 4, 5, 6], [vocab.bos_id]):
            np.testing.assert_array_equal(
                model.next_logits(seq), np.zeros(vocab.size, dtype=np.float32)
            )

    def test_output_shape_and_dtype(self, neural, vocab):
        out = neural.next_logits([3, 4])
        assert out.shape == (vocab.size,)
        assert out.dtype == np.float32

    def test_purity(self, neural):
        np.testing.assert_array_equal(neural.next_logits([3, 4]), neural.next_logits([3, 4]))

    def test_depends_only_on_window(self, neural):
        # context=3: anything before the last three tokens is invisible
        np.testing.assert_array_equal(
            neural.next_logits([7, 7, 3, 4, 5]), neural.next_logits([6, 5, 3, 4, 5])
        )

    def test_short_sequences_pad_with_bos(self, neural, vocab):
        np.testing.assert_array_equal(
            neural.next_logits([4]), neural.next_logits([vocab.bos_id, vocab.bos_id, 4])
        )
        assert neural.window_ids([4]) == [vocab.bos_id, vocab.bos_id, 4]

    def test_random_snapshot_is_seeded(self, vocab):
        a = TinyNeuralLM.random(vocab, seed=4)
        b = TinyNeuralLM.random(vocab, seed=4)
        c = TinyNeuralLM.random(vocab, seed=5)
        np.testing.assert_array_equal(a.w1, b.w1)
        assert not np.array_equal(a.w1, c.w1)

    def test_rejects_inconsistent_shapes(self, vocab):
        base = TinyNeuralLM.random(vocab, context=2, embed_dim=3, hidden_dim=4)
        with pytest.raises(ValueError):
            TinyNeuralLM(vocab, 2, base.embedding, base.w1[:, :-1], base.b1, base.w2, base.b2)
        with pytest.raises(ValueError):
            TinyNeuralLM(vocab, 0, base.embedding, base.w1, base.b1, base.w2, base.b2)

    def test_parameters_are_read_only(self, neural):
        with pytest.raises(ValueError):
            neural.w2[0, 0] = 1.0


class TestTrainNeuralLm:
    def test_zero_epochs_equals_seeded_init(self, vocab):
        corpus = [[3, 4, 5, 6], [4, 4, 3]]
        trained = train_neural_lm(
            corpus, vocab, context=2, embed_dim=3, hidden_dim=4, epochs=0, seed=7
        )
        init = TinyNeuralLM.random(vocab, context=2, embed_dim=3, hidden_dim=4, seed=7)
        for name in ("embedding", "w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(trained, name), getattr(init, name))

    def test_training_reduces_cross_entropy(self, vocab):
        rng = np.random.default_rng(0)
        corpus = random_corpus(rng, vocab, n_docs=30, length=20)
        kwargs = dict(context=2, embed_dim=4, hidden_dim=8, seed=1)
        before = train_neural_lm(corpus, vocab, epochs=0, **kwargs)
        after = train_neural_lm(corpus, vocab, epochs=8, lr=0.2, **kwargs)

        def mean_ce(model):
            total, n = 0.0, 0
            for doc in corpus:
                for j in range(len(doc) - 1):
                    z = model.next_logits(doc[: j + 1]).astype(np.float64)
                    z -= z.max()
                    total += np.log(np.exp(z).sum()) - z[doc[j + 1]]
                    n += 1
            return total / n

        assert mean_ce(after) < mean_ce(before) - 0.05

    def test_deterministic_given_seed(self, vocab):
        corpus = [[3, 4, 5, 3, 4, 5], [5, 4, 3]]
        kwargs = dict(context=2, embed_dim=3, hidden_dim=4, epochs=2, seed=3)
        a = train_neural_lm(corpus, vocab, **kwargs)
        b = train_neural_lm(corpus, vocab, **kwargs)
        np.testing.assert_array_equal(a.w2, b.w2)
        np.testing.assert_array_equal(a.embedding, b.embedding)

    def test_requires_a_trainable_pair(self, vocab):
        with pytest.raises(EmptyCorpusError):
            train_neural_lm([[3], []], vocab)

    def test_divergence_is_refused(self, vocab):
        corpus = random_corpus(np.random.default_rng(2), vocab, n_docs=8, length=12)
        with pytest.warns(RuntimeWarning), pytest.raises(TrainingDivergedError) as info:
            train_neural_lm(corpus, vocab, context=2, embed_dim=3, hidden_dim=4, lr=1e40)
        assert info.value.code == "training-diverged"
        assert re.fullmatch(r"training diverged: (embedding|w1|b1|w2|b2) is not finite in binary32",
                            str(info.value))
        assert lora.TrainingDivergedError is TrainingDivergedError


class TestTrainingPositions:
    @settings(max_examples=60, deadline=None)
    @given(
        docs=st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=12), min_size=1, max_size=5),
        context=st.integers(1, 6),
    )
    def test_rows_are_the_model_windows_and_next_tokens(self, docs, context):
        # documents shorter than the context get bos-padded windows
        vocab = Vocab(size=8, eos_id=1, bos_id=2)
        model = TinyNeuralLM.random(vocab, context=context, embed_dim=2, hidden_dim=2)
        windows, targets = training_positions(docs, vocab, context)
        want = [(model.window_ids(doc[: j + 1]), doc[j + 1])
                for doc in docs for j in range(len(doc) - 1)]
        assert windows.shape == (len(want), context)
        assert windows.dtype == targets.dtype == np.int64
        assert [(list(w), t) for w, t in zip(windows.tolist(), targets.tolist())] == want

    def test_checks_every_token(self, vocab):
        with pytest.raises(VocabMismatchError):
            training_positions([[3, 4], [5, 8]], vocab, 2)


class TestSnapshotFormat:
    def test_bigram_round_trip(self, vocab3):
        model = fit_bigram([[1, 2, 1, 2, 1]], vocab3, alpha=1.5)
        clone = decode_model(encode_model(model))
        assert isinstance(clone, BigramTableModel)
        assert clone.vocab == model.vocab
        assert clone.alpha == model.alpha
        np.testing.assert_array_equal(clone.counts, model.counts)
        np.testing.assert_array_equal(clone.next_logits([1]), model.next_logits([1]))

    def test_neural_round_trip(self, neural):
        clone = decode_model(encode_model(neural))
        assert isinstance(clone, TinyNeuralLM)
        assert clone.context == neural.context
        for name in ("embedding", "w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(clone, name), getattr(neural, name))

    def test_file_round_trip(self, tmp_path, neural):
        path = tmp_path / "model.prdm"
        save_model(neural, path)
        clone = load_model(path)
        np.testing.assert_array_equal(clone.next_logits([3]), neural.next_logits([3]))

    def test_magic_and_version_bytes(self, vocab3):
        data = encode_model(fit_bigram([[1, 2]], vocab3, alpha=1.0))
        assert data[:4] == b"PRDM"
        assert data[4] == 1  # format version
        assert data[5] == 1  # bigram architecture tag

    def test_every_truncation_is_rejected(self, vocab3):
        data = encode_model(fit_bigram([[1, 2, 1]], vocab3, alpha=1.0))
        for cut in range(len(data)):
            with pytest.raises(SnapshotFormatError):
                decode_model(data[:cut])

    def test_trailing_garbage_is_rejected(self, neural):
        with pytest.raises(SnapshotFormatError):
            decode_model(encode_model(neural) + b"\x00")

    def test_bad_magic_version_arch(self, vocab3):
        data = bytearray(encode_model(fit_bigram([[1, 2]], vocab3, alpha=1.0)))
        for pos, value in ((0, ord("X")), (4, 9), (5, 7)):
            bad = bytearray(data)
            bad[pos] = value
            with pytest.raises(SnapshotFormatError):
                decode_model(bytes(bad))

    def test_semantically_invalid_fields_are_rejected(self, vocab3):
        # alpha is the trailing f32 after header (6), vocab (12) and counts (36)
        data = bytearray(encode_model(fit_bigram([[1, 2]], vocab3, alpha=1.0)))
        for alpha in (-1.0, np.inf, np.nan):
            data[54:58] = np.float32(alpha).tobytes()
            with pytest.raises(SnapshotFormatError):
                decode_model(bytes(data))


class TestFingerprint:
    def test_hash64_known_vectors(self):
        # BLAKE2b with an 8-byte digest, read little-endian: b"" digests to e4a6a0577479b2b4
        assert hash64(b"") == 0xB4B2797457A0A6E4
        assert hash64(b"a") == 0x2F42665B399EF840
        assert hash64(b"foobar") == 0xF9514A257F2F219D
        assert hash64(b"abc") == 0x5995D533D814BBD8

    def test_stable_across_reload(self, neural, tmp_path):
        path = tmp_path / "m.prdm"
        save_model(neural, path)
        assert load_model(path).fingerprint() == neural.fingerprint()

    def test_sensitive_to_small_perturbation(self, neural, vocab):
        w2 = neural.w2.copy()
        w2[0, 0] += np.float32(1e-3)
        other = TinyNeuralLM(
            vocab, neural.context, neural.embedding, neural.w1, neural.b1, w2, neural.b2
        )
        assert other.fingerprint() != neural.fingerprint()

    def test_disjoint_corpora_differ(self, vocab):
        a = fit_bigram([[3, 4, 3, 4]], vocab, alpha=1.0)
        b = fit_bigram([[5, 6, 5, 6]], vocab, alpha=1.0)
        assert a.fingerprint() != b.fingerprint()

    def test_architectures_with_same_vocab_differ(self, vocab, neural):
        bigram = fit_bigram([[3, 4]], vocab, alpha=1.0)
        assert bigram.fingerprint() != neural.fingerprint()


def _window_models() -> dict:
    vocab = Vocab(size=8, eos_id=1, bos_id=2)
    rng = np.random.default_rng(4)
    bigram = fit_bigram(random_corpus(rng, vocab, 6, 20), vocab, alpha=1.0)
    neural = TinyNeuralLM.random(vocab, context=4, embed_dim=3, hidden_dim=5, seed=6)
    adapter = init_adapter(neural, rank=2, seed=8)
    for t in adapter.targets:
        t.scaling = 0.8
        t.b = rng.normal(0.0, 0.4, size=t.b.shape)
    return {"bigram": bigram, "neural": neural, "adapted": apply_adapter(neural, adapter)}


WINDOW_MODELS = _window_models()
LONG_SEQS = st.lists(st.integers(0, 7), min_size=64, max_size=400)


class TestWindowContract:
    """A step reads the model's window and nothing before it."""

    def test_window_sizes(self):
        assert {k: m.window for k, m in WINDOW_MODELS.items()} == {
            "bigram": 1, "neural": 4, "adapted": 4,
        }

    @pytest.mark.parametrize("kind", sorted(WINDOW_MODELS))
    @settings(max_examples=40, deadline=None)
    @given(seq=LONG_SEQS)
    def test_next_logits_equals_the_window_alone(self, kind, seq):
        model = WINDOW_MODELS[kind]
        want = model.next_logits(seq[-model.window:])
        np.testing.assert_array_equal(model.next_logits(seq), want)
        np.testing.assert_array_equal(model.next_logits(TailOnly(seq, model.window)), want)

    @pytest.mark.parametrize("kind", sorted(WINDOW_MODELS))
    def test_bad_token_inside_the_window_is_rejected(self, kind):
        model = WINDOW_MODELS[kind]
        with pytest.raises(VocabMismatchError):
            model.next_logits([3] * 50 + [8])
        with pytest.raises(VocabMismatchError):
            model.next_logits([3] * 50 + [-1] + [3] * (model.window - 1))
        with pytest.raises(ValueError):
            model.next_logits([])


def _stack_models() -> dict:
    """Odd shapes (V = 37, context 3, embed 5, hidden 11, nonzero biases), the bench
    proxy's shape (V = 512, context 8, embed 16, hidden 64), adapters of rank 1, 2,
    4 and 8 on w1 only, on w2 only (the other layer's B zero) and on both, and a
    bigram."""
    rng = np.random.default_rng(21)
    odd, wide = Vocab(size=37, eos_id=1, bos_id=2), Vocab(size=512, eos_id=1, bos_id=2)
    bases = {"odd": with_biases(TinyNeuralLM.random(odd, 3, 5, 11, seed=13), 13),
             "wide": with_biases(TinyNeuralLM.random(wide, 8, 16, 64, seed=14), 14)}
    models = {f"neural-{name}": base for name, base in bases.items()}
    for name, base in bases.items():
        for rank in (1, 2, 4, 8):
            for targets in (("w1",), ("w2",), ("w1", "w2")):
                adapter = init_adapter(base, rank, seed=rank)
                for t in adapter.targets:
                    t.scaling = 0.7
                    if t.name in targets:
                        t.b = rng.normal(0.0, 0.5, size=t.b.shape)
                models[f"adapted-{name}-r{rank}-{'+'.join(targets)}"] = apply_adapter(base, adapter)
    models["bigram"] = fit_bigram(random_corpus(rng, odd, 6, 40), odd, alpha=1.0)
    return models


STACK_MODELS = _stack_models()


def _bits(rows: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(rows, dtype=np.float32).view(np.uint32)


class TestBatchNextLogits:
    """Row i of ``batch_next_logits(seq, count)`` is ``next_logits`` of the i-th of the
    last ``count`` prefixes, bit for bit, and only the tail of ``seq`` is read."""

    @pytest.mark.parametrize("kind", sorted(STACK_MODELS))
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_rows_equal_per_prefix_next_logits(self, kind, data):
        model = STACK_MODELS[kind]
        count = data.draw(st.integers(1, 16), label="count")
        extra = data.draw(st.integers(0, 24), label="extra")
        ids = st.integers(0, model.vocab.size - 1)
        seq = data.draw(st.lists(ids, min_size=count + extra, max_size=count + extra), label="seq")
        rows = model.batch_next_logits(seq, count)
        assert rows.shape == (count, model.vocab.size) and rows.dtype == np.float32
        want = [model.next_logits(seq[: len(seq) - count + 1 + i]) for i in range(count)]
        np.testing.assert_array_equal(_bits(rows), _bits(np.stack(want)))
        tail = TailOnly(seq, count - 1 + model.window)
        np.testing.assert_array_equal(_bits(model.batch_next_logits(tail, count)), _bits(rows))

    @pytest.mark.parametrize("kind", sorted(STACK_MODELS))
    def test_prefixes_shorter_than_the_window_pad_with_bos(self, kind):
        model = STACK_MODELS[kind]
        seq = [int(t) for t in np.random.default_rng(5).integers(3, model.vocab.size, size=16)]
        base = getattr(model, "base", model)  # the window rule is the base model's
        for count in range(1, 17):
            rows = model.batch_next_logits(seq[:count], count)  # the first prefix is one token
            want = [model.next_logits(seq[: i + 1]) for i in range(count)]
            np.testing.assert_array_equal(_bits(rows), _bits(np.stack(want)))
            if isinstance(base, TinyNeuralLM):  # one padded window at a time, built apart
                low_rank = getattr(model, "_low_rank", (None, None))
                alone = [models.mlp_forward(base.params, base.window_ids(seq[: i + 1]), low_rank)[1]
                         for i in range(count)]
                np.testing.assert_array_equal(_bits(rows), _bits(np.stack(alone)))

    def test_count_must_fit_the_sequence(self):
        for model in (STACK_MODELS["neural-odd"], STACK_MODELS["bigram"]):
            for seq, count in (([3, 4], 0), ([3, 4], 3), ([], 1)):
                with pytest.raises(ValueError):
                    model.batch_next_logits(seq, count)
            with pytest.raises(VocabMismatchError):
                model.batch_next_logits([3, 4, 40, 5], 2)  # 40 is in the rows' windows


class TestFingerprintMemo:
    @pytest.fixture
    def hash_calls(self, monkeypatch):
        calls = []

        def counting(data):
            calls.append(len(data))
            return hash64(data)

        monkeypatch.setattr(models, "hash64", counting)
        return calls

    def test_equals_the_snapshot_hash_on_every_call(self, neural, hash_calls):
        want = hash64(neural.snapshot_bytes())
        assert [neural.fingerprint() for _ in range(3)] == [want] * 3
        assert len(hash_calls) == 1
        assert decode_model(encode_model(neural)).fingerprint() == want

    def test_loading_computes_no_hash(self, neural, tmp_path, hash_calls):
        path = tmp_path / "m.prdm"
        save_model(neural, path)
        clone = load_model(path)
        assert hash_calls == []
        assert clone.fingerprint() == neural.fingerprint()
        assert clone.fingerprint() == hash64(encode_model(clone))
        assert len(hash_calls) == 2  # once per model, not once per call
