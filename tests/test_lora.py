"""Low-rank adapters: exact identity at init, gradients, training, PRDL bytes."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offsetlm import (
    LoraAdapter,
    LoraTarget,
    TinyNeuralLM,
    TrainConfig,
    Vocab,
    apply_adapter,
    decode_adapter,
    encode_adapter,
    init_adapter,
    load_adapter,
    loss_and_grads,
    save_adapter,
    train_lora,
)
from offsetlm import lora
from offsetlm.lora import (
    AdapterFormatError,
    DegenerateBatchError,
    RankTooLargeError,
    ShapeMismatchError,
    _low_rank,
)
from offsetlm.models import VocabMismatchError, fnv1a64, mlp_forward, training_positions

from conftest import with_biases


@pytest.fixture
def base(vocab) -> TinyNeuralLM:
    return with_biases(TinyNeuralLM.random(vocab, context=3, embed_dim=4, hidden_dim=6, seed=1), 1)


def rich_adapter(base: TinyNeuralLM, rank: int = 2, seed: int = 13) -> LoraAdapter:
    """An adapter with both factors nonzero, for gradient and oracle tests."""
    adapter = init_adapter(base, rank=rank, seed=seed, scaling=0.7)
    rng = np.random.default_rng(seed + 1)
    for t in adapter.targets:
        t.b = rng.normal(0.0, 0.3, size=t.b.shape)
        t.a = rng.normal(0.0, 0.3, size=t.a.shape)
    return adapter


def forward_f64(base: TinyNeuralLM, adapter: LoraAdapter, windows: np.ndarray):
    """The training forward: binary64 base params, the adapter as low-rank terms."""
    params = tuple(p.astype(np.float64) for p in base.params)
    return mlp_forward(params, windows, _low_rank(adapter, np.float64))


def reference_forward(params, windows, low_rank):
    """The window MLP written out of place: every operation makes a new array."""
    def dense(x, w, bias, term):
        out = x @ w.T
        if term is not None:
            scaling, a, b = term
            out = out + scaling * ((x @ a.T) @ b.T)
        return out + bias

    emb, w1, b1, w2, b2 = params
    x = emb[windows]
    x = x.reshape(x.shape[:-2] + (-1,))
    hid = np.tanh(dense(x, w1, b1, low_rank[0]))
    return x, hid, dense(hid, w2, b2, low_rank[1])


def reference_loss_and_grads(base: TinyNeuralLM, adapter: LoraAdapter, batch):
    """The out-of-place training step that ``loss_and_grads`` must match bit for bit.

    Same operands, operations and grouping; only the buffers differ.
    """
    windows, targets = training_positions(batch, base.vocab, base.context)
    params = tuple(p.astype(np.float64) for p in base.params)
    low_rank = _low_rank(adapter, np.float64)
    x, hid, logits = reference_forward(params, windows, low_rank)
    n = windows.shape[0]

    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = float(-logp[np.arange(n), targets].mean())

    g = np.exp(logp)
    g[np.arange(n), targets] -= 1.0
    g /= n

    t1, t2 = low_rank
    grads = {}
    if t2 is not None:
        s2, a2, b2 = t2
        grads["w2"] = {"b": s2 * (g.T @ (hid @ a2.T)), "a": s2 * (b2.T @ (g.T @ hid))}
    if t1 is not None:
        d_hid = g @ params[3]
        if t2 is not None:
            d_hid = d_hid + s2 * ((g @ b2) @ a2)
        d_pre = d_hid * (1.0 - hid * hid)
        s1, a1, b1 = t1
        grads["w1"] = {"b": s1 * (d_pre.T @ (x @ a1.T)), "a": s1 * (b1.T @ (d_pre.T @ x))}
    return loss, grads


def assert_same_step(got, want) -> None:
    assert got[0] == want[0]
    assert sorted(got[1]) == sorted(want[1])
    for name, factors in want[1].items():
        for factor, arr in factors.items():
            assert np.array_equal(got[1][name][factor], arr), (name, factor)


def train_size_base(seed: int = 4) -> TinyNeuralLM:
    """A proxy at the train-adapter benchmark's shape (V=512, context 8, embed 16, hidden 64)."""
    return with_biases(TinyNeuralLM.random(Vocab(size=512, eos_id=1, bos_id=2), context=8,
                                           embed_dim=16, hidden_dim=64, seed=seed), seed)


def dense_oracle_logits(base: TinyNeuralLM, adapter: LoraAdapter, seq) -> np.ndarray:
    """Binary64 forward with the dense updates materialized into the weights."""
    emb = base.embedding.astype(np.float64)
    w1 = base.w1.astype(np.float64)
    w2 = base.w2.astype(np.float64)
    t1, t2 = adapter.target("w1"), adapter.target("w2")
    if t1 is not None:
        w1 = w1 + t1.delta()
    if t2 is not None:
        w2 = w2 + t2.delta()
    x = emb[base.window_ids(seq)].reshape(-1)
    hid = np.tanh(w1 @ x + base.b1.astype(np.float64))
    return w2 @ hid + base.b2.astype(np.float64)


class TestInit:
    def test_b_zero_a_bounded(self, base):
        adapter = init_adapter(base, rank=3, seed=0)
        assert [t.name for t in adapter.targets] == ["w1", "w2"]
        for t in adapter.targets:
            n = t.a.shape[1]
            assert np.all(t.b == 0.0)
            assert np.all(np.abs(t.a) <= 1.0 / np.sqrt(n))
            assert t.b.shape == (t.b.shape[0], 3)

    def test_deterministic_per_seed(self, base):
        a = init_adapter(base, rank=2, seed=6)
        b = init_adapter(base, rank=2, seed=6)
        c = init_adapter(base, rank=2, seed=7)
        for ta, tb in zip(a.targets, b.targets):
            np.testing.assert_array_equal(ta.a, tb.a)
        assert not np.array_equal(a.targets[0].a, c.targets[0].a)

    def test_rank_too_large(self, base):
        # min(m, n) is 6 for both targets of this base
        with pytest.raises(RankTooLargeError):
            init_adapter(base, rank=7)

    def test_adapter_validation(self, base):
        with pytest.raises(ValueError):
            LoraAdapter(rank=0)
        with pytest.raises(ValueError):
            LoraAdapter(rank=1, targets=[LoraTarget("w3", np.zeros((2, 1)), np.zeros((1, 2)))])
        t = LoraTarget("w1", np.zeros((2, 1)), np.zeros((1, 2)))
        with pytest.raises(ValueError):
            LoraAdapter(rank=1, targets=[t, t])
        with pytest.raises(ShapeMismatchError):
            LoraAdapter(rank=2, targets=[LoraTarget("w1", np.zeros((2, 1)), np.zeros((1, 2)))])


class TestAdaptedModel:
    def test_zero_init_is_bitwise_identity(self, base):
        model = apply_adapter(base, init_adapter(base, rank=4, seed=5))
        for seq in ([3], [4, 5], [3, 4, 5, 6, 7], [base.vocab.bos_id, 3]):
            np.testing.assert_array_equal(model.next_logits(seq), base.next_logits(seq))

    def test_matches_dense_materialization(self, base):
        adapter = rich_adapter(base)
        model = apply_adapter(base, adapter)
        for seq in ([3], [4, 5, 6], [7, 7, 3, 4]):
            np.testing.assert_allclose(
                model.next_logits(seq),
                dense_oracle_logits(base, adapter, seq),
                atol=1e-4,
            )

    def test_factored_f64_matches_dense_within_1e12(self, base):
        adapter = rich_adapter(base)
        windows = np.array([base.window_ids([3, 4, 5]), base.window_ids([6])])
        _, _, logits = forward_f64(base, adapter, windows)
        np.testing.assert_allclose(logits[0], dense_oracle_logits(base, adapter, [3, 4, 5]), atol=1e-12)
        np.testing.assert_allclose(logits[1], dense_oracle_logits(base, adapter, [6]), atol=1e-12)

    def test_inference_agrees_with_training_forward(self, base):
        # both run mlp_forward: binary32 one window at a time, binary64 batched
        adapter = rich_adapter(base)
        model = apply_adapter(base, adapter)
        seqs = [[3], [4, 5], [3, 4, 5, 6, 7], [7, 7, 3, 4], [base.vocab.bos_id, 6]]
        _, _, logits = forward_f64(base, adapter, np.array([base.window_ids(s) for s in seqs]))
        for seq, row in zip(seqs, logits):
            np.testing.assert_allclose(model.next_logits(seq), row, rtol=0, atol=1e-5)

    def test_wire_snapshot_gives_identical_logits(self, base):
        adapter = rich_adapter(base)
        direct = apply_adapter(base, adapter)
        reloaded = apply_adapter(base, decode_adapter(encode_adapter(adapter.snapshot())))
        for seq in ([3, 4], [6, 5, 4]):
            np.testing.assert_array_equal(direct.next_logits(seq), reloaded.next_logits(seq))

    def test_base_model_is_untouched(self, base):
        before = base.w1.copy()
        apply_adapter(base, rich_adapter(base)).next_logits([3, 4])
        np.testing.assert_array_equal(base.w1, before)

    def test_shape_mismatch_rejected(self, base, vocab):
        other = TinyNeuralLM.random(vocab, context=2, embed_dim=5, hidden_dim=4, seed=0)
        adapter = init_adapter(other, rank=2)
        with pytest.raises(ShapeMismatchError):
            apply_adapter(base, adapter)


class TestLossAndGrads:
    def test_uniform_logits_loss_is_log_vocab(self, vocab32):
        base = TinyNeuralLM.random(vocab32, context=2, embed_dim=3, hidden_dim=4, seed=2)
        zeroed = TinyNeuralLM(
            vocab32, 2, base.embedding, base.w1, base.b1,
            np.zeros_like(base.w2), np.zeros_like(base.b2),
        )
        adapter = init_adapter(zeroed, rank=2, seed=0)
        loss, _ = loss_and_grads(zeroed, adapter, [[3, 4, 5], [6, 7]])
        assert loss == pytest.approx(np.log(32.0), abs=1e-12)

    def test_mean_runs_over_all_positions(self, base):
        adapter = rich_adapter(base)
        # [3,4,5] has two prediction positions; per-position losses recombine
        loss_both, _ = loss_and_grads(base, adapter, [[3, 4, 5]])
        l1, _ = loss_and_grads(base, adapter, [[3, 4]])
        # position 2 alone: condition on prefix [3,4], predict 5
        windows = np.array([base.window_ids([3, 4])])
        _, _, z = forward_f64(base, adapter, windows)
        z = z[0] - z[0].max()
        l2 = float(np.log(np.exp(z).sum()) - z[5])
        assert loss_both == pytest.approx((l1 + l2) / 2.0, abs=1e-12)

    def test_duplicating_the_batch_changes_nothing(self, base):
        adapter = rich_adapter(base)
        batch = [[3, 4, 5], [6, 7]]
        loss1, g1 = loss_and_grads(base, adapter, batch)
        loss2, g2 = loss_and_grads(base, adapter, batch + batch)
        assert loss1 == pytest.approx(loss2, abs=1e-14)
        for name in g1:
            np.testing.assert_allclose(g1[name]["b"], g2[name]["b"], atol=1e-14)
            np.testing.assert_allclose(g1[name]["a"], g2[name]["a"], atol=1e-14)

    def test_gradients_match_central_differences(self, base):
        adapter = rich_adapter(base)
        batch = [[3, 4, 5, 6], [7, 3]]
        _, grads = loss_and_grads(base, adapter, batch)
        eps = 1e-5
        checked = 0
        for t in adapter.targets:
            for factor in ("b", "a"):
                arr = getattr(t, factor)
                for idx in [(0, 0), (arr.shape[0] - 1, arr.shape[1] - 1)]:
                    orig = arr[idx]
                    arr[idx] = orig + eps
                    up, _ = loss_and_grads(base, adapter, batch)
                    arr[idx] = orig - eps
                    down, _ = loss_and_grads(base, adapter, batch)
                    arr[idx] = orig
                    fd = (up - down) / (2 * eps)
                    an = grads[t.name][factor][idx]
                    assert abs(fd - an) / max(1e-8, abs(fd) + abs(an)) < 1e-4
                    checked += 1
        assert checked == 8

    def test_degenerate_batches_rejected(self, base):
        adapter = init_adapter(base, rank=2)
        with pytest.raises(DegenerateBatchError):
            loss_and_grads(base, adapter, [])
        with pytest.raises(DegenerateBatchError):
            loss_and_grads(base, adapter, [[3]])


class TestInPlaceStep:
    """The allocation-lean binary64 step: bit-identical, bounded, non-aliasing."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        names=st.sampled_from([("w1",), ("w2",), ("w1", "w2")]),
        lengths=st.lists(st.integers(2, 24), min_size=1, max_size=6),
    )
    def test_matches_out_of_place_reference(self, seed, names, lengths):
        vocab = Vocab(size=32, eos_id=1, bos_id=2)
        base = with_biases(TinyNeuralLM.random(vocab, context=3, embed_dim=4, hidden_dim=6,
                                               seed=seed % 7), seed)
        adapter = rich_adapter(base, rank=2, seed=seed)
        adapter.targets = [t for t in adapter.targets if t.name in names]
        rng = np.random.default_rng(seed)
        batch = [[int(t) for t in rng.integers(0, vocab.size, size=k)] for k in lengths]
        assert_same_step(loss_and_grads(base, adapter, batch),
                         reference_loss_and_grads(base, adapter, batch))

    @pytest.mark.parametrize("names", [("w1",), ("w2",), ("w1", "w2")])
    def test_matches_reference_on_a_large_batch(self, names):
        # 32 x 64 tokens: 2016 positions, large enough for threaded GEMM
        base = train_size_base()
        adapter = rich_adapter(base, rank=8, seed=21)
        adapter.targets = [t for t in adapter.targets if t.name in names]
        rng = np.random.default_rng(5)
        batch = [[int(t) for t in rng.integers(3, 512, size=64)] for _ in range(32)]
        assert_same_step(loss_and_grads(base, adapter, batch),
                         reference_loss_and_grads(base, adapter, batch))

    def test_binary32_window_matches_reference(self, base):
        base = with_biases(base, 3)
        adapter = rich_adapter(base)
        model = apply_adapter(base, adapter)
        low_rank = _low_rank(adapter.snapshot(), np.float32)
        for seq in ([3], [4, 5], [3, 4, 5, 6, 7], [base.vocab.bos_id, 6]):
            window = base.window_ids(seq)
            want_base = reference_forward(base.params, window, (None, None))[2]
            want_tuned = reference_forward(base.params, window, low_rank)[2]
            assert np.array_equal(base.next_logits(seq), want_base)
            assert np.array_equal(model.next_logits(seq), want_tuned)

    def test_peak_memory_below_three_logit_arrays(self):
        # tracemalloc counts numpy's data buffers but not BLAS scratch space,
        # so the figure does not depend on the machine's BLAS
        base = train_size_base()
        adapter = rich_adapter(base, rank=8)
        rng = np.random.default_rng(6)
        batch = [[int(t) for t in rng.integers(3, 512, size=65)] for _ in range(32)]
        n, v = 32 * 64, base.vocab.size
        loss_and_grads(base, adapter, batch)  # warm any lazy allocation first
        tracemalloc.start()
        try:
            loss_and_grads(base, adapter, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * n * v * 8, peak / (n * v * 8)

    def test_no_input_is_written(self, base):
        adapter = rich_adapter(base)
        params = tuple(p.astype(np.float64) for p in base.params)  # writable
        low_rank = _low_rank(adapter, np.float64)
        windows = np.array([base.window_ids([3, 4, 5]), base.window_ids([6]),
                            base.window_ids([7, 7, 3, 4])])
        inputs = [*params, windows] + [arr for term in low_rank for arr in term[1:]]
        before = [arr.copy() for arr in inputs]
        outputs = mlp_forward(params, windows, low_rank)
        for arr, old in zip(inputs, before):
            assert np.array_equal(arr, old)
            assert not any(np.shares_memory(out, arr) for out in outputs)

        factors = [arr for t in adapter.targets for arr in (t.a, t.b)]
        saved = [arr.copy() for arr in factors]
        batch = [[3, 4, 5, 6], [7, 3]]
        loss_and_grads(base, adapter, batch)
        assert batch == [[3, 4, 5, 6], [7, 3]]
        for arr, old in zip(factors, saved):
            assert np.array_equal(arr, old)


class TestTrainLora:
    def test_zero_epochs_returns_the_seeded_init(self, base):
        cfg = TrainConfig(epochs=0, rank=3, seed=11)
        trained = train_lora(base, [[3, 4, 5]], cfg)
        init = init_adapter(base, rank=3, seed=11)
        for tt, ti in zip(trained.targets, init.targets):
            np.testing.assert_array_equal(tt.a, ti.a)
            np.testing.assert_array_equal(tt.b, ti.b)

    def test_loss_decreases(self, base, vocab):
        # deterministic cycles over the ordinary tokens: plenty of signal
        corpus = [[3, 4, 5, 6, 7] * 3 for _ in range(8)]
        cfg = TrainConfig(lr=0.2, batch_size=4, epochs=10, rank=4, seed=0)
        adapter = train_lora(base, corpus, cfg)
        loss_before, _ = loss_and_grads(base, init_adapter(base, rank=4, seed=0), corpus)
        loss_after, _ = loss_and_grads(base, adapter, corpus)
        assert loss_after < loss_before - 0.01

    def test_deterministic_per_seed(self, base):
        corpus = [[3, 4, 5, 6], [6, 5, 4], [4, 4, 4]]
        cfg = TrainConfig(epochs=2, rank=2, seed=9)
        a = train_lora(base, corpus, cfg)
        b = train_lora(base, corpus, cfg)
        for ta, tb in zip(a.targets, b.targets):
            np.testing.assert_array_equal(ta.b, tb.b)
            np.testing.assert_array_equal(ta.a, tb.a)

    def test_base_stays_bitwise_frozen(self, base):
        params = [getattr(base, n).copy() for n in ("embedding", "w1", "b1", "w2", "b2")]
        train_lora(base, [[3, 4, 5], [5, 4]], TrainConfig(epochs=2, rank=2))
        for name, before in zip(("embedding", "w1", "b1", "w2", "b2"), params):
            np.testing.assert_array_equal(getattr(base, name), before)

    def test_empty_corpus_rejected(self, base):
        with pytest.raises(DegenerateBatchError):
            train_lora(base, [], TrainConfig())

    @pytest.mark.parametrize("corpus, error", [
        ([[3, 4, 5], [6]], DegenerateBatchError),  # a document with no prediction
        ([[3, 4, 5], [6, 8]], VocabMismatchError),  # 8 is outside the vocab
    ])
    def test_bad_document_rejected(self, base, corpus, error):
        with pytest.raises(error):
            train_lora(base, corpus, TrainConfig(epochs=1, batch_size=2))

    def test_each_step_calls_the_module_loss_and_grads(self, base, monkeypatch):
        # tracing wraps lora.loss_and_grads; train_lora must look it up per step
        calls = []
        step = lora.loss_and_grads

        def counted(*args):
            calls.append(len(args[2]))
            return step(*args)

        monkeypatch.setattr(lora, "loss_and_grads", counted)
        train_lora(base, [[3, 4, 5]] * 5, TrainConfig(epochs=2, batch_size=2, rank=2))
        assert calls == [2, 2, 1] * 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            TrainConfig(rank=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)


class TestAdapterBytes:
    def test_header(self, base):
        data = encode_adapter(init_adapter(base, rank=2))
        assert data[:4] == b"PRDL"
        assert data[4] == 1

    def test_round_trip_bitwise(self, base):
        adapter = rich_adapter(base).snapshot()
        clone = decode_adapter(encode_adapter(adapter))
        assert clone.rank == adapter.rank
        for tc, ta in zip(clone.targets, adapter.targets):
            assert tc.name == ta.name
            assert tc.scaling == ta.scaling
            np.testing.assert_array_equal(tc.b, ta.b)
            np.testing.assert_array_equal(tc.a, ta.a)
        assert clone.fingerprint() == adapter.fingerprint()

    @settings(max_examples=40, deadline=None)
    @given(
        rank=st.integers(1, 4),
        seed=st.integers(0, 2**31 - 1),
        scaling=st.floats(0.0625, 4.0, allow_nan=False, width=32),
        names=st.sampled_from([("w1",), ("w2",), ("w1", "w2")]),
    )
    def test_round_trip_randomized(self, rank, seed, scaling, names):
        vocab = Vocab(size=8, eos_id=1, bos_id=2)
        base = TinyNeuralLM.random(vocab, context=3, embed_dim=4, hidden_dim=6, seed=1)
        adapter = init_adapter(base, rank=rank, seed=seed, scaling=scaling,
                               target_names=names)
        rng = np.random.default_rng(seed)
        for t in adapter.targets:
            t.b = rng.normal(size=t.b.shape)
        snap = adapter.snapshot()
        clone = decode_adapter(encode_adapter(snap))
        assert clone.fingerprint() == snap.fingerprint()
        for tc, ts in zip(clone.targets, snap.targets):
            np.testing.assert_array_equal(tc.b, ts.b)
            np.testing.assert_array_equal(tc.a, ts.a)

    def test_every_truncation_is_rejected(self, base):
        data = encode_adapter(init_adapter(base, rank=1))
        for cut in range(len(data)):
            with pytest.raises(AdapterFormatError):
                decode_adapter(data[:cut])

    def test_trailing_garbage_rejected(self, base):
        data = encode_adapter(init_adapter(base, rank=1))
        with pytest.raises(AdapterFormatError):
            decode_adapter(data + b"\xff")

    def test_unknown_target_tag_reports_offset(self, base):
        data = bytearray(encode_adapter(init_adapter(base, rank=1, target_names=("w1",))))
        # header: magic(4) + version(1) + rank u32(4) + count u16(2); tag byte next
        data[11] = 200
        with pytest.raises(AdapterFormatError) as err:
            decode_adapter(bytes(data))
        assert "200" in str(err.value)

    def test_file_round_trip(self, tmp_path, base):
        adapter = rich_adapter(base).snapshot()
        path = tmp_path / "adapter.prdl"
        save_adapter(adapter, path)
        assert load_adapter(path).fingerprint() == adapter.fingerprint()

    def test_fingerprint_sensitivity(self, base):
        a = init_adapter(base, rank=2, seed=0).snapshot()
        b = init_adapter(base, rank=2, seed=0).snapshot()
        b.targets[0].a[0, 0] += np.float32(1e-3)
        assert a.fingerprint() != b.fingerprint()

    def test_fingerprint_follows_a_training_step(self, base):
        adapter = init_adapter(base, rank=2, seed=3)
        before = adapter.fingerprint()
        _, grads = loss_and_grads(base, adapter, [[3, 4, 5, 6]])
        for t in adapter.targets:  # the update train_lora applies in place
            t.b = t.b - 0.1 * grads[t.name]["b"]
            t.a = t.a - 0.1 * grads[t.name]["a"]
        assert adapter.fingerprint() != before
        assert adapter.fingerprint() == fnv1a64(encode_adapter(adapter))
