"""Low-rank adapters: exact identity at init, gradients, training, PRDL bytes."""

from __future__ import annotations

import os
import re
import struct
import subprocess
import sys
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
    TrainingDivergedError,
    _low_rank,
)
from offsetlm.models import (
    MIN_BLOCK_VALUES,
    ROW_BLOCK,
    SMALL_GEMM,
    VocabMismatchError,
    fnv1a64,
    mlp_forward,
    row_blocks,
    training_positions,
)

from conftest import prdl_layout, random_corpus, with_biases


@pytest.fixture
def base(vocab) -> TinyNeuralLM:
    return with_biases(TinyNeuralLM.random(vocab, context=3, embed_dim=4, hidden_dim=6, seed=1), 1)


def rich_adapter(base: TinyNeuralLM, rank: int = 2, seed: int = 13,
                 names=("w1", "w2")) -> LoraAdapter:
    """An adapter with both factors nonzero, for gradient and oracle tests. A layer
    not in ``names`` gets a zero B: that layer is left unadapted, the way a
    single-layer adaptation is spelled in the one (w1, w2) layout."""
    adapter = init_adapter(base, rank=rank, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for t in adapter.targets:
        t.scaling = 0.7
        t.b = rng.normal(0.0, 0.3, size=t.b.shape)
        t.a = rng.normal(0.0, 0.3, size=t.a.shape)
        if t.name not in names:
            t.b = np.zeros_like(t.b)
    return adapter


LAYER_SUBSETS = [("w1",), ("w2",), ("w1", "w2")]


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

    (s1, a1, b1), (s2, a2, b2) = low_rank
    d_hid = g @ params[3] + s2 * ((g @ b2) @ a2)
    d_pre = d_hid * (1.0 - hid * hid)
    return loss, {"w1": {"b": s1 * (d_pre.T @ (x @ a1.T)), "a": s1 * (b1.T @ (d_pre.T @ x))},
                  "w2": {"b": s2 * (g.T @ (hid @ a2.T)), "a": s2 * (b2.T @ (g.T @ hid))}}


def assert_same_step(got, want) -> None:
    assert got[0] == want[0]
    assert sorted(got[1]) == sorted(want[1])
    for name, factors in want[1].items():
        for factor, arr in factors.items():
            assert np.array_equal(got[1][name][factor], arr), (name, factor)


def train_size_base(seed: int = 4, v: int = 512) -> TinyNeuralLM:
    """A proxy at the train-adapter benchmark's shape (V=512, context 8, embed 16, hidden 64).

    ``v`` sets another vocabulary size.
    """
    return with_biases(TinyNeuralLM.random(Vocab(size=v, eos_id=1, bos_id=2), context=8,
                                           embed_dim=16, hidden_dim=64, seed=seed), seed)


def batch_of_positions(n: int, seed: int, v: int = 512) -> list[list[int]]:
    """Documents of at most 65 tokens with exactly ``n`` prediction positions in all."""
    rng = np.random.default_rng(seed)
    lengths = [65] * (n // 64) + ([n % 64 + 1] if n % 64 else [])
    return [[int(t) for t in rng.integers(3, v, size=k)] for k in lengths]


# (V, rank) beside the benchmark's (512, 8): lower ranks, the default 4 among
# them, and a smaller vocabulary. A narrow product such as (M x V) @ (V x r)
# has fewer multiply-adds per row at these shapes, so a fixed-height row
# block can fall under BLAS's small-matrix bound (models.SMALL_GEMM).
OTHER_SHAPES = [(512, 4), (512, 2), (512, 1), (480, 8), (480, 4), (480, 2), (480, 1)]


# Batch sizes on both sides of one and two block heights of the products
# models.blocked_matmul runs, at (512, 8): x @ a1.T (128 x 8, transposed) runs
# 1024-row blocks, hid @ a2.T and hid @ w2.T (64 x 8 and 64 x 512) 2048-row
# blocks, so 2047 and 2048 make one block and two of the first, 4095 and 4096
# three and four of the first and one and two of the others.
NARROW_EDGES = [2047, 2048, 4095, 4096]


# One full-corpus step at the train-adapter benchmark's shape, after a small
# warm-up step; prints the positions n and the growth of the peak resident set.
# The peak is the process's VmHWM, not ru_maxrss: Linux carries the high-water
# mark of the memory a process had before exec into ru_maxrss, so a child of the
# test process would start from the test process's own peak.
RSS_STEP_SCRIPT = """
import numpy as np
from offsetlm import TinyNeuralLM, Vocab, init_adapter, loss_and_grads
def peak():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) * 1024
base = TinyNeuralLM.random(Vocab(size=512, eos_id=1, bos_id=2), context=8, embed_dim=16,
                           hidden_dim=64, seed=4)
adapter = init_adapter(base, rank=8, seed=5)
rng = np.random.default_rng(6)
for t in adapter.targets:
    t.b = rng.normal(0.0, 0.02, size=t.b.shape)
docs = [[int(t) for t in rng.integers(3, 512, size=64)] for _ in range(256)]
loss_and_grads(base, adapter, docs[:8])
before = peak()
loss_and_grads(base, adapter, docs)
print(sum(len(doc) - 1 for doc in docs), peak() - before)
"""


def at_shapes(ns) -> list:
    """``(n, (V, rank))`` cases: each n at (512, 8) under the plain id n, then at OTHER_SHAPES."""
    return [pytest.param(n, (512, 8), id=str(n)) for n in ns] + [
        pytest.param(n, (v, r), id=f"{n}-v{v}-r{r}") for n in ns for v, r in OTHER_SHAPES]


def dense_oracle_logits(base: TinyNeuralLM, adapter: LoraAdapter, seq) -> np.ndarray:
    """Binary64 forward with the dense updates materialized into the weights."""
    emb = base.embedding.astype(np.float64)
    t1, t2 = adapter.targets
    w1 = base.w1.astype(np.float64) + t1.delta()
    w2 = base.w2.astype(np.float64) + t2.delta()
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
        w1, w2 = init_adapter(base, rank=1).targets
        with pytest.raises(ValueError):
            LoraAdapter(rank=0, targets=[w1, w2])
        with pytest.raises(ShapeMismatchError):
            LoraAdapter(rank=2, targets=[w1, w2])

    def test_only_w1_then_w2_is_a_layout(self, base):
        w1, w2 = init_adapter(base, rank=1).targets
        w3 = LoraTarget("w3", w2.b, w2.a)
        for targets in ([], [w1], [w2], [w1, w1], [w2, w1], [w1, w2, w2], [w1, w3]):
            with pytest.raises(ValueError, match=r"^adapter targets must be \['w1', 'w2'\]"):
                LoraAdapter(rank=1, targets=targets)


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
        _, logits = forward_f64(base, adapter, windows)
        np.testing.assert_allclose(logits[0], dense_oracle_logits(base, adapter, [3, 4, 5]), atol=1e-12)
        np.testing.assert_allclose(logits[1], dense_oracle_logits(base, adapter, [6]), atol=1e-12)

    def test_inference_agrees_with_training_forward(self, base):
        # both run mlp_forward: binary32 one window at a time, binary64 batched
        adapter = rich_adapter(base)
        model = apply_adapter(base, adapter)
        seqs = [[3], [4, 5], [3, 4, 5, 6, 7], [7, 7, 3, 4], [base.vocab.bos_id, 6]]
        _, logits = forward_f64(base, adapter, np.array([base.window_ids(s) for s in seqs]))
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

    @pytest.mark.parametrize("v", [37, 512])
    def test_a_zero_b_layer_is_that_layer_unadapted(self, v):
        # a single-layer adaptation: the other layer's B is zero
        base = train_size_base(seed=v, v=v) if v == 512 else with_biases(
            TinyNeuralLM.random(Vocab(size=v, eos_id=1, bos_id=2), 3, 5, 11, seed=13), 13)
        rng = np.random.default_rng(v)
        seqs = [[int(t) for t in rng.integers(0, v, size=int(k))] for k in rng.integers(4, 20, 50)]
        for zeroed in (0, 1):
            adapter = rich_adapter(base, rank=4, seed=v + zeroed)
            adapter.targets[zeroed].b = np.zeros_like(adapter.targets[zeroed].b)
            model = apply_adapter(base, adapter)
            low_rank = list(_low_rank(adapter.snapshot(), np.float32))
            low_rank[zeroed] = None
            for seq in seqs:
                for count in (1, 4):
                    assert np.array_equal(model.batch_next_logits(seq, count),
                                          base.batch_next_logits(seq, count, tuple(low_rank)))

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
        _, z = forward_f64(base, adapter, windows)
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
        names=st.sampled_from(LAYER_SUBSETS),
        lengths=st.lists(st.integers(2, 24), min_size=1, max_size=6),
    )
    def test_matches_out_of_place_reference(self, seed, names, lengths):
        vocab = Vocab(size=32, eos_id=1, bos_id=2)
        base = with_biases(TinyNeuralLM.random(vocab, context=3, embed_dim=4, hidden_dim=6,
                                               seed=seed % 7), seed)
        adapter = rich_adapter(base, rank=2, seed=seed, names=names)
        rng = np.random.default_rng(seed)
        batch = [[int(t) for t in rng.integers(0, vocab.size, size=k)] for k in lengths]
        assert_same_step(loss_and_grads(base, adapter, batch),
                         reference_loss_and_grads(base, adapter, batch))

    @pytest.mark.parametrize("names", LAYER_SUBSETS)
    def test_matches_reference_on_a_large_batch(self, names):
        # 32 x 64 tokens: 2016 positions, large enough for threaded GEMM
        base = train_size_base()
        adapter = rich_adapter(base, rank=8, seed=21, names=names)
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
        assert peak < 1.45 * n * v * 8, peak / (n * v * 8)

    @pytest.mark.parametrize("names", LAYER_SUBSETS)
    @pytest.mark.parametrize(("n", "shape"), at_shapes([511, 512, 513, 767, 1023, *NARROW_EDGES]))
    def test_matches_reference_across_block_edges(self, n, shape, names):
        # at (512, 8): one block below 2 * ROW_BLOCK rows, then two, the last up to
        # 511 rows; the narrow products of the other shapes take taller blocks
        v, rank = shape
        base = train_size_base(seed=n, v=v)
        adapter = rich_adapter(base, rank=rank, seed=n + 1, names=names)
        batch = batch_of_positions(n, seed=n + 2, v=v)
        assert training_positions(batch, base.vocab, base.context)[0].shape[0] == n
        assert_same_step(loss_and_grads(base, adapter, batch),
                         reference_loss_and_grads(base, adapter, batch))

    @pytest.mark.parametrize("names", LAYER_SUBSETS)
    def test_matches_reference_on_many_blocks(self, names):
        # 8250 positions: 32 blocks, the last one 8250 - 31 * 256 = 314 rows
        base = train_size_base(seed=7)
        adapter = rich_adapter(base, rank=8, seed=8, names=names)
        batch = batch_of_positions(8250, seed=9)
        assert_same_step(loss_and_grads(base, adapter, batch),
                         reference_loss_and_grads(base, adapter, batch))

    @pytest.mark.parametrize("shape", OTHER_SHAPES)
    def test_matches_reference_on_many_blocks_at_other_shapes(self, shape):
        # 8250 positions cut into several blocks of the backward's narrow
        # products at ranks 4 and below too
        v, rank = shape
        base = train_size_base(seed=17, v=v)
        adapter = rich_adapter(base, rank=rank, seed=18)
        batch = batch_of_positions(8250, seed=19, v=v)
        assert_same_step(loss_and_grads(base, adapter, batch),
                         reference_loss_and_grads(base, adapter, batch))

    def test_peak_memory_on_a_full_corpus_step(self):
        # at 8192 positions the row-block temporaries are small beside the
        # one (n, V) logits buffer; the rest is the (n, hidden) activations
        base = train_size_base()
        adapter = rich_adapter(base, rank=8)
        n, v = 8192, base.vocab.size
        batch = batch_of_positions(n, seed=10)
        loss_and_grads(base, adapter, batch)  # warm any lazy allocation first
        tracemalloc.start()
        try:
            loss_and_grads(base, adapter, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * n * v * 8, peak / (n * v * 8)

    @pytest.mark.parametrize("names", LAYER_SUBSETS + [()])
    @pytest.mark.parametrize(("n", "shape"), at_shapes([511, 512, 513, 1023, 8250, *NARROW_EDGES]))
    def test_batched_forward_matches_reference(self, n, shape, names):
        # each product of a layer runs block by block, the first layer's blocks
        # each gathering their own embeddings; without an adapter (names = (),
        # train_neural_lm's forward) the first layer's blocks are sized by w1
        v, rank = shape
        base = train_size_base(seed=n + 3, v=v)
        adapter = rich_adapter(base, rank=rank, seed=n + 4, names=names)
        windows, _ = training_positions(batch_of_positions(n, seed=n + 5, v=v), base.vocab,
                                        base.context)
        params = tuple(p.astype(np.float64) for p in base.params)
        low_rank = _low_rank(adapter, np.float64) if names else (None, None)
        hid, logits = mlp_forward(params, windows, low_rank)
        _, want_hid, want_logits = reference_forward(params, windows, low_rank)
        assert np.array_equal(hid, want_hid)
        assert np.array_equal(logits, want_logits)

    @pytest.mark.parametrize("names", [("w1",), ("w1", "w2")])
    def test_matches_reference_when_the_embeddings_outgrow_the_logits(self, vocab, names):
        # context * d = 12 > V = 8: the w1 inputs do not fit in the logits
        # buffer and are gathered into a fresh array
        base = with_biases(TinyNeuralLM.random(vocab, context=3, embed_dim=4, hidden_dim=6,
                                               seed=2), 2)
        adapter = rich_adapter(base, rank=2, seed=3, names=names)
        rng = np.random.default_rng(4)
        batch = [[int(t) for t in rng.integers(0, vocab.size, size=65)] for _ in range(10)]
        assert base.context * base.embed_dim > vocab.size
        assert_same_step(loss_and_grads(base, adapter, batch),
                         reference_loss_and_grads(base, adapter, batch))

    def test_peak_memory_of_a_batched_forward(self):
        # one (n, V) logits array and one (n, hidden) array; the (n, context * d)
        # embeddings exist one row block at a time
        base = train_size_base()
        adapter = rich_adapter(base, rank=8)
        n, v, h = 8192, base.vocab.size, base.hidden_dim
        windows, _ = training_positions(batch_of_positions(n, seed=11), base.vocab, base.context)
        params = tuple(p.astype(np.float64) for p in base.params)
        low_rank = _low_rank(adapter, np.float64)
        mlp_forward(params, windows, low_rank)  # warm any lazy allocation first
        tracemalloc.start()
        try:
            mlp_forward(params, windows, low_rank)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * (n * v + n * h) * 8, peak / ((n * v + n * h) * 8)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_resident_set_of_a_full_corpus_step(self):
        # tracemalloc cannot see BLAS scratch space: threaded OpenBLAS keeps
        # packing buffers resident in proportion to a product's left rows, so
        # one whole-batch product over n rows grows the resident set by up to
        # several MiB. In a fresh process, at the train-adapter benchmark's
        # corpus (256 documents of 64 tokens, n = 16128), the peak resident set
        # may grow across one step by the (n, V) and (n, h) buffers, the narrow
        # (n, context) windows, two (n, r) products and two (n,) vectors, and
        # 2 MiB for BLAS's scratch space over blocks of MIN_BLOCK_VALUES values.
        # The scratch space grows with BLAS's thread count, so the child runs
        # the two threads the bound was measured with.
        package_root = os.path.dirname(os.path.dirname(lora.__file__))
        env = {**os.environ, "PYTHONPATH": package_root, "OPENBLAS_NUM_THREADS": "2"}
        out = subprocess.run([sys.executable, "-c", RSS_STEP_SCRIPT], capture_output=True,
                             text=True, check=True, timeout=120, env=env)
        n, growth = map(int, out.stdout.split())
        v, h, context, rank = 512, 64, 8, 8
        bound = (n * v + n * h + n * (context + 2 * rank + 2)) * 8 + 2 * 2**20
        assert n == 16128
        assert growth <= bound, f"{(growth - (n * v + n * h) * 8) / 2**20:.2f} MiB over the buffers"

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


class TestRowBlocks:
    @given(n=st.integers(0, 20 * ROW_BLOCK))
    def test_blocks_cover_every_row_once_in_order(self, n):
        blocks = row_blocks(n)
        assert [i for blk in blocks for i in range(n)[blk]] == list(range(n))
        assert all(blk.step is None for blk in blocks)
        if n < 2 * ROW_BLOCK:
            assert blocks == [slice(0, n)]
        else:
            assert all(ROW_BLOCK <= blk.stop - blk.start < 2 * ROW_BLOCK for blk in blocks)

    @given(n=st.integers(0, 20000), k=st.integers(1, 2000), cols=st.integers(1, 600))
    def test_blocks_of_a_product_exceed_the_small_gemm_bound(self, n, k, cols):
        blocks = row_blocks(n, np.broadcast_to(0.0, (k, cols)))
        assert [i for blk in blocks for i in range(n)[blk]] == list(range(n))
        rows = [blk.stop - blk.start for blk in blocks]
        if cols == 1:
            assert len(blocks) == 1  # gemv: its bits depend on where a block starts
        elif len(blocks) > 1:
            floor = max(ROW_BLOCK, MIN_BLOCK_VALUES // k)
            assert all(r >= floor and r * k * cols > SMALL_GEMM for r in rows)
            assert max(rows) < 2 * min(rows)


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

    @pytest.mark.parametrize("lr", [20.0, 1000.0])
    def test_divergence_is_named_with_its_epoch_and_step(self, base, vocab, lr):
        # the binary64 factors outgrow binary32 long before the loss stops being finite
        corpus = random_corpus(np.random.default_rng(1), vocab, 64, 12)
        cfg = TrainConfig(lr=lr, batch_size=8, epochs=8, rank=2, seed=1)
        with pytest.warns(RuntimeWarning), pytest.raises(TrainingDivergedError) as info:
            train_lora(base, corpus, cfg)
        assert info.value.code == "training-diverged"
        assert re.fullmatch(r"training diverged at epoch [1-8] of 8, step [1-8] of 8: "
                            r"target 'w[12]': a factor or the scaling is not finite",
                            str(info.value))

    def test_a_non_finite_loss_is_named_at_its_step(self, base, monkeypatch):
        losses = iter([1.0, 2.0, 3.0, float("nan")])
        step = lora.loss_and_grads

        def failing(*args):
            _, grads = step(*args)
            return next(losses), grads

        monkeypatch.setattr(lora, "loss_and_grads", failing)
        with pytest.raises(TrainingDivergedError,
                           match=r"^training diverged at epoch 2 of 2, step 1 of 3: loss nan is not finite$"):
            train_lora(base, [[3, 4, 5]] * 5, TrainConfig(epochs=2, batch_size=2, rank=2))

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
    )
    def test_round_trip_randomized(self, rank, seed, scaling):
        vocab = Vocab(size=8, eos_id=1, bos_id=2)
        base = TinyNeuralLM.random(vocab, context=3, embed_dim=4, hidden_dim=6, seed=1)
        adapter = init_adapter(base, rank=rank, seed=seed)
        rng = np.random.default_rng(seed)
        for t in adapter.targets:
            t.scaling = scaling
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
        data = bytearray(encode_adapter(init_adapter(base, rank=1)))
        # header: magic(4) + version(1) + rank u32(4) + count u16(2); tag byte next
        data[11] = 200
        with pytest.raises(AdapterFormatError) as err:
            decode_adapter(bytes(data))
        assert "200" in str(err.value)

    @pytest.mark.parametrize("order", [(), (0,), (1,), (0, 0), (1, 0), (0, 1, 1)],
                             ids=["none", "w1", "w2", "w1-w1", "w2-w1", "w1-w2-w2"])
    def test_every_layout_but_w1_then_w2_is_refused(self, base, order):
        adapter = init_adapter(base, rank=2)
        assert prdl_layout(adapter, (0, 1)) == encode_adapter(adapter)
        with pytest.raises(AdapterFormatError, match="adapter targets must be"):
            decode_adapter(prdl_layout(adapter, order))

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("where", ["scaling", "b", "a"])
    def test_non_finite_binary32_is_rejected(self, base, where, value):
        data = bytearray(encode_adapter(init_adapter(base, rank=1)))
        # header(11) + tag(1) + m, n u32(8): the scaling f32, then B (m x 1), then A
        at = {"scaling": 20, "b": 24, "a": 24 + 4 * base.hidden_dim}[where]
        data[at:at + 4] = struct.pack("<f", value)
        with pytest.raises(AdapterFormatError, match="not finite"):
            decode_adapter(bytes(data))

    @pytest.mark.parametrize("where", ["scaling", "b", "a"])
    def test_binary32_overflow_is_refused_on_snapshot_and_encode(self, base, where):
        adapter = rich_adapter(base)  # binary64 factors
        t = adapter.targets[1]
        if where == "scaling":
            t.scaling = 1e39
        else:
            setattr(t, where, getattr(t, where) + 1e39)
        for convert in (LoraAdapter.snapshot, encode_adapter):
            with pytest.warns(RuntimeWarning, match="overflow"):
                with pytest.raises(ValueError, match="'w2'.* not finite"):
                    convert(adapter)

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
