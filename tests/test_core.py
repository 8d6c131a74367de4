"""Sampling and vocabulary primitives against independent oracles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offsetlm import GenerationConfig, Vocab, argmax_sample, make_rng, seeded_sample
from offsetlm.core import check_prompt, parse_token_line, pick, read_corpus, sample_at, softmax64
from offsetlm.models import VocabMismatchError

from conftest import argmax_oracle, softmax_oracle

finite_f32 = st.floats(
    min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False, width=32
)


class TestVocab:
    def test_valid(self):
        v = Vocab(size=3, eos_id=0, bos_id=2)
        assert v.size == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(size=2, eos_id=0, bos_id=1),
            dict(size=5, eos_id=5, bos_id=1),
            dict(size=5, eos_id=-1, bos_id=1),
            dict(size=5, eos_id=1, bos_id=1),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            Vocab(**kwargs)


class TestGenerationConfig:
    def test_zero_budget_is_legal(self):
        assert GenerationConfig(max_new_tokens=0).max_new_tokens == 0

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            GenerationConfig(max_new_tokens=-1)

    def test_rejects_bad_mode_and_temperature(self):
        with pytest.raises(ValueError):
            GenerationConfig(max_new_tokens=1, mode="beam")
        with pytest.raises(ValueError):
            GenerationConfig(max_new_tokens=1, mode="stochastic", temperature=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_new_tokens=1, seed=-1),
            dict(max_new_tokens=1, seed=2**64),
            dict(max_new_tokens=2**32),
            dict(max_new_tokens=1, mode="stochastic", temperature=1e-50),
            dict(max_new_tokens=1, temperature=1e39),
            dict(max_new_tokens=1, temperature=float("nan")),
        ],
        ids=["seed-negative", "seed-2^64", "budget-2^32", "stochastic-1e-50", "temperature-1e39",
             "temperature-nan"],
    )
    def test_rejects_what_the_wire_cannot_carry(self, kwargs):
        with pytest.raises(ValueError):
            GenerationConfig(**kwargs)

    def test_accepts_the_edges_of_the_wire_ranges(self):
        assert GenerationConfig(max_new_tokens=1, seed=2**64 - 1).seed == 2**64 - 1
        assert GenerationConfig(max_new_tokens=2**32 - 1).max_new_tokens == 2**32 - 1
        assert GenerationConfig(max_new_tokens=1, mode="greedy", temperature=0.0).temperature == 0.0

    def test_temperature_is_stored_as_its_binary32_rounding(self):
        assert GenerationConfig(1, "stochastic", 0.9).temperature == 0.8999999761581421


class TestArgmax:
    def test_basic(self):
        assert argmax_sample(np.array([0.1, 2.0, 1.5], dtype=np.float32)) == 1

    def test_tie_goes_to_lowest_index(self):
        assert argmax_sample(np.array([5.0, 5.0, 1.0], dtype=np.float32)) == 0
        assert argmax_sample(np.array([1.0, 7.0, 7.0, 7.0], dtype=np.float32)) == 1

    def test_matches_linear_scan_oracle_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            # quantize so exact ties actually appear
            vals = np.round(rng.normal(size=n), 1).astype(np.float32)
            assert argmax_sample(vals) == argmax_oracle(vals.tolist())

    @given(st.lists(finite_f32, min_size=1, max_size=32))
    def test_matches_linear_scan_oracle(self, values):
        arr = np.array(values, dtype=np.float32)
        assert argmax_sample(arr) == argmax_oracle(arr.tolist())

    @given(
        st.lists(st.integers(-(2**20), 2**20), min_size=1, max_size=32),
        st.integers(-64, 64),
    )
    def test_shift_invariance(self, units, shift):
        # dyadic grid keeps value + shift exact in binary32, so the ranking
        # is provably unchanged (with arbitrary floats, rounding can merge
        # near-ties and legitimately move the argmax)
        arr = np.array(units, dtype=np.float32) * np.float32(2.0**-10)
        assert argmax_sample(arr) == argmax_sample(arr + np.float32(shift))


class TestSeededSample:
    def test_deterministic_per_seed(self):
        logits = np.array([0.3, -1.0, 2.0, 0.0], dtype=np.float32)
        a = [seeded_sample(logits, 1.0, make_rng(7)) for _ in range(5)]
        b = [seeded_sample(logits, 1.0, make_rng(7)) for _ in range(5)]
        assert a == b

    def test_overwhelming_logit_wins(self):
        logits = np.array([1000.0, 0.0, 0.0], dtype=np.float32)
        rng = make_rng(0)
        assert all(seeded_sample(logits, 1.0, rng) == 0 for _ in range(50))

    def test_consumes_one_draw_per_token(self):
        logits = np.array([0.0, 0.1, -0.2], dtype=np.float32)
        rng_a = make_rng(3)
        seeded_sample(logits, 1.0, rng_a)
        follow_up = rng_a.random()
        rng_b = make_rng(3)
        rng_b.random()
        assert follow_up == rng_b.random()

    def test_frequencies_match_softmax_oracle(self):
        logits = np.array([1.0, 0.0, -1.0, 0.5], dtype=np.float32)
        probs = softmax_oracle(logits)
        n = 20000
        rng = make_rng(11)
        counts = np.zeros(4)
        for _ in range(n):
            counts[seeded_sample(logits, 1.0, rng)] += 1
        # three-sigma binomial envelope per symbol
        for k in range(4):
            sigma = np.sqrt(n * probs[k] * (1 - probs[k]))
            assert abs(counts[k] - n * probs[k]) < 3.5 * sigma

    def test_low_temperature_sharpens(self):
        logits = np.array([1.0, 0.9, 0.0], dtype=np.float32)
        rng = make_rng(5)
        picks = [seeded_sample(logits, 0.01, rng) for _ in range(200)]
        assert sum(1 for p in picks if p == 0) > 195


def cdf_oracle_sample(logits, temperature, u) -> int:
    """The inverse-CDF step as ``softmax64``, ``np.cumsum`` and ``np.searchsorted``."""
    cdf = np.cumsum(softmax64(logits, temperature))
    return min(int(np.searchsorted(cdf, u, side="right")), cdf.shape[0] - 1)


class TestSampleAt:
    @pytest.mark.parametrize("temperature", [1.0, 0.7, 1.3])
    def test_matches_the_softmax64_cdf(self, temperature):
        rng = np.random.default_rng(17)
        for row in range(200):
            logits = rng.normal(0.0, 3.0, size=int(rng.integers(3, 64))).astype(np.float32)
            uniforms = make_rng(row)
            for _ in range(20):
                u = uniforms.random()
                assert sample_at(logits, temperature, u) == cdf_oracle_sample(logits, temperature, u)

    def test_a_uniform_on_a_cdf_value_picks_the_next_token(self):
        logits = np.array([0.5, -1.0, 2.0, 0.25], dtype=np.float32)
        cdf = np.cumsum(softmax64(logits, 0.9))
        for k in range(3):
            assert sample_at(logits, 0.9, cdf[k]) == cdf_oracle_sample(logits, 0.9, cdf[k]) == k + 1
        assert sample_at(logits, 0.9, 0.0) == 0
        assert sample_at(logits, 0.9, np.nextafter(1.0, 0.0)) == 3

    def test_leaves_binary64_logits_unchanged(self):
        logits = np.array([0.5, -1.0, 2.0], dtype=np.float64)
        sample_at(logits, 0.5, 0.3)
        np.testing.assert_array_equal(logits, [0.5, -1.0, 2.0])

    def test_seeded_sample_is_sample_at_the_next_draw(self):
        logits = np.array([0.3, -1.0, 2.0, 0.0], dtype=np.float32)
        rng, uniforms = make_rng(9), make_rng(9)
        for _ in range(50):
            assert seeded_sample(logits, 1.2, rng) == sample_at(logits, 1.2, uniforms.random())

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            sample_at(np.array([0.0, 1.0]), 0.0, 0.5)


unit_uniform = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


class TestPick:
    """The token rule of every mode: the argmax when greedy, ``sample_at`` when stochastic."""

    @given(st.lists(finite_f32, min_size=1, max_size=40), unit_uniform)
    def test_greedy_is_the_argmax_at_every_uniform(self, values, u):
        logits = np.array(values, dtype=np.float32)
        assert pick(logits, GenerationConfig(max_new_tokens=1), u) == int(np.argmax(logits))

    @given(st.lists(finite_f32, min_size=1, max_size=40), unit_uniform,
           st.sampled_from([0.5, 1.0, 1.3]))
    def test_stochastic_is_sample_at(self, values, u, temperature):
        logits = np.array(values, dtype=np.float32)
        config = GenerationConfig(max_new_tokens=1, mode="stochastic", temperature=temperature)
        assert pick(logits, config, u) == sample_at(logits, config.temperature, u)


class TestNonFiniteRows:
    """A row with a NaN or a +inf, or all -inf, has no token; no finite row is refused."""

    INF, NAN = float("inf"), float("nan")

    @pytest.mark.parametrize("row", [[1.0, NAN, 2.0], [3.0, 1.0, NAN], [NAN] * 3,
                                     [1.0, INF, 2.0], [INF, -INF, INF], [-INF] * 3],
                             ids=["nan", "nan-after-max", "all-nan", "+inf", "+inf-and--inf",
                                  "all--inf"])
    @pytest.mark.parametrize("mode", ["greedy", "stochastic"])
    def test_refused_in_both_modes(self, row, mode):
        logits = np.array(row, dtype=np.float32)
        for u in (0.0, 0.5, np.nextafter(1.0, 0.0)):
            with pytest.raises(ValueError, match="not finite"):
                pick(logits, GenerationConfig(max_new_tokens=1, mode=mode), u)

    def test_minus_inf_entries_beside_a_finite_maximum_are_kept(self):
        logits = np.array([-self.INF, 2.0, -self.INF, 1.0], dtype=np.float32)
        assert argmax_sample(logits) == 1
        assert sample_at(logits, 1.0, 0.0) == 1
        assert sample_at(logits, 1.0, np.nextafter(1.0, 0.0)) == 3

    def test_the_widest_binary32_row_at_the_smallest_temperature_is_kept(self):
        top = float(np.finfo(np.float32).max)
        logits = np.array([-top, top, 0.0], dtype=np.float32)
        config = GenerationConfig(max_new_tokens=1, mode="stochastic", temperature=1e-45)
        assert config.temperature > 0.0  # the smallest binary32 subnormal
        assert pick(logits, config, 0.5) == 1


class TestSoftmax64:
    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            softmax64(np.array([0.0, 1.0]), 0.0)

    def test_temperature_one_matches_oracle(self):
        vals = [0.2, -1.0, 3.0]
        np.testing.assert_allclose(softmax64(np.array(vals)), softmax_oracle(vals), rtol=1e-12)


class TestCheckPrompt:
    @pytest.mark.parametrize("prompt", [[3], (3, 4), [1], [3, 4, 1], [0, 7]])
    def test_accepts_a_sequence_ending_at_most_in_eos(self, vocab, prompt):
        check_prompt(prompt, vocab)

    @pytest.mark.parametrize(
        "prompt, error, text",
        [
            ([], ValueError, "prompt must be non-empty"),
            ((3, 8), VocabMismatchError, "prompt token 8 out of range for vocab size 8"),
            ([1, 3], ValueError, "eos inside the prompt body"),
            ([3, 1, 1], ValueError, "eos inside the prompt body"),
        ],
    )
    def test_refusals(self, vocab, prompt, error, text):
        with pytest.raises(error, match=text):
            check_prompt(prompt, vocab)


class TestCorpusIo:
    def test_parse_line(self, vocab):
        assert parse_token_line("3 4  5", vocab) == [3, 4, 5]
        with pytest.raises(ValueError):
            parse_token_line("3 99", vocab)

    def test_parse_line_shares_the_models_range_error(self, vocab):
        assert parse_token_line("", vocab) == []
        with pytest.raises(VocabMismatchError, match="token 99 out of range"):
            parse_token_line("3 99", vocab)

    def test_read_corpus_round_trip(self, tmp_path, vocab):
        path = tmp_path / "corpus.txt"
        path.write_text("3 4 5\n\n6 7\n")
        assert read_corpus(path, vocab) == [[3, 4, 5], [], [6, 7]]
