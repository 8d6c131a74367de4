"""Sampling and vocabulary primitives against independent oracles."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offsetlm import GenerationConfig, Vocab, argmax_sample, gumbel_vectors, make_rng, pick
from offsetlm.core import VocabMismatchError, check_prompt, parse_token_line, read_corpus

from conftest import argmax_oracle, gumbel_max_oracle, softmax_oracle

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


class TestGumbelVectors:
    def test_stochastic_vectors_are_the_seeds_gumbel_draws_in_order(self):
        config = GenerationConfig(max_new_tokens=1, mode="stochastic", seed=7)
        noise, rng = gumbel_vectors(config, 5), make_rng(7)
        for _ in range(4):
            np.testing.assert_array_equal(next(noise), rng.gumbel(size=5))

    def test_deterministic_per_seed(self):
        config = GenerationConfig(max_new_tokens=1, mode="stochastic", seed=3)
        a, b = gumbel_vectors(config, 4), gumbel_vectors(config, 4)
        for _ in range(5):
            np.testing.assert_array_equal(next(a), next(b))

    def test_greedy_draws_nothing(self):
        noise = gumbel_vectors(GenerationConfig(max_new_tokens=1, seed=7), 5)
        assert [next(noise) for _ in range(4)] == [None] * 4


def stochastic(temperature: float = 1.0) -> GenerationConfig:
    return GenerationConfig(max_new_tokens=1, mode="stochastic", temperature=temperature)


class TestPick:
    """The token rule of every mode: the argmax when greedy, Gumbel-max when stochastic."""

    @given(st.lists(finite_f32, min_size=1, max_size=40), st.integers(0, 2**32 - 1))
    def test_greedy_is_the_argmax_with_any_noise(self, values, seed):
        logits = np.array(values, dtype=np.float32)
        greedy = GenerationConfig(max_new_tokens=1)
        for g in (None, make_rng(seed).gumbel(size=len(values))):
            assert pick(logits, greedy, g) == int(np.argmax(logits))

    @given(st.lists(finite_f32, min_size=1, max_size=40), st.integers(0, 2**32 - 1),
           st.sampled_from([0.5, 1.0, 1.3]))
    def test_stochastic_is_the_gumbel_max(self, values, seed, temperature):
        logits = np.array(values, dtype=np.float32)
        config = stochastic(temperature)
        g = make_rng(seed).gumbel(size=len(values))
        assert pick(logits, config, g) == gumbel_max_oracle(logits, config.temperature, g)

    @pytest.mark.parametrize("mode", ["greedy", "stochastic"])
    def test_ties_go_to_the_lowest_index(self, mode):
        config = GenerationConfig(max_new_tokens=1, mode=mode)
        assert pick(np.array([0.0, 2.0, 2.0, 1.0], dtype=np.float32), config, np.zeros(4)) == 1
        # distinct logits whose scores tie exactly once the noise is added
        assert pick(np.array([0.0, 1.0, 0.0], dtype=np.float32), stochastic(), np.array([1.0, 0.0, 1.0])) == 0
        assert pick(np.array([3.0, 1.0, 2.0], dtype=np.float32), stochastic(), np.array([0.0, 2.0, 1.0])) == 0

    def test_noise_decides_among_close_logits(self):
        logits = np.array([0.5, -1.0, 2.0, 0.25], dtype=np.float32)
        for k in range(4):
            g = np.zeros(4)
            g[k] = 10.0
            assert pick(logits, stochastic(0.9), g) == k

    def test_leaves_the_row_and_the_noise_unchanged(self):
        logits, g = np.array([0.5, -1.0, 2.0], dtype=np.float64), np.array([0.1, 0.2, 0.3])
        pick(logits, stochastic(0.5), g)
        np.testing.assert_array_equal(logits, [0.5, -1.0, 2.0])
        np.testing.assert_array_equal(g, [0.1, 0.2, 0.3])

    def test_overwhelming_logit_wins(self):
        logits = np.array([1000.0, 0.0, 0.0], dtype=np.float32)
        noise = gumbel_vectors(GenerationConfig(max_new_tokens=1, mode="stochastic"), 3)
        assert all(pick(logits, stochastic(), next(noise)) == 0 for _ in range(50))

    def test_low_temperature_sharpens(self):
        logits = np.array([1.0, 0.9, 0.0], dtype=np.float32)
        noise = gumbel_vectors(GenerationConfig(max_new_tokens=1, mode="stochastic", seed=5), 3)
        picks = [pick(logits, stochastic(0.01), next(noise)) for _ in range(200)]
        assert sum(1 for p in picks if p == 0) > 195

    @pytest.mark.parametrize("temperature", [0.5, 1.0, 2.0])
    def test_frequencies_match_the_temperature_softmax(self, temperature):
        """20 000 seeded picks of one row: KL to ``softmax(z / T)`` and every count near its mean."""
        logits = np.array([1.0, 0.0, -1.0, 0.5, -2.0, 0.25], dtype=np.float32)
        config = GenerationConfig(max_new_tokens=1, mode="stochastic", temperature=temperature,
                                  seed=11)
        probs = softmax_oracle(logits, config.temperature)
        n, noise = 20_000, gumbel_vectors(config, len(logits))
        counts = np.zeros(len(logits))
        for _ in range(n):
            counts[pick(logits, config, next(noise))] += 1
        freq = counts / n
        kl = sum(p * np.log(p / q) for p, q in zip(freq, probs) if p)
        assert kl < 1e-3  # about (V - 1) / (2n) = 1.25e-4 expected
        for k in range(len(logits)):  # a 3.5-sigma binomial envelope per token
            sigma = np.sqrt(n * probs[k] * (1 - probs[k]))
            assert abs(counts[k] - n * probs[k]) < 3.5 * sigma


class TestNonFiniteRows:
    """A row with a NaN or a +inf, or all -inf, has no token; no finite row is refused."""

    INF, NAN = float("inf"), float("nan")

    @pytest.mark.parametrize("row", [[1.0, NAN, 2.0], [3.0, 1.0, NAN], [NAN] * 3,
                                     [1.0, INF, 2.0], [INF, -INF, INF], [-INF] * 3],
                             ids=["nan", "nan-after-max", "all-nan", "+inf", "+inf-and--inf",
                                  "all--inf"])
    @pytest.mark.parametrize("mode", ["greedy", "stochastic"])
    def test_refused_in_both_modes_without_a_warning(self, row, mode):
        logits = np.array(row, dtype=np.float32)
        config = GenerationConfig(max_new_tokens=1, mode=mode)
        for g in (None, np.zeros(3), make_rng(0).gumbel(size=3)):
            if g is None and mode == "stochastic":
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # any RuntimeWarning fails the case
                with pytest.raises(ValueError, match="not finite"):
                    pick(logits, config, g)

    def test_minus_inf_entries_beside_a_finite_maximum_are_kept(self):
        logits = np.array([-self.INF, 2.0, -self.INF, 1.0], dtype=np.float32)
        assert argmax_sample(logits) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pick(logits, stochastic(), np.array([100.0, 0.0, 100.0, 0.0])) == 1
            assert pick(logits, stochastic(), np.array([0.0, 0.0, 0.0, 5.0])) == 3

    def test_the_widest_binary32_row_at_the_smallest_temperature_is_kept(self):
        top = float(np.finfo(np.float32).max)
        logits = np.array([-top, top, 0.0], dtype=np.float32)
        config = stochastic(1e-45)
        assert config.temperature > 0.0  # the smallest binary32 subnormal
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pick(logits, config, make_rng(0).gumbel(size=3)) == 1


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
