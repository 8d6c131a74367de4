"""Logits-offset composition: worked values, precision, shift invariance."""

from __future__ import annotations

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from offsetlm import (
    GenerationConfig,
    OffsetProxy,
    Vocab,
    adapted_next_token,
    adjusted_logits,
    argmax_sample,
    make_rng,
    seeded_sample,
)

finite_f32 = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False, width=32
)


def vec(*values) -> np.ndarray:
    return np.array(values, dtype=np.float32)


class FixedLogits:
    """A proxy whose next-token logits are ``z`` after any sequence."""

    vocab = Vocab(size=8, eos_id=1, bos_id=2)

    def __init__(self, z: np.ndarray) -> None:
        self.z = z

    def next_logits(self, seq) -> np.ndarray:
        return self.z


def offset(z_p: np.ndarray, z_p_tuned: np.ndarray) -> np.ndarray:
    """The tuning offset ``d`` of a proxy pair with these logits, from ``OffsetProxy.offset``."""
    return OffsetProxy(FixedLogits(z_p), FixedLogits(z_p_tuned)).offset([3])


def triple_strategy(size: int):
    row = st.lists(finite_f32, min_size=size, max_size=size)
    return st.tuples(row, row, row).map(lambda rows: tuple(vec(*r) for r in rows))


def dyadic_triple_strategy(size: int):
    """Triples on a 1/64 grid within ±512: all compositions are exact."""
    row = st.lists(st.integers(-(2**15), 2**15), min_size=size, max_size=size)
    to_vec = lambda units: np.array(units, dtype=np.float32) * np.float32(2.0**-6)
    return st.tuples(row, row, row).map(lambda rows: tuple(to_vec(r) for r in rows))


class TestComposition:
    def test_worked_example(self):
        out = adjusted_logits(vec(1.0, 2.0, 3.0), offset(vec(0.5, 0.5, 0.5), vec(0.5, 1.5, 0.5)))
        np.testing.assert_array_equal(out, vec(1.0, 3.0, 3.0))

    def test_zero_offset_is_bitwise_identity(self):
        z_b = vec(0.25, -3.5, 7.125, 0.1)
        z_p = vec(1.0, 2.0, -0.5, 0.3)
        out = adjusted_logits(z_b, offset(z_p, z_p.copy()))
        np.testing.assert_array_equal(out, z_b)
        assert out.dtype == np.float32

    @given(triple_strategy(5))
    @example(  # cancellation: (z_p_tuned - z_p) rounds -256.00001 to -256.0
        (
            vec(0.0, 0.0, 255.0, 0.0, 0.0),
            vec(0.0, 0.0, 257.0, 0.0, 0.0),
            vec(0.0, 0.0, 0.99999, 0.0, 0.0),
        )
    )
    def test_matches_binary64_oracle(self, triple):
        # Composition runs in binary32, so rounding error scales with the
        # largest operand, not with the (possibly cancelled-to-tiny) result.
        z_b, z_p, z_p_tuned = (z.astype(np.float64) for z in triple)
        oracle = z_b + z_p_tuned - z_p
        b32, p32, t32 = triple
        out = adjusted_logits(b32, offset(p32, t32))
        got = out.astype(np.float64)
        scale = np.maximum.reduce(
            [np.ones_like(oracle), np.abs(z_b), np.abs(z_p), np.abs(z_p_tuned)]
        )
        assert np.all(np.abs(got - oracle) / scale < 1e-6)
        # and bit-for-bit the binary32 formula in its fixed order
        np.testing.assert_array_equal(out, b32 + (t32 - p32))

    @given(dyadic_triple_strategy(4), st.integers(-32, 32))
    def test_greedy_choice_shift_invariant(self, triple, shift):
        z_b, z_p, z_p_tuned = triple
        d = offset(z_p, z_p_tuned)
        assert argmax_sample(adjusted_logits(z_b, d)) == argmax_sample(
            adjusted_logits(z_b + np.float32(shift), d)
        )


class TestAdaptedNextToken:
    def test_greedy_picks_adjusted_argmax(self):
        z_b, d = vec(5.0, 0.0, 0.0), offset(vec(0.0, 0.0, 0.0), vec(0.0, 0.0, 10.0))
        config = GenerationConfig(max_new_tokens=1, mode="greedy")
        assert adapted_next_token(z_b, d, config, make_rng(0)) == 2

    def test_stochastic_consumes_exactly_one_draw(self):
        z_b, d = vec(0.0, 1.0), offset(vec(0.0, 0.0), vec(0.5, 0.0))
        config = GenerationConfig(max_new_tokens=1, mode="stochastic", temperature=0.8, seed=4)
        rng = make_rng(4)
        tok = adapted_next_token(z_b, d, config, rng)
        after = rng.random()
        ref = make_rng(4)
        assert tok == seeded_sample(adjusted_logits(z_b, d), 0.8, ref)
        assert after == ref.random()
