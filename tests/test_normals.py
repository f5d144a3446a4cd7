"""The seeded normal generator of ``conefit.coarser_excess``'s random
directions (``conefit._Normals``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mintwo.conefit import _Normals

seeds = st.integers(0, 2 ** 70)


@settings(max_examples=100, deadline=None)
@given(seeds, st.integers(0, 64))
def test_same_seed_same_bits(seed, count):
    a = _Normals(seed).standard_normal(count)
    b = _Normals(seed).standard_normal(count)
    assert a.tobytes() == b.tobytes()


@settings(max_examples=100, deadline=None)
@given(seeds, st.integers(0, 40), st.integers(0, 40))
def test_draws_split_anywhere(seed, a, b):
    # drawing a then b equals drawing a + b at once, whatever the shapes
    rng = _Normals(seed)
    first, second = rng.standard_normal((a, 1)), rng.standard_normal(b)
    whole = _Normals(seed).standard_normal(a + b)
    assert first.shape == (a, 1) and second.shape == (b,)
    assert np.concatenate([first.ravel(), second]).tobytes() == \
        whole.tobytes()


def test_seeds_give_distinct_first_draws():
    first = [_Normals(seed).standard_normal(1)[0] for seed in range(1000)]
    assert len(set(first)) == 1000


def test_seeds_equal_mod_two_to_the_64_share_a_stream():
    assert _Normals(7).standard_normal(8).tobytes() == \
        _Normals(7 + 2 ** 64).standard_normal(8).tobytes()


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_standard_normal_moments(seed):
    # the mean's standard error is 0.0022 and the variance's 0.0032
    x = _Normals(seed).standard_normal(200_000)
    assert np.all(np.isfinite(x))
    assert abs(x.mean()) <= 0.01
    assert abs(x.var() - 1.0) <= 0.02


def test_splitmix64_first_word():
    # seed 0's first SplitMix64 output is 0xe220a8397b1dcdaf; its top 53
    # bits give uniform 0 and word 1 uniform 1 of normal 0
    u = [(w >> 11) / 2 ** 53 + 2.0 ** -54
         for w in (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4)]
    want = np.sqrt(-2 * np.log(u[0])) * np.cos(2 * np.pi * u[1])
    assert _Normals(0).standard_normal(1)[0] == want


@pytest.mark.parametrize("seed", [-1, -2 ** 64])
def test_negative_seed_rejected(seed):
    with pytest.raises(ValueError, match="non-negative integer"):
        _Normals(seed)
