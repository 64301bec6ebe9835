"""Seeded RNG plumbing."""

import numpy as np
import pytest

from repro.utils.prng import make_rng, permutation_pairs, spawn_rngs


def test_make_rng_from_int_deterministic():
    assert make_rng(7).integers(1000) == make_rng(7).integers(1000)


def test_make_rng_passthrough_generator():
    g = np.random.default_rng(1)
    assert make_rng(g) is g


def test_make_rng_from_seedsequence():
    ss = np.random.SeedSequence(5)
    a = make_rng(ss).integers(1000)
    b = make_rng(np.random.SeedSequence(5)).integers(1000)
    assert a == b


def test_make_rng_none_works():
    assert make_rng(None).integers(10) in range(10)


def test_spawn_rngs_independent_streams():
    rngs = spawn_rngs(3, 4)
    draws = [r.integers(10**9) for r in rngs]
    assert len(set(draws)) == 4


def test_spawn_rngs_reproducible():
    a = [r.integers(10**9) for r in spawn_rngs(3, 4)]
    b = [r.integers(10**9) for r in spawn_rngs(3, 4)]
    assert a == b


def test_spawn_from_generator():
    g = np.random.default_rng(9)
    rngs = spawn_rngs(g, 3)
    assert len(rngs) == 3


def test_spawn_negative_rejected():
    with pytest.raises(ValueError):
        spawn_rngs(0, -1)


def test_spawn_zero_is_empty():
    assert spawn_rngs(0, 0) == []


def test_permutation_pairs_cover_even_population():
    pairs = permutation_pairs(make_rng(0), range(10))
    flat = [x for p in pairs for x in p]
    assert sorted(flat) == list(range(10))
    assert len(pairs) == 5


def test_permutation_pairs_drop_odd_leftover():
    pairs = permutation_pairs(make_rng(0), range(7))
    assert len(pairs) == 3
