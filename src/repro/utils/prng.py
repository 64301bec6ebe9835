"""Seeded random-number plumbing.

Every stochastic component of the library (random topologies, bisection
patterns, tie-shuffling in routing engines) takes either an integer seed or
a ready :class:`numpy.random.Generator`. These helpers normalise that
convention and derive independent child streams, so that

* the same seed always reproduces the same experiment end to end, and
* sub-components (e.g. the 1000 bisection patterns of a Netgauge run) get
  statistically independent streams instead of correlated slices.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

RngLike = "int | None | np.random.Generator | np.random.SeedSequence"


def make_rng(seed=None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may be ``None`` (OS entropy), an ``int``, a ``SeedSequence``
    or an existing ``Generator`` (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn_rngs(seed, n: int) -> list[np.random.Generator]:
    """Derive ``n`` independent generators from ``seed``.

    Uses :class:`numpy.random.SeedSequence` spawning, which guarantees
    non-overlapping streams. If ``seed`` is already a ``Generator`` the
    children are derived from its bit generator's seed sequence when
    available, otherwise from integers drawn from it.
    """
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of RNGs: {n}")
    if isinstance(seed, np.random.Generator):
        ss = seed.bit_generator.seed_seq
        if ss is None:  # pragma: no cover - only for exotic bit generators
            seeds = seed.integers(0, 2**63 - 1, size=n)
            return [np.random.default_rng(int(s)) for s in seeds]
        return [np.random.default_rng(child) for child in ss.spawn(n)]
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in ss.spawn(n)]


def permutation_pairs(rng: np.random.Generator, items: Sequence[int]) -> list[tuple[int, int]]:
    """Random perfect matching of ``items`` into ordered pairs.

    ``items`` is shuffled and consecutive elements paired; a trailing odd
    element is dropped. Used by bisection-pattern generators.
    """
    arr = np.array(list(items), dtype=np.int64)
    rng.shuffle(arr)
    m = (len(arr) // 2) * 2
    return [(int(arr[i]), int(arr[i + 1])) for i in range(0, m, 2)]
