"""Seeded, splittable random streams.

Every stochastic routine in the package draws from a counter-based
Philox generator keyed by a root seed plus an integer path, so trials
can run in any order (or in parallel) and still reproduce bit-for-bit.
"""

from __future__ import annotations

import numpy as np


def _seed_sequence(seed: int, path: tuple) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream identified by (seed, path).

    Distinct paths under the same seed give statistically independent
    streams; the same (seed, path) always gives the same stream.
    """
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, path)))


def child_seed(seed: int, *path: int) -> int:
    """64-bit integer seed identified by (seed, path), for handing to a seeded routine."""
    return int(_seed_sequence(seed, path).generate_state(1, dtype=np.uint64)[0])
