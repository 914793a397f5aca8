"""Deterministic RNG derivation.

Every randomized routine takes an integer seed and derives its generator
through a SeedSequence spawn key, so independent subsystems (sampling,
surveys, trials) never share a stream and runs are reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np


def derive_rng(seed, *key):
    """Generator for subsystem `key` under `seed`.

    Keys are small tuples of ints, e.g. derive_rng(seed, 3, trial).
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.PCG64(ss))
