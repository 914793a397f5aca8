"""Deterministic RNG derivation.

Every randomized routine takes an integer seed and derives its generator
through a SeedSequence spawn key, so independent subsystems (sampling,
surveys, trials) never share a stream and runs are reproducible bit for bit.

random_covectors draws the covectors of many such streams in one pass.  It
follows numpy's own algorithms: SeedSequence's hash mix and generate_state,
PCG64's seeding (pcg_setseq_128_srandom_r) and XSL-RR output, and the 32-bit
halves of each output, low half first, mapped into [0, p) by Lemire's
multiply-shift, which Generator.integers uses.  numpy keeps SeedSequence and
PCG64 streams stable across releases (NEP 19), but not Generator methods, so
a row whose draws Generator.integers could treat otherwise, a rejection or
an all-zero draw that it redraws, is taken from the Generator itself.
"""

from __future__ import annotations

import numpy as np

from .multilin import random_covector

M32, M64, M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
# SeedSequence's hash constants and PCG64's 128-bit multiplier
INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
MIX_L, MIX_R = 0xCA01F9DD, 0x4973F715
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def derive_rng(seed, *key):
    """Generator for subsystem `key` under `seed`.

    Keys are small tuples of ints, e.g. derive_rng(seed, 3, trial).
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.PCG64(ss))


def _xorshift(x):
    return x ^ x >> 16


def random_covectors(seed, key, ts, p):
    """The (len(ts), 4) int64 array whose row i is
    random_covector(derive_rng(seed, key, ts[i]), p), for an int seed >= 0
    and 0 <= key < 2**32.

    The entropy words of seed and key are the same in every stream, so
    SeedSequence mixes them once; only the last word, t, is mixed as a
    uint32 array, four hashes per word.  The state words seed PCG64, whose
    128-bit steps run on Python ints, and its first two outputs give the
    four draws.  A row with a draw in Lemire's rejection zone, an all-zero
    row, and a t outside [0, 2**32) are recomputed by derive_rng."""
    ts = np.asarray(ts, dtype=np.int64)
    words = max(4, -(-int(seed).bit_length() // 32) or 1) + 1
    hc = INIT_A * pow(MULT_A, 4 * words, 1 << 32) & M32
    t = (ts & M32).astype(np.uint32)
    pool = []
    for x in np.random.SeedSequence(seed, spawn_key=(key,)).pool.tolist():
        y = t ^ hc
        hc = hc * MULT_A & M32
        pool.append(_xorshift((MIX_L * x & M32) - _xorshift(y * hc) * MIX_R))
    # generate_state(4, uint64): eight words from the pool, cycled
    hc, state = INIT_B, []
    for i in range(8):
        y = pool[i % 4] ^ hc
        hc = hc * MULT_B & M32
        state.append(_xorshift(y * hc))
    w = np.array(state, dtype=np.uint64)
    s = (w[0::2] | w[1::2] << 32).astype(object)
    # srandom_r from state 0: one step, add the initial state, one more step;
    # each output steps, then takes XSL-RR of the new state
    inc = ((s[2] << 64 | s[3]) << 1 | 1) & M128
    st = (((s[0] << 64 | s[1]) + inc) * PCG_MULT + inc) & M128
    out = []
    for _ in range(2):
        st = (st * PCG_MULT + inc) & M128
        x, r = (st >> 64 ^ st) & M64, st >> 122
        out.append((x >> r | x << (64 - r)) & M64)
    # four 32-bit draws u, low half first, each mapped to (u p) >> 32
    u = np.array(out, dtype=np.uint64)
    m = np.array([u[0] & M32, u[0] >> 32, u[1] & M32, u[1] >> 32]) * np.uint64(p)
    h = (m >> 32).T.astype(np.int64)
    redo = ((m & M32) < (M32 + 1 - p) % p).any(0) | ~h.any(1) | (ts >> 32 != 0)
    for i in np.flatnonzero(redo):
        h[i] = random_covector(derive_rng(seed, key, ts[i]), p)
    return h
