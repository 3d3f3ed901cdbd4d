"""Counter-based random streams for reproducible shot-parallel sampling.

Every random variate consumed by the trajectory engine is addressed by
(seed, stream tag, shot index, draw index) through a SplitMix64-style hash,
so a shot's outcome never depends on batch boundaries or thread count.

Keys, shot ids and draw ids go through one SplitMix64 finalizer, in place
on uint64 arrays: array arithmetic wraps mod 2^64 without the warning numpy
scalar arithmetic gives, so no path leaves arrays, 0-d ones included.
"""

import numpy as np
from scipy.special import ndtri

_MASK = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A, _MIX_B = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_INV_2_53 = 1.0 / float(1 << 53)

# Stream tags, kept here so independent consumers never collide, and the
# seed each hangs off: the campaign seed, a trace seed (the seed of
# `simulate_points`: a campaign trace's, or sim-shots --seed) or a point seed.
TAG_PREP = 1              # point seed
TAG_PROJECT = 2           # point seed
TAG_READOUT_TRAIN = 3     # sim-shots --seed; campaign seed, + device index
TAG_READOUT = 4           # point seed, or a `train_classifier` seed
TAG_JUMP_BASE = 16        # point seed, + delay-segment index
TAG_POINT = 900           # trace seed, + init index, then the delay index
TAG_NOISE_BASE = 4096     # point seed, + noise-process index
TAG_PERSISTENT = 8192     # campaign seed, + process index (slow noise)
TAG_TRACE = 70000         # campaign seed, + trace index


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, in place on a uint64 array (wraps mod 2^64)."""
    z ^= z >> 30
    z *= _MIX_A
    z ^= z >> 27
    z *= _MIX_B
    z ^= z >> 31
    return z


def stream_key(seed, *tags):
    """Derive 64-bit stream keys from a seed and tags, each an int or an
    int array, taken mod 2^64. Arrays broadcast, element by element as
    scalar calls would, to a uint64 array of keys; all-scalar arguments give
    one ``np.uint64``."""
    h = np.zeros(1, dtype=np.uint64)
    for x in (seed, *tags):
        a = np.asarray(x)
        if a.dtype.kind not in "iu":   # ints past 64 bits, or of mixed sign
            a = np.asarray(x, object) & _MASK
        h = _mix(h ^ (np.atleast_1d(a).astype(np.uint64) + _GOLDEN))
    return h if any(np.ndim(x) for x in (seed, *tags)) else h[0]


def point_keys(seeds, tag, n_shots) -> np.ndarray:
    """Each point's (seed, tag) key, repeated over its ``n_shots`` shots."""
    return np.repeat(stream_key(seeds, tag), n_shots)


def uniforms(key, shot_ids, draw_ids):
    """Uniforms in (0, 1) addressed by (key, shot, draw).

    ``shot_ids`` is a scalar or (n,) int array; ``draw_ids`` a scalar or
    (m,) int array. Arrays broadcast to (n,) or (n, m). ``key`` is one
    stream key, or an (n,) uint64 array of per-shot keys, which needs an
    (n,) ``shot_ids`` array of the same length: shot i then draws from
    ``key[i]``, and row i equals the scalar-key call on
    ``(key[i], shot_ids[i])``. The value at a given (key, shot, draw)
    address is immutable across calls and batch layouts.
    """
    base = np.array(shot_ids, dtype=np.uint64)
    base *= _GOLDEN
    base += np.uint64(key)
    _mix(base)
    draws = np.array(draw_ids, dtype=np.uint64)
    draws *= _GOLDEN
    if draws.ndim and base.ndim:
        v = base[..., None] + draws
    else:
        v = np.add(base, draws, out=draws if draws.ndim else base)
    _mix(v)
    v >>= 11
    out = v.astype(np.float64)
    out += 0.5
    out *= _INV_2_53
    return out if out.ndim else out[()]


def normals(key, shot_ids, draw_ids):
    """Standard-normal variates via the inverse CDF of `uniforms`."""
    return ndtri(uniforms(key, shot_ids, draw_ids))
