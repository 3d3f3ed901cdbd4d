"""Counter-based random streams for reproducible shot-parallel sampling.

Every random variate consumed by the trajectory engine is addressed by
(seed, stream tag, shot index, draw index) through a SplitMix64-style hash,
so a shot's outcome never depends on batch boundaries or thread count.

Keys are hashed on Python ints; shot and draw ids are hashed in place on one
uint64 array per call. Integer array arithmetic wraps mod 2^64 without a
warning (only numpy scalar arithmetic warns), so every array path keeps its
operands as arrays, 0-d ones included.
"""

import numpy as np
from scipy.special import ndtri

_MASK = (1 << 64) - 1
_GOLD, _A, _B = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_GOLDEN, _MIX_A, _MIX_B = np.uint64(_GOLD), np.uint64(_A), np.uint64(_B)
_INV_2_53 = 1.0 / float(1 << 53)

# Stream tags used by the simulation engine. Kept here so independent
# consumers never collide.
TAG_PREP = 1
TAG_PROJECT = 2
TAG_READOUT_TRAIN = 3
TAG_READOUT = 4
TAG_JUMP_BASE = 16        # + delay-segment index
TAG_NOISE_BASE = 4096     # + noise-process index
TAG_PERSISTENT = 8192     # + process index (campaign slow-noise states)


def _mix_int(z: int) -> int:
    """SplitMix64 finalizer on a Python int in [0, 2^64)."""
    z = ((z ^ (z >> 30)) * _A) & _MASK
    z = ((z ^ (z >> 27)) * _B) & _MASK
    return z ^ (z >> 31)


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, in place on a uint64 array (wraps mod 2^64)."""
    z ^= z >> 30
    z *= _MIX_A
    z ^= z >> 27
    z *= _MIX_B
    z ^= z >> 31
    return z


def stream_key(seed, *tags):
    """Derive a 64-bit stream key (``np.uint64``) from a seed and int tags."""
    h = _mix_int(((int(seed) & _MASK) + _GOLD) & _MASK)
    for t in tags:
        h = _mix_int(h ^ (((int(t) & _MASK) + _GOLD) & _MASK))
    return np.uint64(h)


def point_keys(seeds, tag, n_shots) -> np.ndarray:
    """Per-shot stream keys: the (seed, tag) key of each point, repeated
    over its ``n_shots`` shots."""
    return np.repeat(np.array([stream_key(s, tag) for s in seeds],
                              dtype=np.uint64), n_shots)


def _shot_base(key, shot_ids):
    z = np.array(shot_ids, dtype=np.uint64)
    z *= _GOLDEN
    z += np.uint64(key)
    return _mix(z)


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
    base = _shot_base(key, shot_ids)
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
