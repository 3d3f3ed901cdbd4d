"""Counter-based random streams for reproducible shot-parallel sampling.

Every random variate consumed by the trajectory engine is addressed by
(seed, stream tag, shot index, draw index) through a SplitMix64-style hash,
so a shot's outcome never depends on batch boundaries or thread count.

Keys, shot ids and draw ids go through one SplitMix64 finalizer, in place
on uint64 arrays: array arithmetic wraps mod 2^64 without the warning numpy
scalar arithmetic gives, so no path leaves arrays, 0-d ones included.

Normal variates are the inverse normal CDF of the uniforms by Wichura's
algorithm AS241 (PPND16, Appl. Statist. 37, 477, 1988; relative error
about 1e-16), in NumPy alone.
"""

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A, _MIX_B = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_INV_2_53 = 1.0 / float(1 << 53)
_TOP = 1.0 - _INV_2_53    # the largest float64 below 1

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


def point_keys(seeds, n_shots, n_segments=0, n_noise=0) -> dict:
    """Every engine stream key of a group of points, from one (tags x
    points) `stream_key` call: ``{tag: keys}``, where ``keys`` holds each
    point's (seed, tag) key repeated over its ``n_shots`` shots. The tags
    are `TAG_PREP`, `TAG_PROJECT`, ``n_segments`` jump tags and ``n_noise``
    noise tags."""
    tags = (TAG_PREP, TAG_PROJECT,
            *range(TAG_JUMP_BASE, TAG_JUMP_BASE + n_segments),
            *range(TAG_NOISE_BASE, TAG_NOISE_BASE + n_noise))
    keys = stream_key(seeds, np.array(tags)[:, None])
    return dict(zip(tags, np.repeat(keys, n_shots, axis=1)))


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
        v = np.empty((base.size, draws.size), dtype=np.uint64)
        if draws.size < 8:      # a broadcast over a short row is slow
            for j, d in enumerate(draws):
                np.add(base, d, out=v[:, j])
        else:
            np.add(base[:, None], draws, out=v)
    else:
        v = np.add(base, draws, out=draws if draws.ndim else base)
    out = _unit(_mix(v))
    return out if out.ndim else out[()]


def _unit(words: np.ndarray) -> np.ndarray:
    """Floats in (0, 1) from the top 53 bits of uint64 ``words`` (shifted
    in place): (v + 1/2) 2^-53, where the top v, which rounds to 1, is
    `_TOP`."""
    words >>= 11
    out = words.astype(np.float64)
    out += 0.5
    out *= _INV_2_53
    return np.minimum(out, _TOP, out=out)


# PPND16's rational functions: (numerator, denominator) coefficient pairs,
# highest power first. The central one is in r = 0.180625 - q^2 with
# q = p - 1/2; the tail ones in r - 1.6 and r - 5, r = sqrt(-log(min(p,
# 1 - p))), the far tail taking r > 5 (p below about 1.4e-11).
_CENTRAL = ((2.5090809287301226727e+3, 5.2264952788528545610e+3),
            (3.3430575583588128105e+4, 2.8729085735721942674e+4),
            (6.7265770927008700853e+4, 3.9307895800092710610e+4),
            (4.5921953931549871457e+4, 2.1213794301586595867e+4),
            (1.3731693765509461125e+4, 5.3941960214247511077e+3),
            (1.9715909503065514427e+3, 6.8718700749205790830e+2),
            (1.3314166789178437745e+2, 4.2313330701600911252e+1),
            (3.3871328727963666080e+0, 1.0))
_NEAR = ((7.74545014278341407640e-4, 1.05075007164441684324e-9),
         (2.27238449892691845833e-2, 5.47593808499534494600e-4),
         (2.41780725177450611770e-1, 1.51986665636164571966e-2),
         (1.27045825245236838258e+0, 1.48103976427480074590e-1),
         (3.64784832476320460504e+0, 6.89767334985100004550e-1),
         (5.76949722146069140550e+0, 1.67638483018380384940e+0),
         (4.63033784615654529590e+0, 2.05319162663775882187e+0),
         (1.42343711074968357734e+0, 1.0))
_FAR = ((2.01033439929228813265e-7, 2.04426310338993978564e-15),
        (2.71155556874348757815e-5, 1.42151175831644588870e-7),
        (1.24266094738807843860e-3, 1.84631831751005468180e-5),
        (2.65321895265761230930e-2, 7.86869131145613259100e-4),
        (2.96560571828504891230e-1, 1.48753612908506148525e-2),
        (1.78482653991729133580e+0, 1.36929880922735805310e-1),
        (5.46378491116411436990e+0, 5.99832206555887937690e-1),
        (6.65790464350110377720e+0, 1.0))
_BLOCK = 1 << 14  # values per in-place PPND16 pass, so temporaries stay cached


def _rational(coef, r):
    """Numerator and denominator of a PPND16 rational function at the
    array r, each by Horner's rule."""
    (a, b), *mid, (a0, b0) = coef
    num, den = a * r, b * r
    for a, b in mid:
        num += a
        num *= r
        den += b
        den *= r
    num += a0
    den += b0
    return num, den


def _ppnd16(p: np.ndarray) -> None:
    """Overwrite the probabilities ``p`` (a 1-D float64 array) with their
    standard-normal quantiles: the central function where |p - 1/2| <=
    0.425, then the tail ones at the indices of the rest."""
    q = p - 0.5
    tails = np.flatnonzero(np.abs(q) > 0.425)
    pt = p[tails]
    r = q * q
    np.subtract(0.180625, r, out=r)
    num, den = _rational(_CENTRAL, r)
    np.divide(num, den, out=p)
    p *= q
    if not tails.size:
        return
    np.minimum(pt, 1.0 - pt, out=pt)
    np.log(pt, out=pt)
    np.negative(pt, out=pt)
    np.sqrt(pt, out=pt)
    num, den = _rational(_NEAR, pt - 1.6)
    far = np.flatnonzero(pt > 5.0)
    if far.size:
        num[far], den[far] = _rational(_FAR, pt[far] - 5.0)
    np.divide(num, den, out=pt)
    p[tails] = np.copysign(pt, q[tails], out=pt)


def normals(key, shot_ids, draw_ids):
    """Standard-normal variates via the inverse CDF (`_ppnd16`) of
    `uniforms`, in place on blocks of ``_BLOCK`` values."""
    u = uniforms(key, shot_ids, draw_ids)
    flat = np.reshape(u, -1)        # a view of an array, a copy of a scalar
    for lo in range(0, flat.size, _BLOCK):
        _ppnd16(flat[lo:lo + _BLOCK])
    return flat.reshape(np.shape(u)) if np.ndim(u) else flat[0]
