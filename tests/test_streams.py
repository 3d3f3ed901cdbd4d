import math
import warnings

import numpy as np
import pytest
from scipy.special import ndtri

from ddqsim import streams


def test_deterministic_across_calls():
    key = streams.stream_key(1234, 7)
    ids = np.arange(50)
    a = streams.uniforms(key, ids, 3)
    b = streams.uniforms(key, ids, 3)
    assert np.array_equal(a, b)


def test_batch_split_invariance():
    # A shot's draw must not depend on how the batch is sliced.
    key = streams.stream_key(99, 2)
    whole = streams.uniforms(key, np.arange(100), 5)
    first = streams.uniforms(key, np.arange(0, 40), 5)
    second = streams.uniforms(key, np.arange(40, 100), 5)
    assert np.array_equal(whole, np.concatenate([first, second]))


def test_matrix_draws_match_scalar_draws():
    key = streams.stream_key(5)
    ids = np.arange(10)
    mat = streams.uniforms(key, ids, np.arange(8))
    for d in range(8):
        assert np.array_equal(mat[:, d], streams.uniforms(key, ids, d))


def test_distinct_keys_distinct_streams():
    ids = np.arange(1000)
    a = streams.uniforms(streams.stream_key(1, 1), ids, 0)
    b = streams.uniforms(streams.stream_key(1, 2), ids, 0)
    assert not np.array_equal(a, b)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.1


def test_uniform_moments_and_range():
    key = streams.stream_key(31337)
    u = streams.uniforms(key, np.arange(200_000), 0)
    assert np.all((u > 0) & (u < 1))
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1 / 12) < 0.003


def test_normal_moments():
    key = streams.stream_key(222)
    z = streams.normals(key, np.arange(200_000), 1)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_draw_index_advances_stream():
    key = streams.stream_key(77)
    u0 = streams.uniforms(key, np.arange(100), 0)
    u1 = streams.uniforms(key, np.arange(100), 1)
    assert not np.array_equal(u0, u1)


# --------------------------------------------------------------------------
# Golden values: a pure-Python SplitMix64 reference, bit for bit

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def ref_mix(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def ref_key(seed, *tags):
    h = ref_mix(((seed & MASK) + GOLDEN) & MASK)
    for t in tags:
        h = ref_mix(h ^ (((t & MASK) + GOLDEN) & MASK))
    return h


def ref_uniform(key, shot, draw):
    base = ref_mix((key + (shot & MASK) * GOLDEN) & MASK)
    v = ref_mix((base + (draw & MASK) * GOLDEN) & MASK)
    return unit(v)


def unit(v):
    # the top 53-bit value rounds to 1.0, and is kept below it
    return min((float(v >> 11) + 0.5) * (1.0 / float(1 << 53)),
               1.0 - 2.0 ** -53)


# Wichura's AS241 PPND16 (Appl. Statist. 37, 477, 1988) on math, with the
# published coefficients in their published order, lowest power first
PPND16 = {
    "central": ((3.3871328727963666080e0, 1.3314166789178437745e+2,
                 1.9715909503065514427e+3, 1.3731693765509461125e+4,
                 4.5921953931549871457e+4, 6.7265770927008700853e+4,
                 3.3430575583588128105e+4, 2.5090809287301226727e+3),
                (1.0, 4.2313330701600911252e+1, 6.8718700749205790830e+2,
                 5.3941960214247511077e+3, 2.1213794301586595867e+4,
                 3.9307895800092710610e+4, 2.8729085735721942674e+4,
                 5.2264952788528545610e+3)),
    "near": ((1.42343711074968357734e0, 4.63033784615654529590e0,
              5.76949722146069140550e0, 3.64784832476320460504e0,
              1.27045825245236838258e0, 2.41780725177450611770e-1,
              2.27238449892691845833e-2, 7.74545014278341407640e-4),
             (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0,
              6.89767334985100004550e-1, 1.48103976427480074590e-1,
              1.51986665636164571966e-2, 5.47593808499534494600e-4,
              1.05075007164441684324e-9)),
    "far": ((6.65790464350110377720e0, 5.46378491116411436990e0,
             1.78482653991729133580e0, 2.96560571828504891230e-1,
             2.65321895265761230930e-2, 1.24266094738807843860e-3,
             2.71155556874348757815e-5, 2.01033439929228813265e-7),
            (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1,
             1.48753612908506148525e-2, 7.86869131145613259100e-4,
             1.84631831751005468180e-5, 1.42151175831644588870e-7,
             2.04426310338993978564e-15)),
}


def ref_horner(coef, r):
    acc = coef[-1] * r
    for c in coef[-2:0:-1]:
        acc = (acc + c) * r
    return acc + coef[0]


def ref_ppnd16(p):
    """(quantile, branch) of probability p; the central branch is exact
    arithmetic NumPy repeats bit for bit, the tails go through math.log."""
    q = p - 0.5
    if abs(q) <= 0.425:
        num, den = PPND16["central"]
        r = 0.180625 - q * q
        return q * (ref_horner(num, r) / ref_horner(den, r)), "central"
    r = math.sqrt(-math.log(p if q < 0 else 1.0 - p))
    branch = "near" if r <= 5.0 else "far"
    num, den = PPND16[branch]
    r -= 1.6 if branch == "near" else 5.0
    val = ref_horner(num, r) / ref_horner(den, r)
    return (-val if q < 0 else val), branch


def assert_ppnd16(u, z):
    """z holds the PPND16 quantiles of u: bit for bit in the central
    branch, within 2 ulp in the tails (np.log and math.log may differ)."""
    for p, got in zip(np.ravel(u).tolist(), np.ravel(z).tolist()):
        want, branch = ref_ppnd16(p)
        if branch == "central":
            assert got == want, p
        else:
            assert abs(got - want) <= 2 * math.ulp(want), p


# seeds past 64 bits reduce mod 2^64, as a CLI --seed may be any int
EDGE = (0, -1, 1 << 63, MASK, 1 << 70, -(1 << 70))
# scalar, 0-d and array ids
SHOTS = (3, np.int64(3), np.array(3), np.arange(5),
         np.array([0, 1 << 63, MASK], dtype=np.uint64))
DRAWS = (0, np.array(MASK, dtype=np.uint64), np.arange(4), (1 << 63, MASK))


@pytest.fixture
def warnings_are_errors():
    # an overflow RuntimeWarning means a path left uint64 arrays for numpy
    # scalars
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


@pytest.mark.parametrize("draws", (0, np.arange(3), (2, 5)))
@pytest.mark.usefixtures("warnings_are_errors")
def test_per_shot_keys_equal_per_key_scalar_calls(draws):
    # one key per shot, as a trace-batched engine call passes them; the
    # keys repeat, as one point's key does over its shots
    keys = np.array([streams.stream_key(s, 16) for s in (7, 7, 8, 2**40)] +
                    [np.uint64(0), np.uint64(MASK)], dtype=np.uint64)
    shots = np.array([0, 1, 0, 9, 1 << 63, MASK], dtype=np.uint64)
    for fn in (streams.uniforms, streams.normals):
        got = fn(keys, shots, draws)
        assert got.shape == (len(keys), *np.shape(draws))
        for i, (key, shot) in enumerate(zip(keys, shots)):
            assert np.array_equal(got[i], fn(key, shot, draws))


@pytest.mark.usefixtures("warnings_are_errors")
def test_array_keys_equal_scalar_keys():
    # one call derives every point seed of a unit of simulation work
    seeds = [0, 7, -1, 1 << 63, MASK, 1 << 70, -(1 << 70)]
    tags = np.arange(3)
    for arg in (seeds, np.array(seeds[:3]),
                np.array([s & MASK for s in seeds], np.uint64)):
        got = streams.stream_key(np.reshape(arg, (-1, 1)), 900, tags)
        assert got.dtype == np.uint64 and got.shape == (len(arg), 3)
        for s, row in zip(arg, got):
            assert row.tolist() == [int(streams.stream_key(int(s), 900, t))
                                    for t in range(3)]
            assert row.tolist() == [ref_key(int(s), 900, t)
                                    for t in range(3)]
    one = streams.stream_key(5, np.array([4]))
    assert one.shape == (1,) and one[0] == streams.stream_key(5, 4)
    keys = streams.point_keys(np.array([3, 9]), 2, n_segments=1)
    assert np.array_equal(keys[16],
                          [streams.stream_key(s, 16) for s in (3, 3, 9, 9)])


@pytest.mark.usefixtures("warnings_are_errors")
def test_point_keys_equal_scalar_keys():
    # one call derives every stream key of a unit's points, tag by tag
    seeds = [0, 7, -1, 1 << 63, MASK, 1 << 70, -(1 << 70)]
    for arg in (seeds, np.array([s & MASK for s in seeds], np.uint64)):
        keys = streams.point_keys(arg, 3, n_segments=2, n_noise=3)
        assert sorted(keys) == [1, 2, 16, 17, 4096, 4097, 4098]
        for tag, col in keys.items():
            assert col.dtype == np.uint64 and col.flags.c_contiguous
            assert col.tolist() == [ref_key(s, tag) for s in seeds
                                    for _ in range(3)]
    assert sorted(streams.point_keys([5], 1)) == [1, 2]


@pytest.mark.usefixtures("warnings_are_errors")
class TestGolden:
    @pytest.mark.parametrize("seed", EDGE)
    @pytest.mark.parametrize("tags", [(), (0,), (-1, 1 << 63), (MASK, 5, 7)])
    def test_stream_key(self, seed, tags):
        key = streams.stream_key(seed, *tags)
        assert isinstance(key, np.uint64)
        assert int(key) == ref_key(seed, *tags)

    @pytest.mark.parametrize("shots", SHOTS)
    @pytest.mark.parametrize("draws", DRAWS)
    @pytest.mark.parametrize("seed", EDGE)
    def test_uniforms_and_normals(self, seed, shots, draws):
        key = streams.stream_key(seed, 16)
        u = streams.uniforms(key, shots, draws)
        shot_list = np.atleast_1d(np.asarray(shots, dtype=np.uint64))
        draw_list = np.atleast_1d(np.asarray(draws, dtype=np.uint64))
        want = np.array([[ref_uniform(int(key), int(s), int(d))
                          for d in draw_list] for s in shot_list])
        assert np.array_equal(np.reshape(u, want.shape), want)
        z = streams.normals(key, shots, draws)
        assert np.shape(z) == np.shape(u) and type(z) is type(u)
        assert_ppnd16(want, z)

    def test_normals_match_ndtri(self):
        # 2^20 draws: within 2e-15 of SciPy's inverse normal CDF
        u = streams.uniforms(streams.stream_key(5, 16), np.arange(1 << 20),
                             np.arange(2))
        want = ndtri(u)
        z = streams.normals(streams.stream_key(5, 16), np.arange(1 << 20),
                            np.arange(2))
        assert np.max(np.abs(z - want) / np.abs(want)) <= 2e-15

    def test_ppnd16_edges(self):
        # the extreme uniforms, the median, and both sides of the switches
        # |p - 1/2| = 0.425 and r = sqrt(-log p) = 5
        switch = math.exp(-25.0)
        p = [2.0 ** -54, 1.0 - 2.0 ** -53, 0.5, 1e-300]
        for x in (0.075, 0.925, switch, 1.0 - switch):
            p += [math.nextafter(x, 0.0), x, math.nextafter(x, 1.0)]
        assert {ref_ppnd16(x)[1] for x in p} == {"central", "near", "far"}
        z = np.array(p)
        streams._ppnd16(z)
        assert_ppnd16(p, z)
        want = ndtri(p)
        assert z[2] == want[2] == 0.0
        z, want = np.delete(z, 2), np.delete(want, 2)
        assert np.max(np.abs(z - want) / np.abs(want)) <= 2e-15

    def test_unit_stays_below_one(self):
        # the words of the lowest, a middle and the top 53-bit values
        words = [0, 1 << 11, (1 << 63) - 1, MASK - (1 << 11), MASK]
        u = streams._unit(np.array(words, dtype=np.uint64))
        assert u.tolist() == [unit(w) for w in words]
        assert u[0] == 2.0 ** -54 and u[-1] == 1.0 - 2.0 ** -53 > u[-2]
        z = u.copy()
        streams._ppnd16(z)
        assert np.all(np.isfinite(z)) and np.all(np.diff(z) > 0)

    def test_shapes(self):
        key = streams.stream_key(1)
        assert isinstance(streams.uniforms(key, 3, 0), np.float64)
        assert isinstance(streams.uniforms(key, np.array(3), np.array(0)),
                          np.float64)
        assert streams.uniforms(key, np.arange(4), 0).shape == (4,)
        assert streams.uniforms(key, 2, np.arange(3)).shape == (3,)
        assert streams.uniforms(key, np.arange(4), np.arange(3)).shape == \
            (4, 3)

    def test_values_pinned(self):
        # computed with the numpy-scalar implementation this one replaced
        assert int(streams.stream_key(0)) == 0xe220a8397b1dcdaf
        assert int(streams.stream_key(-1, 1 << 63)) == 0x5806bdf972901fb
        assert int(streams.stream_key(MASK, 0, MASK)) == 0x36dae2acdae48d53
        key = streams.stream_key(42, 16)
        assert int(key) == 0xb21262bb363a2c6f
        hexes = lambda a: [float(x).hex() for x in a]
        assert hexes(streams.uniforms(key, np.arange(3), 0)) == [
            "0x1.985448583dd14p-1", "0x1.657d635516221p-2",
            "0x1.4c97386fdda88p-1"]
        assert hexes(streams.uniforms(key, 1 << 63, np.arange(2))) == [
            "0x1.f41236bf83f04p-1", "0x1.f879386272fbdp-2"]
        assert hexes(streams.normals(key, np.arange(2), 5)) == [
            "-0x1.b3635bc88052ap-5", "-0x1.3aebcc18df1d6p-1"]
