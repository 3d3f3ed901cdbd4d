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
    return (float(v >> 11) + 0.5) * (1.0 / float(1 << 53))


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
    assert np.array_equal(streams.point_keys(np.array([3, 9]), 16, 2),
                          [streams.stream_key(s, 16) for s in (3, 3, 9, 9)])


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
        assert np.array_equal(
            np.reshape(streams.normals(key, shots, draws), want.shape),
            ndtri(want))

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
