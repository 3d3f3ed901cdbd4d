import hashlib
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.linalg import expm

import ddqsim
from ddqsim.device import DimonLevel, LEVEL_ORDER, load_device
from ddqsim import streams
from ddqsim.dynamics import (IDX_00, IDX_01, IDX_10, N_LEVELS, PulseSequence,
                             _expm, _one_over_f_cov, _segment_grid,
                             _segment_table, _telegraph_integrals,
                             build_rate_matrix, propagate_exact,
                             run_sequence_batch, run_trace_batch)
from ddqsim.errors import SequenceError
from ddqsim.metrology import fit_ramsey
from ddqsim.noise import (NoiseProcess, one_over_f_from_normals,
                          telegraph_from_uniforms)

IDX = {lv.label: i for i, lv in enumerate(LEVEL_ORDER)}


@pytest.fixture(scope="module")
def q1():
    return load_device("q1")


@pytest.fixture(scope="module")
def q2():
    return load_device("q2")


def lossless(params):
    """Params with relaxation switched off (pure-dephasing regime)."""
    return params.with_(T1_D_us=1e12, T1_Q_us=1e12, n_th_D=0.0, n_th_Q=0.0)


class TestRateMatrix:
    def test_q2_relaxation_rate(self, q2):
        rates = build_rate_matrix(q2)
        assert rates[IDX["00"], IDX["01"]] == pytest.approx(1 / 55.4)
        assert rates[IDX["00"], IDX["10"]] == pytest.approx(1 / 81.2)

    def test_no_direct_rail_swap(self, q1):
        rates = build_rate_matrix(q1)
        assert rates[IDX["01"], IDX["10"]] == 0.0
        assert rates[IDX["10"], IDX["01"]] == 0.0

    def test_columns_sum_to_zero(self, q1):
        rates = build_rate_matrix(q1)
        assert np.allclose(rates.sum(axis=0), 0.0, atol=1e-15)

    def test_no_thermal_no_upward(self, q1):
        rates = build_rate_matrix(q1.with_(n_th_D=0.0, n_th_Q=0.0))
        lowering_ok = np.triu(rates, k=1)  # states ordered so ups are lower
        for j, lv_from in enumerate(LEVEL_ORDER):
            for i, lv_to in enumerate(LEVEL_ORDER):
                if lv_to.m + lv_to.n > lv_from.m + lv_from.n:
                    assert rates[i, j] == 0.0

    def test_bosonic_enhancement(self, q1):
        rates = build_rate_matrix(q1)
        assert rates[IDX["01"], IDX["02"]] == pytest.approx(2 / q1.T1_Q_us)
        assert rates[IDX["10"], IDX["20"]] == pytest.approx(2 / q1.T1_D_us)

    def test_thermal_ladder_rates(self, q1):
        rates = build_rate_matrix(q1)
        assert rates[IDX["01"], IDX["00"]] == pytest.approx(
            q1.n_th_Q / q1.T1_Q_us)
        assert rates[IDX["02"], IDX["01"]] == pytest.approx(
            2 * q1.n_th_Q / q1.T1_Q_us)
        assert rates[IDX["11"], IDX["10"]] == pytest.approx(
            q1.n_th_Q / q1.T1_Q_us)


def batch_digest(device):
    """sha256 of the levels and phases of two batches on a builtin device."""
    h = hashlib.sha256()
    for seq in (PulseSequence("bitflip", "10", 80.0),
                PulseSequence("ramsey", "+", 40.0)):
        b = run_sequence_batch(load_device(device), seq, seed=9, n_shots=400)
        h.update(b.levels.tobytes())
        h.update(b.phase_rad.tobytes())
    return h.hexdigest()


class TestRateTableCache:
    def test_distinct_params_get_distinct_tables(self, q1):
        table = _segment_table(q1, 50.0)
        assert _segment_table(q1, 50.0) is table
        assert not np.array_equal(table,
                                  _segment_table(q1.with_(n_th_D=0.0), 50.0))
        assert not np.array_equal(table, _segment_table(q1, 60.0))

    def test_cached_tables_are_read_only(self, q1):
        with pytest.raises(ValueError):
            _segment_table(q1, 50.0)[0, 0] = 1.0

    def test_shared_tables_match_a_fresh_process(self):
        got = [batch_digest(d) for d in ("q1", "q2", "q1")]
        src = os.path.dirname(os.path.dirname(ddqsim.__file__))
        tests = os.path.dirname(__file__)
        fresh = {}
        for device in ("q1", "q2"):
            out = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from test_dynamics import batch_digest; "
                 "print(batch_digest(sys.argv[1]))", device],
                env={**os.environ, "PYTHONPATH": os.pathsep.join([src, tests])},
                capture_output=True, text=True, timeout=300, check=True)
            fresh[device] = out.stdout.split()[-1]
        assert got == [fresh["q1"], fresh["q2"], fresh["q1"]]


class TestSegmentTable:
    """The jump sampler's outcome tables against the exact propagator."""

    @pytest.mark.parametrize("device", ["q1", "q2", "q3"])
    def test_rows_reproduce_the_propagator(self, device):
        params = load_device(device)
        rates = build_rate_matrix(params)
        for t in (0.0, 0.5, 20.0, 137.5, 400.0, 5000.0):
            table = _segment_table(params, t)
            assert table.shape == (N_LEVELS, N_LEVELS + 1)
            assert np.all(np.diff(table, axis=1) >= 0.0)
            assert np.all(table[:, -1] == 1.0)
            mass = np.diff(table, axis=1, prepend=0.0)
            for s in range(N_LEVELS):
                assert table[s, 0] == math.exp(rates[s, s] * t)
                ends = mass[s, 1:].copy()
                ends[s] += mass[s, 0]
                np.testing.assert_allclose(
                    ends, propagate_exact(rates, np.eye(N_LEVELS)[s], t),
                    rtol=0.0, atol=1e-12)

    def test_level_without_exit_and_empty_segment_never_jump(self, q1):
        cold = q1.with_(n_th_D=0.0, n_th_Q=0.0)
        assert np.all(_segment_table(cold, 300.0)[IDX_00] == 1.0)
        assert np.all(_segment_table(q1, 0.0) == 1.0)
        ground = run_sequence_batch(cold, PulseSequence("bitflip", "00",
                                                        1000.0),
                                    seed=1, n_shots=5000)
        assert not ground.jumped.any()
        assert np.all(ground.levels == IDX_00)
        batch = run_trace_batch(q1, [PulseSequence("bitflip", "11", 0.0),
                                     PulseSequence("bitflip", "11", 300.0)],
                                seeds=[2, 3], n_shots=5000)
        assert not batch.jumped[:5000].any()
        assert np.all(batch.levels[:5000] == IDX["11"])
        assert batch.jumped[5000:].any()
        echo = run_sequence_batch(q1, PulseSequence("hahn_echo", "+", 0.0),
                                  seed=4, n_shots=5000)
        assert not echo.jumped.any()

    @pytest.mark.parametrize("init, t", [("01", 90.0), ("11", 40.0),
                                         ("20", 200.0)])
    def test_jumped_fraction_is_the_exit_probability(self, q1, init, t):
        n = 50_000
        batch = run_sequence_batch(q1, PulseSequence("bitflip", init, t),
                                   seed=17, n_shots=n)
        lam = -build_rate_matrix(q1)[IDX[init], IDX[init]]
        p = 1.0 - math.exp(-lam * t)
        assert abs(batch.jumped.mean() - p) <= 4 * math.sqrt(p * (1 - p) / n)

    @pytest.mark.parametrize("t", [60.0, 300.0])
    def test_noiseless_echo_matches_swapped_propagation(self, q1, t):
        # the echo's two segments around the pair swap; projection moves
        # shots only within the pair, so |00> and leakage keep their counts
        n = 50_000
        rates = build_rate_matrix(q1)
        half = expm(rates * (0.5 * t))
        p = np.zeros(N_LEVELS)
        p[[IDX_10, IDX_01]] = 0.5
        p = half @ p
        p[[IDX_10, IDX_01]] = p[[IDX_01, IDX_10]]
        p = half @ p
        batch = run_sequence_batch(q1, PulseSequence("hahn_echo", "+", t),
                                   seed=23, n_shots=n)
        leaked = ~np.isin(batch.levels, [IDX_00, IDX_01, IDX_10])
        for got, want in ((np.mean(batch.levels == IDX_00), p[IDX_00]),
                          (leaked.mean(), 1.0 - p[[IDX_00, IDX_01,
                                                   IDX_10]].sum())):
            assert abs(got - want) <= 4 * math.sqrt(want * (1 - want) / n)


class TestPropagateExact:
    def test_zero_time_identity(self, q1):
        rates = build_rate_matrix(q1)
        p0 = np.array([0.1, 0.2, 0.3, 0.1, 0.2, 0.1])
        assert np.allclose(propagate_exact(rates, p0, 0.0), p0, atol=1e-12)

    def test_single_exponential_decay(self, q1):
        rates = build_rate_matrix(q1.with_(n_th_D=0.0, n_th_Q=0.0))
        p = propagate_exact(rates, [0, 1, 0, 0, 0, 0], q1.T1_Q_us)
        assert p[IDX["01"]] == pytest.approx(math.exp(-1), rel=1e-9)

    def test_no_path_to_other_rail(self, q1):
        rates = build_rate_matrix(q1.with_(n_th_D=0.0, n_th_Q=0.0))
        for t in (1.0, 50.0, 400.0):
            p = propagate_exact(rates, [0, 1, 0, 0, 0, 0], t)
            assert p[IDX["10"]] == 0.0

    def test_probability_conserved(self, q1):
        rates = build_rate_matrix(q1)
        p = propagate_exact(rates, [0, 0, 0, 1, 0, 0], 123.0)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(p >= 0)

    def test_bad_inputs(self, q1):
        rates = build_rate_matrix(q1)
        with pytest.raises(ValueError):
            propagate_exact(rates, [0.5, 0.2, 0, 0, 0, 0], 1.0)
        with pytest.raises(ValueError):
            propagate_exact(rates, [-0.1, 1.1, 0, 0, 0, 0], 1.0)
        with pytest.raises(ValueError):
            propagate_exact(rates, [1, 0, 0, 0, 0, 0], -1.0)


class TestExpmOracle:
    def test_zero_matrix(self):
        zero = np.zeros((6, 6))
        assert np.allclose(_expm(zero), expm(zero), rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("norm", [1e-3, 1e-2, 0.1, 1.0, 5.0, 10.0,
                                      1e2, 1e3, 1e4])
    def test_random_rate_matrices(self, norm):
        # generators of random six-level jump processes, scaled so that
        # the 1-norm of t R is ``norm``
        rng = np.random.default_rng(int(norm * 1e3))
        for _ in range(20):
            rates = rng.exponential(size=(6, 6)) * (rng.random((6, 6)) < 0.6)
            np.fill_diagonal(rates, 0.0)
            np.fill_diagonal(rates, -rates.sum(axis=0))
            tr = rates * (norm / np.abs(rates).sum(axis=0).max())
            assert np.allclose(_expm(tr), expm(tr), rtol=0.0, atol=1e-11)

    @pytest.mark.parametrize("angle", [0.5, 10.0, 326.0])
    def test_rotation_generator(self, angle):
        # exp of [[0, -w], [w, 0]] is a rotation by w; 10 and 326 sit just
        # under 2 and 64 times theta_13, so one squaring fewer leaves the
        # approximant a norm near 2 theta_13, where it is off by 1e-9
        gen = np.array([[0.0, -angle], [angle, 0.0]])
        rot = np.array([[math.cos(angle), -math.sin(angle)],
                        [math.sin(angle), math.cos(angle)]])
        assert np.allclose(_expm(gen), rot, rtol=0.0, atol=1e-13)
        assert np.allclose(_expm(gen), expm(gen), rtol=0.0, atol=1e-12)

    def test_q1_rate_matrix(self, q1):
        rates = build_rate_matrix(q1)
        p0 = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
        for t in (0.0, 1e-3, 0.5, 20.0, 400.0, 1e4, 1e6):
            assert np.allclose(_expm(rates * t), expm(rates * t),
                               rtol=0.0, atol=1e-12)
            assert np.allclose(propagate_exact(rates, p0, t),
                               expm(rates * t) @ p0, rtol=0.0, atol=1e-12)


class TestPulseSequence:
    def test_bitflip_shape(self):
        seq = PulseSequence("bitflip", "01", 25.0)
        assert seq.prepare == "01"
        assert seq.project_rad is None
        assert seq.segments_us == (25.0,)

    def test_hahn_echo_midpoint(self):
        seq = PulseSequence("hahn_echo", "+", 40.0)
        assert seq.segments_us == (20.0, 20.0)
        assert seq.project_rad == 0.0

    def test_ramsey_projection_phase(self):
        seq = PulseSequence("ramsey", "+", 20.0, 75.0)
        assert seq.segments_us == (20.0,)
        assert seq.project_rad == pytest.approx(2 * math.pi * 75e3 * 20e-6)

    @pytest.mark.parametrize("kind, prepare, expect", [
        ("bitflip", "10", None), ("phys_t1", "01", None),
        ("hahn_echo", "+", 0.0), ("phys_echo", "+D", 0.0),
        ("ramsey", "+", 2.0 * math.pi * 40.0 * 1e-3 * 30.0),
        ("phys_ramsey", "+Q", 2.0 * math.pi * 40.0 * 1e-3 * 30.0)])
    def test_projection_phase_of_each_kind(self, kind, prepare, expect):
        # level kinds never project; echoes project at zero phase whatever
        # the detuning; Ramsey kinds advance at the virtual detuning
        seq = PulseSequence(kind, prepare, 30.0, 40.0)
        assert seq.project_rad == expect

    def test_malformed_sequences_rejected(self):
        with pytest.raises(SequenceError, match="negative delay"):
            PulseSequence("bitflip", "01", -1.0)
        with pytest.raises(SequenceError):
            PulseSequence("bitflip", "33", 1.0)
        with pytest.raises(SequenceError, match="unknown experiment kind"):
            PulseSequence("cpmg", "+", 10.0)
        for kind, prepare in (("ramsey", "10"), ("phys_echo", "+"),
                              ("bitflip", "+"), ("phys_t1", "+D"),
                              ("hahn_echo", "+Q"), ("phys_ramsey", "01")):
            with pytest.raises(SequenceError, match="cannot prepare"):
                PulseSequence(kind, prepare, 10.0)
        for delay, detuning in ((math.nan, 75.0), (math.inf, 75.0),
                                (10.0, math.nan), (10.0, -math.inf)):
            with pytest.raises(SequenceError, match="finite"):
                PulseSequence("ramsey", "+", delay, detuning)


class TestEngine:
    def test_determinism_and_batch_invariance(self, q1):
        seq = PulseSequence("bitflip", "01", 30.0)
        whole = run_sequence_batch(q1, seq, seed=5, n_shots=500)
        again = run_sequence_batch(q1, seq, seed=5, n_shots=500)
        assert np.array_equal(whole.levels, again.levels)
        first = run_sequence_batch(q1, seq, seed=5, n_shots=200)
        for name in ("phase_rad", "levels", "jumped"):
            assert np.array_equal(getattr(whole, name)[:200],
                                  getattr(first, name)), name

    def test_noiseless_bitflip_stays_put(self, q1):
        params = lossless(q1)
        seq = PulseSequence("bitflip", "01", 100.0)
        batch = run_sequence_batch(params, seq, seed=3, n_shots=200)
        assert np.all(batch.levels == IDX_01)
        assert not batch.jumped.any()

    def test_never_rail_swaps_in_one_jump(self, q1):
        # with no thermal excitation |01> can only reach |00>
        params = q1.with_(n_th_D=0.0, n_th_Q=0.0)
        seq = PulseSequence("bitflip", "01", 500.0)
        batch = run_sequence_batch(params, seq, seed=11, n_shots=20_000)
        assert not np.any(batch.levels == IDX_10)
        assert set(np.unique(batch.levels)) <= {IDX_00, IDX_01}

    def test_oracle_equivalence_q1(self, q1):
        rates = build_rate_matrix(q1)
        n = 50_000
        for init, p0 in (("01", [0, 1, 0, 0, 0, 0]),
                         ("11", [0, 0, 0, 1, 0, 0])):
            for t in (20.0, 90.0):
                seq = PulseSequence("bitflip", init, t)
                batch = run_sequence_batch(q1, seq, seed=101, n_shots=n)
                emp = batch.level_fractions()
                exact = propagate_exact(rates, p0, t)
                tv = 0.5 * np.abs(emp - exact).sum()
                assert tv < 0.01
                sigma = np.sqrt(exact * (1 - exact) / n)
                assert np.all(np.abs(emp - exact) <= 4 * sigma + 1e-4)

    def test_superposition_prepares_half_half(self, q1):
        params = lossless(q1)
        seq = PulseSequence("ramsey", "+", 0.0)
        batch = run_sequence_batch(params, seq, seed=4, n_shots=40_000)
        # phase 0 at zero delay: projection restores the plus pole exactly
        assert np.all(batch.levels == IDX_10)

    def test_noiseless_ramsey_oscillation(self, q1):
        params = lossless(q1)
        for t in (5.0, 10.0, 17.0):
            seq = PulseSequence("ramsey", "+", t, 75.0)
            batch = run_sequence_batch(params, seq, seed=29, n_shots=30_000)
            p0l = np.mean(batch.levels == IDX_10)
            expect = 0.5 * (1 + math.cos(2 * math.pi * 0.075 * t))
            assert p0l == pytest.approx(expect, abs=0.01)

    def test_projection_at_pi_lands_on_minus_pole(self, q1):
        params = lossless(q1)
        # 50 kHz over 10 us is half a turn
        seq = PulseSequence("ramsey", "+", 10.0, 50.0)
        assert seq.project_rad == pytest.approx(math.pi)
        batch = run_sequence_batch(params, seq, seed=2, n_shots=5000)
        assert np.all(batch.levels == IDX_01)

    def test_common_noise_exact_cancellation(self, q1):
        proc = NoiseProcess("white", 1e8, coupling="common")
        seq = PulseSequence("ramsey", "+", 80.0)
        batch = run_sequence_batch(lossless(q1), seq, (proc,), seed=8,
                                   n_shots=2000)
        assert np.all(batch.phase_rad == 0.0)

    def test_unbalanced_common_noise_dephases(self, q1):
        proc = NoiseProcess("white", 1e5, coupling="common", w_D=1.0, w_Q=1.3)
        seq = PulseSequence("ramsey", "+", 80.0)
        batch = run_sequence_batch(lossless(q1), seq, (proc,), seed=8,
                                   n_shots=2000)
        assert np.any(batch.phase_rad != 0.0)

    def test_echo_cancels_quasistatic_noise_exactly(self, q1):
        proc = NoiseProcess("one_over_f", 1e6, coupling="differential_D",
                            quasistatic=True)
        seq = PulseSequence("hahn_echo", "+", 120.0)
        batch = run_sequence_batch(lossless(q1), seq, (proc,), seed=13,
                                   n_shots=3000)
        assert np.all(batch.phase_rad == 0.0)
        assert np.all(batch.levels == IDX_10)

    def test_ramsey_does_not_cancel_quasistatic_noise(self, q1):
        proc = NoiseProcess("one_over_f", 1e6, coupling="differential_D",
                            quasistatic=True)
        seq = PulseSequence("ramsey", "+", 120.0, 0.0)
        batch = run_sequence_batch(lossless(q1), seq, (proc,), seed=13,
                                   n_shots=3000)
        assert np.mean(batch.phase_rad != 0.0) > 0.99

    def test_static_offset_shifts_ramsey_frequency(self, q1):
        params = lossless(q1)
        t = 10.0
        seq = PulseSequence("ramsey", "+", t, 0.0)
        batch = run_sequence_batch(params, seq, seed=6, n_shots=20_000,
                                   static_offsets_hz=(0.0, 40e3))
        p0l = np.mean(batch.levels == IDX_10)
        expect = 0.5 * (1 + math.cos(2 * math.pi * 40e3 * t * 1e-6))
        assert p0l == pytest.approx(expect, abs=0.012)

    def test_white_differential_dephasing_rate(self, q1):
        # Gaussian phase accumulation: Gamma = pi^2 S_f (per second)
        s_f = 3377.4          # rate chosen so T2R = 30 us
        proc = NoiseProcess("white", s_f, coupling="differential_Q")
        params = lossless(q1)
        delays = np.arange(2.0, 92.0, 3.0)
        p0l = []
        for j, t in enumerate(delays):
            seq = PulseSequence("ramsey", "+", t, 75.0)
            batch = run_sequence_batch(params, seq, (proc,), seed=300 + j,
                                       n_shots=3000)
            p0l.append(np.mean(batch.levels == IDX_10))
        fit = fit_ramsey(delays, np.array(p0l), detuning_hint_khz=75.0)
        rate_fit = fit.params["rate_per_us"] * 1e6
        assert rate_fit == pytest.approx(math.pi**2 * s_f, rel=0.10)

    def test_phase_accumulation_variance(self, q1):
        # <phi^2> = (2 pi)^2 (S_f / 2) t for a single differential process;
        # the echo's two halves add independent phases of half the variance
        s_f = 2000.0
        t = 50.0
        proc = NoiseProcess("white", s_f, coupling="differential_D")
        expect = (2 * math.pi) ** 2 * 0.5 * s_f * t * 1e-6
        for seq in (PulseSequence("ramsey", "+", t),
                    PulseSequence("hahn_echo", "+", t)):
            batch = run_sequence_batch(lossless(q1), seq, (proc,), seed=44,
                                       n_shots=50_000)
            assert batch.phase_rad.var() == pytest.approx(expect, rel=0.05)

    def test_white_phase_does_not_depend_on_noise_step(self, q1):
        # telegraph phases are exact in time, so they do not depend on it
        # either
        procs = (NoiseProcess("white", 2000.0, coupling="differential_Q"),
                 NoiseProcess("telegraph", 20e3, coupling="differential_D",
                              switching_rate_hz=5e4))
        for proc in procs:
            for seq in (PulseSequence("ramsey", "+", 33.0),
                        PulseSequence("hahn_echo", "+", 41.0)):
                coarse, fine = (run_sequence_batch(q1, seq, (proc,), seed=17,
                                                   n_shots=500,
                                                   noise_dt_us=dt)
                                for dt in (0.5, 0.37))
                assert np.any(coarse.phase_rad != 0.0)
                assert np.array_equal(coarse.phase_rad, fine.phase_rad)
                assert np.array_equal(coarse.levels, fine.levels)


def telegraph_variance(a_hz, rate_hz, t_s):
    """Var of the integral over t_s of a symmetric +-a_hz telegraph."""
    return a_hz ** 2 * (t_s / rate_hz
                        - (1.0 - math.exp(-2.0 * rate_hz * t_s))
                        / (2.0 * rate_hz ** 2))


class TestColoredNoise:
    """1/f and telegraph segment phases, drawn without sample paths."""

    COLORED = (NoiseProcess("one_over_f", 2e6, coupling="differential_Q"),
               NoiseProcess("telegraph", 20e3, coupling="differential_D",
                            switching_rate_hz=2e4),
               NoiseProcess("telegraph", 8e3, coupling="differential_Q",
                            switching_rate_hz=3e7))

    @pytest.mark.parametrize("n_seg, seg_us, dt_us", [
        (1, 33.0, 0.5), (1, 33.0, 0.37), (1, 33.5, 0.5),
        (2, 20.0, 0.5), (2, 20.0, 0.37), (2, 20.5, 0.5)])
    def test_one_over_f_covariance_matches_grid_path(self, n_seg, seg_us,
                                                     dt_us):
        # The exact covariance of the grid path's segment integrals: push
        # every unit spectrum through the shaper and sum per segment.
        # 33.5 and 20.5 us at 0.5 us give odd sample counts (67, 41).
        a = 2e6
        count, step_s = _segment_grid(seg_us, dt_us)
        n = count * n_seg
        nf = n // 2 + 1
        eye, zero = np.eye(nf), np.zeros((nf, nf))
        rows = [one_over_f_from_normals(za, zb, n, step_s, a)
                .reshape(nf, n_seg, count).sum(axis=2) * step_s
                for za, zb in ((eye, zero), (zero, eye))]
        lin = np.concatenate(rows)
        exact = lin.T @ lin
        cov = _one_over_f_cov(a, n_seg, count, step_s)
        # Ramsey's exact covariance is zero up to rounding of the FFT
        scale = a * (n_seg * seg_us * 1e-6) ** 2
        np.testing.assert_allclose(cov, exact, rtol=1e-9, atol=1e-15 * scale)

    def test_one_over_f_never_dephases_ramsey(self, q1):
        """Kept defect, a FOUND line in CHANGES.md: the 1/f spectrum grid
        spans exactly the one Ramsey segment and its DC bin is zeroed, so
        the segment integral is zero and 1/f noise never dephases a Ramsey
        sequence; the echo's cutoff moves with its delay. The path-free
        phases keep that distribution until a fixed cutoff replaces it."""
        proc = NoiseProcess("one_over_f", 2e6, coupling="differential_Q")
        ramsey = run_sequence_batch(lossless(q1),
                                    PulseSequence("ramsey", "+", 40.0),
                                    (proc,), seed=51, n_shots=2000)
        assert ramsey.phase_rad.var() < 1e-20
        # the echo phase, -I0 + I1, has variance (2 pi)^2 (S00 + S11 - 2 S01)
        t = 400.0
        echo = run_sequence_batch(lossless(q1),
                                  PulseSequence("hahn_echo", "+", t),
                                  (proc,), seed=52, n_shots=20_000)
        cov = _one_over_f_cov(2e6, 2, *_segment_grid(t / 2, 0.5))
        expect = (2 * math.pi) ** 2 * (cov[0, 0] + cov[1, 1] - 2 * cov[0, 1])
        assert echo.phase_rad.var() == pytest.approx(expect, rel=0.03)

    def test_telegraph_integrals_match_one_wait_at_a_time(self):
        # A shot's waits are its draws 1, 2, ... whatever the block sizes,
        # so integrating them one at a time must give the same integrals.
        # Bounds 37.5 and 75 mean waits take several blocks per shot.
        key = streams.stream_key(4, streams.TAG_NOISE_BASE)
        shots = np.arange(300)
        for bounds in ([0.3], [37.5, 75.0]):
            got = _telegraph_integrals(key, shots, np.array(bounds))
            for i in shots:
                state = 1.0 if streams.uniforms(key, i, 0) < 0.5 else -1.0
                t = f = 0.0
                draw = 1
                want = []
                for bound in bounds:
                    while True:
                        wait = -math.log(streams.uniforms(key, i, draw))
                        if t + wait > bound:
                            break
                        f += state * wait
                        t += wait
                        state = -state
                        draw += 1
                    want.append(f + state * (bound - t))
                np.testing.assert_allclose(got[i], want, rtol=1e-9,
                                           atol=1e-9)

    def test_telegraph_ramsey_variance_closed_form(self, q1):
        proc = NoiseProcess("telegraph", 20e3, coupling="differential_D",
                            switching_rate_hz=2e4)
        t = 42.0
        batch = run_sequence_batch(lossless(q1),
                                   PulseSequence("ramsey", "+", t),
                                   (proc,), seed=61, n_shots=50_000)
        expect = (2 * math.pi) ** 2 * telegraph_variance(10e3, 2e4, t * 1e-6)
        assert batch.phase_rad.var() == pytest.approx(expect, rel=0.03)

    def test_telegraph_echo_matches_fine_grid(self, q1):
        # the grid sampler draws exact telegraph states every 5 ns; its
        # phase sums hold each state over a whole step, which is exact to
        # O(rate * dt) = 1e-3 here
        excursion, rate, t = 20e3, 2e5, 10.0
        proc = NoiseProcess("telegraph", excursion, coupling="differential_D",
                            switching_rate_hz=rate)
        batch = run_sequence_batch(lossless(q1),
                                   PulseSequence("hahn_echo", "+", t),
                                   (proc,), seed=62, n_shots=50_000)
        dt_s = 5e-9
        n = round(t * 1e-6 / dt_s)
        rng = np.random.default_rng(62)
        grid = []
        for _ in range(10):
            path = telegraph_from_uniforms(rng.random((5000, n)), dt_s,
                                           excursion, rate)
            grid.append(2 * math.pi * dt_s * (path[:, n // 2:].sum(axis=1)
                                              - path[:, :n // 2].sum(axis=1)))
        assert batch.phase_rad.var() == pytest.approx(
            np.concatenate(grid).var(), rel=0.03)

    def test_fast_telegraph_takes_few_rounds(self, q1):
        # rate * T = 4000 switches per shot on average
        proc = NoiseProcess("telegraph", 2e5, coupling="differential_D",
                            switching_rate_hz=1e8)
        seq = PulseSequence("hahn_echo", "+", 40.0)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            batch = run_sequence_batch(lossless(q1), seq, (proc,), seed=63,
                                       n_shots=2000)
            times.append(time.perf_counter() - start)
        assert min(times) < 0.5
        # nearly independent halves of 2000 switches each
        expect = (2 * math.pi) ** 2 * 2 * telegraph_variance(1e5, 1e8, 20e-6)
        assert batch.phase_rad.var() == pytest.approx(expect, rel=0.1)

    @pytest.mark.parametrize("seq", [PulseSequence("ramsey", "+", 37.0),
                                     PulseSequence("hahn_echo", "+", 123.0)],
                             ids=["ramsey", "hahn_echo"])
    def test_colored_noise_batch_invariance(self, q1, seq):
        whole = run_sequence_batch(q1, seq, self.COLORED, seed=9, n_shots=700)
        assert np.any(whole.phase_rad != 0.0)
        for n in (1, 333):
            short = run_sequence_batch(q1, seq, self.COLORED, seed=9,
                                       n_shots=n)
            for name in ("phase_rad", "levels", "jumped"):
                assert np.array_equal(getattr(whole, name)[:n],
                                      getattr(short, name)), (n, name)


class TestPhysicalModeSequences:
    def test_relaxation_reference(self, q2):
        params = q2.with_(n_th_D=0.0, n_th_Q=0.0)
        rates = build_rate_matrix(params)
        seq = PulseSequence("phys_t1", "01", 55.4)
        batch = run_sequence_batch(params, seq, seed=21, n_shots=40_000)
        p01 = np.mean(batch.levels == IDX_01)
        assert p01 == pytest.approx(math.exp(-1), abs=0.01)

    def test_phys_ramsey_oscillates_on_mode_noise(self, q2):
        params = lossless(q2)
        proc = NoiseProcess("white", 5000.0, coupling="differential_Q")
        seq = PulseSequence("phys_ramsey", "+Q", 40.0, 0.0)
        batch = run_sequence_batch(params, seq, (proc,), seed=31, n_shots=2000)
        assert np.any(batch.phase_rad != 0.0)
        # the same process leaves the D mode untouched
        seq_d = PulseSequence("phys_ramsey", "+D", 40.0, 0.0)
        batch_d = run_sequence_batch(params, seq_d, (proc,), seed=31,
                                     n_shots=2000)
        assert np.all(batch_d.phase_rad == 0.0)
