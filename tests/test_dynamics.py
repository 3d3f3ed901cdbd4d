import math

import numpy as np
import pytest

from ddqsim.device import DimonLevel, LEVEL_ORDER, load_device
from ddqsim.dynamics import (IDX_00, IDX_01, IDX_10, PulseSequence,
                             build_rate_matrix, propagate_exact,
                             run_sequence_batch)
from ddqsim.errors import SequenceError
from ddqsim.metrology import fit_ramsey
from ddqsim.noise import NoiseProcess

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


class TestPulseSequence:
    def test_bitflip_shape(self):
        seq = PulseSequence.bitflip("01", 25.0)
        assert seq.elements[0] == ("prepare", "01")
        assert seq.elements[-1] == ("measure",)
        assert seq.total_delay_us == 25.0

    def test_hahn_echo_midpoint(self):
        seq = PulseSequence.hahn_echo(40.0)
        assert sum(1 for e in seq.elements if e[0] == "logical_pi") == 1
        assert seq.total_delay_us == pytest.approx(40.0)

    def test_ramsey_projection_phase(self):
        seq = PulseSequence.ramsey(20.0, detuning_khz=75.0)
        phi = next(e[1] for e in seq.elements if e[0] == "project")
        assert phi == pytest.approx(2 * math.pi * 75e3 * 20e-6)

    def test_malformed_sequences_rejected(self):
        with pytest.raises(SequenceError):
            PulseSequence("bitflip", (("delay", 1.0), ("measure",)))
        with pytest.raises(SequenceError):
            PulseSequence("bitflip", (("prepare", "01"), ("delay", 1.0)))
        with pytest.raises(SequenceError):
            PulseSequence("hahn_echo", (("prepare", "+"), ("delay", 10.0),
                                        ("logical_pi",), ("delay", 20.0),
                                        ("project", 0.0), ("measure",)))
        with pytest.raises(SequenceError):
            PulseSequence("bitflip", (("prepare", "01"), ("delay", -1.0),
                                      ("measure",)))
        with pytest.raises(SequenceError):
            PulseSequence.bitflip("33", 1.0)


class TestEngine:
    def test_determinism_and_batch_invariance(self, q1):
        seq = PulseSequence.bitflip("01", 30.0)
        whole = run_sequence_batch(q1, seq, seed=5, n_shots=500)
        again = run_sequence_batch(q1, seq, seed=5, n_shots=500)
        assert np.array_equal(whole.levels, again.levels)
        first = run_sequence_batch(q1, seq, seed=5, n_shots=200)
        rest = run_sequence_batch(q1, seq, seed=5, n_shots=300,
                                  shot_offset=200)
        assert np.array_equal(whole.levels,
                              np.concatenate([first.levels, rest.levels]))

    def test_noiseless_bitflip_stays_put(self, q1):
        params = lossless(q1)
        seq = PulseSequence.bitflip("01", 100.0)
        batch = run_sequence_batch(params, seq, seed=3, n_shots=200)
        assert np.all(batch.levels == IDX_01)
        assert not batch.jumped.any()

    def test_never_rail_swaps_in_one_jump(self, q1):
        # with no thermal excitation |01> can only reach |00>
        params = q1.with_(n_th_D=0.0, n_th_Q=0.0)
        seq = PulseSequence.bitflip("01", 500.0)
        batch = run_sequence_batch(params, seq, seed=11, n_shots=20_000)
        assert not np.any(batch.levels == IDX_10)
        assert set(np.unique(batch.levels)) <= {IDX_00, IDX_01}

    def test_oracle_equivalence_q1(self, q1):
        rates = build_rate_matrix(q1)
        n = 50_000
        for init, p0 in (("01", [0, 1, 0, 0, 0, 0]),
                         ("11", [0, 0, 0, 1, 0, 0])):
            for t in (20.0, 90.0):
                seq = PulseSequence.bitflip(init, t)
                batch = run_sequence_batch(q1, seq, seed=101, n_shots=n)
                emp = batch.level_fractions()
                exact = propagate_exact(rates, p0, t)
                tv = 0.5 * np.abs(emp - exact).sum()
                assert tv < 0.01
                sigma = np.sqrt(exact * (1 - exact) / n)
                assert np.all(np.abs(emp - exact) <= 4 * sigma + 1e-4)

    def test_superposition_prepares_half_half(self, q1):
        params = lossless(q1)
        seq = PulseSequence.ramsey(0.0)
        batch = run_sequence_batch(params, seq, seed=4, n_shots=40_000)
        # phase 0 at zero delay: projection restores the plus pole exactly
        assert np.all(batch.levels == IDX_10)

    def test_noiseless_ramsey_oscillation(self, q1):
        params = lossless(q1)
        for t in (5.0, 10.0, 17.0):
            seq = PulseSequence.ramsey(t, detuning_khz=75.0)
            batch = run_sequence_batch(params, seq, seed=29, n_shots=30_000)
            p0l = np.mean(batch.levels == IDX_10)
            expect = 0.5 * (1 + math.cos(2 * math.pi * 0.075 * t))
            assert p0l == pytest.approx(expect, abs=0.01)

    def test_projection_at_pi_lands_on_minus_pole(self, q1):
        params = lossless(q1)
        seq = PulseSequence("ramsey", (("prepare", "+"), ("delay", 10.0),
                                       ("project", math.pi), ("measure",)))
        batch = run_sequence_batch(params, seq, seed=2, n_shots=5000)
        assert np.all(batch.levels == IDX_01)

    def test_common_noise_exact_cancellation(self, q1):
        proc = NoiseProcess("white", 1e8, coupling="common")
        seq = PulseSequence.ramsey(80.0)
        batch = run_sequence_batch(lossless(q1), seq, (proc,), seed=8,
                                   n_shots=2000)
        assert np.all(batch.phase_rad == 0.0)

    def test_unbalanced_common_noise_dephases(self, q1):
        proc = NoiseProcess("white", 1e5, coupling="common", w_D=1.0, w_Q=1.3)
        seq = PulseSequence.ramsey(80.0)
        batch = run_sequence_batch(lossless(q1), seq, (proc,), seed=8,
                                   n_shots=2000)
        assert np.any(batch.phase_rad != 0.0)

    def test_echo_cancels_quasistatic_noise_exactly(self, q1):
        proc = NoiseProcess("one_over_f", 1e6, coupling="differential_D",
                            quasistatic=True)
        seq = PulseSequence.hahn_echo(120.0)
        batch = run_sequence_batch(lossless(q1), seq, (proc,), seed=13,
                                   n_shots=3000)
        assert np.all(batch.phase_rad == 0.0)
        assert np.all(batch.levels == IDX_10)

    def test_ramsey_does_not_cancel_quasistatic_noise(self, q1):
        proc = NoiseProcess("one_over_f", 1e6, coupling="differential_D",
                            quasistatic=True)
        seq = PulseSequence.ramsey(120.0, detuning_khz=0.0)
        batch = run_sequence_batch(lossless(q1), seq, (proc,), seed=13,
                                   n_shots=3000)
        assert np.mean(batch.phase_rad != 0.0) > 0.99

    def test_static_offset_shifts_ramsey_frequency(self, q1):
        params = lossless(q1)
        t = 10.0
        seq = PulseSequence.ramsey(t, detuning_khz=0.0)
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
            seq = PulseSequence.ramsey(t, detuning_khz=75.0)
            batch = run_sequence_batch(params, seq, (proc,), seed=300 + j,
                                       n_shots=3000)
            p0l.append(np.mean(batch.levels == IDX_10))
        fit = fit_ramsey(delays, np.array(p0l), detuning_hint_khz=75.0)
        rate_fit = fit.params["rate_per_us"] * 1e6
        assert rate_fit == pytest.approx(math.pi**2 * s_f, rel=0.10)

    def test_phase_accumulation_variance(self, q1):
        # <phi^2> = (2 pi)^2 (S_f / 2) t for a single differential process
        s_f = 2000.0
        t = 50.0
        proc = NoiseProcess("white", s_f, coupling="differential_D")
        seq = PulseSequence.ramsey(t)
        batch = run_sequence_batch(lossless(q1), seq, (proc,), seed=44,
                                   n_shots=50_000)
        expect = (2 * math.pi) ** 2 * 0.5 * s_f * t * 1e-6
        assert batch.phase_rad.var() == pytest.approx(expect, rel=0.05)


class TestPhysicalModeSequences:
    def test_relaxation_reference(self, q2):
        params = q2.with_(n_th_D=0.0, n_th_Q=0.0)
        rates = build_rate_matrix(params)
        seq = PulseSequence.relaxation("Q", 55.4)
        batch = run_sequence_batch(params, seq, seed=21, n_shots=40_000)
        p01 = np.mean(batch.levels == IDX_01)
        assert p01 == pytest.approx(math.exp(-1), abs=0.01)

    def test_phys_ramsey_oscillates_on_mode_noise(self, q2):
        params = lossless(q2)
        proc = NoiseProcess("white", 5000.0, coupling="differential_Q")
        seq = PulseSequence.phys_ramsey("Q", 40.0, detuning_khz=0.0)
        batch = run_sequence_batch(params, seq, (proc,), seed=31, n_shots=2000)
        assert np.any(batch.phase_rad != 0.0)
        # the same process leaves the D mode untouched
        seq_d = PulseSequence.phys_ramsey("D", 40.0, detuning_khz=0.0)
        batch_d = run_sequence_batch(params, seq_d, (proc,), seed=31,
                                     n_shots=2000)
        assert np.all(batch_d.phase_rad == 0.0)
