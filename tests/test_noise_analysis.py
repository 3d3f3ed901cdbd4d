import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import ddqsim
from ddqsim.errors import ConfigError
from ddqsim.noise import NoiseProcess, synthesize_noise
from ddqsim.noise_analysis import (AllanCurve, FrequencySeries, default_taus,
                                   fit_allan_model, fit_psd_model,
                                   flag_allan_bumps, overlapping_allan,
                                   read_frequency_csv, welch_psd)
from ddqsim.tables import FREQUENCY, write_table


def allan_model_curve(a, b, taus):
    return np.sqrt(b / 2.0 / taus + 2 * math.log(2) * a)


def switching_series(seed, n=160, tau0_s=100.0):
    """Short drift-like series: a two-level telegraph frequency step with
    white scatter, as a drift campaign's fitted detunings look."""
    rng = np.random.default_rng(seed)
    state = np.cumsum(rng.random(n) < 1 / 30) % 2
    return FrequencySeries(15000.0 * state + rng.normal(0, 2000.0, n), tau0_s)


class TestFrequencySeries:
    def test_mean_removed(self):
        s = FrequencySeries(values=np.arange(32.0) + 100.0, tau0_s=1.0)
        assert s.values.mean() == pytest.approx(0.0, abs=1e-9)

    def test_minimum_length(self):
        with pytest.raises(ConfigError):
            FrequencySeries(values=np.zeros(8), tau0_s=1.0)

    def test_jittered_timestamps_resampled(self):
        rng = np.random.default_rng(1)
        ts = np.arange(64) * 10.0 + rng.uniform(-0.5, 0.5, 64)
        ts.sort()
        vals = np.sin(ts / 40.0)
        s = FrequencySeries.from_timestamps(ts, vals)
        assert s.tau0_s == pytest.approx(10.0, rel=0.02)
        assert len(s.values) == 64

    def test_csv_roundtrip(self, tmp_path):
        s = FrequencySeries(values=np.sin(np.arange(40.0)), tau0_s=2.5,
                            source="logical")
        path = tmp_path / "freq.csv"
        write_table(path, FREQUENCY, [(2.5 * np.arange(40), s.values,
                                       ["logical"] * 40)])
        back = read_frequency_csv(path)
        assert len(back) == 1
        assert back[0].source == "logical"
        assert np.allclose(back[0].values, s.values, atol=1e-12)
        assert back[0].tau0_s == pytest.approx(2.5)

    @pytest.mark.parametrize("rows, message", [
        ([], "no frequency rows"),
        (["0.0,,logical"] + [f"{i}.0,{i},logical" for i in range(1, 20)],
         "finite"),
    ], ids=["header-only", "empty-value"])
    def test_csv_without_usable_rows_rejected(self, tmp_path, rows, message):
        path = tmp_path / "freq.csv"
        path.write_text("\n".join(["timestamp_s,delta_f_hz,source", *rows])
                        + "\n")
        with pytest.raises(ConfigError, match=message):
            read_frequency_csv(path)


class TestOverlappingAllan:
    def test_constant_series_zero(self):
        s = FrequencySeries(values=np.full(64, 3.3), tau0_s=1.0)
        curve = overlapping_allan(s)
        assert np.all(curve.sigma_hz == 0.0)

    def test_white_noise_matches_sample_deviation(self):
        rng = np.random.default_rng(4)
        sigma0 = 7.0
        s = FrequencySeries(values=rng.normal(0, sigma0, 10_000), tau0_s=1.0)
        curve = overlapping_allan(s)
        assert curve.sigma_hz[0] == pytest.approx(sigma0, rel=0.10)
        # white noise: sigma(tau) falls as 1/sqrt(tau)
        assert curve.sigma_hz[4] == pytest.approx(sigma0 / 4.0, rel=0.15)

    def test_one_over_f_plateau(self):
        a = 3e5
        tau0 = 0.05
        proc = NoiseProcess("one_over_f", a)
        path = synthesize_noise(proc, 16384 * tau0 * 1e6, tau0 * 1e6, seed=6)
        s = FrequencySeries(values=path, tau0_s=tau0)
        taus = default_taus(len(path), tau0)[2:8]
        curve = overlapping_allan(s, taus=taus)
        plateau = math.sqrt(2 * math.log(2) * a)
        assert np.median(curve.sigma_hz) == pytest.approx(plateau, rel=0.20)

    def test_non_multiple_tau_rejected(self):
        s = FrequencySeries(values=np.zeros(64), tau0_s=1.0)
        with pytest.raises(ConfigError, match="multiple"):
            overlapping_allan(s, taus=[1.5])

    def test_too_long_tau_rejected(self):
        s = FrequencySeries(values=np.zeros(64), tau0_s=1.0)
        with pytest.raises(ConfigError, match="differences"):
            overlapping_allan(s, taus=[32.0])

    def test_pair_counts(self):
        s = FrequencySeries(values=np.random.default_rng(0).normal(0, 1, 100),
                            tau0_s=1.0)
        curve = overlapping_allan(s, taus=[1.0, 2.0])
        assert curve.n_pairs[0] == 99
        assert curve.n_pairs[1] == 97

    def test_offset_invariance_and_scaling(self):
        rng = np.random.default_rng(11)
        base = rng.normal(0, 5, 4096)
        c1 = overlapping_allan(FrequencySeries(values=base, tau0_s=1.0))
        c2 = overlapping_allan(FrequencySeries(values=base + 123.0, tau0_s=1.0))
        c3 = overlapping_allan(FrequencySeries(values=3.0 * base, tau0_s=1.0))
        assert np.allclose(c1.sigma_hz, c2.sigma_hz, rtol=1e-9)
        assert np.allclose(c3.sigma_hz, 3.0 * c1.sigma_hz, rtol=1e-9)


class TestAllanModelFit:
    def test_model_curve_recovery(self):
        # planted model-parameter values, noisy curve
        a, b = 3.5e5, 1.3e6
        taus = default_taus(2048, 0.25)
        rng = np.random.default_rng(3)
        sigma = allan_model_curve(a, b, taus) * rng.lognormal(0, 0.03, len(taus))
        a_fit, b_fit, _ = fit_allan_model(taus, sigma)
        assert a_fit == pytest.approx(a, rel=0.20)
        assert b_fit == pytest.approx(b, rel=0.20)

    def test_planted_pair_recovery_over_seeds(self):
        # the acceptance c06 series (crossover/8 sampling, 2048 points) at
        # 20 seed pairs other than c06's own 60/61
        a, b, n = 5.9e5, 0.5e6, 2048
        tau0 = b / (4 * math.log(2) * a) / 8.0
        ratios = []
        for k in range(20):
            w = synthesize_noise(NoiseProcess("white", b), n * tau0 * 1e6,
                                 tau0 * 1e6, seed=1000 + 2 * k)
            f1 = synthesize_noise(NoiseProcess("one_over_f", a),
                                  n * tau0 * 1e6, tau0 * 1e6,
                                  seed=1001 + 2 * k)
            curve = overlapping_allan(FrequencySeries(values=w + f1,
                                                      tau0_s=tau0))
            a_fit, b_fit, _ = fit_allan_model(*_curve(curve))
            ratios.append((a_fit / a, b_fit / b))
        a_med, b_med = np.median(ratios, axis=0)
        assert 0.85 <= a_med <= 1.15
        assert 0.85 <= b_med <= 1.15

    def test_pure_white_clamps_flicker_term(self):
        rng = np.random.default_rng(7)
        sigma0 = 50.0
        s = FrequencySeries(values=rng.normal(0, sigma0, 8192), tau0_s=1.0)
        curve = overlapping_allan(s)
        a_fit, b_fit, _ = fit_allan_model(curve.tau_s, curve.sigma_hz)
        # flicker plateau negligible against white at the longest tau
        tau_max = curve.tau_s[-1]
        assert math.sqrt(2 * math.log(2) * max(a_fit, 0.0)) <= \
            0.2 * math.sqrt(b_fit / (2 * tau_max)) + 1e-9
        assert b_fit == pytest.approx(2 * sigma0**2 * 1.0, rel=0.15)

    def test_amplitude_scaling_quadruples_powers(self):
        a, b = 1e5, 2e6
        taus = default_taus(4096, 0.5)
        sigma = allan_model_curve(a, b, taus)
        a1, b1, _ = fit_allan_model(taus, sigma)
        a2, b2, _ = fit_allan_model(taus, 2.0 * sigma)
        assert a2 == pytest.approx(4 * a1, rel=0.02)
        assert b2 == pytest.approx(4 * b1, rel=0.02)

    def test_overflowing_trial_step_is_rejected(self):
        # the LM's long first steps at this seed used to raise OverflowError
        # from math.exp inside the residual
        curve = overlapping_allan(switching_series(41))
        a, b, info = fit_allan_model(curve.tau_s, curve.sigma_hz)
        assert info["converged"]
        assert np.isfinite(a) and np.isfinite(b) and a >= 0 and b > 0

    def test_grid_requirements(self):
        with pytest.raises(ConfigError):
            fit_allan_model([1, 2, 4], [1, 1, 1])
        with pytest.raises(ConfigError, match="decades"):
            fit_allan_model([1, 2, 4, 8], [1, 1, 1, 1])


class TestWelch:
    def test_zero_series_zero_psd(self):
        s = FrequencySeries(values=np.zeros(256), tau0_s=1.0)
        _, psd = welch_psd(s)
        assert np.all(psd == 0.0)

    def test_white_level(self):
        rng = np.random.default_rng(9)
        sigma0, tau0 = 4.0, 0.5
        s = FrequencySeries(values=rng.normal(0, sigma0, 65_536), tau0_s=tau0)
        freqs, psd = welch_psd(s, segment_length=1024)
        assert np.median(psd[1:]) == pytest.approx(2 * sigma0**2 * tau0,
                                                   rel=0.15)

    def test_parseval_for_white_input(self):
        rng = np.random.default_rng(13)
        s = FrequencySeries(values=rng.normal(0, 3.0, 32_768), tau0_s=2.0)
        freqs, psd = welch_psd(s)
        variance = np.trapezoid(psd, freqs)
        assert variance == pytest.approx(s.values.var(), rel=0.05)

    def test_sinusoid_peak_bin(self):
        tau0 = 0.1
        t = np.arange(4096) * tau0
        f0 = 1.25
        s = FrequencySeries(values=np.sin(2 * math.pi * f0 * t), tau0_s=tau0)
        freqs, psd = welch_psd(s, segment_length=1024)
        assert freqs[np.argmax(psd)] == pytest.approx(f0, abs=freqs[1])

    def test_segment_length_bounds(self):
        s = FrequencySeries(values=np.zeros(64), tau0_s=1.0)
        with pytest.raises(ConfigError):
            welch_psd(s, segment_length=4)
        with pytest.raises(ConfigError):
            welch_psd(s, segment_length=128)


class TestPsdModelFit:
    def test_planted_pair_recovery(self):
        a, b = 5.9e5, 0.5e6
        tau0 = 0.02
        n = 16_384
        w = synthesize_noise(NoiseProcess("white", b), n * tau0 * 1e6,
                             tau0 * 1e6, seed=31)
        f1 = synthesize_noise(NoiseProcess("one_over_f", a), n * tau0 * 1e6,
                              tau0 * 1e6, seed=32)
        s = FrequencySeries(values=w + f1, tau0_s=tau0)
        freqs, psd = welch_psd(s, segment_length=2048)
        a_fit, b_fit, _ = fit_psd_model(freqs, psd)
        assert a_fit == pytest.approx(a, rel=0.20)
        assert b_fit == pytest.approx(b, rel=0.20)

    def test_pure_one_over_f_slope(self):
        a, tau0, n = 2e5, 0.05, 16_384
        path = synthesize_noise(NoiseProcess("one_over_f", a), n * tau0 * 1e6,
                                tau0 * 1e6, seed=17)
        s = FrequencySeries(values=path, tau0_s=tau0)
        freqs, psd = welch_psd(s, segment_length=2048)
        sel = freqs > 0
        slope = np.polyfit(np.log(freqs[sel]), np.log(psd[sel]), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.05)

    def test_pure_white_flat(self):
        b, tau0 = 8e5, 0.1
        path = synthesize_noise(NoiseProcess("white", b), 16_384 * tau0 * 1e6,
                                tau0 * 1e6, seed=19)
        s = FrequencySeries(values=path, tau0_s=tau0)
        freqs, psd = welch_psd(s, segment_length=1024)
        a_fit, b_fit, _ = fit_psd_model(freqs, psd)
        f_min = freqs[freqs > 0].min()
        assert a_fit / f_min <= 0.05 * b_fit
        assert b_fit == pytest.approx(b, rel=0.15)

    def test_overflowing_trial_step_is_rejected(self):
        # the LM's long trial steps at this seed used to raise OverflowError
        # from math.exp inside the residual
        freqs, psd = welch_psd(switching_series(58))
        a, b, info = fit_psd_model(freqs, psd)
        assert info["converged"]
        assert np.isfinite(a) and np.isfinite(b) and a > 0 and b >= 0

    def test_needs_enough_bins(self):
        with pytest.raises(ConfigError):
            fit_psd_model([0.0, 0.1, 0.2], [1.0, 1.0, 1.0])

    def test_psd_scaling_quadratic(self):
        rng = np.random.default_rng(23)
        base = rng.normal(0, 2.0, 8192)
        s1 = FrequencySeries(values=base, tau0_s=1.0)
        s2 = FrequencySeries(values=5.0 * base, tau0_s=1.0)
        _, p1 = welch_psd(s1, segment_length=512)
        _, p2 = welch_psd(s2, segment_length=512)
        assert np.allclose(p2, 25.0 * p1, rtol=1e-9)


class TestCrossEstimatorConsistency:
    def test_white_floor_agrees(self):
        b, tau0 = 1.2e6, 0.05
        path = synthesize_noise(NoiseProcess("white", b), 8192 * tau0 * 1e6,
                                tau0 * 1e6, seed=41)
        s = FrequencySeries(values=path, tau0_s=tau0)
        # white only: A clamps at 0, stated in the diagnostics alone
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, b_allan, diag = fit_allan_model(*_curve(overlapping_allan(s)))
        assert diag["clamped"] == ["A"]
        freqs, psd = welch_psd(s)
        _, b_psd, _ = fit_psd_model(freqs, psd)
        assert b_allan == pytest.approx(b_psd, rel=0.30)

    def test_flicker_amplitude_agrees(self):
        a, tau0 = 4e5, 0.05
        path = synthesize_noise(NoiseProcess("one_over_f", a),
                                8192 * tau0 * 1e6, tau0 * 1e6, seed=43)
        s = FrequencySeries(values=path, tau0_s=tau0)
        taus = default_taus(len(path), tau0)[:8]  # avoid long-tau sag
        a_allan, _, _ = fit_allan_model(*_curve(overlapping_allan(s, taus)))
        freqs, psd = welch_psd(s)
        a_psd, _, _ = fit_psd_model(freqs, psd)
        assert a_allan == pytest.approx(a_psd, rel=0.30)


def _curve(curve: AllanCurve):
    return curve.tau_s, curve.sigma_hz


class TestBumpFlagging:
    def test_no_bumps_on_clean_model_curve(self):
        taus = default_taus(2048, 1.0)
        sigma = allan_model_curve(2e5, 1e6, taus)
        mask, _, _ = flag_allan_bumps(AllanCurve(taus, sigma,
                                                 np.ones_like(taus)))
        assert not mask.any()

    def test_lorentzian_bump_flagged(self):
        # white floor plus a strong mid-band bump
        taus = default_taus(2048, 100.0)
        sigma = allan_model_curve(0.0, 1e6, taus)
        bump = 40.0 * np.exp(-0.5 * ((np.log(taus) - math.log(1e4)) / 0.8) ** 2)
        curve = AllanCurve(taus, sigma * (1 + bump), np.ones_like(taus))
        mask, _, _ = flag_allan_bumps(curve)
        assert mask.any()
        flagged = taus[mask]
        assert np.all((flagged >= 1e3) & (flagged <= 1e5))

    def test_single_point_spike_not_flagged(self):
        taus = default_taus(1024, 1.0)
        sigma = allan_model_curve(1e5, 1e6, taus)
        sigma[3] *= 3.0
        mask, _, _ = flag_allan_bumps(AllanCurve(taus, sigma,
                                                 np.ones_like(taus)))
        assert not mask.any()


# run first in a fresh process, where scipy.signal and scipy.optimize are not
# loaded yet, and again in the test process
FIRST_CALLS = """
import sys
import numpy as np
from ddqsim.noise_analysis import (FrequencySeries, fit_allan_model,
                                   fit_psd_model, overlapping_allan, welch_psd)
loaded = sorted({"scipy.signal", "scipy.optimize"} & set(sys.modules))
rng = np.random.default_rng(5)
series = FrequencySeries(np.cumsum(rng.normal(0.0, 5.0, 1024))
                         + rng.normal(0.0, 50.0, 1024), 10.0)
freqs, psd = welch_psd(series)
curve = overlapping_allan(series)
values = repr((freqs.tolist(), psd.tolist(),
               fit_allan_model(curve.tau_s, curve.sigma_hz),
               fit_psd_model(freqs, psd)))
"""


class TestDeferredScipyImports:
    def test_first_calls_in_a_fresh_process_give_the_same_values(self):
        src = os.path.dirname(os.path.dirname(ddqsim.__file__))
        out = subprocess.run(
            [sys.executable, "-c",
             FIRST_CALLS + "print(loaded)\nprint(values)"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            text=True, timeout=300, check=True)
        loaded, values = out.stdout.splitlines()[-2:]
        here = {}
        exec(FIRST_CALLS, here)
        assert loaded == "[]"
        assert values == here["values"]
