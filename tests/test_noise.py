import math

import numpy as np
import pytest

from ddqsim.noise import NoiseProcess, marginal_std, synthesize_noise
from ddqsim.noise_analysis import FrequencySeries, fit_psd_model, welch_psd


class TestNoiseProcess:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseProcess("pink", 1.0)
        with pytest.raises(ValueError):
            NoiseProcess("white", -1.0)
        with pytest.raises(ValueError):
            NoiseProcess("telegraph", 1.0)  # needs a switching rate
        with pytest.raises(ValueError):
            NoiseProcess("white", 1.0, coupling="differential_X")
        for extra in ({"amplitude": math.nan}, {"amplitude": math.inf},
                      {"switching_rate_hz": math.inf},
                      {"switching_rate_hz": math.nan}, {"w_D": math.nan},
                      {"w_Q": -math.inf}):
            spec = {"kind": "telegraph", "amplitude": 2e4,
                    "switching_rate_hz": 1e3, **extra}
            with pytest.raises(ValueError, match="finite"):
                NoiseProcess(**spec)

    @pytest.mark.parametrize("flag,value", [("quasistatic", "no"),
                                            ("persistent", "false")])
    def test_flags_must_be_bool(self, flag, value):
        # a non-empty string is truthy: taken by its truth it would turn
        # the flag on
        with pytest.raises(ValueError, match=f"{flag} must be true or false"):
            NoiseProcess("telegraph", 1e3, switching_rate_hz=1.0,
                         **{flag: value})

    def test_coupling_weights(self):
        common = NoiseProcess("white", 1.0, coupling="common", w_D=0.7, w_Q=1.2)
        assert common.mode_weight("D") == 0.7
        assert common.mode_weight("Q") == 1.2
        assert common.differential_weight() == pytest.approx(0.5)
        diff_d = NoiseProcess("white", 1.0, coupling="differential_D")
        assert diff_d.differential_weight() == -1.0
        assert diff_d.mode_weight("Q") == 0.0

    def test_balanced_common_weight_is_exactly_zero(self):
        proc = NoiseProcess("white", 1e9, coupling="common")
        assert proc.differential_weight() == 0.0

    def test_dict_roundtrip(self):
        proc = NoiseProcess("telegraph", 3e4, coupling="differential_D",
                            switching_rate_hz=1e-4, persistent=True)
        assert NoiseProcess(**proc.to_dict()) == proc


class TestSynthesis:
    def test_zero_amplitude_gives_zero_path(self):
        for kind, extra in (("white", {}), ("one_over_f", {}),
                            ("telegraph", {"switching_rate_hz": 1.0})):
            proc = NoiseProcess(kind, 0.0, **extra)
            path = synthesize_noise(proc, 100.0, 1.0, seed=3)
            assert np.all(path == 0.0)

    def test_deterministic_given_seed(self):
        proc = NoiseProcess("one_over_f", 1e5)
        a = synthesize_noise(proc, 500.0, 0.5, seed=9)
        b = synthesize_noise(proc, 500.0, 0.5, seed=9)
        c = synthesize_noise(proc, 500.0, 0.5, seed=10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_bad_dt_rejected(self):
        with pytest.raises(ValueError):
            synthesize_noise(NoiseProcess("white", 1.0), 10.0, 0.0, seed=0)
        with pytest.raises(ValueError):
            synthesize_noise(NoiseProcess("white", 1.0), 0.5, 1.0, seed=0)

    def test_white_psd_flat_at_planted_level(self):
        # One-sided PSD of the path should sit at S_f across the band.
        s_f = 2000.0
        dt_us = 1.0
        path = synthesize_noise(NoiseProcess("white", s_f), 1e6, dt_us, seed=12)
        series = FrequencySeries(values=path, tau0_s=dt_us * 1e-6)
        freqs, psd = welch_psd(series, segment_length=4096)
        level = np.median(psd[1:])
        assert level == pytest.approx(s_f, rel=0.15)

    def test_white_sample_variance(self):
        s_f = 500.0
        dt_us = 2.0
        path = synthesize_noise(NoiseProcess("white", s_f), 2e5, dt_us, seed=5)
        assert path.var() == pytest.approx(s_f / (2 * dt_us * 1e-6), rel=0.05)

    def test_one_over_f_psd_shape(self):
        a = 3e5
        tau0 = 0.05
        path = synthesize_noise(NoiseProcess("one_over_f", a),
                                16384 * tau0 * 1e6, tau0 * 1e6, seed=21)
        series = FrequencySeries(values=path, tau0_s=tau0)
        freqs, psd = welch_psd(series, segment_length=2048)
        a_fit, b_fit, _ = fit_psd_model(freqs, psd)
        assert a_fit == pytest.approx(a, rel=0.2)
        # log-log slope close to -1 over the low band
        sel = (freqs > 0) & (freqs < 1.0)
        slope = np.polyfit(np.log(freqs[sel]), np.log(psd[sel]), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.15)

    def test_telegraph_levels_and_switch_count(self):
        nu = 2000.0      # switches per second
        dt_us = 1.0      # nu*dt = 2e-3, well resolved
        dur_us = 5e4
        counts = []
        for seed in range(40):
            path = synthesize_noise(
                NoiseProcess("telegraph", 6e4, switching_rate_hz=nu),
                dur_us, dt_us, seed=seed)
            assert set(np.unique(path)) <= {-3e4, 3e4}
            counts.append(int(np.sum(np.diff(np.sign(path)) != 0)))
        expected = nu * dur_us * 1e-6 * 40   # total over all paths
        total = sum(counts)
        assert abs(total - expected) < 3 * np.sqrt(expected)

    def test_telegraph_lag1_autocorrelation_at_coarse_step(self):
        # nu*dt = 1: about one switch per step, yet successive samples must
        # keep the process's correlation exp(-2 nu dt)
        n = 200_000
        path = synthesize_noise(
            NoiseProcess("telegraph", 2.0, switching_rate_hz=1e6),
            float(n), 1.0, seed=7)
        rho = np.corrcoef(path[:-1], path[1:])[0, 1]
        expect = math.exp(-2.0)
        assert abs(rho - expect) < 5 * math.sqrt((1 - expect ** 2) / n)

    def test_marginal_std(self):
        dt_us = 2.0
        assert marginal_std(NoiseProcess("white", 800.0), 100.0, dt_us) == \
            pytest.approx(np.sqrt(800.0 / (2 * dt_us * 1e-6)))
        assert marginal_std(NoiseProcess("telegraph", 5e4,
                                         switching_rate_hz=1.0),
                            100.0, 1.0) == 2.5e4
        qs = NoiseProcess("one_over_f", 1e5)
        # matches the realized path variance of the synthesis band
        paths = [synthesize_noise(qs, 2048.0, 1.0, seed=s).var()
                 for s in range(30)]
        assert marginal_std(qs, 2048.0, 1.0) == \
            pytest.approx(np.sqrt(np.mean(paths)), rel=0.1)
