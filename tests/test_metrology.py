import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddqsim import metrology
from ddqsim.device import load_device
from ddqsim.dynamics import build_rate_matrix, propagate_exact
from ddqsim.errors import (ConfigError, EmptyLogicalSubspaceError,
                           FitConvergenceError, ResampleError)
from ddqsim.fitting import lm_least_squares, numeric_jacobian
from ddqsim.metrology import (BOOTSTRAP_QUANTILE, BOOTSTRAP_RESAMPLES,
                              DEFAULT_FIT_WINDOW_US, FitResult, TraceData,
                              bitflip_difference, bitflip_probability,
                              bootstrap_bounds, fit_erasure, fit_linear_short,
                              fit_ramsey, fit_trace, postselect,
                              postselect_trace, read_trace_csv,
                              write_trace_csv)
from ddqsim.tables import TRACE


class TestPostselect:
    def test_clean_split(self):
        assert postselect(0, 300, 700) == (0.7, 0.3, 0.0)

    def test_with_erasures(self):
        p0l, p1l, erasure = postselect(100, 450, 450)
        assert (p0l, p1l) == (0.5, 0.5)
        assert erasure == pytest.approx(0.1)

    def test_empty_logical_subspace(self):
        with pytest.raises(EmptyLogicalSubspaceError):
            postselect(1000, 0, 0)

    @given(n00=st.integers(0, 10_000), n01=st.integers(0, 10_000),
           n10=st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_logical_populations_sum_to_one(self, n00, n01, n10):
        if n01 + n10 == 0:
            return
        p0l, p1l, erasure = postselect(n00, n01, n10)
        assert p0l + p1l == 1.0
        assert 0.0 <= erasure <= 1.0

    def test_trace_flags_dead_points(self):
        tr = TraceData(delays_us=[0.0, 10.0, 20.0], n00=[0, 100, 100],
                       n01=[50, 0, 30], n10=[50, 0, 70],
                       n_total=[100, 100, 200])
        delays, p0l, p1l, erasure, kept = postselect_trace(tr)
        assert list(kept) == [True, False, True]
        assert list(delays) == [0.0, 20.0]
        assert p0l[1] == pytest.approx(0.7)


class TestBitflipProbability:
    def test_zero(self):
        assert bitflip_probability(0.0, 0.0) == 0.0

    def test_symmetric_average(self):
        assert bitflip_probability(0.1, 0.1) == pytest.approx(0.1)
        assert bitflip_probability(0.2, 0.4) == bitflip_probability(0.4, 0.2)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            bitflip_probability(-0.1, 0.5)
        with pytest.raises(ValueError):
            bitflip_probability(0.5, 1.2)

    def test_no_rail_swap_without_thermal_excitation(self):
        # Markov oracle: with n_th = 0 no path connects the logical poles.
        params = load_device("q1").with_(n_th_D=0.0, n_th_Q=0.0)
        rates = build_rate_matrix(params)
        for t in (5.0, 50.0, 300.0):
            p_from_0 = propagate_exact(rates, [0, 0, 1, 0, 0, 0], t)
            p_from_1 = propagate_exact(rates, [0, 1, 0, 0, 0, 0], t)
            p1l_given_0 = p_from_0[1] / (p_from_0[1] + p_from_0[2])
            p0l_given_1 = p_from_1[2] / (p_from_1[1] + p_from_1[2])
            assert bitflip_probability(p1l_given_0, p0l_given_1) == 0.0

    def test_difference_signal(self):
        delays = np.array([0.0, 10.0, 20.0])
        t0 = TraceData(delays_us=delays, n00=[0, 10, 20],
                       n01=[0, 5, 12], n10=[1000, 985, 968],
                       n_total=[1000, 1000, 1000], init_label="10")
        t1 = TraceData(delays_us=delays, n00=[0, 12, 25],
                       n01=[1000, 980, 960], n10=[0, 8, 15],
                       n_total=[1000, 1000, 1000], init_label="01")
        d, diff = bitflip_difference(t0, t1)
        assert diff[0] == pytest.approx(1.0)
        assert np.all(np.diff(diff) < 0)


class TestLinearFit:
    def test_planted_slope_recovery(self):
        t = np.linspace(0, 30, 7)
        y = 1 - t / 3860.0
        fit = fit_linear_short(t, y)
        assert fit.params["T_ms"] == pytest.approx(3.86, rel=1e-6)
        assert fit.params["gamma_per_ms"] == pytest.approx(1 / 3.86, rel=1e-6)

    def test_window_restricts_points(self):
        t = np.array([0, 10, 20, 30, 100, 200.0])
        y = 1 - 0.001 * t
        fit = fit_linear_short(t, y, cutoff_us=30.0)
        assert fit.diagnostics["n_points"] == 4
        assert fit.window_us == 30.0

    def test_flat_signal_reports_no_decay_in_diagnostics(self):
        t = np.linspace(0, 30, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_linear_short(t, np.full(8, 0.5))
        assert fit.diagnostics["warning"] == "no decay resolvable"
        assert fit.params["gamma_per_ms"] == pytest.approx(0.0, abs=1e-12)

    def test_offset_invariance(self):
        t = np.linspace(0, 30, 9)
        rng = np.random.default_rng(3)
        y = 0.9 - 0.002 * t + rng.normal(0, 0.003, 9)
        f1 = fit_linear_short(t, y)
        f2 = fit_linear_short(t, y + 0.4)
        assert f1.params["slope_per_us"] == pytest.approx(
            f2.params["slope_per_us"], rel=1e-12)

    def test_too_few_points(self):
        with pytest.raises(ConfigError):
            fit_linear_short([0, 50], [1, 0.9], cutoff_us=30.0)

    def test_default_window_constant(self):
        assert DEFAULT_FIT_WINDOW_US == 30.0


class TestRamseyFit:
    def test_exact_recovery(self):
        t = np.arange(0.0, 120.0, 2.0)
        y = 0.5 * np.exp(-t / 80.0) * np.cos(2e-3 * math.pi * 75.0 * t) + 0.5
        fit = fit_ramsey(t, y)
        assert fit.params["A"] == pytest.approx(0.5, rel=1e-6)
        assert fit.params["T2R_us"] == pytest.approx(80.0, rel=1e-6)
        assert fit.params["delta_f_khz"] == pytest.approx(75.0, rel=1e-6)
        assert fit.params["phi0_rad"] == pytest.approx(0.0, abs=1e-6)
        assert fit.params["C"] == pytest.approx(0.5, rel=1e-6)

    def test_phase_and_noise_recovery(self):
        rng = np.random.default_rng(8)
        t = np.arange(0.0, 90.0, 1.5)
        y = (0.42 * np.exp(-t / 40.0) *
             np.cos(2e-3 * math.pi * 110.0 * t + 0.6) + 0.51)
        fit = fit_ramsey(t, y + rng.normal(0, 0.004, len(t)))
        assert fit.params["T2R_us"] == pytest.approx(40.0, rel=0.05)
        assert fit.params["delta_f_khz"] == pytest.approx(110.0, rel=0.01)
        assert fit.params["phi0_rad"] == pytest.approx(0.6, abs=0.05)

    def test_no_oscillation_is_an_error(self):
        t = np.linspace(0, 100, 20)
        with pytest.raises(FitConvergenceError, match="DC"):
            fit_ramsey(t, np.full(20, 0.5))

    def test_cost_never_above_initialization(self):
        rng = np.random.default_rng(12)
        t = np.arange(0.0, 100.0, 2.5)
        y = (0.5 * np.exp(-t / 30.0) * np.cos(2e-3 * math.pi * 80.0 * t)
             + 0.5 + rng.normal(0, 0.01, len(t)))
        fit = fit_ramsey(t, y)
        assert fit.diagnostics["cost"] <= fit.diagnostics["initial_cost"] + 1e-15

    def test_nonuniform_grid_is_an_error_with_or_without_hint(self):
        t = np.array([0.0, 2.0, 5.0, 9.0, 14.0, 20.0, 27.0, 35.0, 44.0, 54.0])
        y = 0.5 + 0.4 * np.cos(2e-3 * math.pi * 75.0 * t)
        for hint in (None, 75.0):
            with pytest.raises(ConfigError, match="uniformly spaced"):
                fit_ramsey(t, y, detuning_hint_khz=hint)

    def test_too_few_points_or_periods(self):
        t = np.linspace(0, 100, 5)
        with pytest.raises(ConfigError):
            fit_ramsey(t, np.cos(t))
        t = np.linspace(0, 10, 30)   # 75 kHz -> 0.75 periods over 10 us
        y = 0.5 * np.cos(2e-3 * math.pi * 75.0 * t) + 0.5
        with pytest.raises(ConfigError, match="periods"):
            fit_ramsey(t, y, detuning_hint_khz=75.0)


class TestErasureFit:
    def test_closed_form_single_rail(self):
        t1q = 65.3
        t = np.linspace(0, 200, 12)
        y = 1 - np.exp(-t / t1q)
        fit = fit_erasure(t, y)
        assert fit.params["T_erasure_us"] == pytest.approx(t1q, rel=1e-6)
        assert fit.params["amplitude"] == pytest.approx(1.0, rel=1e-6)
        assert fit.params["D"] == pytest.approx(0.0, abs=1e-8)
        assert fit.params["gamma_erasure_per_ms"] == pytest.approx(
            1e3 / t1q, rel=1e-6)

    def test_flat_trace_degenerates_in_diagnostics(self):
        t = np.linspace(0, 100, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_erasure(t, np.zeros(6))
        assert fit.diagnostics["warning"] == "flat trace"
        assert fit.params["gamma_erasure_per_ms"] == 0.0

    def test_offset_from_readout_decay(self):
        t = np.linspace(0, 150, 10)
        y = 0.9 * (1 - np.exp(-t / 70.0)) + 0.05
        fit = fit_erasure(t, y)
        assert fit.params["D"] == pytest.approx(0.05, abs=1e-6)
        assert fit.params["amplitude"] == pytest.approx(0.9, rel=1e-6)

    def test_mixed_init_short_time_slope(self):
        # equal mixture of the two rails: slope at 0 = (G_D + G_Q)/2
        params = load_device("q1")
        gd, gq = 1 / params.T1_D_us, 1 / params.T1_Q_us
        t = np.linspace(0, 90, 16)
        y = 1 - 0.5 * (np.exp(-gd * t) + np.exp(-gq * t))
        fit = fit_erasure(t, y)
        slope0 = fit.params["amplitude"] / fit.params["T_erasure_us"]
        assert slope0 == pytest.approx(0.5 * (gd + gq), rel=0.02)


class TestBootstrap:
    def test_zero_residuals_collapse_bounds(self):
        t = np.linspace(0, 30, 8)
        fit = fit_linear_short(t, 1 - t / 5000.0)
        bounds = bootstrap_bounds(fit, seed=1)
        lo, hi = bounds["gamma_per_ms"]
        assert lo == hi == pytest.approx(fit.params["gamma_per_ms"])

    def test_protocol_constants(self):
        assert BOOTSTRAP_RESAMPLES == 250
        assert BOOTSTRAP_QUANTILE == 0.05

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        t = np.linspace(0, 30, 12)
        y = 1 - 0.001 * t + rng.normal(0, 0.004, 12)
        fit = fit_linear_short(t, y)
        b1 = bootstrap_bounds(fit, seed=7)
        fit2 = fit_linear_short(t, y)
        b2 = bootstrap_bounds(fit2, seed=7)
        assert b1 == b2

    def test_bounds_bracket_estimate_and_shrink(self):
        rng = np.random.default_rng(9)
        t = np.linspace(0, 30, 12)
        widths = []
        for noise in (0.01, 0.001):
            y = 1 - 0.002 * t + rng.normal(0, noise, 12)
            fit = fit_linear_short(t, y)
            lo, hi = bootstrap_bounds(fit, seed=11)["slope_per_us"]
            assert lo <= fit.params["slope_per_us"] <= hi
            widths.append(hi - lo)
        assert widths[1] < 0.3 * widths[0]

    def test_ramsey_bootstrap_brackets_truth(self):
        rng = np.random.default_rng(15)
        t = np.arange(0.0, 90.0, 2.0)
        y = (0.5 * np.exp(-t / 45.0) * np.cos(2e-3 * math.pi * 75.0 * t)
             + 0.5 + rng.normal(0, 0.008, len(t)))
        fit = fit_ramsey(t, y)
        bounds = bootstrap_bounds(fit, n_resamples=100, seed=3)
        lo, hi = bounds["T2R_us"]
        assert lo < 45.0 < hi

    def test_mini_coverage(self):
        rng = np.random.default_rng(77)
        t = np.linspace(0, 30, 31)
        hits = 0
        reps = 120
        for r in range(reps):
            y = 1 - t / 3000.0 + rng.normal(0, 0.004, len(t))
            fit = fit_linear_short(t, y)
            lo, hi = bootstrap_bounds(fit, seed=r)["slope_per_us"]
            hits += lo <= -1 / 3000.0 <= hi
        assert 0.80 <= hits / reps <= 0.99


def per_resample_bounds(fit, refit, n_resamples=BOOTSTRAP_RESAMPLES,
                        quantile=BOOTSTRAP_QUANTILE, seed=0):
    """Residual bootstrap written as one draw and one public refit per
    resample: the reference the one-call draw must reproduce."""
    rng = np.random.default_rng(seed)
    n = len(fit.residuals)
    dof = {"linear": 2, "ramsey": 5, "erasure": 3}[fit.model]
    resid = fit.residuals * math.sqrt(n / (n - dof))
    values = {k: [] for k in fit.params}
    for _ in range(n_resamples):
        y_star = fit.fitted + resid[rng.integers(0, n, size=n)]
        params = refit(fit.delays_us, y_star).params
        for k in values:
            values[k].append(params[k])
    bounds = {}
    for k, est in fit.params.items():
        vals = np.asarray(values[k], dtype=float)
        vals = vals[np.isfinite(vals)]
        lo, hi = np.quantile(vals, [quantile, 1.0 - quantile])
        bounds[k] = (min(lo, est), max(hi, est))
    return bounds


def reference_traces():
    """The linear, Ramsey and leakage traces of TestBootstrapReference."""
    rng = np.random.default_rng(21)
    t_lin = np.linspace(0, 40, 21)
    y_lin = 1 - t_lin / 3000.0 + rng.normal(0, 0.004, len(t_lin))
    rng = np.random.default_rng(22)
    t_ram = np.arange(0.0, 45.0, 3.0)
    y_ram = (0.45 * np.exp(-t_ram / 30.0) *
             np.cos(2e-3 * math.pi * 75.0 * t_ram)
             + 0.5 + rng.normal(0, 0.01, len(t_ram)))
    rng = np.random.default_rng(23)
    t_era = np.linspace(0, 90, 16)
    y_era = (0.6 * (1 - np.exp(-t_era / 40.0)) + 0.02
             + rng.normal(0, 0.01, 16))
    return {"linear": (t_lin, y_lin), "ramsey": (t_ram, y_ram),
            "erasure": (t_era, y_era)}


class TestBootstrapReference:
    def _assert_same_bounds(self, fit, refit, seed):
        expected = per_resample_bounds(fit, refit, seed=seed)
        got = bootstrap_bounds(fit, seed=seed)
        assert got.keys() == expected.keys()
        for k in got:
            assert got[k] == pytest.approx(expected[k], rel=1e-6), k

    def test_linear_matches_per_resample_refits(self):
        fit = fit_linear_short(*reference_traces()["linear"])
        self._assert_same_bounds(
            fit, lambda d, v: fit_linear_short(d, v, cutoff_us=fit.window_us),
            seed=4)

    def test_ramsey_matches_per_resample_refits(self):
        fit = fit_ramsey(*reference_traces()["ramsey"])
        self._assert_same_bounds(fit, fit_ramsey, seed=5)

    def test_erasure_matches_per_resample_refits(self):
        fit = fit_erasure(*reference_traces()["erasure"])
        self._assert_same_bounds(fit, fit_erasure, seed=6)

    def test_unknown_model_is_an_error_not_a_drop(self):
        t = np.linspace(0, 30, 8)
        fit = FitResult("bogus", {"x": 1.0}, t, np.zeros(8), np.full(8, 0.01))
        with pytest.raises(ValueError, match="bogus"):
            bootstrap_bounds(fit, seed=1)
        assert fit.bounds is None and "bootstrap" not in fit.diagnostics

    RAMSEY_PARAMS = {"A": 0.4, "T2R_us": math.inf, "delta_f_khz": 75.0,
                     "phi0_rad": 0.0, "C": 0.5, "rate_per_us": 0.0}

    def test_nonuniform_ramsey_is_an_error_not_a_drop(self):
        t = np.array([0.0, 2.0, 5.0, 9.0, 14.0, 20.0, 27.0, 35.0, 44.0, 54.0])
        fitted = 0.5 + 0.4 * np.cos(2e-3 * math.pi * 75.0 * t)
        resid = np.random.default_rng(3).normal(0, 0.01, len(t))
        fit = FitResult("ramsey", self.RAMSEY_PARAMS, t, fitted, resid)
        with pytest.raises(ConfigError, match="uniformly spaced"):
            bootstrap_bounds(fit, seed=2)
        assert fit.bounds is None and "bootstrap" not in fit.diagnostics

    def test_refits_without_oscillation_drop_every_row(self):
        # every synthetic trace is flat, so each refit finds its
        # periodogram peak at DC
        t = np.arange(0.0, 45.0, 3.0)
        fit = FitResult("ramsey", self.RAMSEY_PARAMS, t, np.full(15, 0.5),
                        np.zeros(15))
        with pytest.raises(ResampleError, match="250/250"):
            bootstrap_bounds(fit, seed=2)


class TestFitTrace:
    def make(self, n10, n01, init):
        n = len(n10)
        return TraceData(delays_us=np.arange(n) * 5.0, n00=np.zeros(n),
                         n01=n01, n10=n10, n_total=np.full(n, 1000),
                         init_label=init)

    def test_bitflip_needs_both_inits(self):
        tr = self.make(np.full(6, 990), np.full(6, 10), "10")
        with pytest.raises(ConfigError, match="init 10 and 01"):
            fit_trace("bitflip", [tr], DEFAULT_FIT_WINDOW_US)

    def test_unknown_kind(self):
        tr = self.make(np.full(6, 500), np.full(6, 500), "+")
        with pytest.raises(ConfigError, match="unknown analysis kind"):
            fit_trace("rabi", [tr], DEFAULT_FIT_WINDOW_US)

    def test_physical_echo_fits_the_named_mode(self):
        n10 = np.array([1000, 990, 980, 970, 960, 950])
        tr = self.make(n10, 1000 - n10, "+D")
        fit = fit_trace("phys_echo", [tr], DEFAULT_FIT_WINDOW_US)
        assert fit.params["gamma_per_ms"] == pytest.approx(2.0)
        fit_q = fit_trace("phys_echo", [self.make(1000 - n10, n10, "+Q")],
                          DEFAULT_FIT_WINDOW_US)
        assert fit_q.params["gamma_per_ms"] == pytest.approx(2.0)


class TestTraceCsv:
    def test_roundtrip(self, tmp_path):
        delays = np.array([0.0, 10.0, 25.0])
        t0 = TraceData(delays_us=delays, n00=[1, 2, 3], n01=[4, 5, 6],
                       n10=[5, 3, 1], n_total=[10, 10, 10],
                       init_label="10", timestamp_s=100.0)
        t1 = TraceData(delays_us=delays, n00=[0, 1, 2], n01=[9, 8, 7],
                       n10=[1, 1, 1], n_total=[10, 10, 10],
                       init_label="01", timestamp_s=100.0)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, [t0, t1])
        back = read_trace_csv(path)
        by_init = {t.init_label: t for t in back}
        assert np.array_equal(by_init["10"].n01, t0.n01)
        assert np.array_equal(by_init["01"].n00, t1.n00)
        assert by_init["10"].timestamp_s == 100.0

    def test_corrupt_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("delay_us,n00,n01,n10,n_total,init_label,timestamp_s\n"
                        "0.0,1,2,3,10,01,0.0\n"
                        "5.0,oops,2,3,10,01,0.0\n")
        with pytest.raises(ConfigError, match="line 3"):
            read_trace_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ConfigError, match="line 1"):
            read_trace_csv(path)

    @pytest.mark.parametrize("row", ["nan,1,2,3,10,01,0.0",
                                     ",1,2,3,10,01,0.0",
                                     "5.0,1,2,3,10,01,inf",
                                     "5.0,1,2,3,10,01,"])
    def test_non_finite_delay_or_timestamp_rejected(self, tmp_path, row):
        path = tmp_path / "nan.csv"
        path.write_text(",".join(TRACE) + "\n" + row + "\n")
        with pytest.raises(ConfigError, match="finite"):
            read_trace_csv(path)

    def test_count_invariants(self):
        with pytest.raises(ConfigError):
            TraceData(delays_us=[0, 1], n00=[5, 5], n01=[5, 5], n10=[5, 5],
                      n_total=[10, 10])
        with pytest.raises(ConfigError):
            TraceData(delays_us=[1, 1], n00=[0, 0], n01=[1, 1], n10=[1, 1],
                      n_total=[5, 5])

    @pytest.mark.parametrize("counts", [
        dict(n00=[-50, 0], n01=[0, 0], n10=[0, 0], n_total=[0, 10]),
        dict(n00=[0, 0], n01=[0, -1], n10=[5, 5], n_total=[10, 10]),
        dict(n00=[0, 0], n01=[0, 0], n10=[0, 0], n_total=[0, 10]),
    ], ids=["negative-n00", "negative-n01", "zero-total"])
    def test_negative_counts_or_empty_points_rejected(self, counts):
        with pytest.raises(ConfigError, match="n_total >= 1"):
            TraceData(delays_us=[0, 1], **counts)


class TestSolver:
    def test_jacobian_matches_analytic(self):
        t = np.linspace(0, 10, 30)

        def resid(theta):
            return theta[0] * np.exp(-theta[1] * t) - 1.0

        x = np.array([2.0, 0.3])
        jac = numeric_jacobian(resid, x)
        assert np.allclose(jac[:, 0], np.exp(-0.3 * t), rtol=1e-6)
        assert np.allclose(jac[:, 1], -2.0 * t * np.exp(-0.3 * t), rtol=1e-5)

    def test_converges_to_least_squares_solution(self):
        rng = np.random.default_rng(2)
        t = np.linspace(0, 5, 40)
        y = 3.0 * np.exp(-0.7 * t) + rng.normal(0, 0.01, 40)

        def resid(theta):
            return theta[0] * np.exp(-theta[1] * t) - y

        x, info = lm_least_squares(resid, np.array([1.0, 0.2]))
        assert info["converged"]
        assert x[0] == pytest.approx(3.0, rel=0.02)
        assert x[1] == pytest.approx(0.7, rel=0.02)

    def test_jacobian_is_one_stacked_call(self):
        t = np.linspace(0, 10, 30)
        shapes = []

        def resid(theta):
            shapes.append(np.shape(theta))
            return theta[0] * np.exp(-theta[1] * t) + theta[2]

        x = np.array([2.0, 0.3, -40.0])
        jac = numeric_jacobian(resid, x)
        assert shapes == [(3, 6, 1)]
        for j in range(3):
            h = 1e-6 * max(abs(x[j]), 1.0)
            step = np.zeros(3)
            step[j] = h
            column = (resid(x + step) - resid(x - step)) / (2.0 * h)
            assert np.allclose(jac[:, j], column, rtol=1e-8, atol=0)

    def test_info_holds_python_scalars(self):
        t = np.linspace(0, 5, 40)
        y = 3.0 * np.exp(-0.7 * t)

        def resid(theta):
            return theta[0] * np.exp(-theta[1] * t) - y

        for x0 in ([3.0, 0.7], [0.5, 3.0]):
            x, info = lm_least_squares(resid, np.array(x0))
            assert type(info["iterations"]) is int
            assert type(info["converged"]) is bool
            assert info["converged"]
            assert x == pytest.approx([3.0, 0.7], rel=1e-8)

    def test_non_finite_trial_cost_is_rejected(self):
        # from a far start the first Gauss-Newton steps overflow exp(); such
        # a trial must raise the damping, never end the fit
        t = np.linspace(0, 100, 20)
        y = np.exp(0.02 * t)
        finite = []

        def resid(theta):
            r = np.exp(theta[0] * t) - y
            if np.ndim(theta) == 1:
                finite.append(bool(np.all(np.isfinite(r))))
            return r

        with np.errstate(over="ignore"):
            x, info = lm_least_squares(resid, np.array([-1.0]))
        assert not all(finite)
        assert info["converged"]
        assert x[0] == pytest.approx(0.02, rel=1e-8)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_initial_cost_is_not_converged(self, bad):
        def resid(theta):
            return np.array([theta[0] - 1.0, bad])

        x, info = lm_least_squares(resid, np.array([3.0]))
        assert not info["converged"]
        assert info["message"] == "initial cost is not finite"
        assert info["iterations"] == 0
        assert x.tolist() == [3.0]


class TestClosedFormJacobians:
    @pytest.mark.parametrize("theta", [[0.45, 1 / 30.0, 75.0, 0.3, 0.5],
                                       [-0.4, 0.0, -80.0, -1.0, 0.2],
                                       [1.2, 0.1, 20.0, 2.5, -0.1]])
    def test_ramsey_matches_numeric(self, theta):
        t, y = reference_traces()["ramsey"]
        theta = np.array(theta)
        num = numeric_jacobian(lambda th: y - metrology._ramsey_model(th, t),
                               theta)
        np.testing.assert_allclose(metrology._ramsey_jacobian(theta, t), num,
                                   rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("theta", [[0.6, 1 / 40.0, 0.02],
                                       [-0.3, 0.0, 0.1],
                                       [1.0, 0.5, -0.2]])
    def test_erasure_matches_numeric(self, theta):
        t, y = reference_traces()["erasure"]
        theta = np.array(theta)
        num = numeric_jacobian(lambda th: y - metrology._erasure_model(th, t),
                               theta)
        np.testing.assert_allclose(metrology._erasure_jacobian(theta, t), num,
                                   rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("trace, fit, model", [
        ("ramsey", fit_ramsey, metrology._ramsey_model),
        ("erasure", fit_erasure, metrology._erasure_model),
        ("linear", fit_erasure, metrology._erasure_model),  # falling: A < 0
    ])
    def test_fit_matches_numeric_jacobian_run(self, monkeypatch, trace, fit,
                                              model):
        t, y = reference_traces()[trace]
        runs = []

        def spy(fun, x0, jacobian=None):
            out = lm_least_squares(fun, x0, jacobian=jacobian)
            runs.append((x0, out[0]))
            return out

        monkeypatch.setattr(metrology, "lm_least_squares", spy)
        with np.errstate(over="ignore"):
            fit(t, y)
            (x0, x), = runs
            ref, info = lm_least_squares(lambda th: y - model(th, t), x0)
        assert info["converged"]
        assert x == pytest.approx(ref, rel=1e-6)


class TestStalledCostStop:
    def test_ramsey_fit_ends_on_stalled_cost(self):
        fit = fit_ramsey(*reference_traces()["ramsey"])
        assert fit.diagnostics["converged"]
        assert fit.diagnostics["message"] == "cost change below tolerance"

    def test_bootstrap_refits_reject_few_trial_steps(self, monkeypatch):
        # with the closed-form Jacobian every residual call after the first
        # is one trial step; all but the rejected ones start an iteration
        # (a stationary-point exit ends on 40 rejected trials)
        fit = fit_ramsey(*reference_traces()["ramsey"])
        counts = {"iterations": 0, "rejected": 0}

        def spy(fun, x0, jacobian=None):
            calls = []

            def counted(theta):
                calls.append(1)
                return fun(theta)

            x, info = lm_least_squares(counted, x0, jacobian=jacobian)
            stationary = info["message"].startswith("no downhill step")
            accepted = info["iterations"] - int(stationary)
            counts["iterations"] += info["iterations"]
            counts["rejected"] += len(calls) - 1 - accepted
            return x, info

        monkeypatch.setattr(metrology, "lm_least_squares", spy)
        bootstrap_bounds(fit, seed=5)
        assert counts["iterations"] > BOOTSTRAP_RESAMPLES
        assert counts["rejected"] < 0.05 * counts["iterations"]

    @pytest.mark.parametrize("seed", [0, 13])
    def test_runaway_leakage_fit_is_not_converged(self, seed):
        # the leakage time constant (300 us) is a few times the delay span:
        # the fit runs away along a flat valley and must still fail after
        # the iteration cap rather than stop on a small cost change
        t = np.linspace(0, 115, 24)
        y = (0.02 + 0.1 * (1 - np.exp(-t / 300.0))
             + np.random.default_rng(seed).normal(0, 0.002, 24))
        with pytest.raises(FitConvergenceError) as err:
            fit_erasure(t, y)
        assert err.value.diagnostics["iterations"] == 500
        assert err.value.diagnostics["message"] == "max iterations reached"
