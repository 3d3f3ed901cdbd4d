import filecmp
import json
import math
import os
import shutil

import numpy as np
import pytest

from ddqsim.campaign import (CampaignConfig, DEFAULT_DELAYS_US, MetricPoint,
                             MOVING_AVERAGE_WINDOW, moving_average,
                             read_metrics_csv, run_campaign,
                             simulate_counts_trace, summarize,
                             write_metrics_csv)
from ddqsim import metrology
from ddqsim.device import load_device
from ddqsim.errors import ConfigError, FitConvergenceError
from ddqsim.noise import NoiseProcess


def tiny_config(seed=42, **overrides):
    base = dict(
        devices=["q1"], experiments=["bitflip", "ramsey"], repetitions=2,
        seed=seed, shots_per_point=200,
        delays_us={"bitflip": [0, 10, 20, 30, 60, 120],
                   "ramsey": [0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33],
                   "phys_t1": [0, 20, 50, 100, 160]},
        noise=[NoiseProcess("white", 2000.0,
                            coupling="differential_D").to_dict()],
        shots_physical=200, bootstrap_resamples=20, readout_enabled=False,
    )
    base.update(overrides)
    return CampaignConfig(**base)


def archive_digest(root):
    digest = {}
    for dirpath, _, files in os.walk(root):
        for fn in sorted(files):
            p = os.path.join(dirpath, fn)
            with open(p, "rb") as fh:
                digest[os.path.relpath(p, root)] = fh.read()
    return digest


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            tiny_config(repetitions=0)
        with pytest.raises(ConfigError):
            tiny_config(shots_per_point=10)
        with pytest.raises(ConfigError):
            tiny_config(experiments=["bitflip", "rabi"])
        with pytest.raises(ConfigError):
            tiny_config(devices=[])
        with pytest.raises(ConfigError):
            tiny_config(delays_us={"ramsey": [5, 5, 10]})

    def test_defaults_fill_missing_grids(self):
        cfg = tiny_config(delays_us={})
        assert cfg.delays_us["hahn_echo"] == DEFAULT_DELAYS_US["hahn_echo"]

    def test_roundtrip_and_hash(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "camp.json"
        path.write_text(json.dumps(cfg.to_dict()))
        cfg2 = CampaignConfig.from_json(path)
        assert cfg2.to_dict() == cfg.to_dict()
        assert cfg2.config_hash() == cfg.config_hash()

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            CampaignConfig.from_json("/no/such/campaign.json")


class TestSimulateCountsTrace:
    def test_bitflip_returns_both_inits(self):
        params = load_device("q1")
        traces = simulate_counts_trace(params, "bitflip", [0, 20, 40], 300,
                                       seed=5)
        assert {t.init_label for t in traces} == {"10", "01"}
        for t in traces:
            assert np.all(t.n00 + t.n01 + t.n10 == t.n_total)

    def test_thread_count_does_not_change_counts(self):
        params = load_device("q1")
        kw = dict(seed=9, noise=(NoiseProcess("white", 1000.0,
                                              coupling="differential_Q"),))
        a = simulate_counts_trace(params, "ramsey", [0, 5, 10, 15], 400,
                                  threads=1, **kw)
        b = simulate_counts_trace(params, "ramsey", [0, 5, 10, 15], 400,
                                  threads=4, **kw)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.n01, tb.n01)
            assert np.array_equal(ta.n10, tb.n10)

    def test_phys_t1_trace_decays(self):
        params = load_device("q1")
        tr, = simulate_counts_trace(params, "phys_t1", [0, 30, 60, 120, 250],
                                    2000, seed=3, init="01")
        p00 = tr.p00()
        assert p00[0] < 0.05
        assert p00[-1] > 0.9


class TestRunCampaign:
    def test_byte_reproducible(self, tmp_path):
        cfg = tiny_config()
        rows1 = run_campaign(cfg, tmp_path / "a")
        rows2 = run_campaign(cfg, tmp_path / "b")
        assert archive_digest(tmp_path / "a") == archive_digest(tmp_path / "b")
        assert len(rows1) == len(rows2)

    def test_interleaving_fairness(self, tmp_path):
        cfg = tiny_config(repetitions=3)
        run_campaign(cfg, tmp_path / "c")
        names = os.listdir(tmp_path / "c" / "traces")
        for exp in ("bitflip", "ramsey", "phys_t1_D", "phys_t1_Q"):
            assert sum(1 for n in names if n.endswith(f"{exp}.csv")) == 3

    def test_resume_matches_uninterrupted(self, tmp_path):
        cfg = tiny_config(repetitions=2)
        run_campaign(cfg, tmp_path / "full")
        run_campaign(cfg, tmp_path / "parts", stop_after=3)
        assert not json.load(open(tmp_path / "parts" / "manifest.json"))[
            "completed"]
        run_campaign(cfg, tmp_path / "parts", resume=True)
        assert archive_digest(tmp_path / "full") == \
            archive_digest(tmp_path / "parts")

    def test_resume_rejects_changed_config(self, tmp_path):
        cfg = tiny_config()
        run_campaign(cfg, tmp_path / "d", stop_after=2)
        other = tiny_config(seed=77)
        with pytest.raises(ConfigError, match="different config"):
            run_campaign(other, tmp_path / "d", resume=True)

    def test_metrics_and_timestamps(self, tmp_path):
        cfg = tiny_config()
        rows = run_campaign(cfg, tmp_path / "e")
        by_metric = {}
        for r in rows:
            by_metric.setdefault(r.metric, []).append(r.timestamp_s)
        for metric, stamps in by_metric.items():
            assert np.all(np.diff(stamps) > 0), metric
        assert "t1l_us" in by_metric and "t2rl_us" in by_metric
        assert "phys_t1_d_us" in by_metric
        # bounds bracket estimates where present
        for r in rows:
            if math.isfinite(r.lower):
                assert r.lower <= r.estimate <= r.upper

    def test_persistent_telegraph_shifts_fitted_detuning(self, tmp_path):
        proc = NoiseProcess("telegraph", 3e4, coupling="differential_D",
                            switching_rate_hz=1.0 / 800.0, persistent=True)
        cfg = tiny_config(
            experiments=["ramsey"], repetitions=24, physical_refs=False,
            noise=[proc.to_dict()], bootstrap_resamples=0,
            shots_per_point=300, interval_s=100.0,
            delays_us={"ramsey": list(np.arange(0.0, 120.0, 5.0))})
        rows = run_campaign(cfg, tmp_path / "tg")
        dfs = np.array([r.estimate for r in rows if r.metric == "delta_f_hz"])
        # the frozen telegraph state sits at +-15 kHz around 75 kHz
        lo, hi = dfs.min(), dfs.max()
        assert lo == pytest.approx(60e3, rel=0.05)
        assert hi == pytest.approx(90e3, rel=0.05)
        # and it persists across traces: few jumps, not per-trace resampling
        jumps = np.sum(np.abs(np.diff(dfs)) > 10e3)
        assert jumps <= 8
        assert (tmp_path / "tg" / "freq_q1.csv").exists()

    def test_readout_chain_runs(self, tmp_path):
        cfg = tiny_config(readout_enabled=True, repetitions=1,
                          experiments=["bitflip"], physical_refs=False)
        rows = run_campaign(cfg, tmp_path / "ro")
        assert any(r.metric == "t1l_us" for r in rows)

    def test_full_physical_references(self, tmp_path):
        cfg = tiny_config(
            repetitions=1, experiments=["ramsey"], physical_refs="full",
            noise=[NoiseProcess("white", 9000.0, coupling="common").to_dict(),
                   NoiseProcess("white", 500.0,
                                coupling="differential_Q").to_dict()],
            delays_us={"ramsey": list(np.arange(0.0, 45.0, 3.0)),
                       "phys_ramsey": list(np.arange(0.0, 45.0, 3.0)),
                       "phys_t1": [0, 20, 50, 100, 160],
                       "phys_echo": [0, 5, 10, 15, 20, 25, 30, 60, 120]})
        rows = run_campaign(cfg, tmp_path / "full")
        got = {r.metric: r.estimate for r in rows}
        for metric in ("phys_t2e_d_us", "phys_t2e_q_us", "phys_t2r_d_us",
                       "phys_t2r_q_us", "t2rl_us"):
            assert metric in got
        # common noise dephases the bare modes but not the encoded qubit
        assert got["t2rl_us"] > 3 * got["phys_t2r_d_us"]
        t2r_expect = 1e6 / (np.pi**2 * 9000.0)
        assert got["phys_t2r_q_us"] == pytest.approx(t2r_expect, rel=0.25)


class TestFitGaps:
    """Only the expected fit failures become gaps in the archive."""

    def test_programming_error_aborts_campaign(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("bug in the fit")
        monkeypatch.setattr(metrology, "fit_ramsey", broken)
        with pytest.raises(ValueError, match="bug in the fit"):
            run_campaign(tiny_config(repetitions=1), tmp_path / "v")

    def test_nonconverging_fit_leaves_a_gap(self, tmp_path, monkeypatch):
        def stalled(*args, **kwargs):
            raise FitConvergenceError("oscillation fit did not converge")
        monkeypatch.setattr(metrology, "fit_ramsey", stalled)
        rows = run_campaign(tiny_config(repetitions=1), tmp_path / "g")
        metrics = [r.metric for r in rows]
        # the gap takes the whole ramsey trace; the other traces are fitted
        assert metrics == ["t1l_us", "gamma_erasure_per_ms", "phys_t1_d_us",
                           "phys_t1_q_us"]
        manifest = json.load(open(tmp_path / "g" / "manifest.json"))
        assert manifest["completed"]


class TestSeriesUtilities:
    def test_moving_average_window_one_is_identity(self):
        v = np.random.default_rng(0).normal(size=40)
        assert np.allclose(moving_average(v, 1), v)

    def test_constant_series_unchanged(self):
        assert np.allclose(moving_average(np.full(30, 2.5), 7), 2.5)

    def test_step_becomes_ramp_of_window_width(self):
        v = np.concatenate([np.zeros(100), np.ones(100)])
        out = moving_average(v, 50)
        ramp = np.flatnonzero((out > 1e-12) & (out < 1 - 1e-12))
        assert len(ramp) == 49
        assert np.all(np.diff(out[ramp]) > 0)

    def test_nan_gaps_skipped(self):
        v = np.array([1.0, math.nan, 1.0, 1.0, math.nan, 1.0])
        out = moving_average(v, 3)
        assert np.allclose(out[~np.isnan(v)], 1.0)

    def test_window_default_is_protocol_constant(self):
        assert MOVING_AVERAGE_WINDOW == 50

    def test_summarize_single_value(self):
        s = summarize({"x": [4.2]})
        assert s["x"]["median"] == s["x"]["q1"] == s["x"]["q3"] == 4.2

    def test_summarize_small_set(self):
        s = summarize({"x": [1, 2, 3, 4, 5]})
        assert (s["x"]["median"], s["x"]["q1"], s["x"]["q3"]) == (3, 2, 4)

    def test_summarize_outliers(self):
        vals = list(np.arange(1, 20.0)) + [1000.0]
        s = summarize({"x": vals})
        assert s["x"]["outliers"] == [1000.0]
        assert s["x"]["whisker_hi"] <= 19.0

    def test_summarize_lognormal_median(self):
        rng = np.random.default_rng(50)
        vals = rng.lognormal(mean=1.0, sigma=0.5, size=1750)
        s = summarize({"x": list(vals)})
        assert s["x"]["median"] == pytest.approx(math.exp(1.0), rel=0.03)

    def test_metrics_csv_roundtrip(self, tmp_path):
        rows = [MetricPoint(0.0, "q1", "t1l_us", 1900.0, 1700.0, 2100.0),
                MetricPoint(100.0, "q1", "t2rl_us", 66.0)]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, rows)
        back = read_metrics_csv(path)
        assert back[0].lower == 1700.0
        assert math.isnan(back[1].lower)
        assert back[1].estimate == 66.0
