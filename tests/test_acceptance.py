"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Statistical criteria use
fixed seeds, so outcomes are reproducible.
"""

import json
import math
import os
import time

import numpy as np

from ddqsim.campaign import (CampaignConfig, run_campaign, MOVING_AVERAGE_WINDOW,
                             simulate_counts_trace)
from ddqsim.device import load_device
from ddqsim.dynamics import (DEFAULT_DETUNING_KHZ, IDX_10, PulseSequence,
                             build_rate_matrix, propagate_exact,
                             run_sequence_batch)
from ddqsim.metrology import (BOOTSTRAP_QUANTILE, BOOTSTRAP_RESAMPLES,
                              DEFAULT_FIT_WINDOW_US, bitflip_difference,
                              bitflip_probability, bootstrap_bounds,
                              fit_erasure, fit_linear_short, fit_ramsey,
                              postselect)
from ddqsim.noise import NoiseProcess, synthesize_noise
from ddqsim.noise_analysis import (FrequencySeries, fit_allan_model,
                                   fit_psd_model, flag_allan_bumps,
                                   overlapping_allan, welch_psd)
from ddqsim.readout import (ReadoutModel, classify_batch, confusion_matrix,
                            default_blob_means, fit_gmm, sample_iq_batch)


def report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num:>2} {'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def lossless(params):
    return params.with_(T1_D_us=1e12, T1_Q_us=1e12, n_th_D=0.0, n_th_Q=0.0)


def archive_digest(root):
    digest = {}
    for dirpath, _, files in os.walk(root):
        for fn in sorted(files):
            p = os.path.join(dirpath, fn)
            with open(p, "rb") as fh:
                digest[os.path.relpath(p, root)] = fh.read()
    return digest


def test_c01_erasure_conversion_identity():
    t0 = time.perf_counter()
    params = load_device("q1").with_(n_th_D=0.0, n_th_Q=0.0)
    delays = [5.0, 15.0, 30.0, 60.0, 120.0, 200.0]
    shots = 10_000
    worst = 0.0
    for j, delay in enumerate(delays):
        counts = {}
        for init in ("10", "01"):
            batch = run_sequence_batch(params,
                                       PulseSequence("bitflip", init, delay),
                                       seed=1000 + j, n_shots=shots)
            c = batch.counts()
            counts[init] = (int(c[0]), int(c[1]), int(c[2]))
        _, p1l_given_0, _ = postselect(*counts["10"])
        p0l_given_1, _, _ = postselect(*counts["01"])
        p_flip = bitflip_probability(p1l_given_0, p0l_given_1)
        # 3-sigma binomial band around zero at the surviving-shot count
        n_kept = min(sum(counts["10"][1:]), sum(counts["01"][1:]))
        bound = 3.0 * math.sqrt(p_flip * (1 - p_flip) / n_kept + 1e-12)
        worst = max(worst, p_flip - bound)
        assert p_flip <= bound
    elapsed = time.perf_counter() - t0
    report(1, "erasure-conversion identity",
           worst <= 0 and elapsed < 10.0,
           f"bit-flip probability 0 within 3 sigma at all {len(delays)} "
           f"delays, {shots} shots/point, {elapsed:.1f}s (< 10 s)")


def test_c02_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    base = load_device("q1")
    worst_tv = 0.0
    shots = 50_000
    for k in range(5):
        params = base.with_(
            T1_D_us=float(rng.uniform(15, 120)),
            T1_Q_us=float(rng.uniform(15, 120)),
            n_th_D=float(rng.uniform(0, 0.1)),
            n_th_Q=float(rng.uniform(0, 0.1)))
        rates = build_rate_matrix(params)
        t_short = 0.7 * min(params.T1_D_us, params.T1_Q_us)
        t_long = 2.0 * max(params.T1_D_us, params.T1_Q_us)
        for init, p0 in (("01", [0, 1, 0, 0, 0, 0]), ("11", [0, 0, 0, 1, 0, 0])):
            for t in (t_short, t_long):
                batch = run_sequence_batch(
                    params, PulseSequence("bitflip", init, t),
                    seed=2000 + k, n_shots=shots)
                tv = 0.5 * np.abs(batch.level_fractions()
                                  - propagate_exact(rates, p0, t)).sum()
                worst_tv = max(worst_tv, tv)
    elapsed = time.perf_counter() - t0
    report(2, "oracle equivalence",
           worst_tv <= 0.01 and elapsed < 60.0,
           f"worst TV distance {worst_tv:.4f} (<= 0.01) over 5 random "
           f"parameter sets, {shots} shots each, {elapsed:.1f}s (< 60 s)")


def test_c03_logical_bitflip_improvement():
    params = load_device("q1")        # ships n_th = 0.02
    delays = np.arange(0.0, 31.0, 2.0)
    shots = 300_000

    rates = build_rate_matrix(params)

    def oracle_difference(t):
        p0 = propagate_exact(rates, [0, 0, 1, 0, 0, 0], t)
        p1 = propagate_exact(rates, [0, 1, 0, 0, 0, 0], t)
        n01_0, n10_0 = p0[1] + p0[3] + p0[4], p0[2] + p0[5]
        n01_1, n10_1 = p1[1] + p1[3] + p1[4], p1[2] + p1[5]
        return n01_1 / (n01_1 + n10_1) - n01_0 / (n01_0 + n10_0)

    oracle = np.array([oracle_difference(t) for t in delays])
    gamma_oracle = fit_linear_short(delays, oracle).params["gamma_per_ms"]

    trace0, trace1 = simulate_counts_trace(params, "bitflip", delays, shots,
                                           seed=42)
    d, diff = bitflip_difference(trace0, trace1)
    gamma_fit = fit_linear_short(d, diff).params["gamma_per_ms"]
    t1l_us = 1e3 / gamma_fit

    phys = []
    for init in ("10", "01"):
        tr, = simulate_counts_trace(
            params, "phys_t1", [0, 15, 30, 50, 75, 100, 130, 160, 200, 250],
            30_000, seed=43, init=init)
        phys.append(fit_erasure(tr.delays_us, tr.p00()).params["T_erasure_us"])
    phys_median = float(np.median(phys))

    slope_err = abs(gamma_fit / gamma_oracle - 1)
    ratio = t1l_us / phys_median
    report(3, "logical bit-flip improvement",
           ratio >= 10.0 and slope_err <= 0.05,
           f"T1L = {t1l_us:.0f} us vs physical median {phys_median:.1f} us "
           f"({ratio:.0f}x >= 10x); fitted slope within "
           f"{100 * slope_err:.1f}% of oracle (<= 5%)")


def test_c04_common_noise_protection():
    params = lossless(load_device("q1"))
    phases_ok = True
    for kind, extra in (("white", {}), ("one_over_f", {}),
                        ("telegraph", {"switching_rate_hz": 1e4})):
        for amplitude in (1e2, 1e5, 1e9):
            proc = NoiseProcess(kind, amplitude, coupling="common", **extra)
            batch = run_sequence_batch(params,
                                       PulseSequence("ramsey", "+", 60.0),
                                       (proc,), seed=3000, n_shots=2000)
            phases_ok &= bool(np.all(batch.phase_rad == 0.0))

    s_f = 2000.0
    proc = NoiseProcess("white", s_f, coupling="differential_Q")
    delays = np.arange(0.0, 150.0, 5.0)
    p0l = []
    for j, t in enumerate(delays):
        batch = run_sequence_batch(params, PulseSequence("ramsey", "+", t),
                                   (proc,), seed=3100 + j, n_shots=2000)
        p0l.append(np.mean(batch.levels == IDX_10))
    fit = fit_ramsey(delays, np.array(p0l), detuning_hint_khz=75.0)
    bounds = bootstrap_bounds(fit, seed=9)
    rate = fit.params["rate_per_us"]
    lo, hi = bounds["rate_per_us"]
    sigma = (hi - lo) / (2 * 1.645)
    significance = rate / sigma if sigma > 0 else math.inf
    report(4, "common-noise protection",
           phases_ok and significance > 5.0,
           f"common-coupled phase exactly 0 for 9 process/amplitude combos; "
           f"same process differential: 1/T2R = {rate:.2e}/us at "
           f"{significance:.0f} sigma (> 5)")


def test_c05_white_noise_dephasing_oracle():
    t0 = time.perf_counter()
    params = lossless(load_device("q1"))
    worst = 0.0
    details = []
    for k, s_f in enumerate((337.7, 3377.4, 33774.0)):   # two decades
        rate_true = math.pi**2 * s_f * 1e-6               # per us
        span = 3.0 / rate_true
        delays = np.linspace(0.0, span, 25)
        detuning_khz = 3.0 / span * 1e3                   # 3 periods per trace
        proc = NoiseProcess("white", s_f, coupling="differential_Q")
        p0l = []
        for j, t in enumerate(delays):
            batch = run_sequence_batch(
                params, PulseSequence("ramsey", "+", t, detuning_khz),
                (proc,), seed=4000 + 100 * k + j, n_shots=3000)
            p0l.append(np.mean(batch.levels == IDX_10))
        fit = fit_ramsey(delays, np.array(p0l),
                         detuning_hint_khz=detuning_khz)
        err = abs(fit.params["rate_per_us"] / rate_true - 1)
        worst = max(worst, err)
        details.append(f"S_f={s_f:g}: {100 * err:.1f}%")
    elapsed = time.perf_counter() - t0
    report(5, "white-noise dephasing oracle",
           worst <= 0.10 and elapsed < 120.0,
           f"fitted rate vs pi^2 S_f: {', '.join(details)} (all <= 10%), "
           f"{elapsed:.0f}s (< 2 min)")


def test_c06_spectral_recovery():
    a_plant, b_plant = 5.9e5, 0.5e6
    n = 2048
    crossover_s = b_plant / (4 * math.log(2) * a_plant)
    tau0 = crossover_s / 8.0
    dur_us, dt_us = n * tau0 * 1e6, tau0 * 1e6
    white = synthesize_noise(NoiseProcess("white", b_plant), dur_us, dt_us,
                             seed=60)
    pink = synthesize_noise(NoiseProcess("one_over_f", a_plant), dur_us,
                            dt_us, seed=61)
    series = FrequencySeries(values=white + pink, tau0_s=tau0)

    freqs, psd = welch_psd(series)
    a_psd, b_psd, _ = fit_psd_model(freqs, psd)
    psd_ok = (abs(a_psd / a_plant - 1) <= 0.20
              and abs(b_psd / b_plant - 1) <= 0.20)

    curve = overlapping_allan(series)
    a_allan, b_allan, _ = fit_allan_model(curve.tau_s, curve.sigma_hz)
    allan_ok = (abs(a_allan / a_plant - 1) <= 0.30
                and abs(b_allan / b_plant - 1) <= 0.30)

    detail = (f"PSD fit A/B = {a_psd / a_plant:.2f}x/{b_psd / b_plant:.2f}x "
              f"of plant (tol 20%); Allan fit A/B = {a_allan / a_plant:.2f}x/"
              f"{b_allan / b_plant:.2f}x (tol 30%)")
    report(6, "spectral recovery", psd_ok and allan_ok, detail)


def test_c07_telegraph_signature(tmp_path):
    proc = NoiseProcess("telegraph", 30e3, coupling="differential_D",
                        switching_rate_hz=1.0 / 28800.0, persistent=True)
    cfg = CampaignConfig(
        devices=["q1"], experiments=["ramsey"], repetitions=1750, seed=4242,
        shots_per_point=300, physical_refs=False, readout_enabled=False,
        bootstrap_resamples=0, interval_s=100.0, noise=[proc.to_dict()],
        delays_us={"ramsey": list(np.arange(0.0, 120.0, 5.0))})
    rows = run_campaign(cfg, tmp_path / "telegraph")
    dfs = [(r.timestamp_s, r.estimate) for r in rows
           if r.metric == "delta_f_hz"]
    ts, vals = np.array(dfs).T
    series = FrequencySeries.from_timestamps(ts, vals, source="logical")
    curve = overlapping_allan(series)
    mask, _, _ = flag_allan_bumps(curve)
    flagged = curve.tau_s[mask]
    in_band = flagged[(flagged >= 5e3) & (flagged <= 5e4)]
    report(7, "telegraph signature", in_band.size >= 1,
           f"Allan bump flagged at tau = {sorted(in_band.tolist())} s "
           f"within the 5e3-5e4 s band (1750-trace virtual campaign)")


def test_c08_readout_classification():
    params = load_device("q1")
    model = ReadoutModel(means=default_blob_means(1.0, 6.0), sigma=1.0,
                         t_ro_us=0.0)
    counts = [3334, 3333, 3333]
    levels_train = np.concatenate([np.full(c, i) for i, c in enumerate(counts)])
    labels_train = np.array(["00", "01", "10"]).repeat(counts)
    clf = fit_gmm(sample_iq_batch(levels_train, model, params, seed=50),
                  labels_train)

    n_test = 100_002
    levels_test = np.tile([0, 1, 2], n_test // 3)
    labels_test = np.array(["00", "01", "10"] * (n_test // 3))
    iq = sample_iq_batch(levels_test, model, params, seed=51)
    assigned = classify_batch(clf, iq)
    misassigned = float(np.mean(assigned != levels_test))

    mat = confusion_matrix(clf, iq, labels_test)
    rows_ok = bool(np.allclose(mat.sum(axis=1), 1.0, atol=1e-12))

    decay_model = ReadoutModel(means=default_blob_means(1.0, 6.0), sigma=1.0,
                               t_ro_us=0.1 * params.T1_Q_us)
    iq_decay = sample_iq_batch(np.full(100_000, 1), decay_model, params,
                               seed=52)
    frac00 = float(np.mean(classify_batch(clf, iq_decay) == 0))
    expect = 1 - math.exp(-0.05)
    decay_err = abs(frac00 / expect - 1)

    report(8, "readout/classification",
           misassigned < 1e-3 and rows_ok and decay_err <= 0.20,
           f"misassignment {misassigned:.2e} (< 1e-3) at 6 sigma; confusion "
           f"rows sum to 1; decayed |01> -> |00> fraction {frac00:.4f} vs "
           f"{expect:.4f} ({100 * decay_err:.0f}% <= 20%)")


def test_c09_bootstrap_coverage():
    rng = np.random.default_rng(2024)
    t = np.linspace(0.0, 30.0, 31)
    true_slope = -1.0 / 3000.0
    reps = 500
    hits = 0
    for r in range(reps):
        y = 1.0 + true_slope * t + rng.normal(0, 0.004, len(t))
        fit = fit_linear_short(t, y)
        lo, hi = bootstrap_bounds(fit, n_resamples=BOOTSTRAP_RESAMPLES,
                                  seed=r)["slope_per_us"]
        hits += lo <= true_slope <= hi
    coverage = hits / reps
    report(9, "bootstrap coverage", 0.85 <= coverage <= 0.95,
           f"90% interval coverage {coverage:.3f} over {reps} synthetic "
           f"linear fits (target 0.90 +/- 0.05)")


def test_c10_protocol_constants(tmp_path):
    from ddqsim.cli import build_parser
    checks = {
        "virtual detuning 75 kHz": DEFAULT_DETUNING_KHZ == 75.0,
        "fit window 30 us": DEFAULT_FIT_WINDOW_US == 30.0,
        "bootstrap resamples 250": BOOTSTRAP_RESAMPLES == 250,
        "bootstrap quantile 5%": BOOTSTRAP_QUANTILE == 0.05,
        "moving-average window 50": MOVING_AVERAGE_WINDOW == 50,
    }
    parser = build_parser()
    sub = parser._subparsers._group_actions[0].choices
    checks["cli sim-shots detuning default"] = (
        sub["sim-shots"].get_default("detuning_khz") == 75.0)
    checks["cli analyze bootstrap default"] = (
        sub["analyze"].get_default("bootstrap") == 250)
    checks["cli analyze window default"] = (
        sub["analyze"].get_default("window_us") == 30.0)

    expected = {
        "q1": {"omega_D_GHz": 4.707, "omega_Q_GHz": 5.468, "alpha_D_MHz": -136,
               "alpha_Q_MHz": -156, "eta_MHz": -283, "omega_R_GHz": 9.997,
               "kappa_R_MHz": 0.81, "two_chi_DR_MHz": 1.42,
               "two_chi_QR_MHz": 1.86, "T1_D_us": 63.6, "T1_Q_us": 65.3,
               "T2E_D_us": 63.4, "T2E_Q_us": 87.1, "T2R_D_us": 15.6,
               "T2R_Q_us": 16.6, "r_junction": 0.963, "n_th": 0.02},
        "q2": {"omega_D_GHz": 4.353, "omega_Q_GHz": 5.403, "alpha_D_MHz": -126,
               "alpha_Q_MHz": -168, "eta_MHz": -270, "omega_R_GHz": 10.436,
               "kappa_R_MHz": 1.01, "two_chi_DR_MHz": 1.63,
               "two_chi_QR_MHz": 2.18, "T1_D_us": 81.2, "T1_Q_us": 55.4,
               "T2E_D_us": 74.3, "T2E_Q_us": 57.2, "T2R_D_us": 15.9,
               "T2R_Q_us": 20.3, "r_junction": 0.959, "n_th": 0.02},
        "q3": {"omega_D_GHz": 4.235, "omega_Q_GHz": 5.276, "alpha_D_MHz": -120,
               "alpha_Q_MHz": -164, "eta_MHz": -270, "omega_R_GHz": 10.432,
               "kappa_R_MHz": 0.79, "two_chi_DR_MHz": 1.33,
               "two_chi_QR_MHz": 2.06, "T1_D_us": 70.9, "T1_Q_us": 55.8,
               "T2E_D_us": 41.1, "T2E_Q_us": 78.4, "T2R_D_us": 25.2,
               "T2R_Q_us": 18.4, "r_junction": 0.931, "n_th": 0.02},
    }
    from importlib import resources
    for name, want in expected.items():
        got = json.loads((resources.files("ddqsim") / "configs" /
                          f"{name}.json").read_text())
        checks[f"{name} config verbatim"] = got == want

    failed = [k for k, ok in checks.items() if not ok]
    report(10, "protocol constants", not failed,
           "all defaults bit-exact" if not failed else f"failed: {failed}")


def test_c11_desk_scale_campaign(tmp_path):
    cfg = CampaignConfig(
        devices=["q1", "q2", "q3"],
        experiments=["bitflip", "hahn_echo", "ramsey"],
        repetitions=50, seed=20260809, shots_per_point=2000,
        noise=[NoiseProcess("white", 1447.0,
                            coupling="differential_D").to_dict()],
        readout_enabled=True, physical_refs=True, shots_physical=1000,
        bootstrap_resamples=BOOTSTRAP_RESAMPLES)
    t0 = time.perf_counter()
    rows = run_campaign(cfg, tmp_path / "run1")
    elapsed = time.perf_counter() - t0
    run_campaign(cfg, tmp_path / "run2")
    identical = archive_digest(tmp_path / "run1") == \
        archive_digest(tmp_path / "run2")
    n_expected = 50 * 3 * 5   # reps x devices x (3 logical + 2 physical)
    n_traces = len(os.listdir(tmp_path / "run1" / "traces"))
    report(11, "desk-scale campaign",
           elapsed < 600.0 and identical and n_traces == n_expected,
           f"{n_traces} traces, {len(rows)} metric rows in {elapsed:.0f}s "
           f"(< 600 s); rerun from seed byte-identical: {identical}")
