"""Stability analysis of fitted-frequency time series.

Overlapping Allan deviation with the two-term white + 1/f model
sigma^2(tau) = B/(2 tau) + 2 ln2 A, and Welch spectral density with the
matching A/f + B model. Independent noise processes add in variance (Riley,
Handbook of Frequency Stability Analysis, NIST SP 1065, 2008). B is the
one-sided white PSD (Hz^2/Hz) and A the 1/f amplitude (Hz^2 at 1 Hz) in both
estimators, so the two fits can cross-check each other. Slow Lorentzian
(telegraph) features are detected as bumps above the fitted model, not fit.
A fit states a clamped amplitude in its returned diagnostics only. SciPy's
optimize and signal stacks are imported inside the functions that use them,
so importing this module (as every CLI command does) stays cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FitConvergenceError
from .fitting import lm_least_squares
from .tables import ALLAN, FREQUENCY, PSD, read_table, write_table


@dataclass
class FrequencySeries:
    """Mean-removed frequency-deviation samples on a uniform grid.

    Input timestamps may jitter by up to 1%; anything worse is linearly
    resampled onto a uniform grid. At least 16 samples are required.
    """

    values: np.ndarray     # Hz, mean removed
    tau0_s: float          # sample spacing
    source: str = "logical"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if len(self.values) < 16:
            raise ConfigError("need at least 16 samples")
        if not np.all(np.isfinite(self.values)):
            raise ConfigError("frequency values must be finite")
        if not self.tau0_s > 0:
            raise ConfigError("sample spacing must be > 0")
        self.values = self.values - self.values.mean()

    @classmethod
    def from_timestamps(cls, timestamps_s, values_hz,
                        source: str = "logical") -> "FrequencySeries":
        ts = np.asarray(timestamps_s, dtype=float)
        vals = np.asarray(values_hz, dtype=float)
        if len(ts) != len(vals):
            raise ConfigError("timestamps and values differ in length")
        if len(ts) < 16:
            raise ConfigError("need at least 16 samples")
        steps = np.diff(ts)
        if np.any(steps <= 0):
            raise ConfigError("timestamps must be strictly increasing")
        tau0 = float(steps.mean())
        if np.max(np.abs(steps - tau0)) > 0.01 * tau0:
            uniform = ts[0] + tau0 * np.arange(len(ts))
            vals = np.interp(uniform, ts, vals)
        return cls(values=vals, tau0_s=tau0, source=source)


def read_frequency_csv(path) -> list[FrequencySeries]:
    """Read `timestamp_s,delta_f_hz,source` rows; one series per source."""
    groups: dict[str, list] = {}
    for ts, value, source in read_table(path, FREQUENCY):
        groups.setdefault(source, []).append((ts, value))
    if not groups:
        raise ConfigError(f"{path}: no frequency rows")
    return [FrequencySeries.from_timestamps(*zip(*sorted(rows)), source)
            for source, rows in groups.items()]


@dataclass
class AllanCurve:
    tau_s: np.ndarray
    sigma_hz: np.ndarray
    n_pairs: np.ndarray


def default_taus(n_samples: int, tau0_s: float) -> np.ndarray:
    """Octave-spaced tau grid from tau0 up to N*tau0/3."""
    ms = []
    m = 1
    while m <= n_samples / 3.0:
        ms.append(m)
        m *= 2
    return np.asarray(ms, dtype=float) * tau0_s


def overlapping_allan(series: FrequencySeries, taus=None) -> AllanCurve:
    """Overlapping Allan deviation of frequency data.

    sigma^2(m tau0) = mean over all overlapping pairs of m-sample averages
    (ybar_{i+m} - ybar_i)^2 / 2. Requested taus must be integer multiples of
    tau0 and leave at least two overlapping differences.
    """
    y = series.values
    n = len(y)
    if taus is None:
        taus = default_taus(n, series.tau0_s)
    taus = np.asarray(taus, dtype=float)
    sigmas = np.empty(len(taus))
    counts = np.empty(len(taus), dtype=np.int64)
    csum = np.concatenate([[0.0], np.cumsum(y)])
    for i, tau in enumerate(taus):
        m = tau / series.tau0_s
        m_int = int(round(m))
        if abs(m - m_int) > 1e-6 or m_int < 1:
            raise ConfigError(f"tau {tau} is not an integer multiple of tau0")
        n_pairs = n - 2 * m_int + 1
        if n_pairs < 2:
            raise ConfigError(f"fewer than 2 differences at tau {tau}")
        block = (csum[m_int:] - csum[:-m_int]) / m_int   # overlapping means
        diff = block[m_int:] - block[:-m_int]
        sigmas[i] = math.sqrt(0.5 * float(np.mean(diff * diff)))
        counts[i] = n_pairs
    return AllanCurve(tau_s=taus, sigma_hz=sigmas, n_pairs=counts)


def _allan_model(a: float, b: float, tau: np.ndarray) -> np.ndarray:
    # white (B/(2 tau)) and flicker (2 ln2 A) variances add
    return np.sqrt(b / (2.0 * tau) + 2.0 * math.log(2.0) * a)


def fit_allan_model(tau_s, sigma_hz) -> tuple[float, float, dict]:
    """Fit sigma^2(tau) = B/(2 tau) + 2 ln2 A in log space.

    The start is a non-negative least-squares fit of sigma^2 against
    [1/tau, 1]. Each log residual is weighted by sqrt(tau_min/tau): an
    overlapping Allan point at tau = m tau0 has roughly N/m degrees of
    freedom (NIST SP 1065, section 5), so its relative scatter grows as
    sqrt(tau) and the sparse long-tau points must not outvote the rest.

    Returns (A [Hz^2], B [Hz^2/Hz], diagnostics). Each amplitude the data
    does not support is clamped at zero and listed in diagnostics "clamped".
    """
    tau = np.asarray(tau_s, dtype=float)
    sig = np.asarray(sigma_hz, dtype=float)
    if len(tau) < 4:
        raise ConfigError("need >= 4 tau points")
    if tau.max() / tau.min() < 10 ** 1.5:
        raise ConfigError("tau grid must span >= 1.5 decades")
    if np.all(sig <= 0):
        return 0.0, 0.0, {"converged": True, "warning": "zero curve"}
    from scipy.optimize import nnls
    design = np.stack([1.0 / tau, np.ones_like(tau)], axis=1)
    (half_b, flicker), _ = nnls(design, sig ** 2)
    a, b = flicker / (2.0 * math.log(2.0)), 2.0 * half_b
    positive = sig > 0
    tau_p, log_sig = tau[positive], np.log(sig[positive])
    weight = np.sqrt(tau_p.min() / tau_p)
    clamped = []

    def resid(theta):
        with np.errstate(over="ignore"):
            model = _allan_model(np.exp(theta[0]), np.exp(theta[1]), tau_p)
        return weight * (np.log(model) - log_sig)

    if a > 0 and b > 0:
        theta, info = lm_least_squares(resid, np.log([a, b]))
        a, b = math.exp(theta[0]), math.exp(theta[1])
    else:
        info = {"converged": True, "message": "nnls boundary solution"}
        if a <= 0:
            clamped.append("A")
        if b <= 0:
            clamped.append("B")
    diagnostics = dict(info)
    diagnostics["clamped"] = clamped
    return float(a), float(b), diagnostics


def flag_allan_bumps(curve: AllanCurve) -> tuple[np.ndarray, float, float]:
    """Flag Lorentzian-like bumps the two-term model cannot describe.

    Fits the white + 1/f model robustly (two trimming rounds drop points far
    above the fit, so a large bump cannot drag the baseline up), then flags
    taus where sigma exceeds the model by more than 50% over at least two
    consecutive points. Returns (mask, A, B).
    """
    tau, sig = curve.tau_s, curve.sigma_hz
    keep = np.ones(len(tau), dtype=bool)
    a = b = 0.0
    for _ in range(3):
        a, b, _ = fit_allan_model(tau[keep], sig[keep]) if keep.sum() >= 4 \
            else (a, b, None)
        model = _allan_model(a, b, tau)
        new_keep = sig <= 1.5 * np.maximum(model, 1e-300)
        if new_keep.sum() < 4 or np.array_equal(new_keep, keep):
            break
        keep = new_keep
    model = _allan_model(a, b, tau)
    over = sig > 1.5 * np.maximum(model, 1e-300)
    mask = np.zeros(len(tau), dtype=bool)
    run = 0
    for i, flag in enumerate(over):
        run = run + 1 if flag else 0
        if run >= 2:
            mask[i - run + 1:i + 1] = True
    return mask, a, b


def welch_psd(series: FrequencySeries, segment_length: int | None = None):
    """One-sided Welch PSD (Hz^2/Hz vs Hz).

    Hann window, 50% overlap and a power-of-two segment of roughly N/8 by
    default; window-power (density) normalization so the PSD integrates to
    the series variance for white input.
    """
    y = series.values
    n = len(y)
    if segment_length is None:
        segment_length = 2 ** max(3, int(math.floor(math.log2(max(n // 8, 8)))))
        segment_length = min(segment_length, n)
    if segment_length < 8:
        raise ConfigError("segment length must be >= 8")
    if segment_length > n:
        raise ConfigError("segment length exceeds series length")
    from scipy.signal import welch
    freqs, psd = welch(y, fs=1.0 / series.tau0_s, window="hann",
                       nperseg=segment_length,
                       noverlap=int(0.5 * segment_length),
                       detrend="constant", scaling="density")
    return freqs, psd


def fit_psd_model(freqs_hz, psd) -> tuple[float, float, dict]:
    """Fit S(f) = A/f + B in log-log space; returns (A, B, diagnostics)."""
    f = np.asarray(freqs_hz, dtype=float)
    s = np.asarray(psd, dtype=float)
    sel = (f > 0) & (s > 0)
    f, s = f[sel], s[sel]
    if len(f) < 6:
        raise ConfigError("need >= 6 nonzero frequency bins")
    from scipy.optimize import nnls
    design = np.stack([1.0 / f, np.ones_like(f)], axis=1)
    coeffs, _ = nnls(design, s)
    a0, b0 = coeffs
    lo = s[f <= np.quantile(f, 0.33)]
    hi = s[f >= np.quantile(f, 0.67)]
    a0 = a0 if a0 > 0 else max(float(np.median(lo) * np.median(f)), 1e-30)
    b0 = b0 if b0 > 0 else max(float(np.median(hi)), 1e-30)

    def resid(theta):
        with np.errstate(over="ignore"):
            return np.log(np.exp(theta[0]) / f + np.exp(theta[1])) - np.log(s)

    theta, info = lm_least_squares(resid, np.log([a0, b0]))
    if not info["converged"]:
        raise FitConvergenceError("PSD model fit did not converge", info)
    return math.exp(theta[0]), math.exp(theta[1]), dict(info)


def write_allan_csv(path, curve: AllanCurve) -> None:
    write_table(path, ALLAN, [(curve.tau_s, curve.sigma_hz)])


def write_psd_csv(path, freqs, psd) -> None:
    write_table(path, PSD, [(freqs, psd)])
