"""Stability analysis of fitted-frequency time series.

Overlapping Allan deviation with the two-term white + 1/f model
sigma^2(tau) = B/(2 tau) + 2 ln2 A, and Welch spectral density with the
matching A/f + B model. Independent noise processes add in variance (Riley,
Handbook of Frequency Stability Analysis, NIST SP 1065, 2008). B is the
one-sided white PSD (Hz^2/Hz) and A the 1/f amplitude (Hz^2 at 1 Hz) in both
estimators, so the two fits can cross-check each other. Slow Lorentzian
(telegraph) features are detected as bumps above the fitted model, not fit.
Both fits are one line fit in log space (`_fit_line`): an amplitude its
start puts at 0 stays at 0, listed as clamped; a fit that does not converge
raises FitConvergenceError. Both estimators and fits are NumPy code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FitConvergenceError
from .fitting import line_fit, lm_least_squares
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


def _nnls_line(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Non-negative least squares (a, b) of ``y`` on the line a x + b. The
    problem is convex: its minimum is `line_fit` if both are >= 0, else the
    best non-negative edge, in this order: slope only, offset only, zero."""
    slope, offset = line_fit(x, y)
    if slope >= 0.0 and offset >= 0.0:
        return np.array([slope, offset])
    edges = [e for e in (((x * y).sum() / (x * x).sum(), 0.0),
                         (0.0, y.mean()), (0.0, 0.0)) if min(e) >= 0.0]
    costs = [((a * x + b - y) ** 2).sum() for a, b in edges]
    return np.array(edges[costs.index(min(costs))])


def _fit_line(x, y, weight, names) -> tuple[float, float, dict]:
    """Fit y = a x + b, a and b >= 0, to the positive ``y`` by weighted
    least squares in log space from the start `_nnls_line`; returns (a, b,
    diagnostics). A coefficient the start puts at 0 stays at 0 and is listed
    by its name in ``names`` in diagnostics "clamped", and no log fit runs.
    A log fit that does not converge raises FitConvergenceError."""
    positive = y > 0
    x, y, weight = x[positive], y[positive], weight[positive]
    a, b = _nnls_line(x, y)
    clamped = [name for name, c in zip(names, (a, b)) if c <= 0.0]
    if clamped:
        return float(a), float(b), {"converged": True, "clamped": clamped,
                                    "message": "nnls boundary solution"}
    log_y = np.log(y)

    def resid(theta):
        with np.errstate(over="ignore"):
            model = np.exp(theta[0]) * x + np.exp(theta[1])
        return weight * (np.log(model) - log_y)

    theta, info = lm_least_squares(resid, np.log([a, b]))
    if not info["converged"]:
        raise FitConvergenceError("noise model fit did not converge", info)
    return math.exp(theta[0]), math.exp(theta[1]), {**info, "clamped": []}


def _grid_problem(tau: np.ndarray) -> str | None:
    """Why the Allan model cannot be fit on the taus ``tau``, or None."""
    if len(tau) < 4:
        return "need >= 4 tau points"
    if tau.max() / tau.min() < 10 ** 1.5:
        return "tau grid must span >= 1.5 decades"
    return None


def _allan_model(a: float, b: float, tau: np.ndarray) -> np.ndarray:
    # white (B/(2 tau)) and flicker (2 ln2 A) variances add
    return np.sqrt(b / (2.0 * tau) + 2.0 * math.log(2.0) * a)


def fit_allan_model(tau_s, sigma_hz) -> tuple[float, float, dict]:
    """Fit sigma^2(tau) = B/(2 tau) + 2 ln2 A by `_fit_line`, as the line
    sigma^2/(2 ln2) = B x + A in x = 1/(4 ln2 tau), so that the log fit steps
    in log B and log A; returns (A [Hz^2], B [Hz^2/Hz], diagnostics).

    Each log residual of sigma (half that of sigma^2) is weighted by
    sqrt(tau_min/tau): an overlapping Allan point at tau = m tau0 has
    roughly N/m degrees of freedom (NIST SP 1065, section 5), so its
    relative scatter grows as sqrt(tau) and the sparse long-tau points must
    not outvote the rest.
    """
    tau = np.asarray(tau_s, dtype=float)
    sig = np.asarray(sigma_hz, dtype=float)
    if problem := _grid_problem(tau):
        raise ConfigError(problem)
    if np.all(sig <= 0):
        return 0.0, 0.0, {"converged": True, "warning": "zero curve",
                          "clamped": ["A", "B"]}
    ln4 = 2.0 * math.log(2.0)
    b, a, diagnostics = _fit_line(
        0.5 / (ln4 * tau), sig ** 2 / ln4,
        0.5 * np.sqrt(tau[sig > 0].min() / tau), ("B", "A"))
    return a, b, diagnostics


def flag_allan_bumps(curve: AllanCurve) -> tuple[np.ndarray, float, float]:
    """Flag Lorentzian-like bumps the two-term model cannot describe.

    Fits the white + 1/f model robustly (up to two trimming rounds drop
    points far above the fit, so a large bump cannot drag the baseline up;
    trimming stops at the last set of taus `_grid_problem` accepts), then
    flags taus where sigma exceeds the model by more than 50% over at least
    two consecutive points. Returns (mask, A, B). A curve off that grid
    rule is a ConfigError.
    """
    tau, sig = curve.tau_s, curve.sigma_hz
    keep = np.ones(len(tau), dtype=bool)
    for _ in range(3):
        a, b, _ = fit_allan_model(tau[keep], sig[keep])
        new_keep = sig <= 1.5 * np.maximum(_allan_model(a, b, tau), 1e-300)
        if _grid_problem(tau[new_keep]) or np.array_equal(new_keep, keep):
            break
        keep = new_keep
    mask = np.zeros(len(tau), dtype=bool)
    run = 0
    for i, flag in enumerate(~new_keep):
        run = run + 1 if flag else 0
        if run >= 2:
            mask[i - run + 1:i + 1] = True
    return mask, a, b


def welch_psd(series: FrequencySeries, segment_length: int | None = None):
    """One-sided Welch PSD (Hz^2/Hz vs Hz), as ``scipy.signal.welch``
    computes it with these settings (Welch, IEEE Trans. Audio Electroacoust.
    15, 70, 1967).

    Periodic Hann window, 50% overlap (``int(0.5 * segment_length)``) and a
    power-of-two segment of roughly N/8 by default; samples after the last
    whole segment are dropped. Each segment's mean is removed, and the
    averaged periodogram is normalized by window power (density), so the PSD
    integrates to the series variance for white input.
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
    fs = 1.0 / series.tau0_s
    step = segment_length - int(0.5 * segment_length)
    starts = step * np.arange((n - segment_length) // step + 1)
    segments = y[starts[:, None] + np.arange(segment_length)]
    segments = segments - segments.mean(axis=1, keepdims=True)
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(segment_length)
                                / segment_length)
    spectra = np.fft.rfft(segments * window, axis=1)
    psd = (spectra.real ** 2 + spectra.imag ** 2).mean(axis=0)
    psd *= 1.0 / (fs * (window * window).sum())
    # one-sided: every bin but DC and (even length) Nyquist holds two
    last = len(psd) - 1 if segment_length % 2 == 0 else len(psd)
    psd[1:last] *= 2.0
    return np.fft.rfftfreq(segment_length, 1.0 / fs), psd


def fit_psd_model(freqs_hz, psd) -> tuple[float, float, dict]:
    """Fit S(f) = A/f + B in log-log space by `_fit_line` on 1/f over the
    nonzero bins; returns (A [Hz^2], B [Hz^2/Hz], diagnostics)."""
    f = np.asarray(freqs_hz, dtype=float)
    s = np.asarray(psd, dtype=float)
    sel = (f > 0) & (s > 0)
    if sel.sum() < 6:
        raise ConfigError("need >= 6 nonzero frequency bins")
    return _fit_line(1.0 / f[sel], s[sel], np.ones(sel.sum()), ("A", "B"))


def write_allan_csv(path, curve: AllanCurve) -> None:
    write_table(path, ALLAN, [(curve.tau_s, curve.sigma_hz)])


def write_psd_csv(path, freqs, psd) -> None:
    write_table(path, PSD, [(freqs, psd)])
