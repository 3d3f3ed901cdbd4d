"""Error-detected coherence metrology: postselection, fits, bootstrap.

Postselection removes shots that leaked to |00> and renormalizes the logical
populations. Short-window linear fits give bit-flip/phase-flip rates, the
decaying-oscillation fit gives Ramsey coherence, and the saturating
exponential gives the leakage (erasure) rate. Fit uncertainties come from a
residual bootstrap (Efron & Tibshirani, An Introduction to the Bootstrap,
1993, ch. 9): resampled residuals are laid onto the ideal fitted trace and
each synthetic trace is refit with the same procedure. The resample indices
are drawn in one call; linear fits and refits share one line solve, which
takes all synthetic traces at once, and the nonlinear fits refit each trace
with the package's Levenberg-Marquardt loop (`fitting.lm_least_squares`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, EmptyLogicalSubspaceError,
                     FitConvergenceError, ResampleError)
from .fitting import lm_least_squares
from .tables import TRACE, read_table, write_table

DEFAULT_FIT_WINDOW_US = 30.0
BOOTSTRAP_RESAMPLES = 250
BOOTSTRAP_QUANTILE = 0.05


@dataclass
class TraceData:
    """Per-delay level counts of one repeated-shot experiment."""

    delays_us: np.ndarray
    n00: np.ndarray
    n01: np.ndarray
    n10: np.ndarray
    n_total: np.ndarray
    init_label: str = ""
    timestamp_s: float = 0.0

    def __post_init__(self):
        self.delays_us = np.asarray(self.delays_us, dtype=float)
        for name in ("n00", "n01", "n10", "n_total"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        if not (np.all(np.isfinite(self.delays_us)) and
                math.isfinite(self.timestamp_s)):
            raise ConfigError("delays and timestamp must be finite")
        if np.any(np.diff(self.delays_us) <= 0):
            raise ConfigError("delays must be strictly increasing")
        counts = (self.n00, self.n01, self.n10)
        if np.any(self.n_total < 1) or any(np.any(n < 0) for n in counts):
            raise ConfigError("counts must be >= 0 and n_total >= 1")
        if np.any(sum(counts) > self.n_total):
            raise ConfigError("level counts exceed total shots")

    def p00(self) -> np.ndarray:
        return self.n00 / self.n_total


def write_trace_csv(path, traces) -> None:
    """Write a list of traces (e.g. both bit-flip initializations)."""
    write_table(path, TRACE, ((tr.delays_us, tr.n00, tr.n01, tr.n10,
                               tr.n_total, [tr.init_label] * len(tr.n00),
                               [tr.timestamp_s] * len(tr.n00))
                              for tr in traces))


def read_trace_csv(path) -> list[TraceData]:
    """Read a trace file; one TraceData per init_label, in file order."""
    groups: dict[str, list] = {}
    for row in read_table(path, TRACE):
        groups.setdefault(row[5], []).append(row)
    if not groups:
        raise ConfigError(f"{path}: no trace rows")
    traces = []
    for init, rows in groups.items():
        rows.sort(key=lambda r: r[0])
        delays, n00, n01, n10, n_total, _, ts = zip(*rows)
        traces.append(TraceData(delays, n00, n01, n10, n_total, init, ts[0]))
    return traces


# --------------------------------------------------------------------------
# Postselection

def postselect(n00: int, n01: int, n10: int) -> tuple[float, float, float]:
    """Error-detected logical populations and erasure fraction at one delay.

    P(0_L) = n10 / (n01 + n10), P(1_L) = n01 / (n01 + n10); the erasure
    fraction is the |00> share of all classified shots. Raises
    EmptyLogicalSubspaceError when no shot remained logical (the point is
    excluded from fits, never imputed).
    """
    logical = n01 + n10
    if logical < 1:
        raise EmptyLogicalSubspaceError("no shots left in the logical subspace")
    classified = n00 + logical
    return n10 / logical, n01 / logical, n00 / classified


def postselect_trace(trace: TraceData):
    """Vectorized postselection; returns (delays, p0l, p1l, erasure, kept)."""
    logical = trace.n01 + trace.n10
    kept = logical >= 1
    with np.errstate(invalid="ignore", divide="ignore"):
        p0l = np.where(kept, trace.n10 / np.maximum(logical, 1), np.nan)
        p1l = np.where(kept, trace.n01 / np.maximum(logical, 1), np.nan)
        erasure = trace.n00 / np.maximum(trace.n00 + logical, 1)
    return trace.delays_us[kept], p0l[kept], p1l[kept], erasure[kept], kept


def bitflip_probability(p1l_given_init0: float, p0l_given_init1: float) -> float:
    """Mean of the two cross-initialization logical flip probabilities."""
    for v in (p1l_given_init0, p0l_given_init1):
        if not 0.0 <= v <= 1.0:
            raise ValueError("probabilities must lie in [0, 1]")
    return 0.5 * (p1l_given_init0 + p0l_given_init1)


def bitflip_difference(trace_init0: TraceData, trace_init1: TraceData):
    """Difference signal P(1_L | init 1_L) - P(1_L | init 0_L) per delay.

    Both initializations must share a delay grid; delays where either trace
    lost its whole logical subspace are dropped.
    """
    if not np.array_equal(trace_init0.delays_us, trace_init1.delays_us):
        raise ConfigError("bit-flip traces need a common delay grid")
    _, _, p1l_0, _, kept0 = postselect_trace(trace_init0)
    _, _, p1l_1, _, kept1 = postselect_trace(trace_init1)
    kept = kept0 & kept1
    d0 = np.full(len(trace_init0.delays_us), np.nan)
    d1 = np.full(len(trace_init1.delays_us), np.nan)
    d0[kept0] = p1l_0
    d1[kept1] = p1l_1
    return trace_init0.delays_us[kept], (d1 - d0)[kept]


# --------------------------------------------------------------------------
# Fits

@dataclass
class FitResult:
    """One converged (or degenerate) model fit.

    ``delays_us``/``fitted``/``residuals`` cover exactly the points the fit
    used (residuals = data - model); ``bounds`` are filled in by
    `bootstrap_bounds` and always bracket the estimates.
    """

    model: str
    params: dict
    delays_us: np.ndarray
    fitted: np.ndarray
    residuals: np.ndarray
    window_us: float | None = None
    diagnostics: dict = field(default_factory=dict)
    bounds: dict | None = None

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "params": {k: float(v) for k, v in self.params.items()},
            "bounds": (None if self.bounds is None else
                       {k: [float(v[0]), float(v[1])]
                        for k, v in self.bounds.items()}),
            "window_us": self.window_us,
            "diagnostics": self.diagnostics,
        }


def _line_params(t, y) -> dict:
    """Least-squares line parameters of ``y`` against ``t``, or of every row
    of a 2-D ``y``, from one `np.polyfit` call: slope and offset, the decay
    rate gamma = -slope (per ms) and T = 1/gamma (inf where gamma <= 0)."""
    slope, offset = np.polyfit(t, np.transpose(y), 1)
    gamma_per_ms = -slope * 1e3
    with np.errstate(divide="ignore"):
        t_ms = np.where(gamma_per_ms > 0, 1.0 / gamma_per_ms, math.inf)
    return {"slope_per_us": slope, "offset": offset,
            "gamma_per_ms": gamma_per_ms, "T_ms": t_ms}


def fit_linear_short(delays_us, signal, cutoff_us: float = DEFAULT_FIT_WINDOW_US,
                     ) -> FitResult:
    """Short-window linear decay fit (ordinary least squares).

    Fits offset + slope*t to all points with delay <= cutoff and reports the
    decay rate gamma = -slope (per ms) plus T = 1/gamma. A non-negative
    slope sets ``diagnostics["warning"]`` to "no decay resolvable".
    """
    delays_us = np.asarray(delays_us, dtype=float)
    signal = np.asarray(signal, dtype=float)
    sel = delays_us <= cutoff_us + 1e-9
    t = delays_us[sel]
    y = signal[sel]
    if len(t) < 3:
        raise ConfigError(f"need >= 3 points within {cutoff_us} us, got {len(t)}")
    params = {k: float(v) for k, v in _line_params(t, y).items()}
    diagnostics = {"n_points": int(len(t)), "converged": True}
    if params["slope_per_us"] >= -1e-12:  # zero within rounding, or rising
        diagnostics["warning"] = "no decay resolvable"
    fitted = params["offset"] + params["slope_per_us"] * t
    return FitResult("linear", params, t, fitted, y - fitted,
                     window_us=cutoff_us, diagnostics=diagnostics)


def _envelope(x):
    """|analytic signal| of a real trace, built as scipy.signal.hilbert does."""
    n = len(x)
    h = np.zeros(n)
    h[0] = 1.0
    h[1:(n + 1) // 2] = 2.0
    if n % 2 == 0:
        h[n // 2] = 1.0
    return np.abs(np.fft.ifft(np.fft.fft(x) * h))


def _ramsey_model(theta, t):
    amp, rate, f_khz, phi0, c = theta
    return amp * np.exp(-rate * t) * np.cos(2e-3 * math.pi * f_khz * t + phi0) + c


def _ramsey_jacobian(theta, t):
    """(n, 5) Jacobian of the residual y - `_ramsey_model` at one point."""
    amp, rate, f_khz, phi0, _ = theta.tolist()
    w = (2e-3 * math.pi) * t
    e = np.exp(-rate * t)
    phase = f_khz * w + phi0
    ec = e * np.cos(phase)
    aes = amp * e * np.sin(phase)
    cols = np.empty((5, len(t)))
    np.negative(ec, out=cols[0])
    np.multiply(amp * t, ec, out=cols[1])
    np.multiply(w, aes, out=cols[2])
    cols[3] = aes
    cols[4] = -1.0
    return cols.T


def fit_ramsey(delays_us, p0l,
               detuning_hint_khz: float | None = None) -> FitResult:
    """Decaying-oscillation fit A exp(-t/T2R) cos(2 pi df t + phi0) + C.

    Uniform delay grids only (steps within 1% of their mean; any other grid
    is a ConfigError). Initialization: detuning from the zero-padded
    periodogram peak of the mean-subtracted signal, amplitude from half the
    peak-to-peak, offset from the mean, T2R from a log-envelope regression.
    Refined by damped Gauss-Newton on the closed-form Jacobian until one of
    `lm_least_squares`'s stop rules holds (<= 500 iterations). A
    ``detuning_hint_khz`` only checks that the delays span >= 2 periods.
    Raises FitConvergenceError when the solver stalls or the periodogram
    peak sits at DC (no oscillation to fit).
    """
    t = np.asarray(delays_us, dtype=float)
    y = np.asarray(p0l, dtype=float)
    if len(t) < 8:
        raise ConfigError("need >= 8 points for the oscillation fit")
    span = t[-1] - t[0]
    steps = np.diff(t)
    dt = steps.mean()
    if not np.all(np.abs(steps - dt) <= 1e-8 + 0.01 * abs(dt)):
        raise ConfigError("the oscillation fit needs uniformly spaced delays")

    c0 = float(y.mean())
    yc = y - c0
    nfft = 8 * len(t)
    power = np.abs(np.fft.rfft(yc, n=nfft)) ** 2
    k = 1 + int(np.argmax(power[1:]))
    if power[k] <= 1e-24 * max(len(t), 1):
        raise FitConvergenceError("periodogram peak at DC: no oscillation")
    f0 = k * (1.0 / (nfft * dt)) * 1e3
    if detuning_hint_khz and span * detuning_hint_khz * 1e-3 < 2.0:
        raise ConfigError("delays span fewer than 2 oscillation periods")

    amp0 = 0.5 * (y.max() - y.min())
    if amp0 <= 0:
        raise FitConvergenceError("periodogram peak at DC: no oscillation")
    env = _envelope(yc)
    good = env > 1e-3 * env.max()
    if good.sum() >= 2 and span > 0:
        tg = t[good] - t[good].mean()
        esl = float(tg @ np.log(env[good])) / float(tg @ tg)
        rate0 = min(max(-esl, 0.05 / span), 50.0 / span)
    else:
        rate0 = 1.0 / span
    z = np.sum(yc * np.exp(-2j * math.pi * f0 * 1e-3 * t))
    phi0 = float(np.angle(z))

    def resid(theta):
        return y - _ramsey_model(theta.tolist(), t)

    theta0 = np.array([amp0, rate0, f0, phi0, c0])
    theta, info = lm_least_squares(
        resid, theta0, jacobian=lambda theta: _ramsey_jacobian(theta, t))
    if not info["converged"]:
        raise FitConvergenceError("oscillation fit did not converge", info)
    amp, rate, f_khz, phi, c = theta
    # Canonical parameter branch: positive amplitude and detuning.
    if amp < 0:
        amp, phi = -amp, phi + math.pi
    if f_khz < 0:
        f_khz, phi = -f_khz, -phi
    phi = math.atan2(math.sin(phi), math.cos(phi))
    params = {"A": amp, "T2R_us": 1.0 / rate if rate > 0 else math.inf,
              "delta_f_khz": f_khz, "phi0_rad": phi, "C": c,
              "rate_per_us": rate}
    fitted = _ramsey_model([amp, rate, f_khz, phi, c], t)
    return FitResult("ramsey", params, t, fitted, y - fitted,
                     diagnostics=dict(info))


def _erasure_model(theta, t):
    amp, rate, d = theta
    return amp * (1.0 - np.exp(-rate * t)) + d


def _erasure_jacobian(theta, t):
    """(n, 3) Jacobian of the residual y - `_erasure_model` at one point."""
    amp, rate, _ = theta.tolist()
    cols = np.empty((3, len(t)))
    np.exp(-rate * t, out=cols[1])
    np.subtract(cols[1], 1.0, out=cols[0])
    cols[1] *= -amp * t
    cols[2] = -1.0
    return cols.T


def fit_erasure(delays_us, p00) -> FitResult:
    """Leakage fit A(1 - exp(-t/T_erasure)) + D on the |00> fraction.

    The amplitude lets the model saturate below one for mixed
    initializations; D absorbs erasure during the end-of-line readout
    itself. A flat trace degenerates to rate 0 with diagnostics warning
    "flat trace".
    """
    t = np.asarray(delays_us, dtype=float)
    y = np.asarray(p00, dtype=float)
    if len(t) < 4:
        raise ConfigError("need >= 4 points for the leakage fit")
    if np.ptp(y) < 1e-12:
        params = {"amplitude": 0.0, "T_erasure_us": math.inf, "D": float(y[0]),
                  "gamma_erasure_per_ms": 0.0}
        fitted = np.full_like(y, y[0])
        return FitResult("erasure", params, t, fitted, y - fitted,
                         diagnostics={"converged": True,
                                      "warning": "flat trace"})
    d0 = float(y[0])
    amp0 = max(float(y[-1] - d0), 1e-3)
    target = d0 + 0.632 * amp0
    above = np.nonzero(y >= target)[0]
    span = t[-1] - t[0]
    t630 = t[above[0]] if len(above) and t[above[0]] > 0 else span / 3.0
    theta0 = np.array([amp0, 1.0 / t630, d0])

    def resid(theta):
        return y - _erasure_model(theta.tolist(), t)

    theta, info = lm_least_squares(
        resid, theta0, jacobian=lambda theta: _erasure_jacobian(theta, t))
    if not info["converged"]:
        raise FitConvergenceError("leakage fit did not converge", info)
    amp, rate, d = theta
    params = {"amplitude": amp,
              "T_erasure_us": 1.0 / rate if rate > 0 else math.inf,
              "D": d, "gamma_erasure_per_ms": 1e3 * rate}
    fitted = _erasure_model(theta, t)
    return FitResult("erasure", params, t, fitted, y - fitted,
                     diagnostics=dict(info))


def fit_trace(kind: str, traces, window_us: float) -> FitResult:
    """The fit of one experiment's traces, chosen by experiment kind.

    bitflip: linear fit of `bitflip_difference` (needs the init 10 and 01
    traces); hahn_echo: linear fit of the postselected P(0_L); ramsey:
    oscillation fit of P(0_L); erasure and phys_t1: leakage fit of the
    |00> fraction; phys_echo and phys_ramsey: linear and oscillation fits of
    the excited fraction of the mode the +D/+Q init label names. Linear
    fits use the points within ``window_us``.
    """
    if kind == "bitflip":
        by_init = {t.init_label: t for t in traces}
        if "10" not in by_init or "01" not in by_init:
            raise ConfigError("bit-flip analysis needs init 10 and 01 rows")
        delays, diff = bitflip_difference(by_init["10"], by_init["01"])
        return fit_linear_short(delays, diff, cutoff_us=window_us)
    tr = traces[0]
    if kind in ("hahn_echo", "ramsey"):
        delays, signal, _, _, _ = postselect_trace(tr)
    elif kind in ("phys_echo", "phys_ramsey"):
        excited = tr.n10 if tr.init_label == "+D" else tr.n01
        delays, signal = tr.delays_us, excited / tr.n_total
    elif kind in ("erasure", "phys_t1"):
        return fit_erasure(tr.delays_us, tr.p00())
    else:
        raise ConfigError(f"unknown analysis kind {kind!r}")
    if kind.endswith("ramsey"):
        return fit_ramsey(delays, signal)
    return fit_linear_short(delays, signal, cutoff_us=window_us)


# --------------------------------------------------------------------------
# Bootstrap

_MODEL_DOF = {"linear": 2, "ramsey": 5, "erasure": 3}


def bootstrap_bounds(fit: FitResult, n_resamples: int = BOOTSTRAP_RESAMPLES,
                     seed: int = 0) -> dict:
    """Residual-bootstrap parameter bounds at the 5%/95% quantiles.

    Residuals are resampled with replacement onto the ideal fitted trace and
    the empirical quantiles of each refit parameter are returned (and
    attached to ``fit``). Residuals are inflated by sqrt(n/(n - dof)) before
    resampling so the resampled noise matches the data noise rather than the
    fit-deflated one. All resample indices are drawn in one call, giving an
    (n_resamples, n) matrix of synthetic traces. Linear fits refit every row
    in `fit_linear_short`'s one line solve (all of a fit's points lie in its
    window); Ramsey and leakage rows are refit one at a time by
    `fit_ramsey`/`fit_erasure`, each a single `lm_least_squares` run. A row
    is dropped only where its refit raises FitConvergenceError (no
    convergence, no oscillation); more than 20% drops is a ResampleError.
    Any other error propagates (a Ramsey fit on a nonuniform grid is a
    ConfigError), and an unknown model is a ValueError before any draw.
    Deterministic given ``seed``.
    """
    if fit.model not in _MODEL_DOF:
        raise ValueError(f"no bootstrap refitter for model {fit.model!r}")
    rng = np.random.default_rng(seed)
    n = len(fit.residuals)
    dof = _MODEL_DOF[fit.model]
    scale = math.sqrt(n / (n - dof)) if n > dof else 1.0
    resid = fit.residuals * scale
    synthetic = fit.fitted + resid[rng.integers(0, n, size=(n_resamples, n))]
    dropped = 0
    if fit.model == "linear":
        values = _line_params(fit.delays_us, synthetic)
    else:
        values = {k: [] for k in fit.params}
        for y_star in synthetic:
            try:
                if fit.model == "ramsey":
                    refit = fit_ramsey(fit.delays_us, y_star)
                else:
                    refit = fit_erasure(fit.delays_us, y_star)
            except FitConvergenceError:
                dropped += 1
                continue
            for k in values:
                values[k].append(refit.params.get(k, math.nan))
    if n_resamples and dropped > 0.2 * n_resamples:
        raise ResampleError(
            f"{dropped}/{n_resamples} bootstrap refits failed")
    bounds = {}
    for k, est in fit.params.items():
        vals = np.asarray(values.get(k, ()), dtype=float)
        vals = vals[np.isfinite(vals)]
        if len(vals) == 0:
            bounds[k] = (est, est)
            continue
        lo = float(np.quantile(vals, BOOTSTRAP_QUANTILE))
        hi = float(np.quantile(vals, 1.0 - BOOTSTRAP_QUANTILE))
        bounds[k] = (min(lo, est), max(hi, est))
    fit.bounds = bounds
    fit.diagnostics["bootstrap"] = {"n_resamples": n_resamples,
                                    "dropped": dropped, "seed": seed,
                                    "quantile": BOOTSTRAP_QUANTILE}
    return bounds
