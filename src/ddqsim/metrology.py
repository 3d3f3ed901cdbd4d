"""Error-detected coherence metrology: postselection, fits, bootstrap.

Postselection removes shots that leaked to |00> and renormalizes the logical
populations. Short-window linear fits give bit-flip/phase-flip rates, the
decaying-oscillation fit gives Ramsey coherence, and the saturating
exponential gives the leakage (erasure) rate. Fit uncertainties come from a
residual bootstrap (Efron & Tibshirani, An Introduction to the Bootstrap,
1993, ch. 9): resampled residuals are laid onto the ideal fitted trace and
each synthetic trace is refit with the same model. The resample indices
are drawn in one call; linear fits and refits share one line solve, which
takes all synthetic traces at once, and the nonlinear fits refit each trace
with the package's Levenberg-Marquardt loop (`fitting.lm_least_squares`),
a Ramsey refit started from the main fit's parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, EmptyLogicalSubspaceError,
                     FitConvergenceError, ResampleError)
from .fitting import line_fit, lm_least_squares, quantiles
from .tables import TRACE, read_table, write_table

DEFAULT_FIT_WINDOW_US = 30.0
BOOTSTRAP_RESAMPLES = 250
BOOTSTRAP_QUANTILE = 0.05
# the longest time constant a fit resolves, in us: a longer one, or a decay
# rate that is not positive, is archived as an empty estimate
LONGEST_DECAY_US = 1e12


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
    p0l, p1l = trace.n10[kept] / logical[kept], trace.n01[kept] / logical[kept]
    erasure = trace.n00[kept] / (trace.n00 + logical)[kept]
    return trace.delays_us[kept], p0l, p1l, erasure, kept


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


def usable_delays(model: str, delays_us,
                  window_us: float = math.inf) -> np.ndarray:
    """Mask of the increasing delays ``delays_us`` a ``model`` fit uses,
    once checked to be enough for it (else a ConfigError): a "linear" fit
    uses those within ``window_us`` and needs >= 3, the "ramsey" oscillation
    fit uses all and needs >= 8, uniformly spaced (each step within 1% of
    their mean), and the "erasure" leakage fit uses all and needs >= 4. The
    fits check their own points here, and `check_grid` a campaign's."""
    t = np.asarray(delays_us, dtype=float)
    if model == "linear":
        sel = t <= window_us + 1e-9
        n = int(np.count_nonzero(sel))
        if n < 3:
            raise ConfigError(f"need >= 3 points within {window_us} us, "
                              f"got {n}")
        return sel
    if model == "ramsey":
        _ramsey_step(t)
    elif len(t) < 4:
        raise ConfigError("need >= 4 points for the leakage fit")
    return np.ones(len(t), dtype=bool)


def _ramsey_step(t: np.ndarray) -> float:
    """Mean step of the oscillation fit's delays ``t``, once checked to be
    >= 8 uniformly spaced ones (else a ConfigError)."""
    if len(t) < 8:
        raise ConfigError("need >= 8 points for the oscillation fit")
    steps = np.diff(t)
    dt = steps.mean()
    if not np.all(np.abs(steps - dt) <= 1e-8 + 0.01 * abs(dt)):
        raise ConfigError("the oscillation fit needs uniformly spaced delays")
    return dt


def _line_params(t, y) -> dict:
    """Least-squares line parameters of ``y`` against ``t``, or of every row
    of a 2-D ``y``, from one `line_fit` call: slope and offset, the decay
    rate gamma = -slope (per ms) and T = 1/gamma (inf where gamma <= 0)."""
    slope, offset = line_fit(t, y)
    gamma_per_ms = -slope * 1e3
    with np.errstate(divide="ignore"):
        t_ms = np.where(gamma_per_ms > 0, 1.0 / gamma_per_ms, math.inf)
    return {"slope_per_us": slope, "offset": offset,
            "gamma_per_ms": gamma_per_ms, "T_ms": t_ms}


def _decay_verdict(info, rate_per_us) -> dict:
    """A fit's diagnostics: the solver's ``info``, warning "no decay
    resolvable" for a rate <= 1 / `LONGEST_DECAY_US`, the rule
    `trace_metrics` archives no time constant by."""
    diagnostics = dict(info)
    if rate_per_us <= 1.0 / LONGEST_DECAY_US:
        diagnostics["warning"] = "no decay resolvable"
    return diagnostics


def fit_linear_short(delays_us, signal, cutoff_us: float = DEFAULT_FIT_WINDOW_US,
                     ) -> FitResult:
    """Short-window linear decay fit (ordinary least squares).

    Fits offset + slope*t to all points with delay <= cutoff and reports the
    decay rate gamma = -slope (per ms) plus T = 1/gamma. A slope >= -1 /
    `LONGEST_DECAY_US` warns "no decay resolvable" in ``diagnostics``.
    """
    delays_us = np.asarray(delays_us, dtype=float)
    sel = usable_delays("linear", delays_us, cutoff_us)
    t = delays_us[sel]
    y = np.asarray(signal, dtype=float)[sel]
    params = {k: float(v) for k, v in _line_params(t, y).items()}
    diagnostics = _decay_verdict({"n_points": int(len(t)), "converged": True},
                                 -params["slope_per_us"])
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


def _ramsey_terms(theta, t):
    """The arrays exp(-rate t), phase 2 pi f t + phi0 and their product
    exp(-rate t) cos(phase) of `_ramsey_model` at ``theta``: one point, or
    a (5, rows, 1) stack of points, which gives (rows, n) arrays."""
    _, rate, f_khz, phi0, _ = theta
    e = np.exp(-rate * t)
    phase = (2e-3 * math.pi) * t * f_khz
    phase += phi0
    ec = np.cos(phase)
    ec *= e
    return e, phase, ec


def _ramsey_model(theta, t):
    """A exp(-rate t) cos(2 pi f t + phi0) + C at ``theta`` = (A, rate, f,
    phi0, C), one point or a stack as in `_ramsey_terms`."""
    return _ramsey_terms(theta, t)[2] * theta[0] + theta[4]


def _ramsey_jacobian(theta, t, terms=None):
    """Jacobian of the residual y - `_ramsey_model` at ``theta``, from the
    `_ramsey_terms` there when a residual has them: (n, 5) at one point,
    (rows, n, 5) at a stack."""
    e, phase, ec = terms or _ramsey_terms(theta, t)
    amp = theta[0]
    aes = np.sin(phase)
    aes *= e
    aes *= amp
    jac = np.empty((*ec.shape, 5))
    np.negative(ec, out=jac[..., 0])
    np.multiply(amp * t, ec, out=jac[..., 1])
    np.multiply((2e-3 * math.pi) * t, aes, out=jac[..., 2])
    jac[..., 3] = aes
    jac[..., 4] = -1.0
    return jac


def _no_oscillation(y):
    """Zero-padded periodogram peak of each row of ``y`` (shape (..., n))
    and whether that row has no oscillation to fit: peak bin ``k`` (>= 1,
    8n points, row mean subtracted), and True where the peak power is at
    most 1e-24 n (a peak at DC) or the row's peak-to-peak is zero. The one
    drop rule of `fit_ramsey`'s start and of the Ramsey bootstrap rows."""
    n = y.shape[-1]
    power = np.abs(np.fft.rfft(y - y.mean(axis=-1, keepdims=True),
                               n=8 * n)) ** 2
    k = 1 + power[..., 1:].argmax(axis=-1)
    peak = power[..., 1:].max(axis=-1)
    return k, (peak <= 1e-24 * n) | (y.max(axis=-1) <= y.min(axis=-1))


def fit_ramsey(delays_us, p0l, detuning_hint_khz: float | None = None,
               start=None) -> FitResult:
    """Decaying-oscillation fit A exp(-t/T2R) cos(2 pi df t + phi0) + C.

    Needs >= 8 uniformly spaced delays (`usable_delays`). Initialization:
    detuning from the zero-padded periodogram peak of the mean-subtracted
    signal, amplitude from half the peak-to-peak, offset from the mean, T2R
    from a log-envelope regression. A ``detuning_hint_khz`` only checks
    that the delays span >= 2 periods. Raises FitConvergenceError when the
    periodogram peak sits at DC (no oscillation to fit, `_no_oscillation`).
    A ``start`` (the model parameters A, rate_per_us, delta_f_khz,
    phi0_rad and C, as `bootstrap_bounds` passes one near the main fit's)
    replaces that initialization and its grid and oscillation checks: the
    caller has made them.
    Refined by damped Gauss-Newton on the closed-form Jacobian until one of
    `lm_least_squares`'s stop rules holds (<= 500 iterations). Raises
    FitConvergenceError when the solver stalls. A rate <= 1 /
    `LONGEST_DECAY_US` warns "no decay resolvable" in ``diagnostics``.
    """
    t = np.asarray(delays_us, dtype=float)
    y = np.asarray(p0l, dtype=float)
    if start is None:
        dt = _ramsey_step(t)
        span = t[-1] - t[0]
        k, flat = _no_oscillation(y)
        if flat:
            raise FitConvergenceError("periodogram peak at DC: no oscillation")
        f0 = int(k) * (1.0 / (8 * len(t) * dt)) * 1e3
        if detuning_hint_khz and span * detuning_hint_khz * 1e-3 < 2.0:
            raise ConfigError("delays span fewer than 2 oscillation periods")
        c0 = float(y.mean())
        yc = y - c0
        amp0 = 0.5 * (y.max() - y.min())
        env = _envelope(yc)
        good = env > 1e-3 * env.max()
        if good.sum() >= 2 and span > 0:
            esl = float(line_fit(t[good], np.log(env[good]))[0])
            rate0 = min(max(-esl, 0.05 / span), 50.0 / span)
        else:
            rate0 = 1.0 / span
        z = np.sum(yc * np.exp(-2j * math.pi * f0 * 1e-3 * t))
        theta0 = np.array([amp0, rate0, f0, float(np.angle(z)), c0])
    else:
        theta0 = np.array(start, dtype=float)
    last = [None, None]     # the point and `_ramsey_terms` of the last call

    def resid(theta):
        # `_ramsey_model`, keeping its terms for the Jacobian
        point = theta.tolist()
        last[:] = point, _ramsey_terms(point, t)
        return y - (last[1][2] * point[0] + point[4])

    def jacobian(theta):
        # lm_least_squares takes the Jacobian where it last took a residual
        return _ramsey_jacobian(
            theta, t, last[1] if theta.tolist() == last[0] else None)

    theta, info = lm_least_squares(resid, theta0, jacobian=jacobian)
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
                     diagnostics=_decay_verdict(info, rate))


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
    "flat trace"; any other rate <= 1 / `LONGEST_DECAY_US` warns "no decay
    resolvable". Needs >= 4 delays (`usable_delays`); the start takes D
    from the first point, A from the last, and the rate from the first
    delay that reaches 63.2% of the rise. `bootstrap_bounds` refits each
    resampled row from this same start.
    """
    t = np.asarray(delays_us, dtype=float)
    y = np.asarray(p00, dtype=float)
    usable_delays("erasure", t)
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
                     diagnostics=_decay_verdict(info, rate))


# per analysis kind: its fit model and the metric row it reports ({} stands
# for a physical reference's mode, d or q)
KIND_METRIC = {"bitflip": ("linear", "t1l_us"),
               "hahn_echo": ("linear", "t2el_us"),
               "ramsey": ("ramsey", "t2rl_us"),
               "erasure": ("erasure", "gamma_erasure_per_ms"),
               "phys_t1": ("erasure", "phys_t1_{}_us"),
               "phys_echo": ("linear", "phys_t2e_{}_us"),
               "phys_ramsey": ("ramsey", "phys_t2r_{}_us")}
LOGICAL_KINDS = ("bitflip", "hahn_echo", "ramsey")
# the analysis kinds fitted to one trace set of an experiment kind: a
# logical kind's trace set is fitted for its leakage ("erasure") too
_FITTED_KINDS = {kind: (kind, "erasure") if kind in LOGICAL_KINDS else (kind,)
                 for kind in KIND_METRIC}


def check_grid(kind: str, delays_us, window_us: float) -> None:
    """ConfigError ("delay grid for <kind>: ...") unless every fit of a
    ``kind`` trace set can use the delays ``delays_us``."""
    for fitted in _FITTED_KINDS[kind]:
        try:
            usable_delays(KIND_METRIC[fitted][0], delays_us, window_us)
        except ConfigError as exc:
            raise ConfigError(f"delay grid for {kind}: {exc}") from exc


def fit_trace(kind: str, traces, window_us: float) -> FitResult:
    """The fit of one experiment's traces, its model by `KIND_METRIC`.

    bitflip: linear fit of `bitflip_difference` of the init 10 and 01
    traces; erasure and phys_t1: leakage fit of the pooled |00> fraction of
    every trace, all on one delay grid; every other kind reads exactly one
    trace: hahn_echo and ramsey fit its postselected P(0_L), phys_echo and
    phys_ramsey the excited fraction of the mode its +D/+Q label names.
    Linear fits use the points within ``window_us``. Any other trace set is
    a ConfigError.
    """
    if kind not in KIND_METRIC:
        raise ConfigError(f"unknown analysis kind {kind!r}")
    model = KIND_METRIC[kind][0]
    tr = traces[0]
    if kind == "bitflip":
        by_init = {t.init_label: t for t in traces}
        if "10" not in by_init or "01" not in by_init:
            raise ConfigError("bit-flip analysis needs init 10 and 01 rows")
        delays, signal = bitflip_difference(by_init["10"], by_init["01"])
    elif model == "erasure":
        if not all(np.array_equal(t.delays_us, tr.delays_us) for t in traces):
            raise ConfigError(f"{kind} analysis needs one delay grid")
        delays = tr.delays_us
        signal = sum(t.n00 for t in traces) / sum(t.n_total for t in traces)
    elif len(traces) != 1:
        raise ConfigError(f"{kind} analysis reads one trace, not init labels "
                          f"{', '.join(t.init_label for t in traces)}")
    elif kind in ("hahn_echo", "ramsey"):
        delays, signal, _, _, _ = postselect_trace(tr)
    else:
        excited = tr.n10 if tr.init_label == "+D" else tr.n01
        delays, signal = tr.delays_us, excited / tr.n_total
    if model == "linear":
        return fit_linear_short(delays, signal, cutoff_us=window_us)
    if model == "ramsey":
        return fit_ramsey(delays, signal)
    return fit_erasure(delays, signal)


# --------------------------------------------------------------------------
# Bootstrap

_MODEL_DOF = {"linear": 2, "ramsey": 5, "erasure": 3}
_RAMSEY_PARAMS = ("A", "rate_per_us", "delta_f_khz", "phi0_rad", "C")
# Gauss-Newton steps of a Ramsey refit's start: three leave nearly every
# refit one solve from its stop rule
_START_STEPS = 3


def _gauss_newton_starts(fit: FitResult, synthetic) -> np.ndarray:
    """(rows, 5) Ramsey refit starts, one per synthetic trace y* (a row of
    ``synthetic``): `_START_STEPS` Gauss-Newton steps theta - (J^T J)^-1
    J^T (y* - model) from the main fit's parameters, each row on its own J,
    one batched solve per step. A singular J^T J ends the steps (at the
    main fit, the first step: every row then starts there). A row whose
    start fits its y* worse than the main fit does, or not at all (an
    undamped step can overshoot, or overflow), starts at the main fit's
    parameters."""
    t = fit.delays_us
    theta = np.array([fit.params[k] for k in _RAMSEY_PARAMS])
    starts = np.tile(theta, (len(synthetic), 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_START_STEPS):
            point = starts.T[..., None]
            terms = _ramsey_terms(point, t)
            jac = _ramsey_jacobian(point, t, terms)
            jac_t = np.swapaxes(jac, 1, 2)
            resid = synthetic - (terms[2] * point[0] + point[4])
            try:
                starts -= np.linalg.solve(jac_t @ jac,
                                          jac_t @ resid[..., None])[..., 0]
            except np.linalg.LinAlgError:
                break
        resid = synthetic - _ramsey_model(starts.T[..., None], t)
        worse = ~(np.sum(resid * resid, axis=1) <=
                  np.sum((synthetic - fit.fitted) ** 2, axis=1))
    starts[worse] = theta
    return starts


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
    window). Ramsey and leakage rows are refit one at a time by
    `fit_ramsey`/`fit_erasure`, each a single `lm_least_squares` run. A
    Ramsey refit starts near the main fit (`_gauss_newton_starts`), so no
    refit repeats the periodogram and envelope starts; the checks those
    starts made are made once per bootstrap: the grid (`usable_delays`: a
    nonuniform grid is a ConfigError) and the no-oscillation rule of
    `_no_oscillation` on all rows in one batched FFT. A leakage refit keeps
    `fit_erasure`'s own start. A row is dropped where the no-oscillation
    rule holds or its refit raises FitConvergenceError; more than 20% drops
    is a ResampleError. Any other error propagates, and an unknown model is
    a ValueError before any draw. Deterministic given ``seed``.
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
        if fit.model == "ramsey":
            usable_delays("ramsey", fit.delays_us)
            flat = _no_oscillation(synthetic)[1]
            dropped = int(np.count_nonzero(flat))
            synthetic = synthetic[~flat]
            starts = _gauss_newton_starts(fit, synthetic)
        values = {k: [] for k in fit.params}
        for i, y_star in enumerate(synthetic):
            try:
                if fit.model == "ramsey":
                    refit = fit_ramsey(fit.delays_us, y_star,
                                       start=starts[i])
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
        lo, hi = quantiles(vals,
                           [BOOTSTRAP_QUANTILE, 1.0 - BOOTSTRAP_QUANTILE])
        bounds[k] = (min(float(lo), est), max(float(hi), est))
    fit.bounds = bounds
    fit.diagnostics["bootstrap"] = {"n_resamples": n_resamples,
                                    "dropped": dropped, "seed": seed,
                                    "quantile": BOOTSTRAP_QUANTILE}
    return bounds


# --------------------------------------------------------------------------
# Metric rows

# per model: the fit parameter holding its decay rate, and the numerator
# that turns that rate into a time constant in us
_RATE_OF_MODEL = {"linear": ("gamma_per_ms", 1e3),
                  "ramsey": ("rate_per_us", 1.0),
                  "erasure": ("gamma_erasure_per_ms", 1e3)}


def trace_metrics(kind: str, traces, window_us: float, resamples: int = 0,
                  seed: int = 0) -> list:
    """Metric rows ``(metric, estimate, lower, upper)`` of one trace set of
    experiment ``kind``: one row per `fit_trace` fit of the kind and, for a
    logical kind, of its leakage, named by `KIND_METRIC` (mode d for a first
    init label 10 or +D, else q); a ramsey fit adds ``delta_f_hz``. A row
    named for its model's rate (`_RATE_OF_MODEL`) holds it; any other holds
    numerator / rate if that is below `LONGEST_DECAY_US`, else NaN. Only a
    logical kind's own fit with an estimate is bootstrapped (``resamples``
    refits from ``seed``), bounded by the numerator over the rate quantiles
    (inf over one <= 0); every other bound is NaN. An expected fit failure
    (FitConvergenceError, or ConfigError for too few usable points) leaves
    a gap: that fit writes no row.
    """
    rows = []
    mode = "d" if traces[0].init_label in ("10", "+D") else "q"
    for fitted in _FITTED_KINDS[kind]:
        try:
            fit = fit_trace(fitted, traces, window_us)
        except (FitConvergenceError, ConfigError):
            continue
        metric = KIND_METRIC[fitted][1]
        rate_name, numerator = _RATE_OF_MODEL[fit.model]
        estimate = rate = fit.params[rate_name]
        if metric != rate_name:
            resolved = rate > 0 and numerator / rate < LONGEST_DECAY_US
            estimate = numerator / rate if resolved else math.nan
        lo = hi = math.nan
        # a fit without a time constant has nothing to bound
        if (fitted in LOGICAL_KINDS and resamples > 0
                and not math.isnan(estimate)):
            try:
                glo, ghi = bootstrap_bounds(fit, resamples, seed)[rate_name]
                lo, hi = (numerator / g if g > 0 else math.inf
                          for g in (ghi, glo))
            except ResampleError:
                pass
        rows.append((metric.format(mode), estimate, lo, hi))
        if fitted == "ramsey":
            flo, fhi = (fit.bounds or {}).get("delta_f_khz", (math.nan,) * 2)
            rows.append(("delta_f_hz", fit.params["delta_f_khz"] * 1e3,
                         flo * 1e3, fhi * 1e3))
    return rows
