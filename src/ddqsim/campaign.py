"""Repeated interleaved experiments over virtual wall-clock time.

A campaign executes the configured experiment set once per repetition per
device, advancing a virtual clock by a fixed interval per trace. Slow
(persistent) telegraph processes advance with the virtual clock so frequency
jumps appear across traces. Every trace is archived (append-only) together
with its fitted metrics, and the whole run is byte-reproducible from the
campaign seed; interrupted runs resume to the identical archive.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np

from . import __version__, streams
from .device import DeviceParams, load_device
from .dynamics import (DEFAULT_DETUNING_KHZ, DEFAULT_NOISE_DT_US,
                       PulseSequence, ShotBatch, run_sequence_batch)
from .errors import ConfigError, DdqError, FitConvergenceError
from .metrology import (BOOTSTRAP_RESAMPLES, DEFAULT_FIT_WINDOW_US, TraceData,
                        bootstrap_bounds, fit_erasure, fit_trace,
                        write_trace_csv)
from .noise import NoiseProcess
from .readout import (BLOB_OF_LEVEL, ReadoutModel, classify_batch,
                      default_blob_means, sample_iq_batch, train_classifier)

MOVING_AVERAGE_WINDOW = 50

EXPERIMENT_KINDS = ("bitflip", "hahn_echo", "ramsey")

DEFAULT_DELAYS_US = {
    "bitflip": [0, 5, 10, 15, 20, 25, 30, 50, 80, 120, 180, 260, 340, 400],
    "hahn_echo": [0, 5, 10, 15, 20, 25, 30, 50, 80, 120, 180, 260, 340, 400],
    "ramsey": [0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33, 36, 39, 42],
    "phys_t1": [0, 10, 20, 30, 45, 60, 80, 100, 130, 160, 200, 250],
    "phys_echo": [0, 5, 10, 15, 20, 25, 30, 50, 80, 120, 180, 260],
    "phys_ramsey": [0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33, 36, 39, 42],
}

METRICS_CSV_HEADER = ("timestamp_s", "device", "metric", "estimate",
                      "lower", "upper")

@dataclass
class CampaignConfig:
    """Everything needed to rerun a campaign bit-for-bit."""

    devices: list
    experiments: list
    repetitions: int
    seed: int
    shots_per_point: int = 2000
    delays_us: dict = field(default_factory=dict)
    interval_s: float = 100.0
    noise: list = field(default_factory=list)
    detuning_khz: float = DEFAULT_DETUNING_KHZ
    readout_enabled: bool = True
    readout_sigma: float = 1.0
    readout_radius_sigmas: float = 5.0
    readout_t_ro_us: float = 1.0
    physical_refs: str = "t1"   # "none" | "t1" | "full" (adds echo + Ramsey)
    shots_physical: int = 1000
    bootstrap_resamples: int = BOOTSTRAP_RESAMPLES
    fit_window_us: float = DEFAULT_FIT_WINDOW_US
    noise_dt_us: float = DEFAULT_NOISE_DT_US
    threads: int = 1

    def __post_init__(self):
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.shots_per_point < 100:
            raise ConfigError("shots per point must be >= 100")
        if not self.devices:
            raise ConfigError("need at least one device")
        for exp in self.experiments:
            if exp not in EXPERIMENT_KINDS:
                raise ConfigError(f"unknown experiment {exp!r}")
        if self.physical_refs in (False, None):
            self.physical_refs = "none"
        elif self.physical_refs is True:
            self.physical_refs = "t1"
        if self.physical_refs not in ("none", "t1", "full"):
            raise ConfigError("physical_refs must be none, t1 or full")
        delays = {k: [float(x) for x in v]
                  for k, v in {**DEFAULT_DELAYS_US, **self.delays_us}.items()}
        for kind, grid in delays.items():
            if not grid or np.any(np.diff(grid) <= 0):
                raise ConfigError(f"delay grid for {kind} must be ascending")
        self.delays_us = delays
        self.noise = [p if isinstance(p, NoiseProcess) else
                      NoiseProcess.from_dict(p) for p in self.noise]

    def to_dict(self) -> dict:
        d = asdict(self)
        d["noise"] = [p.to_dict() for p in self.noise]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "CampaignConfig":
        return cls(**d)

    @classmethod
    def from_json(cls, path) -> "CampaignConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls.from_dict(json.load(fh))
        except FileNotFoundError as exc:
            raise ConfigError(f"campaign config not found: {path}") from exc
        except (json.JSONDecodeError, TypeError) as exc:
            raise ConfigError(f"invalid campaign config {path}: {exc}") from exc

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


@dataclass
class MetricPoint:
    timestamp_s: float
    device: str
    metric: str
    estimate: float
    lower: float = math.nan
    upper: float = math.nan


def _fmt(x: float) -> str:
    return "" if x is None or (isinstance(x, float) and math.isnan(x)) else repr(float(x))


def write_metrics_csv(path, rows, append: bool = False) -> None:
    mode = "a" if append else "w"
    with open(path, mode, encoding="utf-8", newline="") as fh:
        if not append:
            fh.write(",".join(METRICS_CSV_HEADER) + "\n")
        for r in rows:
            fh.write(",".join([repr(float(r.timestamp_s)), r.device, r.metric,
                               _fmt(r.estimate), _fmt(r.lower),
                               _fmt(r.upper)]) + "\n")


def read_metrics_csv(path) -> list:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header != list(METRICS_CSV_HEADER):
            raise ConfigError(f"{path}: bad metrics header {header}")
        for ln, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                rows.append(MetricPoint(
                    timestamp_s=float(parts[0]), device=parts[1],
                    metric=parts[2], estimate=float(parts[3]),
                    lower=float(parts[4]) if parts[4] else math.nan,
                    upper=float(parts[5]) if parts[5] else math.nan))
            except (ValueError, IndexError) as exc:
                raise ConfigError(f"{path}: line {ln}: {exc}") from exc
    return rows


# --------------------------------------------------------------------------
# Trace simulation

@dataclass
class SimPoint:
    """Shots of one (initialization, delay) point of an experiment."""

    init: str                  # prepared-state label of the trace
    batch: ShotBatch
    iq: np.ndarray | None      # (shots, 2) readout points, with a model only
    blobs: np.ndarray          # assigned blob per shot: 0=|00>, 1=|01>, 2=|10>


def _inits(kind: str, init: str | None) -> list:
    if kind == "bitflip":
        return [init] if init else ["10", "01"]
    if kind in ("hahn_echo", "ramsey"):
        return ["+"]
    if kind == "phys_t1":
        return [init or "01"]
    if kind in ("phys_echo", "phys_ramsey"):
        # init selects the mode by its excited level; the prepared state is
        # the mode superposition, recorded as +D / +Q
        return ["+D" if (init or "01") == "10" else "+Q"]
    raise ConfigError(f"unknown experiment kind {kind!r}")


def _sequence(kind: str, init: str, delay: float,
              detuning_khz: float) -> PulseSequence:
    if kind == "bitflip":
        return PulseSequence.bitflip(init, delay)
    if kind == "hahn_echo":
        return PulseSequence.hahn_echo(delay)
    if kind == "ramsey":
        return PulseSequence.ramsey(delay, detuning_khz=detuning_khz)
    if kind == "phys_echo":
        return PulseSequence.phys_echo(init[1:], delay)
    if kind == "phys_ramsey":
        return PulseSequence.phys_ramsey(init[1:], delay,
                                         detuning_khz=detuning_khz)
    return PulseSequence.relaxation("D" if init == "10" else "Q", delay)


def simulate_points(params: DeviceParams, kind: str, delays_us, shots, *,
                    seed: int, init=None, noise=(),
                    detuning_khz=DEFAULT_DETUNING_KHZ,
                    noise_dt_us=DEFAULT_NOISE_DT_US,
                    static_offsets_hz=(0.0, 0.0), readout=None,
                    threads: int = 1) -> list[SimPoint]:
    """Simulate every (initialization, delay) point of one experiment.

    The bit-flip experiment has both logical initializations unless
    ``init`` picks one. Point (i, j) of initialization i and delay j draws
    from the streams of ``stream_key(seed, 900 + i, j)``, so results do not
    depend on ``threads``. ``readout`` is None, or a ``(ReadoutModel,
    classifier)`` pair: with a model each shot emits an IQ point, which the
    classifier assigns to a blob. Without a classifier, shots read out
    through ``BLOB_OF_LEVEL``: doubly excited levels land on their
    single-excitation parent blob. Points come back in (init, delay) order.
    """
    model, clf = readout if readout is not None else (None, None)

    def run_point(work):
        i, init_label, j, delay = work
        point_seed = int(streams.stream_key(seed, 900 + i, j))
        batch = run_sequence_batch(
            params, _sequence(kind, init_label, delay, detuning_khz), noise,
            seed=point_seed, n_shots=shots, noise_dt_us=noise_dt_us,
            static_offsets_hz=static_offsets_hz)
        iq = None
        if model is not None:
            iq = sample_iq_batch(batch.levels, model, params, seed=point_seed)
        blobs = (BLOB_OF_LEVEL[batch.levels] if clf is None
                 else classify_batch(clf, iq))
        return SimPoint(init_label, batch, iq, blobs)

    work = [(i, init_label, j, d)
            for i, init_label in enumerate(_inits(kind, init))
            for j, d in enumerate(delays_us)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(run_point, work))
    return [run_point(w) for w in work]


def counts_traces(points, kind: str, delays_us, shots,
                  timestamp_s: float = 0.0) -> list[TraceData]:
    """Bin the assigned blobs of `simulate_points` into one trace per init."""
    n = len(delays_us)
    counts = np.array([np.bincount(p.blobs, minlength=3) for p in points])
    return [TraceData(delays_us=np.asarray(delays_us, float),
                      n00=c[:, 0], n01=c[:, 1], n10=c[:, 2],
                      n_total=np.full(n, shots, dtype=np.int64),
                      kind=kind, init_label=points[i * n].init,
                      timestamp_s=timestamp_s)
            for i, c in enumerate(counts.reshape(len(points) // max(n, 1),
                                                 n, 3))]


def simulate_counts_trace(params: DeviceParams, kind: str, delays_us, shots,
                          *, timestamp_s: float = 0.0,
                          **kwargs) -> list[TraceData]:
    """Simulate one experiment trace and bin shots into per-delay counts.

    Returns one TraceData, or two for the bit-flip experiment (both logical
    initializations) unless ``init`` picks one. The keyword arguments are
    those of `simulate_points`.
    """
    points = simulate_points(params, kind, delays_us, shots, **kwargs)
    return counts_traces(points, kind, delays_us, shots, timestamp_s)


# --------------------------------------------------------------------------
# Metric extraction from traces

def _bounds_for(fit, resamples, seed, rate_param, rate_to_time_us):
    """Bootstrap bounds on a time constant, inverted from its rate quantiles."""
    if resamples <= 0:
        return math.nan, math.nan
    try:
        bounds = bootstrap_bounds(fit, n_resamples=resamples, seed=seed)
    except DdqError:
        return math.nan, math.nan
    glo, ghi = bounds[rate_param]
    lo = rate_to_time_us / ghi if ghi > 0 else math.inf
    hi = rate_to_time_us / glo if glo > 0 else math.inf
    return min(lo, hi), max(lo, hi)


# metric row of each experiment kind; {} is a physical reference's mode
_METRIC_OF_KIND = {"bitflip": "t1l_us", "hahn_echo": "t2el_us",
                   "ramsey": "t2rl_us", "phys_t1": "phys_t1_{}_us",
                   "phys_echo": "phys_t2e_{}_us",
                   "phys_ramsey": "phys_t2r_{}_us"}
# fit parameter whose bootstrap quantiles bound a logical time constant,
# and the numerator that turns that rate into microseconds
_RATE_OF_MODEL = {"linear": ("gamma_per_ms", 1e3),
                  "ramsey": ("rate_per_us", 1.0)}


def _time_us(fit) -> float:
    """The fit's time constant in us (NaN for a linear fit without decay)."""
    if fit.model == "linear":
        gamma = fit.params["gamma_per_ms"]
        return 1e3 / gamma if gamma > 0 else math.nan
    return fit.params["T2R_us" if fit.model == "ramsey" else "T_erasure_us"]


def _trace_metrics(kind, traces, device, ts, resamples, seed, window_us):
    """Fit one archived trace set and emit its metric rows.

    An expected fit failure (FitConvergenceError, or ConfigError for too
    few usable points) leaves a gap: the metric's row is not written. Any
    other error propagates and aborts the campaign.
    """
    rows = []
    tr = traces[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            fit = fit_trace(kind, traces, window_us)
        except (FitConvergenceError, ConfigError):
            return rows
        lo = hi = math.nan
        if kind in EXPERIMENT_KINDS:
            lo, hi = _bounds_for(fit, resamples, seed,
                                 *_RATE_OF_MODEL[fit.model])
        mode = "d" if tr.init_label in ("10", "+D") else "q"
        rows.append(MetricPoint(ts, device, _METRIC_OF_KIND[kind].format(mode),
                                _time_us(fit), lo, hi))
        if kind == "ramsey":
            flo, fhi = (math.nan, math.nan)
            if fit.bounds and "delta_f_khz" in fit.bounds:
                flo, fhi = (fit.bounds["delta_f_khz"][0] * 1e3,
                            fit.bounds["delta_f_khz"][1] * 1e3)
            rows.append(MetricPoint(ts, device, "delta_f_hz",
                                    fit.params["delta_f_khz"] * 1e3,
                                    flo, fhi))
        # leakage rate from the trace's own |00> fraction
        if kind in EXPERIMENT_KINDS:
            try:
                p00 = (sum(t.n00 for t in traces) /
                       sum(t.n_total for t in traces))
                fit = fit_erasure(tr.delays_us, p00)
                rows.append(MetricPoint(ts, device, "gamma_erasure_per_ms",
                                        fit.params["gamma_erasure_per_ms"]))
            except (FitConvergenceError, ConfigError):
                pass
    return rows


# --------------------------------------------------------------------------
# Campaign driver

def _persistent_values(config: CampaignConfig, n_traces: int) -> np.ndarray:
    """Per-trace (off_D, off_Q) offsets from persistent telegraph processes.

    State k is replayed from the campaign seed alone: the process flips
    between trace timestamps with probability (1 - exp(-2 nu dt))/2, the
    equilibrium state-propagation rule, so resumed campaigns see identical
    histories.
    """
    offsets = np.zeros((n_traces, 2))
    for p_idx, proc in enumerate(config.noise):
        if not proc.persistent:
            continue
        if proc.kind != "telegraph":
            raise ConfigError("only telegraph processes can be persistent")
        key = streams.stream_key(config.seed, streams.TAG_PERSISTENT + p_idx)
        u = streams.uniforms(key, np.arange(n_traces), 0)
        p_flip = 0.5 * (1.0 - math.exp(-2.0 * proc.switching_rate_hz *
                                       config.interval_s))
        flips = np.concatenate([[u[0] < 0.5], u[1:] < p_flip])
        sign = np.where(np.cumsum(flips) % 2 == 1, 1.0, -1.0)
        value = sign * 0.5 * proc.amplitude
        offsets[:, 0] += proc.mode_weight("D") * value
        offsets[:, 1] += proc.mode_weight("Q") * value
    return offsets


def _trace_plan(config: CampaignConfig) -> list:
    plan = []
    experiments = list(config.experiments)
    if config.physical_refs != "none":
        experiments += ["phys_t1_D", "phys_t1_Q"]
    if config.physical_refs == "full":
        experiments += ["phys_echo_D", "phys_echo_Q",
                        "phys_ramsey_D", "phys_ramsey_Q"]
    for rep in range(config.repetitions):
        for dev in config.devices:
            for exp in experiments:
                plan.append((rep, dev, exp))
    return plan


def _readouts(config, devices) -> dict:
    """Device name -> (ReadoutModel, classifier), or None without readout."""
    if not config.readout_enabled:
        return {name: None for name in devices}
    model = ReadoutModel(
        means=default_blob_means(config.readout_sigma,
                                 config.readout_radius_sigmas),
        sigma=config.readout_sigma, t_ro_us=config.readout_t_ro_us)
    return {name: (model, train_classifier(
                model, params, int(streams.stream_key(
                    config.seed, streams.TAG_READOUT_TRAIN, d_idx))))
            for d_idx, (name, params) in enumerate(devices.items())}


def _completed_prefix(trace_dir: str, n_traces: int) -> int:
    present = set()
    if os.path.isdir(trace_dir):
        for fn in os.listdir(trace_dir):
            if fn.startswith("trace_") and fn.endswith(".csv"):
                try:
                    present.add(int(fn.split("_")[1]))
                except ValueError:
                    continue
    k = 0
    while k in present and k < n_traces:
        k += 1
    return k


def run_campaign(config: CampaignConfig, out_dir, *, resume: bool = False,
                 stop_after: int | None = None) -> list:
    """Execute (or resume) a campaign; returns all metric rows.

    The archive directory holds ``manifest.json``, append-only
    ``metrics.csv``, one CSV per trace under ``traces/`` and per-device
    fitted-frequency series. Fully deterministic given the campaign seed.
    """
    os.makedirs(out_dir, exist_ok=True)
    trace_dir = os.path.join(out_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    metrics_path = os.path.join(out_dir, "metrics.csv")
    manifest_path = os.path.join(out_dir, "manifest.json")

    devices = {name: load_device(name) for name in config.devices}
    plan = _trace_plan(config)
    n_traces = len(plan)
    manifest = {"seed": config.seed, "config": config.to_dict(),
                "config_sha256": config.config_hash(),
                "package_version": __version__, "n_traces": n_traces,
                "completed": False}

    start = 0
    if resume:
        if not os.path.exists(manifest_path):
            raise ConfigError("nothing to resume: no manifest in archive")
        with open(manifest_path, "r", encoding="utf-8") as fh:
            old = json.load(fh)
        if old.get("config_sha256") != manifest["config_sha256"]:
            raise ConfigError("archive was produced by a different config")
        start = _completed_prefix(trace_dir, n_traces)
        if os.path.exists(metrics_path):
            t_cut = start * config.interval_s
            rows = [r for r in read_metrics_csv(metrics_path)
                    if r.timestamp_s < t_cut - 1e-9]
            write_metrics_csv(metrics_path, rows)
        else:
            write_metrics_csv(metrics_path, [])
    else:
        if os.path.exists(metrics_path):
            os.remove(metrics_path)
        for fn in os.listdir(trace_dir):
            os.remove(os.path.join(trace_dir, fn))
        write_metrics_csv(metrics_path, [])
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)

    offsets = _persistent_values(config, n_traces)
    shot_noise = [p for p in config.noise if not p.persistent]
    readouts = _readouts(config, devices)

    done = start
    for idx in range(start, n_traces):
        if stop_after is not None and done - start >= stop_after:
            break
        rep, dev, exp = plan[idx]
        ts = idx * config.interval_s
        params = devices[dev]
        trace_seed = int(streams.stream_key(config.seed, 70000 + idx))
        if exp.startswith("phys_"):
            kind = exp[:exp.rfind("_")]
            init = "10" if exp.endswith("D") else "01"
            shots, delays = config.shots_physical, config.delays_us[kind]
        else:
            kind, init = exp, None
            shots, delays = config.shots_per_point, config.delays_us[exp]
        traces = simulate_counts_trace(
            params, kind, delays, shots, seed=trace_seed, noise=shot_noise,
            detuning_khz=config.detuning_khz, noise_dt_us=config.noise_dt_us,
            static_offsets_hz=tuple(offsets[idx]),
            readout=readouts[dev], init=init, timestamp_s=ts,
            threads=config.threads)
        rows = _trace_metrics(kind, traces, dev, ts,
                              config.bootstrap_resamples, trace_seed,
                              config.fit_window_us)
        write_metrics_csv(metrics_path, rows, append=True)
        # the trace file lands last: its presence marks the trace complete
        write_trace_csv(os.path.join(
            trace_dir, f"trace_{idx:05d}_{dev}_{exp}.csv"), traces)
        done += 1

    all_rows = read_metrics_csv(metrics_path)
    if done == n_traces:
        _write_freq_series(out_dir, config, all_rows)
        manifest["completed"] = True
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
    return all_rows


def _write_freq_series(out_dir, config, rows) -> None:
    from .noise_analysis import FREQ_CSV_HEADER
    for dev in config.devices:
        sel = [r for r in rows if r.device == dev and r.metric == "delta_f_hz"]
        if len(sel) < 2:
            continue
        path = os.path.join(out_dir, f"freq_{dev}.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(FREQ_CSV_HEADER) + "\n")
            for r in sel:
                fh.write(f"{r.timestamp_s!r},{r.estimate!r},logical\n")


# --------------------------------------------------------------------------
# Series utilities

def moving_average(values, window: int = MOVING_AVERAGE_WINDOW) -> np.ndarray:
    """Centered moving mean, shrinking at the edges, NaN gaps skipped."""
    if window < 1:
        raise ValueError("window must be >= 1")
    v = np.asarray(values, dtype=float)
    out = np.empty_like(v)
    left = (window - 1) // 2
    right = window // 2
    for i in range(len(v)):
        lo = max(0, i - left)
        hi = min(len(v), i + right + 1)
        chunk = v[lo:hi]
        good = np.isfinite(chunk)
        out[i] = chunk[good].mean() if good.any() else math.nan
    return out


def summarize(rows) -> dict:
    """Tukey boxplot statistics per metric (and per device when present).

    Accepts MetricPoint rows or a mapping name -> values. Returns
    {metric: {median, q1, q3, whisker_lo, whisker_hi, outliers, n}}.
    """
    groups: dict[str, list] = {}
    if isinstance(rows, dict):
        groups = {k: list(v) for k, v in rows.items()}
    else:
        for r in rows:
            groups.setdefault(r.metric, []).append(r.estimate)
    out = {}
    for name, vals in groups.items():
        v = np.asarray([x for x in vals if np.isfinite(x)], dtype=float)
        if len(v) == 0:
            continue
        q1, med, q3 = np.percentile(v, [25, 50, 75])
        iqr = q3 - q1
        in_lo = v[v >= q1 - 1.5 * iqr]
        in_hi = v[v <= q3 + 1.5 * iqr]
        out[name] = {
            "median": float(med), "q1": float(q1), "q3": float(q3),
            "whisker_lo": float(in_lo.min()), "whisker_hi": float(in_hi.max()),
            "outliers": v[(v < q1 - 1.5 * iqr) | (v > q3 + 1.5 * iqr)].tolist(),
            "n": int(len(v)),
        }
    return out
