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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from . import __version__, streams
from .device import DeviceParams, load_device
from .dynamics import (DEFAULT_DETUNING_KHZ, DEFAULT_NOISE_DT_US,
                       PulseSequence, ShotBatch, run_sequence_batch,
                       run_trace_batch)
from .errors import ConfigError
from .fitting import quantiles
from .metrology import (BOOTSTRAP_RESAMPLES, DEFAULT_FIT_WINDOW_US,
                        LOGICAL_KINDS, TraceData, check_grid, trace_metrics,
                        write_trace_csv)
from .noise import noise_processes, telegraph_from_uniforms
from .readout import (BLOB_OF_LEVEL, ReadoutModel, classify_batch,
                      default_blob_means, sample_iq_batch, train_classifier)
from .tables import (FREQUENCY, METRICS, read_appended, read_json,
                     read_table, write_json, write_table)

MOVING_AVERAGE_WINDOW = 50
# the layout of the bytes a seed writes, in `run_campaign`'s manifest: every
# change that makes one seed write other bytes bumps it, so a resume never
# mixes two. A manifest without it is layout 1 (before the PPND16 normals);
# layout 3 fits lines by `fitting.line_fit` and leaves no-decay fits empty;
# layout 4 draws each delay segment's jumps from `dynamics._segment_table`.
OUTPUT_LAYOUT = 4

DEFAULT_DELAYS_US = {
    "bitflip": [0, 5, 10, 15, 20, 25, 30, 50, 80, 120, 180, 260, 340, 400],
    "hahn_echo": [0, 5, 10, 15, 20, 25, 30, 50, 80, 120, 180, 260, 340, 400],
    "ramsey": [0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33, 36, 39, 42],
    "phys_t1": [0, 10, 20, 30, 45, 60, 80, 100, 130, 160, 200, 250],
    "phys_echo": [0, 5, 10, 15, 20, 25, 30, 50, 80, 120, 180, 260],
    "phys_ramsey": [0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33, 36, 39, 42],
}


def delay_grid(values, what: str) -> list:
    """``values`` as a list of floats, once checked to be a delay grid: at
    least one delay, each a finite, non-negative number, in strictly
    increasing order. Anything else is a ConfigError naming ``what``."""
    if not isinstance(values, list) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool)
            for x in values):
        raise ConfigError(f"{what} must be a list of numbers")
    grid = [float(x) for x in values]
    if not grid:
        raise ConfigError(f"{what} holds no delay")
    if not all(map(math.isfinite, grid)):
        raise ConfigError(f"{what} must be finite")
    if grid[0] < 0:
        raise ConfigError(f"{what} has a negative delay")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"{what} must be strictly increasing")
    return grid


# annotated type of a config field (a string, as annotations are not
# evaluated here) -> the JSON values it takes, and their name; a bool
# field takes only a bool, and no other field takes one
_FIELD_TYPES = {"int": (int, "an integer"), "float": ((int, float), "a number"),
                "bool": (bool, "true or false"), "list": (list, "a list"),
                "dict": (dict, "an object")}


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
        for f in fields(self):
            kinds, noun = _FIELD_TYPES.get(f.type, (None, ""))
            value = getattr(self, f.name)
            if kinds and (isinstance(value, bool) != (kinds is bool) or
                          not isinstance(value, kinds)):
                raise ConfigError(f"{f.name} must be {noun}, not {value!r}")
        if self.bootstrap_resamples < 0:
            raise ConfigError("bootstrap_resamples must be >= 0")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.shots_per_point < 100:
            raise ConfigError("shots per point must be >= 100")
        if not self.devices:
            raise ConfigError("need at least one device")
        for exp in self.experiments:
            if exp not in LOGICAL_KINDS:
                raise ConfigError(f"unknown experiment {exp!r}")
        if isinstance(self.physical_refs, bool):
            self.physical_refs = "t1" if self.physical_refs else "none"
        if self.physical_refs not in ("none", "t1", "full"):
            raise ConfigError("physical_refs must be true, false, none, t1 "
                              "or full")
        if self.physical_refs != "none" and self.shots_physical < 1:
            raise ConfigError("physical shots per point must be >= 1")
        for kind in self.delays_us:
            if kind not in DEFAULT_DELAYS_US:
                raise ConfigError(f"delays_us names no experiment kind: "
                                  f"{kind!r}")
        self.delays_us = {
            kind: delay_grid(grid, f"delay grid for {kind}")
            for kind, grid in {**DEFAULT_DELAYS_US, **self.delays_us}.items()}
        if not all(0 < v < math.inf for v in (
                self.noise_dt_us, self.interval_s, self.fit_window_us)):
            raise ConfigError("noise_dt_us, interval_s and fit_window_us "
                              "must be positive and finite")
        if not math.isfinite(self.detuning_khz):
            raise ConfigError("detuning_khz must be finite")
        self.noise = noise_processes(self.noise, "the campaign config")
        if any(p.persistent and p.kind != "telegraph" for p in self.noise):
            raise ConfigError("only telegraph processes can be persistent")
        planned = _planned_experiments(self)
        if not planned:
            raise ConfigError("the campaign plans no trace: no experiments "
                              "and physical_refs none")
        for exp in planned:
            kind = _PHYSICAL_REFS.get(exp, (exp,))[0]
            check_grid(kind, self.delays_us[kind], self.fit_window_us)

    def to_dict(self) -> dict:
        """The config as archived; ``threads`` never changes results, so it
        is left out and archives do not depend on the machine."""
        d = asdict(self)
        del d["threads"]
        return d

    @classmethod
    def from_json(cls, path) -> "CampaignConfig":
        d = read_json(path, "campaign config")
        if isinstance(d, dict) and "threads" in d:
            raise ConfigError(f"invalid campaign config {path}: the thread "
                              f"count is set by --threads, not the config")
        try:
            return cls(**d)
        except TypeError as exc:
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


def write_metrics_csv(path, rows, append: bool = False) -> None:
    write_table(path, METRICS, [[[getattr(r, name) for r in rows]
                                 for name in METRICS]], append=append)


def read_metrics_csv(path) -> list:
    return [MetricPoint(*row) for row in read_table(path, METRICS)]


# --------------------------------------------------------------------------
# Trace simulation

@dataclass
class SimPoint:
    """Shots of one (initialization, delay) point of an experiment."""

    init: str                  # prepared-state label of the trace
    batch: ShotBatch
    iq: np.ndarray | None      # (shots, 2) readout points, with a model only
    blobs: np.ndarray          # assigned blob per shot: 0=|00>, 1=|01>, 2=|10>


# prepared-state labels of each kind's traces when ``init`` names none
DEFAULT_PREPARE = {"bitflip": ("10", "01"), "hahn_echo": ("+",),
                   "ramsey": ("+",), "phys_t1": ("01",), "phys_echo": ("+Q",),
                   "phys_ramsey": ("+Q",)}
# shots per `run_trace_batch` call: a longer trace runs in groups of whole
# points, so the engine's per-shot temporaries stay bounded: a per-shot
# array is 128 KiB and a unit grows the heap by about 4 MB. A small array
# that outlives a unit keeps the freed heap below it as a hole for the rest
# of the process, so a larger unit leaves larger holes
TRACE_BATCH_SHOTS = 1 << 14


def simulate_points(params: DeviceParams, kind: str, delays_us, shots, *,
                    seed: int, init=None, noise=(),
                    detuning_khz=DEFAULT_DETUNING_KHZ,
                    noise_dt_us=DEFAULT_NOISE_DT_US,
                    static_offsets_hz=(0.0, 0.0), readout=None,
                    threads: int = 1) -> list[SimPoint]:
    """Simulate every (initialization, delay) point of one experiment.

    ``init`` is a prepared-state label, the trace's init label: a level for
    bitflip and phys_t1, "+" for hahn_echo and ramsey, "+D"/"+Q" for
    phys_echo and phys_ramsey. Without it a kind runs its
    ``DEFAULT_PREPARE`` labels, both logical levels for bitflip. Point
    (i, j) of initialization i and delay j draws from the streams of its
    point seed ``stream_key(seed, TAG_POINT + i, j)``, so results do not
    depend on ``threads``. A unit of work runs whole points of one
    initialization: one `stream_key` call for its point seeds, one engine
    call, then IQ emission and classification of all its shots, cut into
    points. With one thread a unit is a
    `run_trace_batch` call on as many points as fit in ``TRACE_BATCH_SHOTS``
    shots (at least one); with more, a unit is one point, a
    `run_sequence_batch` call, and units run on a pool of ``threads``.
    ``readout`` is None, or a ``(ReadoutModel, classifier)`` pair: with a
    model each shot emits an IQ point, which the classifier assigns to a
    blob. Without a classifier, shots read out through ``BLOB_OF_LEVEL``:
    doubly excited levels land on their single-excitation parent blob.
    Points come back in (init, delay) order; the points of one unit are
    views into shared arrays.
    """
    if len(delays_us) == 0:
        raise ConfigError("an experiment needs at least one delay")
    model, clf = readout if readout is not None else (None, None)
    labels = [init] if init else DEFAULT_PREPARE[kind]
    step = 1 if threads > 1 else max(1, TRACE_BATCH_SHOTS // shots)
    engine = dict(n_shots=shots, noise_dt_us=noise_dt_us,
                  static_offsets_hz=static_offsets_hz)

    def run(i, lo):
        """The unit of init i from delay lo: ``step`` points, or the rest."""
        delays = delays_us[lo:lo + step]
        seqs = [PulseSequence(kind, labels[i], d, detuning_khz)
                for d in delays]
        seeds = streams.stream_key(seed, streams.TAG_POINT + i,
                                   np.arange(lo, lo + len(delays)))
        b = (run_sequence_batch(params, seqs[0], noise, seed=seeds[0],
                                **engine) if threads > 1 else
             run_trace_batch(params, seqs, noise, seeds=seeds, **engine))
        iq = (None if model is None else
              sample_iq_batch(b.levels, model, params, seed=seeds))
        blobs = (BLOB_OF_LEVEL[b.levels] if clf is None
                 else classify_batch(clf, iq))
        return [SimPoint(labels[i], ShotBatch(b.levels[sl], b.phase_rad[sl],
                                              b.erased[sl], b.jumped[sl]),
                         None if iq is None else iq[sl], blobs[sl])
                for sl in (slice(k, k + shots)
                           for k in range(0, len(blobs), shots))]

    units = [(i, lo) for i in range(len(labels))
             for lo in range(0, len(delays_us), step)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        groups = list((pool.map if threads > 1 else map)(run, *zip(*units)))
    return [p for group in groups for p in group]


def counts_traces(points, delays_us, shots,
                  timestamp_s: float = 0.0) -> list[TraceData]:
    """Bin the assigned blobs of `simulate_points` into one trace per init."""
    n = len(delays_us)
    counts = np.array([np.bincount(p.blobs, minlength=3) for p in points])
    return [TraceData(delays_us=np.asarray(delays_us, float),
                      n00=c[:, 0], n01=c[:, 1], n10=c[:, 2],
                      n_total=np.full(n, shots, dtype=np.int64),
                      init_label=points[i * n].init,
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
    return counts_traces(points, delays_us, shots, timestamp_s)


# --------------------------------------------------------------------------
# Campaign driver

def _persistent_values(config: CampaignConfig, n_traces: int) -> np.ndarray:
    """Per-trace (off_D, off_Q) offsets from persistent telegraph processes.

    State k is replayed from the campaign seed alone: the states at the
    trace timestamps, ``interval_s`` apart, are one `telegraph_from_uniforms`
    path of uniforms keyed by the seed, so resumed campaigns see identical
    histories.
    """
    offsets = np.zeros((n_traces, 2))
    for p_idx, proc in enumerate(config.noise):
        if not proc.persistent:
            continue
        key = streams.stream_key(config.seed, streams.TAG_PERSISTENT + p_idx)
        value = telegraph_from_uniforms(
            streams.uniforms(key, np.arange(n_traces), 0), config.interval_s,
            proc.amplitude, proc.switching_rate_hz)
        offsets[:, 0] += proc.mode_weight("D") * value
        offsets[:, 1] += proc.mode_weight("Q") * value
    return offsets


# plan experiment of each physical reference -> (kind, prepared-state
# label); "t1" runs the first two, "full" all six
_PHYSICAL_REFS = {"phys_t1_D": ("phys_t1", "10"),
                  "phys_t1_Q": ("phys_t1", "01"),
                  "phys_echo_D": ("phys_echo", "+D"),
                  "phys_echo_Q": ("phys_echo", "+Q"),
                  "phys_ramsey_D": ("phys_ramsey", "+D"),
                  "phys_ramsey_Q": ("phys_ramsey", "+Q")}


def _planned_experiments(config: CampaignConfig) -> list:
    n_refs = {"none": 0, "t1": 2, "full": 6}[config.physical_refs]
    return [*config.experiments, *list(_PHYSICAL_REFS)[:n_refs]]


def _trace_plan(config: CampaignConfig, devices) -> list:
    experiments = _planned_experiments(config)
    return [(rep, dev, exp) for rep in range(config.repetitions)
            for dev in devices for exp in experiments]


def _load_devices(config: CampaignConfig) -> dict:
    """Device label -> DeviceParams. A label is ``DeviceParams.name``, the
    builtin name or the config file's stem; it names the device's trace
    files and metrics rows, so it must be unique and hold no comma or line
    break."""
    devices = {}
    for params in map(load_device, config.devices):
        if params.name in devices:
            raise ConfigError(f"two devices are labelled {params.name!r}")
        if any(c in params.name for c in ",\r\n"):
            raise ConfigError(f"device label {params.name!r} holds a comma "
                              f"or line break")
        devices[params.name] = params
    return devices


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


def run_campaign(config: CampaignConfig, out_dir, *, resume: bool = False,
                 stop_after: int | None = None) -> list:
    """Execute (or resume) a campaign; returns all metric rows.

    The archive directory holds ``manifest.json``, append-only
    ``metrics.csv``, one CSV per trace under ``traces/`` and per-device
    fitted-frequency series. Fully deterministic given the campaign seed.
    A resume refuses (ConfigError) an archive of another config or another
    ``OUTPUT_LAYOUT`` before it changes a byte.
    """
    trace_dir = os.path.join(out_dir, "traces")
    metrics_path = os.path.join(out_dir, "metrics.csv")
    manifest_path = os.path.join(out_dir, "manifest.json")

    # everything that can reject the config runs before the archive changes
    devices = _load_devices(config)
    readouts = _readouts(config, devices)
    plan = _trace_plan(config, devices)
    n_traces = len(plan)
    trace_paths = [os.path.join(trace_dir, f"trace_{idx:05d}_{dev}_{exp}.csv")
                   for idx, (_, dev, exp) in enumerate(plan)]
    manifest = {"seed": config.seed, "config": config.to_dict(),
                "config_sha256": config.config_hash(),
                "package_version": __version__,
                "output_layout": OUTPUT_LAYOUT, "n_traces": n_traces,
                "completed": False}

    start, rows = 0, []
    if resume:
        if not os.path.exists(manifest_path):
            raise ConfigError("nothing to resume: no manifest in archive")
        old = read_json(manifest_path, "archive manifest")
        if not isinstance(old, dict):
            raise ConfigError("invalid archive manifest: not an object")
        if old.get("config_sha256") != manifest["config_sha256"]:
            raise ConfigError("archive was produced by a different config")
        layout = old.get("output_layout", 1)
        if layout != OUTPUT_LAYOUT:
            raise ConfigError(f"archive was written in output layout "
                              f"{layout!r}, this version writes layout "
                              f"{OUTPUT_LAYOUT}")
        start = next((idx for idx, path in enumerate(trace_paths)
                      if not os.path.exists(path)), n_traces)
        if os.path.exists(metrics_path):
            # rows of completed traces stay; a row cut off mid-write goes
            t_cut = start * config.interval_s
            rows = [MetricPoint(*row)
                    for row in read_appended(metrics_path, METRICS)
                    if row[0] < t_cut - 1e-9]
    os.makedirs(trace_dir, exist_ok=True)
    if not resume:
        # nothing of an earlier run's traces or frequency series stays, nor
        # the .tmp of a series whose write a crash cut off
        for fn in os.listdir(trace_dir):
            os.remove(os.path.join(trace_dir, fn))
        for fn in os.listdir(out_dir):
            if fn.startswith("freq_") and fn.endswith((".csv", ".csv.tmp")):
                os.remove(os.path.join(out_dir, fn))
    write_metrics_csv(metrics_path, rows)
    write_json(manifest_path, manifest, sort_keys=True)

    offsets = _persistent_values(config, n_traces)
    shot_noise = [p for p in config.noise if not p.persistent]

    done = start
    for idx in range(start, n_traces):
        if stop_after is not None and done - start >= stop_after:
            break
        rep, dev, exp = plan[idx]
        ts = idx * config.interval_s
        params = devices[dev]
        trace_seed = int(streams.stream_key(config.seed,
                                            streams.TAG_TRACE + idx))
        kind, init = _PHYSICAL_REFS.get(exp, (exp, None))
        shots = (config.shots_per_point if init is None
                 else config.shots_physical)
        traces = simulate_counts_trace(
            params, kind, config.delays_us[kind], shots, seed=trace_seed,
            noise=shot_noise, detuning_khz=config.detuning_khz,
            noise_dt_us=config.noise_dt_us,
            static_offsets_hz=tuple(offsets[idx]),
            readout=readouts[dev], init=init, timestamp_s=ts,
            threads=config.threads)
        rows = [MetricPoint(ts, dev, *row) for row in trace_metrics(
            kind, traces, config.fit_window_us, config.bootstrap_resamples,
            trace_seed)]
        write_metrics_csv(metrics_path, rows, append=True)
        # the trace file lands last and whole: its presence marks the trace
        # complete
        write_trace_csv(trace_paths[idx], traces)
        done += 1

    all_rows = read_metrics_csv(metrics_path)
    if done == n_traces:
        _write_freq_series(out_dir, devices, all_rows)
        manifest["completed"] = True
        write_json(manifest_path, manifest, sort_keys=True)
    return all_rows


def _write_freq_series(out_dir, devices, rows) -> None:
    for dev in devices:
        sel = [r for r in rows if r.device == dev and r.metric == "delta_f_hz"]
        if len(sel) < 2:
            continue
        write_table(os.path.join(out_dir, f"freq_{dev}.csv"), FREQUENCY,
                    [([r.timestamp_s for r in sel], [r.estimate for r in sel],
                      ["logical"] * len(sel))])


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
    """Tukey boxplot statistics per metric of MetricPoint rows.

    Returns {metric: {median, q1, q3, whisker_lo, whisker_hi, outliers, n}}.
    """
    groups: dict[str, list] = {}
    for r in rows:
        groups.setdefault(r.metric, []).append(r.estimate)
    out = {}
    for name, vals in groups.items():
        v = np.asarray([x for x in vals if np.isfinite(x)], dtype=float)
        if len(v) == 0:
            continue
        q1, med, q3 = quantiles(v, [0.25, 0.5, 0.75])
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
