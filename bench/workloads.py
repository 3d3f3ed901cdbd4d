"""The benchmark's workloads: inputs from a seed, the timed program work,
and the correctness gate that must pass before any number counts.

Each workload has three steps. ``setup`` builds the inputs from the seed and
loads the device configs; ``run`` is the timed work, a user's whole request
from inputs to a finished output directory; ``check`` reads that directory
back and returns a :class:`Check`. The benchmark calls the package only
through module attributes (``campaign.run_campaign``, ``cli.main``), so a
traced run sees the wrapped functions.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import statistics
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Check:
    """Gate outcome of one workload run."""

    attempted: int
    failed: int
    ok: bool
    detail: dict = field(default_factory=dict)


def derive_seed(seed: int, name: str) -> int:
    """Program seed for a workload, derived from the benchmark seed."""
    blob = hashlib.sha256(f"{name}:{seed}".encode()).digest()
    return int.from_bytes(blob[:4], "big") & 0x7FFFFFFF


def tree_digest(root) -> str:
    """sha256 over every file's relative path and bytes under ``root``."""
    h = hashlib.sha256()
    for dirpath, dirs, files in os.walk(root):
        dirs.sort()
        for fn in sorted(files):
            path = os.path.join(dirpath, fn)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()


def tree_bytes(root) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(root) for f in files)


# --------------------------------------------------------------------------
# Campaign archives

# metric rows each planned experiment writes (campaign._trace_metrics)
ROWS_OF_EXPERIMENT = {
    "bitflip": ("t1l_us", "gamma_erasure_per_ms"),
    "hahn_echo": ("t2el_us", "gamma_erasure_per_ms"),
    "ramsey": ("t2rl_us", "delta_f_hz", "gamma_erasure_per_ms"),
    "phys_t1_D": ("phys_t1_d_us",),
    "phys_t1_Q": ("phys_t1_q_us",),
}


def expected_archive(devices, experiments, repetitions, interval_s):
    """Trace file names and (timestamp, device, metric) rows a finished
    archive holds, in plan order."""
    names, rows = [], []
    idx = 0
    for _ in range(repetitions):
        for dev in devices:
            for exp in experiments:
                names.append(f"trace_{idx:05d}_{dev}_{exp}.csv")
                rows += [(idx * interval_s, dev, m)
                         for m in ROWS_OF_EXPERIMENT[exp]]
                idx += 1
    return names, rows


def read_metric_rows(path) -> dict:
    """(timestamp, device, metric) -> estimate, parsed without ddqsim."""
    out = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if not row:
                continue
            try:
                est = float(row[3])
            except ValueError:
                est = math.nan
            out[(float(row[0]), row[1], row[2])] = est
    return out


def archive_gaps(out_dir, names, rows) -> tuple[int, int, dict]:
    """Expected metric rows that are missing or non-finite.

    Returns ``(failed, missing_traces, estimates)`` where ``estimates`` maps
    each metric name to its finite estimates.
    """
    trace_dir = os.path.join(out_dir, "traces")
    present = set(os.listdir(trace_dir)) if os.path.isdir(trace_dir) else set()
    missing_traces = sum(1 for n in names if n not in present)
    metrics_path = os.path.join(out_dir, "metrics.csv")
    got = read_metric_rows(metrics_path) if os.path.exists(metrics_path) else {}
    failed = 0
    estimates: dict[str, list] = {}
    for key in rows:
        est = got.get(key, math.nan)
        if math.isfinite(est):
            estimates.setdefault(key[2], []).append(est)
        else:
            failed += 1
    return failed, missing_traces, estimates


class DeskWhite:
    """The acceptance c11 desk campaign, one repetition per run.

    q1/q2/q3 with bitflip, hahn_echo and ramsey plus phys_t1 references;
    2000 shots per point (1000 physical), white differential_D noise
    (S_f = 1447 Hz^2/Hz), readout on, 250 bootstrap resamples, one thread.
    The paper's headline use: bootstrap is about half the time, the white
    noise grid and GMM classification most of the rest.
    """

    name = "desk_white"
    devices = ("q1", "q2", "q3")
    experiments = ("bitflip", "hahn_echo", "ramsey", "phys_t1_D", "phys_t1_Q")
    repetitions = 1
    shots_per_point = 2000
    shots_physical = 1000

    def setup(self, seed, workdir):
        from ddqsim import campaign, device, noise
        for dev in self.devices:
            device.load_device(dev)
        cfg = campaign.CampaignConfig(
            devices=list(self.devices),
            experiments=["bitflip", "hahn_echo", "ramsey"],
            repetitions=self.repetitions, seed=derive_seed(seed, self.name),
            shots_per_point=self.shots_per_point,
            noise=[noise.NoiseProcess("white", 1447.0,
                                      coupling="differential_D").to_dict()],
            readout_enabled=True, physical_refs="t1",
            shots_physical=self.shots_physical, bootstrap_resamples=250,
            threads=1)
        delays = cfg.delays_us
        per_device = (2 * len(delays["bitflip"]) * self.shots_per_point +
                      len(delays["hahn_echo"]) * self.shots_per_point +
                      len(delays["ramsey"]) * self.shots_per_point +
                      2 * len(delays["phys_t1"]) * self.shots_physical)
        return {"config": cfg,
                "shots": per_device * len(self.devices) * self.repetitions}

    def run(self, state, out_dir):
        from ddqsim import campaign
        campaign.run_campaign(state["config"], out_dir)

    def check(self, state, out_dir) -> Check:
        cfg = state["config"]
        names, rows = expected_archive(self.devices, self.experiments,
                                       cfg.repetitions, cfg.interval_s)
        failed, missing, est = archive_gaps(out_dir, names, rows)
        t1l = statistics.median(est.get("t1l_us", [math.nan]))
        phys = statistics.median(est.get("phys_t1_d_us", []) +
                                 est.get("phys_t1_q_us", []) or [math.nan])
        physics = bool(t1l >= 10.0 * phys)
        return Check(attempted=len(rows), failed=failed,
                     ok=failed == 0 and missing == 0 and physics,
                     detail={"missing_traces": missing,
                             "median_t1l_us": t1l,
                             "median_phys_t1_us": phys,
                             "physics": "median t1l_us >= 10 x median "
                                        "phys_t1_*_us"})


class DriftTelegraph:
    """The acceptance c07 drift campaign, shortened, then its analysis.

    q1 ramsey only, 300 shots per point, delays 0-115 us in 5 us steps, a
    persistent differential_D telegraph (30 kHz, 1/28800 Hz), no readout or
    bootstrap, 100 s between traces; then the overlapping Allan deviation
    and the Welch PSD of the delta_f_hz series, written as CSV. Many small
    traces, so per-call overhead dominates.

    The model fits of the analysis are left out: on an 80-trace series
    ``flag_allan_bumps`` raises ConfigError when its trimmed tau grid spans
    under 1.5 decades, and ``fit_psd_model`` and ``fit_allan_model`` can
    raise OverflowError, for some seeds. 80 traces (8000 s) cannot resolve
    the c07 Allan band of 5e3-5e4 s either, so the physics check is the
    lighter per-trace one in :meth:`check`.
    """

    name = "drift_telegraph"
    devices = ("q1",)
    experiments = ("ramsey",)
    repetitions = 80
    shots_per_point = 300
    excursion_hz = 30e3

    def setup(self, seed, workdir):
        from ddqsim import campaign, device, noise
        device.load_device("q1")
        proc = noise.NoiseProcess("telegraph", self.excursion_hz,
                                  coupling="differential_D",
                                  switching_rate_hz=1.0 / 28800.0,
                                  persistent=True)
        cfg = campaign.CampaignConfig(
            devices=["q1"], experiments=["ramsey"],
            repetitions=self.repetitions, seed=derive_seed(seed, self.name),
            shots_per_point=self.shots_per_point, physical_refs="none",
            readout_enabled=False, bootstrap_resamples=0, interval_s=100.0,
            noise=[proc.to_dict()],
            delays_us={"ramsey": list(np.arange(0.0, 120.0, 5.0))})
        shots = (len(cfg.delays_us["ramsey"]) * self.shots_per_point *
                 self.repetitions)
        return {"config": cfg, "shots": shots}

    def run(self, state, out_dir):
        from ddqsim import campaign, noise_analysis as na
        rows = campaign.run_campaign(state["config"], out_dir)
        pts = [(r.timestamp_s, r.estimate) for r in rows
               if r.metric == "delta_f_hz"]
        ts, vals = np.array(pts).T
        series = na.FrequencySeries.from_timestamps(ts, vals)
        na.write_allan_csv(os.path.join(out_dir, "allan.csv"),
                           na.overlapping_allan(series))
        freqs, psd = na.welch_psd(series)
        na.write_psd_csv(os.path.join(out_dir, "psd.csv"), freqs, psd)

    def check(self, state, out_dir) -> Check:
        cfg = state["config"]
        names, rows = expected_archive(self.devices, self.experiments,
                                       cfg.repetitions, cfg.interval_s)
        failed, missing, est = archive_gaps(out_dir, names, rows)
        curves = []
        for fn in ("allan.csv", "psd.csv"):
            try:
                curves.append(np.loadtxt(os.path.join(out_dir, fn),
                                         delimiter=",", skiprows=1, ndmin=2))
            except (OSError, ValueError):
                curves.append(np.full((1, 2), np.nan))
        allan, psd = curves
        analysis_ok = bool(np.all(allan[:, 1] > 0) and
                           np.all(np.isfinite(psd)) and np.all(psd[:, 1] >= 0))
        # each trace sees the persistent telegraph at +-excursion/2
        df = np.asarray(est.get("delta_f_hz", []))
        half = 0.5 * self.excursion_hz
        physics = bool(df.size and
                       np.all(np.abs(np.abs(df - 75e3) - half) < 0.2 * half))
        return Check(attempted=len(rows), failed=failed,
                     ok=(failed == 0 and missing == 0 and physics and
                         analysis_ok),
                     detail={"missing_traces": missing,
                             "allan_and_psd_finite": analysis_ok,
                             "allan_taus": int(len(allan)),
                             "physics": "every fitted delta_f_hz is 75 kHz "
                                        "+- 15 kHz, within 20% of the 15 kHz "
                                        "telegraph step"})


class CliColored:
    """In-process ``ddqsim.cli.main``: sim-shots then analyze.

    ``sim-shots`` for ramsey and hahn-echo on q1 with ``--threads 2`` and
    ``--trace-out``, 5000 shots per point, a per-shot noise file with 1/f
    (differential_Q, A = 2e6 Hz^2 at 1 Hz) and telegraph (differential_D,
    20 kHz peak-to-peak, 2e4 Hz) noise; then ``analyze --bootstrap 250`` on
    each trace. Large batches: bulk stream draws, the 1/f FFT, readout at
    scale, the CLI's own runner and shot-row writer, and memory.
    """

    name = "cli_colored"
    shots = 5000
    threads = 2
    noise_spec = [
        {"kind": "one_over_f", "amplitude": 2e6, "coupling": "differential_Q"},
        {"kind": "telegraph", "amplitude": 20e3, "coupling": "differential_D",
         "switching_rate_hz": 2e4},
    ]
    n_delays = {"ramsey": 15, "hahn-echo": 14}

    def setup(self, seed, workdir):
        from ddqsim import cli, device  # noqa: F401  (import is set-up cost)
        device.load_device("q1")
        noise_path = os.path.join(workdir, "noise.json")
        with open(noise_path, "w", encoding="utf-8") as fh:
            json.dump(self.noise_spec, fh)
        prog_seed = derive_seed(seed, self.name)
        return {"seed": prog_seed, "noise": noise_path,
                "shots": self.shots * sum(self.n_delays.values())}

    def _argv(self, state, out_dir):
        seed = str(state["seed"])
        argvs = []
        for exp in self.n_delays:
            stem = os.path.join(out_dir, exp)
            argvs.append(["sim-shots", "--config", "q1", "--experiment", exp,
                          "--shots", str(self.shots), "--seed", seed,
                          "--noise", state["noise"], "--threads",
                          str(self.threads), "--out", stem + "_shots.csv",
                          "--trace-out", stem + "_trace.csv"])
        for exp in self.n_delays:
            stem = os.path.join(out_dir, exp)
            argvs.append(["analyze", "--trace", stem + "_trace.csv",
                          "--kind", exp, "--bootstrap", "250", "--seed", seed,
                          "--out", stem + "_fit.json"])
        return argvs

    def run(self, state, out_dir):
        from ddqsim import cli
        state["exits"] = [cli.main(argv) for argv in self._argv(state, out_dir)]

    def check(self, state, out_dir) -> Check:
        output_bytes = tree_bytes(out_dir)
        exits = state.get("exits", [])
        failed = sum(1 for e in exits if e != 0) + (4 - len(exits))
        shape_ok = True
        for exp, n in self.n_delays.items():
            stem = os.path.join(out_dir, exp)
            try:
                with open(stem + "_trace.csv", encoding="utf-8") as fh:
                    trace_rows = sum(1 for _ in fh) - 1
                with open(stem + "_shots.csv", encoding="utf-8") as fh:
                    shot_rows = sum(1 for _ in fh) - 1
            except OSError:
                shape_ok = False
                continue
            shape_ok &= trace_rows == n and shot_rows == n * self.shots
        try:
            with open(os.path.join(out_dir, "ramsey_fit.json"),
                      encoding="utf-8") as fh:
                df_khz = float(json.load(fh)["params"]["delta_f_khz"])
        except (OSError, KeyError, ValueError):
            df_khz = math.nan
        physics = abs(df_khz / 75.0 - 1.0) <= 0.10
        return Check(attempted=4, failed=failed,
                     ok=failed == 0 and shape_ok and physics,
                     detail={"exits": exits, "shape_ok": shape_ok,
                             "cli.output_bytes": output_bytes,
                             "ramsey_delta_f_khz": df_khz,
                             "physics": "ramsey delta_f_khz within 10% of 75"})


WORKLOADS = {w.name: w for w in (DeskWhite(), DriftTelegraph(), CliColored())}
