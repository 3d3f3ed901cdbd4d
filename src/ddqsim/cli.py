"""Command-line surface: reproducible simulation runs and analyses.

Every randomized command requires an explicit --seed and records a manifest
(flags, seed, input hashes) next to its outputs, so any artifact can be
regenerated bit-for-bit. Exit codes: 0 ok, 2 input error, 3 I/O error,
4 fit non-convergence.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .campaign import (CampaignConfig, DEFAULT_DELAYS_US, counts_traces,
                       read_metrics_csv, run_campaign, simulate_points,
                       summarize)
from .device import LEVEL_ORDER, load_device
from .dynamics import DEFAULT_DETUNING_KHZ, DEFAULT_NOISE_DT_US
# bound here only so the benchmark's tracer finds and restores the name
# (bench/test_harness.py::test_traced_run_restores_every_name)
from .dynamics import run_sequence_batch  # noqa: F401
from .errors import (ConfigError, DdqError, FitConvergenceError)
from .metrology import (BOOTSTRAP_RESAMPLES, DEFAULT_FIT_WINDOW_US,
                        bootstrap_bounds, fit_trace, read_trace_csv,
                        write_trace_csv)
from .noise import NoiseProcess
from .noise_analysis import (FrequencySeries, default_taus, fit_allan_model,
                             fit_psd_model, flag_allan_bumps,
                             overlapping_allan, read_frequency_csv, welch_psd,
                             write_allan_csv, write_psd_csv)
from .readout import (READOUT_LEVELS, ReadoutModel, default_blob_means,
                      train_classifier)
from . import streams


TABLE_LABELS = {
    "t1l_us": ("T_1^L [ms]", 1e-3),
    "t2el_us": ("T_2E^L [ms]", 1e-3),
    "t2rl_us": ("T_2R^L [ms]", 1e-3),
    "delta_f_hz": ("Ramsey detuning [kHz]", 1e-3),
    "gamma_erasure_per_ms": ("Erasure rate [1/ms]", 1.0),
    "phys_t1_d_us": ("D mode T_1 [us]", 1.0),
    "phys_t1_q_us": ("Q mode T_1 [us]", 1.0),
    "phys_t2e_d_us": ("D mode T_2E [us]", 1.0),
    "phys_t2e_q_us": ("Q mode T_2E [us]", 1.0),
    "phys_t2r_d_us": ("D mode T_2R [us]", 1.0),
    "phys_t2r_q_us": ("Q mode T_2R [us]", 1.0),
}

# logical metric -> matching per-mode physical references, for the
# improvement-ratio lines (logical median over mean of the mode medians)
RATIO_PAIRS = (
    ("t1l_us", ("phys_t1_d_us", "phys_t1_q_us"), "bit-flip"),
    ("t2el_us", ("phys_t2e_d_us", "phys_t2e_q_us"), "phase-flip"),
    ("t2rl_us", ("phys_t2r_d_us", "phys_t2r_q_us"), "Ramsey"),
)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _check_overwrite(path: str, force: bool) -> None:
    if path and os.path.exists(path) and not force:
        raise ConfigError(f"refusing to overwrite {path} (use --force)")


def _write_manifest(out_path: str, args, inputs: list, outputs: list) -> None:
    manifest = {
        "command": args.command,
        "flags": {k: v for k, v in sorted(vars(args).items())
                  if k not in ("func", "command")},
        "inputs": {p: _sha256(p) for p in inputs if p and os.path.exists(p)},
        "outputs": outputs,
        "package_version": __version__,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)


def _parse_delays(text: str | None, kind: str) -> list:
    if not text:
        return list(DEFAULT_DELAYS_US[kind])
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError("--delays range form is start:stop:num")
        start, stop, num = float(parts[0]), float(parts[1]), int(parts[2])
        return list(np.linspace(start, stop, num))
    return [float(x) for x in text.split(",")]


def _load_noise(path: str | None) -> list:
    if not path:
        return []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            specs = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"noise spec not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid noise JSON {path}: {exc}") from exc
    try:
        return [NoiseProcess.from_dict(d) for d in specs]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad noise process in {path}: {exc}") from exc


def _default_threads() -> int:
    env = os.environ.get("DDQ_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


# --------------------------------------------------------------------------
# sim-shots

def cmd_sim_shots(args) -> int:
    params = load_device(args.config)
    kind = args.experiment.replace("-", "_")
    delays = _parse_delays(args.delays, kind)
    noise = _load_noise(args.noise)
    _check_overwrite(args.out, args.force)
    if args.trace_out:
        _check_overwrite(args.trace_out, args.force)
        if args.no_classify:
            raise ConfigError("--trace-out needs classified shots")

    model = ReadoutModel(means=default_blob_means(args.readout_sigma, 5.0),
                         sigma=args.readout_sigma, t_ro_us=args.t_ro_us)
    clf = None
    if not args.no_classify and not args.ideal_readout:
        clf = train_classifier(model, params, int(streams.stream_key(
            args.seed, streams.TAG_READOUT_TRAIN)))
    points = simulate_points(params, kind, delays, args.shots, seed=args.seed,
                             init=args.init, noise=noise,
                             detuning_khz=args.detuning_khz,
                             noise_dt_us=args.noise_dt_us,
                             readout=(model, clf), threads=args.threads or 1)

    blob_labels = [lv.label for lv in READOUT_LEVELS]
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("shot_index,prep_label,i,q,assigned_label\n")
        for k, p in enumerate(points):
            shots = zip(p.iq.tolist(), p.blobs.tolist())
            for s, ((i, q), blob) in enumerate(shots, start=k * args.shots):
                lab = "" if args.no_classify else blob_labels[blob]
                fh.write(f"{s},{p.init},{i!r},{q!r},{lab}\n")
    outputs = [args.out]
    if args.dump_trajectories:
        tpath = args.out + ".trajectories.csv"
        with open(tpath, "w", encoding="utf-8", newline="") as fh:
            fh.write("shot_index,final_level,phase_rad,erased\n")
            for k, p in enumerate(points):
                b = p.batch
                shots = zip(b.levels.tolist(), b.phase_rad.tolist(),
                            b.erased.tolist())
                for s, (lv, phase, erased) in enumerate(shots,
                                                         start=k * args.shots):
                    fh.write(f"{s},{LEVEL_ORDER[lv].label},{phase!r},"
                             f"{int(erased)}\n")
        outputs.append(tpath)
    if args.trace_out:
        write_trace_csv(args.trace_out,
                        counts_traces(points, kind, delays, args.shots))
        outputs.append(args.trace_out)
    _write_manifest(args.out + ".manifest.json", args,
                    [args.config, args.noise], outputs)
    return 0


# --------------------------------------------------------------------------
# analyze

def cmd_analyze(args) -> int:
    kind = args.kind.replace("-", "_")
    traces = read_trace_csv(args.trace, kind=kind)
    _check_overwrite(args.out, args.force)
    if args.bootstrap > 0 and args.seed is None:
        raise ConfigError("--bootstrap needs an explicit --seed")

    try:
        fit = fit_trace(kind, traces, args.window_us)
    except FitConvergenceError as exc:
        payload = {"model": kind, "converged": False, "error": str(exc),
                   "diagnostics": exc.diagnostics}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, default=str)
        print(f"fit did not converge; diagnostics in {args.out}",
              file=sys.stderr)
        return 4

    if args.bootstrap > 0:
        bootstrap_bounds(fit, n_resamples=args.bootstrap, seed=args.seed)
    payload = fit.to_dict()
    if args.bootstrap <= 0:
        payload["bounds"] = None
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=str)
    outputs = [args.out]
    if args.emit_plot_data:
        curve = args.out + ".curve.csv"
        with open(curve, "w", encoding="utf-8", newline="") as fh:
            fh.write("delay_us,data,fitted\n")
            data = fit.fitted + fit.residuals
            for t, y, m in zip(fit.delays_us, data, fit.fitted):
                fh.write(f"{t!r},{y!r},{m!r}\n")
        outputs.append(curve)
    _write_manifest(args.out + ".manifest.json", args, [args.trace], outputs)
    return 0


# --------------------------------------------------------------------------
# campaign / allan / psd / summarize

def cmd_campaign(args) -> int:
    config = CampaignConfig.from_json(args.config)
    if args.threads:
        config.threads = args.threads
    if not args.resume and os.path.exists(
            os.path.join(args.out, "manifest.json")) and not args.force:
        raise ConfigError(f"archive {args.out} exists (use --force or --resume)")
    rows = run_campaign(config, args.out, resume=args.resume)
    print(f"campaign complete: {len(rows)} metric rows in {args.out}")
    return 0


def _pick_series(path: str, source: str | None) -> FrequencySeries:
    series = read_frequency_csv(path)
    if source:
        for s in series:
            if s.source == source:
                return s
        raise ConfigError(f"no series with source {source!r} in {path}")
    return series[0]


def cmd_allan(args) -> int:
    series = _pick_series(args.infile, args.source)
    _check_overwrite(args.out, args.force)
    taus = None
    if args.max_octaves:
        taus = default_taus(len(series.values), series.tau0_s)[:args.max_octaves]
    curve = overlapping_allan(series, taus=taus)
    write_allan_csv(args.out, curve)
    outputs = [args.out]
    if args.fit_out:
        _check_overwrite(args.fit_out, args.force)
        a, b, diag = fit_allan_model(curve.tau_s, curve.sigma_hz)
        mask, a_rob, b_rob = flag_allan_bumps(curve)
        payload = {"model": "allan_white_plus_oneoverf",
                   "params": {"A_hz2": a, "B_hz2_per_hz": b},
                   "bumps": {"flagged_tau_s": curve.tau_s[mask].tolist(),
                             "robust_A_hz2": a_rob,
                             "robust_B_hz2_per_hz": b_rob},
                   "diagnostics": diag}
        with open(args.fit_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, default=str)
        outputs.append(args.fit_out)
    _write_manifest(args.out + ".manifest.json", args, [args.infile], outputs)
    return 0


def cmd_psd(args) -> int:
    series = _pick_series(args.infile, args.source)
    _check_overwrite(args.out, args.force)
    freqs, psd = welch_psd(series, segment_length=args.segment_length)
    write_psd_csv(args.out, freqs, psd)
    outputs = [args.out]
    if args.fit_out:
        _check_overwrite(args.fit_out, args.force)
        a, b, diag = fit_psd_model(freqs, psd)
        payload = {"model": "psd_white_plus_oneoverf",
                   "params": {"A_hz2": a, "B_hz2_per_hz": b},
                   "diagnostics": diag}
        with open(args.fit_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, default=str)
        outputs.append(args.fit_out)
    _write_manifest(args.out + ".manifest.json", args, [args.infile], outputs)
    return 0


def cmd_summarize(args) -> int:
    rows = read_metrics_csv(args.infile)
    devices = sorted({r.device for r in rows})
    payload = {}
    for dev in devices:
        stats = summarize([r for r in rows if r.device == dev])
        payload[dev] = stats
        print(f"== {dev}")
        for metric, (label, scale) in TABLE_LABELS.items():
            if metric in stats:
                s = stats[metric]
                print(f"  {label:<28} median {s['median'] * scale:.4g}   "
                      f"IQR [{s['q1'] * scale:.4g}, {s['q3'] * scale:.4g}]   "
                      f"n={s['n']}")
        for logical, phys, name in RATIO_PAIRS:
            if logical in stats and all(p in stats for p in phys):
                phys_ref = sum(stats[p]["median"] for p in phys) / len(phys)
                if phys_ref > 0:
                    ratio = stats[logical]["median"] / phys_ref
                    print(f"  {name + ' improvement':<28} {ratio:.1f}x over "
                          f"physical modes")
    if args.out:
        _check_overwrite(args.out, args.force)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, default=str)
        _write_manifest(args.out + ".manifest.json", args, [args.infile],
                        [args.out])
    return 0


# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddqsim",
        description="Dual-rail dimon qubit simulator and analysis toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sim-shots", help="simulate measurement shots")
    p.add_argument("--config", required=True, help="device config JSON or q1/q2/q3")
    p.add_argument("--experiment", required=True,
                   choices=["bitflip", "hahn-echo", "ramsey"])
    p.add_argument("--delays", help="comma list or start:stop:num (us)")
    p.add_argument("--shots", type=int, default=2000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--detuning-khz", type=float, default=DEFAULT_DETUNING_KHZ)
    p.add_argument("--init", choices=["10", "01"],
                   help="bit-flip initialization (default: both)")
    p.add_argument("--noise", help="JSON file with noise process list")
    p.add_argument("--noise-dt-us", type=float, default=DEFAULT_NOISE_DT_US)
    p.add_argument("--readout-sigma", type=float, default=1.0)
    p.add_argument("--t-ro-us", type=float, default=1.0)
    p.add_argument("--ideal-readout", action="store_true",
                   help="assign true levels instead of classifying")
    p.add_argument("--no-classify", action="store_true",
                   help="leave assigned_label blank")
    p.add_argument("--trace-out", help="also write aggregated trace CSV")
    p.add_argument("--dump-trajectories", action="store_true")
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_sim_shots)

    p = sub.add_parser("analyze", help="fit a trace file")
    p.add_argument("--trace", required=True)
    p.add_argument("--kind", required=True,
                   choices=["bitflip", "hahn-echo", "ramsey", "erasure"])
    p.add_argument("--bootstrap", type=int, default=BOOTSTRAP_RESAMPLES)
    p.add_argument("--seed", type=int)
    p.add_argument("--window-us", type=float, default=DEFAULT_FIT_WINDOW_US)
    p.add_argument("--out", required=True)
    p.add_argument("--emit-plot-data", action="store_true")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("campaign", help="run a repeated-experiment campaign")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("allan", help="overlapping Allan deviation of a series")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--source", help="series source tag to select")
    p.add_argument("--fit-out", help="write white+1/f model fit JSON")
    p.add_argument("--max-octaves", type=int)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_allan)

    p = sub.add_parser("psd", help="Welch spectral density of a series")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--source", help="series source tag to select")
    p.add_argument("--segment-length", type=int)
    p.add_argument("--fit-out", help="write A/f + B model fit JSON")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_psd)

    p = sub.add_parser("summarize", help="median table from metrics.csv")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_summarize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "threads", None) is None and hasattr(args, "threads"):
        args.threads = _default_threads()
    try:
        return args.func(args)
    except FitConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except DdqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
