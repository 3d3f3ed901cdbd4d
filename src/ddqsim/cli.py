"""Command-line surface: reproducible simulation runs and analyses.

Every randomized command requires an explicit --seed and records a manifest
(flags, seed, input hashes) next to its outputs, so any artifact can be
regenerated bit-for-bit. Exit codes: 0 ok, 2 input error, 3 I/O error,
4 fit non-convergence.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .campaign import (CampaignConfig, DEFAULT_DELAYS_US, counts_traces,
                       delay_grid, read_metrics_csv, run_campaign,
                       simulate_points, summarize)
from .device import LEVEL_ORDER, load_device
from .dynamics import DEFAULT_DETUNING_KHZ, DEFAULT_NOISE_DT_US
# bound here only so the benchmark's tracer finds and restores the name
# (bench/test_harness.py::test_traced_run_restores_every_name)
from .dynamics import run_sequence_batch  # noqa: F401
from .errors import (ConfigError, DdqError, FitConvergenceError)
from .metrology import (BOOTSTRAP_RESAMPLES, DEFAULT_FIT_WINDOW_US,
                        bootstrap_bounds, fit_trace, read_trace_csv,
                        write_trace_csv)
from .noise import noise_processes
from .noise_analysis import (FrequencySeries, default_taus, fit_allan_model,
                             fit_psd_model, flag_allan_bumps,
                             overlapping_allan, read_frequency_csv, welch_psd,
                             write_allan_csv, write_psd_csv)
from .readout import (READOUT_LEVELS, ReadoutModel, default_blob_means,
                      train_classifier)
from .tables import (CURVE, SHOTS, TRAJECTORIES, read_json, sha256,
                     write_json, write_table)
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


def _check_overwrite(path: str, force: bool) -> None:
    if path and os.path.exists(path) and not force:
        raise ConfigError(f"refusing to overwrite {path} (use --force)")


def _write_manifest(out_path: str, args, inputs: list, outputs: list) -> None:
    # --threads never changes results, so the manifest leaves it out and
    # does not depend on the machine's core count
    manifest = {
        "command": args.command,
        "flags": {k: v for k, v in sorted(vars(args).items())
                  if k not in ("func", "command", "threads")},
        "inputs": {p: sha256(p) for p in inputs if p and os.path.exists(p)},
        "outputs": outputs,
        "package_version": __version__,
    }
    write_json(out_path, manifest, sort_keys=True)


def _parse_delays(text: str | None, kind: str) -> list:
    if not text:
        return list(DEFAULT_DELAYS_US[kind])
    try:
        if ":" in text:
            start, stop, num = text.split(":")
            delays = list(np.linspace(float(start), float(stop), int(num)))
        else:
            delays = [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad --delays {text!r}: give a comma list or "
                          f"start:stop:num") from exc
    return delay_grid(delays, f"--delays {text!r}")


def _positive(cast):
    """argparse type: a number of type ``cast`` that must be > 0."""
    def parse(text: str):
        value = cast(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive: {text}")
        return value
    parse.__name__ = cast.__name__
    return parse


# --------------------------------------------------------------------------
# sim-shots

def cmd_sim_shots(args) -> int:
    params = load_device(args.config)
    kind = args.experiment.replace("-", "_")
    delays = _parse_delays(args.delays, kind)
    noise = (noise_processes(read_json(args.noise, "noise spec"), args.noise)
             if args.noise else [])
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
    # --init picks a bit-flip initialization; other kinds ignore it
    points = simulate_points(params, kind, delays, args.shots, seed=args.seed,
                             init=args.init if kind == "bitflip" else None,
                             noise=noise,
                             detuning_khz=args.detuning_khz,
                             noise_dt_us=args.noise_dt_us,
                             readout=(model, clf), threads=args.threads)

    # one block of rows per point; shot indices run on across points
    n = args.shots
    blob_labels = np.array([lv.label for lv in READOUT_LEVELS])
    write_table(args.out, SHOTS, (
        (range(k * n, (k + 1) * n), [p.init] * n, p.iq[:, 0], p.iq[:, 1],
         [""] * n if args.no_classify else blob_labels[p.blobs])
        for k, p in enumerate(points)))
    outputs = [args.out]
    if args.dump_trajectories:
        tpath = args.out + ".trajectories.csv"
        level_labels = np.array([lv.label for lv in LEVEL_ORDER])
        write_table(tpath, TRAJECTORIES, (
            (range(k * n, (k + 1) * n), level_labels[p.batch.levels],
             p.batch.phase_rad, p.batch.erased)
            for k, p in enumerate(points)))
        outputs.append(tpath)
    if args.trace_out:
        write_trace_csv(args.trace_out,
                        counts_traces(points, delays, args.shots))
        outputs.append(args.trace_out)
    _write_manifest(args.out + ".manifest.json", args,
                    [args.config, args.noise], outputs)
    return 0


# --------------------------------------------------------------------------
# analyze

def cmd_analyze(args) -> int:
    kind = args.kind.replace("-", "_")
    traces = read_trace_csv(args.trace)
    _check_overwrite(args.out, args.force)
    if args.bootstrap > 0 and args.seed is None:
        raise ConfigError("--bootstrap needs an explicit --seed")

    try:
        fit = fit_trace(kind, traces, args.window_us)
    except FitConvergenceError as exc:
        write_json(args.out, {"model": kind, "converged": False,
                              "error": str(exc),
                              "diagnostics": exc.diagnostics})
        print(f"fit did not converge; diagnostics in {args.out}",
              file=sys.stderr)
        return 4
    if "warning" in fit.diagnostics:
        print(f"warning: {fit.diagnostics['warning']}", file=sys.stderr)

    if args.bootstrap > 0:
        bootstrap_bounds(fit, n_resamples=args.bootstrap, seed=args.seed)
    payload = fit.to_dict()
    if args.bootstrap <= 0:
        payload["bounds"] = None
    write_json(args.out, payload)
    outputs = [args.out]
    if args.emit_plot_data:
        curve = args.out + ".curve.csv"
        write_table(curve, CURVE, [(fit.delays_us, fit.fitted + fit.residuals,
                                    fit.fitted)])
        outputs.append(curve)
    _write_manifest(args.out + ".manifest.json", args, [args.trace], outputs)
    return 0


# --------------------------------------------------------------------------
# campaign / allan / psd / summarize

def cmd_campaign(args) -> int:
    config = CampaignConfig.from_json(args.config)
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
    _check_overwrite(args.fit_out, args.force)
    taus = None
    if args.max_octaves:
        taus = default_taus(len(series.values), series.tau0_s)[:args.max_octaves]
    curve = overlapping_allan(series, taus=taus)
    payload = None
    if args.fit_out:
        a, b, diag = fit_allan_model(curve.tau_s, curve.sigma_hz)
        if diag.get("clamped"):
            print(f"warning: Allan model amplitude(s) clamped at 0: "
                  f"{', '.join(diag['clamped'])}", file=sys.stderr)
        mask, a_rob, b_rob = flag_allan_bumps(curve)
        payload = {"model": "allan_white_plus_oneoverf",
                   "params": {"A_hz2": a, "B_hz2_per_hz": b},
                   "bumps": {"flagged_tau_s": curve.tau_s[mask].tolist(),
                             "robust_A_hz2": a_rob,
                             "robust_B_hz2_per_hz": b_rob},
                   "diagnostics": diag}
    write_allan_csv(args.out, curve)
    _write_fit_and_manifest(args, payload)
    return 0


def cmd_psd(args) -> int:
    series = _pick_series(args.infile, args.source)
    _check_overwrite(args.out, args.force)
    _check_overwrite(args.fit_out, args.force)
    freqs, psd = welch_psd(series, segment_length=args.segment_length)
    payload = None
    if args.fit_out:
        a, b, diag = fit_psd_model(freqs, psd)
        payload = {"model": "psd_white_plus_oneoverf",
                   "params": {"A_hz2": a, "B_hz2_per_hz": b},
                   "diagnostics": diag}
    write_psd_csv(args.out, freqs, psd)
    _write_fit_and_manifest(args, payload)
    return 0


def _write_fit_and_manifest(args, payload) -> None:
    # allan/psd fit before they write --out, so a failing fit writes nothing
    if args.fit_out:
        write_json(args.fit_out, payload)
    _write_manifest(args.out + ".manifest.json", args, [args.infile],
                    [p for p in (args.out, args.fit_out) if p])


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
        write_json(args.out, payload)
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
    p.add_argument("--shots", type=_positive(int), default=2000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--detuning-khz", type=float, default=DEFAULT_DETUNING_KHZ)
    p.add_argument("--init", choices=["10", "01"],
                   help="bit-flip initialization (default: both)")
    p.add_argument("--noise", help="JSON file with noise process list")
    p.add_argument("--noise-dt-us", type=_positive(float),
                   default=DEFAULT_NOISE_DT_US,
                   help="largest step of the 1/f spectrum grid (us)")
    p.add_argument("--readout-sigma", type=float, default=1.0)
    p.add_argument("--t-ro-us", type=float, default=1.0)
    p.add_argument("--ideal-readout", action="store_true",
                   help="assign true levels instead of classifying")
    p.add_argument("--no-classify", action="store_true",
                   help="leave assigned_label blank")
    p.add_argument("--trace-out", help="also write aggregated trace CSV")
    p.add_argument("--dump-trajectories", action="store_true")
    p.add_argument("--threads", type=_positive(int), default=1)
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
    p.add_argument("--threads", type=_positive(int), default=1)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("allan", help="overlapping Allan deviation of a series")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--source", help="series source tag to select")
    p.add_argument("--fit-out", help="write white+1/f model fit JSON")
    p.add_argument("--max-octaves", type=_positive(int))
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
