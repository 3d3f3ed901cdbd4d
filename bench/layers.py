"""Which ddqsim functions each layer's spans wrap, and the per-layer metrics.

Layers are the modules of ``src/ddqsim``. ``device`` only loads configs,
once per run, so its cost is part of ``setup_s`` and it has no spans here;
``errors`` holds no code that runs. Time metrics ending in ``_self_s`` (and
``<layer>.self_s``) are span time minus child-span time; the other ``_s``
metrics are inclusive call times. ``bench/BASELINE.md`` names the
end-to-end metric and workload each layer's metrics should move.
"""

from __future__ import annotations

import numpy as np

from tracer import compute_self_times

LAYERS = ("streams", "dynamics", "noise", "readout", "metrology", "fitting",
          "noise_analysis", "campaign", "cli")

# (module, functions) per layer; every function is rebound wherever ddqsim
# imported it.
WRAPPED = {
    "streams": ("uniforms", "normals"),
    "dynamics": ("run_sequence_batch", "build_rate_matrix"),
    "noise": ("white_from_normals", "one_over_f_from_normals",
              "telegraph_from_uniforms"),
    "readout": ("sample_iq_batch", "classify_batch", "fit_gmm"),
    "metrology": ("fit_linear_short", "fit_ramsey", "fit_erasure",
                  "bootstrap_bounds", "postselect_trace",
                  "bitflip_difference", "write_trace_csv", "read_trace_csv"),
    "fitting": ("lm_least_squares",),
    "noise_analysis": ("overlapping_allan", "welch_psd", "write_allan_csv",
                       "write_psd_csv"),
    "campaign": ("run_campaign", "simulate_counts_trace",
                 "write_metrics_csv", "read_metrics_csv"),
    "cli": ("main", "cmd_sim_shots", "cmd_analyze"),
}

def _array_note(args, kwargs, out):
    """Rows, samples and bytes (inputs plus output) of a noise shaper."""
    arrays = [a for a in (*args, *kwargs.values()) if isinstance(a, np.ndarray)]
    return {"rows": out.shape[0] if out.ndim >= 2 else 1,
            "samples": int(out.size),
            "bytes": int(out.nbytes + sum(a.nbytes for a in arrays))}


def _bootstrap_note(args, kwargs, out):
    fit = args[0]
    info = fit.diagnostics.get("bootstrap", {})
    return {"resamples": int(info.get("n_resamples", 0)),
            "dropped": int(info.get("dropped", 0))}


def _lm_note(args, kwargs, out):
    info = out[1]
    return {"iterations": int(info["iterations"]),
            "converged": bool(info["converged"])}


NOTES = {
    "uniforms": lambda a, k, out: {"draws": int(np.size(out))},
    "normals": lambda a, k, out: {"draws": int(np.size(out))},
    "run_sequence_batch": lambda a, k, out: {"shots": int(k["n_shots"])},
    "white_from_normals": _array_note,
    "one_over_f_from_normals": _array_note,
    "telegraph_from_uniforms": _array_note,
    "sample_iq_batch": lambda a, k, out: {"points": int(len(out))},
    "classify_batch": lambda a, k, out: {"points": int(len(out))},
    "fit_gmm": lambda a, k, out: {"iterations": int(len(out.ll_history))},
    "bootstrap_bounds": _bootstrap_note,
    "lm_least_squares": _lm_note,
    "overlapping_allan": lambda a, k, out: {"series_len":
                                            int(len(a[0].values))},
}


def targets():
    """``(module, name, layer, note)`` for :func:`tracer.install`."""
    import importlib
    out = []
    for layer, names in WRAPPED.items():
        module = importlib.import_module(f"ddqsim.{layer}")
        for name in names:
            out.append((module, name, layer, NOTES.get(name)))
    return out


def _has_ancestor(span, names) -> bool:
    p = span.parent
    while p is not None:
        if p.name in names:
            return True
        p = p.parent
    return False


def _trace_durations(spans) -> list:
    """Per campaign trace: from ``simulate_counts_trace`` start to the end of
    the ``write_trace_csv`` that archives it (campaign writes it last)."""
    out = []
    by_parent: dict[int, list] = {}
    for s in spans:
        if s.parent is not None and s.parent.name == "run_campaign":
            by_parent.setdefault(id(s.parent), []).append(s)
    for kids in by_parent.values():
        kids.sort(key=lambda s: s.start)
        pending = None
        for s in kids:
            if s.name == "simulate_counts_trace":
                pending = s
            elif s.name == "write_trace_csv" and pending is not None:
                out.append(s.end - pending.start)
                pending = None
    return out


def layer_metrics(spans, wall_s: float, extra: dict | None = None) -> dict:
    """Per-layer metrics of one traced workload run.

    ``wall_s`` is the traced run's wall time; ``extra`` carries figures the
    workload measures itself (``cli.output_bytes``).
    """
    compute_self_times(spans)
    extra = extra or {}
    by_name: dict[str, list] = {}
    self_s = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        self_s[s.layer] += s.self_s

    def spans_of(*names, top=None):
        found = [s for n in names for s in by_name.get(n, [])]
        if top is not None:
            found = [s for s in found if not _has_ancestor(s, top)]
        return found

    def total(spans_, key=None):
        if key is None:
            return float(sum(s.duration for s in spans_))
        return sum(s.note.get(key, 0) for s in spans_)

    m = {}
    # streams: calls made from outside the layer (normals -> uniforms is one)
    stream_names = ("uniforms", "normals")
    u_top = spans_of("uniforms", top=stream_names)
    n_top = spans_of("normals", top=stream_names)
    calls = len(u_top) + len(n_top)
    m["streams.calls"] = calls
    m["streams.uniform_draws"] = total(u_top, "draws")
    m["streams.normal_draws"] = total(n_top, "draws")
    m["streams.draws_per_call"] = ((m["streams.uniform_draws"] +
                                    m["streams.normal_draws"]) / calls
                                   if calls else 0.0)
    m["streams.self_s"] = self_s["streams"]

    batches = spans_of("run_sequence_batch")
    m["dynamics.batches"] = len(batches)
    m["dynamics.shots"] = total(batches, "shots")
    m["dynamics.rate_matrix_builds"] = len(spans_of("build_rate_matrix"))
    m["dynamics.self_s"] = self_s["dynamics"]
    busy = total(batches)
    m["dynamics.shots_per_s"] = m["dynamics.shots"] / busy if busy else 0.0

    shapers = spans_of("white_from_normals", "one_over_f_from_normals",
                       "telegraph_from_uniforms")
    m["noise.paths"] = total(shapers, "rows")
    m["noise.samples"] = total(shapers, "samples")
    m["noise.bytes_computed"] = total(shapers, "bytes")
    m["noise.self_s"] = self_s["noise"]

    iq = spans_of("sample_iq_batch")
    cls = spans_of("classify_batch")
    gmm = spans_of("fit_gmm")
    m["readout.iq_points"] = total(iq, "points")
    m["readout.iq_s"] = total(iq)
    m["readout.classified"] = total(cls, "points")
    m["readout.classify_s"] = total(cls)
    m["readout.gmm_fits"] = len(gmm)
    m["readout.gmm_em_iterations"] = total(gmm, "iterations")
    m["readout.gmm_s"] = total(gmm)
    m["readout.self_s"] = self_s["readout"]

    fits = spans_of("fit_linear_short", "fit_ramsey", "fit_erasure",
                    top=("bootstrap_bounds",))
    boot = spans_of("bootstrap_bounds")
    resamples = total(boot, "resamples")
    dropped = total(boot, "dropped")
    writes = spans_of("write_trace_csv")
    m["metrology.fits"] = len(fits)
    m["metrology.fit_s"] = total(fits)
    m["metrology.bootstrap_calls"] = len(boot)
    m["metrology.bootstrap_resamples"] = resamples
    m["metrology.bootstrap_dropped"] = dropped
    m["metrology.bootstrap_kept_ratio"] = 1.0 - dropped / max(resamples, 1)
    m["metrology.bootstrap_s"] = total(boot)
    m["metrology.bootstrap_ms_per_resample"] = (1e3 * total(boot) / resamples
                                                if resamples else 0.0)
    m["metrology.trace_writes"] = len(writes)
    m["metrology.trace_write_s"] = total(writes)
    m["metrology.self_s"] = self_s["metrology"]

    lm = spans_of("lm_least_squares")
    m["fitting.lm_calls"] = len(lm)
    m["fitting.lm_iterations"] = total(lm, "iterations")
    m["fitting.lm_converged_ratio"] = (total(lm, "converged") / len(lm)
                                       if lm else 1.0)
    m["fitting.lm_s"] = total(lm)
    m["fitting.self_s"] = self_s["fitting"]

    allan = spans_of("overlapping_allan")
    m["noise_analysis.series_len"] = max([s.note.get("series_len", 0)
                                          for s in allan], default=0)
    m["noise_analysis.allan_s"] = total(allan)
    m["noise_analysis.welch_s"] = total(spans_of("welch_psd"))
    m["noise_analysis.self_s"] = self_s["noise_analysis"]

    per_trace = _trace_durations(spans)
    m["campaign.traces"] = len(spans_of("simulate_counts_trace"))
    if per_trace:
        p50, p90 = np.percentile(per_trace, [50, 90])
    else:
        p50 = p90 = 0.0
    m["campaign.trace_s_p50"] = float(p50)
    m["campaign.trace_s_p90"] = float(p90)
    m["campaign.self_s"] = self_s["campaign"]

    m["cli.invocations"] = len(spans_of("main"))
    m["cli.output_bytes"] = int(extra.get("cli.output_bytes", 0))
    m["cli.self_s"] = self_s["cli"]

    roots = [s for s in spans if s.parent is None]
    m["traced_wall_s"] = wall_s
    m["parallel_overlap_s"] = float(sum(s.overlap_s for s in spans))
    m["untraced_remainder_s"] = wall_s - float(sum(s.duration for s in roots))
    return m


def self_time_identity_error(metrics: dict) -> float:
    """|sum(self) - overlap + remainder - wall|; zero up to rounding."""
    total_self = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    return abs(total_self - metrics["parallel_overlap_s"] +
               metrics["untraced_remainder_s"] - metrics["traced_wall_s"])
