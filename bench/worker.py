"""One benchmark child process: set up a workload, then run it repeatedly.

Started by ``run.py`` with the same arguments plus ``--workdir``. It prints
one JSON line ``{"event": "ready", "t": ...}`` when set-up ends (monotonic
clock, comparable with the parent's) and, unless ``--setup-only``,
``unit_start``/``unit_end`` lines around each workload run, so the parent
can poll memory, and one ``{"event": "done", ...}`` line with every run's
wall time, gate and digest. The package's own prints go to standard error
so they cannot corrupt these lines.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


_REF_DATA = []


def reference_s() -> float:
    """Time of a fixed kernel that does not touch ddqsim: a pure-Python
    loop and sorts of one array of 200,000 floats, about 40 ms.

    Timed around every workload run so that run time can be given in
    multiples of it; both follow the host's speed of the moment.
    """
    import numpy as np
    if not _REF_DATA:
        _REF_DATA.append(np.random.default_rng(0).random(200_000))
    data = _REF_DATA[0]
    t0 = now()
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
    for _ in range(20):
        np.sort(data * 1.0001)
    return now() - t0


def run_units(workload, state, workdir, seconds, trace, emit, min_units=3):
    """Run the workload until ``seconds`` have passed and each mode has
    ``min_units`` runs; traced and untraced runs alternate when ``trace``.

    A first, untimed run lets lazy imports and first-call costs finish; it
    is gated and digested like the rest and marked ``warmup``. Each run
    records ``ref_s``, the mean of :func:`reference_s` just before and just
    after it."""
    import layers
    import tracer as tr
    from workloads import tree_digest

    out_dir = os.path.join(workdir, "out")
    tracer = tr.Tracer()
    targets = layers.targets() if trace else None
    units = []
    t_begin = None
    while True:
        timed = [u for u in units if not u["warmup"]]
        n_plain = sum(1 for u in timed if not u["traced"])
        n_traced = len(timed) - n_plain
        enough = n_plain >= min_units and (not trace or n_traced >= min_units)
        if enough and now() - t_begin >= seconds:
            break
        warmup = t_begin is None
        traced = trace and not warmup and n_traced < n_plain
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        bound = []
        if traced:
            tracer.reset()
            bound = tr.install(tracer, targets)
        ref_before = reference_s()
        emit({"event": "unit_start"})
        try:
            t0 = now()
            workload.run(state, out_dir)
            wall = now() - t0
        finally:
            tr.restore(bound)
        emit({"event": "unit_end"})
        ref_s = 0.5 * (ref_before + reference_s())
        check = workload.check(state, out_dir)
        unit = {"traced": traced, "warmup": warmup, "wall_s": wall,
                "ref_s": ref_s,
                "ok": check.ok,
                "attempted": check.attempted, "failed": check.failed,
                "detail": check.detail, "digest": tree_digest(out_dir)}
        if traced:
            unit["layers"] = layers.layer_metrics(tracer.spans, wall,
                                                  check.detail)
            unit["identity_error_s"] = layers.self_time_identity_error(
                unit["layers"])
            tracer.reset()
        units.append(unit)
        if warmup:
            t_begin = now()
    return units


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    proto = sys.stdout
    sys.stdout = sys.stderr

    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    def emit(msg):
        print(json.dumps(msg), file=proto, flush=True)

    state = workload.setup(args.seed, args.workdir)
    emit({"event": "ready", "t": now()})
    if args.setup_only:
        return 0
    units = run_units(workload, state, args.workdir, args.seconds,
                      bool(args.trace), emit)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    emit({"event": "done", "shots": state["shots"],
          "peak_rss_mb": maxrss_kb / 1024.0, "units": units})
    return 0


if __name__ == "__main__":
    sys.exit(main())
