"""ddqsim benchmark: end-to-end metrics per workload, or per-layer metrics
from a traced run.

    python3 bench/run.py --workload desk_white --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Run from the root of a source checkout; ``src/ddqsim`` is imported from
there, nothing is installed. The benchmark is one closed-loop caller: one
child process at a time runs the workload again and again, each run waiting
for the previous one, for ``--seconds``; ddqsim itself uses at most two
threads (``cli_colored``). ``--seed`` only generates the inputs. Workload
and metric names and units come from ``BENCHMARK.json``; ``BASELINE.md``
holds the reference numbers.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics:

* ``wall_ref``     mean over timed runs of the run's wall time (inputs to
                   finished output) over the time of a fixed reference
                   kernel timed just before and after it (``worker.py``)
* ``shots_per_ref`` simulated shots per run divided by ``wall_ref``
* ``setup_s``      median, over three fresh processes, of process start to
                   ready (``import ddqsim``, config loads, input building)
* ``peak_rss_mb``  peak resident memory during the timed runs, polled
                   every 5 ms from outside the measuring process (with two
                   threads the peak of one run depends on how their largest
                   arrays overlap, so the highest over the runs is steadier
                   than their median)

Run times are given in multiples of the reference kernel because the host
is shared and its speed moves by a third within minutes, for minutes at a
time; the kernel slows with it, so the ratio follows the program.
``BASELINE.md`` has the figures. The record before the JSON line also
gives the plain seconds of every run.

``attempted``/``failed`` count expected metric rows (CLI invocations on
``cli_colored``) and those missing or non-finite, so fail_ratio is
failed/attempted. With ``--trace 1`` traced and untraced runs alternate in
one process and the JSON carries the per-layer metrics of the traced run
with the median wall time, plus ``trace_overhead_ratio`` (``wall_ref`` of
the traced runs over that of the untraced ones).

Every run's output directory must pass the workload's correctness gate and
hash to the same digest, traced or not; otherwise ``correct`` is false and
the exit code is 1. Lines before the JSON record the machine, the load
average before and after and the CPU share the host stole. Outputs go to a temporary directory under
``.bench_work/`` that is removed at the end; timings are never written into
an output archive.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH_DIR, "worker.py")
SETUP_PROBES = 2          # set-up-only processes besides the measuring one
CHILD_GRACE_S = 150.0     # a child is killed this long after its budget
RSS_POLL_S = 0.005
PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")

def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def machine_record() -> dict:
    import numpy
    import scipy
    h = hashlib.sha256()
    for dirpath, dirs, files in os.walk(os.path.join(SRC, "ddqsim")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for fn in sorted(files):
            with open(os.path.join(dirpath, fn), "rb") as fh:
                h.update(fn.encode() + b"\0" + fh.read())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10,
                                check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(), "git_commit": commit,
            "src_sha256": h.hexdigest()}


def cpu_ticks() -> list:
    """Machine-wide CPU tick counters (user ... steal) from /proc/stat."""
    with open("/proc/stat", encoding="ascii") as fh:
        return [int(x) for x in fh.readline().split()[1:9]]


def rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * PAGE_BYTES / 2**20


def spawn(args, workdir, setup_only):
    """Run one worker; returns (setup_s, done message or None).

    While a workload run is in progress the worker's resident memory is
    polled from this process, so the measured process gets no extra
    thread; each run's peak lands in ``done["units"][i]["peak_rss_mb"]``.
    """
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    t_spawn = now()
    deadline = t_spawn + args.seconds + CHILD_GRACE_S
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    msgs, peaks, peak, buf = {}, [], None, b""
    try:
        fd = proc.stdout.fileno()
        while True:
            if select.select([fd], [], [], RSS_POLL_S)[0]:
                chunk = os.read(fd, 65536)
                if not chunk:
                    break
                *lines, buf = (buf + chunk).split(b"\n")
                for msg in map(json.loads, lines):
                    if msg["event"] == "unit_start":
                        peak = 0.0
                    elif msg["event"] == "unit_end":
                        peaks.append(peak)
                        peak = None
                    else:
                        msgs[msg["event"]] = msg
            if peak is not None:
                peak = max(peak, rss_mb(proc.pid))
            if now() > deadline:
                raise RuntimeError(f"worker for {args.workload} timed out")
        proc.wait(timeout=max(1.0, deadline - now()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {args.workload} exited "
                           f"{proc.returncode}")
    done = msgs.get("done")
    if done is not None:
        for unit, unit_peak in zip(done["units"], peaks, strict=True):
            unit["peak_rss_mb"] = unit_peak
    return msgs["ready"]["t"] - t_spawn, done


def wall_ref(units) -> float:
    """Mean over runs of wall time in multiples of the reference time."""
    return statistics.fmean(u["wall_s"] / u["ref_s"] for u in units)


def end_to_end(shots, plain, setups) -> dict:
    """End-to-end metrics from the timed untraced runs and set-up times."""
    wall = wall_ref(plain)
    return {"wall_ref": wall,
            "shots_per_ref": shots / wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(u["peak_rss_mb"] for u in plain)}


def median_unit(units):
    """The unit with the median wall time (lower middle for even counts)."""
    ranked = sorted(units, key=lambda u: u["wall_s"])
    return ranked[(len(ranked) - 1) // 2]


def measure(args) -> dict:
    """Run one workload; returns the result object printed as JSON."""
    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=work_root)
    try:
        load_before = os.getloadavg()
        ticks_before = cpu_ticks()
        setups = [spawn(args, workdir, True)[0] for _ in range(SETUP_PROBES)]
        setup_s, done = spawn(args, workdir, False)
        setups.append(setup_s)
        load_after = os.getloadavg()
        ticks = [b - a for a, b in zip(ticks_before, cpu_ticks())]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass

    units = done["units"]
    plain = [u for u in units if not u["traced"] and not u["warmup"]]
    traced = [u for u in units if u["traced"]]
    digests = {u["digest"] for u in units}
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    gates = {"every run passed its gate": all(u["ok"] for u in units),
             "one output digest across runs": len(digests) == 1,
             "no failed rows": failed == 0}
    e2e = end_to_end(done["shots"], plain, setups)
    per_layer = {}
    if traced:
        pick = median_unit(traced)
        per_layer = dict(pick["layers"])
        per_layer["trace_overhead_ratio"] = wall_ref(traced) / wall_ref(plain)
        gates["self times + remainder = traced wall"] = (
            max(u["identity_error_s"] for u in traced) < 1e-6)
    return {"workload": args.workload, "seed": args.seed,
            "machine": machine_record(),
            "load_before": load_before, "load_after": load_after,
            "steal_share": ticks[7] / max(sum(ticks), 1),
            "runs": len(plain), "traced_runs": len(traced),
            "first_run_s": units[0]["wall_s"],
            "process_peak_rss_mb": done["peak_rss_mb"],
            "rss_mb_all": [round(u["peak_rss_mb"], 1) for u in plain],
            "wall_s_all": [u["wall_s"] for u in plain],
            "ref_s_all": [u["ref_s"] for u in plain],
            "setup_s_all": setups, "gates": gates,
            "gate_detail": median_unit(plain)["detail"],
            "correct": all(gates.values()),
            "attempted": attempted, "failed": failed,
            "end_to_end": e2e, "per_layer": per_layer}


def report(result, trace: int, spec: dict) -> dict:
    """Print the human-readable record; return the metrics object with the
    metric names and units ``spec`` (BENCHMARK.json) declares."""
    print(f"== {result['workload']} (seed {result['seed']}): "
          f"{result['runs']} runs, {result['traced_runs']} traced")
    for key, value in result["machine"].items():
        print(f"  machine.{key} = {value}")
    print(f"  load average before {result['load_before']} "
          f"after {result['load_after']}; CPU steal "
          f"{100 * result['steal_share']:.1f}% of machine ticks")
    print(f"  peak RSS per timed run {result['rss_mb_all']} MB; measuring "
          f"process {result['process_peak_rss_mb']:.1f} MB")
    print(f"  untimed first run {result['first_run_s']:.4g} s; timed runs "
          f"{[round(w, 4) for w in result['wall_s_all']]} s; reference "
          f"{[round(w, 4) for w in result['ref_s_all']]} s; set-ups "
          f"{[round(w, 4) for w in result['setup_s_all']]} s")
    for name, ok in result["gates"].items():
        print(f"  gate {'PASS' if ok else 'FAIL'}: {name}")
    print(f"  gate detail: {json.dumps(result['gate_detail'], default=str)}")
    ratio = result["failed"] / result["attempted"]
    print(f"  fail_ratio {ratio:.6g} ({result['failed']}/"
          f"{result['attempted']})")
    metrics = {}
    for kind, traced in (("end_to_end", False), ("per_layer", True)):
        if not result[kind]:
            continue
        for m in spec[kind]:
            value = result[kind][m["name"]]
            print(f"  {m['name']} {value:.6g} {m['unit']}")
            if traced == bool(trace):
                metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops its worker and removes its outputs
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "ddqsim", "__init__.py")):
        print(f"error: no ddqsim source under {SRC}; run from the root of a "
              "ddqsim checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all":
        if args.workload not in names:
            ap.error(f"--workload must be one of {names} or all")
        names = [args.workload]
    metrics, correct, attempted, failed = {}, True, 0, 0
    for name in names:
        sub = argparse.Namespace(**{**vars(args), "workload": name})
        result = measure(sub)
        got = report(result, args.trace, spec)
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in got.items()})
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
