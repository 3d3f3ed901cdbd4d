"""Self-tests of the benchmark harness: span arithmetic, per-thread stacks,
rebinding and restoring ddqsim names, fail counting and BENCHMARK.json."""

import json
import os
import shutil
import subprocess
import sys
import threading

import numpy as np

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import layers  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import (WORKLOADS, archive_gaps, expected_archive,  # noqa: E402
                       read_metric_rows)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def _span(tracer, clock, layer, name, t_in, body, t_out):
    clock.t = t_in
    s = tracer.enter(layer, name)
    body()
    clock.t = t_out
    tracer.exit(s)
    return s


def test_self_time_of_nested_spans():
    clock = FakeClock()
    t = tr.Tracer(clock)
    # streams.normals [0, 6] calls streams.uniforms [1, 4]
    _span(t, clock, "streams", "normals", 0.0,
          lambda: _span(t, clock, "streams", "uniforms", 1.0,
                        lambda: None, 4.0), 6.0)

    # bootstrap_bounds [10, 20] -> fit_ramsey [11, 15] -> lm [12, 14]
    #                           -> fit_ramsey [16, 19] -> lm [16.5, 18.5]
    def refits():
        _span(t, clock, "metrology", "fit_ramsey", 11.0,
              lambda: _span(t, clock, "fitting", "lm_least_squares", 12.0,
                            lambda: None, 14.0), 15.0)
        _span(t, clock, "metrology", "fit_ramsey", 16.0,
              lambda: _span(t, clock, "fitting", "lm_least_squares", 16.5,
                            lambda: None, 18.5), 19.0)
    _span(t, clock, "metrology", "bootstrap_bounds", 10.0, refits, 20.0)

    m = layers.layer_metrics(t.spans, wall_s=25.0)
    by_name = {}
    for s in t.spans:
        by_name.setdefault(s.name, []).append(s.self_s)
    assert by_name["normals"] == [3.0]
    assert by_name["uniforms"] == [3.0]
    assert by_name["bootstrap_bounds"] == [3.0]
    assert by_name["fit_ramsey"] == [2.0, 1.0]
    assert m["streams.self_s"] == 6.0
    assert m["metrology.self_s"] == 6.0
    assert m["fitting.self_s"] == 4.0
    assert m["streams.calls"] == 1          # normals -> uniforms is one call
    assert m["metrology.fits"] == 0         # refits sit under bootstrap
    assert m["fitting.lm_s"] == 4.0
    assert m["untraced_remainder_s"] == 25.0 - 6.0 - 10.0
    assert m["parallel_overlap_s"] == 0.0
    assert layers.self_time_identity_error(m) == 0.0


def test_overlapping_children_count_once_in_self_time():
    clock = FakeClock()
    t = tr.Tracer(clock)
    parent = t.enter("cli", "cmd_sim_shots")
    # two worker spans [1, 5] and [2, 6] adopted by the open main span
    a = tr.Span("dynamics", "run_sequence_batch", 1.0, parent, 1, end=5.0)
    b = tr.Span("dynamics", "run_sequence_batch", 2.0, parent, 2, end=6.0)
    t.spans += [a, b]
    clock.t = 8.0
    t.exit(parent)
    m = layers.layer_metrics(t.spans, wall_s=8.0)
    assert parent.self_s == 8.0 - 5.0
    assert m["dynamics.self_s"] == 8.0
    assert m["parallel_overlap_s"] == 3.0
    assert layers.self_time_identity_error(m) == 0.0


def test_worker_threads_keep_their_own_stacks():
    t = tr.Tracer()
    barrier = threading.Barrier(2)
    errors = []

    def worker():
        try:
            barrier.wait(timeout=10)
            for _ in range(200):
                outer = t.enter("dynamics", "run_sequence_batch")
                inner = t.enter("streams", "uniforms")
                t.exit(inner)
                t.exit(outer)
        except Exception as exc:  # reported below
            errors.append(exc)

    root = t.enter("cli", "cmd_sim_shots")
    threads = [threading.Thread(target=worker) for _ in range(2)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    t.exit(root)
    assert not any(th.is_alive() for th in threads)
    assert not errors
    for s in t.spans:
        if s.name == "uniforms":
            assert s.parent.name == "run_sequence_batch"
            assert s.parent.thread == s.thread
        elif s.name == "run_sequence_batch":
            assert s.parent is root
    assert len({s.thread for s in t.spans if s is not root}) == 2


def _module_names():
    return {n: dict(vars(m)) for n, m in sys.modules.items()
            if m is not None and (n == "ddqsim" or n.startswith("ddqsim."))}


def test_cli_thread_pool_spans_nest_per_thread(tmp_path):
    from ddqsim import cli
    t = tr.Tracer()
    bound = tr.install(t, layers.targets())
    try:
        code = cli.main(["sim-shots", "--config", "q1", "--experiment",
                         "ramsey", "--delays", "0,5,10,15", "--shots", "200",
                         "--seed", "3", "--threads", "2",
                         "--out", str(tmp_path / "shots.csv")])
    finally:
        tr.restore(bound)
    assert code == 0
    main_thread = threading.main_thread().ident
    batches = [s for s in t.spans if s.name == "run_sequence_batch"]
    assert len(batches) == 4
    for s in batches:
        assert s.thread != main_thread
        assert s.parent.name == "cmd_sim_shots"
        assert s.parent.thread == main_thread
    for s in t.spans:
        if s.parent is not None and s.parent.name != "cmd_sim_shots":
            assert s.parent.thread == s.thread
            assert s.parent.start <= s.start <= s.end <= s.parent.end
    m = layers.layer_metrics(t.spans, wall_s=max(s.end for s in t.spans) -
                             min(s.start for s in t.spans))
    assert m["dynamics.shots"] == 800
    assert m["cli.invocations"] == 1
    assert layers.self_time_identity_error(m) < 1e-9


def test_traced_run_restores_every_name(tmp_path):
    from ddqsim import campaign, cli, dynamics, metrology
    before = _module_names()
    original = dynamics.run_sequence_batch
    t = tr.Tracer()
    bound = tr.install(t, layers.targets())
    try:
        wrapped = dynamics.run_sequence_batch
        assert wrapped is not original
        assert campaign.run_sequence_batch is wrapped
        assert cli.run_sequence_batch is wrapped
        assert metrology.lm_least_squares is not before[
            "ddqsim.metrology"]["lm_least_squares"]
        fit = metrology.fit_ramsey(np.arange(0.0, 45.0, 3.0),
                                   0.5 + 0.45 * np.cos(2 * np.pi * 0.075 *
                                                       np.arange(0.0, 45.0,
                                                                 3.0)))
        metrology.bootstrap_bounds(fit, n_resamples=5, seed=1)
    finally:
        tr.restore(bound)
    after = _module_names()
    assert after.keys() == before.keys()
    for mod, names in before.items():
        for attr, value in names.items():
            assert after[mod][attr] is value, f"{mod}.{attr} not restored"
    boot = [s for s in t.spans if s.name == "bootstrap_bounds"]
    assert len(boot) == 1
    refits = [s for s in t.spans if s.parent is boot[0]]
    assert [s.name for s in refits] == ["fit_ramsey"] * 5
    assert all(any(c.parent is r and c.name == "lm_least_squares"
                   for c in t.spans) for r in refits)


def test_fail_count_on_archive_with_one_gap(tmp_path):
    names, rows = expected_archive(("q1",), ("bitflip", "ramsey"), 2, 100.0)
    os.makedirs(tmp_path / "traces")
    for n in names:
        (tmp_path / "traces" / n).write_text("")
    gap = rows[3]
    with open(tmp_path / "metrics.csv", "w") as fh:
        fh.write("timestamp_s,device,metric,estimate,lower,upper\n")
        for ts, dev, metric in rows:
            if (ts, dev, metric) != gap:
                fh.write(f"{ts!r},{dev},{metric},1.5,,\n")
    assert len(read_metric_rows(tmp_path / "metrics.csv")) == len(rows) - 1
    failed, missing, est = archive_gaps(tmp_path, names, rows)
    assert (failed, missing) == (1, 0)
    assert len(rows) == 2 * (2 + 3)
    assert sum(len(v) for v in est.values()) == len(rows) - 1


def test_benchmark_json_matches_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    import run
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    e2e = run.end_to_end(10, [{"wall_s": 2.0, "ref_s": 0.1,
                               "peak_rss_mb": 9.0}], [1.0])
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    per_layer = layers.layer_metrics([], wall_s=1.0)
    assert [m["name"] for m in spec["per_layer"]] == \
        [*per_layer, "trace_overhead_ratio"]


def test_end_to_end_gives_times_in_reference_units():
    import run
    plain = [{"wall_s": w, "ref_s": r, "peak_rss_mb": m}
             for w, r, m in ((3.5, 0.5, 10.0), (2.0, 0.25, 30.0),
                             (1.5, 0.5, 20.0))]
    e2e = run.end_to_end(120, plain, [1.0, 5.0, 2.0])
    assert e2e == {"wall_ref": 6.0, "shots_per_ref": 20.0,
                   "setup_s": 2.0, "peak_rss_mb": 30.0}


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "desk_white", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
