import builtins
import filecmp
import itertools
import json
from importlib import resources
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from ddqsim.campaign import (CampaignConfig, DEFAULT_DELAYS_US, MetricPoint,
                             MOVING_AVERAGE_WINDOW, moving_average,
                             read_metrics_csv, run_campaign,
                             simulate_counts_trace, simulate_points,
                             summarize, write_metrics_csv)
import ddqsim
from ddqsim import campaign, metrology, streams
from ddqsim.cli import main
from ddqsim.device import load_device
from ddqsim.dynamics import (_PREPARE_LABELS, SEQUENCE_KINDS, PulseSequence,
                             run_sequence_batch)
from ddqsim.errors import ConfigError, FitConvergenceError
from ddqsim.metrology import read_trace_csv
from ddqsim.noise import NoiseProcess
from ddqsim.readout import (BLOB_OF_LEVEL, ReadoutModel, classify_batch,
                            default_blob_means, sample_iq_batch,
                            train_classifier)


def tiny_config(seed=42, **overrides):
    base = dict(
        devices=["q1"], experiments=["bitflip", "ramsey"], repetitions=2,
        seed=seed, shots_per_point=200,
        delays_us={"bitflip": [0, 10, 20, 30, 60, 120],
                   "ramsey": [0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33],
                   "phys_t1": [0, 20, 50, 100, 160]},
        noise=[NoiseProcess("white", 2000.0,
                            coupling="differential_D").to_dict()],
        shots_physical=200, bootstrap_resamples=20, readout_enabled=False,
    )
    base.update(overrides)
    return CampaignConfig(**base)


def q1_config(path, **changes):
    """q1's device config with ``changes``, written as a JSON file."""
    cfg = json.loads((resources.files("ddqsim") / "configs" /
                      "q1.json").read_text())
    cfg.update(changes)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(cfg))
    return str(path)


class Crash(BaseException):
    """A kill at a file operation: no handler in ddqsim catches it."""


class HalfWritten:
    """A file opened for writing that, when its ``with`` block ends, keeps
    only half of the bytes written to it (an append keeps its earlier
    bytes), then crashes."""

    def __init__(self, fh, path):
        self.fh, self.path = fh, path
        self.before = os.path.getsize(path) if "a" in fh.mode else 0

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()
        written = os.path.getsize(self.path) - self.before
        os.truncate(self.path, self.before + written // 2)
        raise Crash


def crash_at(monkeypatch, k, half):
    """Count file operations (opens for writing, os.replace and os.remove)
    and crash at the k-th: before it, or with ``half`` as it ends (an open
    leaves its file half written, a replace or remove is done). Returns a
    one-item list holding the number of operations so far."""
    ops = [0]
    real_open = builtins.open

    def reached():
        ops[0] += 1
        return ops[0] == k

    def open_(file, mode="r", *args, **kwargs):
        if not set(mode) & set("wax+") or not reached():
            return real_open(file, mode, *args, **kwargs)
        if not half:
            raise Crash
        return HalfWritten(real_open(file, mode, *args, **kwargs), file)

    def counted(real):
        def op(*args, **kwargs):
            if not reached():
                return real(*args, **kwargs)
            if half:
                real(*args, **kwargs)
            raise Crash
        return op

    monkeypatch.setattr(builtins, "open", open_)
    monkeypatch.setattr(os, "replace", counted(os.replace))
    monkeypatch.setattr(os, "remove", counted(os.remove))
    return ops


def archive_digest(root):
    digest = {}
    for dirpath, _, files in os.walk(root):
        for fn in sorted(files):
            p = os.path.join(dirpath, fn)
            with open(p, "rb") as fh:
                digest[os.path.relpath(p, root)] = fh.read()
    return digest


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            tiny_config(repetitions=0)
        with pytest.raises(ConfigError):
            tiny_config(shots_per_point=10)
        with pytest.raises(ConfigError):
            tiny_config(experiments=["bitflip", "rabi"])
        with pytest.raises(ConfigError):
            tiny_config(devices=[])
        with pytest.raises(ConfigError):
            tiny_config(delays_us={"ramsey": [5, 5, 10]})
        for change in ({"delays_us": {"ramsey": [0.0, math.nan, 10.0]}},
                       {"delays_us": {"ramsey": [0.0, 5.0, math.inf]}},
                       {"detuning_khz": math.nan},
                       {"detuning_khz": -math.inf},
                       {"interval_s": math.inf}):
            with pytest.raises(ConfigError, match="finite"):
                tiny_config(**change)

    def test_defaults_fill_missing_grids(self):
        cfg = tiny_config(delays_us={})
        assert cfg.delays_us["hahn_echo"] == DEFAULT_DELAYS_US["hahn_echo"]

    def test_roundtrip_and_hash(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "camp.json"
        path.write_text(json.dumps(cfg.to_dict()))
        cfg2 = CampaignConfig.from_json(path)
        assert cfg2.to_dict() == cfg.to_dict()
        assert cfg2.config_hash() == cfg.config_hash()

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            CampaignConfig.from_json("/no/such/campaign.json")

    def test_invalid_config_leaves_archive_untouched(self, tmp_path):
        cfg = tiny_config(repetitions=1)
        run_campaign(cfg, tmp_path)
        before = archive_digest(tmp_path)
        persistent_white = NoiseProcess("white", 2000.0, persistent=True,
                                        coupling="differential_D").to_dict()
        for change, message in (
                ({"noise": [persistent_white]}, "persistent"),
                ({"noise_dt_us": 0.0}, "noise_dt_us"),
                ({"interval_s": 0.0}, "interval_s"),
                ({"delays_us": {"ramsey": [-3.0, 0.0, 3.0]}}, "negative"),
                ({"delays_us": {"ramsey": [0.0, 3.0, math.nan]}}, "finite"),
                ({"delays_us": {"ramsey": [0, "3", 6]}}, "list of numbers"),
                ({"delays_us": {"ramsey": 6}}, "list of numbers"),
                ({"detuning_khz": math.nan}, "finite"),
                ({"noise": [{"kind": "pink", "amplitude": 1.0}]}, "noise"),
                ({"noise": [{"kind": "white", "amplitude": math.nan}]},
                 "finite"),
                ({"shots_physical": 0}, "physical shots"),
                ({"readout_enabled": "false"}, "readout_enabled"),
                ({"noise": [{"kind": "telegraph", "amplitude": 1e3,
                             "switching_rate_hz": 1.0,
                             "persistent": "false"}]}, "persistent"),
                ({"physical_refs": 0}, "physical_refs"),
                ({"physical_refs": None}, "physical_refs"),
                ({"delays_us": {"rabi": [0, 1]}}, "'rabi'"),
                ({"delays_us": {"hahn-echo": [0, 10]}}, "'hahn-echo'"),
                ({"readout_enabled": True, "readout_sigma": -1.0}, "sigma"),
                ({"readout_enabled": True, "readout_t_ro_us": math.nan},
                 "integration time")):
            # an existing archive stays as it was, and a fresh one is
            # not begun
            for out in (tmp_path, tmp_path / "fresh"):
                with pytest.raises(ConfigError, match=message):
                    run_campaign(CampaignConfig(
                        **{**cfg.to_dict(), **change}), out)
            assert not (tmp_path / "fresh").exists()
            assert archive_digest(tmp_path) == before


class TestDeviceLabels:
    """A device is labelled by its DeviceParams.name: the builtin name or
    its config file's stem."""

    def test_config_path_is_labelled_by_its_stem(self, tmp_path):
        path = q1_config(tmp_path / "configs" / "mydev.json")
        kw = dict(experiments=["ramsey"], physical_refs=False,
                  bootstrap_resamples=0)
        rows = run_campaign(tiny_config(devices=[path], **kw),
                            tmp_path / "path")
        run_campaign(tiny_config(devices=["q1"], **kw), tmp_path / "q1")
        assert {r.device for r in rows} == {"mydev"}
        got = archive_digest(tmp_path / "path")
        want = archive_digest(tmp_path / "q1")
        del got["manifest.json"], want["manifest.json"]
        assert sorted(got) == sorted(k.replace("q1", "mydev") for k in want)
        for name, data in want.items():
            assert got[name.replace("q1", "mydev")] == \
                data.replace(b",q1,", b",mydev,")

    def test_clashing_or_comma_labels_fail_before_archive_changes(
            self, tmp_path):
        run_campaign(tiny_config(repetitions=1), tmp_path / "arch")
        before = archive_digest(tmp_path / "arch")
        q1_file = q1_config(tmp_path / "configs" / "q1.json")
        comma = q1_config(tmp_path / "configs" / "a,b.json")
        for devices, message in ((["q1", "Q1"], "two devices"),
                                 ([q1_file, "q1"], "two devices"),
                                 ([comma], "comma")):
            with pytest.raises(ConfigError, match=message):
                run_campaign(tiny_config(repetitions=1, devices=devices),
                             tmp_path / "arch")
            assert archive_digest(tmp_path / "arch") == before


class TestSimulateCountsTrace:
    def test_bitflip_returns_both_inits(self):
        params = load_device("q1")
        traces = simulate_counts_trace(params, "bitflip", [0, 20, 40], 300,
                                       seed=5)
        assert {t.init_label for t in traces} == {"10", "01"}
        for t in traces:
            assert np.all(t.n00 + t.n01 + t.n10 == t.n_total)

    def test_thread_count_does_not_change_counts(self):
        params = load_device("q1")
        kw = dict(seed=9, noise=(NoiseProcess("white", 1000.0,
                                              coupling="differential_Q"),))
        a = simulate_counts_trace(params, "ramsey", [0, 5, 10, 15], 400,
                                  threads=1, **kw)
        b = simulate_counts_trace(params, "ramsey", [0, 5, 10, 15], 400,
                                  threads=4, **kw)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.n01, tb.n01)
            assert np.array_equal(ta.n10, tb.n10)

    @pytest.mark.parametrize("threads", (1, 2))
    def test_an_empty_delay_grid_is_rejected(self, threads):
        with pytest.raises(ConfigError, match="at least one delay"):
            simulate_counts_trace(load_device("q1"), "ramsey", [], 100,
                                  seed=1, threads=threads)

    def test_phys_t1_trace_decays(self):
        params = load_device("q1")
        tr, = simulate_counts_trace(params, "phys_t1", [0, 30, 60, 120, 250],
                                    2000, seed=3, init="01")
        p00 = tr.p00()
        assert p00[0] < 0.05
        assert p00[-1] > 0.9


class TestTraceBatchedPath:
    """One thread runs each trace in engine calls of whole points; every
    shot must equal the shot of a per-point loop over the public one-point
    functions."""

    NOISE = {
        "white": [NoiseProcess("white", 3000.0, coupling="common",
                               w_D=1.0, w_Q=1.3)],
        "one_over_f": [NoiseProcess("one_over_f", 2e6,
                                    coupling="differential_Q")],
        "telegraph": [NoiseProcess("telegraph", 20e3,
                                   coupling="differential_D",
                                   switching_rate_hz=2e4)],
        "quasistatic": [
            NoiseProcess("one_over_f", 1e6, coupling="differential_D",
                         quasistatic=True),
            NoiseProcess("telegraph", 10e3, coupling="common", w_D=1.0,
                         w_Q=1.4, switching_rate_hz=1e3, quasistatic=True),
            NoiseProcess("white", 500.0, coupling="differential_Q",
                         quasistatic=True)],
        "static_offsets": [],
    }
    DELAYS = [0.0, 4.0, 13.5, 30.0]
    SHOTS = 60

    @pytest.fixture(scope="class")
    def readout(self):
        params = load_device("q2")
        model = ReadoutModel(means=default_blob_means(1.0, 5.0))
        return model, train_classifier(model, params, 17)

    # shots per engine call: the whole trace, two points, one point
    @pytest.mark.parametrize("batch_shots", (1 << 15, 2 * SHOTS + 1, 1),
                             ids=("trace", "two_points", "one_point"))
    @pytest.mark.parametrize("with_readout", (False, True),
                             ids=("levels", "readout"))
    @pytest.mark.parametrize("noise_set", list(NOISE))
    def test_matches_a_per_point_loop(self, noise_set, with_readout,
                                      batch_shots, readout, monkeypatch):
        monkeypatch.setattr(campaign, "TRACE_BATCH_SHOTS", batch_shots)
        params = load_device("q2")
        model, clf = readout if with_readout else (None, None)
        offsets = ((1500.0, -800.0) if noise_set == "static_offsets"
                   else (0.0, 0.0))
        kw = dict(noise=self.NOISE[noise_set], noise_dt_us=0.37,
                  static_offsets_hz=offsets)
        for kind in SEQUENCE_KINDS:
            for label in _PREPARE_LABELS[kind]:
                points = simulate_points(
                    params, kind, self.DELAYS, self.SHOTS, seed=21,
                    init=label, detuning_khz=60.0, threads=1,
                    readout=(model, clf) if with_readout else None, **kw)
                assert len(points) == len(self.DELAYS)
                for j, (point, delay) in enumerate(zip(points, self.DELAYS)):
                    seed = int(streams.stream_key(21, 900, j))
                    want = run_sequence_batch(
                        params, PulseSequence(kind, label, delay, 60.0),
                        seed=seed, n_shots=self.SHOTS, **kw)
                    where = (kind, label, delay)
                    assert point.init == label
                    for name in ("levels", "phase_rad", "erased", "jumped"):
                        assert np.array_equal(getattr(point.batch, name),
                                              getattr(want, name)), where
                    if with_readout:
                        iq = sample_iq_batch(want.levels, model, params,
                                             seed=seed)
                        assert np.array_equal(point.iq, iq), where
                        assert np.array_equal(point.blobs,
                                              classify_batch(clf, iq)), where
                    else:
                        assert point.iq is None
                        assert np.array_equal(point.blobs,
                                              BLOB_OF_LEVEL[want.levels])


class TestRunCampaign:
    def test_byte_reproducible(self, tmp_path):
        cfg = tiny_config()
        rows1 = run_campaign(cfg, tmp_path / "a")
        rows2 = run_campaign(cfg, tmp_path / "b")
        assert archive_digest(tmp_path / "a") == archive_digest(tmp_path / "b")
        assert len(rows1) == len(rows2)

    def test_campaign_loads_no_spectral_analysis(self, tmp_path):
        # the spectral analysis (scipy.signal) serves only the allan and
        # psd commands; a campaign writes its frequency series without it
        code = (
            "import sys\n"
            "from ddqsim.campaign import CampaignConfig, run_campaign\n"
            "run_campaign(CampaignConfig(devices=['q1'], "
            "experiments=['ramsey'], repetitions=2, seed=3, "
            "shots_per_point=200, physical_refs='none', "
            "bootstrap_resamples=0), sys.argv[1])\n"
            "print([m for m in ('scipy.signal', 'ddqsim.noise_analysis') "
            "if m in sys.modules])\n")
        src = os.path.dirname(os.path.dirname(ddqsim.__file__))
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                             env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, timeout=300,
                             check=True)
        assert (tmp_path / "freq_q1.csv").exists()
        assert out.stdout.splitlines()[-1] == "[]"

    def test_interleaving_fairness(self, tmp_path):
        cfg = tiny_config(repetitions=3)
        run_campaign(cfg, tmp_path / "c")
        names = os.listdir(tmp_path / "c" / "traces")
        for exp in ("bitflip", "ramsey", "phys_t1_D", "phys_t1_Q"):
            assert sum(1 for n in names if n.endswith(f"{exp}.csv")) == 3

    def test_resume_matches_uninterrupted(self, tmp_path):
        cfg = tiny_config(repetitions=2)
        run_campaign(cfg, tmp_path / "full")
        run_campaign(cfg, tmp_path / "parts", stop_after=3)
        assert not json.load(open(tmp_path / "parts" / "manifest.json"))[
            "completed"]
        run_campaign(cfg, tmp_path / "parts", resume=True)
        assert archive_digest(tmp_path / "full") == \
            archive_digest(tmp_path / "parts")

    def test_thread_count_does_not_change_archive(self, tmp_path):
        run_campaign(tiny_config(repetitions=1, threads=1), tmp_path / "one")
        run_campaign(tiny_config(repetitions=1, threads=2), tmp_path / "two")
        assert archive_digest(tmp_path / "one") == \
            archive_digest(tmp_path / "two")

    @pytest.mark.parametrize("begun", [False, True], ids=["fresh", "resume"])
    def test_a_crash_at_any_file_operation_resumes_to_the_same_archive(
            self, tmp_path, monkeypatch, begun):
        # a fresh run, or a resume of a run stopped after two traces,
        # crashes at its k-th file operation for every k; resuming (or
        # rerunning, before a manifest exists) must give the uninterrupted
        # archive byte for byte, with no stray .tmp file
        cfg = tiny_config()
        run_campaign(cfg, tmp_path / "full")
        want = archive_digest(tmp_path / "full")
        if begun:
            run_campaign(cfg, tmp_path / "begun", stop_after=2)
        for half in (False, True):
            for k in itertools.count(1):
                out = tmp_path / f"{'half' if half else 'before'}_{k}"
                if begun:
                    shutil.copytree(tmp_path / "begun", out)
                ops = crash_at(monkeypatch, k, half)
                try:
                    run_campaign(cfg, out, resume=begun)
                except Crash:
                    pass
                finally:
                    monkeypatch.undo()
                if ops[0] < k:      # the run ended before its k-th operation
                    break
                run_campaign(cfg, out,
                             resume=os.path.exists(out / "manifest.json"))
                assert archive_digest(out) == want, f"crash at operation {k}"
            # every trace run appends its metric rows and writes its file
            # through a .tmp name: three operations at least
            n_run = len(os.listdir(tmp_path / "full" / "traces")) - 2 * begun
            assert k > 3 * n_run

    def test_fresh_run_removes_an_earlier_frequency_series(self, tmp_path):
        # two repetitions write freq_q1.csv and one writes none, so a fresh
        # run of one repetition over the older archive must remove it, and
        # the .tmp a crash leaves while writing a series
        run_campaign(tiny_config(repetitions=2), tmp_path / "d")
        assert (tmp_path / "d" / "freq_q1.csv").exists()
        (tmp_path / "d" / "freq_q2.csv.tmp").write_text("timestamp_s,")
        run_campaign(tiny_config(repetitions=1), tmp_path / "d")
        run_campaign(tiny_config(repetitions=1), tmp_path / "new")
        assert archive_digest(tmp_path / "d") == \
            archive_digest(tmp_path / "new")

    def test_resume_drops_a_metrics_row_cut_off_mid_write(self, tmp_path):
        cfg = tiny_config(repetitions=1)
        run_campaign(cfg, tmp_path / "full")
        run_campaign(cfg, tmp_path / "parts", stop_after=2)
        with open(tmp_path / "parts" / "metrics.csv", "a") as fh:
            fh.write("200.0,q1,t1l")
        run_campaign(cfg, tmp_path / "parts", resume=True)
        assert archive_digest(tmp_path / "full") == \
            archive_digest(tmp_path / "parts")

    def test_resume_rejects_a_malformed_earlier_metrics_line(self, tmp_path):
        cfg = tiny_config(repetitions=1)
        run_campaign(cfg, tmp_path / "d", stop_after=2)
        path = tmp_path / "d" / "metrics.csv"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join([*lines[:2], "0.0,q1\n", *lines[2:]]))
        with pytest.raises(ConfigError, match="metrics.csv: line 3"):
            run_campaign(cfg, tmp_path / "d", resume=True)

    def test_resume_rejects_a_truncated_manifest(self, tmp_path, capsys):
        cfg = tiny_config(repetitions=1)
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        out = tmp_path / "d"
        run_campaign(cfg, out, stop_after=1)
        assert not os.path.exists(out / "manifest.json.tmp")
        manifest = out / "manifest.json"
        manifest.write_bytes(manifest.read_bytes()[:manifest.stat().st_size
                                                   // 2])
        before = archive_digest(out)
        assert main(["campaign", "--config", str(cfg_path), "--out", str(out),
                     "--resume"]) == 2
        assert "manifest" in capsys.readouterr().err
        assert archive_digest(out) == before

    def test_resume_rejects_changed_config(self, tmp_path):
        cfg = tiny_config()
        run_campaign(cfg, tmp_path / "d", stop_after=2)
        other = tiny_config(seed=77)
        with pytest.raises(ConfigError, match="different config"):
            run_campaign(other, tmp_path / "d", resume=True)

    def test_metrics_and_timestamps(self, tmp_path):
        cfg = tiny_config()
        rows = run_campaign(cfg, tmp_path / "e")
        by_metric = {}
        for r in rows:
            by_metric.setdefault(r.metric, []).append(r.timestamp_s)
        for metric, stamps in by_metric.items():
            assert np.all(np.diff(stamps) > 0), metric
        assert "t1l_us" in by_metric and "t2rl_us" in by_metric
        assert "phys_t1_d_us" in by_metric
        # bounds bracket estimates where present
        for r in rows:
            if math.isfinite(r.lower):
                assert r.lower <= r.estimate <= r.upper

    def test_persistent_telegraph_shifts_fitted_detuning(self, tmp_path):
        proc = NoiseProcess("telegraph", 3e4, coupling="differential_D",
                            switching_rate_hz=1.0 / 800.0, persistent=True)
        cfg = tiny_config(
            experiments=["ramsey"], repetitions=24, physical_refs=False,
            noise=[proc.to_dict()], bootstrap_resamples=0,
            shots_per_point=300, interval_s=100.0,
            delays_us={"ramsey": list(np.arange(0.0, 120.0, 5.0))})
        rows = run_campaign(cfg, tmp_path / "tg")
        dfs = np.array([r.estimate for r in rows if r.metric == "delta_f_hz"])
        # the frozen telegraph state sits at +-15 kHz around 75 kHz
        lo, hi = dfs.min(), dfs.max()
        assert lo == pytest.approx(60e3, rel=0.05)
        assert hi == pytest.approx(90e3, rel=0.05)
        # and it persists across traces: few jumps, not per-trace resampling
        jumps = np.sum(np.abs(np.diff(dfs)) > 10e3)
        assert jumps <= 8
        assert (tmp_path / "tg" / "freq_q1.csv").exists()

    def test_readout_chain_runs(self, tmp_path):
        cfg = tiny_config(readout_enabled=True, repetitions=1,
                          experiments=["bitflip"], physical_refs=False)
        rows = run_campaign(cfg, tmp_path / "ro")
        assert any(r.metric == "t1l_us" for r in rows)

    def test_full_physical_references(self, tmp_path):
        cfg = tiny_config(
            repetitions=1, experiments=["ramsey"], physical_refs="full",
            noise=[NoiseProcess("white", 9000.0, coupling="common").to_dict(),
                   NoiseProcess("white", 500.0,
                                coupling="differential_Q").to_dict()],
            delays_us={"ramsey": list(np.arange(0.0, 45.0, 3.0)),
                       "phys_ramsey": list(np.arange(0.0, 45.0, 3.0)),
                       "phys_t1": [0, 20, 50, 100, 160],
                       "phys_echo": [0, 5, 10, 15, 20, 25, 30, 60, 120]})
        rows = run_campaign(cfg, tmp_path / "full")
        got = {r.metric: r.estimate for r in rows}
        for metric in ("phys_t2e_d_us", "phys_t2e_q_us", "phys_t2r_d_us",
                       "phys_t2r_q_us", "t2rl_us"):
            assert metric in got
        # each archived trace carries the prepared-state label of its plan
        # experiment
        labels = {"ramsey": ["+"], "phys_t1_D": ["10"], "phys_t1_Q": ["01"],
                  "phys_echo_D": ["+D"], "phys_echo_Q": ["+Q"],
                  "phys_ramsey_D": ["+D"], "phys_ramsey_Q": ["+Q"]}
        trace_dir = tmp_path / "full" / "traces"
        files = sorted(os.listdir(trace_dir))
        assert len(files) == len(labels)
        for fn in files:
            exp = fn[len("trace_00000_q1_"):-len(".csv")]
            got_labels = [t.init_label
                          for t in read_trace_csv(str(trace_dir / fn))]
            assert got_labels == labels[exp], fn
        # common noise dephases the bare modes but not the encoded qubit
        assert got["t2rl_us"] > 3 * got["phys_t2r_d_us"]
        # the Q mode sees both white processes (9000 + 500 Hz^2/Hz) and
        # loses coherence at half its relaxation rate
        t1_q = load_device("q1").T1_Q_us
        t2r_expect = 1.0 / (np.pi**2 * 9500.0 * 1e-6 + 1.0 / (2.0 * t1_q))
        assert got["phys_t2r_q_us"] == pytest.approx(t2r_expect, rel=0.25)


class TestLosslessDevice:
    """A linear fit with no resolvable decay gives a NaN estimate, and its
    archive must still complete, resume and summarize."""

    def test_campaign_completes_resumes_and_summarizes(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.chdir(tmp_path)
        # q1 without relaxation or thermal excitation
        q1_config(tmp_path / "lossless.json", T1_D_us=1e12, T1_Q_us=1e12,
                  n_th=0.0)
        cfg = tiny_config(devices=["lossless.json"],
                          experiments=["bitflip", "hahn_echo"], noise=[],
                          bootstrap_resamples=0, physical_refs=False)
        rows = run_campaign(cfg, "full")
        assert json.load(open("full/manifest.json"))["completed"]
        assert "t2el_us" in {r.metric for r in rows if math.isnan(r.estimate)}
        run_campaign(cfg, "parts", stop_after=3)
        run_campaign(cfg, "parts", resume=True)
        assert archive_digest("full") == archive_digest("parts")
        assert main(["summarize", "--in", "full/metrics.csv"]) == 0

    @pytest.mark.parametrize("readout", [False, True])
    def test_bitflip_without_decay_archives_nan(self, tmp_path, monkeypatch,
                                                readout):
        # the bit-flip difference is constant, so fit_linear_short finds
        # no decay; its slope rounds to about -5e-19, which must become
        # neither a time constant nor bounds of 1e18 us
        monkeypatch.chdir(tmp_path)
        q1_config(tmp_path / "lossless.json", T1_D_us=1e12, T1_Q_us=1e12,
                  n_th=0.0)
        cfg = tiny_config(devices=["lossless.json"], experiments=["bitflip"],
                          repetitions=1, noise=[], physical_refs="none",
                          readout_enabled=readout)
        rows = run_campaign(cfg, "arch")
        t1l = [r for r in rows if r.metric == "t1l_us"]
        assert len(t1l) == 1
        assert all(map(math.isnan, (t1l[0].estimate, t1l[0].lower,
                                    t1l[0].upper)))


class TestFitGaps:
    """Only the expected fit failures become gaps in the archive."""

    def test_programming_error_aborts_campaign(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("bug in the fit")
        monkeypatch.setattr(metrology, "fit_ramsey", broken)
        with pytest.raises(ValueError, match="bug in the fit"):
            run_campaign(tiny_config(repetitions=1), tmp_path / "v")

    def test_nonconverging_fit_leaves_a_gap(self, tmp_path, monkeypatch):
        def stalled(*args, **kwargs):
            raise FitConvergenceError("oscillation fit did not converge")
        monkeypatch.setattr(metrology, "fit_ramsey", stalled)
        rows = run_campaign(tiny_config(repetitions=1), tmp_path / "g")
        metrics = [r.metric for r in rows]
        # the gap takes the ramsey fit's rows; the ramsey trace's leakage
        # fit and the other traces are fitted
        assert metrics == ["t1l_us", "gamma_erasure_per_ms",
                           "gamma_erasure_per_ms", "phys_t1_d_us",
                           "phys_t1_q_us"]
        manifest = json.load(open(tmp_path / "g" / "manifest.json"))
        assert manifest["completed"]

    @staticmethod
    def ramsey_with_failing_refits(monkeypatch, error):
        """A one-trace Ramsey campaign whose bootstrap refits all raise
        ``error``: the first fit_ramsey call is the trace's fit, the rest
        are refits."""
        real, calls = metrology.fit_ramsey, []

        def refits_fail(*args, **kwargs):
            calls.append(1)
            if len(calls) > 1:
                raise error("refit failed")
            return real(*args, **kwargs)
        monkeypatch.setattr(metrology, "fit_ramsey", refits_fail)
        return tiny_config(repetitions=1, experiments=["ramsey"],
                           physical_refs=False)

    def test_dropped_refits_leave_the_bounds_open(self, tmp_path,
                                                  monkeypatch):
        cfg = self.ramsey_with_failing_refits(monkeypatch,
                                              FitConvergenceError)
        rows = run_campaign(cfg, tmp_path / "r")
        (t2rl,) = [r for r in rows if r.metric == "t2rl_us"]
        assert math.isfinite(t2rl.estimate)
        assert math.isnan(t2rl.lower) and math.isnan(t2rl.upper)

    def test_config_error_in_a_refit_aborts_campaign(self, tmp_path,
                                                     monkeypatch):
        # a refit on the fit's own grid cannot raise ConfigError, so one
        # is a programming error, not a gap
        cfg = self.ramsey_with_failing_refits(monkeypatch, ConfigError)
        with pytest.raises(ConfigError, match="refit failed"):
            run_campaign(cfg, tmp_path / "c")


class TestSeriesUtilities:
    def test_moving_average_window_one_is_identity(self):
        v = np.random.default_rng(0).normal(size=40)
        assert np.allclose(moving_average(v, 1), v)

    def test_constant_series_unchanged(self):
        assert np.allclose(moving_average(np.full(30, 2.5), 7), 2.5)

    def test_step_becomes_ramp_of_window_width(self):
        v = np.concatenate([np.zeros(100), np.ones(100)])
        out = moving_average(v, 50)
        ramp = np.flatnonzero((out > 1e-12) & (out < 1 - 1e-12))
        assert len(ramp) == 49
        assert np.all(np.diff(out[ramp]) > 0)

    def test_nan_gaps_skipped(self):
        v = np.array([1.0, math.nan, 1.0, 1.0, math.nan, 1.0])
        out = moving_average(v, 3)
        assert np.allclose(out[~np.isnan(v)], 1.0)

    def test_window_default_is_protocol_constant(self):
        assert MOVING_AVERAGE_WINDOW == 50

    @staticmethod
    def rows(values):
        return [MetricPoint(0.0, "q1", "x", v) for v in values]

    def test_summarize_single_value(self):
        s = summarize(self.rows([4.2]))
        assert s["x"]["median"] == s["x"]["q1"] == s["x"]["q3"] == 4.2

    def test_summarize_small_set(self):
        s = summarize(self.rows([1, 2, 3, 4, 5]))
        assert (s["x"]["median"], s["x"]["q1"], s["x"]["q3"]) == (3, 2, 4)

    def test_summarize_outliers(self):
        vals = list(np.arange(1, 20.0)) + [1000.0]
        s = summarize(self.rows(vals))
        assert s["x"]["outliers"] == [1000.0]
        assert s["x"]["whisker_hi"] <= 19.0

    def test_summarize_lognormal_median(self):
        rng = np.random.default_rng(50)
        vals = rng.lognormal(mean=1.0, sigma=0.5, size=1750)
        s = summarize(self.rows(vals))
        assert s["x"]["median"] == pytest.approx(math.exp(1.0), rel=0.03)

    def test_metrics_csv_roundtrip(self, tmp_path):
        rows = [MetricPoint(0.0, "q1", "t1l_us", 1900.0, 1700.0, 2100.0),
                MetricPoint(100.0, "q1", "t2rl_us", 66.0)]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, rows)
        back = read_metrics_csv(path)
        assert back[0].lower == 1700.0
        assert math.isnan(back[1].lower)
        assert back[1].estimate == 66.0
