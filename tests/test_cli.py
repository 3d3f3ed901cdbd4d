import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import ddqsim
from ddqsim import streams, tables
from ddqsim.cli import build_parser, main
from ddqsim.campaign import (CampaignConfig, simulate_counts_trace,
                             simulate_points)
from ddqsim.device import LEVEL_ORDER, load_device
from ddqsim.metrology import DEFAULT_FIT_WINDOW_US, fit_trace, read_trace_csv
from ddqsim.noise import NoiseProcess, synthesize_noise
from ddqsim.readout import (READOUT_LEVELS, ReadoutModel, default_blob_means,
                            train_classifier)


def run(args):
    return main(args)


class TestSimShots:
    def test_row_count_contract_and_determinism(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        base = ["sim-shots", "--config", "q1", "--experiment", "ramsey",
                "--detuning-khz", "75", "--shots", "120", "--seed", "7",
                "--delays", "0:20:5"]
        assert run(base + ["--out", str(out1)]) == 0
        assert run(base + ["--out", str(out2)]) == 0
        lines = out1.read_text().splitlines()
        assert lines[0] == "shot_index,prep_label,i,q,assigned_label"
        assert len(lines) == 1 + 120 * 5
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "a.csv.manifest.json").exists()

    def test_bitflip_writes_both_inits(self, tmp_path):
        out = tmp_path / "bf.csv"
        assert run(["sim-shots", "--config", "q1", "--experiment", "bitflip",
                    "--shots", "100", "--seed", "3", "--delays", "0,10",
                    "--out", str(out)]) == 0
        lines = out.read_text().splitlines()[1:]
        assert len(lines) == 2 * 100 * 2
        preps = {line.split(",")[1] for line in lines}
        assert preps == {"10", "01"}

    def test_missing_config_exit_2_names_path(self, tmp_path, capsys):
        code = run(["sim-shots", "--config", "/missing/q9.json",
                    "--experiment", "ramsey", "--shots", "100",
                    "--seed", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "/missing/q9.json" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--shots", "--noise-dt-us"])
    def test_nonpositive_number_exit_2(self, tmp_path, flag):
        out = tmp_path / "z.csv"
        with pytest.raises(SystemExit) as exc:
            run(["sim-shots", "--config", "q1", "--experiment", "ramsey",
                 "--seed", "1", "--delays", "0,5", "--out", str(out),
                 flag, "0"])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("delays", ["0:10:0", "0:10:x", "a,b",
                                        "nan,5,10", "0,5,inf", "-5,0,5"])
    def test_bad_delays_exit_2(self, tmp_path, delays):
        out = tmp_path / "y.csv"
        assert run(["sim-shots", "--config", "q1", "--experiment", "ramsey",
                    "--seed", "1", f"--delays={delays}", "--out",
                    str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("trace_out", [False, True])
    @pytest.mark.parametrize("delays", ["10,5", "0,0"])
    def test_non_increasing_delays_exit_2(self, tmp_path, delays, trace_out):
        out = tmp_path / "w.csv"
        extra = ["--trace-out", str(tmp_path / "w.trace")] if trace_out else []
        assert run(["sim-shots", "--config", "q1", "--experiment", "ramsey",
                    "--seed", "1", "--shots", "100", "--delays", delays,
                    "--out", str(out), *extra]) == 2
        assert not out.exists()

    def test_non_finite_detuning_exit_2(self, tmp_path):
        out = tmp_path / "v.csv"
        assert run(["sim-shots", "--config", "q1", "--experiment", "ramsey",
                    "--seed", "1", "--shots", "100", "--delays", "0,5",
                    "--detuning-khz", "nan", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("spec", [
        {"kind": "white", "amplitude": math.nan},
        {"kind": "telegraph", "amplitude": 2e4,
         "switching_rate_hz": math.inf}], ids=["nan", "inf"])
    def test_non_finite_noise_exit_2(self, tmp_path, spec):
        noise = tmp_path / "noise.json"
        noise.write_text(json.dumps([spec]))
        out = tmp_path / "u.csv"
        assert run(["sim-shots", "--config", "q1", "--experiment", "ramsey",
                    "--seed", "1", "--shots", "100", "--delays", "0,5",
                    "--noise", str(noise), "--out", str(out)]) == 2
        assert not out.exists()

    def test_non_bool_noise_flag_exit_2(self, tmp_path, capsys):
        noise = tmp_path / "noise.json"
        noise.write_text(json.dumps([{"kind": "telegraph", "amplitude": 2e4,
                                      "switching_rate_hz": 1e3,
                                      "quasistatic": "false"}]))
        out = tmp_path / "u.csv"
        assert run(["sim-shots", "--config", "q1", "--experiment", "ramsey",
                    "--seed", "1", "--shots", "100", "--delays", "0,5",
                    "--noise", str(noise), "--out", str(out)]) == 2
        assert "quasistatic must be true or false" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--t-ro-us", "nan"),
                                             ("--t-ro-us", "inf"),
                                             ("--readout-sigma", "inf")])
    def test_non_finite_readout_exit_2(self, tmp_path, flag, value):
        assert run(["sim-shots", "--config", "q1", "--experiment", "bitflip",
                    "--seed", "1", "--delays", "0", "--shots", "200",
                    "--out", str(tmp_path / "r.csv"), "--trace-out",
                    str(tmp_path / "r.trace"), flag, value]) == 2
        assert list(tmp_path.iterdir()) == []

    def test_init_ignored_for_non_bitflip(self, tmp_path):
        outputs = []
        for name, extra in (("plain", []), ("init", ["--init", "10"])):
            out = tmp_path / name
            assert run(["sim-shots", "--config", "q1", "--experiment",
                        "ramsey", "--shots", "100", "--seed", "4",
                        "--delays", "0,5,10", "--out", str(out),
                        "--trace-out", f"{out}.trace", *extra]) == 0
            outputs.append((out.read_bytes(),
                            (tmp_path / f"{name}.trace").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_overwrite_needs_force(self, tmp_path):
        out = tmp_path / "c.csv"
        args = ["sim-shots", "--config", "q1", "--experiment", "ramsey",
                "--shots", "100", "--seed", "2", "--delays", "0,5",
                "--out", str(out)]
        assert run(args) == 0
        assert run(args) == 2
        assert run(args + ["--force"]) == 0

    def test_no_classify_leaves_blank(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run(["sim-shots", "--config", "q1", "--experiment", "ramsey",
                    "--shots", "100", "--seed", "2", "--delays", "0,5",
                    "--out", str(out), "--no-classify"]) == 0
        row = out.read_text().splitlines()[1]
        assert row.endswith(",")

    def test_trajectory_dump(self, tmp_path):
        out = tmp_path / "e.csv"
        assert run(["sim-shots", "--config", "q1", "--experiment", "ramsey",
                    "--shots", "100", "--seed", "2", "--delays", "0,5",
                    "--out", str(out), "--dump-trajectories"]) == 0
        tlines = (tmp_path / "e.csv.trajectories.csv").read_text().splitlines()
        assert tlines[0] == "shot_index,final_level,phase_rad,erased"
        assert len(tlines) == 1 + 200


class TestOneRunner:
    """sim-shots and campaigns share one experiment-point runner."""

    noise = [NoiseProcess("white", 3000.0, coupling="differential_Q")]
    colored = [NoiseProcess("one_over_f", 2e6, coupling="differential_Q"),
               NoiseProcess("telegraph", 20e3, coupling="differential_D",
                            switching_rate_hz=2e4)]

    def sim(self, tmp_path, name, experiment, *extra, noise=None):
        spec = tmp_path / "noise.json"
        spec.write_text(json.dumps([p.to_dict()
                                    for p in (noise or self.noise)]))
        out = tmp_path / name
        assert run(["sim-shots", "--config", "q1", "--experiment",
                    experiment, "--shots", "150", "--seed", "12",
                    "--delays", "0,5,10,20", "--noise", str(spec),
                    "--out", str(out), "--trace-out", str(out) + ".trace",
                    *extra]) == 0
        return out

    @pytest.mark.parametrize("experiment", ["bitflip", "hahn-echo",
                                            "ramsey"])
    def test_ideal_readout_counts_match_campaign_runner(self, tmp_path,
                                                        experiment):
        out = self.sim(tmp_path, "s.csv", experiment, "--ideal-readout")
        got = read_trace_csv(str(out) + ".trace")
        want = simulate_counts_trace(load_device("q1"),
                                     experiment.replace("-", "_"),
                                     [0.0, 5.0, 10.0, 20.0], 150, seed=12,
                                     noise=self.noise)
        assert len(want) == (2 if experiment == "bitflip" else 1)
        assert [t.init_label for t in got] == [t.init_label for t in want]
        for g, w in zip(got, want):
            for name in ("n00", "n01", "n10", "n_total"):
                assert np.array_equal(getattr(g, name), getattr(w, name))

    def test_shot_and_trajectory_rows_hold_the_simulated_values(self,
                                                                tmp_path):
        out = self.sim(tmp_path, "v.csv", "bitflip", "--dump-trajectories")
        params = load_device("q1")
        model = ReadoutModel(means=default_blob_means(1.0, 5.0))
        clf = train_classifier(model, params, int(streams.stream_key(
            12, streams.TAG_READOUT_TRAIN)))
        points = simulate_points(params, "bitflip", [0.0, 5.0, 10.0, 20.0],
                                 150, seed=12, noise=self.noise,
                                 readout=(model, clf))
        shots = tables.read_table(out, tables.SHOTS)
        paths = tables.read_table(f"{out}.trajectories.csv",
                                  tables.TRAJECTORIES)
        assert len(shots) == len(paths) == 8 * 150
        blob = [lv.label for lv in READOUT_LEVELS]
        want_shots, want_paths = [], []
        for p in points:
            b = p.batch
            want_shots += [(p.init, i, q, blob[k]) for (i, q), k in
                           zip(p.iq.tolist(), p.blobs.tolist())]
            want_paths += [(LEVEL_ORDER[lv].label, ph, int(e)) for lv, ph, e
                           in zip(b.levels.tolist(), b.phase_rad.tolist(),
                                  b.erased.tolist())]
        assert [r[0] for r in shots] == [r[0] for r in paths] == \
            list(range(8 * 150))
        assert [r[1:] for r in shots] == want_shots
        assert [r[1:] for r in paths] == want_paths

    @pytest.mark.parametrize("experiment, colored", [
        pytest.param("bitflip", False, id="bitflip"),
        pytest.param("ramsey", False, id="ramsey"),
        pytest.param("ramsey", True, id="ramsey-colored"),
        pytest.param("hahn-echo", True, id="hahn-echo-colored")])
    def test_thread_count_does_not_change_files(self, tmp_path, experiment,
                                                colored):
        suffixes = ("", ".trajectories.csv", ".trace", ".manifest.json")
        files = []
        for n in (1, 2):
            out = self.sim(tmp_path, "t.csv", experiment, "--threads", str(n),
                           "--dump-trajectories", "--force",
                           noise=self.colored if colored else None)
            files.append([open(str(out) + s, "rb").read() for s in suffixes])
        for suffix, one, two in zip(suffixes, *files):
            assert one == two, suffix


class TestAnalyze:
    def make_trace(self, tmp_path, seed=5):
        out = tmp_path / "shots.csv"
        trace = tmp_path / "trace.csv"
        noise = tmp_path / "noise.json"
        noise.write_text(json.dumps(
            [NoiseProcess("white", 3000.0, coupling="differential_Q").to_dict()]))
        assert run(["sim-shots", "--config", "q1", "--experiment", "ramsey",
                    "--shots", "400", "--seed", str(seed),
                    "--delays", "0:45:16", "--out", str(out),
                    "--trace-out", str(trace), "--noise", str(noise)]) == 0
        return trace

    def test_ramsey_fit_json(self, tmp_path):
        trace = self.make_trace(tmp_path)
        fit_out = tmp_path / "fit.json"
        assert run(["analyze", "--trace", str(trace), "--kind", "ramsey",
                    "--bootstrap", "40", "--seed", "1",
                    "--out", str(fit_out)]) == 0
        payload = json.loads(fit_out.read_text())
        assert payload["model"] == "ramsey"
        assert payload["params"]["delta_f_khz"] == pytest.approx(75.0, rel=0.1)
        assert "T2R_us" in payload["bounds"]

    def test_bootstrap_zero_omits_bounds(self, tmp_path):
        trace = self.make_trace(tmp_path)
        fit_out = tmp_path / "fit0.json"
        assert run(["analyze", "--trace", str(trace), "--kind", "ramsey",
                    "--bootstrap", "0", "--out", str(fit_out)]) == 0
        assert json.loads(fit_out.read_text())["bounds"] is None

    def test_bootstrap_requires_seed(self, tmp_path):
        trace = self.make_trace(tmp_path)
        assert run(["analyze", "--trace", str(trace), "--kind", "ramsey",
                    "--bootstrap", "10", "--out",
                    str(tmp_path / "f.json")]) == 2

    def test_linear_kind_on_synthetic_trace(self, tmp_path):
        import csv
        trace = tmp_path / "lin.csv"
        with open(trace, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["delay_us", "n00", "n01", "n10", "n_total",
                        "init_label", "timestamp_s"])
            for t in np.linspace(0, 30, 7):
                n10 = int(10_000 * (1 - t / 3860.0))
                w.writerow([t, 0, 10_000 - n10, n10, 10_000, "+", 0.0])
        fit_out = tmp_path / "lin.json"
        assert run(["analyze", "--trace", str(trace), "--kind", "hahn-echo",
                    "--bootstrap", "0", "--out", str(fit_out)]) == 0
        payload = json.loads(fit_out.read_text())
        assert payload["params"]["T_ms"] == pytest.approx(3.86, rel=0.01)

    def test_flat_trace_notice_printed_once(self, tmp_path, capsys):
        # both initializations hold still, so the bit-flip difference is
        # flat and no decay is resolvable
        trace = tmp_path / "flat.csv"
        trace.write_text(
            "delay_us,n00,n01,n10,n_total,init_label,timestamp_s\n" +
            "".join(f"{t}.0,0,{n01},{1000 - n01},1000,{init},0.0\n"
                    for init, n01 in (("10", 10), ("01", 990))
                    for t in range(0, 35, 5)))
        out = tmp_path / "flat.json"
        assert run(["analyze", "--trace", str(trace), "--kind", "bitflip",
                    "--bootstrap", "0", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["diagnostics"]["warning"] == "no decay resolvable"
        err = capsys.readouterr().err
        assert err.splitlines() == ["warning: no decay resolvable"]

    def test_nonuniform_ramsey_trace_exit_2(self, tmp_path, capsys):
        trace = tmp_path / "nonuniform.csv"
        trace.write_text(
            "delay_us,n00,n01,n10,n_total,init_label,timestamp_s\n" +
            "".join(f"{t}.0,0,{500 - k % 2 * 300},{500 + k % 2 * 300},1000,"
                    f"+,0.0\n" for k, t in enumerate(
                        [0, 2, 5, 9, 14, 20, 27, 35, 44, 54])))
        out = tmp_path / "n.json"
        assert run(["analyze", "--trace", str(trace), "--kind", "ramsey",
                    "--bootstrap", "0", "--out", str(out)]) == 2
        assert "uniformly spaced" in capsys.readouterr().err
        assert not out.exists()

    def test_header_only_trace_exit_2(self, tmp_path, capsys):
        trace = tmp_path / "empty.csv"
        trace.write_text("delay_us,n00,n01,n10,n_total,init_label,timestamp_s\n")
        assert run(["analyze", "--trace", str(trace), "--kind", "ramsey",
                    "--bootstrap", "0", "--out",
                    str(tmp_path / "e.json")]) == 2
        assert "no trace rows" in capsys.readouterr().err

    def test_corrupted_csv_exit_2_with_line(self, tmp_path, capsys):
        trace = tmp_path / "bad.csv"
        trace.write_text(
            "delay_us,n00,n01,n10,n_total,init_label,timestamp_s\n"
            "0.0,0,50,50,100,+,0.0\nbroken,row\n")
        assert run(["analyze", "--trace", str(trace), "--kind", "ramsey",
                    "--bootstrap", "0", "--out",
                    str(tmp_path / "g.json")]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_negative_or_zero_counts_exit_2(self, tmp_path, capsys):
        trace = tmp_path / "neg.csv"
        trace.write_text(
            "delay_us,n00,n01,n10,n_total,init_label,timestamp_s\n" +
            "".join(f"{t}.0,-50,0,0,0,+,0.0\n" for t in range(6)))
        out = tmp_path / "neg.json"
        assert run(["analyze", "--trace", str(trace), "--kind", "erasure",
                    "--bootstrap", "0", "--out", str(out)]) == 2
        assert "n_total >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_nonconvergent_fit_exit_4_with_diagnostics(self, tmp_path):
        import csv
        trace = tmp_path / "flat.csv"
        with open(trace, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["delay_us", "n00", "n01", "n10", "n_total",
                        "init_label", "timestamp_s"])
            for t in np.linspace(0, 50, 12):
                w.writerow([t, 0, 500, 500, 1000, "+", 0.0])
        fit_out = tmp_path / "flat.json"
        assert run(["analyze", "--trace", str(trace), "--kind", "ramsey",
                    "--bootstrap", "0", "--out", str(fit_out)]) == 4
        payload = json.loads(fit_out.read_text())
        assert payload["converged"] is False

    def test_emit_plot_data(self, tmp_path):
        trace = self.make_trace(tmp_path)
        fit_out = tmp_path / "fit2.json"
        assert run(["analyze", "--trace", str(trace), "--kind", "ramsey",
                    "--bootstrap", "0", "--out", str(fit_out),
                    "--emit-plot-data"]) == 0
        curve = (tmp_path / "fit2.json.curve.csv").read_text().splitlines()
        assert curve[0] == "delay_us,data,fitted"
        assert len(curve) == 17
        values = np.array([[float(x) for x in line.split(",")]
                           for line in curve[1:]])
        fit = fit_trace("ramsey", read_trace_csv(trace), DEFAULT_FIT_WINDOW_US)
        assert np.array_equal(values[:, 0], fit.delays_us)
        assert np.array_equal(values[:, 1], fit.fitted + fit.residuals)
        assert np.array_equal(values[:, 2], fit.fitted)


class TestNoiseAnalysisCommands:
    def write_freq(self, tmp_path, values, tau0=100.0):
        path = tmp_path / "freq.csv"
        with open(path, "w") as fh:
            fh.write("timestamp_s,delta_f_hz,source\n")
            for i, v in enumerate(values):
                fh.write(f"{i * tau0},{v},logical\n")
        return path

    def test_allan_constant_input_zero_sigma(self, tmp_path):
        path = self.write_freq(tmp_path, np.full(64, 5.0))
        out = tmp_path / "allan.csv"
        assert run(["allan", "--in", str(path), "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "tau_s,sigma_hz"
        sig = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(s == 0.0 for s in sig)

    def test_psd_and_fit(self, tmp_path):
        rng = np.random.default_rng(3)
        path = self.write_freq(tmp_path, rng.normal(0, 50.0, 2048), tau0=10.0)
        out = tmp_path / "psd.csv"
        fit_out = tmp_path / "psdfit.json"
        assert run(["psd", "--in", str(path), "--out", str(out),
                    "--fit-out", str(fit_out)]) == 0
        assert out.read_text().splitlines()[0] == "freq_hz,psd_hz2_per_hz"
        payload = json.loads(fit_out.read_text())
        assert payload["params"]["B_hz2_per_hz"] == pytest.approx(
            2 * 50.0**2 * 10.0, rel=0.2)

    @pytest.mark.parametrize("command", ["allan", "psd"])
    def test_existing_fit_out_refused_before_any_output(self, tmp_path,
                                                        command):
        path = self.write_freq(tmp_path, np.arange(64.0) % 7)
        out, fit_out = tmp_path / "o.csv", tmp_path / "fit.json"
        fit_out.write_text("{}")
        assert run([command, "--in", str(path), "--out", str(out),
                    "--fit-out", str(fit_out)]) == 2
        assert sorted(os.listdir(tmp_path)) == ["fit.json", "freq.csv"]
        assert fit_out.read_text() == "{}"

    @pytest.mark.parametrize("command, option",
                             [("allan", ["--max-octaves", "4"]),
                              ("psd", ["--segment-length", "8"])])
    def test_failing_fit_writes_no_output(self, tmp_path, command, option):
        # 4 octaves of tau span < 1.5 decades and 8-sample segments give
        # < 6 nonzero bins, so neither model can be fit; the fit runs before
        # the first write
        rng = np.random.default_rng(4)
        path = self.write_freq(tmp_path, rng.normal(0.0, 50.0, 1024))
        assert run([command, "--in", str(path), "--out",
                    str(tmp_path / "o.csv"), *option, "--fit-out",
                    str(tmp_path / "fit.json")]) == 2
        assert sorted(os.listdir(tmp_path)) == ["freq.csv"]

    def test_allan_clamp_notice_printed_once(self, tmp_path, capsys):
        # white noise only: the 1/f amplitude clamps at 0
        tau0 = 0.05
        values = synthesize_noise(NoiseProcess("white", 1.2e6),
                                  8192 * tau0 * 1e6, tau0 * 1e6, seed=41)
        path = self.write_freq(tmp_path, values, tau0=tau0)
        fit_out = tmp_path / "fit.json"
        assert run(["allan", "--in", str(path), "--out",
                    str(tmp_path / "allan.csv"), "--fit-out",
                    str(fit_out)]) == 0
        assert json.loads(fit_out.read_text())["diagnostics"]["clamped"] \
            == ["A"]
        assert capsys.readouterr().err.splitlines() == [
            "warning: Allan model amplitude(s) clamped at 0: A"]

    def test_missing_source_rejected(self, tmp_path):
        path = self.write_freq(tmp_path, np.zeros(32))
        assert run(["allan", "--in", str(path), "--out",
                    str(tmp_path / "o.csv"), "--source", "q-mode"]) == 2


class TestCampaignCli:
    def test_campaign_and_summarize_and_resume(self, tmp_path, capsys):
        cfg = CampaignConfig(
            devices=["q1"], experiments=["ramsey"], repetitions=2, seed=5,
            shots_per_point=200, physical_refs=False, readout_enabled=False,
            bootstrap_resamples=0,
            delays_us={"ramsey": [0, 3, 6, 9, 12, 15, 18, 21, 24, 27]},
            noise=[NoiseProcess("white", 2000.0,
                                coupling="differential_D").to_dict()])
        cfg_path = tmp_path / "camp.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        out = tmp_path / "arch"
        assert run(["campaign", "--config", str(cfg_path),
                    "--out", str(out)]) == 0
        capsys.readouterr()
        metrics = out / "metrics.csv"
        assert metrics.exists()
        assert run(["summarize", "--in", str(metrics)]) == 0
        text = capsys.readouterr().out
        assert "T_2R^L [ms]" in text

    def test_existing_archive_needs_resume_or_force(self, tmp_path):
        cfg = CampaignConfig(
            devices=["q1"], experiments=["ramsey"], repetitions=1, seed=6,
            shots_per_point=150, physical_refs=False, readout_enabled=False,
            bootstrap_resamples=0,
            delays_us={"ramsey": [0, 3, 6, 9, 12, 15, 18, 21]})
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        out = tmp_path / "arch2"
        assert run(["campaign", "--config", str(cfg_path),
                    "--out", str(out)]) == 0
        assert run(["campaign", "--config", str(cfg_path),
                    "--out", str(out)]) == 2


    # float, list and device fields are checked the same way: a string
    # list was read one character at a time, and a number in "devices"
    # was opened as a file descriptor
    @pytest.mark.parametrize("field, value", [
        ("shots_per_point", 150.5), ("bootstrap_resamples", 2.5),
        ("bootstrap_resamples", -1), ("repetitions", True), ("seed", 6.0),
        ("shots_physical", "120"), ("threads", 0), ("threads", -3),
        ("threads", "2"), ("threads", 2.5), ("readout_sigma", "x"),
        ("interval_s", True), ("devices", "q1"), ("experiments", "ramsey"),
        ("noise", {}), ("devices", [5]), ("devices", [0]),
        ("readout_enabled", "false"), ("physical_refs", 0),
        ("delays_us", {"hahn-echo": [0, 10]}), ("fit_window_us", math.nan),
        ("fit_window_us", -5.0), ("fit_window_us", 0.0)])
    def test_bad_integer_field_leaves_archive_untouched(self, tmp_path,
                                                        field, value):
        cfg = CampaignConfig(
            devices=["q1"], experiments=["ramsey"], repetitions=1, seed=6,
            shots_per_point=150, physical_refs="t1", shots_physical=120,
            readout_enabled=False, bootstrap_resamples=5,
            delays_us={"ramsey": [0, 3, 6, 9, 12, 15, 18, 21],
                       "phys_t1": [0, 20, 50, 100, 160]})
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps(cfg.to_dict()))
        bad.write_text(json.dumps({**cfg.to_dict(), field: value}))
        out = tmp_path / "arch"
        assert run(["campaign", "--config", str(good), "--out", str(out)]) == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert run(["campaign", "--config", str(bad), "--out", str(out),
                    "--force"]) == 2
        assert {p: p.read_bytes() for p in out.rglob("*")
                if p.is_file()} == before

    def test_resume_with_another_thread_count(self, tmp_path):
        cfg = CampaignConfig(
            devices=["q1"], experiments=["ramsey"], repetitions=2, seed=8,
            shots_per_point=150, physical_refs=False, readout_enabled=False,
            bootstrap_resamples=0,
            delays_us={"ramsey": [0, 3, 6, 9, 12, 15, 18, 21]})
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        out = tmp_path / "arch3"
        assert run(["campaign", "--config", str(cfg_path), "--out", str(out),
                    "--threads", "2"]) == 0
        whole = {p.name: p.read_bytes() for p in out.rglob("*")
                 if p.is_file()}
        # as if cut off before the last trace
        last = sorted((out / "traces").iterdir())[-1]
        last.unlink()
        assert run(["campaign", "--config", str(cfg_path), "--out", str(out),
                    "--resume", "--threads", "1"]) == 0
        assert {p.name: p.read_bytes() for p in out.rglob("*")
                if p.is_file()} == whole


class TestUnreadableInput:
    # "é" in Latin-1: one byte that starts no UTF-8 sequence
    LATIN1 = "caf\u00e9\n".encode("latin-1")

    @staticmethod
    def files(root):
        return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}

    @pytest.mark.parametrize("argv", [
        ["sim-shots", "--config", "bad", "--experiment", "ramsey",
         "--seed", "1", "--out", "o.csv"],
        ["sim-shots", "--config", "q1", "--noise", "bad", "--experiment",
         "ramsey", "--seed", "1", "--out", "o.csv"],
        ["campaign", "--config", "bad", "--out", "arch"],
        ["campaign", "--config", "c.json", "--out", "arch", "--resume"],
        ["analyze", "--trace", "bad", "--kind", "ramsey", "--out", "o.json"],
        ["allan", "--in", "bad", "--out", "o.csv"],
        ["psd", "--in", "bad", "--out", "o.csv"],
        ["summarize", "--in", "bad", "--out", "o.json"]],
        ids=["sim-shots-config", "sim-shots-noise", "campaign-config",
             "campaign-resume-metrics", "analyze", "allan", "psd",
             "summarize"])
    def test_non_utf8_input_exit_2(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "bad"
        bad.write_bytes(self.LATIN1)
        if "--resume" in argv:
            cfg = CampaignConfig(
                devices=["q1"], experiments=["ramsey"], repetitions=1,
                seed=6, shots_per_point=150, physical_refs=False,
                readout_enabled=False, bootstrap_resamples=0,
                delays_us={"ramsey": [0, 3, 6, 9, 12, 15, 18, 21]})
            (tmp_path / "c.json").write_text(json.dumps(cfg.to_dict()))
            assert run(["campaign", "--config", "c.json", "--out",
                        "arch"]) == 0
            with open(tmp_path / "arch" / "metrics.csv", "ab") as fh:
                fh.write(self.LATIN1)
        before = self.files(tmp_path)
        capsys.readouterr()
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert self.files(tmp_path) == before

    @pytest.mark.parametrize("argv", [
        ["analyze", "--trace", "nope.csv", "--kind", "ramsey",
         "--out", "o.json"],
        ["allan", "--in", "nope.csv", "--out", "o.csv"],
        ["psd", "--in", "nope.csv", "--out", "o.csv"],
        ["summarize", "--in", "nope.csv", "--out", "o.json"]],
        ids=lambda argv: argv[0])
    def test_missing_table_exit_2(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 2
        assert "not found: nope.csv" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestImports:
    def test_commands_without_spectral_analysis_load_no_signal_or_optimize(
            self, tmp_path):
        # scipy.signal and scipy.optimize serve only allan and psd; the
        # other commands run through cli.main without loading either
        cfg = CampaignConfig(
            devices=["q1"], experiments=["ramsey"], repetitions=2, seed=3,
            shots_per_point=150, physical_refs=False, readout_enabled=False,
            bootstrap_resamples=10,
            delays_us={"ramsey": [0, 3, 6, 9, 12, 15, 18, 21]})
        (tmp_path / "c.json").write_text(json.dumps(cfg.to_dict()))
        argvs = [
            ["sim-shots", "--config", "q1", "--experiment", "ramsey",
             "--shots", "200", "--seed", "1", "--delays", "0:30:11",
             "--out", "shots.csv", "--trace-out", "trace.csv"],
            ["analyze", "--trace", "trace.csv", "--kind", "ramsey",
             "--bootstrap", "10", "--seed", "1", "--out", "fit.json"],
            ["campaign", "--config", "c.json", "--out", "archive"],
            ["summarize", "--in", "archive/metrics.csv",
             "--out", "summary.json"]]
        code = ("import json, sys\n"
                "from ddqsim.cli import main\n"
                "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
                "print(codes, [m for m in ('scipy.signal', 'scipy.optimize') "
                "if m in sys.modules])\n")
        src = os.path.dirname(os.path.dirname(ddqsim.__file__))
        out = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                             cwd=tmp_path,
                             env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, timeout=300,
                             check=True)
        assert (tmp_path / "archive" / "freq_q1.csv").exists()
        assert out.stdout.splitlines()[-1] == "[0, 0, 0, 0] []"


class TestParser:
    def test_unknown_flag_is_hard_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["sim-shots", "--config", "q1", "--experiment", "ramsey",
                  "--shots", "10", "--seed", "1", "--out", "x.csv",
                  "--frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["sim-shots", "--config", "q1", "--experiment", "ramsey", "--seed",
         "1", "--out", "x.csv", "--threads", "-2"],
        ["campaign", "--config", "c.json", "--out", "arch", "--threads", "-2"],
        ["allan", "--in", "f.csv", "--out", "a.csv", "--max-octaves", "-1"],
    ], ids=["sim-shots-threads", "campaign-threads", "allan-max-octaves"])
    def test_nonpositive_count_exit_2(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["sim-shots", "--config", "q1", "--experiment", "ramsey", "--seed",
         "1", "--out", "x.csv"],
        ["campaign", "--config", "c.json", "--out", "arch"],
    ], ids=["sim-shots", "campaign"])
    def test_threads_default_to_one(self, argv):
        # one thread runs each trace in one engine call: the fast path
        assert build_parser().parse_args(argv).threads == 1

    def test_seed_is_required_for_sim(self):
        with pytest.raises(SystemExit) as exc:
            main(["sim-shots", "--config", "q1", "--experiment", "ramsey",
                  "--out", "x.csv"])
        assert exc.value.code == 2

    def test_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for cmd in ("sim-shots", "analyze", "campaign", "allan", "psd",
                    "summarize"):
            assert cmd in text

    def test_subcommand_help_enumerates_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["sim-shots", "--help"])
        text = capsys.readouterr().out
        for flag in ("--config", "--experiment", "--delays", "--shots",
                     "--seed", "--out", "--detuning-khz", "--threads",
                     "--force"):
            assert flag in text
