import json
import os

import numpy as np
import pytest

from ddqsim.cli import main
from ddqsim.campaign import CampaignConfig, simulate_counts_trace
from ddqsim.device import load_device
from ddqsim.metrology import read_trace_csv
from ddqsim.noise import NoiseProcess


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

    def sim(self, tmp_path, name, experiment, *extra):
        noise = tmp_path / "noise.json"
        noise.write_text(json.dumps([p.to_dict() for p in self.noise]))
        out = tmp_path / name
        assert run(["sim-shots", "--config", "q1", "--experiment",
                    experiment, "--shots", "150", "--seed", "12",
                    "--delays", "0,5,10,20", "--noise", str(noise),
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

    @pytest.mark.parametrize("experiment", ["bitflip", "ramsey"])
    def test_thread_count_does_not_change_files(self, tmp_path, experiment):
        outs = [self.sim(tmp_path, f"t{n}.csv", experiment, "--threads",
                         str(n), "--dump-trajectories") for n in (1, 2)]
        for suffix in ("", ".trajectories.csv", ".trace"):
            one, two = (open(str(o) + suffix, "rb").read() for o in outs)
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

    def test_corrupted_csv_exit_2_with_line(self, tmp_path, capsys):
        trace = tmp_path / "bad.csv"
        trace.write_text(
            "delay_us,n00,n01,n10,n_total,init_label,timestamp_s\n"
            "0.0,0,50,50,100,+,0.0\nbroken,row\n")
        assert run(["analyze", "--trace", str(trace), "--kind", "ramsey",
                    "--bootstrap", "0", "--out",
                    str(tmp_path / "g.json")]) == 2
        assert "line 3" in capsys.readouterr().err

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


class TestParser:
    def test_unknown_flag_is_hard_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["sim-shots", "--config", "q1", "--experiment", "ramsey",
                  "--shots", "10", "--seed", "1", "--out", "x.csv",
                  "--frobnicate"])
        assert exc.value.code == 2

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
