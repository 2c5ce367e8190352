import hashlib
import json
import math
import os
from pathlib import Path

import pytest

from sdmqsim.cli import main
from sdmqsim.config import ConfigError
from sdmqsim.scenarios import EXPERIMENT_KINDS, load_scenario

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "scenarios"
CANNED = ["capacity", "timebin_b", "timebin_xt", "phase_er", "phase_sweep", "bb84", "bb84_eve"]


class TestScenarioLoading:
    @pytest.mark.parametrize("name", CANNED)
    def test_canned_scenarios_load(self, name):
        sc = load_scenario(SCENARIOS / f"{name}.ini")
        assert sc.experiment.kind in EXPERIMENT_KINDS
        sc.validated()

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_scenario(SCENARIOS / "nope.ini")

    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text(
            "[sim]\nwavelength_nm = 1550\n[signal.A]\ninput_group = 1\n"
            "[experiment]\nkind = bb84\n"
        )
        with pytest.raises(ConfigError, match="unknown"):
            load_scenario(bad)

    def test_duplicate_input_group_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text(
            "[signal.A]\ninput_group = 1\n[signal.B]\ninput_group = 1\n"
            "[experiment]\nkind = bb84\n"
        )
        with pytest.raises(ConfigError, match="same input group"):
            load_scenario(bad)

    def test_phase_parsing(self):
        sc = load_scenario(SCENARIOS / "phase_sweep.ini")
        phis = sc.experiment.sweep_phi_b
        assert len(phis) == 8
        assert phis[0] == 0.0
        assert phis[4] == pytest.approx(math.pi)
        assert phis[7] == pytest.approx(7 * math.pi / 4)

    def test_overrides(self):
        sc = load_scenario(SCENARIOS / "bb84.ini")
        sc2 = sc.with_overrides(seed=99, n_frames=1234)
        assert sc2.cfg.seed == 99
        assert sc2.experiment.n_frames == 1234
        # original untouched
        assert sc.cfg.seed != 99 or sc.experiment.n_frames != 1234


class TestCliRun:
    def test_run_writes_artifacts_and_is_deterministic(self, tmp_path):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        for out in (out1, out2):
            rc = main([
                "run", str(SCENARIOS / "bb84.ini"),
                "--seed", "1", "--frames", "20000", "--out", str(out),
            ])
            assert rc == 0
            assert (out / "report.json").exists()
            assert (out / "manifest.json").exists()
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["resolved_seed"] == 1
        assert manifest["overrides"] == {"seed": 1, "n_frames": 20000}
        assert "scenario_echo" in manifest

    def test_different_seed_changes_report(self, tmp_path):
        outs = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            main(["run", str(SCENARIOS / "bb84.ini"), "--seed", seed,
                  "--frames", "20000", "--out", str(out)])
            outs.append((out / "report.json").read_bytes())
        assert outs[0] != outs[1]

    def test_histograms_written_for_timebin(self, tmp_path):
        out = tmp_path / "tb"
        rc = main(["run", str(SCENARIOS / "timebin_b.ini"), "--frames", "5000",
                   "--out", str(out)])
        assert rc == 0
        hists = list(out.glob("hist_*.csv"))
        assert len(hists) == 3
        rates = out / "group_rates.csv"
        assert rates.exists()
        assert rates.read_text().startswith("signal,out_group,cps")

    def test_sweep_points_csv(self, tmp_path):
        out = tmp_path / "sw"
        rc = main(["run", str(SCENARIOS / "phase_sweep.ini"), "--frames", "3000",
                   "--out", str(out)])
        assert rc == 0
        csv = (out / "counts_vs_phase.csv").read_text().splitlines()
        assert csv[0] == "signal,phase_rad,counts"
        assert len(csv) == 1 + 16  # 8 phases x 2 collections

    def test_config_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[sim]\nd = 1\n[signal.A]\ninput_group = 1\n"
                       "[experiment]\nkind = bb84\n")
        assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_missing_scenario_exit_2(self, tmp_path):
        assert main(["run", str(tmp_path / "none.ini")]) == 2

    def test_bb84_transcript_dump(self, tmp_path):
        derived = tmp_path / "bb84_t.ini"
        derived.write_text(
            (SCENARIOS / "bb84.ini").read_text().replace(
                "kind = bb84", "kind = bb84\ntranscript = true"
            )
        )
        out = tmp_path / "o"
        assert main(["run", str(derived), "--frames", "2000", "--out", str(out)]) == 0
        lines = (out / "transcript.csv").read_text().splitlines()
        assert lines[0] == "frame,alice_basis,alice_bit,bob_basis,bob_bit,sifted"
        assert len(lines) == 2001
        # sifted rows are exactly the basis-matched conclusive ones
        for row in lines[1:]:
            _, ba, _, bb, bob, sifted = row.split(",")
            assert sifted == ("1" if ba == bb and bob != "-" else "0")

    def test_bb84_eve_transcript_bytes(self, tmp_path):
        # the transcript's bytes at 2000 frames, pinned when the writer
        # stopped building one record object per frame
        derived = tmp_path / "bb84_eve_t.ini"
        derived.write_text(
            (SCENARIOS / "bb84_eve.ini").read_text().replace(
                "kind = bb84_eve", "kind = bb84_eve\ntranscript = true"
            )
        )
        out = tmp_path / "o"
        assert main(["run", str(derived), "--frames", "2000", "--out", str(out)]) == 0
        digest = hashlib.sha256((out / "transcript.csv").read_bytes()).hexdigest()
        assert digest == "0b8824da66b33fbcb3e1601c0a38ed3484e1da0719740c864fc7541d367d3890"

    def test_saturated_timebin_report_bytes(self, tmp_path):
        # timebin_b at mu_in = 1000 puts 3-7 gated clicks a frame into every
        # detector, so each takes the first-click veto; the report's bytes
        # are those of the time-sort veto that the branch replaces, with the
        # SNR counted on exact timestamp windows
        derived = tmp_path / "timebin_b_saturated.ini"
        text = (SCENARIOS / "timebin_b.ini").read_text()
        assert "\nmu_in = 2.5\n" in text
        derived.write_text(text.replace("\nmu_in = 2.5\n", "\nmu_in = 1000\n"))
        out = tmp_path / "o"
        assert main(["run", str(derived), "--frames", "20000", "--out", str(out)]) == 0
        digest = hashlib.sha256((out / "report.json").read_bytes()).hexdigest()
        assert digest == "2ad4d3c2aada9e9c82efc94f9087ae310c79d74b14de08171d6afc8ba087c2b7"

    def test_env_var_default_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SDMQSIM_OUT", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        rc = main(["run", str(SCENARIOS / "bb84.ini"), "--frames", "2000"])
        assert rc == 0
        assert (tmp_path / "envout" / "bb84" / "report.json").exists()


    def test_timebin_short_run_exits_0(self, tmp_path):
        rc = main(["run", str(SCENARIOS / "timebin_b.ini"), "--frames", "1000",
                   "--seed", "6", "--out", str(tmp_path / "o")])
        assert rc == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert "input_monitor_counts" not in report["extra"]

    @pytest.mark.parametrize("name", CANNED)
    def test_zero_frames_exit_2(self, name, tmp_path, capsys):
        rc = main(["run", str(SCENARIOS / f"{name}.ini"), "--frames", "0",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "n_frames must be >= 1" in capsys.readouterr().err

    # the last case overlaps: group 5 would be counted in both collections
    @pytest.mark.parametrize(
        "collections", ["A:0 C:4+5", "A:6 C:4+5", "A:1 C:4+0", "A:1+5 C:4+5"]
    )
    def test_collection_group_out_of_range_exit_2(self, collections, tmp_path, capsys):
        text = (SCENARIOS / "timebin_xt.ini").read_text()
        bad = tmp_path / "bad.ini"
        bad.write_text(text.replace("collections = A:1 C:4+5", f"collections = {collections}"))
        assert main(["run", str(bad), "--frames", "1000", "--out", str(tmp_path / "o")]) == 2
        assert "collections" in capsys.readouterr().err

    # signal C's field, its value in timebin_xt.ini and an invalid value
    @pytest.mark.parametrize(
        "field,old,new",
        [
            pytest.param("input_group", "5", "0", id="0"),
            pytest.param("input_group", "5", "6", id="6"),
            pytest.param("excess_db", "-3.7930", "0.5", id="excess_db"),
        ],
    )
    def test_input_group_out_of_range_exit_2(self, field, old, new, tmp_path, capsys):
        text = (SCENARIOS / "timebin_xt.ini").read_text()
        bad = tmp_path / "bad.ini"
        bad.write_text(text.replace(f"{field} = {old}", f"{field} = {new}"))
        assert main(["run", str(bad), "--frames", "1000", "--out", str(tmp_path / "o")]) == 2
        assert f"[signal.C] {field}" in capsys.readouterr().err

    def test_bb84_nothing_sifted_exits_0(self, tmp_path):
        # one frame sifts no bit: no QBER is reported and no key is made
        rc = main(["run", str(SCENARIOS / "bb84.ini"), "--frames", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["extra"]["n_sifted"] == 0
        assert "qber_sifted" not in report
        assert report["key_rate"] == 0.0

    # both ports are gated dt1 on the first half-window; anything else
    # would be ignored by the exchange, so the scenario is rejected
    @pytest.mark.parametrize(
        "name,old,new,key",
        [
            pytest.param("bb84", "gates = S:dt1", "gates = S:dt2", "gates", id="dt2"),
            pytest.param("bb84_eve", "gates = S:dt1", "gates = S:always", "gates",
                         id="always"),
            pytest.param("bb84", "delayed = false", "delayed = true", "delayed",
                         id="delayed"),
            pytest.param("bb84_eve", "delayed = false", "delayed = true", "delayed",
                         id="eve_delayed"),
        ],
    )
    def test_bb84_unsupported_gate_or_delay_exit_2(self, name, old, new, key,
                                                   tmp_path, capsys):
        text = (SCENARIOS / f"{name}.ini").read_text()
        assert old in text
        bad = tmp_path / "bad.ini"
        bad.write_text(text.replace(old, new))
        assert main(["run", str(bad), "--frames", "1000", "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err

    # the exchange draws Bob's ports from one signal; a second signal's
    # crosstalk into the collection would be silently dropped
    @pytest.mark.parametrize("name", ["bb84", "bb84_eve"])
    def test_bb84_second_signal_exit_2(self, name, tmp_path, capsys):
        text = (SCENARIOS / f"{name}.ini").read_text()
        bad = tmp_path / "bad.ini"
        bad.write_text(text.replace(
            "[experiment]", "[signal.T]\ninput_group = 2\n\n[experiment]"))
        assert main(["run", str(bad), "--frames", "1000", "--out", str(tmp_path / "o")]) == 2
        assert "[signal.T]" in capsys.readouterr().err

    # phase_er gates each detector by its signal's delay and reads no gates
    @pytest.mark.parametrize("gates", ["A:always B:always C:always", "A:dt1"])
    def test_phase_er_gates_exit_2(self, gates, tmp_path, capsys):
        text = (SCENARIOS / "phase_er.ini").read_text()
        assert "gates" not in text
        bad = tmp_path / "bad.ini"
        bad.write_text(text + f"gates = {gates}\n")
        assert main(["run", str(bad), "--frames", "1000", "--out", str(tmp_path / "o")]) == 2
        assert "gates" in capsys.readouterr().err

    # the runners take each signal's role from `delayed`, so an id is only
    # a name: renaming one changes nothing but the keys built from it
    @pytest.mark.parametrize(
        "name,old,new",
        [("timebin_b", "B", "B2"), ("phase_er", "B", "B2"), ("timebin_xt", "A", "A2")],
    )
    def test_signal_rename_keeps_report(self, name, old, new, tmp_path):
        text = (SCENARIOS / f"{name}.ini").read_text()
        renamed = text.replace(f"[signal.{old}]", f"[signal.{new}]").replace(
            f" {old}:", f" {new}:")
        assert renamed.count(new) == text.count(f" {old}:") + 1 >= 2
        derived = tmp_path / f"{name}.ini"
        derived.write_text(renamed)
        assert main(["run", str(derived), "--out", str(tmp_path / "o")]) == 0
        report = (tmp_path / "o" / "report.json").read_text()
        golden = (REPO / "out" / name / "report.json").read_text()
        assert report.replace(new, old) == golden

    # timebin_B reads crosstalk on its one delayed signal's collection, and
    # timebin_xt compares one delayed signal with one undelayed signal
    @pytest.mark.parametrize(
        "name,old,new",
        [
            pytest.param("timebin_b", "delayed = true", "delayed = false", id="b-none"),
            pytest.param("timebin_b", "delayed = false", "delayed = true", id="b-two"),
            pytest.param("timebin_b", "B:2+3 ", "", id="b-uncollected"),
            pytest.param("timebin_xt", "delayed = true ", "delayed = false", id="xt-none"),
            pytest.param("timebin_xt", "delayed = false", "delayed = true", id="xt-two"),
            pytest.param("timebin_xt", "[experiment]",
                         "[signal.B]\ninput_group = 3\nfixed_slot = 1\n\n[experiment]",
                         id="xt-third"),
        ],
    )
    def test_ambiguous_delay_roles_exit_2(self, name, old, new, tmp_path, capsys):
        text = (SCENARIOS / f"{name}.ini").read_text()
        assert old in text
        bad = tmp_path / "bad.ini"
        bad.write_text(text.replace(old, new, 1))
        assert main(["run", str(bad), "--frames", "1000", "--out", str(tmp_path / "o")]) == 2
        assert "delayed" in capsys.readouterr().err

    def test_phase_er_every_er_infinite_exits_0(self, tmp_path):
        # an ideal interferometer with no floor extinguishes every group
        text = (SCENARIOS / "phase_er.ini").read_text()
        ideal = tmp_path / "ideal.ini"
        ideal.write_text(
            text.replace("visibility_cap = 0.93", "visibility_cap = 1.0")
            .replace("phase_floor = 0.126550", "phase_floor = 0.0")
        )
        rc = main(["run", str(ideal), "--frames", "20000", "--out", str(tmp_path / "o")])
        assert rc == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert set(report["er_db_per_group"].values()) == {"eliminated"}
        assert report["er_db_mean"] == "eliminated"
        assert report["p_phi"] == 0.0


class TestPoissonNoise:
    """A short run estimates what its counts allow and reports null for the
    rest: a ratio whose windows are empty, a fit with no fringe, a mean of
    +inf and -inf.  Poisson noise alone never makes a run exit 3."""

    # seeds 4 (at 10 frames) and 26 (at 200) once averaged +inf and -inf
    # per-signal SNRs into NaN
    SEEDS = [*range(8), 26]

    @pytest.mark.parametrize("frames", [1, 10, 200])
    @pytest.mark.parametrize("name", CANNED)
    def test_short_run_exits_0_without_nan(self, name, frames, tmp_path):
        for seed in self.SEEDS:
            out = tmp_path / str(seed)
            rc = main(["run", str(SCENARIOS / f"{name}.ini"), "--frames", str(frames),
                       "--seed", str(seed), "--out", str(out)])
            assert rc == 0, seed
            assert '"nan"' not in (out / "report.json").read_text(), seed


class TestCliSweep:
    def test_keyrate_sweep_monotone(self, tmp_path):
        out = tmp_path / "kr"
        rc = main([
            "sweep", str(SCENARIOS / "bb84.ini"),
            "--param", "keyrate_n", "--values", "1e3,1e4,1e5,1e6",
            "--out", str(out),
        ])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "keyrate_n,key_rate"
        rates = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(rates) == 4
        assert rates == sorted(rates)
        assert rates[-1] >= 0.64

    def test_experiment_param_sweep(self, tmp_path):
        out = tmp_path / "vis"
        rc = main([
            "sweep", str(SCENARIOS / "bb84.ini"),
            "--param", "visibility_cap", "--values", "0.8,1.0",
            "--seed", "5", "--out", str(out),
        ])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        header = lines[0].split(",")
        qcol = header.index("qber_sifted")
        q_low_v = float(lines[1].split(",")[qcol])
        q_high_v = float(lines[2].split(",")[qcol])
        assert q_low_v > q_high_v  # lower visibility, higher error rate

    def test_sim_param_sweep(self, tmp_path):
        out = tmp_path / "eta"
        rc = main([
            "sweep", str(SCENARIOS / "bb84.ini"),
            "--param", "eta", "--values", "0.05,0.3",
            "--seed", "9", "--out", str(out),
        ])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "eta" and "qber_sifted" in header
        assert lines[1].split(",")[0] == "0.05"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["overrides"]["sweep_param"] == "eta"

    def test_unknown_param_exit_2(self, tmp_path):
        rc = main([
            "sweep", str(SCENARIOS / "bb84.ini"),
            "--param", "bogus", "--values", "1,2", "--out", str(tmp_path / "x"),
        ])
        assert rc == 2

    def test_empty_values_exit_2(self, tmp_path):
        rc = main([
            "sweep", str(SCENARIOS / "bb84.ini"),
            "--param", "eta", "--values", "", "--out", str(tmp_path / "x"),
        ])
        assert rc == 2


class TestGoldenReports:
    """Each canned scenario at its pinned seed and frame count reproduces
    the committed ``out/<name>/report.json`` byte for byte.  Regenerate
    these files (``sdmqsim run scenarios/<name>.ini`` from the repo root)
    only on a deliberate change of the random draws."""

    @pytest.mark.parametrize("name", CANNED)
    def test_report_matches_golden(self, name, tmp_path):
        rc = main(["run", str(SCENARIOS / f"{name}.ini"), "--out", str(tmp_path)])
        assert rc == 0
        golden = REPO / "out" / name / "report.json"
        assert (tmp_path / "report.json").read_bytes() == golden.read_bytes()
