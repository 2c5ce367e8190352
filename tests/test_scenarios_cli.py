import configparser
import contextlib
import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from dataclasses import MISSING
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import sdmqsim
from sdmqsim import cli
from sdmqsim.analysis import ARTIFACTS, ELIMINATED, REPORT, report_row
from sdmqsim.cli import main
from sdmqsim.config import ConfigError, SignalAssignment, SimConfig
from sdmqsim.scenarios import (
    EXPERIMENT_KINDS,
    KEYS,
    SECTIONS,
    ChannelSpec,
    ExperimentSpec,
    load_scenario,
)

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "scenarios"
CANNED = ["capacity", "timebin_b", "timebin_xt", "phase_er", "phase_sweep", "bb84", "bb84_eve"]

# sha256 of each CSV that a canned scenario writes at its pinned seed and
# frame count; bb84 and bb84_eve write none
GOLDEN_CSVS = {
    "capacity": {
        "group_rates.csv": "bdffb009292dd6b470315cb4bc602b4ed3f15667b044945d9af968828f9d6948",
        "hist_A_g1.csv": "5eb8abe6900b6799be9d75e32dfeac4b3906b6bc6e60b6679d6059cdc83e3fc9",
        "hist_B_g2+3.csv": "dd90059111168090e642f311b330b1f7e545cadc3943503cb38c1028358e847b",
        "hist_C_g4+5.csv": "829a5dd928961f898458b1a119a89b4590eda0d313b89a18b884d9e125f9f4c1",
    },
    "timebin_b": {
        "group_rates.csv": "bdffb009292dd6b470315cb4bc602b4ed3f15667b044945d9af968828f9d6948",
        "hist_A_g1.csv": "b9a87db900ffc236a81c3cc7293fd4e1041fce1043bf0c21ab50eb1e8e7eb71b",
        "hist_B_g2+3.csv": "219bc942a6d4ffe925252bc605c8f92fbad5ba63b58590b419464e19d5fffac3",
        "hist_C_g4+5.csv": "779eeaa3c34176602c5c0a7ddb41dca85a021d6dd1da652eaf401ca98523950a",
    },
    "timebin_xt": {
        "group_rates.csv": "3dbb9fbe7a46350c927feda866cd77954c1a7ffe685f86e3a6d5a1ebbb6ec133",
        "hist_A_g1.csv": "b84c0b51b53845c4cfcb18d8eefd4fadad864709cdd4d91b526269130a8975ab",
        "hist_C_g4+5.csv": "654284719a58a40e25056b66f02ff2b858d4d4c9869304f24d8fd56676863f27",
    },
    "phase_er": {
        "er_by_group.csv": "5407ae8be9211d0d82e1552c470ca7f746500c20fe5c3d6727af3cbbe8aff731",
        "hist_g1_A_blocked.csv": "19e1b437c79e9dd3966c4025e9d9bc42648e32ff95870ba8cb322966feb007f2",
        "hist_g1_A_interfering.csv": "cfa7b771d878caa0d4657e5fbc0390cdd0eebea01ffb0e6580938728cdbb0964",
        "hist_g2_B_blocked.csv": "1419cee979e3c711041275b86a59d175a5e7c4516182d7d5afd532e4b0761556",
        "hist_g2_B_interfering.csv": "f27e880f30eaa7aa29d3051b9b680ee0d175099540086196e3e8b412c1e825fb",
        "hist_g3_B_blocked.csv": "56b6d7f453179cc89d8fbc8280adfba058629184decc441d51beb8f5ad155c03",
        "hist_g3_B_interfering.csv": "e7ccf7fe51def6626744d050054bb900d0e09b875bd9479d759420aa82cc0bd8",
        "hist_g4_C_blocked.csv": "ee6d8f8f6ab3aa0eada65b6050f53eb7f053e370e55406c3f3984409cf1d4e52",
        "hist_g4_C_interfering.csv": "90b6d92fcf960c085d7a7ee2e515151218a192f7d8f30b9b6144b1366839ad06",
        "hist_g5_C_blocked.csv": "214ddb4f47a06fa57586f897a4d1d679eee4a7eac0b192899f585456f5c4e425",
        "hist_g5_C_interfering.csv": "3aa707cabaa0c2a132675d944a9b875b68932fcb15bff44a1134ef2ded70c328",
    },
    "phase_sweep": {
        "counts_vs_phase.csv": "6c293888d355aba217f6b317900401c2de0c0c20ff734ee544c35c31aa97f47e",
    },
}


def assert_declared(report: dict) -> None:
    """Every leaf of ``report``, as report.json holds it, is declared for its
    kind (``report_row`` raises otherwise) and is finite, null or a
    sentinel."""
    for path, value in report_row(report).items():
        assert value in (None, ELIMINATED, "no-signal") or math.isfinite(value), (path, value)


# timebin_B reads crosstalk on its one delayed signal's collection, and
# timebin_xt compares one delayed signal with one undelayed signal
AMBIGUOUS_DELAY_ROLES = [
    pytest.param("timebin_b", "delayed = true", "delayed = false", id="b-none"),
    pytest.param("timebin_b", "delayed = false", "delayed = true", id="b-two"),
    pytest.param("timebin_b", "B:2+3 ", "", id="b-uncollected"),
    pytest.param("timebin_xt", "delayed = true ", "delayed = false", id="xt-none"),
    pytest.param("timebin_xt", "delayed = false", "delayed = true", id="xt-two"),
    pytest.param("timebin_xt", "[experiment]",
                 "[signal.B]\ninput_group = 3\nfixed_slot = 1\n\n[experiment]",
                 id="xt-third"),
]


def _type_name(f) -> str:
    """A key's type as SCHEMA.md names it: its parser's, or its field's."""
    return f.metadata["parse"].__name__ if f.metadata["parse"] else f.type.split(" |")[0]


def _default(f) -> str:
    """A key's default as SCHEMA.md writes it."""
    value = f.default_factory() if f.default_factory is not MISSING else f.default
    if value is MISSING:
        return "required"
    return ("unset" if value in (None, (), {})
            else str(value).lower() if isinstance(value, bool) else str(value))


def _just_outside(f) -> list:
    """Values just outside key ``f``'s declared range, as a file's text,
    read from the range's own words (see ``config.key``): past each bound
    by one for an int and by one float step for a float, ``inf`` and
    ``-inf`` for a finite one, and NaN for any float range."""
    text = re.sub(r" \(.*?\)", "", f.metadata["allowed"])
    if not text:
        return []
    if text.startswith("one of "):
        return ["x"]
    is_int = f.type == "int"

    def past(bound, way):
        return int(bound) + way if is_int else math.nextafter(bound, way * math.inf)

    values = [] if is_int else [math.nan]
    for clause in text.split(" and "):
        clause = {"positive": "> 0", "non-negative": ">= 0"}.get(clause, clause)
        if clause == "finite":
            values += [math.inf, -math.inf]
        elif clause.startswith("in ["):
            lo, hi = map(float, clause[4:-1].split(", "))
            values += [past(lo, -1), past(hi, 1)]
        else:
            op, bound = clause.split()
            bound = float(bound)
            values.append({">": int(bound) if is_int else bound, ">=": past(bound, -1),
                           "<=": past(bound, 1)}[op])
    return [repr(v) for v in values]


# each canned scenario's kind and its first signal's id
CANNED_KIND = {name: (sc.experiment.kind, sc.signals[0].signal_id)
               for name in CANNED for sc in [load_scenario(SCENARIOS / f"{name}.ini")]}

# each declared range and a value just outside it: the canned scenario
# whose kind reads the key (bb84 for a key every kind reads), its section
# and the value as a file's text
OUT_OF_RANGE = [
    pytest.param(name, section.replace("<ID>", CANNED_KIND[name][1]), f.name,
                 f"{CANNED_KIND[name][1]}:{value}" if f.type == "dict" else value,
                 id=f"{section}-{f.name}={value}")
    for section, cls in SECTIONS.items() for f in KEYS[cls].values()
    for name in [next(n for n in ["bb84", *CANNED]
                      if CANNED_KIND[n][0] in (f.metadata["kinds"] or EXPERIMENT_KINDS))]
    for value in _just_outside(f)
]


class TestScenarioLoading:
    @pytest.mark.parametrize("name", CANNED)
    def test_canned_scenarios_load(self, name):
        sc = load_scenario(SCENARIOS / f"{name}.ini")
        assert sc.experiment.kind in EXPERIMENT_KINDS

    def test_setup_leaves_numpy_random_unimported(self):
        # importing numpy.random costs ~11 ms: set-up (the CLI's import, the
        # scenario and its channel) leaves it to the first random draw
        code = ("import sys\n"
                "from sdmqsim.cli import load_scenario\n"
                "from sdmqsim.pipeline import build_channel\n"
                "for path in sys.argv[1:]:\n"
                "    build_channel(load_scenario(path))\n"
                "assert 'numpy.random' not in sys.modules\n")
        paths = [str(p) for p in sorted(SCENARIOS.glob("*.ini"))]
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        proc = subprocess.run([sys.executable, "-c", code, *paths], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read .*nope.ini: No such file"):
            load_scenario(SCENARIOS / "nope.ini")

    # the delay roles are kind rules, checked where a file is loaded
    @pytest.mark.parametrize("name,old,new", AMBIGUOUS_DELAY_ROLES)
    def test_ambiguous_delay_roles_rejected_at_load(self, name, old, new, tmp_path):
        text = (SCENARIOS / f"{name}.ini").read_text()
        assert old in text
        bad = tmp_path / "bad.ini"
        bad.write_text(text.replace(old, new, 1))
        with pytest.raises(ConfigError, match="delayed"):
            load_scenario(bad)

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

    def test_phase_parsing(self, tmp_path):
        sc = load_scenario(SCENARIOS / "phase_sweep.ini")
        phis = sc.experiment.sweep_phi_b
        assert len(phis) == 8
        assert phis[0] == 0.0
        assert phis[4] == pytest.approx(math.pi)
        assert phis[7] == pytest.approx(7 * math.pi / 4)
        # phi_a and phi_b take the same pi expressions
        derived = tmp_path / "phase_er.ini"
        derived.write_text((SCENARIOS / "phase_er.ini").read_text().replace(
            "phi_a = pi\n", "phi_a = pi/2\n").replace("phi_b = 0\n", "phi_b = -3pi/4\n"))
        exp = load_scenario(derived).experiment
        assert (exp.phi_a, exp.phi_b) == (math.pi / 2, -3 * math.pi / 4)

    def test_overrides(self):
        sc = load_scenario(SCENARIOS / "bb84.ini")
        sc2 = sc.with_overrides(seed=99, n_frames=1234)
        assert sc2.cfg.seed == 99
        assert sc2.experiment.n_frames == 1234
        # original untouched
        assert sc.cfg.seed != 99 or sc.experiment.n_frames != 1234

    def test_overrides_convert_to_field_type(self):
        sc = load_scenario(SCENARIOS / "bb84.ini").with_overrides(
            seed=5.0, n_frames="1234", eta=0.3, phase_floor="0.25")
        assert (sc.cfg.seed, sc.experiment.n_frames) == (5, 1234)
        assert type(sc.cfg.seed) is int and type(sc.experiment.n_frames) is int
        assert (sc.cfg.eta, sc.experiment.phase_floor) == (0.3, 0.25)

    # an override passes every check a file's value passes, and names its key
    @pytest.mark.parametrize(
        "name,values,says",
        [
            ("timebin_b", dict(visibility_cap=0.5),
             "visibility_cap is read only by kind phase_er or phase_sweep or bb84 or bb84_eve"),
            ("bb84", dict(phi_b=1.0), "phi_b is read only by kind phase_er, not by bb84"),
            ("bb84", dict(wavelength_nm=1550), "unknown [sim] or [experiment] key"),
            ("bb84", dict(n_frames=0), "n_frames must be >= 1"),
            ("bb84", dict(eta=2.0), "eta must be in [0, 1]"),
            ("bb84", dict(seed=math.inf), "bad value for seed: inf"),
            ("bb84", dict(seed=1.5), "bad value for seed: 1.5"),
            ("bb84", dict(mu_in="lots"), "bad value for mu_in: 'lots'"),
            ("bb84", dict(transcript=0.5), "bad value for transcript: 0.5"),
        ],
    )
    def test_bad_override_rejected(self, name, values, says):
        sc = load_scenario(SCENARIOS / f"{name}.ini")
        with pytest.raises(ConfigError) as exc:
            sc.with_overrides(**values)
        assert says in str(exc.value)

    # every declared range, from the declaration: a [sim] or [experiment]
    # value just outside it is rejected by name
    @pytest.mark.parametrize("name,section,key,value",
                             [p for p in OUT_OF_RANGE if p.values[1] in ("sim", "experiment")])
    def test_override_outside_declared_range_rejected(self, name, section, key, value):
        sc = load_scenario(SCENARIOS / f"{name}.ini")
        with pytest.raises(ConfigError, match=f"^{key} must be "):
            sc.with_overrides(**{key: value})

    # SCHEMA.md's key table of each section is that section's declaration,
    # row for row: key, type, default, range and the kinds that read it
    @pytest.mark.parametrize(
        "section,cls",
        [("[sim]", SimConfig), ("[channel]", ChannelSpec),
         ("[signal.<ID>]", SignalAssignment), ("[experiment]", ExperimentSpec)],
    )
    def test_schema_doc_lists_every_key(self, section, cls):
        doc = (SCENARIOS / "SCHEMA.md").read_text()
        (part,) = [p for p in doc.split("\n## ") if p.startswith(f"`{section}`")]
        rows = [[cell.strip() for cell in line.strip("|").split("|")][:5]
                for line in part.splitlines() if line.startswith("| `")]
        assert SECTIONS[section[1:-1]] is cls
        assert rows == [[f"`{f.name}`", _type_name(f), _default(f), f.metadata["allowed"] or "—",
                         ", ".join(f.metadata["kinds"] or ["all"])] for f in KEYS[cls].values()]


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
        # the transcript's bytes at 2000 frames, pinned when the exchange
        # began drawing each batch's tally over its 24 cells in one
        # multinomial, and the transcript each batch's order in one
        # permutation
        derived = tmp_path / "bb84_eve_t.ini"
        derived.write_text(
            (SCENARIOS / "bb84_eve.ini").read_text().replace(
                "kind = bb84_eve", "kind = bb84_eve\ntranscript = true"
            )
        )
        out = tmp_path / "o"
        assert main(["run", str(derived), "--frames", "2000", "--out", str(out)]) == 0
        digest = hashlib.sha256((out / "transcript.csv").read_bytes()).hexdigest()
        assert digest == "6a21953871471247ea3b1ce27781bd48d7af29ad674a7984274f11e1da7e0efa"

    def test_saturated_timebin_report_bytes(self, tmp_path):
        # timebin_b at mu_in = 1000 puts 3-7 gated clicks a frame into every
        # detector, so each draws its counts from the first-click law, one
        # binomial and one multinomial over its cells (and the late
        # signal's collection with that signal dark, which has no mass in
        # its gate, draws none); the bytes are pinned from that draw, which
        # TestDetectorLaw checks against the exact law, as it does the
        # Poisson path that draws, sorts and walks every click
        derived = tmp_path / "timebin_b_saturated.ini"
        text = (SCENARIOS / "timebin_b.ini").read_text()
        assert "\nmu_in = 2.5\n" in text
        derived.write_text(text.replace("\nmu_in = 2.5\n", "\nmu_in = 1000\n"))
        out = tmp_path / "o"
        assert main(["run", str(derived), "--frames", "20000", "--out", str(out)]) == 0
        digest = hashlib.sha256((out / "report.json").read_bytes()).hexdigest()
        assert digest == "5d440b576eb9c62e6fe95c61c5efee0868b09cffb54532e4db6e1430c337f02d"

    def test_env_var_default_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SDMQSIM_OUT", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        rc = main(["run", str(SCENARIOS / "bb84.ini"), "--frames", "2000"])
        assert rc == 0
        assert (tmp_path / "envout" / "bb84" / "report.json").exists()

    @staticmethod
    def _with_tables(tmp_path, tables) -> Path:
        """timebin_b reading its link tables from ``tables``."""
        derived = tmp_path / "tables.ini"
        derived.write_text((SCENARIOS / "timebin_b.ini").read_text().replace(
            "[channel]\n", f"[channel]\ntables_path = {tables}\n"))
        return derived

    @staticmethod
    def _group_rates(out) -> dict:
        rows = (out / "group_rates.csv").read_text().splitlines()[1:]
        return {(sig, g): float(cps) for sig, g, cps in (row.split(",") for row in rows)}

    def test_tables_path_is_read(self, tmp_path):
        # group 3's 8 km loss one dB deeper scales signal B (launched into
        # group 3) into every output group by 10^-0.1, and no other signal
        text = (Path(sdmqsim.__file__).parent / "data" / "fmf_link_tables.txt").read_text()
        row = "8km     -12.66  -12.42  -12.46  -12.06  -12.67"
        assert text.count(row) == 1
        tables = tmp_path / "tables.txt"
        tables.write_text(text.replace(row, row.replace("-12.46", "-13.46")))
        rates = {}
        for name, ini in (("packaged", SCENARIOS / "timebin_b.ini"),
                          ("copy", self._with_tables(tmp_path, tables))):
            assert main(["run", str(ini), "--frames", "100", "--out", str(tmp_path / name)]) == 0
            rates[name] = self._group_rates(tmp_path / name)
        assert rates["copy"].keys() == rates["packaged"].keys()
        # each side is written to 6 significant digits
        for (sig, g), cps in rates["packaged"].items():
            factor = 10 ** -0.1 if sig == "B" else 1.0
            assert rates["copy"][sig, g] == pytest.approx(cps * factor, rel=2e-5), (sig, g)

    def test_missing_tables_path_exits_nonzero(self, tmp_path, capsys):
        missing = tmp_path / "no_tables.txt"
        out = tmp_path / "o"
        rc = main(["run", str(self._with_tables(tmp_path, missing)), "--frames", "100",
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2 and str(missing) in err and "Traceback" not in err
        assert "tables_path" in err
        assert not out.exists()

    def test_malformed_tables_row_exits_2(self, tmp_path, capsys):
        # a row that does not parse is a configuration error naming the
        # key, the file and the line, before any output directory is made
        text = (Path(sdmqsim.__file__).parent / "data" / "fmf_link_tables.txt").read_text()
        row = "8km     -12.66  -12.42  -12.46  -12.06  -12.67"
        line = text.splitlines().index(row) + 1
        tables = tmp_path / "tables.txt"
        tables.write_text(text.replace(row, "8km a b c d e"))
        out = tmp_path / "o"
        rc = main(["run", str(self._with_tables(tmp_path, tables)), "--frames", "100",
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2 and "Traceback" not in err
        assert f"tables_path {tables}, line {line}:" in err
        assert not out.exists()

    def test_timebin_short_run_exits_0(self, tmp_path):
        rc = main(["run", str(SCENARIOS / "timebin_b.ini"), "--frames", "1000",
                   "--seed", "6", "--out", str(tmp_path / "o")])
        assert rc == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert "input_monitor_counts" not in report["extra"]

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(re.sub(r"(?m)^seed = .*$", "seed = -3",
                              (SCENARIOS / "bb84.ini").read_text()))
        for argv in (["run", str(SCENARIOS / "bb84.ini"), "--seed", "-3"], ["run", str(bad)]):
            assert main(argv + ["--frames", "1000", "--out", str(tmp_path / "o")]) == 2
            assert "seed must be non-negative, got -3" in capsys.readouterr().err

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
            pytest.param("im_extinction", "1393.3", "nan", id="im_extinction"),
        ],
    )
    def test_input_group_out_of_range_exit_2(self, field, old, new, tmp_path, capsys):
        text = (SCENARIOS / "timebin_xt.ini").read_text()
        bad = tmp_path / "bad.ini"
        bad.write_text(text.replace(f"{field} = {old}", f"{field} = {new}"))
        assert main(["run", str(bad), "--frames", "1000", "--out", str(tmp_path / "o")]) == 2
        assert f"[signal.C] {field}" in capsys.readouterr().err

    # files configparser cannot read name the file and the line; values are
    # read literally, so a % is a bad value, not an interpolation
    @pytest.mark.parametrize(
        "old,new,says",
        [
            pytest.param("eta = 0.15\n", "eta = 0.15\neta = 0.2\n",
                         ("bad.ini", "[line 14]: option 'eta'"), id="duplicate_key"),
            pytest.param("[channel]\n", "[sim]\nseed = 3\n[channel]\n",
                         ("bad.ini", "[line 21]: section 'sim'"), id="duplicate_section"),
            pytest.param("[sim]\n", "eta = 0.2\n[sim]\n",
                         ("no section headers", "bad.ini', line: 6"), id="key_before_section"),
            pytest.param("eta = 0.15\n", "eta = 15%\n", ("bad value for eta: '15%'",),
                         id="percent_in_value"),
            # a fringe contrast above 1 would make the wrong port's rate negative
            pytest.param("visibility_cap = 0.93\n", "visibility_cap = 1.5\n",
                         ("visibility_cap must be in [0, 1], got 1.5",), id="visibility_cap"),
            pytest.param("phase_floor = 0.0\n", "phase_floor = -0.5\n",
                         ("phase_floor must be in [0, 1], got -0.5",), id="phase_floor"),
        ],
    )
    def test_malformed_file_exit_2(self, old, new, says, tmp_path, capsys):
        text = (SCENARIOS / "bb84.ini").read_text()
        assert text.count(old) == 1
        bad = tmp_path / "bad.ini"
        bad.write_text(text.replace(old, new))
        assert main(["run", str(bad), "--frames", "1000", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        for fragment in says:
            assert fragment in err

    # a scenario path that names no readable text file exits 2 naming it,
    # before the run is logged or its directory made
    @pytest.mark.parametrize("make,says", [
        pytest.param(lambda path: path.mkdir(), "Is a directory", id="directory"),
        pytest.param(lambda path: path.write_bytes(b"\xff\xfe[sim]\n"), "'utf-8' codec",
                     id="not_utf8"),
    ])
    def test_unreadable_file_exit_2(self, make, says, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        make(bad)
        out = tmp_path / "o"
        assert main(["run", str(bad), "--frames", "1000", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: cannot read {bad}: {says}" in err, err
        assert "running scenario" not in err and not out.exists()

    # channel and signal values the loader passes on, and values that do
    # not convert to their key's type: each names its key
    @pytest.mark.parametrize(
        "name,old,new,says",
        [
            pytest.param("bb84", "distance = 8km", "distance = 4km", "distance must be",
                         id="distance"),
            pytest.param("bb84", "mu_reference = fmf_input", "mu_reference = fiber",
                         "mu_reference must be", id="mu_reference"),
            # only a phase key reads a pi expression
            pytest.param("bb84", "mu_in = 1.0\n", "mu_in = pi\n", "bad value for mu_in: 'pi'",
                         id="mu_in_pi"),
            pytest.param("bb84", "input_mode = 0,0", "input_mode = a,b",
                         "[signal.S] input_mode", id="input_mode"),
            # group 1 holds only the Hermite-Gaussian mode (0, 0)
            *[pytest.param("bb84", "input_mode = 0,0", f"input_mode = {mode}",
                           "[signal.S] input_mode", id=f"input_mode={mode}")
              for mode in ("0,0,0", "0", "-1,1", "1,0")],
            pytest.param("phase_er", "phi_a = pi\n", "phi_a = abc\n",
                         "bad value for phi_a: 'abc'", id="phi_a"),
            pytest.param("phase_er", "phi_b = 0\n", "phi_b = 3pi/x\n",
                         "bad value for phi_b: '3pi/x'", id="phi_b"),
            pytest.param("phase_er", "phi_b = 0\n", "phi_b = pi/0\n",
                         "bad value for phi_b: 'pi/0'", id="phi_b_over_0"),
            pytest.param("phase_sweep", "sweep_phi_b = 0, pi/4,", "sweep_phi_b = zz, pi/4,",
                         "bad value for sweep_phi_b: 'zz, pi/4,", id="sweep_phi_b"),
            pytest.param("timebin_b", "collections = A:1 B:2+3 C:4+5",
                         "collections = A:1 B:x C:4+5",
                         "bad value for collections: 'A:1 B:x C:4+5'", id="collections"),
            pytest.param("timebin_b", "gates = A:dt1 B:dt2 C:dt1", "gates = A:dt1 B C:dt1",
                         "bad value for gates: 'A:dt1 B C:dt1'", id="gates"),
            pytest.param("timebin_b", "gates = A:dt1 B:dt2 C:dt1",
                         "gates = A:dt1 B:dt2 C:dt1 Z:dt2", "gates Z: no signal 'Z'",
                         id="gates_unknown_signal"),
            pytest.param("bb84", "kind = bb84\n", "", "[experiment] sets no kind",
                         id="no_kind"),
            pytest.param("bb84", "uniform_il_db = -8.3", "uniform_il_db = 3.0",
                         "uniform_il_db must be <= 0", id="uniform_il_db"),
            pytest.param("capacity", "theory_il_db = -8.3", "theory_il_db = 3.0",
                         "theory_il_db must be <= 0", id="theory_il_db"),
            pytest.param("capacity", "theory_mu = 1.0", "theory_mu = -1.0",
                         "theory_mu must be", id="theory_mu"),
            # one ps past the pulse period; a wide jitter would build a
            # kernel 8 sigma long a pulse
            pytest.param("timebin_b", "jitter_sigma_ps = 100", "jitter_sigma_ps = 1541",
                         "jitter_sigma_ps must be in [0, pulse_period_ps = 1540], got 1541",
                         id="jitter_sigma_ps"),
            # one ps past frame_window_ps + 1: a port's dead time could reach
            # the next frame's gate, and the exchange draws frames as independent
            pytest.param("bb84", "dead_time_ps = 100000", "dead_time_ps = 100002",
                         "dead_time_ps = 100002 > frame_window_ps + 1", id="dead_time_ps"),
            # shorter than the gate: a frame could keep a second click, which
            # the exchange never draws
            *[pytest.param(name, "dead_time_ps = 100000", f"dead_time_ps = {tau}",
                           f"dead_time_ps = {tau} < frame_window_ps", id=f"{name}_dead_time_{tau}")
              for name in ("bb84", "bb84_eve") for tau in (99999, 0)],
        ],
    )
    def test_bad_channel_or_signal_value_exit_2(self, name, old, new, says,
                                                tmp_path, capsys):
        text = (SCENARIOS / f"{name}.ini").read_text()
        assert text.count(old) == 1
        bad = tmp_path / "bad.ini"
        bad.write_text(text.replace(old, new))
        assert main(["run", str(bad), "--frames", "1000", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert says in err and "Traceback" not in err
        # every one is checked when the file loads
        assert "running scenario" not in err and not (tmp_path / "o").exists()

    # every declared range, from the declaration: a file's value just outside
    # it exits 2 naming the key, before the run is logged or its directory made
    @pytest.mark.parametrize("name,section,key,value", OUT_OF_RANGE)
    def test_file_outside_declared_range_exit_2(self, name, section, key, value,
                                                 tmp_path, capsys):
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                           interpolation=None)
        parser.read(SCENARIOS / f"{name}.ini")
        parser.set(section, key, value)
        bad = tmp_path / "bad.ini"
        with bad.open("w") as fh:
            parser.write(fh)
        out = tmp_path / "o"
        assert main(["run", str(bad), "--frames", "10", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        where = f"[{section}] " if section.startswith("signal.") else ""
        assert f"configuration error: {where}{key} must be " in err, err
        assert "running scenario" not in err and not out.exists()

    # NaN passes a plain `x < 0` check; each key is rejected by name instead
    @pytest.mark.parametrize(
        "name,key,values",
        [pytest.param(name, key, values, id=key) for name, key, values in [
            ("bb84", "mu_in", ("nan", "inf", "-inf")),
            ("bb84", "jitter_sigma_ps", ("nan", "inf", "-inf")),
            ("bb84", "visibility_cap", ("nan", "inf", "-inf")),
            ("bb84", "phase_floor", ("nan", "inf", "-inf")),
            ("phase_er", "phi_a", ("nan", "inf", "-inf")),
            ("phase_er", "phi_b", ("nan", "inf", "-inf")),
            ("capacity", "theory_mu", ("nan", "inf", "-inf")),
            ("capacity", "theory_il_db", ("nan", "inf", "-inf")),
            ("bb84", "im_extinction", ("nan", "-inf")),  # +inf: a perfect modulator
        ]],
    )
    def test_non_finite_float_exit_2(self, name, key, values, tmp_path, capsys):
        lines = (SCENARIOS / f"{name}.ini").read_text().splitlines(keepends=True)
        (at,) = [i for i, line in enumerate(lines) if line.startswith(f"{key} = ")]
        bad = tmp_path / "bad.ini"
        for value in values:
            lines[at] = f"{key} = {value}\n"
            bad.write_text("".join(lines))
            rc = main(["run", str(bad), "--frames", "1000", "--out", str(tmp_path / "o")])
            err = capsys.readouterr().err
            assert rc == 2, (value, err)
            assert f"{key} must be" in err and "Traceback" not in err, value

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

    # a key that the file's kind would ignore names itself
    @pytest.mark.parametrize(
        "name,line",
        [
            ("timebin_b", "transcript = true"),
            ("phase_er", "transcript = false"),
            ("capacity", "transcript = true"),
            ("bb84", "theory_mu = 1.0"),
            ("bb84_eve", "theory_il_db = -8.3"),
            ("phase_sweep", "theory_mu = 2.0"),
            ("timebin_xt", "theory_il_db = -3.0"),
            ("timebin_b", "visibility_cap = 0.5"),
            ("timebin_b", "phi_b = 1.0"),
            ("timebin_b", "sweep_phi_b = 0,1"),
            ("bb84", "phi_a = pi"),
            ("bb84_eve", "phi_b = 1.0"),
            ("phase_er", "sweep_phi_b = 0,1"),
            ("timebin_xt", "visibility_cap = 0.9"),
            ("capacity", "phase_floor = 0.1"),
        ],
    )
    def test_key_other_kind_ignores_exit_2(self, name, line, tmp_path, capsys):
        text = (SCENARIOS / f"{name}.ini").read_text()
        key = line.split(" = ")[0]
        assert key not in text
        bad = tmp_path / "bad.ini"
        bad.write_text(text + f"{line}\n")  # [experiment] is the last section
        assert main(["run", str(bad), "--frames", "1000", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{key} is read only by kind" in err and "Traceback" not in err

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

    @pytest.mark.parametrize("name,old,new", AMBIGUOUS_DELAY_ROLES)
    def test_ambiguous_delay_roles_exit_2(self, name, old, new, tmp_path, capsys):
        text = (SCENARIOS / f"{name}.ini").read_text()
        assert old in text
        bad = tmp_path / "bad.ini"
        bad.write_text(text.replace(old, new, 1))
        assert main(["run", str(bad), "--frames", "1000", "--out", str(tmp_path / "o")]) == 2
        assert "delayed" in capsys.readouterr().err

    # every kind but the BB84 ones counts per collection
    @pytest.mark.parametrize("name", [n for n in CANNED if not n.startswith("bb84")])
    def test_missing_collections_exit_2(self, name, tmp_path, capsys):
        text = (SCENARIOS / f"{name}.ini").read_text()
        bad = tmp_path / "bad.ini"
        bad.write_text(re.sub(r"^collections = .*\n", "", text, flags=re.M))
        assert main(["run", str(bad), "--frames", "1000", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "requires a collections map" in err and "Traceback" not in err

    @pytest.mark.parametrize("name", CANNED)
    def test_collection_of_unknown_signal_exit_2(self, name, tmp_path, capsys):
        text = (SCENARIOS / f"{name}.ini").read_text()
        bad = tmp_path / "bad.ini"
        bad.write_text(re.sub(r"^collections = \w+:", "collections = X:", text, flags=re.M))
        assert main(["run", str(bad), "--frames", "1000", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "collections X: no signal 'X'" in err and "Traceback" not in err

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
            assert_declared(json.loads((out / "report.json").read_text()))

    def _report(self, name, frames, seed, tmp_path):
        out = tmp_path / "o"
        assert main(["run", str(SCENARIOS / f"{name}.ini"), "--frames", str(frames),
                     "--seed", str(seed), "--out", str(out)]) == 0
        return json.loads((out / "report.json").read_text())

    def test_snr_mean_over_finite_signals(self, tmp_path):
        # C's floor is empty; A and B still give the mean and p_snr
        report = self._report("timebin_b", 1000, 1, tmp_path)
        per = report["snr_db_per_signal"]
        assert per["C"] == "eliminated"
        assert report["snr_db"] == pytest.approx((per["A"] + per["B"]) / 2, rel=1e-12)
        assert report["p_snr"] == pytest.approx(10 ** (-report["snr_db"] / 10), rel=1e-12)

    def test_p_phi_null_below_0_db(self, tmp_path):
        # group 3's interfering counts exceed twice its blocked-arm reference
        report = self._report("phase_er", 200, 6, tmp_path)
        assert report["er_db_per_group"]["3"] < 0
        assert report["extra"]["p_phi_by_group"]["3"] is None
        assert report["er_db_per_group"]["4"] == "eliminated"
        assert report["extra"]["p_phi_by_group"]["4"] == 0.0


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

    # run's and sweep's --seed are both overrides: the manifest records it
    def test_manifest_records_seed(self, tmp_path):
        for seed, overrides in (["--seed", "9"], {"seed": 9}), ([], {}):
            out = tmp_path / f"seed{len(seed)}"
            assert main(["sweep", str(SCENARIOS / "bb84.ini"), "--param", "eta",
                         "--values", "0.1", *seed, "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["overrides"] == {**overrides, "sweep_param": "eta", "values": ["0.1"]}
        assert manifest["resolved_seed"] == load_scenario(SCENARIOS / "bb84.ini").cfg.seed

    # a column for each quantity the report holds, named by dotted path,
    # nested ones and sentinels included
    def test_declared_leaves_are_columns(self, tmp_path):
        out = tmp_path / "vis"
        assert main(["sweep", str(SCENARIOS / "phase_sweep.ini"), "--param", "seed",
                     "--values", "1,2", "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3 and "visibility.A.visibility" in lines[0].split(",")
        out = tmp_path / "snr"
        assert main(["sweep", str(SCENARIOS / "timebin_b.ini"), "--param", "n_frames",
                     "--values", "300", "--seed", "1", "--out", str(out)]) == 0
        header, row = (line.split(",") for line in (out / "sweep.csv").read_text().splitlines())
        assert row[header.index("snr_db")] == "eliminated"

    # a sweep's row is its run's report.json, every leaf but the kind
    @pytest.mark.parametrize("name", CANNED)
    def test_row_is_the_report(self, name, tmp_path):
        scenario = str(SCENARIOS / f"{name}.ini")
        assert main(["sweep", scenario, "--param", "n_frames", "--values", "2000",
                     "--seed", "4", "--out", str(tmp_path / "s")]) == 0
        assert main(["run", scenario, "--frames", "2000", "--seed", "4",
                     "--out", str(tmp_path / "r")]) == 0

        def flat(node, prefix=""):
            for key, value in node.items():
                if isinstance(value, dict):
                    yield from flat(value, f"{prefix}{key}.")
                else:
                    yield f"{prefix}{key}", value

        report = dict(flat(json.loads((tmp_path / "r" / "report.json").read_text())))
        del report["experiment"]
        header, row = (line.split(",")
                       for line in (tmp_path / "s" / "sweep.csv").read_text().splitlines())
        assert header == ["n_frames", *sorted(set(report) - {"n_frames"})]
        assert dict(zip(header, row)) == {
            key: "" if v is None else f"{v:.10g}" if isinstance(v, float) else str(v)
            for key, v in report.items()}

    # at eta 0 no efficiency scales the capacity up to eta 1: that key is
    # null, and the run and the sweep exit 0
    def test_capacity_at_zero_eta_exits_0(self, tmp_path):
        rc = main([
            "sweep", str(SCENARIOS / "capacity.ini"),
            "--param", "eta", "--values", "0", "--out", str(tmp_path / "eta"),
        ])
        assert rc == 0
        text = (SCENARIOS / "capacity.ini").read_text()
        assert "\neta = 0.15\n" in text
        derived = tmp_path / "capacity.ini"
        derived.write_text(text.replace("\neta = 0.15\n", "\neta = 0\n"))
        out = tmp_path / "o"
        assert main(["run", str(derived), "--frames", "2000", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["capacity_qubits_per_s"] == 0.0
        assert report["extra"]["capacity_eta1_qubits_per_s"] is None

    # timebin_B reads no phi_b: each value would give the same row
    def test_param_kind_does_not_read_exit_2(self, tmp_path, capsys):
        out = tmp_path / "phi"
        rc = main([
            "sweep", str(SCENARIOS / "timebin_b.ini"),
            "--param", "phi_b", "--values", "0,1,2", "--out", str(out),
        ])
        assert rc == 2
        assert "phi_b is read only by kind phase_er, not by timebin_B" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_param_exit_2(self, tmp_path, capsys):
        out = tmp_path / "x"
        rc = main([
            "sweep", str(SCENARIOS / "bb84.ini"),
            "--param", "bogus", "--values", "1,2", "--out", str(out),
        ])
        assert rc == 2
        assert "'bogus'" in capsys.readouterr().err
        assert not out.exists()

    # any key a scenario file may set can be swept, not only a listed few
    def test_any_scenario_key_sweeps(self, tmp_path):
        out = tmp_path / "d"
        rc = main([
            "sweep", str(SCENARIOS / "timebin_b.ini"),
            "--param", "d", "--values", "32,64", "--out", str(out),
        ])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines] == ["d", "32", "64"]

    # a swept key that is also a report key keeps its first column as typed
    def test_swept_report_key_written_as_typed(self, tmp_path):
        out = tmp_path / "seeds"
        assert main(["sweep", str(SCENARIOS / "bb84.ini"), "--param", "seed",
                     "--values", "007,8", "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows] == ["seed", "007", "8"]

    # each value is read as a scenario file's text, and written as typed
    def test_values_read_as_file_text(self, tmp_path):
        out = tmp_path / "phi"
        rc = main([
            "sweep", str(SCENARIOS / "phase_er.ini"),
            "--param", "phi_b", "--values", "pi/2, pi", "--seed", "3", "--out", str(out),
        ])
        assert rc == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows] == ["phi_b", "pi/2", "pi"]
        assert rows[1].split(",")[1:] != rows[2].split(",")[1:]  # each value was read
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["overrides"]["values"] == ["pi/2", "pi"]
        out = tmp_path / "gates"
        rc = main([
            "sweep", str(SCENARIOS / "timebin_b.ini"),
            "--param", "gates", "--values", "A:dt1 B:dt2 C:dt1,A:dt1 B:dt2 C:dt2",
            "--out", str(out),
        ])
        assert rc == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["A:dt1 B:dt2 C:dt1",
                                                           "A:dt1 B:dt2 C:dt2"]

    def test_empty_values_exit_2(self, tmp_path):
        rc = main([
            "sweep", str(SCENARIOS / "bb84.ini"),
            "--param", "eta", "--values", "", "--out", str(tmp_path / "x"),
        ])
        assert rc == 2

    # every value is checked before the first row: a block size must be a
    # whole number >= 1, and any other value read as a scenario file's text
    @pytest.mark.parametrize("param,values,message", [
        ("keyrate_n", "inf", "keyrate_n must be an integer >= 1, got inf"),
        ("keyrate_n", "0", "keyrate_n must be an integer >= 1, got 0"),
        ("keyrate_n", "nan", "keyrate_n must be an integer >= 1, got nan"),
        ("keyrate_n", "1e3,1.5", "keyrate_n must be an integer >= 1, got 1.5"),
        ("keyrate_n", "abc", "keyrate_n values must be numbers, got 'abc'"),
        ("eta", "0.1,abc", "bad value for eta: 'abc'"),
        ("mu_in", "pi", "bad value for mu_in: 'pi'"),
    ])
    def test_bad_value_exit_2(self, tmp_path, capsys, param, values, message):
        out = tmp_path / "x"
        rc = main(["sweep", str(SCENARIOS / "bb84.ini"), "--param", param,
                   "--values", values, "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


README_COMMAND_LINE = (REPO / "README.md").read_text().split("## Command line")[1].split("## ")[0]
BB84 = str(SCENARIOS / "bb84.ini")


class TestCliParse:
    """What each command line hands its command, and the exits of ``--help``
    and of a bad command line.  The expected arguments are those the
    ``argparse`` parser this one replaced gave, values and types."""

    PARITY = [
        # the README's command lines
        ("run scenarios/capacity.ini", "run",
         dict(scenario="scenarios/capacity.ini", seed=None, frames=None, out=None)),
        ("run scenarios/bb84.ini --seed 7 --frames 500000 --out /tmp/bb84", "run",
         dict(scenario="scenarios/bb84.ini", seed=7, frames=500000, out="/tmp/bb84")),
        ("sweep scenarios/bb84.ini --param keyrate_n --values 1e3,1e4,1e5,1e6", "sweep",
         dict(scenario="scenarios/bb84.ini", param="keyrate_n", values="1e3,1e4,1e5,1e6",
              seed=None, out=None)),
        ("sweep scenarios/phase_er.ini --param phi_b --values 0,pi/4,pi/2,pi", "sweep",
         dict(scenario="scenarios/phase_er.ini", param="phi_b", values="0,pi/4,pi/2,pi",
              seed=None, out=None)),
        # --key=value, unique prefixes, repeats, options first, values as typed
        ("run x.ini --seed=3 --frames=10 --out=o", "run",
         dict(scenario="x.ini", seed=3, frames=10, out="o")),
        ("run x.ini --fr 100 --s 4 --o d", "run",
         dict(scenario="x.ini", seed=4, frames=100, out="d")),
        ("run x.ini --seed 1 --frames 5 --seed 2", "run",
         dict(scenario="x.ini", seed=2, frames=5, out=None)),
        ("run --frames 100 --seed 5 x.ini", "run",
         dict(scenario="x.ini", seed=5, frames=100, out=None)),
        ("run x.ini --seed -1", "run", dict(scenario="x.ini", seed=-1, frames=None, out=None)),
        ("run x.ini --frames 1_000 --out=", "run",
         dict(scenario="x.ini", seed=None, frames=1000, out="")),
        ("run -- x.ini", "run", dict(scenario="x.ini", seed=None, frames=None, out=None)),
        ("sweep --values a,b x.ini --p p --seed 2 --param q --out o", "sweep",
         dict(scenario="x.ini", param="q", values="a,b", seed=2, out="o")),
    ]

    BAD = [
        pytest.param([], id="no-command"),
        pytest.param(["walk", BB84], id="unknown-command"),
        pytest.param(["run", BB84, "--bogus", "1"], id="unknown-option"),
        pytest.param(["run", BB84, "--seed", "x"], id="seed-not-int"),
        pytest.param(["run", BB84, "--frames", "1.5"], id="frames-not-int"),
        pytest.param(["run", BB84, "--frames"], id="option-without-value"),
        pytest.param(["run", BB84, BB84], id="extra-positional"),
        pytest.param(["run"], id="no-scenario"),
        pytest.param(["sweep", BB84, "--values", "1,2"], id="sweep-without-param"),
        pytest.param(["sweep", BB84, "--param", "seed"], id="sweep-without-values"),
    ]

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        for name, (_, *rest) in cli.COMMANDS.items():
            monkeypatch.setitem(cli.COMMANDS, name, (
                lambda args, name=name: calls.append((name, vars(args))) or 0, *rest))
        return calls

    @pytest.fixture
    def empty_cwd(self, tmp_path, monkeypatch):
        """A working directory, and the default output root inside it."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(cli.OUT_ENV, str(tmp_path / "out"))
        return tmp_path

    @pytest.mark.parametrize("line, command, expected", PARITY)
    def test_arguments_as_argparse_gave(self, calls, line, command, expected):
        assert main(shlex.split(line)) == 0
        assert calls == [(command, expected)]
        assert {k: type(v) for k, v in calls[0][1].items()} == {
            k: type(v) for k, v in expected.items()}

    def test_readme_command_lines_covered(self):
        lines = {line for line, _, _ in self.PARITY}
        readme = re.findall(r"(?m)^sdmqsim (.*?)\s*(?:#.*)?$", README_COMMAND_LINE)
        assert readme and set(readme) <= lines

    @pytest.mark.parametrize("argv", BAD)
    def test_bad_command_line_exit_2(self, argv, empty_cwd, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert err.startswith("usage: sdmqsim run SCENARIO")
        assert "sdmqsim: error: " in err
        assert out == ""
        assert list(empty_cwd.iterdir()) == []

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["run", "--help"],
                                      ["sweep", BB84, "-h"], ["run", BB84, "--he"]])
    def test_help_exit_0(self, argv, empty_cwd, capsys):
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert out == cli.USAGE
        assert err == ""
        assert list(empty_cwd.iterdir()) == []

    def test_readme_shows_usage(self):
        assert cli.USAGE in README_COMMAND_LINE

    def test_main_reads_sys_argv(self, calls, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["sdmqsim", "run", BB84, "--frames", "7"])
        assert main() == 0
        assert calls == [("run", dict(scenario=BB84, seed=None, frames=7, out=None))]


class TestGoldenReports:
    """Each canned scenario at its pinned seed and frame count reproduces
    the committed ``out/<name>/report.json`` byte for byte, writes exactly
    the files of ``GOLDEN_CSVS`` beside it and the manifest, and each CSV
    hashes as pinned there.  Regenerate the reports (``sdmqsim run
    scenarios/<name>.ini`` from the repo root) and the digests only on a
    deliberate change of the random draws."""

    @pytest.mark.parametrize("name", CANNED)
    def test_report_matches_golden(self, name, tmp_path):
        rc = main(["run", str(SCENARIOS / f"{name}.ini"), "--out", str(tmp_path)])
        assert rc == 0
        golden = REPO / "out" / name / "report.json"
        assert (tmp_path / "report.json").read_bytes() == golden.read_bytes()
        assert_declared(json.loads(golden.read_text()))
        csvs = GOLDEN_CSVS.get(name, {})
        written = sorted(path.name for path in tmp_path.iterdir())
        assert written == sorted(["manifest.json", "report.json", *csvs])
        for fname, digest in csvs.items():
            assert hashlib.sha256((tmp_path / fname).read_bytes()).hexdigest() == digest, fname


def _kinds_cell(kinds, when=("run",)) -> str:
    """The kinds of a declaration row as SCHEMA.md lists them, with when a
    file is written where that is not on every run."""
    listed = "all" if set(kinds) == set(EXPERIMENT_KINDS) else ", ".join(kinds)
    return listed if when == ("run",) else f"{listed} ({', '.join(when)})"


def _name_pattern(name: str) -> re.Pattern:
    """A declared file name as a pattern: ``<a|b>`` one of its words, any
    other ``<...>`` any text."""
    return re.compile("".join(
        f"({part[1:-1]})" if "|" in part else ".+" if part.startswith("<") else re.escape(part)
        for part in re.split(r"(<[^>]+>)", name)))


def _column_names(columns) -> list:
    return [column.partition(":")[0] for column in columns]


class TestArtifacts:
    """``analysis.ARTIFACTS`` declares each file that ``run`` and ``sweep``
    write once: SCHEMA.md's artifact table is the declaration, and a run of
    every canned kind, and a sweep, writes exactly the files declared for
    it, each CSV under its declared header."""

    def test_schema_table_is_the_declaration(self):
        text = (SCENARIOS / "SCHEMA.md").read_text().split("## Output artifacts")[1]
        text = text.split("\n## ")[0]
        rows = [[cell.strip().replace("\\|", "|")
                 for cell in re.split(r"(?<!\\)\|", line.strip().strip("|"))]
                for line in text.splitlines() if line.startswith("| `")]
        assert [(name, columns, kinds) for name, columns, kinds, _ in rows] == [
            (f"`{name}`", f"`{','.join(_column_names(columns))}`" if columns else "—",
             _kinds_cell(kinds, when))
            for name, columns, kinds, when in ARTIFACTS]

    @pytest.mark.parametrize("name,transcript", [(name, False) for name in CANNED]
                             + [("bb84", True), ("bb84_eve", True)])
    def test_run_writes_the_declared_files(self, name, transcript, tmp_path):
        scenario = SCENARIOS / f"{name}.ini"
        if transcript:
            scenario = tmp_path / f"{name}_t.ini"
            scenario.write_text((SCENARIOS / f"{name}.ini").read_text().replace(
                "\n[experiment]\n", "\n[experiment]\ntranscript = true\n"))
        kind = load_scenario(scenario).experiment.kind
        out = tmp_path / "o"
        assert main(["run", str(scenario), "--frames", "2000", "--out", str(out)]) == 0
        written = ("run", "transcript = true") if transcript else ("run",)
        declared = [(_name_pattern(file), columns) for file, columns, kinds, when in ARTIFACTS
                    if kind in kinds and set(when) & set(written)]
        matched = set()
        for path in out.iterdir():
            (i,) = [i for i, (pattern, _) in enumerate(declared) if pattern.fullmatch(path.name)]
            matched.add(i)
            columns = declared[i][1]
            if columns:
                with path.open() as fh:
                    assert fh.readline() == ",".join(_column_names(columns)) + "\n", path.name
        assert matched == set(range(len(declared)))

    def test_sweep_writes_the_declared_files(self, tmp_path):
        out = tmp_path / "o"
        assert main(["sweep", str(SCENARIOS / "bb84.ini"), "--param", "eta",
                     "--values", "0.1,0.2", "--out", str(out)]) == 0
        assert sorted(path.name for path in out.iterdir()) == sorted(
            file for file, _, _, when in ARTIFACTS if "sweep" in when)
        header = (out / "sweep.csv").read_text().splitlines()[0].split(",")
        assert header[0] == "eta" and header[1:] == sorted(header[1:])


class TestReportKeys:
    """``analysis.REPORT`` declares each report key once: the goldens set
    every row, SCHEMA.md's REPORT table is the declaration, and a run of
    any canned scenario at any size and seed writes only declared leaves."""

    def test_every_row_set_by_a_golden(self):
        leaves = set()
        for name in CANNED:
            report = json.loads((REPO / "out" / name / "report.json").read_text())
            leaves |= {"experiment", *report_row(report)}
        for path, _, _ in REPORT:
            pattern = re.sub(r"<[a-z]+>", "[^.]+", re.escape(path))
            assert any(re.fullmatch(pattern, leaf) for leaf in leaves), path

    def test_schema_table_is_the_declaration(self):
        text = (SCENARIOS / "SCHEMA.md").read_text().split("## Report keys")[1]
        rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
                for line in text.splitlines() if line.startswith("| `")]
        assert [(key, unit, listed) for key, unit, listed, _ in rows] == [
            (f"`{path}`", unit,
             "all" if set(declared) == set(EXPERIMENT_KINDS) else ", ".join(declared))
            for path, unit, declared in REPORT]

    @pytest.mark.parametrize("name", CANNED)
    @settings(max_examples=40, deadline=None)
    @given(frames=st.integers(1, 5000), seed=st.integers(0, 2**64 - 1))
    def test_any_size_and_seed(self, name, frames, seed):
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()) as err:
            out = Path(tmp) / "o"
            rc = main(["run", str(SCENARIOS / f"{name}.ini"), "--frames", str(frames),
                       "--seed", str(seed), "--out", str(out)])
            assert rc == 0 and "Traceback" not in err.getvalue(), err.getvalue()
            assert_declared(json.loads((out / "report.json").read_text()))
