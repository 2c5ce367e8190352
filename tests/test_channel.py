import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sdmqsim

from sdmqsim.channel import (
    ChannelModel,
    crosstalk_from_db,
    db_to_linear,
    load_link_tables,
)
from sdmqsim.config import (
    ROLE_PHOTONS,
    ConfigError,
    SignalAssignment,
    SimConfig,
)
from sdmqsim.pipeline import _cell_edges, _collected_flux, _detector_cells, _timebin_law
from sdmqsim.scenarios import ExperimentSpec, Scenario

# raw dB entries, re-stated here as the independent cross-check of the data file
IL_8KM = [-12.66, -12.42, -12.46, -12.06, -12.67]
IL_40M = [-7.14, -7.21, -7.84, -8.72, -9.18]
XT_DB = [
    [-0.67, -14.23, -19.49, -21.61, -23.47],
    [-10.82, -1.03, -11.71, -15.81, -18.31],
    [-15.25, -10.15, -1.46, -10.56, -14.45],
    [-17.45, -13.45, -8.50, -1.66, -8.51],
    [-18.90, -14.89, -11.87, -7.06, -0.95],
]


@pytest.fixture(scope="module")
def tables():
    return load_link_tables()


# the packaged file's text, and the line of its 8 km insertion-loss row
PACKAGED = (Path(sdmqsim.__file__).parent / "data" / "fmf_link_tables.txt").read_text()
ROW_8KM = "8km     -12.66  -12.42  -12.46  -12.06  -12.67"


def _load_edited(tmp_path, old, new):
    """``load_link_tables`` of the packaged file with ``old`` replaced by ``new``."""
    assert PACKAGED.count(old) == 1
    path = tmp_path / "tables.txt"
    path.write_text(PACKAGED.replace(old, new))
    return load_link_tables(path)


class TestTables:
    def test_loaded_values_match(self, tables):
        il, xt = tables
        assert list(il["8km"]) == IL_8KM
        assert list(il["40m"]) == IL_40M
        raw = 10 ** (np.asarray(XT_DB) / 10.0)
        assert np.allclose(np.multiply(xt, raw.sum(axis=0)), raw)

    def test_raw_column_sums_near_unity(self, tables):
        # the loaded matrix is the file's, renormalized (above); its raw
        # linear column sums are within 1% of unity
        raw_column_sums = db_to_linear(XT_DB).sum(axis=0)
        _, xt = tables
        assert np.allclose(xt, db_to_linear(XT_DB) / raw_column_sums, rtol=1e-14)
        assert np.all(raw_column_sums > 0.99)
        assert np.all(raw_column_sums < 1.01)

    def test_columns_exactly_stochastic(self, tables):
        _, xt = tables
        assert np.allclose(np.sum(xt, axis=0), 1.0, atol=1e-14)

    def test_group1_confinement_fraction(self, tables):
        _, xt = tables
        # 10^(-0.067) / column sum, independently recomputed
        expect = 10 ** (-0.67 / 10) / sum(10 ** (r[0] / 10) for r in XT_DB)
        assert xt[0][0] == pytest.approx(expect, rel=1e-12)
        assert round(xt[0][0], 3) == 0.857

    def test_group5_distribution(self, tables):
        _, xt = tables
        expect = np.array([0.0045, 0.0148, 0.0359, 0.1408, 0.8034])
        assert np.allclose([row[4] for row in xt], expect, atol=1e-3)

    def test_diagonal_dominance_required(self):
        bad = [row[:] for row in XT_DB]
        bad[0][0], bad[1][0] = bad[1][0], bad[0][0]  # break column 1
        with pytest.raises(ConfigError, match="diagonal"):
            crosstalk_from_db(bad)

    def test_insertion_loss_must_be_negative(self, tmp_path):
        with pytest.raises(ConfigError, match="<= 0"):
            _load_edited(tmp_path, "40m     -7.14", "40m     0.1")

    # every table check names tables_path and the file, and the line where
    # one row is at fault
    @pytest.mark.parametrize("old,new,says", [
        pytest.param(ROW_8KM, ROW_8KM + "\n8km -1 -1 -1 -1 -1",
                     "line 15: '8km -1 -1 -1 -1 -1': a second row for 8km", id="repeated_row"),
        pytest.param(ROW_8KM, ROW_8KM + " -1",
                     f"line 14: '{ROW_8KM} -1': a row must have 5 entries, got 6", id="long_row"),
        pytest.param(ROW_8KM, "8km -12.66",
                     "line 14: '8km -12.66': a row must have 5 entries, got 1", id="short_row"),
        pytest.param(ROW_8KM, ROW_8KM.replace("8km", "4km"),
                     "line 14: '4km     -12.66  -12.42  -12.46  -12.06  -12.67': distance must be "
                     "one of 40m, 8km", id="unknown_distance"),
        pytest.param(ROW_8KM, ROW_8KM.replace("-12.42", "nan"),
                     "line 14: '8km     -12.66  nan  -12.46  -12.06  -12.67': insertion-loss "
                     "entries must be <= 0 dB", id="nan_loss"),
        pytest.param("-0.67   -14.23", "-0.67",
                     "line 18: '-0.67  -19.49  -21.61  -23.47': a row must have 5 entries, got 4",
                     id="short_crosstalk_row"),
        pytest.param(ROW_8KM, "", ": insertion_loss has no row for 8km", id="missing_row"),
        pytest.param("-18.90  -14.89  -11.87  -7.06   -0.95", "",
                     ": crosstalk matrix must be 5x5, got (4, 5)", id="crosstalk_rows"),
        pytest.param("-0.67   -14.23", "-24.67  -14.23",
                     ": crosstalk column 1 is not diagonal-dominant", id="crosstalk_dominance"),
    ])
    def test_table_check_names_file_and_line(self, tmp_path, old, new, says):
        with pytest.raises(ConfigError) as info:
            _load_edited(tmp_path, old, new)
        assert str(info.value).startswith(f"tables_path {tmp_path / 'tables.txt'}")
        assert says in str(info.value)

    @settings(max_examples=1000, deadline=None)
    @given(
        diag=st.lists(st.floats(-3.0, -0.1), min_size=5, max_size=5),
        off=st.lists(st.floats(-25.0, -6.0), min_size=20, max_size=20),
    )
    def test_random_tables_renormalize_to_stochastic(self, diag, off):
        m = np.empty((5, 5))
        k = 0
        for i in range(5):
            for j in range(5):
                if i == j:
                    m[i, j] = diag[i]
                else:
                    m[i, j] = off[k]
                    k += 1
        xt = crosstalk_from_db(m)
        assert np.allclose(np.sum(xt, axis=0), 1.0, atol=1e-12)
        assert np.all(np.greater(xt, 0)) and np.all(np.less(xt, 1))


class TestChannelModel:
    def test_transparent_channel(self, tables):
        il, xt = tables
        ch = ChannelModel(il=il, xt=xt, uniform_il_db=0.0)
        sig = SignalAssignment("A", input_group=1)
        assert ch.transmission(sig) == pytest.approx(1.0)
        assert ch.collection_fraction(1, (1,)) == 1.0
        assert ch.collection_fraction(1, range(2, 6)) == 0.0

    def test_mu_reference_planes(self, tables):
        il, xt = tables
        sig = SignalAssignment("A", input_group=1)
        mux = ChannelModel(il=il, xt=xt, mu_reference="mux_input")
        fmf = ChannelModel(il=il, xt=xt, mu_reference="fmf_input",
                           input_mdm_exclusion_db=4.2)
        assert mux.transmission(sig) == pytest.approx(db_to_linear(-12.66))
        assert fmf.transmission(sig) == pytest.approx(db_to_linear(-12.66 + 4.2))

    def test_excess_db_applies(self, tables):
        il, xt = tables
        ch = ChannelModel(il=il, xt=xt)
        base = ch.transmission(SignalAssignment("C", input_group=5))
        down = ch.transmission(SignalAssignment("C", input_group=5, excess_db=-3.0))
        assert down / base == pytest.approx(db_to_linear(-3.0))

    def test_unknown_distance_rejected(self, tables):
        il, xt = tables
        with pytest.raises(ConfigError, match="distance"):
            ChannelModel(il=il, xt=xt, distance="4km")

    @pytest.mark.parametrize("uniform", [3.0, 1e-9, math.nan])
    def test_uniform_gain_rejected(self, tables, uniform):
        # a flat loss above 0 dB would amplify the light, as excess_db > 0 would
        il, xt = tables
        with pytest.raises(ConfigError, match="uniform_il_db must be <= 0"):
            ChannelModel(il=il, xt=xt, uniform_il_db=uniform)

    def test_channel_error_is_a_config_error(self, tables):
        # a bad channel setting is a ConfigError, on which the CLI exits 2,
        # and callers catching ValueError still catch it
        il, xt = tables
        with pytest.raises(ValueError, match="distance") as info:
            ChannelModel(il=il, xt=xt, distance="4km")
        assert info.type is ConfigError

    def test_mean_received_photons_near_015(self, tables):
        # mu = 2.5 at the multiplexer input -> about 0.15 photons/frame out
        il, xt = tables
        ch = ChannelModel(il=il, xt=xt, distance="8km", mu_reference="mux_input")
        received = [
            2.5 * ch.transmission(SignalAssignment("S", input_group=g))
            for g in range(1, 6)
        ]
        mean = sum(received) / 5
        assert abs(mean - 0.15) / 0.15 < 0.10


class TestPropagate:
    """``_collected_flux``: one signal's mean photons into a collection."""

    def _setup(self, tables, uniform=None):
        il, xt = tables
        ch = ChannelModel(il=il, xt=xt, uniform_il_db=uniform)
        sigs = {
            "A": SignalAssignment("A", input_group=1),
            "C": SignalAssignment("C", input_group=5),
        }
        return ch, sigs

    def test_transparent_roundtrip(self, tables):
        ch, sigs = self._setup(tables, uniform=0.0)
        cfg = SimConfig(mu_in=1.0)
        assert _collected_flux(cfg, ch, sigs["A"], range(1, 6)) == pytest.approx(1.0)
        assert _collected_flux(cfg, ch, sigs["A"], (1,)) == pytest.approx(1.0)

    def test_energy_bookkeeping_includes_loss(self, tables):
        ch, sigs = self._setup(tables)
        for sid, mu in (("A", 1.0), ("C", 2.0)):
            cfg = SimConfig(mu_in=mu)
            per_group = [_collected_flux(cfg, ch, sigs[sid], (g,)) for g in range(1, 6)]
            expect = mu * ch.transmission(sigs[sid])
            assert sum(per_group) == pytest.approx(expect, rel=1e-12)
            assert _collected_flux(cfg, ch, sigs[sid], range(1, 6)) == pytest.approx(
                expect, rel=1e-12
            )

    def test_same_input_group_rejected(self, tables):
        sigs = (
            SignalAssignment("A", input_group=2),
            SignalAssignment("B", input_group=2),
        )
        with pytest.raises(ConfigError, match="same input group"):
            Scenario(
                name="dup",
                cfg=SimConfig(),
                signals=sigs,
                channel=ChannelModel(*tables),
                experiment=ExperimentSpec(kind="timebin_xt"),
            )


def _one_signal_cells(tables, n, sig, windows=(), **sim):
    """Every click of one signal into its own group over ``n`` frames,
    through a flat 0 dB link, as cells that hold ``windows``."""
    il, xt = tables
    ch = ChannelModel(il=il, xt=xt, uniform_il_db=0.0)
    vcfg = SimConfig(**sim)
    law = _timebin_law(vcfg, ch, [sig], (sig.input_group,))
    return _detector_cells((ROLE_PHOTONS, 0), law, vcfg, "always", n, _cell_edges(vcfg, windows))


class TestSamplePhotons:
    """The time-bin sampler at the photon level."""

    def test_zero_flux_empty(self, tables):
        sig = SignalAssignment("A", input_group=1, fixed_slot=0)
        cells = _one_signal_cells(tables, 1000, sig, mu_in=1e-12, im_extinction=1e9)
        assert not cells.before.any()

    def test_poisson_count_small_scale(self, tables):
        # mean 0.0225/frame over 20k frames: 450 +- 63 (3 sigma)
        sig = SignalAssignment("A", input_group=1, fixed_slot=0)
        cells = _one_signal_cells(
            tables, 20_000, sig, mu_in=0.15, eta=0.15, im_extinction=math.inf,
            dead_time_ps=0, jitter_sigma_ps=0.0, seed=42,
        )
        assert abs(cells.count(0, 200_000) - 450) <= 3 * math.sqrt(450)

    def test_timestamp_clustering(self, tables):
        sig = SignalAssignment("B", input_group=1, delayed=True, fixed_slot=20)
        center = 100_000 + 20 * 1540 + 770
        near = (center - 799, center + 800)  # within 8 sigma of jitter
        cells = _one_signal_cells(
            tables, 1, sig, [near], mu_in=50.0, eta=1.0, im_extinction=math.inf,
            dead_time_ps=0, seed=5,
        )
        assert cells.count(*near) == cells.count(0, 200_000) > 10


def _insertion_loss_db(channel, signal) -> float:
    """Received flux over injected, all output groups collected, in dB."""
    return 10 * math.log10(channel.transmission(signal))


class TestInsertionLossMeasurement:
    def test_transparent_zero_db(self, tables):
        il, xt = tables
        ch = ChannelModel(il=il, xt=xt, uniform_il_db=0.0)
        assert _insertion_loss_db(ch, SignalAssignment("S", input_group=1)) == pytest.approx(0.0)

    @pytest.mark.parametrize("group,distance,expect", [(4, "8km", -12.06), (2, "40m", -7.21)])
    def test_reproduces_table(self, tables, group, distance, expect):
        il, xt = tables
        ch = ChannelModel(il=il, xt=xt, distance=distance)
        sig = SignalAssignment("S", input_group=group)
        assert _insertion_loss_db(ch, sig) == pytest.approx(expect, abs=0.1)


class TestErgodicity:
    def test_mc_group_ratios_match_table(self, tables):
        # photon-counting crosstalk measurement reproduces the power-level
        # table within Poisson bounds
        n = 200_000
        vcfg = SimConfig(mu_in=2.5, dead_time_ps=0, seed=99)
        sig = SignalAssignment("A", input_group=1, fixed_slot=10)
        il, xt = tables
        ch = ChannelModel(il=il, xt=xt)
        counts = []
        for g in range(1, 6):
            cells = _detector_cells((ROLE_PHOTONS, g), _timebin_law(vcfg, ch, [sig], (g,)), vcfg,
                                    "always", n, _cell_edges(vcfg, []))
            counts.append(cells.count(0, vcfg.frame_period_ps))
        counts = np.array(counts, dtype=float)
        expect_frac = [row[0] for row in xt]
        total_exp = n * 2.5 * ch.transmission(sig) * 0.15
        for g in range(5):
            expect = total_exp * expect_frac[g]
            assert abs(counts[g] - expect) <= 3 * math.sqrt(expect) + 1
        # mean output photon count over N frames matches mu * IL within
        # 4 sigma Poisson at N >= 1e5
        assert abs(counts.sum() - total_exp) <= 4 * math.sqrt(total_exp)
