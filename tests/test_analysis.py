import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from sdmqsim.analysis import (
    ELIMINATED,
    build_report,
    capacity_from_counts,
    counts_per_second,
    crosstalk_db,
    error_budget,
    extinction_ratio_db,
    fit_visibility,
    prob_from_db,
    report_json,
    snr_db,
    tomography,
)


class TestCountsPerSecond:
    def test_zero(self):
        assert counts_per_second(0, 100, 5e6) == 0.0

    def test_scaling(self):
        assert counts_per_second(1000, 1_000_000, 5e6) == pytest.approx(5000.0)

    def test_invalid_frames(self):
        with pytest.raises(ValueError):
            counts_per_second(1, 0, 5e6)

    def test_theoretical_single_signal_rate(self):
        # mu'=1, eta=0.15, R_f=5 MHz, IL=-8.3 dB -> 110.9 kHz to rounding
        rate = 1.0 * 0.15 * 5e6 * 10 ** (-8.3 / 10)
        assert round(rate / 100) * 100 == 110_900


class TestCrosstalkDb:
    def test_equal_windows_zero_db(self):
        assert crosstalk_db(500, 500) == pytest.approx(0.0)

    def test_eliminated_when_dt1_empty(self):
        assert crosstalk_db(100, 0) == math.inf

    def test_negative_inf_when_dt2_empty(self):
        assert crosstalk_db(0, 100) == -math.inf

    def test_both_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            crosstalk_db(0, 0)

    def test_xt_111_db_gives_p_below_008(self):
        p = prob_from_db(11.1)
        assert p == pytest.approx(0.078, abs=1e-3)
        assert p < 0.08

    @settings(max_examples=300, deadline=None)
    @given(x=st.floats(0.0, 60.0))
    def test_db_probability_roundtrip(self, x):
        assert -10.0 * math.log10(prob_from_db(x)) == pytest.approx(x, abs=1e-9)


class TestSnrDb:
    W, TP = 100_000, 1540

    def test_floor_equals_signal_zero_db(self):
        # slot 0 holds 10000 counts; the remaining 98460 ps hold 9846 counts,
        # i.e. exactly 10000 when rescaled to the full 100 ns window
        assert snr_db(10_000, 9846, self.W - self.TP, self.W) == pytest.approx(0.0, abs=1e-12)

    def test_infinite_when_no_floor(self):
        snr = snr_db(100, 0, self.W - self.TP, self.W)
        assert snr == math.inf
        assert prob_from_db(snr) == 0.0

    def test_exclude_slots_removes_foreign_pulse(self):
        # 1000 counts in the pulse slot and a foreign pulse of 500 in
        # another slot: left in the floor it caps the SNR, excluded with its
        # slot's width the floor is empty
        with_foreign = snr_db(1000, 500, self.W - self.TP, self.W)
        cleaned = snr_db(1000, 0, self.W - 2 * self.TP, self.W)
        assert with_foreign == pytest.approx(
            10 * math.log10(1000 / (500 * self.W / (self.W - self.TP)))
        )
        assert cleaned == math.inf


class TestExtinctionRatio:
    def test_no_suppression_zero_db(self):
        assert extinction_ratio_db(50, 100) == pytest.approx(0.0)

    def test_perfect_suppression_infinite(self):
        assert extinction_ratio_db(100, 0) == math.inf

    def test_73_db_matches_p_phi_018(self):
        # suppression factor 2*c0/ci = 10^0.73 ~= 5.37, p_phi ~= 0.186
        er = extinction_ratio_db(1000, 2000 / 5.37)
        assert er == pytest.approx(7.3, abs=0.01)
        assert prob_from_db(er) == pytest.approx(0.186, abs=0.001)

    def test_requires_positive_reference(self):
        with pytest.raises(ValueError):
            extinction_ratio_db(0, 10)


class TestFitVisibility:
    def _points(self, i0, v, phases):
        return [(p, i0 * (1 + v * math.cos(p))) for p in phases]

    def test_exact_recovery(self):
        phases = [k * math.pi / 4 for k in range(8)]
        fit = fit_visibility(self._points(100.0, 0.93, phases))
        assert fit.i0 == pytest.approx(100.0, abs=1e-9)
        assert fit.visibility == pytest.approx(0.93, abs=1e-9)
        assert fit.residual < 1e-9

    def test_flat_data_zero_visibility(self):
        phases = [k * math.pi / 3 for k in range(6)]
        fit = fit_visibility([(p, 50.0) for p in phases])
        assert fit.visibility == pytest.approx(0.0, abs=1e-12)
        assert fit.i0 == pytest.approx(50.0)

    def test_clamped_to_unit_interval(self):
        phases = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
        fit = fit_visibility(self._points(10.0, 1.5, phases))
        assert fit.visibility == 1.0

    def test_no_positive_mean_gives_none(self):
        # background-subtracted counts of a few frames can average below 0
        phases = [k * math.pi / 4 for k in range(8)]
        assert fit_visibility([(p, -1.0 if p < 1 else 0.0) for p in phases]) is None

    def test_degenerate_phases_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            fit_visibility([(0.1, 1.0), (0.1, 1.0), (0.1, 1.0)])
        with pytest.raises(ValueError, match="span"):
            fit_visibility([(0.0, 1.0), (1.0, 2.0), (2.0, 1.0)])

    @settings(max_examples=300, deadline=None)
    @given(
        scale=st.floats(1e-3, 1e6),
        v=st.floats(0.0, 1.0),
    )
    def test_scale_equivariance(self, scale, v):
        phases = [k * math.pi / 4 for k in range(8)]
        base = self._points(100.0, v, phases)
        scaled = [(p, c * scale) for p, c in base]
        f0 = fit_visibility(base)
        f1 = fit_visibility(scaled)
        assert f1.i0 == pytest.approx(f0.i0 * scale, rel=1e-9)
        assert f1.visibility == pytest.approx(f0.visibility, abs=1e-9)


class TestTomography:
    def test_noiseless(self):
        res = tomography(1000, 0, d=64)
        assert res.rho_jj == 1.0
        assert res.rho_kk == 0.0

    def test_zero_counts_rejected(self):
        with pytest.raises(ValueError):
            tomography(0, 0, d=64)

    @settings(max_examples=1000, deadline=None)
    @given(c=st.integers(0, 10**6), cf=st.integers(0, 10**6), d=st.integers(2, 256))
    def test_diagonal_normalization(self, c, cf, d):
        if c + cf == 0:
            return
        res = tomography(c, cf, d=d)
        assert res.rho_jj + (d - 1) * res.rho_kk == pytest.approx(1.0, rel=1e-12)


class TestErrorBudget:
    def test_reference_values(self):
        p_s, qber = error_budget(0.08, 0.075, 64)
        assert round(p_s, 2) == 0.11
        assert round(qber, 3) == 0.018

    def test_zero_errors(self):
        assert error_budget(0.0, 0.0, 64) == (0.0, 0.0)

    def test_pythagorean_triple(self):
        p_s, qber = error_budget(0.3, 0.4, 2)
        assert p_s == pytest.approx(0.5)
        assert qber == pytest.approx(0.5)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            error_budget(1.2, 0.0, 64)


class TestCapacity:
    def test_aggregate_from_counts(self):
        cap = capacity_from_counts(202_600, 64)
        assert cap == pytest.approx(1.2156e6, rel=1e-6)
        assert round(cap / 1e5) / 10 == 1.2  # 1.22 Mqubit/s to 3 significant figures
        assert round(cap / 1e4) == 122

    def test_eta_scaling_to_81_mqubits(self):
        cap = capacity_from_counts(202_600, 64) / 0.15
        assert cap == pytest.approx(8.1e6, rel=0.01)



class TestMetricsReport:
    """The report as ``build_report`` builds it and ``report_json`` writes it."""

    def test_probability_validation(self):
        with pytest.raises(ValueError, match=r"p_xt = 1.5 outside \[0.0, 1.0\]"):
            build_report("timebin_xt", 1, 10, p_xt=1.5)

    def test_infinite_db_serialized_as_sentinel(self):
        rep = build_report("timebin_B", 1, 10, xt_db={"AC_to_B": math.inf})
        data = json.loads(report_json(rep))
        assert data["xt_db"]["AC_to_B"] == ELIMINATED

    def test_json_deterministic_and_sorted(self):
        rep = build_report("timebin_B", 1, 10, snr_db=11.3, p_snr=0.074)
        assert report_json(rep) == report_json(rep)
        keys = list(json.loads(report_json(rep)).keys())
        assert keys == sorted(keys)

    def test_top_level_nulls_dropped_nested_kept(self):
        rep = build_report("capacity", 1, 10, capacity_qubits_per_s=None, cps_per_collection={},
                           extra={"capacity_eta1_qubits_per_s": None})
        assert json.loads(report_json(rep)) == {
            "experiment": "capacity", "seed": 1, "n_frames": 10,
            "extra": {"capacity_eta1_qubits_per_s": None}}

    # each a key of another kind, a misspelt or unfilled pattern, a table
    # where a leaf is declared or a leaf where a table is
    @pytest.mark.parametrize("kind,fields", [
        pytest.param("bb84", {"extra": {"bogus": 1}}, id="bb84-extra.bogus"),
        pytest.param("bb84", {"p_s": 0.1}, id="bb84-p_s"),
        pytest.param("timebin_xt", {"xt_db": {"AC_to_B": 3.0}}, id="timebin_xt-xt_db.AC_to_B"),
        pytest.param("timebin_B", {"xt_db": {"_to_B": 3.0}}, id="timebin_B-xt_db._to_B"),
        pytest.param("timebin_B", {"extra": {"ac_counts_in_dt2_on_": 0}},
                     id="timebin_B-extra.ac_counts_in_dt2_on_"),
        pytest.param("phase_sweep", {"visibility": {"A": {"slope": 1.0}}},
                     id="phase_sweep-visibility.A.slope"),
        pytest.param("capacity", {"cps_per_collection": 5.0}, id="capacity-cps_per_collection"),
        pytest.param("phase_er", {"p_phi": {"1": 0.1}}, id="phase_er-p_phi.1"),
    ])
    def test_undeclared_key_raises(self, kind, fields):
        with pytest.raises(ValueError, match=f"is not declared for {kind}"):
            build_report(kind, 1, 10, **fields)

    @pytest.mark.parametrize("kind,fields", [
        pytest.param("bb84", {"qber_sifted": 1.5}, id="bb84-qber_sifted"),
        pytest.param("bb84", {"key_rate": -0.1}, id="bb84-key_rate"),
        pytest.param("capacity", {"capacity_qubits_per_s": -1.0}, id="capacity-capacity"),
        pytest.param("capacity", {"cps_per_collection": {"A": math.inf}},
                     id="capacity-cps_per_collection.A-inf"),
        pytest.param("timebin_B", {"snr_db": math.nan}, id="timebin_B-snr_db-nan"),
        pytest.param("timebin_B", {"extra": {"rho_kk": {"A": math.nan}}},
                     id="timebin_B-extra.rho_kk.A-nan"),
        pytest.param("phase_er", {"extra": {"p_phi_by_group": {1: -0.1}}},
                     id="phase_er-extra.p_phi_by_group.1"),
        pytest.param("phase_sweep", {"visibility": {"A": {"visibility": 1.01}}},
                     id="phase_sweep-visibility.A.visibility"),
        pytest.param("bb84", {"seed": -1}, id="bb84-seed"),
    ])
    def test_out_of_range_raises(self, kind, fields):
        fields = {"seed": 1, "n_frames": 10, **fields}
        with pytest.raises(ValueError, match="outside"):
            build_report(kind, **fields)

    def test_declared_patterns_accepted(self):
        rep = build_report(
            "timebin_B", 1, 10, xt_db={"AC_to_B": -math.inf},
            snr_db_per_signal={"A": None, "B": 3.0},
            extra={"ac_counts_in_dt2_on_B": 0, "rho_kk": {"A": 0.5}})
        assert json.loads(report_json(rep))["xt_db"] == {"AC_to_B": "no-signal"}
        assert build_report("phase_sweep", 1, 10, visibility={"A": None})["visibility"] == {
            "A": None}
