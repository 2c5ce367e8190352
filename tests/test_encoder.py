import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdmqsim.config import Phase, SignalAssignment, SimConfig, TimeBin
from sdmqsim.encoder import floor_fraction, make_phase_frame, make_time_bin_frame
from sdmqsim.pipeline import _signal_slots, _simulate_timebin_detector, build_channel
from sdmqsim.scenarios import ChannelSpec, ExperimentSpec, Scenario


class TestTimeBinFrame:
    def test_perfect_modulator(self):
        fr = make_time_bin_frame(0, mu=1.0, im_extinction=math.inf, d=64)
        assert fr.floor_rate == 0.0
        assert fr.slot_intensity[0] == pytest.approx(1.0)
        assert np.count_nonzero(fr.slot_intensity) == 1
        assert fr.kind == TimeBin(0)

    def test_floor_half_at_extinction_63(self):
        # independent hand computation: f = (d-1)/(d-1+r) = 63/126 = 1/2
        fr = make_time_bin_frame(0, mu=1.0, im_extinction=63.0, d=64)
        assert fr.floor_rate == pytest.approx(0.5)
        assert fr.slot_intensity[0] == pytest.approx(0.5)

    def test_slot_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            make_time_bin_frame(64, 1.0, 100.0, d=64)

    @settings(max_examples=300, deadline=None)
    @given(
        m=st.integers(0, 63),
        mu=st.floats(1e-3, 10.0),
        r=st.floats(1.001, 1e6),
    )
    def test_photon_number_conservation(self, m, mu, r):
        fr = make_time_bin_frame(m, mu, r, d=64)
        assert fr.mean_photons == pytest.approx(mu, rel=1e-12)


class TestPhaseFrame:
    def test_identity_phase_d4(self):
        fr = make_phase_frame(0.0, mu=1.0, d=4)
        assert np.allclose(fr.slots, 0.5)
        assert fr.kind == Phase(0.0)

    def test_pi_ramp_d64(self):
        fr = make_phase_frame(math.pi, mu=1.0, d=64)
        diffs = np.angle(fr.slots[1:] * np.conj(fr.slots[:-1]))
        assert np.allclose(np.abs(diffs), math.pi)
        assert np.allclose(fr.slot_intensity, 1 / 64)

    def test_half_pi_ramp_mu2(self):
        fr = make_phase_frame(math.pi / 2, mu=2.0, d=64)
        diffs = np.angle(fr.slots[1:] * np.conj(fr.slots[:-1]))
        assert np.allclose(diffs, math.pi / 2)
        assert np.sum(fr.slot_intensity) == pytest.approx(2.0)

    @settings(max_examples=300, deadline=None)
    @given(
        phi=st.floats(-10.0, 10.0),
        mu=st.floats(1e-3, 10.0),
        fl=st.floats(0.0, 0.9),
    )
    def test_uniform_intensity_and_conservation(self, phi, mu, fl):
        fr = make_phase_frame(phi, mu, d=64, floor_fraction=fl)
        inten = fr.slot_intensity
        assert inten.max() == pytest.approx(inten.min(), rel=1e-12)
        assert fr.mean_photons == pytest.approx(mu, rel=1e-12)


class TestSchedule:
    """Per-frame slots of each signal (``pipeline._signal_slots``)."""

    def _scenario(self, *signals, n=500, **sim):
        return Scenario(
            name="sched",
            cfg=SimConfig(**sim),
            signals=signals,
            channel=ChannelSpec(),
            experiment=ExperimentSpec(kind="timebin_xt", n_frames=n),
        )

    def test_all_timebin_at_ptb_one(self):
        sc = self._scenario(SignalAssignment("A", input_group=1))
        slots = _signal_slots(sc, sc.validated(), "A", 0, 500)
        assert len(slots) == 500
        assert (slots >= 0).all() and (slots < 64).all()
        assert len(np.unique(slots)) > 32  # uniform over the 64 slots

    def test_delayed_signal_offset_on_every_frame(self):
        # pulse and floor clicks of a delayed signal all land in the second
        # half-window, in every frame
        sig = SignalAssignment("B", input_group=3, delayed=True)
        n = 20_000
        sc = self._scenario(sig, n=n, mu_in=50.0, im_extinction=20.0, dead_time_ps=0)
        vcfg = sc.validated()
        slots = {"B": _signal_slots(sc, vcfg, "B", 0, n)}
        det = _simulate_timebin_detector(
            sc, vcfg, build_channel(sc), 0, (3,), "always", ["B"], slots, n
        )
        assert len(np.unique(det.frame_idx)) > 1000
        assert det.t_within.min() >= 100_000

    def test_fixed_slot(self):
        sc = self._scenario(SignalAssignment("A", input_group=1, fixed_slot=20))
        slots = _signal_slots(sc, sc.validated(), "A", 0, 50)
        assert (slots == 20).all()


def test_floor_fraction_limits():
    assert floor_fraction(64, math.inf) == 0.0
    assert floor_fraction(64, 63.0) == pytest.approx(0.5)
