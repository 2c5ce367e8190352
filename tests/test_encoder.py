import math

import pytest
from hypothesis import given, settings, strategies as st

from sdmqsim.config import (
    ROLE_PHOTONS,
    ConfigError,
    SignalAssignment,
    SimConfig,
)
from sdmqsim.encoder import floor_fraction
from sdmqsim.channel import ChannelModel, load_link_tables
from sdmqsim.pipeline import _cell_edges, _detector_cells, _timebin_components, _timebin_law
from sdmqsim.receiver import delay_interferometer_rates
from sdmqsim.scenarios import ChannelSpec, ExperimentSpec, Scenario


@pytest.fixture(scope="module")
def vcfg():
    return SimConfig()


def _timebin_rates(vcfg, m, mu, r):
    """(pulse, floor) mean clicks per frame of a time-bin signal in slot m."""
    (pulse, _), (floor, _) = _timebin_components(vcfg, mu, floor_fraction(64, r), 0, m)
    return pulse, floor


class TestTimeBinFrame:
    """The pulse and floor components the time-bin sampler draws."""

    def test_perfect_modulator(self, vcfg):
        assert _timebin_rates(vcfg, 0, 1.0, math.inf) == (1.0, 0.0)

    def test_floor_half_at_extinction_63(self, vcfg):
        # independent hand computation: f = (d-1)/(d-1+r) = 63/126 = 1/2
        pulse, floor = _timebin_rates(vcfg, 0, 1.0, 63.0)
        assert floor == pytest.approx(0.5)
        assert pulse == pytest.approx(0.5)

    def test_slot_out_of_range(self):
        with pytest.raises(ConfigError, match="fixed_slot in 0..63"):
            Scenario(name="slot", cfg=SimConfig(),
                     signals=(SignalAssignment("A", input_group=1, fixed_slot=64),),
                     channel=ChannelSpec(),
                     experiment=ExperimentSpec(kind="capacity", collections={"A": (1,)}))

    @settings(max_examples=300, deadline=None)
    @given(
        m=st.integers(0, 63),
        mu=st.floats(1e-3, 10.0),
        r=st.floats(1.001, 1e6),
    )
    def test_photon_number_conservation(self, vcfg, m, mu, r):
        assert sum(_timebin_rates(vcfg, m, mu, r)) == pytest.approx(mu, rel=1e-12)


def _ports(mu, phi, d=64, floor=0.0, arm="none"):
    return delay_interferometer_rates(mu, d, 1.0, phi, arm, floor)


class TestPhaseFrame:
    """A uniform phase train through the interferometer law."""

    def test_identity_phase_d4(self):
        # phi = 0: every interior click on port P, a quarter pulse per edge
        r = _ports(1.0, 0.0, d=4)
        assert r.interior_p == pytest.approx(3 / 4)
        assert r.interior_p_prime == pytest.approx(0.0)
        assert r.edge_0 == r.edge_d == pytest.approx(1 / 16)

    def test_pi_ramp_d64(self):
        r = _ports(1.0, math.pi)
        assert r.interior_p == pytest.approx(0.0, abs=1e-15)
        assert r.interior_p_prime == pytest.approx(63 / 64)

    def test_half_pi_ramp_mu2(self):
        r = _ports(2.0, math.pi / 2)
        assert r.interior_p == pytest.approx(r.interior_p_prime)
        assert r.interior_p + r.interior_p_prime == pytest.approx(2.0 * 63 / 64)

    @settings(max_examples=300, deadline=None)
    @given(
        phi=st.floats(-10.0, 10.0),
        mu=st.floats(1e-3, 10.0),
        fl=st.floats(0.0, 0.9),
        arm=st.sampled_from(["none", "delay", "direct"]),
    )
    def test_uniform_intensity_and_conservation(self, phi, mu, fl, arm):
        # both ports carry the whole train, or half of it with one arm blocked
        r = _ports(mu, phi, floor=fl, arm=arm)
        total = r.interior_p + r.interior_p_prime + 2 * (r.edge_0 + r.edge_d + r.floor)
        assert total == pytest.approx(mu if arm == "none" else mu / 2, rel=1e-12)
        if arm != "none":
            # nothing interferes: every open position carries the same rate
            assert r.interior_p == pytest.approx(63 * max(r.edge_0, r.edge_d), rel=1e-12)


class TestSchedule:
    """Time-bin signals occupy their fixed slot in every frame."""

    @staticmethod
    def _cells(sig, n, window, **sim):
        """The signal's clicks over ``n`` frames, as cells that hold ``window``."""
        vcfg = SimConfig(mu_in=50.0, dead_time_ps=0, **sim)
        law = _timebin_law(vcfg, ChannelModel(*load_link_tables()), [sig], (sig.input_group,))
        return _detector_cells((ROLE_PHOTONS, 0), law, vcfg, "always", n,
                               _cell_edges(vcfg, [window]))

    def test_delayed_signal_offset_on_every_frame(self):
        # pulse and floor clicks of a delayed signal all land in the second
        # half-window, in every frame
        sig = SignalAssignment("B", input_group=3, delayed=True, fixed_slot=5)
        cells = self._cells(sig, 20_000, (100_000, 200_000), im_extinction=20.0)
        assert cells.count(0, 100_000) == 0 and cells.count(100_000, 200_000) > 1000

    def test_fixed_slot(self):
        # without a floor every click is within 8 sigma of jitter of slot 20
        near = (20 * 1540 + 770 - 799, 20 * 1540 + 770 + 800)
        cells = self._cells(SignalAssignment("A", input_group=1, fixed_slot=20), 500, near,
                            im_extinction=math.inf)
        assert cells.count(*near) == cells.count(0, 200_000) > 10


def test_floor_fraction_limits():
    assert floor_fraction(64, math.inf) == 0.0
    assert floor_fraction(64, 63.0) == pytest.approx(0.5)
