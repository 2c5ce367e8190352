import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdmqsim.channel import PhotonEvent
from sdmqsim.config import RandomSource, SimConfig, validate_config
from sdmqsim.encoder import make_phase_frame
from sdmqsim.receiver import (
    DetectionRecord,
    DetectorConfig,
    Histogram,
    InterferometerConfig,
    accumulate,
    dead_time_mask,
    detect,
    export_histogram,
    interfere,
    time_window_filter,
)


@pytest.fixture(scope="module")
def cfg():
    return validate_config(SimConfig())


def _events(times, frame=0, group=1, mode=0):
    return [PhotonEvent(t, group, mode, frame, "A") for t in times]


class TestDetect:
    def test_unit_efficiency_no_dead_time(self, cfg):
        det = DetectorConfig(eta=1.0, dead_time_ps=0, gate="always")
        ev = _events([100, 5_000, 150_000])
        recs = detect(ev, det, cfg, RandomSource(1))
        assert len(recs) == 3

    def test_dead_time_vetoes_second_click(self, cfg):
        # two photons 50 ns apart with a 100 ns dead time -> one record
        det = DetectorConfig(eta=1.0, dead_time_ps=100_000, gate="always")
        recs = detect(_events([10_000, 60_000]), det, cfg, RandomSource(1))
        assert len(recs) == 1
        assert recs[0].t_ps == 10_000

    def test_gate_discards_out_of_window(self, cfg):
        det = DetectorConfig(eta=1.0, dead_time_ps=0, gate="dt2")
        recs = detect(_events([50_000, 150_000]), det, cfg, RandomSource(1))
        assert [r.t_ps for r in recs] == [150_000]

    def test_unsorted_input_rejected(self, cfg):
        det = DetectorConfig(eta=1.0)
        ev = _events([5_000, 1_000])
        with pytest.raises(ValueError, match="sorted"):
            detect(ev, det, cfg, RandomSource(1))

    def test_thinned_poisson_click_probability(self, cfg):
        # mean 0.15 photons/frame, eta 0.15: per-frame click probability
        # 1 - exp(-0.0225) ~= 0.02225, checked within 3 sigma over 3e5 frames
        n = 300_000
        gen = RandomSource(7).generator()
        counts = gen.poisson(0.15, size=n)
        events = []
        for i in np.nonzero(counts)[0]:
            for _ in range(counts[i]):
                events.append(PhotonEvent(int(gen.integers(0, 100_000)), 1, 0, int(i), "A"))
        events.sort(key=lambda e: (e.frame_idx, e.t_ps))
        det = DetectorConfig(eta=0.15, dead_time_ps=100_000, gate="dt1")
        recs = detect(events, det, cfg, RandomSource(8))
        p = 1 - math.exp(-0.0225)
        expect = n * p
        assert abs(len(recs) - expect) <= 3 * math.sqrt(expect)

    def test_dark_counts_injected(self, cfg):
        det = DetectorConfig(eta=1.0, dead_time_ps=0, gate="dt1", dark_rate_hz=1e6)
        # 1 MHz over 100 ns gate -> 0.1 dark counts/frame
        recs = detect([], det, cfg, RandomSource(9), n_frames=10_000)
        assert abs(len(recs) - 1000) <= 3 * math.sqrt(1000)
        assert all(r.origin == "dark" and r.t_ps < 100_000 for r in recs)

    def test_detector_linearity_low_flux(self, cfg):
        # click probability vs mean photons/frame stays within 1% of the
        # best-fit line, referenced to full scale (standard nonlinearity
        # figure), over mu <= 0.2 in the thinned-Poisson regime
        mus = np.linspace(0.01, 0.2, 25)
        clicks = 1.0 - np.exp(-mus * 0.15)
        basis = np.column_stack([mus, np.ones_like(mus)])
        coef, *_ = np.linalg.lstsq(basis, clicks, rcond=None)
        dev = np.abs(basis @ coef - clicks) / clicks.max()
        assert dev.max() < 0.01

    def test_dead_time_nested_in_blank_interval(self, cfg):
        # with one frame per period and a half-period gate, dead time never
        # suppresses in-gate signal: clicks == frames with >= 1 photon
        gen = RandomSource(11).generator()
        n = 50_000
        counts = gen.poisson(0.3, size=n)
        events = []
        for i in np.nonzero(counts)[0]:
            ts = sorted(int(gen.integers(0, 100_000)) for _ in range(counts[i]))
            events.extend(PhotonEvent(t, 1, 0, int(i), "A") for t in ts)
        det = DetectorConfig(eta=1.0, dead_time_ps=100_000, gate="dt1")
        recs = detect(events, det, cfg, RandomSource(12))
        assert len(recs) == int(np.count_nonzero(counts))


class TestDeadTimeMask:
    @settings(max_examples=1000, deadline=None)
    @given(
        ts=st.lists(st.integers(0, 10_000_000), min_size=0, max_size=200),
        td=st.integers(0, 500_000),
    )
    def test_min_gap_invariant(self, ts, td):
        t = np.array(sorted(ts), dtype=np.int64)
        keep = dead_time_mask(t, td)
        kept = t[keep]
        if len(kept) > 1:
            assert np.diff(kept).min() >= td
        # first event always accepted
        if len(t):
            assert keep[0]

    def test_paralyzable_extends_dead_time(self):
        t = np.arange(0, 500_000, 50_000)  # every 50 ns
        non_par = dead_time_mask(t, 100_000, paralyzable=False)
        par = dead_time_mask(t, 100_000, paralyzable=True)
        assert non_par.sum() == 5  # every other click
        assert par.sum() == 1  # continuous stream keeps the detector dead


def _greedy_dead_time(t, dead_time_ps, paralyzable):
    """Reference veto: one pass, one event at a time."""
    keep = []
    blocked_until = None
    for ti in t:
        ok = dead_time_ps <= 0 or blocked_until is None or ti >= blocked_until
        keep.append(ok)
        if ok or paralyzable:
            blocked_until = ti + dead_time_ps
    return np.array(keep, dtype=bool)


class TestDeadTimeOracle:
    """``dead_time_mask`` against the plain greedy loop, both modes."""

    @settings(max_examples=1000, deadline=None)
    @given(
        gaps=st.lists(
            st.one_of(
                st.just(0),
                st.integers(0, 150_000),
                st.integers(0, 400_000),
                # on a grid, so some events sit exactly one dead time
                # after an earlier one
                st.integers(0, 6).map(lambda k: 25_000 * k),
            ),
            max_size=200,
        ),
        start=st.integers(0, 10**12),
        td=st.one_of(st.just(0), st.just(100_000), st.integers(0, 250_000)),
        paralyzable=st.booleans(),
    )
    def test_matches_reference(self, gaps, start, td, paralyzable):
        t = start + np.cumsum(np.array(gaps, dtype=np.int64))
        got = dead_time_mask(t, td, paralyzable)
        assert got.dtype == bool
        np.testing.assert_array_equal(got, _greedy_dead_time(t.tolist(), td, paralyzable))

    @pytest.mark.parametrize("paralyzable", [False, True])
    def test_empty(self, paralyzable):
        assert len(dead_time_mask(np.zeros(0, dtype=np.int64), 100_000, paralyzable)) == 0

    @pytest.mark.parametrize("paralyzable", [False, True])
    def test_zero_dead_time_keeps_all(self, paralyzable):
        t = np.array([5, 5, 5, 7, 100], dtype=np.int64)
        assert dead_time_mask(t, 0, paralyzable).all()

    @pytest.mark.parametrize("paralyzable", [False, True])
    def test_ties(self, paralyzable):
        # exact one-dead-time gaps, inside a cluster and between clusters
        t = np.array(
            [0, 0, 60_000, 100_000, 100_000, 160_000, 200_000, 300_000, 300_000],
            dtype=np.int64,
        )
        ref = _greedy_dead_time(t.tolist(), 100_000, paralyzable)
        np.testing.assert_array_equal(dead_time_mask(t, 100_000, paralyzable), ref)

    @pytest.mark.parametrize("paralyzable", [False, True])
    def test_one_long_cluster(self, paralyzable):
        # always-gated saturation: no raw gap ever reaches the dead time, so
        # the whole stream is one cluster
        gen = RandomSource(21).generator()
        t = np.cumsum(gen.integers(1, 8, size=30_000) * 5_000)
        ref = _greedy_dead_time(t.tolist(), 100_000, paralyzable)
        got = dead_time_mask(t, 100_000, paralyzable)
        np.testing.assert_array_equal(got, ref)
        if paralyzable:
            assert got.sum() == 1

    def test_many_open_clusters(self):
        # thousands of short clusters that each keep more than their start,
        # on a grid so that ties and exact one-dead-time gaps occur
        gen = RandomSource(22).generator()
        n = 20_000
        t = np.sort(gen.integers(0, 3 * n, size=n)) * 20_000
        ref = _greedy_dead_time(t.tolist(), 100_000, False)
        np.testing.assert_array_equal(dead_time_mask(t, 100_000), ref)


class TestTimeWindowFilter:
    def test_keep_and_drop(self):
        recs = [
            DetectionRecord(150_000, "D_T", 0),
            DetectionRecord(50_000, "D_T", 0),
        ]
        kept = time_window_filter(recs, "dt2", 100_000)
        assert [r.t_ps for r in kept] == [150_000]
        kept1 = time_window_filter(recs, "dt1", 100_000)
        assert [r.t_ps for r in kept1] == [50_000]

    def test_bad_window(self):
        with pytest.raises(ValueError):
            time_window_filter([], "dt3", 100_000)


class TestInterfere:
    def _train(self, d=64, mu=None, phi=0.0):
        mu = float(d) if mu is None else mu  # unit intensity per pulse
        return make_phase_frame(phi, mu, d=d)

    def test_destructive_zero_at_unit_visibility(self):
        fr = self._train(phi=math.pi)
        icfg = InterferometerConfig(delay_ps=1540, phi_b=0.0, visibility_cap=1.0)
        out = interfere(fr, icfg, 1540)
        assert np.allclose(out.interior("p"), 0.0, atol=1e-12)
        assert np.allclose(out.interior("p_prime"), 1.0, atol=1e-12)

    def test_constructive_193_at_v093(self):
        # per-pulse intensity 1: interior port-P intensity I0(1+V) = 1.93 I0
        fr = self._train(phi=0.0)
        icfg = InterferometerConfig(delay_ps=1540, phi_b=0.0, visibility_cap=0.93)
        out = interfere(fr, icfg, 1540)
        assert np.allclose(out.interior("p"), 0.5 * 1.93)
        assert np.allclose(out.interior("p_prime"), 0.5 * 0.07)

    def test_edges_quarter_intensity(self):
        fr = self._train(phi=math.pi)
        icfg = InterferometerConfig(delay_ps=1540, visibility_cap=1.0)
        out = interfere(fr, icfg, 1540)
        assert out.n_positions == 65
        for port in (out.port_p, out.port_p_prime):
            assert port[0] == pytest.approx(0.25)
            assert port[-1] == pytest.approx(0.25)

    def test_blocked_arm_flat_half_train(self):
        # one arm blocked: flat 64-position train, quarter of the per-pulse
        # intensity on each port (half the single-arm level)
        fr = self._train(phi=math.pi)
        icfg = InterferometerConfig(delay_ps=1540, visibility_cap=1.0,
                                    arm_blocked="delay")
        out = interfere(fr, icfg, 1540)
        assert np.allclose(out.port_p[0:64], 0.25)
        assert out.port_p[64] == 0.0
        assert np.allclose(out.port_p, out.port_p_prime)

    def test_blocked_arm_mean_convention(self):
        fr = self._train(phi=math.pi)
        icfg = InterferometerConfig(delay_ps=1540, visibility_cap=1.0,
                                    arm_blocked="mean")
        out = interfere(fr, icfg, 1540)
        assert np.allclose(out.interior("p"), 0.25)
        assert out.port_p[0] == pytest.approx(0.125)
        assert out.port_p[64] == pytest.approx(0.125)

    @settings(max_examples=300, deadline=None)
    @given(
        phi=st.floats(-7.0, 7.0),
        phi_b=st.floats(-7.0, 7.0),
        v=st.floats(0.01, 1.0),
    )
    def test_energy_conservation(self, phi, phi_b, v):
        fr = self._train(phi=phi)
        icfg = InterferometerConfig(delay_ps=1540, phi_b=phi_b, visibility_cap=v)
        out = interfere(fr, icfg, 1540)
        total_in = float(np.sum(fr.slot_intensity))
        total_out = float(np.sum(out.port_p) + np.sum(out.port_p_prime))
        assert total_out == pytest.approx(total_in, rel=1e-12)
        # interior positions: both ports together carry the per-pulse power
        both = out.interior("p") + out.interior("p_prime")
        assert np.allclose(both, 1.0, rtol=1e-12)

    def test_delay_must_match_pulse_period(self):
        fr = self._train()
        icfg = InterferometerConfig(delay_ps=1000)
        with pytest.raises(ValueError, match="delay"):
            interfere(fr, icfg, 1540)

    def test_floor_split(self):
        fr = make_phase_frame(0.0, 64.0, d=64, floor_fraction=0.5)
        icfg = InterferometerConfig(delay_ps=1540, visibility_cap=1.0)
        out = interfere(fr, icfg, 1540)
        assert out.floor_p == pytest.approx(fr.floor_rate / 2)
        blocked = interfere(
            fr,
            InterferometerConfig(delay_ps=1540, visibility_cap=1.0, arm_blocked="direct"),
            1540,
        )
        assert blocked.floor_p == pytest.approx(fr.floor_rate / 4)


class TestHistogram:
    def test_empty_records(self, cfg):
        hist = accumulate([], cfg, n_frames=10)
        assert hist.total == 0
        assert len(hist.bins) == 8000

    def test_bin_index(self, cfg):
        recs = [DetectionRecord(38_500, "D_T", 0)]
        hist = accumulate(recs, cfg, 1)
        assert hist.bins[1540] == 1
        assert hist.total == 1

    def test_count_conservation(self, cfg):
        gen = RandomSource(3).generator()
        recs = [
            DetectionRecord(int(t), "D_T", 0)
            for t in gen.integers(0, 200_000, size=5000)
        ]
        hist = accumulate(recs, cfg, 1)
        assert hist.total == 5000

    def test_export_format(self, cfg, tmp_path):
        hist = accumulate([DetectionRecord(50, "D_T", 0)], cfg, 1)
        path = tmp_path / "h.csv"
        export_histogram(hist, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "bin_start_ps,count"
        assert lines[1] == "0,0"
        assert lines[3] == "50,1"
        assert len(lines) == 8001

    @settings(max_examples=50, deadline=None)
    @given(
        counts=st.lists(st.integers(0, 2**40), min_size=0, max_size=300),
        res=st.integers(1, 100),
    )
    def test_export_bytes_match_row_format(self, tmp_path_factory, counts, res):
        bins = np.array(counts, dtype=np.int64)
        hist = Histogram(bins=bins, n_frames=1, hist_res_ps=res)
        path = tmp_path_factory.mktemp("h") / "h.csv"
        export_histogram(hist, path)
        rows = ["bin_start_ps,count"] + [
            f"{i * res},{int(c)}" for i, c in enumerate(bins)
        ]
        assert path.read_bytes() == ("\n".join(rows) + "\n").encode()
