import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sdmqsim.config import ConfigError, RandomSource, SimConfig, validate_config
from sdmqsim import pipeline
from sdmqsim.pipeline import FIRST_CLICK_DENSITY, _finish_detector, _simulate_detector
from sdmqsim.receiver import (
    Histogram,
    dead_time_mask,
    delay_interferometer_rates,
    export_histogram,
    gate_mask,
    histogram_from_times,
)
from sdmqsim.scenarios import ExperimentSpec


@pytest.fixture(scope="module")
def cfg():
    return validate_config(SimConfig())


def _detect(times, cfg, gate="always"):
    """Gate and dead-time veto one detector's photons, all in frame 0."""
    t = np.asarray(times, dtype=np.int64)
    zeros = np.zeros(len(t), dtype=np.int64)
    return _finish_detector(
        "D_T", [t], [zeros], [zeros.astype(np.int8)], ("A",), cfg, gate, 1
    )


def _uniform_in_gate(lam, cfg):
    """One component: ``lam`` clicks per frame, uniform over the first half."""
    window = cfg.frame_window_ps
    return [[(lam, lambda gen, fr: gen.integers(0, window, size=len(fr)))]]


class TestDetect:
    def test_unit_efficiency_no_dead_time(self):
        cfg0 = validate_config(SimConfig(dead_time_ps=0))
        det = _detect([100, 5_000, 150_000], cfg0)
        assert len(det.t_within) == 3

    def test_dead_time_vetoes_second_click(self, cfg):
        # two photons 50 ns apart with a 100 ns dead time -> one click
        det = _detect([10_000, 60_000], cfg)
        assert det.t_within.tolist() == [10_000]

    def test_gate_discards_out_of_window(self):
        cfg0 = validate_config(SimConfig(dead_time_ps=0))
        det = _detect([50_000, 150_000], cfg0, gate="dt2")
        assert det.t_within.tolist() == [150_000]

    def test_thinned_poisson_click_probability(self, cfg):
        # mean 0.15 photons/frame, eta 0.15: per-frame click probability
        # 1 - exp(-0.0225) ~= 0.02225, checked within 3 sigma over 3e5 frames
        n = 300_000
        det = _simulate_detector(
            "D_T", (0,), _uniform_in_gate(0.15 * 0.15, cfg), ("A",), cfg, "dt1", n
        )
        p = 1 - math.exp(-0.0225)
        expect = n * p
        assert abs(len(det.t_within) - expect) <= 3 * math.sqrt(expect)

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
        # suppresses in-gate signal: a gated collection clicks at most once
        # per frame, and exactly in the frames with >= 1 photon
        n = 50_000
        comps = _uniform_in_gate(0.3, cfg)
        det = _simulate_detector("D_T", (1,), comps, ("A",), cfg, "dt1", n)
        photons = _simulate_detector(
            "D_T", (1,), comps, ("A",), validate_config(SimConfig(dead_time_ps=0)),
            "dt1", n,
        )
        assert len(photons.t_within) > len(det.t_within)
        np.testing.assert_array_equal(det.frame_idx, np.unique(photons.frame_idx))


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


def _greedy_dead_time(t, dead_time_ps):
    """Reference veto: one pass, one event at a time."""
    keep = []
    blocked_until = None
    for ti in t:
        ok = dead_time_ps <= 0 or blocked_until is None or ti >= blocked_until
        keep.append(ok)
        if ok:
            blocked_until = ti + dead_time_ps
    return np.array(keep, dtype=bool)


class TestDeadTimeOracle:
    """``dead_time_mask`` against the plain greedy loop."""

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
    )
    def test_matches_reference(self, gaps, start, td):
        t = start + np.cumsum(np.array(gaps, dtype=np.int64))
        got = dead_time_mask(t, td)
        assert got.dtype == bool
        np.testing.assert_array_equal(got, _greedy_dead_time(t.tolist(), td))

    # ``late``: the same pattern 10^12 ps (5 M frames) into a run, where
    # absolute times no longer fit 32 bits; the veto must not change
    LATE_PS = 10**12

    def _at(self, t, late):
        return np.asarray(t, dtype=np.int64) + (self.LATE_PS if late else 0)

    @pytest.mark.parametrize("late", [False, True])
    def test_empty(self, late):
        assert len(dead_time_mask(self._at([], late), 100_000)) == 0

    @pytest.mark.parametrize("late", [False, True])
    def test_zero_dead_time_keeps_all(self, late):
        t = self._at([5, 5, 5, 7, 100], late)
        assert dead_time_mask(t, 0).all()

    @pytest.mark.parametrize("late", [False, True])
    def test_ties(self, late):
        # exact one-dead-time gaps, inside a cluster and between clusters
        t0 = [0, 0, 60_000, 100_000, 100_000, 160_000, 200_000, 300_000, 300_000]
        ref = _greedy_dead_time(t0, 100_000)
        np.testing.assert_array_equal(dead_time_mask(self._at(t0, late), 100_000), ref)

    @pytest.mark.parametrize("late", [False, True])
    def test_one_long_cluster(self, late):
        # always-gated saturation: no raw gap ever reaches the dead time, so
        # the whole stream is one cluster
        gen = RandomSource(21).generator()
        t0 = np.cumsum(gen.integers(1, 8, size=30_000) * 5_000)
        ref = _greedy_dead_time(t0.tolist(), 100_000)
        np.testing.assert_array_equal(dead_time_mask(self._at(t0, late), 100_000), ref)

    def test_many_open_clusters(self):
        # thousands of short clusters that each keep more than their start,
        # on a grid so that ties and exact one-dead-time gaps occur
        gen = RandomSource(22).generator()
        n = 20_000
        t = np.sort(gen.integers(0, 3 * n, size=n)) * 20_000
        ref = _greedy_dead_time(t.tolist(), 100_000)
        np.testing.assert_array_equal(dead_time_mask(t, 100_000), ref)


W, P = 100_000, 200_000  # the default frame window and period


def _pieces(draw_pieces):
    """Per-piece (times, frames, origin) arrays; piece ``k`` has origin ``k``."""
    ts, fs, os_ = [], [], []
    for k, events in enumerate(draw_pieces):
        events = sorted(events)  # the sampler draws each piece's frames sorted
        ts.append(np.array([t for _, t in events], dtype=np.int64))
        fs.append(np.array([f for f, _ in events], dtype=np.int64))
        os_.append(np.full(len(events), k, dtype=np.int8))
    return ts, fs, os_


# times on the gate and frame edges, and a few mid-gate values shared across
# pieces so that equal timestamps in one frame are common
_TIME = st.one_of(
    st.sampled_from([0, W - 1, W, P - 1, W // 2, W + W // 2]),
    st.integers(0, P - 1),
)
_PIECES = st.lists(
    st.lists(st.tuples(st.integers(0, 5), _TIME), max_size=12), min_size=1, max_size=5
)


class TestFirstClickVeto:
    """The first-click branch of ``_finish_detector`` against the stable
    time sort and the ``dead_time_mask`` walk it replaces."""

    @staticmethod
    def _run(pieces, cfg, gate, n_frames):
        """``_finish_detector`` on copies of the pieces, and whether it took
        the first-click branch."""
        with mock.patch.object(pipeline, "dead_time_mask", wraps=dead_time_mask) as spy:
            det = _finish_detector(
                "D", *[[a.copy() for a in part] for part in pieces], ("o",) * 5,
                cfg, gate, n_frames,
            )
        (call,) = spy.call_args_list
        return det, len(call.args) == 3

    @staticmethod
    def _reference(pieces, cfg, gate, walk):
        """Gate, stable sort by absolute time, then veto with ``walk``."""
        t, fr, orig = (np.concatenate(part) for part in pieces)
        keep = gate_mask(t, gate, cfg.frame_window_ps)
        t, fr, orig = t[keep], fr[keep], orig[keep]
        t_abs = fr * cfg.frame_period_ps + t
        order = np.argsort(t_abs, kind="stable")
        order = order[walk(t_abs[order], cfg.dead_time_ps)]
        return t[order], fr[order], orig[order]

    def _check(self, det, ref):
        np.testing.assert_array_equal(det.t_within, ref[0])
        np.testing.assert_array_equal(det.frame_idx, ref[1])
        np.testing.assert_array_equal(det.origin, ref[2])

    @pytest.mark.parametrize("gate", ["dt1", "dt2"])
    @pytest.mark.parametrize("tau", [W, W + 1])
    @settings(max_examples=200, deadline=None)
    @given(draw=_PIECES)
    # equal times in one frame across pieces, in both gates
    @example(draw=[[(0, 0), (0, W // 2), (1, W - 1), (2, W)],
                   [(0, 0), (1, W - 1), (2, W), (2, P - 1)],
                   [(1, W - 1), (2, W)]])
    def test_first_click_matches_sort_and_walk(self, gate, tau, draw):
        cfg = validate_config(SimConfig(dead_time_ps=tau))
        pieces = _pieces(draw)
        n_frames = 6
        gated = sum(int(gate_mask(t, gate, W).sum()) for t in pieces[0])
        assume(gated >= FIRST_CLICK_DENSITY * n_frames)
        det, first_click = self._run(pieces, cfg, gate, n_frames)
        assert first_click
        self._check(det, self._reference(pieces, cfg, gate, dead_time_mask))
        self._check(det, self._reference(
            pieces, cfg, gate, lambda t, td: _greedy_dead_time(t.tolist(), td)))

    @pytest.mark.parametrize(
        "gate,tau",
        [("dt1", W - 1), ("dt2", W - 1), ("dt1", W + 2), ("dt2", W + 2),
         ("always", W), ("always", W + 1)],
    )
    @settings(max_examples=100, deadline=None)
    @given(draw=_PIECES)
    def test_general_path_otherwise(self, gate, tau, draw):
        # a dead time shorter than the gate, one reaching the next frame's
        # gate, or an ungated detector: the first-click rule does not hold
        cfg = validate_config(SimConfig(dead_time_ps=tau))
        pieces = _pieces(draw)
        det, first_click = self._run(pieces, cfg, gate, 6)
        assert not first_click
        self._check(det, self._reference(
            pieces, cfg, gate, lambda t, td: _greedy_dead_time(t.tolist(), td)))

    def test_sparse_detector_takes_general_path(self, cfg):
        # two gated clicks in 16 frames are below the crossover density
        pieces = _pieces([[(3, 10), (3, 20)]])
        det, first_click = self._run(pieces, cfg, "dt1", 16)
        assert not first_click
        assert det.t_within.tolist() == [10]

    def test_key_exact_at_its_width(self):
        # two events in one frame at the largest time the key holds for n = 2
        top = np.iinfo(np.int64).max
        t = np.array([top // 2 - 1, top // 2 - 1], dtype=np.int64)
        frames = np.zeros(2, dtype=np.int64)
        assert dead_time_mask(t, W, frames).tolist() == [True, False]
        with pytest.raises(AssertionError, match="overflows"):
            dead_time_mask(t + 1, W, frames)


class TestTimeWindowFilter:
    def test_keep_and_drop(self):
        t = np.array([150_000, 50_000])
        assert t[gate_mask(t, "dt2", 100_000)].tolist() == [150_000]
        assert t[gate_mask(t, "dt1", 100_000)].tolist() == [50_000]
        assert gate_mask(t, "always", 100_000).all()

    def test_bad_window(self):
        with pytest.raises(ConfigError, match="gate"):
            ExperimentSpec(kind="timebin_xt", gates={"A": "dt3"})


class TestInterfere:
    """``delay_interferometer_rates`` for a train of unit-rate pulses."""

    D = 64

    def _rates(self, phi=0.0, v=1.0, arm="none", floor=0.0):
        lam = self.D / (1 - floor)  # unit rate per pulse
        return delay_interferometer_rates(lam, self.D, v, phi, arm, floor)

    def test_destructive_zero_at_unit_visibility(self):
        r = self._rates(phi=math.pi)
        assert r.interior_p == pytest.approx(0.0, abs=1e-12)
        assert r.interior_p_prime == pytest.approx(self.D - 1)

    def test_constructive_193_at_v093(self):
        # per-pulse rate 1: interior port-P rate I0(1+V) = 1.93 I0, I0 = 1/2
        r = self._rates(phi=0.0, v=0.93)
        assert r.interior_p == pytest.approx((self.D - 1) * 0.5 * 1.93)
        assert r.interior_p_prime == pytest.approx((self.D - 1) * 0.5 * 0.07)

    def test_edges_quarter_intensity(self):
        r = self._rates(phi=math.pi)
        assert r.edge_0 == pytest.approx(0.25)
        assert r.edge_d == pytest.approx(0.25)

    def test_blocked_arm_flat_half_train(self):
        # delay arm blocked: flat 64-position train (positions 0..63), a
        # quarter of the per-pulse rate on each port
        r = self._rates(phi=math.pi, arm="delay")
        assert r.interior_p == r.interior_p_prime == pytest.approx((self.D - 1) * 0.25)
        assert r.edge_0 == pytest.approx(0.25)
        assert r.edge_d == 0.0

    def test_blocked_arm_mean_convention(self):
        # the non-interfering reference averages the two blocked arms
        delay = self._rates(phi=math.pi, arm="delay")
        direct = self._rates(phi=math.pi, arm="direct")
        mean = [(a + b) / 2 for a, b in zip(delay, direct)]
        interior, _, edge_0, edge_d, _ = mean
        assert interior / (self.D - 1) == pytest.approx(0.25)
        assert edge_0 == pytest.approx(0.125)
        assert edge_d == pytest.approx(0.125)

    @settings(max_examples=300, deadline=None)
    @given(
        phi=st.floats(-7.0, 7.0),
        phi_b=st.floats(-7.0, 7.0),
        v=st.floats(0.01, 1.0),
        floor=st.floats(0.0, 0.9),
    )
    def test_energy_conservation(self, phi, phi_b, v, floor):
        lam = 3.7
        r = delay_interferometer_rates(lam, self.D, v, phi + phi_b, "none", floor)
        both_ports = r.interior_p + r.interior_p_prime + 2 * (r.edge_0 + r.edge_d + r.floor)
        assert both_ports == pytest.approx(lam, rel=1e-12)
        # interior positions: both ports together carry the per-pulse rate
        per_pulse = lam * (1 - floor) / self.D
        assert r.interior_p + r.interior_p_prime == pytest.approx(
            (self.D - 1) * per_pulse, rel=1e-12
        )
        # each blocked arm passes half the train and half the floor
        for arm in ("delay", "direct"):
            b = delay_interferometer_rates(lam, self.D, v, phi + phi_b, arm, floor)
            assert 2 * (b.interior_p + b.edge_0 + b.edge_d + b.floor) == pytest.approx(
                lam / 2, rel=1e-12
            )

    def test_phase_array_gives_per_frame_rates(self):
        phi = np.array([0.0, math.pi / 2, math.pi])
        r = delay_interferometer_rates(2.0, self.D, 0.93, phi)
        for i, p in enumerate(phi):
            one = delay_interferometer_rates(2.0, self.D, 0.93, float(p))
            assert r.interior_p[i] == pytest.approx(one.interior_p, rel=1e-14)
            assert r.interior_p_prime[i] == pytest.approx(one.interior_p_prime, rel=1e-14)

    def test_floor_split(self):
        r = self._rates(floor=0.5)
        lam = self.D / 0.5
        assert r.floor == pytest.approx(lam * 0.5 / 2)
        blocked = self._rates(floor=0.5, arm="direct")
        assert blocked.floor == pytest.approx(lam * 0.5 / 4)


class TestHistogram:
    def test_empty_records(self, cfg):
        hist = histogram_from_times(np.zeros(0, dtype=np.int64), cfg, n_frames=10)
        assert hist.bins.sum() == 0
        assert len(hist.bins) == 8000

    def test_bin_index(self, cfg):
        hist = histogram_from_times(np.array([38_500]), cfg, 1)
        assert hist.bins[1540] == 1
        assert hist.bins.sum() == 1

    def test_count_conservation(self, cfg):
        gen = RandomSource(3).generator()
        hist = histogram_from_times(gen.integers(0, 200_000, size=5000), cfg, 1)
        assert hist.bins.sum() == 5000
        assert len(hist.bins) == 8000

    def test_export_format(self, cfg, tmp_path):
        hist = histogram_from_times(np.array([50]), cfg, 1)
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
