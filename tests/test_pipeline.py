import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sdmqsim.config import ConfigError, RandomSource, SignalAssignment, SimConfig
from sdmqsim.pipeline import (
    DetectorResult,
    _gated_phase_counts,
    _poisson_frames,
    _simulate_phase_detector,
    _simulate_timebin_detector,
    build_channel,
    expected_collection_rate,
    run_scenario,
)
from sdmqsim.protocol import KeyRateParams, key_rate
from sdmqsim.receiver import delay_interferometer_rates
from sdmqsim.scenarios import ChannelSpec, ExperimentSpec, Scenario, load_scenario

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "scenarios"


@pytest.fixture(scope="module")
def capacity_scenario():
    return load_scenario(SCENARIOS / "capacity.ini")


class TestExpectedRates:
    def test_matches_hand_product(self, capacity_scenario):
        sc = capacity_scenario
        channel = build_channel(sc)
        # mu * 10^(IL/10) * 10^(excess/10) * collection fraction * eta * R_f
        sig = sc.signal("A")
        hand = (
            2.5
            * 10 ** ((-12.66 + sig.excess_db) / 10)
            * channel.xt.fraction(1, 1)
            * 0.15
            * 5e6
        )
        got = expected_collection_rate(sc, channel, "A", (1,))
        assert got == pytest.approx(hand, rel=1e-12)

    def test_excess_toggle(self, capacity_scenario):
        sc = capacity_scenario
        channel = build_channel(sc)
        with_cal = expected_collection_rate(sc, channel, "C", (4, 5))
        bare = expected_collection_rate(sc, channel, "C", (4, 5), include_excess=False)
        ratio = with_cal / bare
        assert ratio == pytest.approx(10 ** (sc.signal("C").excess_db / 10), rel=1e-12)


class TestGatedPhaseCounts:
    def _det(self, times, n_frames=1):
        t = np.asarray(sorted(times), dtype=np.int64)
        return DetectorResult(
            name="g1:p",
            t_within=t,
            frame_idx=np.zeros(len(t), dtype=np.int64),
            origin=np.zeros(len(t), dtype=np.int8),
            origins=("A",),
            n_frames=n_frames,
        )

    def test_pulse_centered_clicks_counted(self):
        cfg = SimConfig()
        from sdmqsim.config import validate_config

        vcfg = validate_config(cfg)
        # clicks exactly on interior position centers
        times = [j * 1540 + 770 for j in range(1, 64)]
        det = self._det(times)
        assert _gated_phase_counts(det, vcfg, 0) == 63.0

    def test_uniform_floor_subtracts_to_zero_mean(self):
        from sdmqsim.config import validate_config

        vcfg = validate_config(SimConfig())
        gen = np.random.default_rng(5)
        times = gen.integers(0, 100_000, size=40_000)
        det = self._det(times)
        net = _gated_phase_counts(det, vcfg, 0)
        # uniform background cancels up to Poisson noise of the two gates
        in_span = np.sum((times >= 1540) & (times < 64 * 1540))
        assert abs(net) <= 4 * math.sqrt(in_span)

    def test_edge_positions_ignored(self):
        from sdmqsim.config import validate_config

        vcfg = validate_config(SimConfig())
        det = self._det([770, 64 * 1540 + 770])  # the two edge pulses
        assert _gated_phase_counts(det, vcfg, 0) == 0.0


def _poisson_cells(lam, n):
    """Expected frame counts per click number: one cell per k whose
    expectation is >= 1, both tails lumped into the end cells."""
    pmf = [math.exp(k * math.log(lam) - lam - math.lgamma(k + 1)) for k in range(200)]
    ks = [k for k, p in enumerate(pmf) if p * n >= 1]
    lo, hi = ks[0], ks[-1]
    expect = [p * n for p in pmf[lo : hi + 1]]
    expect[0] += sum(pmf[:lo]) * n
    expect[-1] = n * (1.0 - sum(pmf[:hi]))
    return lo, hi, np.array(expect)


class TestSparseSampler:
    """``_poisson_frames`` has the law of one Poisson draw per frame."""

    @pytest.mark.parametrize(
        "lam,nb", [(0.002, 1 << 20), (0.5, 1 << 16), (17.0, 1 << 16)]
    )
    def test_per_frame_counts_are_poisson(self, lam, nb):
        # phase_er, reference and saturated regimes
        gen = RandomSource(5).stream(0, int(lam * 1000)).generator()
        idx = _poisson_frames(gen, lam, nb)
        assert np.all(np.diff(idx) >= 0)
        assert len(idx) == 0 or (idx[0] >= 0 and idx[-1] < nb)
        per_frame = np.bincount(idx, minlength=nb)
        assert len(per_frame) == nb
        lo, hi, expect = _poisson_cells(lam, nb)
        observed = np.bincount(np.clip(per_frame, lo, hi) - lo, minlength=hi - lo + 1)
        sigma = np.sqrt(expect * (1.0 - expect / nb))
        assert np.all(np.abs(observed - expect) <= 5 * sigma), (observed, expect)

    def test_per_frame_rates_thinned_to_each_frames_mean(self):
        # bb84's ports: every frame has its own rate; frames of each rate
        # level have that level's Poisson law, and rate 0 draws nothing
        levels = np.array([0.0, 0.05, 0.5, 4.0])
        nb = 1 << 16
        lam = levels[np.arange(nb) % len(levels)]
        gen = RandomSource(5).stream(1).generator()
        idx = _poisson_frames(gen, lam, nb)
        assert np.all(np.diff(idx) >= 0)
        assert idx[0] >= 0 and idx[-1] < nb
        per_frame = np.bincount(idx, minlength=nb)
        assert per_frame[lam == 0].sum() == 0
        for level in levels[1:]:
            counts = per_frame[lam == level]
            lo, hi, expect = _poisson_cells(level, len(counts))
            observed = np.bincount(np.clip(counts, lo, hi) - lo, minlength=hi - lo + 1)
            sigma = np.sqrt(expect * (1.0 - expect / len(counts)))
            assert np.all(np.abs(observed - expect) <= 5 * sigma), (level, observed, expect)

    def test_zero_rate_draws_nothing(self):
        gen = RandomSource(5).generator()
        assert len(_poisson_frames(gen, 0.0, 1000)) == 0


class TestRunnerGuards:
    # Scenario itself rejects these, so no time-bin runner sees them
    def test_timebin_requires_pure_timebin_stream(self):
        sc = load_scenario(SCENARIOS / "timebin_b.ini")
        with pytest.raises(ConfigError, match="p_tb must be 1"):
            replace(sc, cfg=replace(sc.cfg, p_tb=0.5))

    def test_timebin_requires_fixed_slots(self):
        sc = load_scenario(SCENARIOS / "timebin_b.ini")
        signals = tuple(
            replace(s, fixed_slot=None) if s.signal_id == "A" else s
            for s in sc.signals
        )
        with pytest.raises(ConfigError, match="fixed_slot .* on signal A"):
            replace(sc, signals=signals)

    def test_phase_sweep_requires_points(self):
        with pytest.raises(ConfigError, match="sweep_phi_b"):
            ExperimentSpec(kind="phase_sweep")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown experiment kind"):
            ExperimentSpec(kind="banana")


class TestCapacityTheoryPart:
    def test_analytic_budget_formula(self):
        sc = load_scenario(SCENARIOS / "capacity.ini").with_overrides(n_frames=50_000)
        result = run_scenario(sc)
        extra = result.report.extra
        assert extra["theory_single_signal_cps"] == pytest.approx(
            1.0 * 0.15 * 5e6 * 10 ** (-0.83), rel=1e-12
        )
        # Monte Carlo within 4 sigma at this reduced scale
        n = 50_000
        expect = extra["theory_single_signal_cps"] * n / 5e6
        got = extra["mc_single_signal_cps"] * n / 5e6
        assert abs(got - expect) <= 4 * math.sqrt(expect)

    def test_eta_ceiling_reported(self):
        sc = load_scenario(SCENARIOS / "capacity.ini").with_overrides(n_frames=20_000)
        rep = run_scenario(sc).report
        assert rep.extra["capacity_eta1_qubits_per_s"] == pytest.approx(
            rep.capacity_qubits_per_s / 0.15
        )


class TestPhaseErShape:
    def test_five_groups_reported(self):
        sc = load_scenario(SCENARIOS / "phase_er.ini").with_overrides(n_frames=30_000)
        result = run_scenario(sc)
        rep = result.report
        assert sorted(rep.er_db_per_group) == [1, 2, 3, 4, 5]
        assert set(result.er_by_group[2]) == {"B", result.er_by_group[2][1]}
        # interfering and blocked histograms exported per group
        assert any(k.endswith("interfering") for k in result.histograms)
        assert any(k.endswith("blocked") for k in result.histograms)

    def test_blocked_arm_reference_above_interfering(self):
        sc = load_scenario(SCENARIOS / "phase_er.ini").with_overrides(n_frames=60_000)
        rep = run_scenario(sc).report
        # destructive setting: every group shows positive extinction
        assert all(v > 3.0 for v in rep.er_db_per_group.values())


class TestOnePathCrossCheck:
    """Clicks drawn by the one sampler match the analytic rates.

    One signal through a flat 0 dB link (lam = mu * eta clicks per frame),
    dead time 0 and gate "always", so every drawn click is counted.  Each
    window count is within 4 sigma of its rate times ``n_frames``; the
    uniform floor's share of a window is its overlap with the occupied
    window, shifted by one pulse period behind the delay arm.
    """

    N = 200_000
    MU, ETA, FLOOR, V = 2.0, 0.15, 0.3, 0.93

    def _setup(self, **sim):
        sig = SignalAssignment("A", input_group=1, fixed_slot=20)
        sc = Scenario(
            name="xcheck",
            cfg=SimConfig(mu_in=self.MU, eta=self.ETA, dead_time_ps=0, seed=7, **sim),
            signals=(sig,),
            channel=ChannelSpec(uniform_il_db=0.0),
            experiment=ExperimentSpec(
                kind="phase_er", n_frames=self.N, collections={"A": (1,)},
                visibility_cap=self.V, phase_floor=self.FLOOR,
            ),
        )
        return sc, sc.validated(), build_channel(sc)

    def _check(self, det, edges, rates):
        counts = np.histogram(det.t_within, bins=edges)[0]
        assert counts.sum() == len(det.t_within)
        for got, rate in zip(counts, rates):
            expect = rate * self.N
            assert abs(got - expect) <= 4 * math.sqrt(expect), (counts, rates)

    @staticmethod
    def _floor_share(lo, hi, window, shifts):
        """Fraction of a uniform floor over ``[s, s + window)`` in [lo, hi)."""
        return sum(
            max(0, min(hi, s + window) - max(lo, s)) / window for s in shifts
        ) / len(shifts)

    def test_timebin_pulse_slot_and_floor(self):
        sc, vcfg, ch = self._setup(im_extinction=63.0)  # half the photons in the floor
        det = _simulate_timebin_detector(sc, vcfg, ch, 0, (1,), "always", ["A"], self.N)
        tp, w = vcfg.pulse_period_ps, vcfg.frame_window_ps
        lam = self.MU * self.ETA
        pulse, floor = lam * 0.5, lam * 0.5
        edges = [0, 20 * tp, 21 * tp, w, vcfg.frame_period_ps]
        share = [self._floor_share(a, b, w, (0,)) for a, b in zip(edges, edges[1:])]
        rates = [floor * x for x in share]
        rates[1] += pulse
        assert rates[3] == 0.0
        self._check(det, edges, rates)

    @pytest.mark.parametrize(
        "arm,port,shifts",
        [
            pytest.param("none", "p", (0, 1), id="none-p"),
            pytest.param("none", "p_prime", (0, 1), id="none-p_prime"),
            pytest.param("delay", "p", (0,), id="delay-p"),
            pytest.param("direct", "p", (1,), id="direct-p"),
        ],
    )
    def test_phase_positions_and_floor(self, arm, port, shifts):
        sc, vcfg, ch = self._setup()
        phi = 1.0
        det = _simulate_phase_detector(
            sc, vcfg, ch, 0, (1,), "always", ["A"], self.N, phi, port, arm, 0
        )
        law = delay_interferometer_rates(
            self.MU * self.ETA, vcfg.d, self.V, phi, arm, self.FLOOR
        )
        d, tp, w = vcfg.d, vcfg.pulse_period_ps, vcfg.frame_window_ps
        interior = law.interior_p if port == "p" else law.interior_p_prime
        # edge 0, interior, edge d, floor only
        edges = [0, tp, d * tp, (d + 1) * tp, w + tp]
        floor = [
            law.floor * self._floor_share(a, b, w, [s * tp for s in shifts])
            for a, b in zip(edges, edges[1:])
        ]
        pulses = [law.edge_0, interior, law.edge_d, 0.0]
        self._check(det, edges, [f + x for f, x in zip(floor, pulses)])


class TestExactWindows:
    def test_snr_from_exact_timestamp_windows(self):
        # at mu_in = 1000 slot edges at k * 1540 ps, off the 25 ps histogram
        # grid, hold enough clicks that a binned count would differ
        sc = load_scenario(SCENARIOS / "timebin_b.ini").with_overrides(n_frames=20_000)
        sc = replace(sc, cfg=replace(sc.cfg, mu_in=1000.0))
        vcfg, ch, exp = sc.validated(), build_channel(sc), sc.experiment
        report = run_scenario(sc).report
        tp, w = vcfg.pulse_period_ps, vcfg.frame_window_ps
        enabled = [s.signal_id for s in sc.signals]
        for det_idx, (sid, groups) in enumerate(sorted(exp.collections.items())):
            det = _simulate_timebin_detector(
                sc, vcfg, ch, det_idx, groups, exp.gates[sid], enabled, exp.n_frames
            )
            t = det.t_within
            sig = sc.signal(sid)
            off = sig.offset_ps(vcfg)
            slots = [sig.fixed_slot] + [
                o.fixed_slot for o in sc.signals
                if o is not sig and o.offset_ps(vcfg) == off
            ]
            in_slot = [np.count_nonzero((t >= off + k * tp) & (t < off + (k + 1) * tp))
                       for k in slots]
            half = np.count_nonzero((t >= off) & (t < off + w))
            floor = (half - sum(in_slot)) * w / (w - len(slots) * tp)
            assert report.snr_db_per_signal[sid] == pytest.approx(
                10 * math.log10(in_slot[0] / floor), rel=1e-12, abs=0
            ), sid


class TestBb84KeyRate:
    """The reported key rate is the finite-key bound at the simulated QBER."""

    @pytest.mark.parametrize("name", ["bb84", "bb84_eve"])
    def test_key_rate_from_simulated_qber(self, name):
        sc = load_scenario(SCENARIOS / f"{name}.ini").with_overrides(n_frames=400_000)
        rep = run_scenario(sc).report
        n = rep.extra["n_sifted"]
        assert rep.extra["key_rate_params_n"] == n
        assert rep.key_rate == key_rate(KeyRateParams(n=n, q_tol=rep.qber_sifted))
        if name == "bb84_eve":
            assert rep.key_rate == 0.0  # QBER 0.25: the protocol aborts
        else:
            assert 0.0 < rep.key_rate < key_rate(KeyRateParams())
