import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from law_reference import per_ps

from sdmqsim import pipeline, scenarios
from sdmqsim.channel import ChannelModel, load_link_tables
from sdmqsim.cli import main
from sdmqsim.config import (
    DELTA_T1,
    DELTA_T2,
    ROLE_PHOTONS,
    ConfigError,
    RandomSource,
    SignalAssignment,
    SimConfig,
)
from sdmqsim.pipeline import (
    BATCH,
    Cells,
    Floor,
    Pulse,
    _cell_edges,
    _detector_cells,
    _first_click_counts,
    _first_click_law,
    _mean_db,
    _phase_components,
    _phase_gates,
    _phase_law,
    _poisson_frames,
    _timebin_law,
    expected_collection_rate,
    run_scenario,
)
from sdmqsim.protocol import (
    N_CELLS,
    N_STATES,
    N_WORDS,
    PHASE_TABLE,
    key_rate,
    state_table,
)
from sdmqsim.receiver import delay_interferometer_rates, gate_mask
from sdmqsim.scenarios import ExperimentSpec, Scenario, load_scenario

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "scenarios"


@pytest.fixture(scope="module")
def tables():
    return load_link_tables()


@pytest.fixture(scope="module")
def capacity_scenario():
    return load_scenario(SCENARIOS / "capacity.ini")


class TestExpectedRates:
    def test_matches_hand_product(self, capacity_scenario):
        sc = capacity_scenario
        channel = sc.channel
        # mu * 10^(IL/10) * 10^(excess/10) * collection fraction * eta * R_f
        sig = sc.signal("A")
        hand = (
            2.5
            * 10 ** ((-12.66 + sig.excess_db) / 10)
            * channel.xt[0][0]
            * 0.15
            * 5e6
        )
        got = expected_collection_rate(sc, channel, "A", (1,))
        assert got == pytest.approx(hand, rel=1e-12)

    def test_excess_toggle(self, capacity_scenario):
        sc = capacity_scenario
        channel = sc.channel
        with_cal = expected_collection_rate(sc, channel, "C", (4, 5))
        bare_sc = replace(sc, signals=tuple(replace(s, excess_db=0.0) for s in sc.signals))
        bare = expected_collection_rate(bare_sc, channel, "C", (4, 5))
        ratio = with_cal / bare
        assert ratio == pytest.approx(10 ** (sc.signal("C").excess_db / 10), rel=1e-12)


def _gated_counts(times, vcfg, offset=0) -> float:
    """phase_sweep's gated count of clicks at ``times``, read from cells
    that hold its gates."""
    on, off = _phase_gates(vcfg, offset)
    edges = _cell_edges(vcfg, (on, off))
    cells = Cells(edges, np.searchsorted(np.sort(times), edges))
    return float(cells.count(*on) - cells.count(*off))


class TestGatedPhaseCounts:
    def test_pulse_centered_clicks_counted(self):
        vcfg = SimConfig()
        # clicks exactly on interior position centers
        times = [j * 1540 + 770 for j in range(1, 64)]
        assert _gated_counts(times, vcfg) == 63.0

    def test_uniform_floor_subtracts_to_zero_mean(self):
        vcfg = SimConfig()
        gen = np.random.default_rng(5)
        times = gen.integers(0, 100_000, size=40_000)
        net = _gated_counts(times, vcfg)
        # uniform background cancels up to Poisson noise of the two gates
        in_span = np.sum((times >= 1540) & (times < 64 * 1540))
        assert abs(net) <= 4 * math.sqrt(in_span)

    def test_edge_positions_ignored(self):
        vcfg = SimConfig()
        # the two edge pulses
        assert _gated_counts([770, 64 * 1540 + 770], vcfg) == 0.0

    @pytest.mark.parametrize("tp,d,offset", [(1540, 64, 0), (1540, 64, 100_000),
                                             (1541, 64, 100_000), (1000, 9, 0),
                                             (751, 4, 0), (700, 4, 100_000), (97, 5, 0)])
    def test_gates_match_per_click_rule(self, tp, d, offset):
        # the gates as windows count what the per-click rule counts, where
        # a position is narrower than the gates too: on within 375 ps of
        # the position's center, off farther than tp // 2 - 375 ps from it;
        # no jitter, which may not exceed the pulse period and the gates ignore
        vcfg = SimConfig(pulse_period_ps=tp, d=d, jitter_sigma_ps=0)
        t = np.random.default_rng(tp).integers(0, vcfg.frame_period_ps, size=50_000)
        j = (t - offset) // tp
        interior = (j >= 1) & (j <= d - 1)
        dist = np.abs(t - (offset + j * tp + tp // 2))
        want = np.sum(interior & (dist <= 375)) - np.sum(interior & (dist > tp // 2 - 375))
        assert _gated_counts(t, vcfg, offset) == float(want)


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


def _usable(rate):
    """Per frame class, the chances that port P (``1 - e^{-rate}``) and
    port P' (half that) are usable."""
    p = -np.expm1(-rate)
    return p, p / 2


def _exchange_tallies(monkeypatch, seed, nb, usable, eve):
    """The tallies of an ``nb``-frame exchange whose ports are usable, per
    class, with the chances ``usable`` in place of the ports' law."""
    monkeypatch.setattr(pipeline, "_port_usable", lambda cfg, law: usable)
    return pipeline.simulate_bb84(SimConfig(seed=seed), nb, 2.0, eve=eve).tallies


def _gathered_tallies(seed, nb, usable_of_word):
    """The tally of ``nb <= BATCH`` frames drawn by hand from stream
    ``(ROLE_PHOTONS,)`` over a law gathered one state word at a time:
    ``usable_of_word(w)`` gives word ``w``'s port chances, and the word adds
    them, a 32nd each, to the cells of its low three bits (inconclusive,
    lit P' alone, lit P alone)."""
    law = np.zeros(N_CELLS)
    for word in range(N_STATES):
        p, pp = usable_of_word(word)
        lp, lpp = p * (1 - pp), pp * (1 - p)
        for k, chance in enumerate((1 - lp - lpp, lpp, lp)):
            law[3 * (word % N_WORDS) + k] += chance / N_STATES
    return RandomSource(seed).stream(ROLE_PHOTONS).generator().multinomial(nb, law)[None]


class TestSparseSampler:
    """``_poisson_frames`` has the law of one Poisson draw per frame, and the
    exchange draws its tally over each frame class's port chances."""

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

    @pytest.mark.parametrize("table", [
        np.array([0.3, 2.0, 0.7, 2.0]),  # a tie at the top rate
        np.array([2.0, 2.0, 2.0, 2.0]),
        np.array([0.0, 0.05, 0.5, 4.0]),
        np.array([0.0, 0.0, 0.0, 0.0]),  # every frame inconclusive
    ])
    @pytest.mark.parametrize("nb", [*range(1, 11), BATCH])
    def test_rate_table_lookup_matches_full_gather(self, monkeypatch, table, nb):
        # the exchange looks its port chances up once a class; the
        # reference gathers them a state word through ``state_table`` and
        # draws the tally by hand, draw for draw, with and without Eve
        top = np.flatnonzero(table == table.max())
        classes = np.arange(len(PHASE_TABLE)) % len(table)
        # every rate, the top rate missing, and one rate alone
        for cls in (classes,
                    np.where(np.isin(classes, top), (top[-1] + 1) % len(table), classes),
                    np.full(len(PHASE_TABLE), 2)):
            p, pp = _usable(table[cls])
            for eve in (False, True):
                word_cls = state_table(eve)
                for seed in range(3):
                    np.testing.assert_array_equal(
                        _exchange_tallies(monkeypatch, seed, nb, (p, pp), eve),
                        _gathered_tallies(seed, nb, lambda w: (p[word_cls[w]], pp[word_cls[w]])))

    @pytest.mark.parametrize("eve", [0, 1])
    @pytest.mark.parametrize("table", [
        np.array([0.3, 2.0, 0.7, 2.0]),
        np.array([0.0, 0.05, 0.5, 4.0]),
    ])
    @pytest.mark.parametrize("nb", [1, 7, 63, 64, 65, BATCH])
    def test_planes_draw_as_their_class_array(self, monkeypatch, table, nb, eve):
        # a state word packs its frame's class: port chances read per class
        # draw as those of each word's class, worked out by hand from its
        # bits (Eve's bits ignored without her), and looked up by class
        p, pp = _usable(np.concatenate([table, table[::-1]]))

        def by_class(word):
            bit, alice_x, bob_x, eve_x, eve_bit = (word >> k & 1 for k in range(5))
            if eve and eve_x != alice_x:  # Eve re-sends her own bit in her basis
                bit, alice_x = eve_bit, eve_x
            cls = 4 * bit + 2 * (1 - alice_x) + (1 - bob_x)
            return p[cls], pp[cls]

        for seed in range(3):
            np.testing.assert_array_equal(
                _exchange_tallies(monkeypatch, seed, nb, (p, pp), bool(eve)),
                _gathered_tallies(seed, nb, by_class))

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


class TestNoClick:
    """At eta = 0 no click is possible: every estimate a count window gives
    is null, a top-level one is left out, and none reads as eliminated."""

    TABLES = {
        "timebin_b": ("xt_db", "snr_db_per_signal", "rho_diag", "extra.rho_kk"),
        "timebin_xt": ("xt_db", "snr_db_per_signal", "rho_diag", "extra.rho_kk"),
        "phase_er": ("er_db_per_group", "extra.p_phi_by_group"),
        "phase_sweep": ("visibility",),
    }

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_every_estimate_null(self, name, tmp_path):
        text = (SCENARIOS / f"{name}.ini").read_text()
        assert text.count("\neta = 0.15\n") == 1
        ini = tmp_path / f"{name}.ini"
        ini.write_text(text.replace("\neta = 0.15\n", "\neta = 0\n"))
        assert main(["run", str(ini), "--frames", "1000", "--out", str(tmp_path / "out")]) == 0
        written = (tmp_path / "out" / "report.json").read_text()
        report = json.loads(written)
        for path in self.TABLES[name]:
            table = report
            for key in path.split("."):
                table = table[key]
            assert table and set(table.values()) == {None}, path
        assert not {"snr_db", "p_snr", "p_xt", "er_db_mean", "p_phi"} & report.keys()
        assert "eliminated" not in written


class TestCapacityTheoryPart:
    def test_analytic_budget_formula(self):
        sc = load_scenario(SCENARIOS / "capacity.ini").with_overrides(n_frames=50_000)
        result = run_scenario(sc)
        extra = result.report["extra"]
        assert extra["theory_single_signal_cps"] == pytest.approx(
            1.0 * 0.15 * 5e6 * 10 ** (-0.83), rel=1e-12
        )
        # Monte Carlo within 4 sigma at this reduced scale
        n = 50_000
        expect = extra["theory_single_signal_cps"] * n / 5e6
        got = extra["mc_single_signal_cps"] * n / 5e6
        assert abs(got - expect) <= 4 * math.sqrt(expect)

    def test_link_tables_read_once(self, monkeypatch):
        # the tables are read once, when the scenario loads; the run, and
        # its flat single-signal budget (the scenario's channel with a flat
        # loss), read none
        reads = []
        load = scenarios.load_link_tables
        monkeypatch.setattr(scenarios, "load_link_tables",
                            lambda *args: reads.append(args) or load(*args))
        sc = load_scenario(SCENARIOS / "capacity.ini").with_overrides(n_frames=1000)
        assert len(reads) == 1
        run_scenario(sc)
        assert len(reads) == 1

    def test_eta_ceiling_reported(self):
        sc = load_scenario(SCENARIOS / "capacity.ini").with_overrides(n_frames=20_000)
        rep = run_scenario(sc).report
        assert rep["extra"]["capacity_eta1_qubits_per_s"] == pytest.approx(
            rep["capacity_qubits_per_s"] / 0.15
        )


class TestPhaseErShape:
    def test_five_groups_reported(self):
        sc = load_scenario(SCENARIOS / "phase_er.ini").with_overrides(n_frames=30_000)
        result = run_scenario(sc)
        rep = result.report
        assert sorted(rep["er_db_per_group"]) == [1, 2, 3, 4, 5]
        assert {g: sid for g, sid, _ in result.tables["er_by_group.csv"]}[2] == "B"
        # interfering and blocked histograms exported per group
        assert any(k.endswith("interfering") for k in result.histograms)
        assert any(k.endswith("blocked") for k in result.histograms)

    def test_blocked_arm_reference_above_interfering(self):
        sc = load_scenario(SCENARIOS / "phase_er.ini").with_overrides(n_frames=60_000)
        rep = run_scenario(sc).report
        # destructive setting: every group shows positive extinction
        assert all(v > 3.0 for v in rep["er_db_per_group"].values())


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

    def _setup(self, tables, **sim):
        sig = SignalAssignment("A", input_group=1, fixed_slot=20)
        sc = Scenario(
            name="xcheck",
            cfg=SimConfig(mu_in=self.MU, eta=self.ETA, dead_time_ps=0, seed=7, **sim),
            signals=(sig,),
            channel=ChannelModel(*tables, uniform_il_db=0.0),
            experiment=ExperimentSpec(
                kind="phase_er", n_frames=self.N, collections={"A": (1,)},
                visibility_cap=self.V, phase_floor=self.FLOOR,
            ),
        )
        return sc, sc.cfg, sc.channel

    def _draw(self, key, components, vcfg, edges):
        """The one detector's cells over ``N`` frames, holding ``edges``."""
        windows = (edges[:-1], edges[1:])
        return _detector_cells(key, components, vcfg, "always", self.N,
                               _cell_edges(vcfg, [windows])), windows

    def _check(self, drawn, rates):
        det, windows = drawn
        counts = [det.count(lo, hi) for lo, hi in zip(*windows)]
        assert sum(counts) == det.before[-1]
        for got, rate in zip(counts, rates):
            expect = rate * self.N
            assert abs(got - expect) <= 4 * math.sqrt(expect), (counts, rates)

    @staticmethod
    def _floor_share(lo, hi, window, shifts):
        """Fraction of a uniform floor over ``[s, s + window)`` in [lo, hi)."""
        return sum(
            max(0, min(hi, s + window) - max(lo, s)) / window for s in shifts
        ) / len(shifts)

    def test_timebin_pulse_slot_and_floor(self, tables):
        sc, vcfg, ch = self._setup(tables, im_extinction=63.0)  # half the photons in the floor
        tp, w = vcfg.pulse_period_ps, vcfg.frame_window_ps
        lam = self.MU * self.ETA
        pulse, floor = lam * 0.5, lam * 0.5
        edges = [0, 20 * tp, 21 * tp, w, vcfg.frame_period_ps]
        share = [self._floor_share(a, b, w, (0,)) for a, b in zip(edges, edges[1:])]
        rates = [floor * x for x in share]
        rates[1] += pulse
        assert rates[3] == 0.0
        self._check(self._draw((ROLE_PHOTONS, 0), _timebin_law(vcfg, ch, sc.signals, (1,)), vcfg,
                               np.array(edges)), rates)

    @pytest.mark.parametrize(
        "arm,port,shifts",
        [
            pytest.param("none", "p", (0, 1), id="none-p"),
            pytest.param("none", "p_prime", (0, 1), id="none-p_prime"),
            pytest.param("delay", "p", (0,), id="delay-p"),
            pytest.param("direct", "p", (1,), id="direct-p"),
        ],
    )
    def test_phase_positions_and_floor(self, arm, port, shifts, tables):
        sc, vcfg, ch = self._setup(tables)
        phi = 1.0
        law = delay_interferometer_rates(
            self.MU * self.ETA, vcfg.d, self.V, phi, arm, self.FLOOR
        )
        if port == "p":
            comps = _phase_law(vcfg, ch, sc.signals, (1,), sc.experiment, phi, arm)
        else:  # the builder reads port P only; port P' is drawn from its components
            comps = [_phase_components(vcfg, law, port, arm, 0)]
        d, tp, w = vcfg.d, vcfg.pulse_period_ps, vcfg.frame_window_ps
        interior = law.interior_p if port == "p" else law.interior_p_prime
        # edge 0, interior, edge d, floor only
        edges = [0, tp, d * tp, (d + 1) * tp, w + tp]
        floor = [
            law.floor * self._floor_share(a, b, w, [s * tp for s in shifts])
            for a, b in zip(edges, edges[1:])
        ]
        pulses = [law.edge_0, interior, law.edge_d, 0.0]
        self._check(self._draw((ROLE_PHOTONS, 0, 0), comps, vcfg, np.array(edges)),
                    [f + x for f, x in zip(floor, pulses)])


def _traced_cells(monkeypatch) -> list:
    """The ``(key, cells)`` of every detector drawn into cells from now on."""
    drawn, draw = [], pipeline._detector_cells

    def traced(key, *rest, **kwargs):
        drawn.append((key, draw(key, *rest, **kwargs)))
        return drawn[-1][1]

    monkeypatch.setattr(pipeline, "_detector_cells", traced)
    return drawn


def _gated_rates(components, vcfg, gate) -> np.ndarray:
    """Each signal's mean clicks a ps over the frame, from its components'
    per-ps law (``per_ps``), and 0 outside ``gate``."""
    lam = np.zeros((len(components), vcfg.frame_period_ps))
    for row, comps in zip(lam, components):
        for rate, placement in comps:
            row += rate * per_ps(placement, vcfg)
    lam[:, ~gate_mask(np.arange(vcfg.frame_period_ps), gate, vcfg.frame_window_ps)] = 0.0
    return lam


def _per_cell(per_ps, edges) -> np.ndarray:
    """Rows of a per-ps quantity summed over the cells between ``edges``."""
    k = np.searchsorted(edges, np.arange(per_ps.shape[1]), side="right") - 1
    return np.stack([np.bincount(k, row, minlength=len(edges) - 1) for row in per_ps])


def _first_click_mass(components, vcfg, gate, edges) -> np.ndarray:
    """Exact mass in each cell of a frame's first gated click, from each
    component's per-ps law by a plain cumulative product over the ps: the
    click is at ps ``t`` when no signal clicked before ``t`` and one clicks
    at ``t``."""
    lam = _gated_rates(components, vcfg, gate).sum(axis=0)
    before = np.concatenate([[1.0], np.cumprod(np.exp(-lam))[:-1]])
    return _per_cell((before * -np.expm1(-lam))[None], edges)[0]


def _slot_edges(vcfg) -> np.ndarray:
    """The pulse slots' edges in both halves, and the frame's end."""
    slots = np.arange(vcfg.d + 1) * vcfg.pulse_period_ps
    return np.concatenate([slots, vcfg.frame_window_ps + slots, [vcfg.frame_period_ps]])


def _saturated_detectors():
    """timebin_b at mu_in = 1000 (the benchmark's timebin_saturated): each
    collection's ``(components, gate)``."""
    sc = load_scenario(SCENARIOS / "timebin_b.ini")
    sc = replace(sc, cfg=replace(sc.cfg, mu_in=1000.0))
    vcfg, ch, exp = sc.cfg, sc.channel, sc.experiment
    return vcfg, [(_timebin_law(vcfg, ch, sc.signals, groups), exp.gates[sid])
                  for sid, groups in sorted(exp.collections.items())]


# three signals over both halves: a pulse and a floor, a four-slot train
# and a split floor, and a lone pulse
MIXED = [[(2.0, Pulse(30_000)), (0.5, Floor(0))],
         [(1.0, Pulse(130_000, 4, 1540)), (0.3, Floor(100_000, 1540))],
         [(0.8, Pulse(31_000))]]


def _histogram_edges(vcfg) -> np.ndarray:
    """The slot edges with the 25 ps histogram bins' edges among them, as a
    runner that reads a histogram draws a dense detector between."""
    return _cell_edges(vcfg, [_slot_edges(vcfg), np.arange(0, vcfg.frame_period_ps,
                                                             vcfg.hist_res_ps)])


def _dense_phase(vcfg) -> list:
    """A phase detector watching two trains, one in each half, each at 2
    clicks a frame: with the default 100 ps jitter the 63-slot interior
    train's slots overlap, so it has mass at every ps of the train."""
    rates = delay_interferometer_rates(2.0, vcfg.d, 0.93, math.pi, "none", 0.12655)
    return [_phase_components(vcfg, rates, "p", "none", off) for off in (0, vcfg.frame_window_ps)]


def _law_cases():
    """``(id, components, vcfg)`` of the first-click law's exact checks."""
    vcfg, detectors = _saturated_detectors()
    cases = [(f"saturated_timebin_{i}", comps, vcfg) for i, (comps, _) in enumerate(detectors)]
    base = SimConfig(seed=0)
    cases += [("mixed", MIXED, base),
              ("dense_phase", _dense_phase(base), base)]
    for sigma in (0.0, float(base.pulse_period_ps)):
        jittered = SimConfig(seed=0, jitter_sigma_ps=sigma)
        cases += [(f"mixed_sigma_{sigma:g}", MIXED, jittered),
                  (f"dense_phase_sigma_{sigma:g}", _dense_phase(jittered), jittered)]
    cases += [
        # clamped at the frame's last ps and at ps 0, beside a floor
        ("clamped", [[(1.5, Pulse(199_950)), (0.2, Floor(100_000))],
                     [(0.7, Pulse(120)), (0.1, Floor(0, 1540))]], base),
        ("zero_rate_signal", [[(0.0, Pulse(30_000))], *MIXED], base),
        # nothing in the second half: with gate dt2 no frame clicks
        ("first_half_only", [[(1.0, Pulse(30_000)), (0.5, Floor(0))]], base),
    ]
    sc = load_scenario(SCENARIOS / "timebin_b.ini")
    sc = replace(sc, cfg=replace(sc.cfg, mu_in=1e9))  # e^{-C} underflows
    vcfg, ch = sc.cfg, sc.channel
    for sid, groups in sorted(sc.experiment.collections.items()):
        cases.append((f"mu_1e9_{sid}", _timebin_law(vcfg, ch, sc.signals, groups), vcfg))
    return cases


class TestFirstClickLaw:
    """The first-click law telescoped over the cells equals the per-ps
    cumulative product of ``_first_click_mass`` in every cell, and
    ``p_click`` is its total, at both gates, between the slot edges and
    between the histogram's.  A cell in a jitter's far tail, of mass
    ~1e-16, is held to an absolute 1e-18."""

    CASES = _law_cases()

    @pytest.mark.parametrize("gate", [DELTA_T1, DELTA_T2])
    @pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
    def test_matches_per_ps_reference(self, case, gate):
        _, components, vcfg = case
        for edges in (_slot_edges(vcfg), _histogram_edges(vcfg)):
            p_click, mass = _first_click_law(components, vcfg, gate, edges)
            ref = _first_click_mass(components, vcfg, gate, edges)
            assert mass.shape == ref.shape and (mass >= 0).all()
            np.testing.assert_allclose(mass, ref, rtol=1e-9, atol=1e-18)
            assert p_click == pytest.approx(mass.sum(), rel=1e-9, abs=0)

    def test_no_rate_in_the_gated_half(self):
        vcfg = SimConfig(seed=0)
        p_click, mass = _first_click_law([[(1.0, Pulse(30_000)), (0.5, Floor(0))]], vcfg,
                                         DELTA_T2, _histogram_edges(vcfg))
        assert p_click == 0 and not mass.any()
        assert not _first_click_counts(RandomSource(1), (ROLE_PHOTONS, 0),
                                       [[(1.0, Pulse(30_000))]], vcfg, DELTA_T2, 1000,
                                       _slot_edges(vcfg)).any()


class TestPortLaw:
    """Each of Bob's ports is usable, per class, with the mass of its first
    ``dt1`` click on the interior positions: ``_port_usable``, the
    first-click law at the window's edges with both ports' rates stacked,
    equals ``_first_click_mass`` over the cell ``[lo, hi)``, the port's
    components one signal, at ``TestFirstClickLaw``'s tolerances."""

    @pytest.mark.parametrize("floor", [0.0, 0.12655])
    @pytest.mark.parametrize("v", [0.93, 1.0])
    @pytest.mark.parametrize("sigma", [0.0, 100.0, float(SimConfig().pulse_period_ps)])
    @pytest.mark.parametrize("flux", [0.02, 2.0, 50.0])
    def test_matches_first_click_mass(self, flux, sigma, v, floor):
        cfg = SimConfig(jitter_sigma_ps=sigma)
        lo, hi = pipeline._interior_window(cfg, 0)
        edges = np.array([0, lo, hi, cfg.frame_period_ps])
        law = delay_interferometer_rates(cfg.eta * flux, cfg.d, v, PHASE_TABLE, "none", floor)
        for port, usable in zip(("p", "p_prime"), pipeline._port_usable(cfg, law)):
            for cls, phi in enumerate(PHASE_TABLE):
                rates = delay_interferometer_rates(cfg.eta * flux, cfg.d, v, phi, "none", floor)
                port_law = [list(_phase_components(cfg, rates, port, "none", 0))]
                ref = _first_click_mass(port_law, cfg, DELTA_T1, edges)[1]
                np.testing.assert_allclose(usable[cls], ref, rtol=1e-9, atol=1e-18)

    def test_builds_no_per_ps_law(self, monkeypatch):
        # erfc only at the edges inside each slot's support, at most one a
        # slot and edge and one a pulse for its truncated tail, not a
        # kernel's 2 h + 2 values; no array of a quarter of the frame's ps
        calls, erfc = [], math.erfc
        monkeypatch.setattr(math, "erfc", lambda x: calls.append(x) or erfc(x))
        for sigma in (100.0, float(SimConfig().pulse_period_ps)):
            cfg = SimConfig(jitter_sigma_ps=sigma)
            law = delay_interferometer_rates(cfg.eta * 0.02, cfg.d, 0.93, PHASE_TABLE, "none", 0)
            calls.clear()
            tracemalloc.start()
            try:
                usable = pipeline._port_usable(cfg, law)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert usable.shape == (2, len(PHASE_TABLE)) and ((0 < usable) & (usable < 1)).all()
            assert 0 < len(calls) <= 5 * (cfg.d + 1) and peak < cfg.frame_period_ps * 8 // 4


class TestZeroMassSkip:
    """The multinomial over the cells of non-zero mass draws what one over
    every cell draws on the same stream: a category of mass 0 takes no
    randomness and gets no count."""

    N = 200_000

    @pytest.mark.parametrize("seed", [11, 12, 13])
    @pytest.mark.parametrize("det", range(3))
    def test_matches_full_layout(self, det, seed):
        vcfg, detectors = _saturated_detectors()
        components, gate = detectors[det]
        edges, key = _histogram_edges(vcfg), (ROLE_PHOTONS, det)
        counts = _first_click_counts(RandomSource(seed), key, components, vcfg, gate, self.N,
                                     edges)
        p_click, mass = _first_click_law(components, vcfg, gate, edges)
        assert (mass == 0).any()  # the other half's cells: the skip is taken
        gen = RandomSource(seed).stream(*key, 0).generator()
        full = gen.multinomial(gen.binomial(self.N, p_click), mass.ravel() / mass.sum())
        np.testing.assert_array_equal(counts, full.reshape(mass.shape))
        assert not counts[mass == 0].any()


W, P, TP = 100_000, 200_000, 1540  # the default frame window, period and pulse period
# 0, or log-uniform from 1e-3 to ~3 clicks a frame
_RATE = st.floats(-3.5, 0.5).map(lambda x: 0.0 if x < -3 else 10.0 ** x)
_PLACEMENT = st.one_of(
    st.builds(Pulse, st.one_of(st.integers(0, P - 1), st.sampled_from([0, 60, P - 60, P - 1])),
              st.integers(1, 4), st.just(TP)),
    st.builds(Floor, st.sampled_from([0, W]), st.sampled_from([0, TP])),
)
# dt1 and dt2 with the dead time nested in the blank half, every gate with none
_GATE_TAU = st.sampled_from([(g, tau) for g in (DELTA_T1, DELTA_T2) for tau in (W, W + 1)]
                            + [(g, 0) for g in (DELTA_T1, DELTA_T2, "always")])
_SATURATED = _saturated_detectors()[1]


class TestDetectorLaw:
    """A runner detector's cells, drawn through ``_detector_cells``, follow
    its law whichever sampler draws them: the first-click law
    (``_first_click_mass``) where the dead time nests in the blank half,
    and n times the gated rate mass with no dead time, where every gated
    click is kept.  Each detector is drawn over ``N`` frames as counts
    (``FIRST_CLICK_DENSITY = 0``; only where the first-click rule holds),
    and on the Poisson path (``FIRST_CLICK_DENSITY = inf``), there at the
    default ``SPAN_CLICKS`` and at one-batch spans (``SPAN_CLICKS = 1``:
    three spans, the last partial).  Cells of no mass get no click, and a
    nested detector clicks at most once a frame.  Each draw's G statistic
    over the cells, and the frames with no click where nested, with the
    cells that expect < 5 pooled into one, is read as the Wilson-Hilferty
    z of its chi-square law and must be at most 5: a
    one-sided 2.9e-7 a draw.  The G-test spreads a uniform rate error over all its cells, so
    each draw's total clicks must also lie within 5 sigma of ``N`` times
    the total mass, the variance binomial where nested and Poisson with no
    dead time.  That bound is held where the variance is at least 1,000,
    where the exact tails are within ~10% of the normal's two-sided
    5.7e-7; a smaller variance has no power against a 1% error.  Both
    together fail a correct sampler under 1.4e-4 over the class's at most
    141 draws (47 examples, at most three draws each), which
    ``derandomize`` and fixed seeds make the same on every run."""

    N = 2 * BATCH + 123
    DRAWS = ((0.0, pipeline.SPAN_CLICKS), (math.inf, pipeline.SPAN_CLICKS), (math.inf, 1))

    @staticmethod
    def _z(obs, expect) -> float:
        """The Wilson-Hilferty z of the G statistic of counts ``obs``
        against ``expect``, the categories that expect < 5 pooled."""
        small = expect < 5
        obs = np.append(obs[~small], obs[small].sum()).astype(float)
        expect = np.append(expect[~small], expect[small].sum())
        held = expect > 0
        obs, expect, k = obs[held], expect[held], np.count_nonzero(held)
        if not k:
            return 0.0
        g = 2 * (obs * np.log(obs / expect, out=np.zeros(k), where=obs > 0) - obs + expect).sum()
        return (np.cbrt(g / k) - 1 + 2 / (9 * k)) / math.sqrt(2 / (9 * k))

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(components=st.lists(st.lists(st.tuples(_RATE, _PLACEMENT), min_size=1, max_size=2),
                               min_size=1, max_size=3),
           sigma=st.sampled_from([0.0, 100.0, float(TP)]), gate_tau=_GATE_TAU,
           extra=st.lists(st.integers(1, P - 1), max_size=4), seed=st.integers(0, 1 << 16))
    # jitter-free pulses of three signals on one ps
    @example(components=[[(lam, Pulse(500, 1, TP))] for lam in (0.2, 0.5, 0.3)], sigma=0.0,
             gate_tau=(DELTA_T1, W), extra=[500, 501], seed=1)
    # the benchmark's saturated time-bin detectors (timebin_b at mu_in = 1000)
    @example(components=_SATURATED[0][0], sigma=100.0, gate_tau=(_SATURATED[0][1], W), extra=[],
             seed=2)
    @example(components=_SATURATED[1][0], sigma=100.0, gate_tau=(_SATURATED[1][1], W), extra=[],
             seed=3)
    @example(components=_SATURATED[2][0], sigma=100.0, gate_tau=(_SATURATED[2][1], W), extra=[],
             seed=4)
    # a pulse clamped at the frame's last ps
    @example(components=[[(1.5, Pulse(199_950, 1, TP)), (0.2, Floor(W))],
                         [(0.7, Pulse(120, 1, TP))]],
             sigma=100.0, gate_tau=(DELTA_T2, W + 1), extra=[199_000], seed=5)
    # a signal of rate 0 beside a split floor
    @example(components=[[(0.0, Pulse(30_000, 1, TP))], [(0.4, Floor(0, TP))]], sigma=100.0,
             gate_tau=(DELTA_T1, W), extra=[], seed=6)
    # a train whose second slot lies past P - 1 and clamps to it
    @example(components=[[(1.0, Floor(0)), (1.0, Pulse(199_940, 2, TP))]], sigma=0.0,
             gate_tau=(DELTA_T2, W), extra=[], seed=0)
    def test_cells_follow_the_law(self, components, sigma, gate_tau, extra, seed):
        gate, tau = gate_tau
        vcfg = SimConfig(jitter_sigma_ps=sigma, dead_time_ps=tau, seed=seed)
        edges = _cell_edges(vcfg, [_slot_edges(vcfg), np.array(extra, dtype=np.int64)])
        if tau:
            mass = _first_click_mass(components, vcfg, gate, edges)
        else:
            mass = _per_cell(_gated_rates(components, vcfg, gate), edges).sum(axis=0)
        for density, span_clicks in self.DRAWS[0 if tau else 1:]:  # counts only if nested
            with mock.patch.multiple(pipeline, FIRST_CLICK_DENSITY=density,
                                     SPAN_CLICKS=span_clicks):
                cells = _detector_cells((ROLE_PHOTONS, 5), components, vcfg, gate, self.N, edges)
            self._check(cells, mass, tau, (density, span_clicks))

    def _check(self, cells, mass, nested, label):
        """The cells' counts against ``N`` times ``mass``."""
        counts = np.diff(cells.before)
        assert counts.shape == mass.shape, label
        assert (counts >= 0).all() and not counts[mass == 0].any(), label
        obs, expect = counts, self.N * mass
        total, p = counts.sum(), mass.sum()
        var = self.N * p * (1 - p) if nested else self.N * p
        if var >= 1000:
            assert abs(total - self.N * p) <= 5 * math.sqrt(var), label
        if nested:
            assert total <= self.N, label
            obs = np.append(obs, self.N - total)
            expect = np.append(expect, self.N * (1 - p))
        assert self._z(obs, expect) <= 5, label


class TestCellsRobust:
    """Runs into cells at the extremes, and windows off the cells' edges."""

    @staticmethod
    def _run(tmp_path, monkeypatch, frames, mu_in="1000"):
        """Run timebin_b at ``mu_in`` over ``frames`` frames through the CLI:
        its exit code, its report and its detectors' cells."""
        text = (SCENARIOS / "timebin_b.ini").read_text()
        assert "\nmu_in = 2.5\n" in text
        derived = tmp_path / "saturated.ini"
        derived.write_text(text.replace("\nmu_in = 2.5\n", f"\nmu_in = {mu_in}\n"))
        drawn = _traced_cells(monkeypatch)
        rc = main(["run", str(derived), "--frames", str(frames), "--out", str(tmp_path / "o")])
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        for _, det in drawn:  # counts of at most one click a frame
            assert (np.diff(det.before) >= 0).all() and det.before[-1] <= frames
        return rc, report, [det for _, det in drawn]

    def test_every_frame_clicks(self, tmp_path, monkeypatch):
        # at mu_in = 1e6 each detector's frames click with probability
        # -expm1(-C) == 1.0 in float, and every frame's click is counted
        sc = load_scenario(SCENARIOS / "timebin_b.ini")
        sc = replace(sc, cfg=replace(sc.cfg, mu_in=1e6))
        ch = sc.channel
        for sid, groups in sc.experiment.collections.items():
            gated = [s for s in sc.signals if s.delayed == sc.signal(sid).delayed]
            lam = sum(expected_collection_rate(sc, ch, s.signal_id, groups) for s in gated)
            assert -math.expm1(-lam / sc.cfg.frame_rate_hz) == 1.0
        rc, report, cells = self._run(tmp_path, monkeypatch, 1000, "1e6")
        # A, B, B's collection with B dark (no A or C click in its gate), C
        assert rc == 0 and [det.before[-1] for det in cells] == [1000, 1000, 0, 1000]

        def finite(value):
            if isinstance(value, dict):
                return all(map(finite, value.values()))
            return not isinstance(value, float) or math.isfinite(value)

        assert finite(report) and "nan" not in json.dumps(report)

    @pytest.mark.parametrize("frames", [1, 1000])
    def test_few_frames(self, tmp_path, monkeypatch, frames):
        rc, report, cells = self._run(tmp_path, monkeypatch, frames)
        assert rc == 0 and report["n_frames"] == frames and len(cells) == 4

    def test_saturated_detectors_drawn_as_counts(self, tmp_path, monkeypatch):
        # every saturated detector, the late signal's collection with that
        # signal dark too, is drawn as counts (the Poisson path at these
        # rates costs ~10x the run)
        monkeypatch.setattr(pipeline, "_finish_detector",
                            mock.Mock(side_effect=AssertionError("drawn on the Poisson path")))
        rc, report, cells = self._run(tmp_path, monkeypatch, 1000)
        assert rc == 0 and len(cells) == 4
        assert report["extra"]["ac_counts_in_dt2_on_B"] == 0

    def test_window_off_the_edges_raises(self):
        period = SimConfig().frame_period_ps
        # counts 3, 7 and 11
        cells = Cells(np.array([0, 100, 250, period]), np.array([0, 3, 10, 21]))
        assert cells.count(0, 250) == 10 and cells.count(100, period) == 18
        assert cells.count(np.array([0, 250]), np.array([100, period])) == 14
        for lo, hi in [(0, 99), (1, 100), (0, period + 1), (-1, 100), (250, 100),
                       (np.array([0, 100]), np.array([100, 200]))]:
            with pytest.raises(ValueError, match="cell edges"):
                cells.count(lo, hi)


class TestExactWindows:
    def test_snr_from_exact_timestamp_windows(self, monkeypatch):
        # at mu_in = 1000 slot edges at k * 1540 ps, off the 25 ps histogram
        # grid, hold enough clicks that a binned count would differ
        sc = load_scenario(SCENARIOS / "timebin_b.ini").with_overrides(n_frames=20_000)
        sc = replace(sc, cfg=replace(sc.cfg, mu_in=1000.0))
        vcfg, exp = sc.cfg, sc.experiment
        drawn = _traced_cells(monkeypatch)
        report = run_scenario(sc).report
        tp, w = vcfg.pulse_period_ps, vcfg.frame_window_ps
        # B's collection is drawn a second time, with B dark, as detector 3
        assert [key for key, _ in drawn] == [(ROLE_PHOTONS, i) for i in (0, 1, 3, 2)]
        for i, sid in enumerate(sorted(exp.collections)):
            det = dict(drawn)[ROLE_PHOTONS, i]
            sig = sc.signal(sid)
            off = sig.offset_ps(vcfg)
            slots = [sig.fixed_slot] + [
                o.fixed_slot for o in sc.signals
                if o is not sig and o.offset_ps(vcfg) == off
            ]
            in_slot = [det.count(off + k * tp, off + (k + 1) * tp) for k in slots]
            half = det.count(off, off + w)
            floor = (half - sum(in_slot)) * w / (w - len(slots) * tp)
            assert report["snr_db_per_signal"][sid] == pytest.approx(
                10 * math.log10(in_slot[0] / floor), rel=1e-12, abs=0
            ), sid


class TestMeanDb:
    @pytest.mark.parametrize("values,mean", [
        ([1.0, math.inf, 3.0, None, -math.inf], 2.0),  # finite estimates only
        ([math.inf, None, math.inf], math.inf),  # total suppression
        ([math.inf, -math.inf], None),
        ([-math.inf], None),
        ([None], None),
        ([], None),
    ])
    def test_rule(self, values, mean):
        assert _mean_db(values) == mean


PLACEMENT_CASES = [
    (Pulse(120), 100.0),  # clamped at ps 0
    (Pulse(199_950), 100.0),  # clamped at ps P - 1
    (Pulse(2310, 63, 1540), 100.0),  # a phase port's interior train
    (Pulse(31_570), 0.0),  # no jitter: one ps
    (Floor(0), 100.0),
    (Floor(100_000), 100.0),  # up to P - 1
    (Floor(100_000, 1540), 100.0),  # split, clamped at P - 1
    (Pulse(199_940, 2, 1540), 100.0),  # a train whose second slot lies past P - 1
]


class TestPlacementLaw:
    """The tests' per-ps law (``per_ps``) is the law that ``times`` draws:
    it sums to 1 but for the jitter's truncated tails, and draws agree with
    it within 5 sigma over cells of consecutive ps that each expect >= 25
    draws (the last cell may expect fewer), and in their mean within 5
    standard errors of the law's.  The cells cannot resolve a 1 ps shift of
    a 100 ps jitter; the mean, its standard error ~0.16 ps, does."""

    N = 400_000

    @pytest.mark.parametrize("placement,sigma", PLACEMENT_CASES)
    def test_mass_matches_times(self, placement, sigma):
        vcfg = SimConfig(jitter_sigma_ps=sigma)
        mass = per_ps(placement, vcfg)
        assert mass.shape == (vcfg.frame_period_ps,) and (mass >= 0).all()
        assert mass.sum() == pytest.approx(1.0, abs=1e-12)
        t = placement.times(RandomSource(31).generator(), self.N, vcfg)
        seen = np.bincount(t, minlength=vcfg.frame_period_ps)
        assert not seen[mass == 0].any()
        expect = self.N * mass
        cell = (np.cumsum(expect) // 25).astype(np.int64)
        obs, exp = np.bincount(cell, seen), np.bincount(cell, expect)
        z = (obs - exp)[exp > 0] / np.sqrt(exp[exp > 0])
        assert np.abs(z).max() <= 5
        ps = np.arange(vcfg.frame_period_ps)
        mean = mass @ ps / mass.sum()
        var = mass @ (ps - mean) ** 2 / mass.sum()
        assert abs(t.mean() - mean) <= 5 * math.sqrt(var / self.N)


class TestClosedFormMass:
    """``mass`` is the tests' per-ps law (``per_ps``) summed over each cell
    between sorted cuts, at ``TestFirstClickLaw``'s tolerances, so exact to
    rounding in both tails: cuts at the ends of the frame, at the interior
    window's edges that Bob's ports read, beside each edge of the law's
    support, on a 25 ps grid through every pulse's far tails and at random
    ps."""

    @pytest.mark.parametrize("sigma", [0.0, 0.3, 100.0, float(SimConfig().pulse_period_ps)])
    @pytest.mark.parametrize("placement", [placement for placement, _ in PLACEMENT_CASES])
    def test_matches_cumulative_runs(self, placement, sigma):
        vcfg = SimConfig(jitter_sigma_ps=sigma)
        period, ref = vcfg.frame_period_ps, per_ps(placement, vcfg)
        support = np.flatnonzero(np.diff(ref > 0, prepend=False, append=False))
        x = np.concatenate([[0, 1, *pipeline._interior_window(vcfg, 0), period - 1, period],
                            support - 1, support, support + 1, np.arange(0, period, 25),
                            RandomSource(37).generator().integers(0, period, 200)])
        cut = np.unique(np.clip(x, 0, period))
        got = placement.mass(cut, vcfg)
        assert got.shape == (len(cut) - 1,) and (got >= 0).all()
        np.testing.assert_allclose(got, _per_cell(ref[None], cut)[0], rtol=1e-9, atol=1e-18)


def _opened_streams(monkeypatch) -> list:
    """The stream ids of every Generator opened from now on."""
    opened, generator = [], RandomSource.generator

    def traced(self):
        opened.append(self.stream_id)
        return generator(self)

    monkeypatch.setattr(RandomSource, "generator", traced)
    return opened


class TestPoissonSpans:
    """The Poisson path's stream cut, apart from its law (``TestDetectorLaw``):
    a detector is drawn in spans of whole batches that expect at most
    ``SPAN_CLICKS`` clicks, one stream a signal a span, keyed by the span's
    first batch, and each component draws every frame once; a detector
    dense enough for one-batch spans draws as batch by batch.  A change of
    the stream cut edits this class alone."""

    N = 5 * BATCH + 123
    KEY = (ROLE_PHOTONS, 7)
    # ~295 clicks over N: 2/3 from signal 0 (a pulse and a floor), 1/3 from
    # signal 1 (a four-slot train in the second half)
    SPARSE = [[(4e-4, Pulse(20_000)), (2e-4, Floor(0))],
              [(3e-4, Pulse(150_000, 4, 1540))]]

    # the default spans the whole run; 150 clicks span two batches, so
    # spans start at batches 0, 2 and 4 and the last is partial
    @pytest.mark.parametrize("span_clicks,firsts", [(pipeline.SPAN_CLICKS, [0]),
                                                    (150, [0, 2, 4])])
    @pytest.mark.parametrize("seed", [301, 302, 303])
    def test_sparse_detector_spans(self, monkeypatch, span_clicks, firsts, seed):
        monkeypatch.setattr(pipeline, "SPAN_CLICKS", span_clicks)
        opened, drawn, poisson = _opened_streams(monkeypatch), [], pipeline._poisson_frames
        monkeypatch.setattr(pipeline, "_poisson_frames",
                            lambda gen, lam, nb: drawn.append(nb) or poisson(gen, lam, nb))
        vcfg = SimConfig(dead_time_ps=0, seed=seed)
        cells = _detector_cells(self.KEY, self.SPARSE, vcfg, "always", self.N,
                                _cell_edges(vcfg, []))
        assert sorted(opened) == [(*self.KEY, s, b) for s in (0, 1) for b in firsts]
        assert sum(drawn) == 3 * self.N  # three components
        assert cells.before[-1] > 0

    def test_dense_detector_draws_batch_by_batch(self, monkeypatch):
        # 1.4 expected clicks a frame: one batch expects more than
        # SPAN_CLICKS, so each span is one batch
        components = [[(0.9, Pulse(20_000)), (0.3, Floor(0))],
                      [(0.2, Floor(100_000, 1540))]]
        n, vcfg = 2 * BATCH + 123, SimConfig(dead_time_ps=0, seed=304)
        assert 1.4 * BATCH > pipeline.SPAN_CLICKS
        root, parts = RandomSource(vcfg.seed), []
        for b0 in range(0, n, BATCH):
            for s, comps in enumerate(components):
                gen = root.stream(*self.KEY, s, b0 // BATCH).generator()
                for lam, placement in comps:
                    fr = b0 + _poisson_frames(gen, lam, min(BATCH, n - b0))
                    parts.append((fr, placement.times(gen, len(fr), vcfg)))
        fr, t = map(np.concatenate, zip(*parts))
        order = np.argsort(fr * vcfg.frame_period_ps + t, kind="stable")
        spans, finish = [], pipeline._finish_detector
        monkeypatch.setattr(pipeline, "_finish_detector",
                            lambda *args: spans.append(finish(*args)) or spans[-1])
        _detector_cells(self.KEY, components, vcfg, "always", n, _cell_edges(vcfg, []))
        assert len(spans) == 3
        got_fr, got_t = map(np.concatenate, zip(*spans))
        np.testing.assert_array_equal(got_fr, fr[order])
        np.testing.assert_array_equal(got_t, t[order])

    def test_phase_er_opens_few_streams(self, monkeypatch):
        # 15 sparse detectors, each drawn as one span: one stream a signal,
        # 24 in all, where one a batch opened 744
        opened = _opened_streams(monkeypatch)
        run_scenario(load_scenario(SCENARIOS / "phase_er.ini"))
        assert len(opened) <= 32


class TestExchangeSpans:
    """The BB84 exchange draws every batch's tally from one stream."""

    def test_bb84_eve_opens_few_streams(self, monkeypatch):
        # one multinomial draws every batch's tally: one stream, whatever
        # the frame count
        opened = _opened_streams(monkeypatch)
        run_scenario(load_scenario(SCENARIOS / "bb84_eve.ini").with_overrides(
            n_frames=4_800_000))
        assert opened == [(ROLE_PHOTONS,)]


class TestStreamsDistinct:
    """No two draws of a run share a random stream: each canned kind, and
    the benchmark's saturated time-bin scenario, opens each stream once."""

    @pytest.mark.parametrize("path", [*sorted(SCENARIOS.glob("*.ini")),
                                      REPO / "perfbench" / "timebin_saturated.ini"],
                             ids=lambda path: path.stem)
    def test_each_stream_opened_once(self, monkeypatch, path):
        sc = load_scenario(path).with_overrides(n_frames=20_000)
        opened = _opened_streams(monkeypatch)
        run_scenario(sc)
        assert opened and len(set(opened)) == len(opened), opened


class TestBb84KeyRate:
    """The reported key rate is the finite-key bound at the simulated QBER."""

    @pytest.mark.parametrize("name", ["bb84", "bb84_eve"])
    def test_key_rate_from_simulated_qber(self, name):
        sc = load_scenario(SCENARIOS / f"{name}.ini").with_overrides(n_frames=400_000)
        rep = run_scenario(sc).report
        n = rep["extra"]["n_sifted"]
        assert rep["extra"]["key_rate_params_n"] == n
        assert rep["key_rate"] == key_rate(n, rep["qber_sifted"])
        if name == "bb84_eve":
            assert rep["key_rate"] == 0.0  # QBER 0.25: the protocol aborts
        else:
            assert 0.0 < rep["key_rate"] < key_rate(10**6)
