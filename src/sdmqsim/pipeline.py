"""End-to-end scenario runners.

The runners describe each signal that reaches a detector as components:
mean clicks per frame, from the channel and (for phase frames)
``receiver.delay_interferometer_rates``, and where they land, as data: a
jittered ``Pulse`` or a uniform ``Floor``, each with its draw (``times``)
and its law written once, in closed form: its mass in each cell between
sorted ps cuts (``mass``), exact to rounding in both tails.  A click
carries no origin: a runner that counts one signal's share, timebin_B's
crosstalk, counts it as the lab does, on a second detector at the same
collection and gate with that signal left out of its list.

A ``dt1``/``dt2`` detector with the dead time nested in the blank half
keeps each frame's first gated click (see receiver), so its frames are
i.i.d.: a frame clicks with probability ``1 - e^{-C}``, ``C`` its mean
gated clicks.  From ``FIRST_CLICK_DENSITY`` expected clicks a frame a runner
draws such a detector's counts from that law (``_drawn_as_counts``).  Every
other runner detector draws every click, O(events) at the ~0.002 events
per detector-frame of the phase experiments (``_poisson_frames``), then
gates, sorts and walks them, one span a call (``_simulate_detector``): a
span is the most whole batches that expect at most ``SPAN_CLICKS`` clicks
(``_span``), with one random stream a (detector, signal, span), and
``_detector_cells`` hands the time until which the detector stays dead to
the next span's call.  Photon sampling is efficiency-thinned at the
source (Poisson splitting), which is statistically identical to sampling
raw photons and thinning at the detector.  Streams depend on the scenario
alone, so results are reproducible from its seed.

The time-bin and phase runners declare the ps edges of every window they
read (``_cell_edges``) and get each detector back as ``Cells``: counts
between those edges, and histogram bins where read (``_detector_cells``).
A dense detector's counts are one draw from stream ``(*key, 0)``, with no
per-click array (``_first_click_counts``): a cell's first-click mass
telescopes to ``e^{-C(<a)} (1 - e^{-dC})`` from its mean gated clicks
``dC``, each component's rate times its placement's ``mass``
(``_first_click_law``), with no per-ps law or exponential.

The BB84 exchange reads only each frame's outcome.  With Bob's dead time
nested in the blank half (any other is rejected), that outcome depends
on the frame's class alone, so frames are i.i.d. given their state.  The
class table is the same first-click law at the interior window's edges,
both ports' rates stacked by class (``_port_usable``).  Summed over
Eve's bits, which no output reads, it gives the law of 24 cells, a
visible word by outcome, and a batch's tally over them is exactly
multinomial: one call draws every batch's, and the counts and the sifted
error rate are read from their sum (``simulate_bb84``), O(batches), with
no per-frame or per-photon array.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import analysis
from .channel import ChannelModel, load_link_tables
from .config import (
    BATCH,
    DELTA_T1,
    DELTA_T2,
    ConfigError,
    RandomSource,
    ROLE_PHOTONS,
    SignalAssignment,
    SimConfig,
)
from .encoder import floor_fraction
from .protocol import PHASE_TABLE, Bb84Result, cell_law, key_rate
from .receiver import (
    Histogram,
    dead_time_mask,
    delay_interferometer_rates,
    gate_mask,
    gate_span,
    histogram_from_times,
)
from .scenarios import Scenario

__all__ = [
    "build_channel",
    "expected_collection_rate",
    "RunResult",
    "run_scenario",
    "simulate_bb84",
]

# gated clicks a frame from which a runner draws a detector's counts from
# the first-click law rather than drawing every click
FIRST_CLICK_DENSITY = 0.25
# expected clicks of one Poisson-path span: a span is the most whole
# batches that expect at most this many, at least one, and 2^16 batches
# for a detector that expects under a click a batch
SPAN_CLICKS = 1 << 16


def build_channel(scenario: Scenario) -> ChannelModel:
    return ChannelModel(*load_link_tables(scenario.channel.tables_path), **vars(scenario.channel))


def _collected_flux(vcfg, channel: ChannelModel, sig: SignalAssignment, groups) -> float:
    """Mean photons per frame of one signal reaching a group collection."""
    return (
        vcfg.mu_in
        * channel.transmission(sig)
        * channel.collection_fraction(sig.input_group, groups)
    )


def expected_collection_rate(
    scenario: Scenario,
    channel: ChannelModel,
    sid: str,
    groups,
) -> float:
    """Analytic detected count rate (cps) of one signal into a collection.

    Photon-level expectation ``Lambda * R_f``, with ``Lambda`` = mu *
    transmission * collection fraction * eta clicks per frame.  With the
    dead time nested in the blank half-frame a gated collection clicks at
    most once a frame, in a fraction ``1 - exp(-Lambda)`` of frames (Lambda
    summed over the signals that land in the gate): 0.4-0.8% fewer clicks
    than this rate at the canned fluxes, 72-85% fewer at mu_in = 1000.
    """
    sig, cfg = scenario.signal(sid), scenario.cfg
    return _collected_flux(cfg, channel, sig, groups) * cfg.eta * cfg.frame_rate_hz


# ---------------------------------------------------------------------------
# Batched event generation
# ---------------------------------------------------------------------------


@dataclass
class Cells:
    """Accepted clicks of one detector over its run: ``before[i]`` before
    ``edges[i]``, the sorted distinct ps edges of the windows its runner
    reads, and all of them in ``histogram``'s bins where the runner reads
    those."""

    edges: np.ndarray
    before: np.ndarray
    histogram: Histogram | None = None

    def count(self, lo, hi) -> int:
        """Clicks in the windows ``[lo, hi)``, ps or arrays of ps, summed.
        Every bound must be a cell edge, and no window may be reversed."""
        ij = np.searchsorted(self.edges, (lo, hi))
        if (self.edges.take(ij, mode="clip") != (lo, hi)).any() or (ij[1] < ij[0]).any():
            raise ValueError(f"windows [{lo}, {hi}) ps do not lie on cell edges")
        return int((self.before[ij[1]] - self.before[ij[0]]).sum())


@dataclass
class RunResult:
    """Report plus exportable artifacts of one scenario run; ``tables`` holds
    each table's rows by the file name ``analysis.ARTIFACTS`` declares."""

    report: dict
    histograms: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)
    bb84: object = None


def _poisson_frames(gen, lam: float, nb: int) -> np.ndarray:
    """Sorted frame indices in ``[0, nb)`` of a Poisson(lam)-per-frame stream.

    One Poisson total, then that many uniform frame picks: given the total,
    independent Poisson counts are multinomial with equal cells.
    """
    idx = gen.integers(0, nb, size=gen.poisson(lam * nb))
    idx.sort()
    return idx


@dataclass(frozen=True)
class Pulse:
    """Jittered clicks at ``first + k * spacing``, ``k`` uniform in ``0 ..
    n-1``: drawn by ``times``, their law in closed form by ``mass``."""

    first: int
    n: int = 1
    spacing: int = 0

    def times(self, gen, size: int, vcfg) -> np.ndarray:
        t = np.full(size, self.first)
        if self.n > 1:
            t += gen.integers(0, self.n, size=size) * self.spacing
        if vcfg.jitter_sigma_ps > 0:
            t += np.rint(gen.normal(0.0, vcfg.jitter_sigma_ps, size=size)).astype(np.int64)
        np.maximum(t, 0, out=t)
        return np.minimum(t, vcfg.frame_period_ps - 1, out=t)

    def mass(self, cut, vcfg) -> np.ndarray:
        """The law of ``times``: its mass in each cell between the distinct
        sorted ps ``cut``, in ``[0, P]``.  Each slot puts the rounded jitter
        out to ``h = ceil(8 sigma)`` ps from its centre, clamped to ps 0 .. P
        - 1, ``1 - erfc((h + 0.5) / r)`` in all (``r`` sigma sqrt 2), and
        ``(erfc(|m - 0.5| / r) - erfc((h + 0.5) / r)) / 2`` before a ps ``m
        <= 0`` ps from the centre or after one ``m >= 1`` ps from it.  That
        ``erfc`` is taken only at the cuts inside each slot's clamped
        support, for every slot at once.  A cell's mass is the difference of
        two such tail masses, plus the total of each slot whose centre it
        holds, so it is exact to rounding in both tails.  A train averages
        its slots."""
        period, sigma = vcfg.frame_period_ps, vcfg.jitter_sigma_ps
        h, r = math.ceil(8 * sigma), sigma * math.sqrt(2)
        tail = math.erfc((h + 0.5) / r) if sigma else 0.0
        c = self.first + self.spacing * np.arange(self.n)
        # each slot's cuts in its clamped support, cut[lo] .. cut[hi - 1], and
        # the first cut past its clamped centre, cut[mid]
        bounds = np.minimum(np.maximum(np.add.outer([-h, h, 0], c), 0), period - 1)
        lo, hi, mid = np.searchsorted(cut, bounds, "right")
        k = hi - lo
        at = np.arange(k.sum()) + np.repeat(lo - np.cumsum(k) + k, k)
        m = cut[at] - np.repeat(c, k)
        # erfc once a distinct j = |m - 1/2| - 1/2 met, which a train's slots
        # share; s is the tail mass before a cut at or left of the centre,
        # less the tail mass after one right of it
        j, erfc = np.maximum(-m, m - 1), np.zeros(h)
        met = np.flatnonzero(np.bincount(j, minlength=h))
        erfc[met] = np.fromiter(map(math.erfc, ((met + 0.5) / r).tolist()), float, len(met))
        s = np.copysign((erfc[j] - tail) / 2, 0.5 - m)
        cells = np.bincount(np.concatenate([at, at + 1, mid]),
                            np.concatenate([s, -s, np.full(self.n, 1 - tail)]), len(cut) + 1)
        return cells[1:len(cut)] / self.n


@dataclass(frozen=True)
class Floor:
    """Clicks at ``lo + U[0, frame_window_ps)``; with ``split``, each one is
    ``split`` ps later with probability 1/2.  Drawn by ``times``, their law
    by ``mass``."""

    lo: int
    split: int = 0

    def times(self, gen, size: int, vcfg) -> np.ndarray:
        t = self.lo + gen.integers(0, vcfg.frame_window_ps, size=size)
        if self.split:
            t += self.split * (gen.random(size) < 0.5)
        return np.minimum(t, vcfg.frame_period_ps - 1, out=t)

    def mass(self, cut, vcfg) -> np.ndarray:
        """The law of ``times``: its mass in each cell between the distinct
        sorted ps ``cut``, in ``[0, P]``, from each arm's overlap with the
        cell, and all of it before ``P``."""
        w, arms = vcfg.frame_window_ps, {self.lo, self.lo + self.split}
        before = sum(np.minimum(np.maximum(cut - lo, 0), w) for lo in arms) / (len(arms) * w)
        if cut[-1] >= vcfg.frame_period_ps:
            before[-1] = 1.0
        return np.diff(before)


def _pulse_center(vcfg, offset, slot):
    """Center (ps) of pulse slot ``slot`` of a train starting at ``offset``."""
    return offset + slot * vcfg.pulse_period_ps + vcfg.pulse_period_ps // 2


def _first_click_law(components, vcfg, gate, edges) -> tuple:
    """The chance ``1 - e^{-C}`` that a frame has a gated click, and the
    exact mass of its first one in each cell between ``edges`` (sorted
    distinct ps from 0 to P, see ``_cell_edges``), whatever its signal.
    Over a cell ``[a, b)`` it telescopes to ``e^{-C(<a)} (1 - e^{-dC})``,
    ``dC`` the cell's mean gated clicks, each component's rate times its
    placement's mass in the cell (``mass``).  No per-ps exponential is
    taken.  A rate may be an array, such as Bob's ports by frame class:
    the law is then one along its leading axes."""
    g0, g1 = gate_span(gate, vcfg.frame_window_ps)
    # the cells i .. j - 1 overlap the gate
    i, j = np.searchsorted(edges, g0, "right") - 1, np.searchsorted(edges, g1)
    cut = np.minimum(np.maximum(edges[i:j + 1], g0), g1)
    dc = sum((np.multiply.outer(rate, placement.mass(cut, vcfg))
              for comps in components for rate, placement in comps), np.zeros(j - i))
    c = np.zeros_like(dc)  # C(<a), each cell's a
    np.cumsum(dc[..., :-1], axis=-1, out=c[..., 1:])
    mass = np.zeros(dc.shape[:-1] + (len(edges) - 1,))
    mass[..., i:j] = np.exp(-c) * -np.expm1(-dc)
    return -np.expm1(-dc.sum(axis=-1)), mass


def _first_click_counts(root, key, components, vcfg, gate, n, edges) -> np.ndarray:
    """Counts of the first gated clicks of ``n`` i.i.d. frames in each cell
    between ``edges``, one draw from stream ``(*key, 0)``: Binomial(n, 1 -
    e^{-C}) frames click, and a multinomial over the cells of non-zero mass
    splits them by ``_first_click_law``."""
    p_click, mass = _first_click_law(components, vcfg, gate, edges)
    gen = root.stream(*key, 0).generator()
    clicks = gen.binomial(n, p_click)
    counts = np.zeros(len(mass), dtype=np.int64)
    if clicks:
        held = np.flatnonzero(mass)  # a cell of mass 0 takes no randomness
        counts[held] = gen.multinomial(clicks, mass[held] / mass.sum())
    return counts


def _mean_clicks(components) -> float:
    """A detector's expected clicks a frame."""
    return sum(lam for comps in components for lam, _ in comps)


def _drawn_as_counts(components, vcfg, gate) -> bool:
    """Whether a runner draws a detector's counts from the first-click law:
    a ``dt1``/``dt2`` detector with the dead time nested in the blank half,
    from ``FIRST_CLICK_DENSITY`` expected clicks a frame."""
    return (gate != "always" and vcfg.dead_time_nested
            and _mean_clicks(components) >= FIRST_CLICK_DENSITY)


def _span(clicks: float) -> int:
    """A span in frames of a draw that expects ``clicks`` a frame: the most
    whole batches that expect at most ``SPAN_CLICKS``, at least one."""
    return BATCH * max(1, int(SPAN_CLICKS // max(clicks * BATCH, 1)))


def _simulate_detector(key, components, vcfg, gate, frames: range, blocked: int) -> tuple:
    """Draw, gate and dead-time veto every click of one detector in the span
    ``frames``, a range that starts on a batch boundary.  ``components[s]``
    lists signal ``s``'s ``(lam, placement)`` pairs: ``lam`` mean clicks per
    frame and ``placement`` a ``Pulse`` or ``Floor`` (see the module
    docstring).  Stream ``(*key, s, first batch)`` draws signal ``s``'s
    components in list order: the frames (sorted), then their within-frame
    times.  No click is kept before the absolute time ``blocked``.  Returns
    the kept ``(frames, t)`` in time order and the absolute time until
    which the detector stays dead after them."""
    root = RandomSource(vcfg.seed)
    parts = [(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))]
    for s, comps in enumerate(components):
        gen = root.stream(*key, s, frames.start // BATCH).generator()
        for lam, placement in comps:
            fr = frames.start + _poisson_frames(gen, lam, len(frames))
            if len(fr):
                parts.append((fr, placement.times(gen, len(fr), vcfg)))
    fr, t = _finish_detector(parts, vcfg, gate, blocked)
    if len(fr):
        blocked = int(fr[-1]) * vcfg.frame_period_ps + int(t[-1]) + vcfg.dead_time_ps
    return (fr, t), blocked


def _detector_cells(key, components, vcfg, gate, n, edges, histogram=False) -> Cells:
    """One detector's accepted clicks over ``n`` frames as ``Cells`` between
    ``edges`` (see ``_cell_edges``), with a histogram if asked.  Counts
    (``_drawn_as_counts``) are drawn between both kinds of edge.  Otherwise
    ``_simulate_detector`` draws one span (``_span``) a call, the dead time
    carried into the next, and each span's clicks are counted before each
    edge."""
    if not _drawn_as_counts(components, vcfg, gate):
        before, bins, blocked = np.zeros(len(edges), np.int64), 0, 0
        span = _span(_mean_clicks(components))
        for b0 in range(0, n, span):
            (_, t), blocked = _simulate_detector(key, components, vcfg, gate,
                                                 range(n)[b0:b0 + span], blocked)
            before += np.searchsorted(np.sort(t), edges)
            bins += histogram_from_times(t, vcfg).bins if histogram else 0
        return Cells(edges, before, Histogram(bins, vcfg.hist_res_ps) if histogram else None)
    fine = (_cell_edges(vcfg, [edges, np.arange(0, vcfg.frame_period_ps, vcfg.hist_res_ps)])
            if histogram else edges)
    counts = _first_click_counts(RandomSource(vcfg.seed), key, components, vcfg, gate, n, fine)
    before = np.zeros(len(fine), dtype=np.int64)
    np.cumsum(counts, out=before[1:])
    return Cells(edges, before[np.searchsorted(fine, edges)],
                 histogram_from_times(fine[:-1], vcfg, counts) if histogram else None)


def _finish_detector(parts, vcfg, gate, blocked=0) -> tuple:
    """Gate, time-sort and dead-time walk held ``(frames, t)`` pieces to
    clicks, none before the absolute time ``blocked``."""
    fr, t = (np.concatenate(column) for column in zip(*parts))
    # gate first: the mask reads only t_within, so sorting fewer events
    # changes nothing; equal absolute times are equal clicks
    keep = gate_mask(t, gate, vcfg.frame_window_ps)
    t_abs = fr[keep] * vcfg.frame_period_ps + t[keep]
    t_abs.sort()
    # vetoed events do not extend the dead time (non-paralyzable), so the
    # walk starts at the first event past it
    t_abs = t_abs[np.searchsorted(t_abs, blocked):]
    return np.divmod(t_abs[dead_time_mask(t_abs, vcfg.dead_time_ps)], vcfg.frame_period_ps)


def _timebin_components(vcfg, lam, f, offset, slot) -> tuple:
    """The slot pulse and the floor over the occupied window."""
    return (lam * (1 - f), Pulse(_pulse_center(vcfg, offset, slot))), (lam * f, Floor(offset))


def _timebin_law(vcfg, channel, signals, groups) -> list:
    """The components of one detector watching ``groups``: the time-bin slot
    of each of ``signals``, in their order."""
    components = []
    for sig in signals:
        ext = sig.im_extinction if sig.im_extinction is not None else vcfg.im_extinction
        lam = _collected_flux(vcfg, channel, sig, groups) * vcfg.eta
        components.append(_timebin_components(vcfg, lam, floor_fraction(vcfg.d, ext),
                                               sig.offset_ps(vcfg), sig.fixed_slot))
    return components


def _phase_components(vcfg, rates, port, arm, offset) -> tuple:
    """Interior, edge and floor clicks of one port, in stream order.

    Position ``j`` of the d+1 interferometer outputs is centered on pulse
    slot ``j``; interior clicks pick 1..d-1 with equal weights.  The floor
    covers the occupied window through each open arm, the delay arm
    shifting it by one pulse period.
    """
    d, tp = vcfg.d, vcfg.pulse_period_ps
    t0 = _pulse_center(vcfg, offset, 0)
    interior = rates.interior_p if port == "p" else rates.interior_p_prime
    return (
        (interior, Pulse(t0 + tp, d - 1, tp)),
        (rates.edge_0, Pulse(t0)),
        (rates.edge_d, Pulse(t0 + d * tp)),
        (rates.floor, Floor(offset + tp * (arm == "direct"), tp * (arm == "none"))),
    )


def _phase_law(vcfg, channel, signals, groups, exp, phi_total, arm) -> list:
    """The components of one detector on port P behind the delay
    interferometer, watching ``groups``: ``signals`` in their order, at
    ``exp``'s visibility cap and phase floor.

    ``phi_total`` is phi_a + phi_b; every contributing train carries the
    same transmitted differential phase, and each photon self-interferes
    across its own train regardless of which signal it leaked from.
    """
    components = []
    for sig in signals:
        lam = _collected_flux(vcfg, channel, sig, groups) * vcfg.eta
        rates = delay_interferometer_rates(lam, vcfg.d, exp.visibility_cap, phi_total, arm,
                                           exp.phase_floor)
        components.append(_phase_components(vcfg, rates, "p", arm, sig.offset_ps(vcfg)))
    return components


# ---------------------------------------------------------------------------
# Window helpers
# ---------------------------------------------------------------------------


def _cell_edges(vcfg, windows) -> np.ndarray:
    """Sorted distinct ps edges of ``windows``, ``(lo, hi)`` pairs of ps or
    of arrays of ps, with 0 and the frame period: the cells a run's
    detectors are counted in."""
    edges = np.concatenate([[0, vcfg.frame_period_ps], *map(np.ravel, windows)])
    edges.sort()
    return edges[np.diff(edges, prepend=-1) > 0]


def _interior_window(vcfg, offset_ps):
    tp = vcfg.pulse_period_ps
    return offset_ps + tp, offset_ps + vcfg.d * tp


def _phase_gates(vcfg, offset_ps) -> tuple:
    """On- and off-gates over the interior positions, each ``(lo, hi)``
    arrays of windows cut to their position: pulse-gated counts are the
    on-gates' less the off-gates'.  On-gates are +-375 ps around each center;
    off-gates, farther than ``tp // 2 - 375`` ps from it and not overlapping,
    estimate the uniform floor."""
    tp = vcfg.pulse_period_ps
    lo = offset_ps + tp * np.arange(1, vcfg.d)
    hi = lo + tp
    center, far = lo + tp // 2, tp // 2 - 375
    left = np.clip(center - far, lo, hi)
    right = np.maximum(left, np.clip(center + far + 1, lo, hi))
    on = np.clip(center - 375, lo, hi), np.clip(center + 376, lo, hi)
    return on, (np.concatenate([lo, right]), np.concatenate([left, hi]))


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


def run_scenario(scenario: Scenario) -> RunResult:
    """Dispatch to the experiment-specific runner, with the scenario alone
    (each runner reads its ``cfg``) and its channel, built once a run."""
    runner = {
        "timebin_B": _run_timebin,
        "timebin_xt": _run_timebin,
        "capacity": _run_capacity,
        "phase_er": _run_phase_er,
        "phase_sweep": _run_phase_sweep,
        "bb84": _run_bb84,
        "bb84_eve": _run_bb84,
    }[scenario.experiment.kind]
    return runner(scenario, build_channel(scenario))


def _group_rates(scenario, channel) -> dict:
    """The ``group_rates.csv`` table: the model's expected rate of each
    signal into each output group."""
    return {"group_rates.csv": [
        (sid, g, expected_collection_rate(scenario, channel, sid, (g,)))
        for sid in sorted(s.signal_id for s in scenario.signals) for g in range(1, 6)]}


def _mean_db(values) -> float | None:
    """Mean of the finite dB estimates among ``values``.  With none finite,
    +inf when every estimate is +inf (total suppression), else None."""
    est = [v for v in values if v is not None]
    finite = [v for v in est if math.isfinite(v)]
    if finite:
        return sum(finite) / len(finite)
    return math.inf if est and all(v == math.inf for v in est) else None


def _run_timebin(scenario: Scenario, channel) -> RunResult:
    vcfg, exp = scenario.cfg, scenario.experiment
    n = exp.n_frames
    # one delayed signal, as Scenario checks: timebin_B reads crosstalk on
    # its collection, and timebin_xt compares its slot with the undelayed one's
    (late,) = [s for s in scenario.signals if s.delayed]
    early = [s for s in scenario.signals if not s.delayed]
    window, tp = vcfg.frame_window_ps, vcfg.pulse_period_ps
    # the windows read: each signal's slot, and in each half its train
    win = {}
    for s in scenario.signals:
        lo = s.offset_ps(vcfg) + s.fixed_slot * tp
        win["slot", s.signal_id] = lo, lo + tp
    for off in (0, window):
        win["half", off] = off, off + window
        win["train", off] = off, off + vcfg.d * tp
    edges = _cell_edges(vcfg, win.values())

    def slots(det, signals):
        return sum(det.count(*win["slot", o.signal_id]) for o in signals)

    # the delayed signal's dt2 slot against the others' dt1 slots; with
    # both empty there is no estimate
    def crosstalk(det):
        c2, c1 = slots(det, [late]), slots(det, early)
        return analysis.crosstalk_db(c2, c1) if c2 + c1 else None

    cps = {}
    snr_by_signal = {}
    rho = {}
    rho_kk = {}
    xt_db: dict[str, float | None] = {}
    extra: dict = {}
    histograms = {}
    for det_idx, (sid, groups) in enumerate(sorted(exp.collections.items())):
        gate, sig = exp.gates.get(sid, "always"), scenario.signal(sid)
        det = _detector_cells((ROLE_PHOTONS, det_idx),
                              _timebin_law(vcfg, channel, scenario.signals, groups), vcfg,
                              gate, n, edges, histogram=True)
        offset = sig.offset_ps(vcfg)
        # other signals' pulses sharing this half-window are known spikes,
        # not floor: their slots are left out of the floor
        foreign = [
            o for o in scenario.signals
            if o.offset_ps(vcfg) == offset and o.fixed_slot != sig.fixed_slot
        ]
        pulse = slots(det, [sig])
        known = pulse + slots(det, foreign)
        half = det.count(*win["half", offset])
        train = det.count(*win["train", offset])
        cps[sid] = analysis.counts_per_second(half, n, vcfg.frame_rate_hz)
        histograms[f"{sid}_g" + "+".join(map(str, groups))] = det.histogram
        # a collection with no counts in a ratio's windows gives no estimate
        floor, background = half - known, train - known
        snr_by_signal[sid] = analysis.snr_db(
            pulse, floor, window - (1 + len(foreign)) * tp, window
        ) if pulse + floor else None
        tomo = (analysis.tomography(pulse, background, vcfg.d)
                if pulse + background else None)
        rho[sid], rho_kk[sid] = (None, None) if tomo is None else (tomo.rho_jj, tomo.rho_kk)
        if exp.kind == "timebin_xt":
            xt_db[f"at_{sid}_collection"] = crosstalk(det)
        elif sig is late:
            ids = "".join(o.signal_id for o in early)
            xt_db[f"{ids}_to_{sid}"] = crosstalk(det)
            # the others' clicks as the lab counts them: the late signal
            # dark, on a detector at the same collection and gate, drawn
            # from a stream no other detector of the run opens
            dark = _detector_cells((ROLE_PHOTONS, len(exp.collections)),
                                   _timebin_law(vcfg, channel, early, groups), vcfg, gate, n,
                                   edges)
            extra[f"{ids.lower()}_counts_in_dt2_on_{sid}"] = dark.count(*win["half", window])
        del det  # released before the next detector is drawn

    snr_mean = _mean_db(snr_by_signal.values())
    finite_xt = [abs(v) for v in xt_db.values() if v is not None and math.isfinite(v)]
    p_xt = analysis.prob_from_db(min(finite_xt, default=None))
    report = analysis.build_report(
        exp.kind, vcfg.seed, n,
        cps_per_collection=cps,
        xt_db=xt_db,
        snr_db=snr_mean,
        snr_db_per_signal=snr_by_signal,
        rho_diag=rho,
        p_xt=p_xt,
        p_snr=analysis.prob_from_db(snr_mean),
        extra={**extra, "rho_kk": rho_kk},
    )
    return RunResult(report, histograms, tables=_group_rates(scenario, channel))


def _run_capacity(scenario: Scenario, channel) -> RunResult:
    vcfg, exp = scenario.cfg, scenario.experiment
    n = exp.n_frames

    # Part 1: idealized single-signal budget at a flat insertion loss.
    theory_cps = (
        exp.theory_mu
        * vcfg.eta
        * vcfg.frame_rate_hz
        * float(10 ** (exp.theory_il_db / 10.0))
    )
    halves = {off: (off, off + vcfg.frame_window_ps) for off in (0, vcfg.frame_window_ps)}
    edges = _cell_edges(vcfg, halves.values())
    theory = replace(vcfg, mu_in=exp.theory_mu)
    det1 = _detector_cells((ROLE_PHOTONS, 90),
                           _timebin_law(theory, replace(channel, uniform_il_db=exp.theory_il_db),
                                        [SignalAssignment("S", fixed_slot=20)], (1,)),
                           theory, DELTA_T1, n, edges)
    mc_theory_cps = analysis.counts_per_second(det1.count(*halves[0]), n, vcfg.frame_rate_hz)
    del det1

    # Part 2: three signals through the measured tables, reassigned groups.
    # Each collection rate is taken with co-windowed companions disconnected
    # (the arrangement the reported rates come from); signals occupying the
    # other half-window stay connected since gating removes them anyway.
    cps = {}
    histograms = {}
    for det_idx, (sid, groups) in enumerate(sorted(exp.collections.items())):
        sig = scenario.signal(sid)
        signals = [s for s in scenario.signals if s is sig or s.delayed != sig.delayed]
        gate = exp.gates.get(sid, "always")
        det = _detector_cells((ROLE_PHOTONS, det_idx),
                              _timebin_law(vcfg, channel, signals, groups), vcfg, gate, n, edges,
                              histogram=True)
        cps[sid] = analysis.counts_per_second(
            det.count(*halves[sig.offset_ps(vcfg)]), n, vcfg.frame_rate_hz
        )
        histograms[f"{sid}_g" + "+".join(map(str, groups))] = det.histogram
        del det  # released before the next detector is drawn
    total = sum(cps.values())
    cap = analysis.capacity_from_counts(total, vcfg.d)
    analytic = {
        sid: expected_collection_rate(scenario, channel, sid, groups)
        for sid, groups in exp.collections.items()
    }
    report = analysis.build_report(
        exp.kind, vcfg.seed, n,
        cps_per_collection=cps,
        capacity_qubits_per_s=cap,
        extra={
            "theory_single_signal_cps": theory_cps,
            "mc_single_signal_cps": mc_theory_cps,
            "total_cps": total,
            "analytic_collection_cps": analytic,
            # at eta 0 there is no efficiency to scale by
            "capacity_eta1_qubits_per_s": cap / vcfg.eta if vcfg.eta else None,
        },
    )
    return RunResult(report, histograms, tables=_group_rates(scenario, channel))


def _run_phase_er(scenario: Scenario, channel) -> RunResult:
    """Extinction ratios per output group.

    A delayed signal is measured alone on its groups in the second
    half-window (main arrangement).  Every other signal is measured with
    the delayed ones disconnected and the first remaining signal delayed,
    so its groups are measured without co-windowed crosstalk: the collected
    signal in its own window, the others gated out.  Each group is
    evaluated interfering and with either arm blocked; the non-interfering
    reference is the arm average.
    """
    vcfg, exp = scenario.cfg, scenario.experiment
    n = exp.n_frames
    phi_total = exp.phi_a + exp.phi_b

    plans = [(g, sid) for sid, groups in sorted(exp.collections.items()) for g in groups]
    er_by_group = {}
    p_phi_by_group = {}
    histograms = {}
    run_tag = 0
    rest = [replace(s, delayed=i == 0)
            for i, s in enumerate(s for s in scenario.signals if not s.delayed)]
    interior = {off: _interior_window(vcfg, off) for off in (0, vcfg.frame_window_ps)}
    edges = _cell_edges(vcfg, interior.values())
    for g, sid in plans:
        sig = scenario.signal(sid)
        signals = [sig] if sig.delayed else rest
        sig = next(s for s in signals if s.signal_id == sid)
        gate = DELTA_T2 if sig.delayed else DELTA_T1
        offset = sig.offset_ps(vcfg)
        counts = {}
        for arm in ("none", "delay", "direct"):
            det = _detector_cells((ROLE_PHOTONS, run_tag, g),
                                  _phase_law(vcfg, channel, signals, (g,), exp, phi_total, arm),
                                  vcfg, gate, n, edges, histogram=arm != "direct")
            counts[arm] = det.count(*interior[offset])
            if det.histogram:
                label = "interfering" if arm == "none" else "blocked"
                histograms[f"g{g}_{sid}_{label}"] = det.histogram
            run_tag += 1
        c0 = 0.5 * (counts["delay"] + counts["direct"])
        # no blocked-arm counts: no reference, so no estimate
        er_by_group[g] = analysis.extinction_ratio_db(c0, counts["none"]) if c0 else None
        # an ER below 0 dB has no probability, as in prob_from_db
        p_phi_by_group[g] = (counts["none"] / (2.0 * c0)
                             if c0 and counts["none"] <= 2.0 * c0 else None)
    er_mean = _mean_db(er_by_group.values())
    report = analysis.build_report(
        exp.kind, vcfg.seed, n,
        er_db_per_group={g: er_by_group[g] for g in sorted(er_by_group)},
        er_db_mean=er_mean,
        p_phi=analysis.prob_from_db(er_mean),
        extra={"p_phi_by_group": p_phi_by_group},
    )
    return RunResult(report, histograms, tables={
        "er_by_group.csv": [(g, sid, er_by_group[g]) for g, sid in sorted(plans)]})


def _run_phase_sweep(scenario: Scenario, channel) -> RunResult:
    """Counts vs total phase on the interfering port, with the sinusoid fit.

    Per phase point, counts are pulse-gated and background-subtracted over
    the interior positions, so the fitted visibility reflects the fringe
    contrast rather than the uniform floor.
    """
    vcfg, exp = scenario.cfg, scenario.experiment
    n = exp.n_frames
    fits = {}
    points = []  # counts_vs_phase.csv's rows
    run_tag = 0
    gates = {sid: _phase_gates(vcfg, scenario.signal(sid).offset_ps(vcfg))
             for sid in exp.collections}
    edges = _cell_edges(vcfg, [w for on_off in gates.values() for w in on_off])
    for det_idx, (sid, groups) in enumerate(sorted(exp.collections.items())):
        sig = scenario.signal(sid)
        gate = exp.gates.get(sid, DELTA_T2 if sig.delayed else DELTA_T1)
        on, off = gates[sid]
        for phi_b in exp.sweep_phi_b:
            det = _detector_cells((ROLE_PHOTONS, run_tag, det_idx),
                                  _phase_law(vcfg, channel, scenario.signals, groups, exp,
                                             exp.phi_a + phi_b, "none"),
                                  vcfg, gate, n, edges)
            run_tag += 1
            c = float(det.count(*on) - det.count(*off))
            points.append((sid, exp.phi_a + phi_b, c))
        fit = analysis.fit_visibility(p[1:] for p in points if p[0] == sid)
        fits[sid] = None if fit is None else asdict(fit)
    report = analysis.build_report(exp.kind, vcfg.seed, n, visibility=fits)
    return RunResult(report=report, tables={"counts_vs_phase.csv": points})


def _port_usable(cfg, law) -> np.ndarray:
    """Per frame class, the chances ``e^{-B} (1 - e^{-I})`` that port P's
    and port P''s first gated click lands on an interior position, ``B``
    and ``I`` the port's mean clicks before and inside the interior window:
    the first-click law's cell ``[lo, hi)`` between the edges ``(0, lo, hi,
    P)``, the two ports' rates stacked over the placements they share."""
    lo, hi = _interior_window(cfg, 0)
    ports = zip(*(_phase_components(cfg, law, port, "none", 0) for port in ("p", "p_prime")))
    # each pair of rates as (2, 1) or (2, classes)
    components = [[(np.reshape([rate, rate_prime], (2, -1)), placement)
                   for (rate, placement), (rate_prime, _) in ports]]
    return _first_click_law(components, cfg, DELTA_T1,
                            np.array([0, lo, hi, cfg.frame_period_ps]))[1][..., 1]


def simulate_bb84(cfg: SimConfig, n_frames: int, flux: float,
                  visibility_cap: float = 0.93, eve: bool = False,
                  phase_floor: float = 0.0) -> Bb84Result:
    """Run a full BB84 exchange over phase frames as per-batch tallies.

    ``flux`` is the received mean photons per frame at Bob's input.  Bob's
    ports, gated ``dt1`` at the rates of
    :func:`receiver.delay_interferometer_rates` over ``PHASE_TABLE``, are
    usable with ``p_P`` and ``p_P'`` a class (``_port_usable``, the
    first-click law at the interior window's edges): a frame lights P
    alone with ``p_P (1 - p_P')``, P' alone with ``p_P' (1 - p_P)``, and
    is inconclusive otherwise.  Summed over Eve's
    two bits, this is the law of the 24 tally cells, a visible word by
    outcome (``protocol.cell_law``); each batch's tally over them is one
    row of a multinomial draw from stream ``(ROLE_PHOTONS,)``, and the
    counts and the QBER are read from their sum
    (``Bb84Result.from_tallies``).
    """
    if not cfg.dead_time_nested:  # a port's frames would not be i.i.d.
        bound = ("at least frame_window_ps" if cfg.dead_time_ps < cfg.frame_window_ps
                 else "at most frame_window_ps + 1")
        raise ConfigError(f"BB84 nests the dead time in the blank half: dead_time_ps must be "
                          f"{bound}, got {cfg.dead_time_ps}")
    law = delay_interferometer_rates(
        cfg.eta * flux, cfg.d, visibility_cap, PHASE_TABLE, "none", phase_floor)
    p, pp = _port_usable(cfg, law)
    gen = RandomSource(cfg.seed).stream(ROLE_PHOTONS).generator()
    tallies = gen.multinomial(np.minimum(n_frames - np.arange(0, n_frames, BATCH), BATCH),
                              cell_law(p * (1 - pp), pp * (1 - p), eve))
    return Bb84Result.from_tallies(cfg.seed, tallies)


def _run_bb84(scenario: Scenario, channel) -> RunResult:
    vcfg, exp = scenario.cfg, scenario.experiment
    sig = scenario.signals[0]
    groups = exp.collections.get(sig.signal_id, (sig.input_group,))
    flux = _collected_flux(vcfg, channel, sig, groups)
    res = simulate_bb84(
        vcfg, exp.n_frames, flux, exp.visibility_cap, exp.kind == "bb84_eve",
        exp.phase_floor,
    )
    # the finite-key bound at the simulated error rate; no key (abort) when
    # nothing was sifted or the error rate is past the bound's range
    secret = 0.0
    if res.n_sifted and res.qber <= 0.5:
        secret = key_rate(res.n_sifted, res.qber)
    report = analysis.build_report(
        exp.kind, vcfg.seed, exp.n_frames,
        qber_sifted=res.qber if res.n_sifted else None,
        key_rate=secret,
        extra={
            "n_detected": res.n_detected,
            "n_sifted": res.n_sifted,
            "flux_per_frame": flux,
            "key_rate_params_n": res.n_sifted,
        },
    )
    return RunResult(report=report, bb84=res if exp.transcript else None)
