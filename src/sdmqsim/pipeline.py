"""End-to-end scenario runners.

Each runner simulates frames in fixed-size batches with per-(detector,
signal, batch) random streams, so results are independent of execution
order and reproducible from the scenario seed alone.  Photon sampling is
efficiency-thinned at the source (Poisson splitting), which is
statistically identical to sampling raw photons and thinning at the
detector.

Events are sampled per click, not per frame.  Each (signal, component,
batch) stream draws its total ``K ~ Poisson(lam * nb)`` over the ``nb``
frames of the batch, then ``K`` uniform frame indices, sorted.  This is
exact: independent Poisson(lam) counts over ``nb`` frames, conditioned on
their sum ``K``, are multinomial with equal cell probabilities, which is
what ``K`` uniform picks give.  The work is O(events) rather than
O(frames), which matters at the ~0.002 events per detector-frame of the
phase experiments.  Slot, jitter, edge and floor placement then act on the
``K`` events only.

A component whose rate differs from frame to frame (Bob's ports in BB84,
where each frame carries its own phase) is given as a rate table plus a
per-frame class array; each batch gathers ``table[cls[b0:b0+nb]]`` and is
thinned from its maximum (Lewis & Shedler, Naval Res. Logist. Q. 26, 1979):
``K`` picks are drawn at ``max(lam)`` and each pick in frame ``i`` is kept
with probability ``lam[i] / max(lam)``.  No per-frame float array of the
whole run is ever built.

Every detector is drawn by the one sampler ``_simulate_detector``; the
time-bin, phase and BB84 runners only describe each signal's components:
mean clicks per frame, taken from the channel and (for phase frames) from
``receiver.delay_interferometer_rates``, and where those clicks land.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import analysis
from .channel import ChannelModel, load_link_tables
from .config import (
    ConfigError,
    DELTA_T1,
    DELTA_T2,
    RandomSource,
    ROLE_ALICE,
    ROLE_BOB,
    ROLE_EVE,
    ROLE_PHOTONS,
    SignalAssignment,
    ValidatedConfig,
)
from .encoder import floor_fraction
from .protocol import (
    PHASE_TABLE,
    Bb84Result,
    KeyRateParams,
    decode,
    key_rate,
    phase_index,
    sift,
)
from .receiver import (
    Histogram,
    dead_time_mask,
    delay_interferometer_rates,
    gate_mask,
    histogram_from_times,
)
from .scenarios import Scenario

__all__ = [
    "build_channel",
    "expected_collection_rate",
    "DetectorResult",
    "RunResult",
    "run_scenario",
    "simulate_bb84",
]

BATCH = 1 << 16
# gated clicks a frame from which the first-click veto beats the time sort
FIRST_CLICK_DENSITY = 0.25


def build_channel(scenario: Scenario) -> ChannelModel:
    il, xt = load_link_tables(scenario.channel.tables_path)
    return ChannelModel(
        il=il,
        xt=xt,
        distance=scenario.channel.distance,
        mu_reference=scenario.channel.mu_reference,
        input_mdm_exclusion_db=scenario.channel.input_mdm_exclusion_db,
        uniform_il_db=scenario.channel.uniform_il_db,
    )


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
    include_excess: bool = True,
) -> float:
    """Analytic detected count rate (cps) of one signal into a collection.

    Photon-level expectation ``Lambda * R_f``, with ``Lambda`` = mu *
    transmission * collection fraction * eta clicks per frame.  With the
    dead time nested in the blank half-frame a gated collection clicks at
    most once a frame, in a fraction ``1 - exp(-Lambda)`` of frames (Lambda
    summed over the signals that land in the gate): 0.4-0.8% fewer clicks
    than this rate at the canned fluxes, 72-85% fewer at mu_in = 1000.
    """
    sig = scenario.signal(sid)
    if not include_excess:
        sig = replace(sig, excess_db=0.0)
    cfg = scenario.cfg
    return _collected_flux(cfg, channel, sig, groups) * cfg.eta * cfg.frame_rate_hz


# ---------------------------------------------------------------------------
# Batched event generation
# ---------------------------------------------------------------------------


@dataclass
class DetectorResult:
    """Accepted clicks of one detector over the whole run."""

    name: str
    t_within: np.ndarray
    frame_idx: np.ndarray
    origin: np.ndarray  # index into origins
    origins: tuple
    n_frames: int

    def histogram(self, vcfg: ValidatedConfig) -> Histogram:
        return histogram_from_times(self.t_within, vcfg, self.n_frames)

    def counts_in(self, lo_ps: int, hi_ps: int, origin: str | None = None) -> int:
        mask = (self.t_within >= lo_ps) & (self.t_within < hi_ps)
        if origin is not None:
            mask &= self.origin == self.origins.index(origin)
        return int(np.sum(mask))


@dataclass
class RunResult:
    """Report plus exportable artifacts of one scenario run."""

    report: analysis.MetricsReport
    histograms: dict = field(default_factory=dict)
    sweep_points: list = field(default_factory=list)
    group_rates: dict = field(default_factory=dict)
    er_by_group: dict = field(default_factory=dict)
    bb84: object = None


def _poisson_frames(gen, lam, nb: int) -> np.ndarray:
    """Sorted frame indices in ``[0, nb)`` of a Poisson(lam)-per-frame stream.

    One Poisson total, then that many uniform frame picks: the same joint
    law as ``nb`` per-frame Poisson draws (see the module docstring).
    ``lam`` may be an array of ``nb`` per-frame rates, thinned from its
    maximum.
    """
    per_frame = isinstance(lam, np.ndarray)
    lam_max = lam.max() if per_frame else lam
    idx = gen.integers(0, nb, size=gen.poisson(lam_max * nb))
    idx.sort()
    if per_frame:
        idx = idx[gen.random(len(idx)) * lam_max < lam[idx]]
    return idx


def _jittered(gen, t, vcfg) -> np.ndarray:
    """Pulse click times ``t`` (a fresh array) plus detector jitter, clamped
    to the frame."""
    sigma = vcfg.jitter_sigma_ps
    if sigma > 0 and len(t):
        t += np.rint(gen.normal(0.0, sigma, size=len(t))).astype(np.int64)
    np.clip(t, 0, vcfg.frame_period_ps - 1, out=t)
    return t


def _simulate_detector(
    name: str,
    key: tuple,
    components: list,
    origins: tuple,
    vcfg: ValidatedConfig,
    gate: str,
    n_frames: int,
) -> DetectorResult:
    """Draw, gate and dead-time veto every click of one detector.

    ``components[s]`` lists signal ``s``'s ``(lam, place)`` pairs: ``lam``
    mean clicks per frame (a scalar, or a ``(table, cls)`` pair giving frame
    ``i`` the rate ``table[cls[i]]``, gathered one batch at a time) and
    ``place(gen, frames)`` the within-frame times of clicks in those
    frames.  Stream ``(*key, s, batch)`` draws each component's frames,
    then places them, in list order.
    """
    root = RandomSource(vcfg.seed)
    pieces_t, pieces_f, pieces_o = [], [], []
    for sig_pos, comps in enumerate(components):
        for b0 in range(0, n_frames, BATCH):
            nb = min(BATCH, n_frames - b0)
            gen = root.stream(*key, sig_pos, b0 // BATCH).generator()
            for lam, place in comps:
                if isinstance(lam, tuple):
                    table, cls = lam
                    lam = table[cls[b0:b0 + nb]]
                frames = b0 + _poisson_frames(gen, lam, nb)
                if len(frames):
                    pieces_t.append(place(gen, frames))
                    pieces_f.append(frames)
                    pieces_o.append(np.full(len(frames), sig_pos, dtype=np.int8))
    return _finish_detector(
        name, pieces_t, pieces_f, pieces_o, origins, vcfg, gate, n_frames
    )


def _timebin_components(vcfg, lam, f, offset, slot) -> tuple:
    """The slot pulse (jittered) and the floor over the occupied window."""
    center = offset + vcfg.slot_center[slot]
    window = vcfg.frame_window_ps
    return (
        (lam * (1 - f), lambda gen, fr: _jittered(gen, np.full(len(fr), center), vcfg)),
        (lam * f, lambda gen, fr: offset + gen.integers(0, window, size=len(fr))),
    )


def _simulate_collection(scenario, vcfg, channel, key, name, groups, gate, enabled,
                         n_frames, place) -> DetectorResult:
    """All clicks of one gated detector watching a group collection.

    ``place(sig, lam)`` gives the components of signal ``sig``, which
    reaches the detector at ``lam`` mean clicks per frame.
    """
    components = [place(sig, _collected_flux(vcfg, channel, sig, groups) * vcfg.eta)
                  for sig in map(scenario.signal, enabled)]
    return _simulate_detector("g" + "+".join(map(str, groups)) + name, key, components,
                              tuple(enabled), vcfg, gate, n_frames)


def _simulate_timebin_detector(
    scenario: Scenario,
    vcfg: ValidatedConfig,
    channel: ChannelModel,
    det_idx: int,
    groups,
    gate: str,
    enabled: list[str],
    n_frames: int,
) -> DetectorResult:
    """Clicks of one detector watching the signals' time-bin slots."""

    def place(sig, lam):
        ext = sig.im_extinction if sig.im_extinction is not None else vcfg.im_extinction
        return _timebin_components(vcfg, lam, floor_fraction(vcfg.d, ext),
                                   sig.offset_ps(vcfg), sig.fixed_slot)

    return _simulate_collection(scenario, vcfg, channel, (ROLE_PHOTONS, det_idx), "",
                                groups, gate, enabled, n_frames, place)


def _finish_detector(name, pieces_t, pieces_f, pieces_o, origins, vcfg, gate, n_frames):
    if pieces_t:
        t = np.concatenate(pieces_t)
        fr = np.concatenate(pieces_f).astype(np.int64, copy=False)
        orig = np.concatenate(pieces_o)
    else:
        t = np.zeros(0, dtype=np.int64)
        fr = np.zeros(0, dtype=np.int64)
        orig = np.zeros(0, dtype=np.int8)
    # gate first: the mask reads only t_within, and the stable sort keeps
    # the survivors' relative order, so sorting fewer events changes nothing
    window, tau = vcfg.frame_window_ps, vcfg.dead_time_ps
    keep = gate_mask(t, gate, window)
    t, fr, orig = t[keep], fr[keep], orig[keep]
    # a dead time nested in the blank half keeps each frame's first gated
    # click (see receiver); its per-frame array pays off on dense detectors
    if gate != "always" and window <= tau <= window + 1 and (
        len(t) >= FIRST_CLICK_DENSITY * n_frames
    ):
        kept = np.flatnonzero(dead_time_mask(t, tau, fr))
        # to frame order; the stable sort (timsort) merges the pieces' runs
        order = kept[np.argsort(fr[kept], kind="stable")]
    else:
        t_abs = fr * vcfg.frame_period_ps + t
        order = np.argsort(t_abs, kind="stable")
        order = order[dead_time_mask(t_abs[order], tau)]
    return DetectorResult(
        name=name,
        t_within=t[order],
        frame_idx=fr[order],
        origin=orig[order],
        origins=origins,
        n_frames=n_frames,
    )


def _phase_components(vcfg, rates, port, arm, offset) -> tuple:
    """Interior, edge and floor clicks of one port, in stream order.

    Position ``j`` of the d+1 interferometer outputs is centered at
    ``offset + j T_p + T_p/2``; interior clicks pick 1..d-1 with equal
    weights.  The floor covers the occupied window through each open arm,
    the delay arm shifting it by one pulse period.
    """
    d, tp = vcfg.d, vcfg.pulse_period_ps
    t0 = offset + tp // 2
    window = vcfg.frame_window_ps

    def floor(gen, fr):
        t = offset + gen.integers(0, window, size=len(fr))
        if arm == "none":
            t = t + tp * (gen.random(len(fr)) < 0.5)
        elif arm == "direct":
            t = t + tp  # only the delayed arm is open
        return np.minimum(t, vcfg.frame_period_ps - 1)

    interior = rates.interior_p if port == "p" else rates.interior_p_prime
    return (
        (interior, lambda gen, fr: _jittered(
            gen, t0 + gen.integers(1, d, size=len(fr)) * tp, vcfg)),
        (rates.edge_0, lambda gen, fr: _jittered(gen, np.full(len(fr), t0), vcfg)),
        (rates.edge_d, lambda gen, fr: _jittered(
            gen, np.full(len(fr), t0 + d * tp), vcfg)),
        (rates.floor, floor),
    )


def _simulate_phase_detector(
    scenario: Scenario,
    vcfg: ValidatedConfig,
    channel: ChannelModel,
    det_idx: int,
    groups,
    gate: str,
    enabled: list[str],
    n_frames: int,
    phi_total: float,
    port: str,
    arm: str,
    run_tag: int,
) -> DetectorResult:
    """Clicks of one detector behind the delay interferometer.

    ``phi_total`` is phi_a + phi_b; every contributing train carries the
    same transmitted differential phase, and each photon self-interferes
    across its own train regardless of which signal it leaked from.
    """
    exp = scenario.experiment

    def place(sig, lam):
        rates = delay_interferometer_rates(lam, vcfg.d, exp.visibility_cap, phi_total,
                                           arm, exp.phase_floor)
        return _phase_components(vcfg, rates, port, arm, sig.offset_ps(vcfg))

    return _simulate_collection(scenario, vcfg, channel, (ROLE_PHOTONS, run_tag, det_idx),
                                f":{port}", groups, gate, enabled, n_frames, place)


# ---------------------------------------------------------------------------
# Window helpers
# ---------------------------------------------------------------------------


def _slot_counts(det: DetectorResult, vcfg, sig) -> int:
    lo = sig.offset_ps(vcfg) + sig.fixed_slot * vcfg.pulse_period_ps
    return det.counts_in(lo, lo + vcfg.pulse_period_ps)


def _interior_window(vcfg, offset_ps):
    tp = vcfg.pulse_period_ps
    return offset_ps + tp, offset_ps + vcfg.d * tp


def _gated_phase_counts(det: DetectorResult, vcfg, offset_ps) -> float:
    """Pulse-gated, background-subtracted counts over interior positions.

    On-gates are +-375 ps around each interior position center; equal-width
    off-gates between positions estimate the uniform floor, which is
    subtracted.
    """
    tp = vcfg.pulse_period_ps
    rel = det.t_within.astype(np.int64) - offset_ps
    j = rel // tp
    interior = (j >= 1) & (j <= vcfg.d - 1)
    within = rel - j * tp
    dist = np.abs(within - tp // 2)
    n_sig = int(np.sum(interior & (dist <= 375)))
    n_bkg = int(np.sum(interior & (dist > tp // 2 - 375)))
    return float(n_sig - n_bkg)


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


def run_scenario(scenario: Scenario) -> RunResult:
    """Dispatch to the experiment-specific runner."""
    kind = scenario.experiment.kind
    runner = {
        "timebin_B": _run_timebin,
        "timebin_xt": _run_timebin,
        "capacity": _run_capacity,
        "phase_er": _run_phase_er,
        "phase_sweep": _run_phase_sweep,
        "bb84": _run_bb84,
        "bb84_eve": _run_bb84,
    }[kind]
    return runner(scenario)


def _enabled_signals(scenario) -> list[str]:
    return [s.signal_id for s in scenario.signals]


def _analytic_group_rates(scenario, vcfg, channel) -> dict:
    """Model expectation of each signal's rate into each output group."""
    rates = {}
    for sig in scenario.signals:
        rates[sig.signal_id] = {
            g: _collected_flux(vcfg, channel, sig, (g,)) * vcfg.eta * vcfg.frame_rate_hz
            for g in range(1, 6)
        }
    return rates


def _run_timebin(scenario: Scenario) -> RunResult:
    vcfg = scenario.validated()
    channel = build_channel(scenario)
    exp = scenario.experiment
    n = exp.n_frames
    enabled = _enabled_signals(scenario)
    # timebin_B reads crosstalk on its one delayed signal's collection, and
    # timebin_xt compares one delayed signal's slot with one undelayed one's
    delayed = [s for s in scenario.signals if s.delayed]
    early = [s for s in scenario.signals if not s.delayed]
    if exp.kind == "timebin_B" and (
            len(delayed) != 1 or delayed[0].signal_id not in exp.collections):
        raise ConfigError("timebin_B needs exactly one collected signal with delayed = "
                          f"true, got {len(delayed)} delayed")
    if exp.kind == "timebin_xt" and (len(delayed), len(early)) != (1, 1):
        raise ConfigError("timebin_xt needs one signal with delayed = true and one with "
                          f"delayed = false, got {len(delayed)} and {len(early)}")
    (late,) = delayed
    window, tp = vcfg.frame_window_ps, vcfg.pulse_period_ps

    # the delayed signal's dt2 slot against the others' dt1 slots; with
    # both empty there is no estimate
    def crosstalk(det):
        c2 = _slot_counts(det, vcfg, late)
        c1 = sum(_slot_counts(det, vcfg, o) for o in early)
        return analysis.crosstalk_db(c2, c1) if c2 + c1 else None

    cps = {}
    snr_by_signal = {}
    rho = {}
    rho_kk = {}
    xt_db: dict[str, float | None] = {}
    extra: dict = {}
    histograms = {}
    for det_idx, (sid, groups) in enumerate(sorted(exp.collections.items())):
        gate = exp.gates.get(sid, "always")
        det = _simulate_timebin_detector(
            scenario, vcfg, channel, det_idx, groups, gate, enabled, n
        )
        sig = scenario.signal(sid)
        offset = sig.offset_ps(vcfg)
        # other signals' pulses sharing this half-window are known spikes,
        # not floor: their slots are left out of the floor
        foreign = [
            o for o in scenario.signals
            if o.offset_ps(vcfg) == offset and o.fixed_slot != sig.fixed_slot
        ]
        pulse = _slot_counts(det, vcfg, sig)
        known = pulse + sum(_slot_counts(det, vcfg, o) for o in foreign)
        half = det.counts_in(offset, offset + window)
        train = det.counts_in(offset, offset + vcfg.d * tp)
        cps[sid] = analysis.counts_per_second(half, n, vcfg.frame_rate_hz)
        histograms[f"{sid}_{det.name}"] = det.histogram(vcfg)
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
            extra[f"{ids.lower()}_counts_in_dt2_on_{sid}"] = sum(
                det.counts_in(window, vcfg.frame_period_ps, o.signal_id) for o in early
            )

    # +inf and -inf signals average to no estimate
    snrs = [v for v in snr_by_signal.values() if v is not None]
    snr_mean = (
        sum(snrs) / len(snrs) if snrs and not {math.inf, -math.inf} <= set(snrs) else None
    )
    finite_xt = [abs(v) for v in xt_db.values() if v is not None and math.isfinite(v)]
    p_xt = analysis.prob_from_db(min(finite_xt, default=None))
    report = analysis.MetricsReport(
        experiment=exp.kind,
        seed=vcfg.seed,
        n_frames=n,
        cps_per_collection=cps,
        xt_db=xt_db or None,
        snr_db=snr_mean,
        snr_db_per_signal=snr_by_signal,
        rho_diag=rho,
        p_xt=p_xt,
        p_snr=analysis.prob_from_db(snr_mean),
        extra={**extra, "rho_kk": rho_kk},
    )
    return RunResult(
        report=report,
        histograms=histograms,
        group_rates=_analytic_group_rates(scenario, vcfg, channel),
    )


def _run_capacity(scenario: Scenario) -> RunResult:
    vcfg = scenario.validated()
    channel = build_channel(scenario)
    exp = scenario.experiment
    n = exp.n_frames

    # Part 1: idealized single-signal budget at a flat insertion loss.
    theory_cps = (
        exp.theory_mu
        * vcfg.eta
        * vcfg.frame_rate_hz
        * float(10 ** (exp.theory_il_db / 10.0))
    )
    theory_scenario = replace(
        scenario,
        cfg=replace(scenario.cfg, mu_in=exp.theory_mu),
        signals=(SignalAssignment("S", input_group=1, delayed=False, fixed_slot=20),),
        channel=replace(scenario.channel, uniform_il_db=exp.theory_il_db),
    )
    tvcfg = theory_scenario.validated()
    ch1 = build_channel(theory_scenario)
    det1 = _simulate_timebin_detector(
        theory_scenario, tvcfg, ch1, 90, (1,), DELTA_T1, ["S"], n
    )
    mc_theory_cps = analysis.counts_per_second(
        det1.counts_in(0, tvcfg.frame_window_ps), n, tvcfg.frame_rate_hz
    )

    # Part 2: three signals through the measured tables, reassigned groups.
    # Each collection rate is taken with co-windowed companions disconnected
    # (the arrangement the reported rates come from); signals occupying the
    # other half-window stay connected since gating removes them anyway.
    cps = {}
    histograms = {}
    for det_idx, (sid, groups) in enumerate(sorted(exp.collections.items())):
        sig = scenario.signal(sid)
        sub = replace(
            scenario,
            signals=tuple(
                s
                for s in scenario.signals
                if s.signal_id == sid or s.delayed != sig.delayed
            ),
        )
        enabled = _enabled_signals(sub)
        gate = exp.gates.get(sid, "always")
        det = _simulate_timebin_detector(
            sub, vcfg, channel, det_idx, groups, gate, enabled, n
        )
        off = sig.offset_ps(vcfg)
        cps[sid] = analysis.counts_per_second(
            det.counts_in(off, off + vcfg.frame_window_ps), n, vcfg.frame_rate_hz
        )
        histograms[f"{sid}_{det.name}"] = det.histogram(vcfg)
    total = sum(cps.values())
    cap = analysis.capacity_from_counts(total, vcfg.d)
    analytic = {
        sid: expected_collection_rate(scenario, channel, sid, groups)
        for sid, groups in exp.collections.items()
    }
    report = analysis.MetricsReport(
        experiment="capacity",
        seed=vcfg.seed,
        n_frames=n,
        cps_per_collection=cps,
        capacity_qubits_per_s=cap,
        extra={
            "theory_single_signal_cps": theory_cps,
            "mc_single_signal_cps": mc_theory_cps,
            "total_cps": total,
            "analytic_collection_cps": analytic,
            "capacity_eta1_qubits_per_s": cap / vcfg.eta,
        },
    )
    return RunResult(
        report=report,
        histograms=histograms,
        group_rates=_analytic_group_rates(scenario, vcfg, channel),
    )


def _run_phase_er(scenario: Scenario) -> RunResult:
    """Extinction ratios per output group.

    A delayed signal is measured alone on its groups in the second
    half-window (main arrangement).  Every other signal is measured with
    the delayed ones disconnected and the first remaining signal delayed,
    so its groups are measured without co-windowed crosstalk: the collected
    signal in its own window, the others gated out.  Each group is
    evaluated interfering and with either arm blocked; the non-interfering
    reference is the arm average.
    """
    vcfg = scenario.validated()
    channel = build_channel(scenario)
    exp = scenario.experiment
    n = exp.n_frames
    phi_total = exp.phi_a + exp.phi_b

    plans = []
    for sid, groups in sorted(exp.collections.items()):
        for g in groups:
            plans.append((g, sid))
    er_by_group = {}
    p_phi_by_group = {}
    histograms = {}
    run_tag = 0
    rest = [s for s in scenario.signals if not s.delayed]
    alt = replace(
        scenario, signals=tuple(replace(s, delayed=i == 0) for i, s in enumerate(rest))
    )
    for g, sid in plans:
        sig = scenario.signal(sid)
        sub = replace(scenario, signals=(sig,)) if sig.delayed else alt
        enabled = _enabled_signals(sub)
        sub_sig = sub.signal(sid)
        gate = DELTA_T2 if sub_sig.delayed else DELTA_T1
        offset = sub_sig.offset_ps(vcfg)
        counts = {}
        for arm in ("none", "delay", "direct"):
            det = _simulate_phase_detector(
                sub, vcfg, channel, g, (g,), gate, enabled, n,
                phi_total, "p", arm, run_tag,
            )
            counts[arm] = det.counts_in(*_interior_window(vcfg, offset))
            if arm in ("none", "delay"):
                label = "interfering" if arm == "none" else "blocked"
                histograms[f"g{g}_{sid}_{label}"] = det.histogram(vcfg)
            run_tag += 1
        c0 = 0.5 * (counts["delay"] + counts["direct"])
        # no blocked-arm counts: no reference, so no estimate
        er_by_group[g] = analysis.extinction_ratio_db(c0, counts["none"]) if c0 else None
        p_phi_by_group[g] = counts["none"] / (2.0 * c0) if c0 else None
    ers = [v for v in er_by_group.values() if v is not None]
    finite = [v for v in ers if math.isfinite(v)]
    # every ER infinite (ideal interferometer, no floor): extinction is total
    er_mean = sum(finite) / len(finite) if finite else math.inf if ers else None
    report = analysis.MetricsReport(
        experiment="phase_er",
        seed=vcfg.seed,
        n_frames=n,
        er_db_per_group={g: er_by_group[g] for g in sorted(er_by_group)},
        er_db_mean=er_mean,
        p_phi=analysis.prob_from_db(er_mean),
        extra={"p_phi_by_group": p_phi_by_group},
    )
    return RunResult(
        report=report,
        histograms=histograms,
        er_by_group={g: (sid, er_by_group[g]) for g, sid in sorted(plans)},
    )


def _run_phase_sweep(scenario: Scenario) -> RunResult:
    """Counts vs total phase on the interfering port, with the sinusoid fit.

    Per phase point, counts are pulse-gated and background-subtracted over
    the interior positions, so the fitted visibility reflects the fringe
    contrast rather than the uniform floor.
    """
    vcfg = scenario.validated()
    channel = build_channel(scenario)
    exp = scenario.experiment
    n = exp.n_frames
    enabled = _enabled_signals(scenario)
    fits = {}
    points_out = []
    run_tag = 0
    for det_idx, (sid, groups) in enumerate(sorted(exp.collections.items())):
        sig = scenario.signal(sid)
        gate = exp.gates.get(sid, DELTA_T2 if sig.delayed else DELTA_T1)
        offset = sig.offset_ps(vcfg)
        pts = []
        for phi_b in exp.sweep_phi_b:
            det = _simulate_phase_detector(
                scenario, vcfg, channel, det_idx, groups, gate,
                enabled, n, exp.phi_a + phi_b, "p", "none", run_tag,
            )
            run_tag += 1
            c = _gated_phase_counts(det, vcfg, offset)
            pts.append((exp.phi_a + phi_b, c))
            points_out.append((sid, exp.phi_a + phi_b, c))
        fit = analysis.fit_visibility(pts)
        fits[sid] = None if fit is None else asdict(fit)
    report = analysis.MetricsReport(
        experiment="phase_sweep",
        seed=vcfg.seed,
        n_frames=n,
        visibility=fits,
    )
    return RunResult(report=report, sweep_points=points_out)


def _usable_frames(det: DetectorResult, vcfg) -> np.ndarray:
    """Sorted frames whose first click lands on an interior position."""
    fr, t = det.frame_idx, det.t_within
    lo, hi = _interior_window(vcfg, 0)
    return fr[(np.diff(fr, prepend=-1) != 0) & (t >= lo) & (t < hi)]


def _coin(gen, n: int) -> np.ndarray:
    """``gen.random(n) < 0.5``, the same doubles drawn a batch at a time."""
    coin = np.empty(n, dtype=bool)
    buf = np.empty(min(n, BATCH))
    for b0 in range(0, n, BATCH):
        part = buf[:min(BATCH, n - b0)]
        gen.random(out=part)
        np.less(part, 0.5, out=coin[b0:b0 + len(part)])
    return coin


def simulate_bb84(cfg: ValidatedConfig, n_frames: int, flux: float,
                  visibility_cap: float = 0.93, eve: bool = False,
                  phase_floor: float = 0.0) -> Bb84Result:
    """Run a full BB84 exchange over phase frames.

    ``flux`` is the received mean photons per frame at Bob's input.  Each
    of Bob's two ports is a detector gated to the first half-window and
    drawn by ``_simulate_detector`` at the rates of
    :func:`receiver.delay_interferometer_rates` over ``PHASE_TABLE``, one
    per frame class.  A port's outcome in a frame is its first click past
    the gate and the dead time; it is usable on an interior position.
    An intercept-resend Eve measures in a random basis; where it differs
    from Alice's she re-sends a uniformly random state of her own basis.
    """
    root = RandomSource(cfg.seed)
    gen_a = root.stream(ROLE_ALICE).generator()
    bits = gen_a.integers(0, 2, size=n_frames, dtype=np.int8)
    alice_x = _coin(gen_a, n_frames)  # True -> X
    sent = phase_index(alice_x, bits)
    if eve:
        gen_e = root.stream(ROLE_EVE).generator()
        eve_x = _coin(gen_e, n_frames)
        eve_bits = gen_e.integers(0, 2, size=n_frames, dtype=np.int8)
        sent = np.where(eve_x == alice_x, sent, phase_index(eve_x, eve_bits))
    bob_x = _coin(root.stream(ROLE_BOB).generator(), n_frames)
    cls = phase_index(bob_x, sent)

    law = delay_interferometer_rates(
        cfg.eta * flux, cfg.d, visibility_cap, PHASE_TABLE, "none", phase_floor)
    rates = law._replace(interior_p=(law.interior_p, cls),
                         interior_p_prime=(law.interior_p_prime, cls))
    usable_p, usable_pp = [
        _usable_frames(_simulate_detector(
            port, (ROLE_PHOTONS, i), [_phase_components(cfg, rates, port, "none", 0)],
            ("alice",), cfg, DELTA_T1, n_frames,
        ), cfg)
        for i, port in enumerate(("p", "p_prime"))
    ]
    frames, bob_bits = decode(usable_p, usable_pp, bob_x)
    key_a, key_b, qber = sift(bits[frames], alice_x[frames], bob_x[frames], bob_bits)
    return Bb84Result(n_frames, len(frames), len(key_a), qber, key_a, key_b,
                      bits, alice_x, bob_x, frames, bob_bits)


def _run_bb84(scenario: Scenario) -> RunResult:
    vcfg = scenario.validated()
    channel = build_channel(scenario)
    exp = scenario.experiment
    sid = _enabled_signals(scenario)[0]
    sig = scenario.signal(sid)
    groups = exp.collections.get(sid, (sig.input_group,))
    flux = _collected_flux(vcfg, channel, sig, groups)
    res = simulate_bb84(
        vcfg, exp.n_frames, flux, exp.visibility_cap, exp.kind == "bb84_eve",
        exp.phase_floor,
    )
    # the finite-key bound at the simulated error rate; no key (abort) when
    # nothing was sifted or the error rate is past the bound's range
    secret = 0.0
    if res.n_sifted and res.qber <= 0.5:
        secret = key_rate(KeyRateParams(n=res.n_sifted, q_tol=res.qber))
    report = analysis.MetricsReport(
        experiment=exp.kind,
        seed=vcfg.seed,
        n_frames=exp.n_frames,
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
