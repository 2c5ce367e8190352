"""Detection chain: gated single-photon detectors, the time-delay
interferometer and histogram accumulation.

Dead time is non-paralyzable (a photon arriving during the dead interval
does not extend it), matching gated detector behaviour; a paralyzable mode
is available as a flag.  Interference is computed at intensity level with a
hardware visibility cap: the channel randomizes inter-signal phases, so
only each photon's self-interference across its own pulse train survives.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import (
    DELTA_T1,
    DELTA_T2,
    FrameAmplitudes,
    RandomSource,
    ValidatedConfig,
)
from .channel import PhotonEvent

__all__ = [
    "DetectorConfig",
    "InterferometerConfig",
    "DetectionRecord",
    "Histogram",
    "InterferedFrame",
    "detect",
    "time_window_filter",
    "interfere",
    "accumulate",
    "export_histogram",
    "gate_mask",
    "dead_time_mask",
]

GATES = (DELTA_T1, DELTA_T2, "always")


@dataclass(frozen=True)
class DetectorConfig:
    """Single-photon detector parameters.

    ``gate`` selects which half of the frame period the detector is live in
    (clicks started inside the gate still impose dead time afterwards).
    """

    eta: float = 0.15
    dead_time_ps: int = 100_000
    gate: str = DELTA_T1
    dark_rate_hz: float = 0.0
    paralyzable: bool = False
    name: str = "D_T"

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must be in [0, 1], got {self.eta}")
        if self.dead_time_ps < 0:
            raise ValueError("dead time must be >= 0")
        if self.gate not in GATES:
            raise ValueError(f"gate must be one of {GATES}")
        if self.dark_rate_hz < 0:
            raise ValueError("dark rate must be >= 0")


@dataclass(frozen=True)
class InterferometerConfig:
    """One-pulse-delay interferometer settings.

    The delay must equal the pulse period exactly so adjacent pulses
    overlap; ``visibility_cap`` bounds the achievable fringe contrast
    (polarization and alignment residuals).  ``arm_blocked`` selects the
    non-interfering reference configuration: "direct"/"delay" block one arm,
    "mean" is the average of both blocked patterns.
    """

    delay_ps: int
    phi_b: float = 0.0
    visibility_cap: float = 0.93
    arm_blocked: str = "none"

    def __post_init__(self):
        if not 0.0 < self.visibility_cap <= 1.0:
            raise ValueError("visibility_cap must be in (0, 1]")
        if self.arm_blocked not in ("none", "direct", "delay", "mean"):
            raise ValueError("arm_blocked must be none/direct/delay/mean")

    def check_delay(self, pulse_period_ps: int) -> None:
        if self.delay_ps != pulse_period_ps:
            raise ValueError(
                f"interferometer delay {self.delay_ps} ps must equal the "
                f"pulse period {pulse_period_ps} ps"
            )


@dataclass(frozen=True)
class DetectionRecord:
    """An accepted detector click (within-frame timestamp, ps)."""

    t_ps: int
    detector: str
    frame_idx: int
    origin: str = ""


@dataclass(frozen=True)
class Histogram:
    """Binned detection counts over one frame period."""

    bins: np.ndarray
    n_frames: int
    hist_res_ps: int

    @property
    def total(self) -> int:
        return int(self.bins.sum())

    def counts_between(self, lo_ps: int, hi_ps: int) -> int:
        """Counts with bin start in [lo_ps, hi_ps)."""
        lo = math.ceil(lo_ps / self.hist_res_ps)
        hi = math.ceil(hi_ps / self.hist_res_ps)
        return int(self.bins[lo:hi].sum())


# ---------------------------------------------------------------------------
# Detection primitives (array level; object APIs wrap these)
# ---------------------------------------------------------------------------


def gate_mask(t_within: np.ndarray, gate: str, frame_window_ps: int) -> np.ndarray:
    t_within = np.asarray(t_within)
    if gate == "always":
        return np.ones(t_within.shape, dtype=bool)
    if gate == DELTA_T1:
        return t_within < frame_window_ps
    return t_within >= frame_window_ps


def dead_time_mask(
    t_abs_sorted: np.ndarray, dead_time_ps: int, paralyzable: bool = False
) -> np.ndarray:
    """Greedy dead-time veto over time-sorted absolute timestamps.

    An event is kept when it is at least ``dead_time_ps`` after the last
    kept event (non-paralyzable) or after the last raw event (paralyzable).

    A cluster starts at the first event and at every event whose gap to the
    previous raw event is ``>= dead_time_ps``.  Cluster starts are always
    kept, since the last kept event is no later than the previous raw one;
    the paralyzable veto keeps exactly the cluster starts.  A
    non-paralyzable cluster keeps more only if the first event at least
    ``dead_time_ps`` after its start still falls inside it; only those
    clusters are walked, jumping from kept event to kept event by binary
    search, so vetoed events are never visited.
    """
    t = np.asarray(t_abs_sorted)
    n = len(t)
    keep = np.ones(n, dtype=bool)
    if dead_time_ps <= 0 or n == 0:
        return keep
    keep[1:] = np.diff(t) >= dead_time_ps
    if paralyzable:
        return keep
    starts = np.flatnonzero(keep)
    ends = np.append(starts[1:], n)
    first = np.searchsorted(t, t[starts] + dead_time_ps)
    walk = first < ends
    for i, end in zip(first[walk].tolist(), ends[walk].tolist()):
        while i < end:
            keep[i] = True
            i = bisect.bisect_left(t, t[i] + dead_time_ps, i + 1, end)
    return keep


def detect(
    events: list[PhotonEvent],
    det: DetectorConfig,
    cfg: ValidatedConfig,
    rng: RandomSource | np.random.Generator,
    n_frames: int | None = None,
) -> list[DetectionRecord]:
    """Run the detector over time-sorted photon events.

    Each photon is kept with probability ``eta``, discarded outside the gate
    window, then vetoed if it falls within the dead time of the previous
    accepted click.  Dark counts (if configured) are injected uniformly over
    the gate; ``n_frames`` bounds the dark-count generation span.
    """
    gen = rng if isinstance(rng, np.random.Generator) else rng.generator()
    period = cfg.frame_period_ps
    t_abs = np.array(
        [e.frame_idx * period + e.t_ps for e in events], dtype=np.int64
    )
    if np.any(np.diff(t_abs) < 0):
        raise ValueError("events must be sorted by absolute time")
    t_within = np.array([e.t_ps for e in events], dtype=np.int64)
    origins = [e.origin for e in events]
    frames = np.array([e.frame_idx for e in events], dtype=np.int64)

    keep = gen.random(len(events)) < det.eta if det.eta < 1.0 else np.ones(
        len(events), dtype=bool
    )
    keep &= gate_mask(t_within, det.gate, cfg.frame_window_ps)

    if det.dark_rate_hz > 0:
        if n_frames is None:
            n_frames = int(frames.max()) + 1 if len(frames) else 1
        gate_span = period if det.gate == "always" else cfg.frame_window_ps
        mean_dark = det.dark_rate_hz * gate_span * 1e-12 * n_frames
        n_dark = gen.poisson(mean_dark)
        if n_dark:
            dark_frames = gen.integers(0, n_frames, size=n_dark)
            lo = cfg.frame_window_ps if det.gate == DELTA_T2 else 0
            dark_t = gen.integers(lo, lo + gate_span, size=n_dark)
            t_abs = np.concatenate([t_abs[keep], dark_frames * period + dark_t])
            t_within = np.concatenate([t_within[keep], dark_t])
            frames = np.concatenate([frames[keep], dark_frames])
            origins = [o for o, k in zip(origins, keep) if k] + ["dark"] * n_dark
            order = np.argsort(t_abs, kind="stable")
            t_abs, t_within, frames = t_abs[order], t_within[order], frames[order]
            origins = [origins[i] for i in order]
            keep = np.ones(len(t_abs), dtype=bool)
        else:
            t_abs, t_within, frames = t_abs[keep], t_within[keep], frames[keep]
            origins = [o for o, k in zip(origins, keep) if k]
            keep = np.ones(len(t_abs), dtype=bool)
    else:
        t_abs, t_within, frames = t_abs[keep], t_within[keep], frames[keep]
        origins = [o for o, k in zip(origins, keep) if k]
        keep = np.ones(len(t_abs), dtype=bool)

    keep &= dead_time_mask(t_abs, det.dead_time_ps, det.paralyzable)
    return [
        DetectionRecord(int(t_within[i]), det.name, int(frames[i]), origins[i])
        for i in np.nonzero(keep)[0]
    ]


def time_window_filter(
    records: list[DetectionRecord], window: str, frame_window_ps: int
) -> list[DetectionRecord]:
    """Keep records whose timestamp falls in the chosen half of the period."""
    if window not in (DELTA_T1, DELTA_T2):
        raise ValueError(f"window must be {DELTA_T1} or {DELTA_T2}")
    if window == DELTA_T1:
        return [r for r in records if r.t_ps < frame_window_ps]
    return [r for r in records if r.t_ps >= frame_window_ps]


# ---------------------------------------------------------------------------
# Interferometer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InterferedFrame:
    """Per-position intensities at the two interferometer outputs.

    A d-pulse train yields d+1 temporal positions; positions 0 and d are the
    non-interfering edge pulses.  ``floor_p``/``floor_p_prime`` are the
    uniform-floor rates routed to each port.
    """

    port_p: np.ndarray
    port_p_prime: np.ndarray
    floor_p: float
    floor_p_prime: float
    offset_ps: int

    @property
    def n_positions(self) -> int:
        return len(self.port_p)

    def interior(self, port: str) -> np.ndarray:
        arr = self.port_p if port == "p" else self.port_p_prime
        return arr[1:-1]


def interfere(frame: FrameAmplitudes, icfg: InterferometerConfig,
              pulse_period_ps: int | None = None) -> InterferedFrame:
    """Overlap the train with its one-period-delayed replica.

    Interior position ``j`` (1..d-1) on port P carries
    ``(I_j + I_{j-1})/4 + (V/2) Re(a_j conj(a_{j-1}) e^{i phi_b})``, which for
    a uniform train reduces to ``(I/2) (1 + V cos(phi_a + phi_b))``; port P'
    gets the complementary lobe.  Edge positions are non-interfering
    quarter-intensity pulses.  With an arm blocked there is no interference
    and both ports receive half the single-arm intensities.
    """
    if pulse_period_ps is not None:
        icfg.check_delay(pulse_period_ps)
    amps = frame.slots
    inten = np.abs(amps) ** 2
    d = len(amps)
    p = np.zeros(d + 1)
    pp = np.zeros(d + 1)
    if icfg.arm_blocked == "none":
        p[0] = pp[0] = inten[0] / 4.0
        p[d] = pp[d] = inten[d - 1] / 4.0
        cross = (icfg.visibility_cap / 2.0) * np.real(
            amps[1:] * np.conj(amps[:-1]) * np.exp(1j * icfg.phi_b)
        )
        base = (inten[1:] + inten[:-1]) / 4.0
        p[1:d] = base + cross
        pp[1:d] = base - cross
        floor_each = frame.floor_rate / 2.0
    elif icfg.arm_blocked == "delay":
        p[0:d] = pp[0:d] = inten / 4.0
        floor_each = frame.floor_rate / 4.0
    elif icfg.arm_blocked == "direct":
        p[1 : d + 1] = pp[1 : d + 1] = inten / 4.0
        floor_each = frame.floor_rate / 4.0
    else:  # mean of the two single-arm patterns
        p[0:d] += inten / 8.0
        p[1 : d + 1] += inten / 8.0
        pp[:] = p
        floor_each = frame.floor_rate / 4.0
    return InterferedFrame(
        port_p=p,
        port_p_prime=pp.copy(),
        floor_p=floor_each,
        floor_p_prime=floor_each,
        offset_ps=frame.offset_ps,
    )


def accumulate(
    records: list[DetectionRecord], cfg: ValidatedConfig, n_frames: int
) -> Histogram:
    """Bin detection records into the frame-period histogram."""
    bins = np.zeros(cfg.n_bins, dtype=np.int64)
    if records:
        t = np.array([r.t_ps for r in records], dtype=np.int64)
        idx = t // cfg.hist_res_ps
        np.add.at(bins, idx, 1)
    return Histogram(bins=bins, n_frames=n_frames, hist_res_ps=cfg.hist_res_ps)


def histogram_from_times(
    t_within: np.ndarray, cfg: ValidatedConfig, n_frames: int
) -> Histogram:
    """Histogram directly from an array of within-frame timestamps."""
    idx = np.asarray(t_within, dtype=np.int64) // cfg.hist_res_ps
    bins = np.bincount(idx, minlength=cfg.n_bins).astype(np.int64)
    return Histogram(bins=bins, n_frames=n_frames, hist_res_ps=cfg.hist_res_ps)


def export_histogram(hist: Histogram, path: str | Path) -> None:
    """Write one row per bin: ``bin_start_ps,count`` (LF line endings)."""
    res = hist.hist_res_ps
    rows = [f"{i * res},{c}" for i, c in enumerate(hist.bins.tolist())]
    Path(path).write_text("\n".join(["bin_start_ps,count", *rows]) + "\n")
