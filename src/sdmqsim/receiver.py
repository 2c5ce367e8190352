"""Detection chain: gated single-photon detectors, the time-delay
interferometer and histogram accumulation.

Dead time is non-paralyzable (a photon arriving during the dead interval
does not extend it), matching gated detector behaviour.  Under a ``dt1`` or
``dt2`` gate, with the dead time nested in the blank half of the frame
period ``P = 2W`` (``W <= tau <= W + 1``), the veto keeps exactly each
frame's first gated click: ``tau >= W`` covers the rest of the gate, and
``tau <= W + 1`` ends before the next frame's gate opens.  The pipeline
then hands ``dead_time_mask`` the frame indices of dense detectors.

Interference is computed at intensity level with a hardware visibility
cap: the channel randomizes inter-signal phases, so only each photon's
self-interference across its own pulse train survives.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import DELTA_T1, ValidatedConfig

__all__ = [
    "Histogram",
    "InterferometerRates",
    "delay_interferometer_rates",
    "export_histogram",
    "gate_mask",
    "dead_time_mask",
    "histogram_from_times",
]


@dataclass(frozen=True)
class Histogram:
    """Binned detection counts over one frame period, for export; every
    window count is taken on the exact timestamps instead."""

    bins: np.ndarray
    n_frames: int
    hist_res_ps: int


def gate_mask(t_within: np.ndarray, gate: str, frame_window_ps: int) -> np.ndarray:
    t_within = np.asarray(t_within)
    if gate == "always":
        return np.ones(t_within.shape, dtype=bool)
    if gate == DELTA_T1:
        return t_within < frame_window_ps
    return t_within >= frame_window_ps


def dead_time_mask(
    t: np.ndarray, dead_time_ps: int, frame_idx: np.ndarray | None = None
) -> np.ndarray:
    """Non-paralyzable dead-time veto: the keep mask over the events ``t``.

    ``t`` holds time-sorted absolute timestamps.  An event is kept when it
    is at least ``dead_time_ps`` after the last kept event.

    A cluster starts at the first event and at every event whose gap to the
    previous raw event is ``>= dead_time_ps``.  Cluster starts are always
    kept, since the last kept event is no later than the previous raw one.
    A cluster keeps more only if the first event at least ``dead_time_ps``
    after its start still falls inside it; only those clusters are walked,
    jumping from kept event to kept event by binary search, so vetoed
    events are never visited.

    With ``frame_idx``, ``t`` holds within-frame times of clicks gated to
    one half-frame, in any order, under a dead time nested in the blank half
    (see the module docstring): each frame's earliest click is kept, the
    first in input order on equal times, by one segmented minimum of the
    key ``t * n + position`` over the frames, with no sort.
    """
    t = np.asarray(t)
    n = len(t)
    if frame_idx is not None:
        keep = np.zeros(n, dtype=bool)
        if n:
            top = np.iinfo(np.int64).max
            # exact while every key t * n + position fits in 63 bits
            assert int(t.max()) < top // n, "first-click key overflows int64"
            best = np.full(int(frame_idx.max()) + 1, top)
            np.minimum.at(best, frame_idx, t.astype(np.int64, copy=False) * n + np.arange(n))
            keep[best[best != top] % n] = True
        return keep
    keep = np.ones(n, dtype=bool)
    if dead_time_ps <= 0 or n == 0:
        return keep
    keep[1:] = np.diff(t) >= dead_time_ps
    starts = np.flatnonzero(keep)
    ends = np.append(starts[1:], n)
    first = np.searchsorted(t, t[starts] + dead_time_ps)
    walk = first < ends
    for i, end in zip(first[walk].tolist(), ends[walk].tolist()):
        while i < end:
            keep[i] = True
            i = bisect.bisect_left(t, t[i] + dead_time_ps, i + 1, end)
    return keep


class InterferometerRates(NamedTuple):
    """Mean clicks per frame behind the one-pulse-delay interferometer.

    ``interior_p``/``interior_p_prime`` total the d-1 interior positions of
    ports P and P'.  The edge positions 0 and d and the uniform floor carry
    the same rate on both ports.
    """

    interior_p: float | np.ndarray
    interior_p_prime: float | np.ndarray
    edge_0: float
    edge_d: float
    floor: float


def delay_interferometer_rates(
    lam: float,
    d: int,
    visibility: float,
    phi: float | np.ndarray,
    arm: str = "none",
    floor: float = 0.0,
) -> InterferometerRates:
    """Click rates of a uniform differential-phase train on each port.

    Holds only for the uniform train that every runner sends: ``d`` equal
    pulses carrying ``lam * (1 - floor)`` mean clicks with the phase step
    ``phi = phi_a + phi_b`` between neighbours, plus a uniform floor of
    ``lam * floor``.  With per-pulse rate ``i = lam (1 - floor) / d``,
    interior position ``j`` (1..d-1) overlaps pulse ``j`` with the delayed
    pulse ``j-1`` and carries ``(i/2)(1 + V cos phi)`` on port P and
    ``(i/2)(1 - V cos phi)`` on P'; the edges are non-interfering
    quarter-rate pulses, and each port gets half the floor.  ``arm``
    "delay" or "direct" blocks that arm: nothing interferes, every open
    position carries ``i/4`` on each port (positions 0..d-1 through the
    direct arm, 1..d through the delay arm) and each port gets a quarter
    of the floor.  ``phi`` may be an array; the interior rates follow it.
    """
    i_in = lam * (1 - floor) / d
    if arm == "none":
        fringe = visibility * np.cos(phi)
        half = (d - 1) * (i_in / 2.0)
        return InterferometerRates(
            half * (1.0 + fringe), half * (1.0 - fringe),
            i_in / 4.0, i_in / 4.0, lam * floor / 2.0,
        )
    interior = (d - 1) * i_in / 4.0
    return InterferometerRates(
        interior,
        interior,
        i_in / 4.0 if arm == "delay" else 0.0,
        i_in / 4.0 if arm == "direct" else 0.0,
        lam * floor / 4.0,
    )


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
