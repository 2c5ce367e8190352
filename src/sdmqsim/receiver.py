"""Detection chain: gated single-photon detectors, the time-delay
interferometer, histogram accumulation and the histogram files.  A
histogram is its ``int64`` bins array, one bin a ``hist_res_ps`` of the
frame period.

Dead time is non-paralyzable (a photon arriving during the dead interval
does not extend it), matching gated detector behaviour.  Under a ``dt1`` or
``dt2`` gate, with the dead time nested in the blank half of the frame
period ``P = 2W`` (``SimConfig.dead_time_nested``: ``W <= tau <= W + 1``),
the veto keeps each frame's first gated click alone: ``tau >= W`` covers
the gate's rest, and ``tau <= W + 1`` ends before the next gate opens.  The
pipeline draws a dense runner detector's counts, and Bob's BB84 outcomes,
straight from that click's law, never calling ``dead_time_mask`` for them.

Interference is computed at intensity level with a hardware visibility
cap: the channel randomizes inter-signal phases, so only each photon's
self-interference across its own pulse train survives.
"""
from __future__ import annotations

import bisect
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .analysis import ascii_digits, csv_bytes, csv_header
from .config import DELTA_T1, DELTA_T2, SimConfig

__all__ = [
    "InterferometerRates",
    "delay_interferometer_rates",
    "export_histogram",
    "gate_span",
    "gate_mask",
    "dead_time_mask",
    "histogram_from_times",
]


def gate_span(gate: str, frame_window_ps: int) -> tuple[int, int]:
    """The ps ``[lo, hi)`` of the frame period ``P = 2W`` that ``gate``
    passes: all of it (``always``), the first half (``dt1``) or the second
    (``dt2``)."""
    if gate == DELTA_T1:
        return 0, frame_window_ps
    if gate == DELTA_T2:
        return frame_window_ps, 2 * frame_window_ps
    return 0, 2 * frame_window_ps


def gate_mask(t_within: np.ndarray, gate: str, frame_window_ps: int) -> np.ndarray:
    """Which within-frame times, each in ``[0, P)``, ``gate`` passes: a
    gate open at 0 is read at its end, any other at its start."""
    lo, hi = gate_span(gate, frame_window_ps)
    t_within = np.asarray(t_within)
    return t_within < hi if lo == 0 else t_within >= lo


def dead_time_mask(t: np.ndarray, dead_time_ps: int) -> np.ndarray:
    """Non-paralyzable dead-time veto: the keep mask over the events ``t``.

    ``t`` holds time-sorted absolute timestamps.  An event is kept when it
    is at least ``dead_time_ps`` after the last kept event.

    A cluster starts at the first event and at every event whose gap to the
    previous raw event is ``>= dead_time_ps``.  Cluster starts are always
    kept, since the last kept event is no later than the previous raw one.
    A cluster keeps more only if it spans at least ``dead_time_ps``; only
    those clusters are walked, jumping from kept event to kept event by
    binary search, so vetoed events are never visited.
    """
    t = np.asarray(t)
    n = len(t)
    keep = np.ones(n, dtype=bool)
    if dead_time_ps <= 0 or n == 0:
        return keep
    keep[1:] = np.diff(t) >= dead_time_ps
    starts = np.flatnonzero(keep)
    ends = np.append(starts[1:], n)
    walk = t[ends - 1] >= t[starts] + dead_time_ps  # the cluster's span, as t is sorted
    first = np.searchsorted(t, t[starts[walk]] + dead_time_ps)
    for i, end in zip(first.tolist(), ends[walk].tolist()):
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


def histogram_from_times(t_within: np.ndarray, cfg: SimConfig,
                         counts: np.ndarray | None = None) -> np.ndarray:
    """The ``int64`` bins, ``cfg.n_bins`` of ``cfg.hist_res_ps``, of
    within-frame timestamps, each counted ``counts`` times if given (the
    starts of cells that each lie in one bin, and their counts).  A run's
    window counts are read from exact ps cells between the windows' own
    edges, so no window is rounded to the bins."""
    idx = np.asarray(t_within, dtype=np.int64) // cfg.hist_res_ps
    return np.bincount(idx, counts, minlength=cfg.n_bins).astype(np.int64)


@lru_cache(maxsize=1)
def _bin_starts(n_bins: int, hist_res_ps: int) -> np.ndarray:
    """The digits of every bin start, shared by a run's histograms."""
    m = ascii_digits(np.arange(n_bins, dtype=np.int64) * hist_res_ps)
    m.flags.writeable = False
    return m


def export_histogram(bins: np.ndarray, hist_res_ps: int, path: str | Path) -> None:
    """Write one row per bin of ``bins``, each ``hist_res_ps`` wide: its
    start in ps and its count, under the header ``analysis.ARTIFACTS``
    declares for every histogram (LF line endings)."""
    starts = _bin_starts(len(bins), hist_res_ps)
    with open(path, "wb") as out:
        out.write(csv_header("hist_<id>_g<groups>.csv"))
        out.write(csv_bytes(starts, b",", ascii_digits(bins), b"\n"))
