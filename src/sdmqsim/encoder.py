"""Transmitter side: attenuated time-bin and phase frames.

Frames are generated directly as amplitude vectors; there is no modulator
transfer-function model.  Leakage from the finite intensity-modulator
extinction appears as a uniform Poisson floor over the occupied frame
window.
"""
from __future__ import annotations

import math

import numpy as np

from .config import FrameAmplitudes, Phase, TimeBin

__all__ = [
    "make_time_bin_frame",
    "make_phase_frame",
    "floor_fraction",
]


def floor_fraction(d: int, im_extinction: float) -> float:
    """Fraction of the frame's photons that leak into the uniform floor.

    With a modulator extinction ratio ``r`` (linear) and one bright slot out
    of ``d``, the leaked power relative to the total is
    ``f = (d - 1) / (d - 1 + r)``.
    """
    if math.isinf(im_extinction):
        return 0.0
    return (d - 1) / (d - 1 + im_extinction)


def make_time_bin_frame(
    m: int,
    mu: float,
    im_extinction: float,
    d: int = 64,
    offset_ps: int = 0,
) -> FrameAmplitudes:
    """Build a time-bin frame: one bright pulse in slot ``m`` plus floor.

    The bright slot carries ``mu * (1 - f)`` photons and the floor
    ``mu * f`` photons spread uniformly over the occupied window, with
    ``f = (d-1) / (d-1 + im_extinction)``.
    """
    if not 0 <= m < d:
        raise ValueError(f"slot index {m} out of range 0..{d - 1}")
    if mu <= 0:
        raise ValueError("mu must be positive")
    if im_extinction <= 1:
        raise ValueError("im_extinction must be > 1")
    f = floor_fraction(d, im_extinction)
    slots = np.zeros(d, dtype=np.complex128)
    slots[m] = math.sqrt(mu * (1.0 - f))
    return FrameAmplitudes(
        slots=slots, floor_rate=mu * f, offset_ps=offset_ps, kind=TimeBin(m)
    )


def make_phase_frame(
    phi_a: float,
    mu: float,
    d: int = 64,
    floor_fraction: float = 0.0,
    offset_ps: int = 0,
) -> FrameAmplitudes:
    """Build a phase frame: d equal-intensity pulses with a linear phase ramp.

    Slot ``m`` carries amplitude ``sqrt(mu * (1 - floor_fraction) / d) *
    exp(i * m * phi_a)``.  Slots are 0-based; the ramp is equivalent to the
    1-based convention up to a global phase.  ``floor_fraction`` moves part
    of the photon budget into the uniform floor (modulator leakage between
    pulses); the default 0 gives the ideal train.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    if not 0.0 <= floor_fraction < 1.0:
        raise ValueError("floor_fraction must be in [0, 1)")
    amp = math.sqrt(mu * (1.0 - floor_fraction) / d)
    m = np.arange(d)
    slots = amp * np.exp(1j * m * phi_a)
    return FrameAmplitudes(
        slots=slots,
        floor_rate=mu * floor_fraction,
        offset_ps=offset_ps,
        kind=Phase(phi_a),
    )

