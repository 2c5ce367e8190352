"""Transmitter side: the modulator-extinction floor.

There is no modulator transfer-function model.  Leakage from the finite
intensity-modulator extinction appears as a uniform Poisson floor over the
occupied frame window; the samplers in ``pipeline`` place the rest of a
frame's photons on its pulses.
"""
from __future__ import annotations

import math

__all__ = ["floor_fraction"]


def floor_fraction(d: int, im_extinction: float) -> float:
    """Fraction of the frame's photons that leak into the uniform floor.

    With a modulator extinction ratio ``r`` (linear) and one bright slot out
    of ``d``, the leaked power relative to the total is
    ``f = (d - 1) / (d - 1 + r)``.
    """
    if math.isinf(im_extinction):
        return 0.0
    return (d - 1) / (d - 1 + im_extinction)
