"""Each placement's per-ps law written out from its draw, apart from the
package's code, as the tests' reference: a pulse slot's rounded jitter
from the two-sided ``erfc`` a ps, exact to rounding in both tails, and a
floor arm's uniform window, each clamped as ``times`` clamps."""
import functools
import math

import numpy as np

from sdmqsim.pipeline import Floor


@functools.lru_cache(maxsize=None)
def _jitter(sigma: float) -> np.ndarray:
    """The rounded jitter's mass at ``-h .. h`` ps, ``h = ceil(8 sigma)``:
    ``(erfc((|k| - 0.5) / r) - erfc((|k| + 0.5) / r)) / 2`` at ``k`` ps, ``r``
    sigma sqrt 2, so each ps is one difference of two tail masses."""
    if not sigma:
        return np.ones(1)
    r, h = sigma * math.sqrt(2), math.ceil(8 * sigma)
    tails = [math.erfc((k - 0.5) / r) for k in range(h + 2)]
    half = np.subtract(tails[:-1], tails[1:]) / 2  # at 0 .. h ps
    return np.concatenate([half[:0:-1], half])


@functools.lru_cache(maxsize=16)
def _per_ps(placement, sigma, window, period) -> np.ndarray:
    if isinstance(placement, Floor):
        t = np.add.outer([placement.lo, placement.lo + placement.split], np.arange(window))
        weights = np.full(t.size, 0.5 / window)
    else:
        w = _jitter(sigma)
        slots = placement.first + placement.spacing * np.arange(placement.n)
        t = np.add.outer(slots, np.arange(len(w)) - len(w) // 2)
        weights = np.tile(w / placement.n, placement.n)
    mass = np.bincount(np.clip(t, 0, period - 1).ravel(), weights, period)
    mass.flags.writeable = False
    return mass


def per_ps(placement, vcfg) -> np.ndarray:
    """The probability of each ps of the frame under ``placement.times``,
    read-only (the last few are kept)."""
    return _per_ps(placement, vcfg.jitter_sigma_ps, vcfg.frame_window_ps,
                   vcfg.frame_period_ps)
