"""Shared domain types, configuration and the seeded random-stream contract.

All times are carried as integer picoseconds.  The 25 ps histogram bins and
1540 ps pulse periods are exactly representable, so histogram binning never
accumulates float drift.  Random numbers come from counter-based Philox
streams keyed by (seed, role, signal, batch) so that per-frame work is
order-independent and reproducible under any batching.  Each stream is
numpy's ``SeedSequence(entropy=seed, spawn_key=ids)`` keying a Philox.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfigError",
    "SimConfig",
    "RandomSource",
    "SignalAssignment",
    "BATCH",
    "N_GROUPS",
    "DELTA_T1",
    "DELTA_T2",
]

# Time-window labels for the two halves of the frame period.
DELTA_T1 = "dt1"
DELTA_T2 = "dt2"

# frames per batch: a detector's spans are whole batches, and the last
# element of every detector's stream key is its span's first batch; a BB84
# exchange draws one tally a batch
BATCH = 1 << 16

# quasi-degenerate mode groups of the few-mode fiber
N_GROUPS = 5


class ConfigError(ValueError):
    """Raised when a configuration violates one of its invariants."""


@dataclass(frozen=True)
class SimConfig:
    """Top-level simulation parameters.

    Parameters
    ----------
    d : int
        Pulse slots per frame.
    pulse_period_ps : int
        Pulse period T_p in picoseconds.
    frame_window_ps : int
        Duration of the occupied half-frame (the signal interval).
    frame_period_ps : int
        Full frame period; must equal twice the frame window.
    frame_rate_hz : float
        Frame rate; must equal 1 / frame_period.
    mu_in : float
        Mean photons per frame at the configured reference plane.
    eta : float
        Detector efficiency.
    dead_time_ps : int
        Detector dead time.
    hist_res_ps : int
        Histogram bin width; must divide the frame period.
    p_tb : float
        Fraction of frames carrying time-bin data.  Data/security
        interleaving is not simulated: time-bin kinds require 1 and phase
        kinds ignore it.
    im_extinction : float
        Intensity-modulator extinction ratio, linear scale (> 1).
    jitter_sigma_ps : float
        Gaussian detection timing jitter (1 sigma), at most ``pulse_period_ps``.
    seed : int
        Root seed for all random streams.
    """

    d: int = 64
    pulse_period_ps: int = 1540
    frame_window_ps: int = 100_000
    frame_period_ps: int = 200_000
    frame_rate_hz: float = 5.0e6
    mu_in: float = 1.0
    eta: float = 0.15
    dead_time_ps: int = 100_000
    hist_res_ps: int = 25
    p_tb: float = 1.0
    im_extinction: float = 674.0
    jitter_sigma_ps: float = 100.0
    seed: int = 1

    def __post_init__(self):
        """Raise ConfigError naming the first violated invariant."""
        if self.d < 2:
            raise ConfigError(f"d must be >= 2, got {self.d}")
        if self.pulse_period_ps <= 0:
            raise ConfigError("pulse_period_ps must be positive")
        if self.d * self.pulse_period_ps > self.frame_window_ps:
            raise ConfigError(
                f"pulse train does not fit the frame window: "
                f"d*T_p = {self.d * self.pulse_period_ps} ps > "
                f"frame_window = {self.frame_window_ps} ps"
            )
        if self.frame_period_ps != 2 * self.frame_window_ps:
            raise ConfigError(
                f"frame_period ({self.frame_period_ps} ps) must equal "
                f"2 * frame_window ({2 * self.frame_window_ps} ps)"
            )
        implied_rate = 1.0e12 / self.frame_period_ps
        if not math.isclose(self.frame_rate_hz, implied_rate, rel_tol=1e-9):
            raise ConfigError(
                f"frame_rate_hz ({self.frame_rate_hz:g}) inconsistent with "
                f"1/frame_period ({implied_rate:g} Hz)"
            )
        if not 0.0 <= self.eta <= 1.0:
            raise ConfigError(f"eta must be in [0, 1], got {self.eta}")
        if not 0.0 <= self.p_tb <= 1.0:
            raise ConfigError(f"p_tb must be in [0, 1], got {self.p_tb}")
        if self.dead_time_ps < 0:
            raise ConfigError("dead_time_ps must be non-negative")
        if self.hist_res_ps <= 0 or self.frame_period_ps % self.hist_res_ps != 0:
            raise ConfigError(
                f"hist_res_ps ({self.hist_res_ps}) must divide "
                f"frame_period ({self.frame_period_ps})"
            )
        # written so that NaN fails every range check
        if not 0 < self.mu_in < math.inf:
            raise ConfigError(f"mu_in must be positive and finite, got {self.mu_in}")
        if not self.im_extinction > 1.0:  # +inf (a perfect modulator) passes
            raise ConfigError(
                f"im_extinction must be > 1 (linear ratio), got {self.im_extinction}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        # NaN and inf fail; Pulse.mass holds ceil(8 sigma) tail masses and every
        # cut within 8 sigma of each slot, so its cost grows with the jitter
        if not 0 <= self.jitter_sigma_ps <= self.pulse_period_ps:
            raise ConfigError(f"jitter_sigma_ps must be in [0, pulse_period_ps = "
                              f"{self.pulse_period_ps}], got {self.jitter_sigma_ps}")

    @property
    def n_bins(self) -> int:
        """Histogram bins per frame period."""
        return self.frame_period_ps // self.hist_res_ps

    @property
    def dead_time_nested(self) -> bool:
        """Whether the dead time nests in the blank half, so that a gated
        detector keeps each frame's first click and no other (see receiver)."""
        return self.frame_window_ps <= self.dead_time_ps <= self.frame_window_ps + 1


# ---------------------------------------------------------------------------
# Random streams
# ---------------------------------------------------------------------------

# Stable role identifiers; part of the stream key, never reordered.
ROLE_PHOTONS = 1
ROLE_TRANSCRIPT = 3  # the order of a BB84 transcript's frames in each batch


@dataclass(frozen=True)
class RandomSource:
    """Counter-based random stream factory.

    Identical ``(seed, stream_id)`` pairs always produce identical draw
    sequences; distinct stream ids give statistically independent streams.
    Stream ids are tuples of small ints, conventionally
    ``(role, signal_index, batch_index)``.  A stream is numpy's
    ``SeedSequence(entropy=seed, spawn_key=stream_id)`` keying a Philox.
    Opening one takes ~27 us (best of nine timings on one Xeon core), and a
    canned run opens 1 to 48: a BB84 exchange opens one, and its
    transcript one more.
    """

    seed: int
    stream_id: tuple = (0,)

    def generator(self) -> np.random.Generator:
        """A new Generator at the start of this stream."""
        seq = np.random.SeedSequence(self.seed, spawn_key=self.stream_id)
        return np.random.Generator(np.random.Philox(seq))

    def stream(self, *ids: int) -> "RandomSource":
        return RandomSource(self.seed, tuple(ids))


@dataclass(frozen=True)
class SignalAssignment:
    """Mapping of one transmitted signal onto the multiplexed link.

    ``input_group`` is the quasi-degenerate mode group (1..Q) and
    ``input_mode``, when set, the Hermite-Gaussian index (n, p) in it:
    group g holds the modes with n + p = g - 1.  ``delayed`` signals are
    shifted by one frame window so they occupy the second half of the
    frame period.  ``excess_db`` is a per-signal coupling correction on top
    of the table loss (<= 0 for excess loss); ``im_extinction`` optionally
    overrides the global modulator extinction for this signal;
    ``fixed_slot`` is the time-bin slot the signal occupies in every frame
    (required by the time-bin kinds, unused by the phase kinds).
    """

    signal_id: str
    input_mode: tuple | None = None
    input_group: int = 1
    delayed: bool = False
    excess_db: float = 0.0
    im_extinction: float | None = None
    fixed_slot: int | None = None

    def __post_init__(self):
        where = f"[signal.{self.signal_id}]"
        if not 1 <= self.input_group <= N_GROUPS:
            raise ConfigError(f"{where} input_group: mode group {self.input_group} "
                              f"outside 1..{N_GROUPS}")
        mode = self.input_mode
        if mode is not None and not (len(mode) == 2 and min(mode) >= 0
                                     and sum(mode) + 1 == self.input_group):
            raise ConfigError(f"{where} input_mode must be two ints n,p >= 0 with "
                              f"n + p + 1 = input_group ({self.input_group}), got {mode}")
        if not self.excess_db <= 0.0:  # written so that NaN fails
            raise ConfigError(f"{where} excess_db must be <= 0 (a loss), got {self.excess_db}")
        if self.im_extinction is not None and not self.im_extinction > 1.0:
            raise ConfigError(f"{where} im_extinction must be > 1 (linear ratio), "
                              f"got {self.im_extinction}")

    def offset_ps(self, cfg: SimConfig) -> int:
        return cfg.frame_window_ps if self.delayed else 0
