"""Shared domain types, configuration and the seeded random-stream contract.

All times are carried as integer picoseconds.  The 25 ps histogram bins and
1540 ps pulse periods are exactly representable, so histogram binning never
accumulates float drift.  Random numbers come from counter-based Philox
streams keyed by (seed, role, signal, batch) so that per-frame work is
order-independent and reproducible under any batching.  Each key is numpy's
``SeedSequence`` key, written out here and checked against numpy by the
tests, so a detector opens each stream by re-keying one Generator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

__all__ = [
    "ConfigError",
    "SimConfig",
    "ValidatedConfig",
    "validate_config",
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
# element of every stream key is its span's first batch; a multiple of 64,
# so a batch's BB84 coins and bits fill whole raw words
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
        Gaussian detection timing jitter (1 sigma).
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


@dataclass(frozen=True)
class ValidatedConfig(SimConfig):
    """A :class:`SimConfig` whose invariants have been checked.

    Adds the derived quantities used throughout the pipeline.
    """

    n_bins: int = 0


def validate_config(cfg: SimConfig) -> ValidatedConfig:
    """Check every invariant of ``cfg`` and precompute derived quantities.

    Raises
    ------
    ConfigError
        Naming the violated invariant.
    """
    if cfg.d < 2:
        raise ConfigError(f"d must be >= 2, got {cfg.d}")
    if cfg.pulse_period_ps <= 0:
        raise ConfigError("pulse_period_ps must be positive")
    if cfg.d * cfg.pulse_period_ps > cfg.frame_window_ps:
        raise ConfigError(
            f"pulse train does not fit the frame window: "
            f"d*T_p = {cfg.d * cfg.pulse_period_ps} ps > "
            f"frame_window = {cfg.frame_window_ps} ps"
        )
    if cfg.frame_period_ps != 2 * cfg.frame_window_ps:
        raise ConfigError(
            f"frame_period ({cfg.frame_period_ps} ps) must equal "
            f"2 * frame_window ({2 * cfg.frame_window_ps} ps)"
        )
    implied_rate = 1.0e12 / cfg.frame_period_ps
    if not math.isclose(cfg.frame_rate_hz, implied_rate, rel_tol=1e-9):
        raise ConfigError(
            f"frame_rate_hz ({cfg.frame_rate_hz:g}) inconsistent with "
            f"1/frame_period ({implied_rate:g} Hz)"
        )
    if not 0.0 <= cfg.eta <= 1.0:
        raise ConfigError(f"eta must be in [0, 1], got {cfg.eta}")
    if not 0.0 <= cfg.p_tb <= 1.0:
        raise ConfigError(f"p_tb must be in [0, 1], got {cfg.p_tb}")
    if cfg.dead_time_ps < 0:
        raise ConfigError("dead_time_ps must be non-negative")
    if cfg.hist_res_ps <= 0 or cfg.frame_period_ps % cfg.hist_res_ps != 0:
        raise ConfigError(
            f"hist_res_ps ({cfg.hist_res_ps}) must divide "
            f"frame_period ({cfg.frame_period_ps})"
        )
    # written so that NaN fails every range check
    if not 0 < cfg.mu_in < math.inf:
        raise ConfigError(f"mu_in must be positive and finite, got {cfg.mu_in}")
    if not cfg.im_extinction > 1.0:  # +inf (a perfect modulator) passes
        raise ConfigError(
            f"im_extinction must be > 1 (linear ratio), got {cfg.im_extinction}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {cfg.seed}")
    if not 0 <= cfg.jitter_sigma_ps < math.inf:
        raise ConfigError(
            f"jitter_sigma_ps must be non-negative and finite, got {cfg.jitter_sigma_ps}")

    return ValidatedConfig(
        **{f: getattr(cfg, f) for f in SimConfig.__dataclass_fields__},
        n_bins=cfg.frame_period_ps // cfg.hist_res_ps,
    )


# ---------------------------------------------------------------------------
# Random streams
# ---------------------------------------------------------------------------

# Stable role identifiers; part of the stream key, never reordered.
ROLE_PHOTONS = 1
ROLE_ALICE = 3
ROLE_EVE = 4
ROLE_BOB = 5


# numpy's SeedSequence at its pool of four 32-bit words, written out
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _uint32_words(n: int) -> list:
    """``n``'s 32-bit words, least significant first (0 is one word)."""
    if n < 0:  # numpy raises here too; the words would build a wrong key
        raise ValueError(f"stream keys take non-negative ints, got {n}")
    return [n >> i & _MASK for i in range(0, max(n.bit_length(), 1), 32)]


def _hashmix(value: int, h: int) -> tuple:
    value = (value ^ h) * (h := h * _MULT_A & _MASK) & _MASK
    return value ^ value >> 16, h


def _mix(x: int, y: int) -> int:
    r = (_MIX_L * x - _MIX_R * y) & _MASK
    return r ^ r >> 16


def _mixed(pool, h: int, words) -> tuple:
    """The pool and hash constant after each of ``words`` is mixed into every
    pool word."""
    pool = list(pool)
    for w in words:
        for d in range(4):
            x, h = _hashmix(w, h)
            pool[d] = _mix(pool[d], x)
    return tuple(pool), h


@lru_cache(maxsize=1024)
def _pool(seed: int, ids: tuple) -> tuple:
    """The mixed pool and hash constant of ``SeedSequence(entropy=seed,
    spawn_key=ids)``, each id's words mixed in after the seed's."""
    if ids:
        return _mixed(*_pool(seed, ids[:-1]), _uint32_words(ids[-1]))
    words, pool, h = _uint32_words(seed), [], _INIT_A
    for w in (words + [0] * 3)[:4]:  # the first four words, zeros past the end
        w, h = _hashmix(w, h)
        pool.append(w)
    for s, d in permutations(range(4), 2):  # each pool word into every other
        x, h = _hashmix(pool[s], h)
        pool[d] = _mix(pool[d], x)
    return _mixed(pool, h, words[4:])


def _philox_key(seed: int, ids: tuple) -> tuple:
    """``SeedSequence(entropy=seed, spawn_key=ids).generate_state(2,
    np.uint64)`` as two ints; only the last id is mixed per call."""
    pool, _ = _pool.__wrapped__(seed, ids)  # uncached: the cache holds the prefixes
    h, key = _INIT_B, 0
    for i, w in enumerate(pool):
        w = (w ^ h) * (h := h * _MULT_B & _MASK) & _MASK
        key |= (w ^ w >> 16) << 32 * i
    return key & (1 << 64) - 1, key >> 64


@dataclass(frozen=True)
class RandomSource:
    """Counter-based random stream factory.

    Identical ``(seed, stream_id)`` pairs always produce identical draw
    sequences; distinct stream ids give statistically independent streams.
    Stream ids are tuples of small ints, conventionally
    ``(role, signal_index, batch_index)``.  Re-keying a Generator to a
    stream takes ~8 us, where a new SeedSequence, Philox and Generator take
    ~19 us (best of nine timings on one Xeon core).
    """

    seed: int
    stream_id: tuple = (0,)

    def generator(self, gen: np.random.Generator | None = None) -> np.random.Generator:
        """A new Generator at the start of this stream or, given ``gen``,
        ``gen`` with its Philox reset there in place, no half-word buffered."""
        key = _philox_key(self.seed, self.stream_id)
        if gen is None:  # a uint64 array: Python ints would round through float
            return np.random.Generator(np.random.Philox(key=np.array(key, np.uint64)))
        gen.bit_generator.state = {
            "bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": key},
            "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        return gen

    def stream(self, *ids: int) -> "RandomSource":
        return RandomSource(self.seed, self.stream_id[:0] + tuple(ids))


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
