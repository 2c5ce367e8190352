"""Shared domain types, configuration and the seeded random-stream contract.

Each scenario key is declared once by ``key``, as a field of the dataclass
its section fills, and the dataclass checks itself against the declared
ranges when built (``check_keys``), then checks the rules joining its keys.
The experiment kinds are declared once too (``KINDS``).

All times are carried as integer picoseconds.  The 25 ps histogram bins and
1540 ps pulse periods are exactly representable, so histogram binning never
accumulates float drift.  Random numbers come from counter-based Philox
streams keyed by (seed, role, signal, batch) so that per-frame work is
order-independent and reproducible under any batching.  Each stream is
numpy's ``SeedSequence(entropy=seed, spawn_key=ids)`` keying a Philox.
"""
from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

__all__ = [
    "ConfigError",
    "KINDS", "TIMEBIN", "SLOTTED", "BB84",
    "SimConfig",
    "RandomSource",
    "SignalAssignment",
    "key",
    "check_keys",
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

# the experiment kinds, each named once here, and the families of them that
# the code reads: the two time-bin kinds; the kinds that send a pure
# time-bin stream, one slot a signal (those and capacity); and BB84's two
TIMEBIN = ("timebin_B", "timebin_xt")
SLOTTED = TIMEBIN + ("capacity",)
BB84 = ("bb84", "bb84_eve")
KINDS = SLOTTED + ("phase_er", "phase_sweep") + BB84


class ConfigError(ValueError):
    """Raised when a configuration violates one of its invariants."""


# the clauses of a key's declared range (see ``key``), each a test of one
# value; NaN passes none of them but ``one of``
_WORDS = {"positive": "> 0", "non-negative": ">= 0"}
_COMPARE = {">=": operator.ge, ">": operator.gt, "<=": operator.le}


def _clause(text: str):
    text = _WORDS.get(text, text)
    if text == "finite":
        return math.isfinite
    if text.startswith("one of "):
        return text[len("one of "):].split(", ").__contains__
    if text.startswith("in ["):
        lo, hi = map(float, text[len("in ["):-1].split(", "))
        return lambda v: lo <= v <= hi
    op, bound = text.split()
    compare, bound = _COMPARE[op], float(bound)
    return lambda v: compare(v, bound)


def key(default=MISSING, allowed: str = "", kinds: tuple | None = None, parse=None):
    """A scenario key, declared once as a field of the dataclass its section
    fills: its type (the field's, or ``parse`` for a file's text), its
    ``default`` (none: the key is required), its single-key range
    ``allowed`` and the experiment ``kinds`` that read it (None: every kind).

    ``allowed`` joins clauses with " and " (``finite``, ``positive``,
    ``non-negative``, ``>= x``, ``> x``, ``<= x``, ``in [lo, hi]`` or ``one
    of a, b``) and may hold a parenthesized note; empty, the key has none.
    ``check_keys`` holds each value to it.
    """
    tests = [_clause(c) for c in re.sub(r" \(.*?\)", "", allowed).split(" and ") if c]
    test = (None if not tests else tests[0] if len(tests) == 1
            else lambda v: all(t(v) for t in tests))
    meta = {"allowed": allowed, "test": test, "kinds": kinds, "parse": parse}
    if default == {}:
        return field(default_factory=dict, metadata=meta)
    return field(default=default, metadata=meta)


def check_keys(obj, where: str = "") -> None:
    """Raise ConfigError naming the first key of ``obj`` outside its declared
    range.  An unset (None) key passes; each item of a tuple, and each value
    of a map, is held to the range."""
    for name, allowed, test in _ranged(type(obj)):
        value = getattr(obj, name)
        if value is None:
            continue
        items = (value.values() if isinstance(value, dict)
                 else value if isinstance(value, tuple) else (value,))
        if not all(map(test, items)):
            raise ConfigError(f"{where}{name} must be {allowed}, got {value!r}")


@functools.cache
def _ranged(cls) -> tuple:
    """Each key of ``cls`` that has a range: its name, range and test."""
    return tuple((f.name, f.metadata["allowed"], f.metadata["test"])
                 for f in fields(cls) if f.metadata.get("test"))


def ints(raw: str) -> tuple:
    """A parser of a key's text: e.g. '0,1' -> (0, 1)."""
    return tuple(map(int, raw.split(",")))


@dataclass(frozen=True)
class SimConfig:
    """The ``[sim]`` keys: top-level simulation parameters.  Times are in ps."""

    d: int = key(64, ">= 2")  # pulse slots per frame
    pulse_period_ps: int = key(1540, "positive")  # pulse period T_p
    frame_window_ps: int = key(100_000)  # the occupied half-frame (signal interval)
    frame_period_ps: int = key(200_000)  # twice the frame window
    frame_rate_hz: float = key(5.0e6)  # 1 / frame_period
    mu_in: float = key(1.0, "positive and finite")  # photons a frame at the reference plane
    eta: float = key(0.15, "in [0, 1]")  # detector efficiency
    dead_time_ps: int = key(100_000, "non-negative")
    hist_res_ps: int = key(25, "positive")  # histogram bin width, dividing the period
    # frames carrying time-bin data; data/security interleaving is not
    # simulated: the time-bin kinds require 1 and the phase kinds ignore it
    p_tb: float = key(1.0, "in [0, 1]")
    # intensity-modulator extinction ratio, linear; +inf is a perfect modulator
    im_extinction: float = key(678.0, "> 1 (linear ratio)")
    # Gaussian detection jitter (1 sigma), at most ``pulse_period_ps``: NaN and
    # inf fail; Pulse.mass holds ceil(8 sigma) tail masses and every cut
    # within 8 sigma of each slot, so its cost grows with the jitter
    jitter_sigma_ps: float = key(100.0)
    seed: int = key(1, "non-negative")  # root seed of every random stream

    def __post_init__(self):
        """Raise ConfigError naming the first violated invariant: a key out
        of its range, then a rule joining keys."""
        check_keys(self)
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
        if self.frame_period_ps % self.hist_res_ps != 0:
            raise ConfigError(
                f"hist_res_ps ({self.hist_res_ps}) must divide "
                f"frame_period ({self.frame_period_ps})"
            )
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
    """The keys of a ``[signal.<ID>]`` section: one transmitted signal on the
    multiplexed link, ``signal_id`` the section's ID.

    ``input_group`` is the quasi-degenerate mode group (1..Q) and
    ``input_mode``, when set, the Hermite-Gaussian index (n, p) in it:
    group g holds the modes with n + p = g - 1.  ``delayed`` signals are
    shifted by one frame window so they occupy the second half of the
    frame period.  ``excess_db`` is a per-signal coupling correction on top
    of the table loss; ``im_extinction`` optionally overrides the global
    modulator extinction for this signal; ``fixed_slot`` is the time-bin
    slot the signal occupies in every frame (required by the time-bin
    kinds, unused by the phase kinds).
    """

    signal_id: str
    input_group: int = key(1)  # a mode group, 1..N_GROUPS (see __post_init__)
    input_mode: tuple | None = key(None, parse=ints)
    delayed: bool = key(False)
    excess_db: float = key(0.0, "<= 0 (a loss)")
    im_extinction: float | None = key(None, "> 1 (linear ratio)")
    fixed_slot: int | None = key(None)

    def __post_init__(self):
        where = f"[signal.{self.signal_id}]"
        check_keys(self, where + " ")
        if not 1 <= self.input_group <= N_GROUPS:
            raise ConfigError(f"{where} input_group: mode group {self.input_group} "
                              f"outside 1..{N_GROUPS}")
        mode = self.input_mode
        if mode is not None and not (len(mode) == 2 and min(mode) >= 0
                                     and sum(mode) + 1 == self.input_group):
            raise ConfigError(f"{where} input_mode must be two ints n,p >= 0 with "
                              f"n + p + 1 = input_group ({self.input_group}), got {mode}")

    def offset_ps(self, cfg: SimConfig) -> int:
        return cfg.frame_window_ps if self.delayed else 0
