"""The mode-multiplexed fiber link.

Maps each signal's mean photon flux onto the output mode groups (group-wise
insertion loss plus a column-stochastic crosstalk matrix).  Crosstalk acts
on intensities, not amplitudes: random mode coupling over the span destroys
inter-signal coherence, so contributions from different signals add
incoherently.

The measured tables ship as a plain-text data file so alternative channels
can be swapped in (see ``data/fmf_link_tables.txt`` for the format).
``load_scenario`` reads and checks them once (``load_link_tables``), and a
scenario's ``ChannelModel`` is its ``[channel]`` keys and those tables.
"""
from __future__ import annotations

from dataclasses import KW_ONLY, dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .config import N_GROUPS, ConfigError, SignalAssignment, check_keys, key

__all__ = ["ChannelModel", "crosstalk_from_db", "load_link_tables", "db_to_linear"]

DISTANCES = ("40m", "8km")


def db_to_linear(db):
    return 10.0 ** (np.asarray(db, dtype=float) / 10.0)


def crosstalk_from_db(db) -> tuple:
    """The column-stochastic linear power-transfer matrix of a dB one, as a
    tuple of rows: ``[h][g]`` is the probability that a photon entering
    group ``g+1`` exits in group ``h+1``.  The raw linear column sums land within ~1% of unity
    (measurement residual) and are renormalized to exactly 1.  A matrix
    that is not N_GROUPS square, has an entry outside (0, 1), or has a
    column not diagonal-dominant raises ``ConfigError``."""
    db = np.asarray(db, dtype=float)
    if db.shape != (N_GROUPS, N_GROUPS):
        raise ConfigError(f"crosstalk matrix must be {N_GROUPS}x{N_GROUPS}, got {db.shape}")
    raw = db_to_linear(db)
    xt = raw / raw.sum(axis=0)
    if not np.all((xt > 0) & (xt < 1)):  # NaN fails too
        raise ConfigError("crosstalk entries must lie strictly in (0, 1)")
    for g in range(N_GROUPS):
        if not np.all(xt[g, g] > np.delete(xt[:, g], g)):
            raise ConfigError(f"crosstalk column {g + 1} is not diagonal-dominant")
    return tuple(map(tuple, xt.tolist()))


def _row(parts) -> tuple:
    row = tuple(map(float, parts))
    if len(row) != N_GROUPS:
        raise ValueError(f"a row must have {N_GROUPS} entries, got {len(row)}")
    return row


def load_link_tables(path: str | Path | None = None) -> tuple:
    """The link data file's tables: each distance's insertion losses (dB,
    one a mode group) by distance, and the crosstalk matrix
    (``crosstalk_from_db``).  ``path=None`` loads the packaged tables.

    A file that cannot be read, a line that does not parse or breaks its
    row's rules (the entry count; losses <= 0 dB; one row a distance), a
    missing row, or a crosstalk matrix ``crosstalk_from_db`` rejects raises
    ``ConfigError`` naming ``tables_path``, the file and, where one row
    is at fault, its line.
    """
    p = Path(resources.files("sdmqsim").joinpath("data/fmf_link_tables.txt")
             if path is None else path)
    try:
        text = p.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"tables_path: cannot read {p}: {reason}") from None
    il: dict[str, tuple] = {}
    xt_db: list[tuple] = []
    section = None
    for lineno, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            continue
        parts = line.split()
        try:
            if section == "insertion_loss":
                distance, row = parts[0], _row(parts[1:])
                if distance not in DISTANCES:
                    raise ValueError(f"distance must be one of {', '.join(DISTANCES)}")
                if distance in il:
                    raise ValueError(f"a second row for {distance}")
                if not all(v <= 0 for v in row):  # NaN fails too
                    raise ValueError("insertion-loss entries must be <= 0 dB")
                il[distance] = row
            elif section == "crosstalk_8km":
                xt_db.append(_row(parts))
            else:
                raise ValueError(f"unknown section {section!r}")
        except ValueError as exc:
            raise ConfigError(f"tables_path {p}, line {lineno}: {line!r}: {exc}") from None
    try:
        for d in DISTANCES:
            if d not in il:
                raise ConfigError(f"insertion_loss has no row for {d}")
        return il, crosstalk_from_db(xt_db)
    except ConfigError as exc:
        raise ConfigError(f"tables_path {p}: {exc}") from None


@dataclass(frozen=True)
class ChannelModel:
    """A scenario's channel: the link tables and the ``[channel]`` keys.

    ``il`` maps each distance to its insertion losses (dB, one a mode
    group), and ``xt`` is the crosstalk matrix, the 8 km one at either
    ``distance`` (``load_link_tables``).  ``mu_reference`` selects the plane
    where the scenario's mu is defined:

    * ``"mux_input"`` -- mu at the input multiplexer; the table loss applies
      in full.
    * ``"fmf_input"`` -- mu at the fiber input; the input-multiplexer
      contribution (``input_mdm_exclusion_db``, positive) is backed out of
      the table loss.

    ``uniform_il_db`` (if set) replaces the tables with a flat loss and an
    identity crosstalk matrix -- used for idealized single-signal budgets.
    ``tables_path`` (if set) names the file the tables were read from in
    place of the packaged one; ``load_scenario`` reads a relative one
    against the scenario file's directory and stores the path it read.  A
    key out of its range raises ``ConfigError``.
    """

    il: dict
    xt: tuple
    _: KW_ONLY
    distance: str = key("8km", "one of " + ", ".join(DISTANCES))  # no interpolation model
    mu_reference: str = key("mux_input", "one of mux_input, fmf_input")
    input_mdm_exclusion_db: float = key(4.2, "finite")
    uniform_il_db: float | None = key(None, "<= 0 (a loss)")
    tables_path: str | None = key(None)

    def __post_init__(self):
        check_keys(self)

    def transmission(self, signal: SignalAssignment) -> float:
        """Linear end-to-end transmission for one signal (loss factors only)."""
        if self.uniform_il_db is not None:
            base = self.uniform_il_db
        else:
            base = self.il[self.distance][signal.input_group - 1]
            if self.mu_reference == "fmf_input":
                base += self.input_mdm_exclusion_db
        return float(db_to_linear(base + signal.excess_db))

    def collection_fraction(self, in_group: int, groups) -> float:
        """The share of the photons launched into ``in_group`` that exits in
        ``groups``: all or none at a flat loss."""
        if self.uniform_il_db is not None:
            return float(in_group in groups)
        return float(sum(self.xt[g - 1][in_group - 1] for g in groups))
