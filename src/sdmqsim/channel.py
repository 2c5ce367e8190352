"""The mode-multiplexed fiber link.

Maps each signal's mean photon flux onto the output mode groups (group-wise
insertion loss plus a column-stochastic crosstalk matrix).  Crosstalk acts
on intensities, not amplitudes: random mode coupling over the span destroys
inter-signal coherence, so contributions from different signals add
incoherently.

The measured tables ship as a plain-text data file so alternative channels
can be swapped in (see ``data/fmf_link_tables.txt`` for the format).
"""
from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .config import N_GROUPS, ConfigError, SignalAssignment

__all__ = [
    "AssignmentError",
    "InsertionLossTable",
    "CrosstalkMatrix",
    "ChannelModel",
    "load_link_tables",
    "db_to_linear",
]

DISTANCES = ("40m", "8km")


class AssignmentError(ConfigError):
    """Raised when the link tables or the channel settings are inconsistent."""


def db_to_linear(db):
    return 10.0 ** (np.asarray(db, dtype=float) / 10.0)


@dataclass(frozen=True)
class InsertionLossTable:
    """Group-wise end-to-end insertion loss (dB, negative) per fiber length."""

    loss_db: dict

    def __post_init__(self):
        if set(self.loss_db) != set(DISTANCES):
            raise AssignmentError(
                f"insertion-loss table must cover {DISTANCES}, got {set(self.loss_db)}"
            )
        for dist, row in self.loss_db.items():
            arr = np.asarray(row, dtype=float)
            if arr.shape != (N_GROUPS,):
                raise AssignmentError(
                    f"insertion-loss row for {dist} must have {N_GROUPS} entries"
                )
            if np.any(arr > 0):
                raise AssignmentError("insertion-loss entries must be <= 0 dB")
            object.__setattr__(
                self, "loss_db", {**self.loss_db, dist: tuple(arr.tolist())}
            )

    def db(self, group: int, distance: str) -> float:
        return self.loss_db[distance][group - 1]


@dataclass(frozen=True)
class CrosstalkMatrix:
    """Column-stochastic linear power-transfer matrix between mode groups.

    ``linear[h, g]`` is the probability that a photon entering group ``g+1``
    exits in group ``h+1``.  Built from dB entries; the raw linear column
    sums land within ~1% of unity (measurement residual) and are
    renormalized to exactly 1.
    """

    linear: np.ndarray
    raw_column_sums: np.ndarray

    @classmethod
    def from_db(cls, matrix_db) -> "CrosstalkMatrix":
        db = np.asarray(matrix_db, dtype=float)
        if db.shape != (N_GROUPS, N_GROUPS):
            raise AssignmentError(
                f"crosstalk matrix must be {N_GROUPS}x{N_GROUPS}, got {db.shape}"
            )
        raw = db_to_linear(db)
        colsums = raw.sum(axis=0)
        lin = raw / colsums
        mat = cls(linear=lin, raw_column_sums=colsums)
        mat.validate()
        return mat

    def validate(self) -> None:
        if np.any(self.linear <= 0) or np.any(self.linear >= 1):
            raise AssignmentError("crosstalk entries must lie strictly in (0, 1)")
        if not np.allclose(self.linear.sum(axis=0), 1.0, atol=1e-12):
            raise AssignmentError("crosstalk columns must sum to 1 after renormalization")
        for g in range(N_GROUPS):
            col = self.linear[:, g]
            off = np.delete(col, g)
            if not np.all(col[g] > off):
                raise AssignmentError(f"crosstalk column {g + 1} is not diagonal-dominant")

    def fraction(self, out_group: int, in_group: int) -> float:
        return float(self.linear[out_group - 1, in_group - 1])

    def column(self, in_group: int) -> np.ndarray:
        return self.linear[:, in_group - 1].copy()


def _builtin_table_path() -> Path:
    return Path(resources.files("sdmqsim").joinpath("data/fmf_link_tables.txt"))


def load_link_tables(path: str | Path | None = None):
    """Parse the link data file into (InsertionLossTable, CrosstalkMatrix).

    ``path=None`` loads the packaged measured tables.  A file that cannot be
    read, or a line that does not parse, raises ``AssignmentError`` naming
    ``tables_path``, the file and the line.
    """
    p = _builtin_table_path() if path is None else Path(path)
    try:
        text = p.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise AssignmentError(f"tables_path: cannot read {p}: {reason}") from None
    il_rows: dict[str, list[float]] = {}
    xt_rows: list[list[float]] = []
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
                il_rows[parts[0]] = [float(x) for x in parts[1:]]
            elif section == "crosstalk_8km":
                xt_rows.append([float(x) for x in parts])
            else:
                raise ValueError(f"unknown section {section!r}")
        except ValueError as exc:
            raise AssignmentError(f"tables_path {p}, line {lineno}: {line!r}: {exc}") from None
    il = InsertionLossTable(loss_db=il_rows)
    xt = CrosstalkMatrix.from_db(xt_rows)
    return il, xt


@dataclass(frozen=True)
class ChannelModel:
    """Link conventions on top of the measured tables.

    ``mu_reference`` selects the plane where the scenario's mu is defined:

    * ``"mux_input"`` -- mu at the input multiplexer; the table loss applies
      in full.
    * ``"fmf_input"`` -- mu at the fiber input; the input-multiplexer
      contribution (``input_mdm_exclusion_db``, positive) is backed out of
      the table loss.

    ``uniform_il_db`` (if set) replaces the table with a flat loss and an
    identity crosstalk matrix -- used for idealized single-signal budgets.
    """

    il: InsertionLossTable
    xt: CrosstalkMatrix
    distance: str = "8km"
    mu_reference: str = "mux_input"
    input_mdm_exclusion_db: float = 4.2
    uniform_il_db: float | None = None

    def __post_init__(self):
        if self.distance not in DISTANCES:
            raise AssignmentError(
                f"distance must be one of {DISTANCES} (no interpolation model)"
            )
        if self.mu_reference not in ("mux_input", "fmf_input"):
            raise AssignmentError("mu_reference must be 'mux_input' or 'fmf_input'")
        if self.uniform_il_db is not None and not self.uniform_il_db <= 0.0:
            raise AssignmentError(
                f"uniform_il_db must be <= 0 (a loss), got {self.uniform_il_db}"
            )

    def transmission(self, signal: SignalAssignment) -> float:
        """Linear end-to-end transmission for one signal (loss factors only)."""
        if self.uniform_il_db is not None:
            base = self.uniform_il_db
        else:
            base = self.il.db(signal.input_group, self.distance)
            if self.mu_reference == "fmf_input":
                base += self.input_mdm_exclusion_db
        return float(db_to_linear(base + signal.excess_db))

    def group_fractions(self, in_group: int) -> np.ndarray:
        """Output-group distribution for photons launched into ``in_group``."""
        if self.uniform_il_db is not None:
            frac = np.zeros(N_GROUPS)
            frac[in_group - 1] = 1.0
            return frac
        return self.xt.column(in_group)

    def collection_fraction(self, in_group: int, groups) -> float:
        frac = self.group_fractions(in_group)
        return float(sum(frac[g - 1] for g in groups))

