"""Figures of merit: count rates, crosstalk, SNR, extinction ratio, visibility
fitting, time-bin tomography, symbol-error budget and capacity from counts;
the report they fill, each of its keys declared once in ``REPORT``; and the
files a run writes, each declared once in ``ARTIFACTS`` with its columns,
and the one writer of their tables (``write_table``).

All dB quantities have linear-probability companions via
``p = 10**(-dB/10)``.  Infinite-dB results (an empty denominator window)
are carried as ``math.inf`` in memory and serialized as the sentinel string
``"eliminated"``, never as a float.
"""
from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "counts_per_second",
    "crosstalk_db",
    "snr_db",
    "extinction_ratio_db",
    "prob_from_db",
    "VisibilityFit",
    "fit_visibility",
    "TomographyResult",
    "tomography",
    "error_budget",
    "capacity_from_counts",
    "build_report",
    "report_row",
    "report_json",
    "ascii_digits",
    "csv_bytes",
    "csv_header",
    "write_table",
]

ELIMINATED = "eliminated"


def prob_from_db(x_db: float | None) -> float | None:
    """Linear probability companion of a dB suppression ratio; None for no
    ratio or one below 0 dB, which no probability matches."""
    return 10.0 ** (-x_db / 10.0) if x_db is not None and x_db >= 0 else None


def counts_per_second(total_counts: int, n_frames: int, frame_rate_hz: float) -> float:
    """Scale window counts accumulated over ``n_frames`` to counts/second."""
    if n_frames <= 0:
        raise ValueError("n_frames must be positive")
    return total_counts * frame_rate_hz / n_frames


def crosstalk_db(counts_dt2: int, counts_dt1: int) -> float:
    """Count ratio of the two half-windows in dB: 10 log10(c(dt2)/c(dt1)).

    Positive infinity (crosstalk eliminated) when the dt1 window is empty.
    """
    if counts_dt2 == 0 and counts_dt1 == 0:
        raise ValueError("both windows empty; crosstalk undefined")
    if counts_dt1 == 0:
        return math.inf
    if counts_dt2 == 0:
        return -math.inf
    return 10.0 * math.log10(counts_dt2 / counts_dt1)


def snr_db(pulse: int, floor: int, floor_width_ps: int, window_ps: int) -> float:
    """Pulse-slot counts against the floor rescaled to the full window, in dB.

    ``pulse`` counts the pulse slot and ``floor`` the pulse-absent rest of
    the occupied window, ``floor_width_ps`` wide: the window less the pulse
    slot and any other known pulse slots.  Both are exact half-open windows
    on the click timestamps.  The floor is rescaled to the ``window_ps``
    duration.  Zero floor gives +inf dB, zero pulse over a floor -inf dB.
    The companion error probability is ``p_snr = prob_from_db(snr)``.
    """
    rescaled = floor * window_ps / floor_width_ps
    if rescaled == 0:
        return math.inf
    if pulse == 0:
        return -math.inf
    return 10.0 * math.log10(pulse / rescaled)


def extinction_ratio_db(c0: float, ci: float) -> float:
    """Non-interfering vs interfering count ratio: 10 log10(2 c0 / ci).

    ``c0`` comes from the blocked-arm reference (half the open-path flux),
    hence the factor 2.  ``ci = 0`` gives +inf.  The companion error
    probability is ``p_phi = ci / (2 c0)``.
    """
    if c0 <= 0:
        raise ValueError("blocked-arm reference counts must be positive")
    if ci == 0:
        return math.inf
    if ci < 0:
        raise ValueError("interfering counts must be >= 0")
    return 10.0 * math.log10(2.0 * c0 / ci)


@dataclass(frozen=True)
class VisibilityFit:
    i0: float
    visibility: float
    residual: float


def fit_visibility(points) -> VisibilityFit | None:
    """Least-squares fit of ``I(phi) = I0 [1 + V cos(phi)]``.

    The model is linear in ``(I0, I0*V)``, so the fit is an exact linear
    solve on the basis ``(1, cos(phi))``; V is clamped to [0, 1].  A fit
    with no positive mean intensity (too few counts to show a fringe) gives
    None.

    Parameters
    ----------
    points : sequence of (phi, counts)
        Total phase (phi_a + phi_b, radians) and measured counts.  At least
        3 distinct phases spanning more than pi are required.
    """
    pts = list(points)
    phi = np.array([p[0] for p in pts], dtype=float)
    y = np.array([p[1] for p in pts], dtype=float)
    distinct = np.unique(np.round(phi, 12))
    if len(distinct) < 3:
        raise ValueError("need at least 3 distinct phases")
    if distinct.max() - distinct.min() <= math.pi:
        raise ValueError("phases must span more than pi")
    basis = np.column_stack([np.ones_like(phi), np.cos(phi)])
    coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
    i0, iv = float(coef[0]), float(coef[1])
    if i0 <= 0:
        return None
    v = min(max(iv / i0, 0.0), 1.0)
    residual = float(np.sqrt(np.mean((basis @ coef - y) ** 2)))
    return VisibilityFit(i0=i0, visibility=v, residual=residual)


@dataclass(frozen=True)
class TomographyResult:
    """Density-matrix elements recoverable from the measurements.

    ``rho_jj`` is the occupied-slot population, ``rho_kk`` the per-slot
    population of each of the remaining d-1 slots.
    """

    rho_jj: float
    rho_kk: float


def tomography(pulse_counts: int, floor_counts: int, d: int) -> TomographyResult:
    """Diagonal elements from slot counts.

    ``rho_jj = c_j / (c_j + cf_j)`` where ``cf_j`` is the background from
    all other time slots, and ``rho_kk = (1 - rho_jj) / (d - 1)``.
    """
    if pulse_counts + floor_counts <= 0:
        raise ValueError("zero total counts")
    rho_jj = pulse_counts / (pulse_counts + floor_counts)
    rho_kk = (1.0 - rho_jj) / (d - 1)
    return TomographyResult(rho_jj=rho_jj, rho_kk=rho_kk)


def error_budget(p_xt: float, p_snr: float, d: int) -> tuple[float, float]:
    """Symbol error probability and QBER for pulse-position modulation.

    The crosstalk and floor-noise error mechanisms are independent, so they
    combine quadratically: ``p_s = sqrt(p_xt^2 + p_snr^2)``; each symbol
    carries log2(d) bits, so ``QBER = p_s / log2(d)``.
    """
    if not (0 <= p_xt <= 1 and 0 <= p_snr <= 1):
        raise ValueError("error probabilities must be in [0, 1]")
    if d < 2:
        raise ValueError("d must be >= 2")
    p_s = math.hypot(p_xt, p_snr)
    return p_s, p_s / math.log2(d)


def capacity_from_counts(total_cps: float, d: int) -> float:
    """Capacity from an aggregated measured count rate: cps * log2(d)."""
    return total_cps * math.log2(d)


# ---------------------------------------------------------------------------
# The report: every key declared once, with its unit and the kinds that set it
# ---------------------------------------------------------------------------

_TIMEBIN, _BB84 = ("timebin_B", "timebin_xt"), ("bb84", "bb84_eve")
_ALL = _TIMEBIN + ("capacity", "phase_er", "phase_sweep") + _BB84

# every report.json leaf: its dotted path, in which <id> stands for a signal
# id, <ids> for several run together and <group> for an output group; its
# unit; and the kinds that set it.  scenarios/SCHEMA.md's REPORT table is
# this one row for row, with each key's meaning.
REPORT = (
    ("experiment", "label", _ALL),
    ("seed", "integer", _ALL),
    ("n_frames", "frames", _ALL),
    ("cps_per_collection.<id>", "counts/s", _TIMEBIN + ("capacity",)),
    ("xt_db.<ids>_to_<id>", "dB", ("timebin_B",)),
    ("xt_db.at_<id>_collection", "dB", ("timebin_xt",)),
    ("snr_db", "dB", _TIMEBIN),
    ("snr_db_per_signal.<id>", "dB", _TIMEBIN),
    ("rho_diag.<id>", "probability", _TIMEBIN),
    ("p_xt", "probability", _TIMEBIN),
    ("p_snr", "probability", _TIMEBIN),
    ("extra.<ids>_counts_in_dt2_on_<id>", "counts", ("timebin_B",)),
    ("extra.rho_kk.<id>", "probability", _TIMEBIN),
    ("capacity_qubits_per_s", "qubits/s", ("capacity",)),
    ("extra.total_cps", "counts/s", ("capacity",)),
    ("extra.analytic_collection_cps.<id>", "counts/s", ("capacity",)),
    ("extra.capacity_eta1_qubits_per_s", "qubits/s", ("capacity",)),
    ("extra.theory_single_signal_cps", "counts/s", ("capacity",)),
    ("extra.mc_single_signal_cps", "counts/s", ("capacity",)),
    ("er_db_per_group.<group>", "dB", ("phase_er",)),
    ("er_db_mean", "dB", ("phase_er",)),
    ("p_phi", "probability", ("phase_er",)),
    ("extra.p_phi_by_group.<group>", "probability", ("phase_er",)),
    ("visibility.<id>.visibility", "fraction", ("phase_sweep",)),
    ("visibility.<id>.i0", "counts", ("phase_sweep",)),
    ("visibility.<id>.residual", "counts", ("phase_sweep",)),
    ("qber_sifted", "probability", _BB84),
    ("key_rate", "fraction", _BB84),
    ("extra.n_detected", "frames", _BB84),
    ("extra.n_sifted", "bits", _BB84),
    ("extra.key_rate_params_n", "bits", _BB84),
    ("extra.flux_per_frame", "photons/frame", _BB84),
)

# each unit's range: NaN lies in none, and only a dB may be infinite (a
# ratio over an empty window); a label is no quantity, unchecked and unswept
UNITS = {"label": None, "dB": (-math.inf, math.inf), "probability": (0.0, 1.0),
         "fraction": (0.0, 1.0), **dict.fromkeys(
             ("integer", "frames", "bits", "counts", "counts/s", "qubits/s", "photons/frame"),
             (0.0, sys.float_info.max))}


def _tree(kind: str) -> dict:
    """The keys declared for ``kind``, nested as the report nests them, a
    leaf's value its unit; a key holding ``<...>`` is compiled to a pattern."""
    tree: dict = {}
    for path, unit, kinds in (row for row in REPORT if kind in row[2]):
        *branch, leaf = (re.compile(re.sub("<[a-z]+>", ".+", re.escape(key))) if "<" in key else key
                         for key in path.split("."))
        node = tree
        for key in branch:
            node = node.setdefault(key, {})
        node[leaf] = unit
    return tree


_DECLARED = {kind: _tree(kind) for kind in _ALL}


def _leaves(node: dict, declared: dict, kind: str, prefix: str = ""):
    """Each leaf under ``node`` as ``(dotted path, unit, value)``.  A key not
    declared for ``kind``, as that leaf or that table, raises ValueError; a
    table that is None (no estimate) has no leaves."""
    for key, value in node.items():
        name, path = str(key), prefix + str(key)
        sub = declared.get(name) or next(
            (d for t, d in declared.items() if not isinstance(t, str) and t.fullmatch(name)), None)
        if sub is None or isinstance(sub, dict) != isinstance(value, dict) and value is not None:
            raise ValueError(f"report key {path} is not declared for {kind}")
        if isinstance(value, dict):
            yield from _leaves(value, sub, kind, path + ".")
        elif isinstance(sub, str):
            yield path, sub, value


def build_report(experiment: str, seed: int, n_frames: int, **quantities) -> dict:
    """The report of a run of kind ``experiment``, nested as report.json is,
    less the top-level quantities that are None or empty (no estimate).  A
    leaf not declared for the kind in ``REPORT``, or outside its unit's
    range, raises ValueError.  An infinite dB value stays a float until
    ``report_json`` writes it."""
    report = {"experiment": experiment, "seed": seed, "n_frames": n_frames,
              **{key: v for key, v in quantities.items() if v not in (None, {})}}
    for path, unit, value in _leaves(report, _DECLARED[experiment], experiment):
        bounds = UNITS[unit]
        if bounds and value is not None and not bounds[0] <= value <= bounds[1]:
            raise ValueError(f"report key {path} = {value!r} outside {list(bounds)} ({unit})")
    return report


def report_row(report: dict) -> dict:
    """A built or read ``report``'s quantities by dotted path
    (``visibility.A.visibility``, ``extra.n_sifted``), each as report.json
    writes it: a sweep's row."""
    kind = report["experiment"]
    return {path: _sanitize(value)
            for path, unit, value in _leaves(report, _DECLARED[kind], kind) if UNITS[unit]}


def report_json(report: dict) -> str:
    """The text of report.json: sorted keys, an infinite value as a sentinel."""
    return json.dumps(_sanitize(report), indent=2, sort_keys=True) + "\n"


def _sanitize(value):
    """Each infinite float as a sentinel string, through nested dicts."""
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, float) and math.isinf(value):
        return ELIMINATED if value > 0 else "no-signal"
    return value


# ---------------------------------------------------------------------------
# The artifacts: every file that run and sweep write, declared once
# ---------------------------------------------------------------------------

_HIST = ("bin_start_ps", "count")

# every file that run and sweep write: its name, in which <id> stands for a
# signal id, <groups> for output groups joined by "+" and <group> for one;
# its CSV columns, each float's format after a colon where it is not str's;
# the kinds that write it; and when: on every run, on a run that sets the
# named key, or on a sweep.  scenarios/SCHEMA.md's artifact table is this
# one row for row, with each file's meaning.
ARTIFACTS = (
    ("report.json", (), _ALL, ("run",)),
    ("manifest.json", (), _ALL, ("run", "sweep")),
    ("hist_<id>_g<groups>.csv", _HIST, _TIMEBIN + ("capacity",), ("run",)),
    ("hist_g<group>_<id>_<interfering|blocked>.csv", _HIST, ("phase_er",), ("run",)),
    ("group_rates.csv", ("signal", "out_group", "cps:.6g"), _TIMEBIN + ("capacity",), ("run",)),
    ("er_by_group.csv", ("out_group", "signal", "er_db:.6g"), ("phase_er",), ("run",)),
    ("counts_vs_phase.csv", ("signal", "phase_rad:.10g", "counts"), ("phase_sweep",), ("run",)),
    ("transcript.csv", ("frame", "alice_basis", "alice_bit", "bob_basis", "bob_bit", "sifted"),
     _BB84, ("transcript = true",)),
    ("sweep.csv", ("<param>", "<report key>:.10g"), _ALL, ("sweep",)),
)

# each file's column names and formats, by its declared name
_COLUMNS = {name: tuple(zip(*(column.partition(":")[::2] for column in columns)))
            for name, columns, _, _ in ARTIFACTS if columns}


def csv_header(name: str) -> bytes:
    """The header line of the CSV declared as ``name`` (or pattern) in ``ARTIFACTS``."""
    return (",".join(_COLUMNS[name][0]) + "\n").encode()


def _cell(value, spec: str) -> str:
    """A table cell: None empty, an infinite float its sentinel and any
    other float in its column's format; anything else as ``str`` writes it."""
    if isinstance(value, float):
        return _sanitize(value) if math.isinf(value) else format(value, spec)
    return "" if value is None else str(value)


def write_table(directory: str | Path, name: str, rows, names=None) -> None:
    """Write ``rows``, each a sequence of cells in column order, as the
    table declared as ``name`` to ``directory / name``.  A table whose
    declared columns are patterns (``sweep.csv``) takes its column names
    from ``names``, its last declared column's format serving the rest."""
    declared, specs = _COLUMNS[name]
    names = names or declared
    specs += specs[-1:] * (len(names) - len(specs))
    lines = [",".join(names)] + [",".join(map(_cell, row, specs)) for row in rows]
    (Path(directory) / name).write_text("\n".join(lines) + "\n")


def ascii_digits(values: np.ndarray) -> np.ndarray:
    """Decimal digits of non-negative integers, one row each, right-aligned
    in a ``uint8`` matrix as wide as the longest; NUL pads where a leading
    zero would be, and 0 writes ``0``.  Built a digit at a time down the
    columns of its transpose, with division by the constant 10."""
    q = np.asarray(values, dtype=np.int64)
    width = len(str(q.max())) if len(q) else 1
    m = np.empty((width, len(q)), dtype=np.uint8)
    for k in range(width - 1, -1, -1):
        d = q // 10
        m[k] = q - d * 10
        m[k] += 48
        if k < width - 1:
            m[k] *= q > 0
        q = d
    return m.T


def csv_bytes(*columns) -> bytes:
    """The bytes of rows laid out column by column.

    A ``bytes`` value (a comma, a newline) repeats on every row.  A
    ``uint8`` array holds one character a row, or, two-dimensional, a
    NUL-padded row of them a row, as ``ascii_digits`` gives; the arrays
    share one row count.  The columns are laid side by side in one byte
    matrix, filled through its transpose, and its NUL bytes dropped.
    """
    mats = [np.frombuffer(c, np.uint8)[:, None] if isinstance(c, bytes)
            else c[None, :] if c.ndim == 1 else c.T for c in columns]
    n = max(len(c) for c in columns if not isinstance(c, bytes))
    mt = np.empty((sum(len(c) for c in mats), n), dtype=np.uint8)
    at = 0
    for c in mats:
        mt[at:at + len(c)] = c
        at += len(c)
    return mt.T.tobytes().translate(None, b"\0")
