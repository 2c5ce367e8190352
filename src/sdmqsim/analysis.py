"""Figures of merit: count rates, crosstalk, SNR, extinction ratio,
visibility fitting, time-bin tomography, symbol-error budget and capacity.

All dB quantities have linear-probability companions via
``p = 10**(-dB/10)``.  Infinite-dB results (an empty denominator window)
are carried as ``math.inf`` in memory and serialized as the sentinel string
``"eliminated"``, never as a float.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
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
    "capacity",
    "capacity_from_counts",
    "MetricsReport",
    "write_counts_vs_phase_csv",
    "write_group_rates_csv",
    "write_er_by_group_csv",
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
    population of each of the remaining d-1 slots, and ``rho_offdiag`` the
    adjacent-pulse coherence ``V * sqrt(P_i P_j)`` with ``P_i ~ 1/d``.
    """

    rho_jj: float
    rho_kk: float
    rho_offdiag: float | None


def tomography(
    pulse_counts: int,
    floor_counts: int,
    d: int,
    visibility: float | None = None,
    p_i: float | None = None,
) -> TomographyResult:
    """Diagonal elements from slot counts; off-diagonal from the visibility.

    ``rho_jj = c_j / (c_j + cf_j)`` where ``cf_j`` is the background from
    all other time slots, and ``rho_kk = (1 - rho_jj) / (d - 1)``.
    """
    if pulse_counts + floor_counts <= 0:
        raise ValueError("zero total counts")
    rho_jj = pulse_counts / (pulse_counts + floor_counts)
    rho_kk = (1.0 - rho_jj) / (d - 1)
    off = None
    if visibility is not None:
        pi = 1.0 / d if p_i is None else p_i
        off = visibility * math.sqrt(pi * pi)
    return TomographyResult(rho_jj=rho_jj, rho_kk=rho_kk, rho_offdiag=off)


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


def capacity(
    q_eff: float, mu: float, eta: float, frame_rate_hz: float, il_linear: float, d: int
) -> float:
    """Achievable capacity in qubits/s: Q * mu * eta * R_f * IL * log2(d)."""
    for name, v in [("q_eff", q_eff), ("mu", mu), ("eta", eta),
                    ("frame_rate_hz", frame_rate_hz), ("il_linear", il_linear)]:
        if v < 0:
            raise ValueError(f"{name} must be >= 0")
    if d < 2:
        raise ValueError("d must be >= 2")
    return q_eff * mu * eta * frame_rate_hz * il_linear * math.log2(d)


def capacity_from_counts(total_cps: float, d: int) -> float:
    """Capacity from an aggregated measured count rate: cps * log2(d)."""
    if total_cps < 0:
        raise ValueError("count rate must be >= 0")
    if d < 2:
        raise ValueError("d must be >= 2")
    return total_cps * math.log2(d)


# ---------------------------------------------------------------------------
# Report container and serialization
# ---------------------------------------------------------------------------


def _check_prob(name: str, value: float | None) -> None:
    if value is not None and not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class MetricsReport:
    """Derived quantities of one simulated experiment."""

    experiment: str = ""
    seed: int | None = None
    n_frames: int | None = None
    cps_per_collection: dict | None = None
    xt_db: dict | None = None
    snr_db: float | None = None
    snr_db_per_signal: dict | None = None
    er_db_per_group: dict | None = None
    er_db_mean: float | None = None
    visibility: dict | None = None
    rho_diag: dict | None = None
    p_xt: float | None = None
    p_snr: float | None = None
    p_s: float | None = None
    p_phi: float | None = None
    qber_timebin: float | None = None
    qber_sifted: float | None = None
    key_rate: float | None = None
    capacity_qubits_per_s: float | None = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("p_xt", "p_snr", "p_s", "p_phi", "qber_timebin", "qber_sifted"):
            _check_prob(name, getattr(self, name))
        if self.capacity_qubits_per_s is not None and self.capacity_qubits_per_s < 0:
            raise ValueError("capacity must be >= 0")
        if self.rho_diag:
            for k, v in self.rho_diag.items():
                _check_prob(f"rho_diag[{k}]", v)

    def to_dict(self) -> dict:
        out = {}
        for k, v in asdict(self).items():
            if v is None or (k == "extra" and not v):
                continue
            out[k] = _sanitize(v)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json())


def _sanitize(value):
    """Replace non-finite floats with sentinel strings for serialization."""
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, float):
        if math.isinf(value):
            return ELIMINATED if value > 0 else "no-signal"
        if math.isnan(value):
            return "nan"
    return value


# ---------------------------------------------------------------------------
# Per-figure CSV emitters
# ---------------------------------------------------------------------------


def write_counts_vs_phase_csv(path: str | Path, rows) -> None:
    """rows: iterable of (signal, phase_rad, counts)."""
    lines = ["signal,phase_rad,counts"]
    for sig, phi, c in rows:
        lines.append(f"{sig},{phi:.10g},{c}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_group_rates_csv(path: str | Path, rates: dict) -> None:
    """rates: {signal: {group: cps}}."""
    lines = ["signal,out_group,cps"]
    for sig in sorted(rates):
        for g in sorted(rates[sig]):
            lines.append(f"{sig},{g},{rates[sig][g]:.6g}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_er_by_group_csv(path: str | Path, er: dict) -> None:
    """er: {group: (signal, er_db)}; an er_db of None is left empty."""
    lines = ["out_group,signal,er_db"]
    for g in sorted(er):
        sig, val = er[g]
        v = "" if val is None else ELIMINATED if math.isinf(val) else f"{val:.6g}"
        lines.append(f"{g},{sig},{v}")
    Path(path).write_text("\n".join(lines) + "\n")
