"""Scenario files: a single INI-style key/value config per experiment.

A scenario bundles the simulation parameters, the signal assignments, the
channel conventions and one experiment kind.  See ``scenarios/SCHEMA.md``
in the repository for the documented field list.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .channel import N_GROUPS
from .config import ConfigError, SimConfig, SignalAssignment, validate_config

__all__ = ["ChannelSpec", "ExperimentSpec", "Scenario", "load_scenario", "EXPERIMENT_KINDS"]

EXPERIMENT_KINDS = (
    "timebin_xt",
    "timebin_B",
    "phase_er",
    "phase_sweep",
    "bb84",
    "bb84_eve",
    "capacity",
)

GATE_VALUES = ("dt1", "dt2", "always")

# kinds that simulate a pure time-bin stream with one slot per signal
TIMEBIN_KINDS = ("timebin_xt", "timebin_B", "capacity")

# [experiment] keys only these kinds read; a file setting one for another
# kind is rejected rather than silently ignored
_PHASE_KINDS = ("phase_er", "phase_sweep", "bb84", "bb84_eve")
KIND_ONLY_KEYS = {"transcript": ("bb84", "bb84_eve"), "theory_mu": ("capacity",),
                  "theory_il_db": ("capacity",), "phi_a": ("phase_er", "phase_sweep"),
                  "phi_b": ("phase_er",), "sweep_phi_b": ("phase_sweep",),
                  "visibility_cap": _PHASE_KINDS, "phase_floor": _PHASE_KINDS}


@dataclass(frozen=True)
class ChannelSpec:
    """Link conventions for a scenario (see channel.ChannelModel)."""

    distance: str = "8km"
    mu_reference: str = "mux_input"
    input_mdm_exclusion_db: float = 4.2
    uniform_il_db: float | None = None
    tables_path: str | None = None


@dataclass(frozen=True)
class ExperimentSpec:
    """Experiment kind plus its kind-specific knobs."""

    kind: str
    n_frames: int = 100_000
    phi_a: float = math.pi
    phi_b: float = 0.0
    visibility_cap: float = 0.93
    phase_floor: float = 0.0
    sweep_phi_b: tuple = ()
    collections: dict = field(default_factory=dict)  # signal -> (groups...)
    gates: dict = field(default_factory=dict)  # signal -> gate
    theory_mu: float = 1.0
    theory_il_db: float = -8.3
    transcript: bool = False

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.n_frames < 1:
            raise ConfigError(f"n_frames must be >= 1, got {self.n_frames}")
        # written so that NaN fails the checks
        for name in ("visibility_cap", "phase_floor"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        for name in ("phi_a", "phi_b", "theory_il_db"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0 < self.theory_mu < math.inf:
            raise ConfigError(f"theory_mu must be positive and finite, got {self.theory_mu}")
        if not all(map(math.isfinite, self.sweep_phi_b)):
            raise ConfigError(f"sweep_phi_b must be finite, got {self.sweep_phi_b}")
        collected = set()
        for sid, groups in self.collections.items():
            _check_group(f"collections {sid}", groups)
            for g in groups:
                if g in collected:
                    raise ConfigError(
                        f"collections {sid}: mode group {g} is already collected; "
                        f"collections must be disjoint"
                    )
                collected.add(g)
        if self.kind == "phase_sweep" and len(self.sweep_phi_b) == 0:
            raise ConfigError("phase_sweep requires a sweep_phi_b list")
        for g in self.gates.values():
            if g not in GATE_VALUES:
                raise ConfigError(f"gate must be one of {GATE_VALUES}, got {g!r}")


@dataclass(frozen=True)
class Scenario:
    name: str
    cfg: SimConfig
    signals: tuple
    channel: ChannelSpec
    experiment: ExperimentSpec

    def __post_init__(self):
        groups = [s.input_group for s in self.signals]
        if len(set(groups)) != len(groups):
            raise ConfigError("two signals assigned to the same input group")
        kind = self.experiment.kind
        if kind in ("bb84", "bb84_eve"):  # both ports read dt1, the first half-window
            bad = [f"gates {sid}:{g}" for sid, g in self.experiment.gates.items() if g != "dt1"]
            bad += [f"delayed = true on signal {s.signal_id}" for s in self.signals if s.delayed]
            bad += [f"a second signal [signal.{s.signal_id}]" for s in self.signals[1:]]
            if bad:
                raise ConfigError(f"{kind} simulates one signal and gates its ports dt1 in "
                                  f"the first half-window: {bad[0]} is not supported")
        if kind == "phase_er" and self.experiment.gates:
            raise ConfigError("phase_er gates each detector by its signal's delay: "
                              "gates is not supported")
        if kind not in TIMEBIN_KINDS:
            return
        if self.cfg.p_tb != 1.0:
            raise ConfigError(
                f"{kind} simulates a pure time-bin stream: p_tb must be 1, "
                f"got {self.cfg.p_tb}"
            )
        for s in self.signals:
            if s.fixed_slot is None or not 0 <= s.fixed_slot < self.cfg.d:
                raise ConfigError(
                    f"{kind} requires fixed_slot in 0..{self.cfg.d - 1} on signal "
                    f"{s.signal_id}, got {s.fixed_slot}"
                )

    def validated(self):
        return validate_config(self.cfg)

    def signal(self, sid: str) -> SignalAssignment:
        for s in self.signals:
            if s.signal_id == sid:
                return s
        raise ConfigError(f"no signal {sid!r} in scenario {self.name}")

    def with_overrides(self, seed=None, n_frames=None) -> "Scenario":
        out = self
        if seed is not None:
            out = replace(out, cfg=replace(out.cfg, seed=seed))
        if n_frames is not None:
            out = replace(out, experiment=replace(out.experiment, n_frames=n_frames))
        return out


_SIM_FIELDS = {
    "d": int,
    "pulse_period_ps": int,
    "frame_window_ps": int,
    "frame_period_ps": int,
    "frame_rate_hz": float,
    "mu_in": float,
    "eta": float,
    "dead_time_ps": int,
    "hist_res_ps": int,
    "p_tb": float,
    "im_extinction": float,
    "jitter_sigma_ps": float,
    "seed": int,
}

_CHANNEL_FIELDS = {
    "distance": str,
    "mu_reference": str,
    "input_mdm_exclusion_db": float,
    "uniform_il_db": float,
    "tables_path": str,
}

_SIGNAL_FIELDS = {
    "input_group": int,
    "delayed": bool,
    "excess_db": float,
    "im_extinction": float,
    "fixed_slot": int,
}

_EXPERIMENT_FIELDS = {
    "kind": str,
    "n_frames": int,
    "phi_a": float,
    "phi_b": float,
    "visibility_cap": float,
    "phase_floor": float,
    "theory_mu": float,
    "theory_il_db": float,
    "transcript": bool,
}


def _check_group(field: str, groups) -> None:
    bad = [g for g in groups if not 1 <= g <= N_GROUPS]
    if bad:
        raise ConfigError(f"{field}: mode group {bad[0]} outside 1..{N_GROUPS}")


def _convert(raw: str, typ, key: str):
    raw = raw.strip()
    try:
        if typ is bool:
            if raw.lower() in ("true", "yes", "1", "on"):
                return True
            if raw.lower() in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        if typ is float and raw.lower() == "pi":
            return math.pi
        return typ(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def _parse_phase(raw: str) -> float:
    """Accept plain floats or simple 'pi'-multiples like '3pi/4'."""
    raw = raw.strip().lower()
    if "pi" in raw:
        head, _, tail = raw.partition("pi")
        num = float(head) if head not in ("", "+", "-") else float(head + "1")
        den = float(tail.lstrip("/")) if tail else 1.0
        return num * math.pi / den
    return float(raw)


def _parse_collections(raw: str) -> dict:
    """e.g. 'A:1 B:2+3 C:4+5' -> {'A': (1,), 'B': (2, 3), 'C': (4, 5)}."""
    out = {}
    for part in raw.split():
        sid, _, groups = part.partition(":")
        if not groups:
            raise ConfigError(f"bad collections entry {part!r}")
        out[sid] = tuple(int(g) for g in groups.split("+"))
    return out


def _parse_gates(raw: str) -> dict:
    out = {}
    for part in raw.split():
        sid, _, gate = part.partition(":")
        if not gate:
            raise ConfigError(f"bad gates entry {part!r}")
        out[sid] = gate
    return out


def load_scenario(path: str | Path) -> Scenario:
    """Parse a scenario INI file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"scenario file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    try:
        parser.read(str(path))
    except configparser.Error as exc:  # its message names the file and the line
        raise ConfigError(" ".join(str(exc).split())) from exc

    sim_kwargs = {}
    if parser.has_section("sim"):
        for key, raw in parser.items("sim"):
            if key not in _SIM_FIELDS:
                raise ConfigError(f"unknown [sim] key {key!r}")
            sim_kwargs[key] = _convert(raw, _SIM_FIELDS[key], key)
    cfg = SimConfig(**sim_kwargs)

    ch_kwargs = {}
    if parser.has_section("channel"):
        for key, raw in parser.items("channel"):
            if key not in _CHANNEL_FIELDS:
                raise ConfigError(f"unknown [channel] key {key!r}")
            ch_kwargs[key] = _convert(raw, _CHANNEL_FIELDS[key], key)
    channel = ChannelSpec(**ch_kwargs)

    signals = []
    for section in parser.sections():
        if not section.startswith("signal."):
            continue
        sid = section.split(".", 1)[1]
        kwargs = {}
        for key, raw in parser.items(section):
            if key == "input_mode":
                kwargs["input_mode"] = tuple(
                    _convert(x, int, f"[{section}] input_mode") for x in raw.split(","))
                continue
            if key not in _SIGNAL_FIELDS:
                raise ConfigError(f"unknown [{section}] key {key!r}")
            kwargs[key] = _convert(raw, _SIGNAL_FIELDS[key], key)
        _check_group(f"[{section}] input_group", (kwargs.get("input_group", 1),))
        if not kwargs.get("excess_db", 0.0) <= 0.0:
            raise ConfigError(
                f"[{section}] excess_db must be <= 0 (a loss), got {kwargs['excess_db']}"
            )
        if not kwargs.get("im_extinction", math.inf) > 1.0:
            raise ConfigError(f"[{section}] im_extinction must be > 1 (linear ratio), "
                              f"got {kwargs['im_extinction']}")
        signals.append(SignalAssignment(signal_id=sid, **kwargs))
    if not signals:
        raise ConfigError("scenario defines no signals")

    if not parser.has_section("experiment"):
        raise ConfigError("scenario missing [experiment] section")
    exp_kwargs = {}
    for key, raw in parser.items("experiment"):
        if key == "collections":
            exp_kwargs["collections"] = _parse_collections(raw)
        elif key == "gates":
            exp_kwargs["gates"] = _parse_gates(raw)
        elif key == "sweep_phi_b":
            exp_kwargs["sweep_phi_b"] = tuple(
                _parse_phase(x) for x in raw.split(",")
            )
        elif key in ("phi_a", "phi_b"):
            exp_kwargs[key] = _parse_phase(raw)
        elif key in _EXPERIMENT_FIELDS:
            exp_kwargs[key] = _convert(raw, _EXPERIMENT_FIELDS[key], key)
        else:
            raise ConfigError(f"unknown [experiment] key {key!r}")
    experiment = ExperimentSpec(**exp_kwargs)
    for key, kinds in KIND_ONLY_KEYS.items():
        if key in exp_kwargs and experiment.kind not in kinds:
            raise ConfigError(f"{key} is read only by kind {' or '.join(kinds)}, "
                              f"not by {experiment.kind}")

    # experiment kinds that read per-collection counts need the mapping
    if experiment.kind in ("timebin_xt", "timebin_B", "capacity", "phase_er") and not experiment.collections:
        raise ConfigError(f"{experiment.kind} scenario requires a collections map")

    scenario = Scenario(
        name=path.stem,
        cfg=cfg,
        signals=tuple(signals),
        channel=channel,
        experiment=experiment,
    )
    scenario.validated()  # raise early on bad sim config
    return scenario
