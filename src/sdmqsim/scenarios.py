"""Scenario files: a single INI-style key/value config per experiment.

A scenario bundles the simulation parameters, the signal assignments, the
channel conventions and one experiment kind.  Each section fills one
dataclass: ``[sim]`` a ``SimConfig``, ``[channel]`` a ``ChannelSpec``,
``[signal.<ID>]`` a ``SignalAssignment`` and ``[experiment]`` an
``ExperimentSpec``.  Its keys are the dataclass's fields, each read as the
field's type (see ``key_types``), so the dataclasses are the schema;
``scenarios/SCHEMA.md`` in the repository documents it.  A value that does
not convert is a ``ConfigError`` naming its key.  ``Scenario.with_overrides``
converts and checks a run's or a sweep's values the same way.
"""
from __future__ import annotations

import configparser
import functools
import math
import typing
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .config import N_GROUPS, ConfigError, SimConfig, SignalAssignment

__all__ = ["ChannelSpec", "ExperimentSpec", "Scenario", "load_scenario", "key_types",
           "EXPERIMENT_KINDS"]

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

# [experiment] keys only these kinds read; a file or an override setting one
# for another kind is rejected rather than silently ignored
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
        if self.theory_il_db > 0:
            raise ConfigError(f"theory_il_db must be <= 0 (a loss), got {self.theory_il_db}")
        if not 0 < self.theory_mu < math.inf:
            raise ConfigError(f"theory_mu must be positive and finite, got {self.theory_mu}")
        if not all(map(math.isfinite, self.sweep_phi_b)):
            raise ConfigError(f"sweep_phi_b must be finite, got {self.sweep_phi_b}")
        collected = set()
        for sid, groups in self.collections.items():
            for g in groups:
                if not 1 <= g <= N_GROUPS:
                    raise ConfigError(f"collections {sid}: mode group {g} outside 1..{N_GROUPS}")
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
        exp, kind = self.experiment, self.experiment.kind
        ids = {s.signal_id for s in self.signals}
        for key in ("collections", "gates"):
            for sid in getattr(exp, key):
                if sid not in ids:
                    raise ConfigError(f"{key} {sid}: no signal {sid!r}")
        if kind in ("bb84", "bb84_eve"):  # both ports read dt1, the first half-window
            bad = [f"gates {sid}:{g}" for sid, g in exp.gates.items() if g != "dt1"]
            bad += [f"delayed = true on signal {s.signal_id}" for s in self.signals if s.delayed]
            bad += [f"a second signal [signal.{s.signal_id}]" for s in self.signals[1:]]
            if not self.cfg.dead_time_nested:
                tau, window = self.cfg.dead_time_ps, self.cfg.frame_window_ps
                bad.append(f"dead_time_ps = {tau} < frame_window_ps" if tau < window
                           else f"dead_time_ps = {tau} > frame_window_ps + 1")
            if bad:
                raise ConfigError(f"{kind} simulates one signal and gates its ports dt1 in the "
                                  f"first half-window, the dead time nested in the blank half: "
                                  f"{bad[0]} is not supported")
        elif not exp.collections:  # every other kind counts per collection
            raise ConfigError(f"{kind} scenario requires a collections map")
        if kind == "phase_er" and exp.gates:
            raise ConfigError("phase_er gates each detector by its signal's delay: "
                              "gates is not supported")
        # timebin_B reads crosstalk on its one delayed signal's collection, and
        # timebin_xt compares one delayed signal's slot with one undelayed one's
        delayed = [s.signal_id for s in self.signals if s.delayed]
        early = len(self.signals) - len(delayed)
        if kind == "timebin_B" and (len(delayed) != 1 or delayed[0] not in exp.collections):
            raise ConfigError("timebin_B needs exactly one collected signal with delayed = "
                              f"true, got {len(delayed)} delayed")
        if kind == "timebin_xt" and (len(delayed), early) != (1, 1):
            raise ConfigError("timebin_xt needs one signal with delayed = true and one with "
                              f"delayed = false, got {len(delayed)} and {early}")
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

    def signal(self, sid: str) -> SignalAssignment:
        for s in self.signals:
            if s.signal_id == sid:
                return s
        raise ConfigError(f"no signal {sid!r} in scenario {self.name}")

    def with_overrides(self, **values) -> "Scenario":
        """This scenario with the ``[sim]`` and ``[experiment]`` keys of
        ``values`` replaced, each converted to its field's type and checked
        as a file's keys are, ``KIND_ONLY_KEYS`` included."""
        sim = {key: v for key, v in values.items() if key in key_types(SimConfig)}
        exp = _fields({key: v for key, v in values.items() if key not in sim},
                      ExperimentSpec, "[sim] or [experiment]")
        out = replace(self, cfg=replace(self.cfg, **_fields(sim, SimConfig, "[sim]")),
                      experiment=replace(self.experiment, **exp))
        _check_read_by(out.experiment.kind, exp)
        return out


@functools.cache
def key_types(cls) -> dict:
    """Each key of the section that fills ``cls`` and the type its value is
    read as: the field's type, ``X | None`` read as ``X``.  A signal's id
    is its section's name, not a key."""
    hints = typing.get_type_hints(cls)
    return {f.name: (typing.get_args(hints[f.name]) or (hints[f.name],))[0]
            for f in fields(cls) if f.name != "signal_id"}


def _check_read_by(kind: str, keys) -> None:
    """Reject the first of ``keys`` that ``kind`` does not read."""
    for key in keys:
        kinds = KIND_ONLY_KEYS.get(key, (kind,))
        if kind not in kinds:
            raise ConfigError(f"{key} is read only by kind {' or '.join(kinds)}, "
                              f"not by {kind}")


def _parse_phase(raw: str) -> float:
    """Accept plain floats or simple 'pi'-multiples like '3pi/4'."""
    raw = raw.strip().lower()
    if "pi" in raw:
        head, _, tail = raw.partition("pi")
        num = float(head) if head not in ("", "+", "-") else float(head + "1")
        den = float(tail.lstrip("/")) if tail else 1.0
        return num * math.pi / den
    return float(raw)


def _pairs(raw: str) -> dict:
    """e.g. 'A:dt1 B:dt2' -> {'A': 'dt1', 'B': 'dt2'}."""
    return dict(part.split(":") for part in raw.split())


# keys read by a parser of their own; every other key is read as its type
_PARSERS = {
    "phi_a": _parse_phase,
    "phi_b": _parse_phase,
    "sweep_phi_b": lambda raw: tuple(map(_parse_phase, raw.split(","))),
    # e.g. 'A:1 B:2+3 C:4+5' -> {'A': (1,), 'B': (2, 3), 'C': (4, 5)}
    "collections": lambda raw: {sid: tuple(map(int, groups.split("+")))
                                for sid, groups in _pairs(raw).items()},
    "gates": _pairs,
    "input_mode": lambda raw: tuple(map(int, raw.split(","))),
}

_BOOLS = {"true": True, "yes": True, "1": True, "on": True,
          "false": False, "no": False, "0": False, "off": False}


def _convert(value, typ, key: str, name: str):
    """``value`` for key ``key`` of type ``typ``: a file's text through the
    key's parser, any other value through ``typ``.  A value that does not
    convert is a ``ConfigError`` naming the key as ``name``."""
    try:
        if not isinstance(value, str):
            # a sweep's 1.5 is no seed, and its 0.5 no transcript flag
            if typ is int and value != int(value) or typ is bool and value not in (0, 1):
                raise ValueError(value)
            return typ(value)
        raw = value.strip()
        if key in _PARSERS:
            return _PARSERS[key](raw)
        if typ is bool:
            return _BOOLS[raw.lower()]
        if typ is float and raw.lower() == "pi":
            return math.pi
        return typ(raw)
    except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {name}: {value!r}") from exc


def _fields(values: dict, cls, where: str, label: str = "") -> dict:
    """``values`` as fields of ``cls``; a key outside them is unknown in
    ``where``, and a bad value names its key as ``label`` + key."""
    types = key_types(cls)
    for key in values:
        if key not in types:
            raise ConfigError(f"unknown {where} key {key!r}")
    return {key: _convert(v, types[key], key, label + key) for key, v in values.items()}


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

    def read(section, cls, label=""):
        items = dict(parser.items(section)) if parser.has_section(section) else {}
        return _fields(items, cls, f"[{section}]", label)

    cfg = SimConfig(**read("sim", SimConfig))
    channel = ChannelSpec(**read("channel", ChannelSpec))
    signals = tuple(SignalAssignment(signal_id=section.split(".", 1)[1],
                                     **read(section, SignalAssignment, f"[{section}] "))
                    for section in parser.sections() if section.startswith("signal."))
    if not signals:
        raise ConfigError("scenario defines no signals")

    if not parser.has_section("experiment"):
        raise ConfigError("scenario missing [experiment] section")
    exp_kwargs = read("experiment", ExperimentSpec)
    if "kind" not in exp_kwargs:
        raise ConfigError("[experiment] sets no kind")
    experiment = ExperimentSpec(**exp_kwargs)
    _check_read_by(experiment.kind, exp_kwargs)

    return Scenario(path.stem, cfg, signals, channel, experiment)
