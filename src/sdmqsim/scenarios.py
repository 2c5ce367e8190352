"""Scenario files: a single INI-style key/value config per experiment.

A scenario bundles the simulation parameters, the signal assignments, the
channel conventions and one experiment kind.  Each section fills one
dataclass (``SECTIONS``): ``[sim]`` a ``SimConfig``, ``[channel]`` a
``ChannelModel`` (its keys and the link tables, read once, at load),
``[signal.<ID>]`` a ``SignalAssignment`` and ``[experiment]`` an
``ExperimentSpec``.  Its keys are the fields declared
with ``config.key`` (``KEYS``), each declared once: its type (the field's,
or a parser of a file's text), default, single-key range and the kinds
that read it.  ``scenarios/SCHEMA.md`` in the repository holds those
declarations row for row.  A value that does not convert, lies outside its
range, or is set for a kind that does not read it, is a ``ConfigError``
naming its key, whether it comes from a file, from
``Scenario.with_overrides`` (a run's or a sweep's values) or from a
dataclass built in code; rules that join keys are each dataclass's
``__post_init__`` and ``Scenario``'s.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .analysis import check_phases
from .channel import ChannelModel, load_link_tables
from .config import N_GROUPS, ConfigError, SimConfig, SignalAssignment, check_keys, key

__all__ = ["ChannelModel", "ExperimentSpec", "Scenario", "load_scenario", "SECTIONS", "KEYS",
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

# kinds that simulate a pure time-bin stream with one slot per signal
TIMEBIN_KINDS = ("timebin_xt", "timebin_B", "capacity")


def phase(raw: str) -> float:
    """A parser of a key's text: plain radians or a simple 'pi' multiple
    such as '3pi/4'."""
    raw = raw.strip().lower()
    if "pi" in raw:
        head, _, tail = raw.partition("pi")
        num = float(head) if head not in ("", "+", "-") else float(head + "1")
        den = float(tail.lstrip("/")) if tail else 1.0
        return num * math.pi / den
    return float(raw)


def phases(raw: str) -> tuple:
    """e.g. '0, pi/4' -> (0.0, pi/4)."""
    return tuple(map(phase, raw.split(",")))


def gate_map(raw: str) -> dict:
    """e.g. 'A:dt1 B:dt2' -> {'A': 'dt1', 'B': 'dt2'}."""
    return dict(part.split(":") for part in raw.split())


def group_map(raw: str) -> dict:
    """e.g. 'A:1 B:2+3 C:4+5' -> {'A': (1,), 'B': (2, 3), 'C': (4, 5)}."""
    return {sid: tuple(map(int, groups.split("+"))) for sid, groups in gate_map(raw).items()}


@dataclass(frozen=True)
class ExperimentSpec:
    """The ``[experiment]`` keys: the experiment kind plus its knobs."""

    kind: str = key()  # one of EXPERIMENT_KINDS
    n_frames: int = key(100_000, ">= 1")
    phi_a: float = key(math.pi, "finite", ("phase_er", "phase_sweep"), phase)
    phi_b: float = key(0.0, "finite", ("phase_er",), phase)
    visibility_cap: float = key(0.93, "in [0, 1]", ("phase_er", "phase_sweep", "bb84", "bb84_eve"))
    phase_floor: float = key(0.0, "in [0, 1]", ("phase_er", "phase_sweep", "bb84", "bb84_eve"))
    sweep_phi_b: tuple = key((), "finite", ("phase_sweep",), phases)
    collections: dict = key({}, parse=group_map)  # signal -> (groups...)
    gates: dict = key({}, "one of dt1, dt2, always", parse=gate_map)  # signal -> gate
    theory_mu: float = key(1.0, "positive and finite", ("capacity",))
    theory_il_db: float = key(-8.3, "<= 0 (a loss) and finite", ("capacity",))
    transcript: bool = key(False, kinds=("bb84", "bb84_eve"))

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        check_keys(self)
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
        if self.kind == "phase_sweep":  # the visibility fit's rule, checked at load
            check_phases([self.phi_a + b for b in self.sweep_phi_b], "sweep_phi_b: ", ConfigError)


@dataclass(frozen=True)
class Scenario:
    name: str
    cfg: SimConfig
    signals: tuple
    channel: ChannelModel
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
        ``values`` replaced, each converted and checked as a file's keys
        are, the kinds that read it included."""
        sim = {key: v for key, v in values.items() if key in KEYS[SimConfig]}
        exp = _fields({key: v for key, v in values.items() if key not in sim},
                      ExperimentSpec, "[sim] or [experiment]")
        out = replace(self, cfg=replace(self.cfg, **_fields(sim, SimConfig, "[sim]")),
                      experiment=replace(self.experiment, **exp))
        _check_read_by(out.experiment.kind, {SimConfig: sim, ExperimentSpec: exp})
        return out


# each section's name and the dataclass it fills; each dataclass's keys are
# its fields declared with ``config.key``, by name
SECTIONS = {"sim": SimConfig, "channel": ChannelModel, "signal.<ID>": SignalAssignment,
            "experiment": ExperimentSpec}
KEYS = {cls: {f.name: f for f in fields(cls) if f.metadata} for cls in SECTIONS.values()}

# each type a key's value may have, by the name its field's annotation gives
_TYPES = {"int": int, "float": float, "str": str, "bool": bool, "tuple": tuple, "dict": dict}

def _check_read_by(kind: str, given: dict) -> None:
    """Reject the first key that ``kind`` does not read of ``given``, each
    dataclass's keys set."""
    for cls, keys in given.items():
        for name in keys:
            kinds = KEYS[cls][name].metadata["kinds"] or (kind,)
            if kind not in kinds:
                raise ConfigError(f"{name} is read only by kind {' or '.join(kinds)}, "
                                  f"not by {kind}")


def _convert(value, f, name: str):
    """``value`` for the key declared by field ``f``: a file's text through
    the key's parser or its type, any other value through its type.  A value
    that does not convert is a ``ConfigError`` naming the key as ``name``."""
    typ = _TYPES[f.type.split(" |")[0]]
    try:
        if not isinstance(value, str):
            # a sweep's 1.5 is no seed, and its 0.5 no transcript flag
            if typ is int and value != int(value) or typ is bool and value not in (0, 1):
                raise ValueError(value)
            return typ(value)
        raw = value.strip()
        if f.metadata["parse"]:
            return f.metadata["parse"](raw)
        if typ is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        return typ(raw)
    except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {name}: {value!r}") from exc


def _fields(values: dict, cls, where: str, label: str = "") -> dict:
    """``values`` as keys of ``cls``; a key outside them is unknown in
    ``where``, and a bad value names its key as ``label`` + key."""
    declared = KEYS[cls]
    for name in values:
        if name not in declared:
            raise ConfigError(f"unknown {where} key {name!r}")
    return {name: _convert(v, declared[name], label + name) for name, v in values.items()}


def load_scenario(path: str | Path) -> Scenario:
    """Parse a scenario INI file."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:  # its message names the file and the line
        raise ConfigError(" ".join(str(exc).split())) from exc

    given = {}  # the keys each section sets, by the dataclass it fills

    def read(section, cls, label=""):
        items = dict(parser.items(section)) if parser.has_section(section) else {}
        given.setdefault(cls, {}).update(items)
        return _fields(items, cls, f"[{section}]", label)

    cfg = SimConfig(**read("sim", SimConfig))
    keys = read("channel", ChannelModel)
    channel = ChannelModel(*load_link_tables(keys.get("tables_path")), **keys)
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
    _check_read_by(experiment.kind, given)

    return Scenario(path.stem, cfg, signals, channel, experiment)
