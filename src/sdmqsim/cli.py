"""Batch orchestrator.

``run`` loads a scenario file, simulates it end to end and writes the
files ``analysis.ARTIFACTS`` declares for its kind.  ``sweep`` repeats a
scenario over a list of values for one ``[sim]`` or ``[experiment]`` key,
or for ``keyrate_n`` (the finite-key block size), into ``sweep.csv``: a row a
value and a column a quantity its reports hold (``analysis.REPORT``),
named by dotted path and written as report.json writes it.  ``--seed``,
``--frames`` and each swept value go through ``Scenario.with_overrides``,
so they pass the checks a file's value passes: an unknown key, or one the
scenario's kind does not read, exits 2 before any output directory is
made; a swept value is read as a file's text (``pi/2``) and written to
``sweep.csv`` as typed.  Logs go to stderr; data only to files.
``-h``/``--help`` prints the usage to stdout.

Exit codes: 0 ok, 2 configuration error or bad command line (the usage and
the error go to stderr), 3 runtime/IO error.
"""
from __future__ import annotations

import getopt
import json
import os
import platform
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .analysis import report_json, report_row, write_table
from .config import ConfigError
from .pipeline import RunResult, run_scenario
from .protocol import key_rate, write_transcript
from .receiver import export_histogram
from .scenarios import Scenario, load_scenario

OUT_ENV = "SDMQSIM_OUT"


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _default_out(scenario_name: str, sub: str | None = None) -> Path:
    base = Path(os.environ.get(OUT_ENV, "out"))
    return base / (scenario_name if sub is None else f"{scenario_name}_{sub}")


def _write_manifest(out_dir: Path, scenario_path: Path, scenario: Scenario,
                    overrides: dict) -> None:
    """The run's inputs: the scenario's text and, where ``tables_path`` sets
    them, the link tables' (the packaged ones are pinned by the version)."""
    tables = scenario.channel.tables_path
    manifest = {
        "scenario_file": str(scenario_path),
        "scenario_echo": scenario_path.read_text(),
        "tables_echo": None if tables is None else Path(tables).read_text(),
        "overrides": overrides,
        "resolved_seed": scenario.cfg.seed,
        "resolved_n_frames": scenario.experiment.n_frames,
        "versions": {
            "sdmqsim": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def _write_artifacts(out_dir: Path, result: RunResult, hist_res_ps: int) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(report_json(result.report))
    for name, bins in result.histograms.items():
        export_histogram(bins, hist_res_ps, out_dir / f"hist_{name}.csv")
    for name, rows in result.tables.items():
        write_table(out_dir, name, rows)
    if result.bb84 is not None:
        write_transcript(out_dir / "transcript.csv", result.bb84)


def cmd_run(args) -> int:
    scenario_path = Path(args.scenario)
    overrides = {key: value for key, value in (("seed", args.seed), ("n_frames", args.frames))
                 if value is not None}
    scenario = load_scenario(scenario_path).with_overrides(**overrides)
    out_dir = Path(args.out) if args.out else _default_out(scenario.name)
    _log(f"running scenario {scenario.name} ({scenario.experiment.kind}), "
         f"seed={scenario.cfg.seed}, frames={scenario.experiment.n_frames}")
    result = run_scenario(scenario)
    _write_artifacts(out_dir, result, scenario.cfg.hist_res_ps)
    _write_manifest(out_dir, scenario_path, scenario, overrides)
    _log(f"artifacts written to {out_dir}")
    return 0


def _sweep_values(raw: str, param: str) -> list[str]:
    """The comma-separated ``raw``, each value as typed, the text a file
    would hold.  A ``keyrate_n`` that is not a whole block size is a
    configuration error naming ``param``, before the first row is computed."""
    values = [text.strip() for text in raw.split(",") if text.strip()]
    if not values:
        raise ConfigError("empty sweep value list")
    for text in values if param == "keyrate_n" else ():
        try:
            v = float(text)
        except ValueError:
            raise ConfigError(f"{param} values must be numbers, got {text!r}") from None
        if not (v.is_integer() and v >= 1):  # NaN and inf fail
            raise ConfigError(f"keyrate_n must be an integer >= 1, got {v:g}")
    return values


def cmd_sweep(args) -> int:
    scenario_path = Path(args.scenario)
    overrides = {} if args.seed is None else {"seed": args.seed}
    scenario = load_scenario(scenario_path).with_overrides(**overrides)
    param = args.param
    values = _sweep_values(args.values, param)
    if param == "keyrate_n":
        # formula-level sweep of the finite-key bound against the block size
        rows = [{param: v, "key_rate": key_rate(int(float(v)))} for v in values]
    else:
        # every value passes the scenario's checks before the first run
        subs = [scenario.with_overrides(**{param: v}) for v in values]
        rows = []
        for v, sub in zip(values, subs):
            _log(f"sweep {param}={v}")
            # the value as typed, even where a report key has its name
            rows.append({**report_row(run_scenario(sub).report), param: v})

    out_dir = Path(args.out) if args.out else _default_out(scenario.name, "sweep")
    out_dir.mkdir(parents=True, exist_ok=True)
    keys = [param] + sorted({k for row in rows for k in row} - {param})
    write_table(out_dir, "sweep.csv", [[row.get(k) for k in keys] for row in rows], keys)
    _write_manifest(out_dir, scenario_path, scenario,
                    {**overrides, "sweep_param": param, "values": values})
    _log(f"sweep results written to {out_dir}")
    return 0


# each command's function, its one positional and its options, ``name: (type, required)``
COMMANDS = {
    "run": (cmd_run, "scenario", {"seed": (int, False), "frames": (int, False),
                                  "out": (str, False)}),
    "sweep": (cmd_sweep, "scenario", {"param": (str, True), "values": (str, True),
                                      "seed": (int, False), "out": (str, False)}),
}
USAGE = "usage: " + "\n       ".join(
    [f"sdmqsim {name} {pos.upper()}" + "".join(
        f" --{o} {o.upper()}" if required else f" [--{o} {o.upper()}]"
        for o, (_, required) in opts.items())
     for name, (_, pos, opts) in COMMANDS.items()]
    + ["sdmqsim -h | --help"]
) + f"\n\n--out defaults to ${OUT_ENV}/<name>; --values is a comma-separated list.\n"


def _parse(argv: list[str]):
    """``argv``'s command function and arguments, or None for ``-h``/``--help``.
    An option may be given before or after the positional, as ``--key value``,
    ``--key=value`` or by a unique prefix of the key; the last repeat wins."""
    func, positional, options = COMMANDS.get(argv[0] if argv else None, (None, None, {}))
    opts, rest = getopt.gnu_getopt(argv[1:] if func else argv, "h",
                                   ["help"] + [f"{o}=" for o in options])
    if any(opt in ("-h", "--help") for opt, _ in opts):
        return None
    if func is None:
        raise getopt.GetoptError(f"expected a command, one of {', '.join(COMMANDS)}")
    if len(rest) != 1:
        raise getopt.GetoptError(f"expected one {positional}, got {len(rest)}")
    args = {positional: rest[0], **dict.fromkeys(options)}
    for opt, text in opts:
        kind = options[opt[2:]][0]
        try:
            args[opt[2:]] = kind(text)
        except ValueError:
            raise getopt.GetoptError(f"{opt}: invalid {kind.__name__} value {text!r}") from None
    missing = [f"--{o}" for o, (_, req) in options.items() if req and args[o] is None]
    if missing:
        raise getopt.GetoptError(f"{' and '.join(missing)} required")
    return func, SimpleNamespace(**args)


def main(argv=None) -> int:
    try:
        parsed = _parse(sys.argv[1:] if argv is None else list(argv))
    except getopt.GetoptError as exc:
        print(f"{USAGE}sdmqsim: error: {exc.msg}", file=sys.stderr)
        return 2
    if parsed is None:
        print(USAGE, end="")
        return 0
    func, args = parsed
    try:
        return func(args)
    except ConfigError as exc:
        _log(f"configuration error: {exc}")
        return 2
    except (OSError, RuntimeError, ValueError) as exc:
        _log(f"runtime error: {exc}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
