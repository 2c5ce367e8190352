"""sdmqsim benchmark: the ``sdmqsim run`` CLI on three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload phase_er --seed 0 --seconds 30 --trace 0

A closed loop from this single process: one child process (``child.py``)
at a time, each calling ``sdmqsim.cli.main(["run", <scenario>, ...])`` once
on the checkout's ``src``.  The first child is a warm-up whose timings are
dropped; children then start until ``--seconds`` have passed.  With
``--trace 1`` one more child, at the warm-up's seed, runs with the package's
public functions wrapped from outside and gives the per-layer metrics.
Times are reported at a reference CPU speed measured by a probe each child
runs next to its timed work (see ``end_to_end``).

Child ``i`` runs at scenario seed ``pinned + seed * SEED_STRIDE + i``, so
``--seed 0`` starts at the scenario file's pinned seed and a given
``--seed`` always gives the same inputs.  Every report is checked for
correctness; the traced child's report must match the warm-up's byte for
byte.  A summary goes to stdout, a full record (per-child digests, layer
counts, spans, environment) to ``.perfbench_work/results/``, and the last
stdout line is the JSON result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SEED_STRIDE = 1000
MIN_MEASURED = 3
RUN_LIMIT_S = 170.0  # the whole run ends well inside 180 s
CHILD_LIMIT_S = 120.0
Z = 5.0  # statistical checks allow 5 standard errors
PROBE_REF_S = 0.05  # child.speed_probe on a quiet 2-core x86-64 host, Python 3.11, numpy 2.4
# one thread per child, whatever the caller's environment asks for
THREAD_ENV = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(Exception):
    """The checkout cannot be benchmarked."""


# ---------------------------------------------------------------------------
# Correctness checks on report.json
# ---------------------------------------------------------------------------


def check_phase_er(report: dict, expect) -> list[str]:
    """Per-report part of the phase_er check; see ``pooled_phase_er``."""
    bad = []
    for key in ("er_db_mean", "p_phi"):
        if not isinstance(report.get(key), float) or not math.isfinite(report[key]):
            bad.append(f"{key} = {report.get(key)!r} is not a finite number")
    return bad


def pooled_phase_er(reports: list[dict]) -> list[str]:
    """ACCEPT tolerances on the mean over the run's reports.

    At the benchmark's frame count one report's Monte Carlo error is about
    0.14 dB, too close to the 0.3 dB tolerance for a check repeated over
    many seeds; the mean over the run's children is well inside it.
    """
    er = statistics.fmean(r["er_db_mean"] for r in reports)
    p = statistics.fmean(r["p_phi"] for r in reports)
    bad = []
    if abs(er - 7.3) > 0.3:
        bad.append(f"mean er_db_mean {er:.4f} outside 7.3 +- 0.3 over {len(reports)} reports")
    if abs(p - 0.18) > 0.02:
        bad.append(f"mean p_phi {p:.4f} outside 0.18 +- 0.02 over {len(reports)} reports")
    return bad


def check_bb84_eve(report: dict, expect) -> list[str]:
    """Intercept-resend QBER 0.25 within Z binomial errors."""
    n = report.get("extra", {}).get("n_sifted", 0)
    q = report.get("qber_sifted")
    if n < 10_000:
        return [f"n_sifted {n} < 10000"]
    tol = Z * math.sqrt(0.25 * 0.75 / n)
    if not isinstance(q, float) or abs(q - 0.25) > tol:
        return [f"qber_sifted {q!r} outside 0.25 +- {tol:.5f} ({n} sifted)"]
    return []


def expect_timebin(scenario, frames: int) -> dict:
    """Click probability per frame of each collection, 1 - exp(-lam).

    The gated dead time is nested in the blank half-frame, so a collection
    clicks at most once per frame: on its first photon.  ``lam`` sums
    ``expected_collection_rate`` over the signals sharing the collection's
    half-window, which its gate passes.
    """
    from sdmqsim.config import DELTA_T1, DELTA_T2
    from sdmqsim.pipeline import build_channel, expected_collection_rate

    channel = build_channel(scenario)
    cfg = scenario.cfg
    exp = scenario.experiment
    probs = {}
    for sid, groups in exp.collections.items():
        delayed = scenario.signal(sid).delayed
        if exp.gates.get(sid) != (DELTA_T2 if delayed else DELTA_T1):
            raise BenchError(f"collection {sid} is not gated to its own half-window")
        lam = sum(
            expected_collection_rate(scenario, channel, s.signal_id, groups)
            for s in scenario.signals
            if s.delayed == delayed
        ) / cfg.frame_rate_hz
        probs[sid] = -math.expm1(-lam)
    return {"p_click": probs, "frames": frames, "rate_hz": cfg.frame_rate_hz}


def check_timebin(report: dict, expect) -> list[str]:
    """Each collection's rate is <= R_f and within Z of R_f (1 - exp(-lam))."""
    n, rate = expect["frames"], expect["rate_hz"]
    cps = report.get("cps_per_collection", {})
    if set(cps) != set(expect["p_click"]):
        return [f"collections {sorted(cps)} != {sorted(expect['p_click'])}"]
    bad = []
    for sid, p in expect["p_click"].items():
        if cps[sid] > rate:
            bad.append(f"cps[{sid}] = {cps[sid]} exceeds the frame rate {rate}")
        clicks = cps[sid] * n / rate
        sd = math.sqrt(n * p * (1.0 - p))
        if abs(clicks - n * p) > Z * sd:
            bad.append(f"cps[{sid}]: {clicks:.0f} clicks, expected {n * p:.1f} +- {Z * sd:.1f}")
    return bad


@dataclass(frozen=True)
class Workload:
    scenario: Path
    frames: int
    check: object  # (report, expect) -> list of failures
    pooled: object = None  # (reports) -> list of failures, or None
    expect: object = None  # (scenario, frames) -> expectation passed to check


WORKLOADS = {
    # 15 detector runs at ~0.002 events per detector-frame: per-frame photon
    # sampling dominates.
    "phase_er": Workload(ROOT / "scenarios" / "phase_er.ini", 1_000_000,
                         check_phase_er, pooled=pooled_phase_er),
    # ~17 events/frame into the veto, ~3 kept: the dead-time veto dominates.
    "timebin_saturated": Workload(HERE / "timebin_saturated.ini", 200_000,
                                  check_timebin, expect=expect_timebin),
    # protocol layer only; per-frame arrays set peak memory.
    "bb84_eve": Workload(ROOT / "scenarios" / "bb84_eve.ini", 4_800_000,
                         check_bb84_eve),
}


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------


@dataclass
class Child:
    index: int
    seed: int
    traced: bool
    ok: bool = False
    why: str = ""
    setup_s: float = math.nan
    main_s: float = math.nan
    probe_s: tuple = (math.nan, math.nan)  # speed probe before and after cli.main
    peak_rss_mb: float = math.nan
    report: dict | None = None
    digest: str = ""
    files_written: int = 0
    bytes_written: int = 0
    result: dict | None = None


def child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp)
    env.update(THREAD_ENV)
    return env


def run_child(wl: Workload, index: int, seed: int, traced: bool, tmp: Path,
              limit_s: float) -> Child:
    child = Child(index=index, seed=seed, traced=traced)
    out = tmp / f"out{index}{'t' if traced else ''}"
    cmd = [sys.executable, str(HERE / "child.py"), "--src", str(SRC),
           "--scenario", str(wl.scenario), "--seed", str(seed),
           "--frames", str(wl.frames), "--out", str(out), "--trace", str(int(traced))]
    try:
        spawned = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(tmp), capture_output=True,
                              text=True, timeout=max(limit_s, 1.0))
    except subprocess.TimeoutExpired:
        child.why = f"timed out after {limit_s:.0f} s"
        return child
    try:
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if res is None or res["rc"] != 0:
            tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
            child.why = f"exit {proc.returncode}: {tail}"
            return child
        child.result = res
        child.setup_s = res["ready_monotonic"] - spawned
        child.main_s = res["main_s"]
        child.probe_s = tuple(res["probe_s"])
        child.peak_rss_mb = res["peak_rss_mb"]
        raw = (out / "report.json").read_bytes()
        child.digest = hashlib.sha256(raw).hexdigest()
        child.report = json.loads(raw)
        files = [p for p in out.rglob("*") if p.is_file()]
        child.files_written = len(files)
        child.bytes_written = sum(p.stat().st_size for p in files)
    except (OSError, ValueError, KeyError) as exc:
        child.why = f"unreadable result: {exc}"
        return child
    finally:
        shutil.rmtree(out, ignore_errors=True)
    child.ok = True
    return child


def judge(child: Child, wl: Workload, expect) -> None:
    """Check one child's report; mark it failed with the reasons."""
    if not child.ok:
        return
    bad = []
    if child.report.get("seed") != child.seed or child.report.get("n_frames") != wl.frames:
        bad.append("report seed or n_frames differs from the request")
    bad += wl.check(child.report, expect)
    if bad:
        child.ok, child.why = False, "; ".join(bad)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def ref_main_s(child: Child) -> float:
    """Seconds of ``cli.main`` at reference speed.

    A child's seconds are divided by its slowdown, the speed probe's
    seconds over ``PROBE_REF_S``; for ``cli.main`` the probe is the mean of
    the runs just before and after it.
    """
    return child.main_s * PROBE_REF_S / statistics.fmean(child.probe_s)


def end_to_end(measured: list[Child], attempted: int, failed: int, frames: int) -> dict:
    """Per-child values of each end-to-end metric, times at reference speed.

    Set-up is scaled by the probe that runs right after it.
    """
    good = [c for c in measured if c.ok]
    return {
        "frames_per_s": ([frames / ref_main_s(c) for c in good], "frames/s"),
        "peak_rss_mb": ([c.peak_rss_mb for c in good], "MB"),
        "setup_s": ([c.setup_s * PROBE_REF_S / c.probe_s[0] for c in good], "s"),
        "success_rate": ([(attempted - failed) / attempted], "ratio"),
    }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(traced: Child, plain_main_s: float, frames: int) -> dict:
    self_s = traced.result["self_s"]
    counts = traced.result["counts"]
    c = lambda key: counts.get(key, 0)  # noqa: E731
    s = lambda layer: self_s.get(layer, 0.0)  # noqa: E731
    gate_calls = c("receiver.gate_calls")
    return {
        "pipeline.self_s": (s("pipeline"), "s"),
        "pipeline.events_sampled": (c("receiver.gate_in"), "count"),
        "pipeline.events_per_frame": (_ratio(c("receiver.gate_in"), frames * gate_calls),
                                      "events/frame"),
        "receiver.dead_time_s": (s("receiver.dead_time"), "s"),
        "receiver.dead_time_in": (c("receiver.dead_time_in"), "count"),
        "receiver.dead_time_kept": (c("receiver.dead_time_kept"), "count"),
        "receiver.dead_time_ns_per_event": (
            _ratio(s("receiver.dead_time") * 1e9, c("receiver.dead_time_in")), "ns/event"),
        "receiver.dead_time_loss": (
            1.0 - _ratio(c("receiver.dead_time_kept"), c("receiver.dead_time_in"))
            if c("receiver.dead_time_in") else 0.0, "ratio"),
        "receiver.gate_s": (s("receiver.gate"), "s"),
        "receiver.gate_in": (c("receiver.gate_in"), "count"),
        "receiver.gate_pass_ratio": (_ratio(c("receiver.gate_kept"), c("receiver.gate_in")),
                                     "ratio"),
        "receiver.histogram_s": (s("receiver.histogram"), "s"),
        "protocol.simulate_bb84_s": (s("protocol.simulate_bb84"), "s"),
        "protocol.n_detected": (c("protocol.n_detected"), "count"),
        "protocol.n_sifted": (c("protocol.n_sifted"), "count"),
        "protocol.sift_ratio": (_ratio(c("protocol.n_sifted"), c("protocol.n_detected")),
                                "ratio"),
        "analysis.s": (s("analysis"), "s"),
        "analysis.calls": (c("analysis.calls"), "count"),
        "cli.artifacts_s": (s("cli"), "s"),
        "cli.bytes_written": (traced.bytes_written, "bytes"),
        "cli.files_written": (traced.files_written, "count"),
        "scenarios.load_s": (s("scenarios.load"), "s"),
        "channel.build_s": (s("channel.build"), "s"),
        "config.streams": (c("config.streams"), "count"),
        "trace.overhead_ratio": (ref_main_s(traced) / plain_main_s, "ratio"),
    }


def environment(children: list[Child]) -> dict:
    res = next((c.result for c in children if c.result), {})
    return {
        "python": res.get("python"),
        "numpy": res.get("numpy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads_env": THREAD_ENV,
    }


# ---------------------------------------------------------------------------
# Running a workload
# ---------------------------------------------------------------------------


def check_checkout(wl: Workload) -> None:
    for path in (SRC / "sdmqsim" / "__init__.py", wl.scenario):
        if not path.is_file():
            raise BenchError(f"missing {path.relative_to(ROOT)}: run from a full checkout")


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    started = time.monotonic()
    wl = WORKLOADS[name]
    check_checkout(wl)
    sys.path.insert(0, str(SRC))
    from sdmqsim.scenarios import load_scenario

    scenario = load_scenario(wl.scenario)
    expect = wl.expect(scenario, wl.frames) if wl.expect else None
    base = scenario.cfg.seed + seed * SEED_STRIDE
    if base < 0:
        raise BenchError(f"--seed {seed} gives a negative scenario seed")

    tmp = WORK / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    children: list[Child] = []

    def launch(index: int, traced: bool = False) -> Child:
        left = RUN_LIMIT_S - (time.monotonic() - started)
        child = run_child(wl, index, base + index, traced, tmp, min(CHILD_LIMIT_S, left))
        judge(child, wl, expect)
        children.append(child)
        return child

    try:
        warm = launch(0)
        stop = time.monotonic() + seconds
        measured = []
        while ((len(measured) < MIN_MEASURED or time.monotonic() < stop)
               and time.monotonic() - started < RUN_LIMIT_S - 10):
            measured.append(launch(len(measured) + 1))
        traced = launch(0, traced=True) if trace else None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    plain = [c for c in children if not c.traced]
    if wl.pooled and all(c.ok for c in plain):
        bad = wl.pooled([c.report for c in plain])
        if bad:
            for c in plain:
                c.ok, c.why = False, "; ".join(bad)
    if traced is not None and traced.ok and traced.digest != warm.digest:
        traced.ok, traced.why = False, "traced report differs from the plain report"
    failed = sum(not c.ok for c in children)
    good = [c for c in measured if c.ok]
    if not good:
        raise BenchError("no measured child succeeded: "
                         + "; ".join(f"child {c.index}: {c.why}" for c in children if not c.ok))

    e2e = end_to_end(measured, len(children), failed, wl.frames)
    layers = None
    if traced is not None and traced.ok:
        layers = per_layer(traced, statistics.median(ref_main_s(c) for c in good), wl.frames)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "frames": wl.frames, "environment": environment(children),
        "children": [
            {"index": c.index, "seed": c.seed, "traced": c.traced, "ok": c.ok,
             "why": c.why, "setup_s": c.setup_s, "main_s": c.main_s, "probe_s": c.probe_s,
             "peak_rss_mb": c.peak_rss_mb, "report_sha256": c.digest,
             "files_written": c.files_written, "bytes_written": c.bytes_written}
            for c in children
        ],
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
    }
    if layers is not None:
        record["per_layer"] = {k: v for k, (v, _) in layers.items()}
        record["counts"] = traced.result["counts"]
        record["spans"] = traced.result["spans"]
    summarize(record, e2e, layers, children)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{name}-seed{seed}-trace{int(trace)}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    if trace and layers is None:
        raise BenchError(f"traced child failed: {traced.why if traced else 'not run'}")
    chosen = layers if trace else {k: (statistics.median(v), u) for k, (v, u) in e2e.items()}
    out = {
        "correct": failed == 0,
        "attempted": len(children),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }
    return out


def summarize(record: dict, e2e: dict, layers: dict | None, children: list[Child]) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  frames {record['frames']}  "
          f"children {len(children)}  environment {json.dumps(record['environment'])}")
    for key, (values, unit) in e2e.items():
        q1, q3 = quartiles(values)
        print(f"  {key:<16} median {statistics.median(values):.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"n {len(values)}")
    print(f"  error_rate       {1.0 - e2e['success_rate'][0][0]:.6g}")
    for c in children:
        tag = "traced" if c.traced else ("warm-up" if c.index == 0 else "measured")
        state = "ok" if c.ok else f"FAILED: {c.why}"
        print(f"  child {c.index:>2} {tag:<8} seed {c.seed}  wall setup {c.setup_s:.4f} s  "
              f"cli.main {c.main_s:.4f} s  probe {c.probe_s[0]:.4f}/{c.probe_s[1]:.4f} s  "
              f"report sha256 {c.digest[:16]}  {state}")
    if layers is None:
        return
    counts = record["counts"]
    print(f"  funnel: {counts.get('receiver.gate_in', 0)} events into the gate -> "
          f"{counts.get('receiver.gate_kept', 0)} past the gate -> "
          f"{counts.get('receiver.dead_time_kept', 0)} past dead time; "
          f"receiver.dead_time_loss {layers['receiver.dead_time_loss'][0]:.6g}")
    print(f"  layer counts: {json.dumps(counts, sort_keys=True)}")
    for key, (value, unit) in layers.items():
        print(f"  {key:<34} {value:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sdmqsim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
