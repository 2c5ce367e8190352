"""One benchmark child: set up, run ``sdmqsim run`` once, report on stdout.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  The child imports the package, loads the scenario and builds its
channel (the set-up a user pays on every CLI run), notes the monotonic
clock, then calls ``sdmqsim.cli.main`` once and times it.  Its last stdout
line is one JSON object: the CLI exit code, the set-up end time, the wall
seconds of ``cli.main``, the seconds of a fixed speed probe run just before
and just after it, peak RSS and versions.  With ``--trace 1`` the
package's public functions are wrapped from here first, and the object also
carries the spans and counters of the run.
"""
from __future__ import annotations

import argparse
import collections
import functools
import inspect
import json
import platform
import resource
import sys
import time
from pathlib import Path


class Tracer:
    """Spans and counters recorded around the package's public functions.

    Each span is ``[layer, function, start, end, parent]`` where ``parent``
    is the index of the span open when it started (``None`` at the root).
    A layer's self time is its spans' durations minus their children's.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self._open: list[int] = []

    def wrap(self, owner, attr: str, layer: str | None, count=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``layer=None`` records no span, only counts.  ``count(counts, first,
        result)`` receives the call's first argument and its return value.
        """
        fn = getattr(owner, attr)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = None
            if layer is not None:
                idx = len(self.spans)
                parent = self._open[-1] if self._open else None
                self.spans.append([layer, attr, time.perf_counter(), None, parent])
                self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                if idx is not None:
                    self.spans[idx][3] = time.perf_counter()
                    self._open.pop()
            if count is not None:
                first = next(iter(sig.bind(*args, **kwargs).arguments.values()))
                count(self.counts, first, result)
            return result

        setattr(owner, attr, traced)

    def self_seconds(self) -> dict:
        """Self time per layer: span time not covered by child spans."""
        child = [0.0] * len(self.spans)
        for layer, _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict = collections.defaultdict(float)
        for (layer, _, start, end, _), covered in zip(self.spans, child):
            out[layer] += (end - start) - covered
        return dict(out)


def _count_events(prefix: str):
    def count(counts, events, kept):
        counts[f"{prefix}_calls"] += 1
        counts[f"{prefix}_in"] += len(events)
        if kept is not None and getattr(kept, "dtype", None) == bool:
            counts[f"{prefix}_kept"] += int(kept.sum())
    return count


def _count_bb84(counts, _, result):
    counts["protocol.n_frames"] += result.n_frames
    counts["protocol.n_detected"] += result.n_detected
    counts["protocol.n_sifted"] += result.n_sifted


def _bump(key: str):
    def count(counts, _first, _result):
        counts[key] += 1
    return count


def install_tracer() -> Tracer:
    """Wrap the functions where the CLI and the pipeline bind them."""
    from sdmqsim import analysis, cli, pipeline
    from sdmqsim.config import RandomSource

    tracer = Tracer()
    tracer.wrap(cli, "main", "cli")
    tracer.wrap(cli, "load_scenario", "scenarios.load")
    tracer.wrap(cli, "run_scenario", "pipeline")
    tracer.wrap(cli, "export_histogram", "cli")
    tracer.wrap(pipeline, "build_channel", "channel.build")
    tracer.wrap(pipeline, "gate_mask", "receiver.gate", _count_events("receiver.gate"))
    tracer.wrap(pipeline, "dead_time_mask", "receiver.dead_time",
                _count_events("receiver.dead_time"))
    tracer.wrap(pipeline, "histogram_from_times", "receiver.histogram",
                _count_events("receiver.histogram"))
    tracer.wrap(pipeline, "simulate_bb84", "protocol.simulate_bb84", _count_bb84)
    for name, obj in vars(analysis).copy().items():
        if (inspect.isfunction(obj) and obj.__module__ == analysis.__name__
                and not name.startswith("_")):
            tracer.wrap(analysis, name, "analysis", _bump("analysis.calls"))
    tracer.wrap(RandomSource, "generator", None, _bump("config.streams"))
    return tracer


def speed_probe(np) -> float:
    """Seconds of a fixed piece of interpreter and numpy work.

    The CPU speed of a shared host drifts by tens of percent within a
    minute.  Timed next to ``cli.main`` in the same process, the probe
    measures that speed.  Its 64 kB buffer is touched before the clock
    starts, so the program's heap state cannot change its cost, and is
    small enough to come from the heap without moving malloc's mmap
    threshold or the program's peak RSS.
    """
    buf = np.ones(1 << 13)
    gen = np.random.Generator(np.random.Philox(12345))
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i
    for _ in range(384):
        gen.random(out=buf)
        np.log(buf, out=buf)
    buf.sort()
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    """This process's peak resident set size in MB.

    ``ru_maxrss`` survives ``exec``, so in a child it can report the peak
    of the parent that started it; the kernel's ``VmHWM`` belongs to the
    current program only.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding sdmqsim/")
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--frames", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import numpy as np
    import sdmqsim
    from sdmqsim import cli, pipeline

    pkg = Path(sdmqsim.__file__).resolve().parent
    if pkg != Path(args.src).resolve() / "sdmqsim":
        print(f"imported sdmqsim from {pkg}, not from {args.src}", file=sys.stderr)
        return 2
    pipeline.build_channel(cli.load_scenario(args.scenario))
    ready = time.monotonic()
    probe_before = speed_probe(np)

    tracer = install_tracer() if args.trace else None
    argv = ["run", args.scenario, "--seed", str(args.seed),
            "--frames", str(args.frames), "--out", args.out]
    t0 = time.perf_counter()
    rc = cli.main(argv)
    main_s = time.perf_counter() - t0
    peak_mb = peak_rss_mb()
    probe_after = speed_probe(np)

    result = {
        "rc": rc,
        "ready_monotonic": ready,
        "main_s": main_s,
        "probe_s": [probe_before, probe_after],
        "peak_rss_mb": peak_mb,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if tracer is not None:
        result["self_s"] = tracer.self_seconds()
        result["counts"] = dict(tracer.counts)
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
