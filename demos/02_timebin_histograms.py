"""Time-bin detection histograms.

Reproduces the two single-pulse histogram views: the delayed signal B seen
on groups 2+3 with the A+C crosstalk confined to the first half-window,
and the A-delayed arrangement where C sits alone in the first half-window.
Histograms land in ``out/demos/`` as bin_start_ps,count CSV files.
"""
from pathlib import Path

from sdmqsim.pipeline import run_scenario
from sdmqsim.receiver import export_histogram
from sdmqsim.scenarios import load_scenario

OUT = Path("out/demos")
OUT.mkdir(parents=True, exist_ok=True)
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

N_FRAMES = 200_000

for name in ("timebin_b", "timebin_xt"):
    scenario = load_scenario(SCENARIOS / f"{name}.ini").with_overrides(n_frames=N_FRAMES)
    result = run_scenario(scenario)
    rep = result.report
    print(f"== {name} ({N_FRAMES} frames) ==")
    print("  collection rates (cps):",
          {k: round(v) for k, v in rep.cps_per_collection.items()})
    if rep.xt_db:
        print("  crosstalk (dB):",
              {k: (round(v, 2) if isinstance(v, float) else v)
               for k, v in rep.to_dict()["xt_db"].items()})
    for hist_name, hist in result.histograms.items():
        path = OUT / f"{name}_{hist_name}.csv"
        export_histogram(hist, path)
        occupied = (hist.bins > 0).sum()
        print(f"  {path}  ({hist.bins.sum()} counts in {occupied} of {len(hist.bins)} bins)")
