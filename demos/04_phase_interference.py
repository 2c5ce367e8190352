"""Phase-train interference through the one-pulse-delay interferometer.

First at the intensity level: the d-pulse train folds into d+1 temporal
positions whose interior contrast follows 1 + V cos(phi_a + phi_b), with
non-interfering edge pulses.  Then at the photon level: the per-group
extinction-ratio measurement (interfering vs blocked-arm counts) that
yields the wrong-phase detection probability.
"""
import math
from pathlib import Path

from sdmqsim.analysis import write_table
from sdmqsim.pipeline import run_scenario
from sdmqsim.receiver import delay_interferometer_rates, export_histogram
from sdmqsim.scenarios import load_scenario

OUT = Path("out/demos")
OUT.mkdir(parents=True, exist_ok=True)
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

# --- intensity level -------------------------------------------------------
# mean clicks per frame on port P for a train of unit-rate pulses, per
# position: edge 0, each of the d-1 interior positions, edge d
d = 64
for label, phi, arm in (
    ("interfering (phi = pi)", math.pi, "none"),
    ("constructive (phi = 0)", 0.0, "none"),
    ("delay arm blocked", math.pi, "delay"),
    ("direct arm blocked", math.pi, "direct"),
):
    r = delay_interferometer_rates(float(d), d, 0.93, phi, arm)
    print(f"{label}: edge {r.edge_0:.3f}, interior {r.interior_p / (d - 1):.3f} "
          f"(x{d - 1}), edge {r.edge_d:.3f}")
print("constructive interior = I0 (1+V) with I0 = 0.5")

# --- photon level: extinction ratios per output group ----------------------
scenario = load_scenario(SCENARIOS / "phase_er.ini").with_overrides(n_frames=400_000)
result = run_scenario(scenario)
rep = result.report
print("\nextinction ratios by output group (dB):",
      {g: round(v, 2) for g, v in rep["er_db_per_group"].items()})
print(f"mean ER {rep['er_db_mean']:.2f} dB -> wrong-phase detection probability "
      f"p_phi = {rep['p_phi']:.3f}")
write_table(OUT, "er_by_group.csv", result.tables["er_by_group.csv"])

for name, hist in result.histograms.items():
    if name.startswith(("g2_", "g3_")):
        export_histogram(hist, OUT / f"phase_{name}.csv")
print("interfering/blocked histograms for groups 2-3 -> out/demos/phase_g*.csv")
