"""System capacity in qubits per second.

The single-signal budget (mu' photons/frame at the fiber input times
detector efficiency, frame rate and link transmission) sets the per-signal
ceiling; the three multiplexed signals, collected group-wise after
reassignment, aggregate to the system rate, and each 64-slot frame carries
log2(64) = 6 qubits.
"""
from pathlib import Path

from sdmqsim.analysis import capacity_from_counts
from sdmqsim.pipeline import run_scenario
from sdmqsim.scenarios import load_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

scenario = load_scenario(SCENARIOS / "capacity.ini").with_overrides(n_frames=300_000)
result = run_scenario(scenario)
rep = result.report

print("== single-signal ceiling ==")
print(f"  analytic: {rep['extra']['theory_single_signal_cps']:.1f} cps "
      f"(mu'=1, eta=0.15, R_f=5 MHz, IL=-8.3 dB)")
print(f"  Monte Carlo: {rep['extra']['mc_single_signal_cps']:.1f} cps")

print("\n== aggregated system ==")
print("  collection rates (cps):",
      {k: round(v) for k, v in rep["cps_per_collection"].items()})
total = rep["extra"]["total_cps"]
print(f"  total {total:.0f} cps x 6 qubits/frame -> "
      f"C_p = {rep['capacity_qubits_per_s'] / 1e6:.3f} Mqubit/s")
print(f"  detector-efficiency ceiling (eta -> 1): "
      f"{rep['extra']['capacity_eta1_qubits_per_s'] / 1e6:.2f} Mqubit/s")

print("\n== parametric form ==")
c_one = 0.15 * 5e6 * 10 ** (-0.83) * 6  # eta R_f IL log2(d) at mu' = 1
print(f"  one group, parametric product: {c_one / 1e3:.1f} kqubit/s")
print(f"  from a 202.6 kcps aggregate: "
      f"{capacity_from_counts(202_600, 64) / 1e6:.4f} Mqubit/s")
