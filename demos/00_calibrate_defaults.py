"""How the calibrated constants in the canned scenarios were derived.

Three knobs in ``scenarios/*.ini`` are calibration outputs rather than
measured inputs, and this script re-derives each one:

* ``excess_db`` per signal -- residual coupling between the table
  characterization and the transmission runs, solved so the analytic
  collection rates hit their targets (82.5 / 82.8 / 40.0 kcps).
* ``im_extinction`` (global and the per-signal override) -- solved so the
  clean-window SNR, and through it the time-bin tomography diagonals,
  match their targets.
* ``phase_floor`` -- solved so the destructive-interference extinction
  ratio averages 7.3 dB at a fringe visibility of 0.93.
"""
import math

from sdmqsim.channel import ChannelModel, load_link_tables
from sdmqsim.config import SignalAssignment

D = 64
TP = 1540
WINDOW = 100_000
ETA = 0.15
RF = 5e6
MU_MUX = 2.5

channel = ChannelModel(*load_link_tables(), distance="8km", mu_reference="mux_input")

# --- per-signal excess coupling ------------------------------------------
# Target collection rates.  A and B sit close to the bare table prediction;
# C's target keeps its measured order of magnitude while staying consistent
# with the crosstalk bound (the A->C leak over C's collection must remain
# at least 11 dB below C's own rate).
targets = {"A": (82_500.0, 1, (1,)), "B": (82_800.0, 3, (2, 3)), "C": (40_000.0, 5, (4, 5))}

print("== excess coupling calibration ==")
for sid, (target, group, coll) in targets.items():
    sig = SignalAssignment(sid, input_group=group)
    bare = MU_MUX * channel.transmission(sig) * channel.collection_fraction(group, coll) * ETA * RF
    excess = 10 * math.log10(target / bare)
    print(f"  {sid}: bare table prediction {bare:9.1f} cps, target {target:8.0f} -> "
          f"excess_db = {excess:+.4f}")

a_total = targets["A"][0] / channel.collection_fraction(1, (1,))
a_leak = a_total * channel.collection_fraction(1, (4, 5))
print(f"  check: A leak over C's collection {a_leak:.0f} cps -> "
      f"signal-to-crosstalk {10 * math.log10(targets['C'][0] / a_leak):.2f} dB (need >= 11)")

# --- modulator extinction ------------------------------------------------
# Clean-window relations (single signal per half-window):
#   SNR_lin = (1 - f)/f + TP/WINDOW          (floor rescaled to the window)
#   rho_jj  = S / (S + (d-1) TP/WINDOW)      with S = 10^(SNR_dB/10)
# Targets: rho ~= 0.93/0.93/0.96 and an 11.3 dB three-signal average.
print("\n== modulator extinction calibration ==")
for label, snr_target in (("A,B (global)", 10.325), ("C (override)", 13.45)):
    s = 10 ** (snr_target / 10) - TP / WINDOW
    f = 1.0 / (1.0 + s)
    ext = (D - 1) * (1 - f) / f
    rho = (s + TP / WINDOW) / (s + TP / WINDOW + (D - 1) * TP / WINDOW)
    print(f"  {label}: SNR {snr_target:.2f} dB -> im_extinction = {ext:.1f} "
          f"(floor fraction {f:.4f}, rho_jj {rho:.4f})")
print(f"  three-signal average SNR: {(2 * 10.325 + 13.45) / 3:.2f} dB")

# --- phase-frame floor ----------------------------------------------------
# Window-counted extinction ratio with a uniform floor:
#   p_phi = [(1-f)(63/64)(1-V) + 0.9702 f] / [(1-f)(63/64) + 0.9702 f]
# Solve for the floor fraction that yields ER = 7.3 dB at V = 0.93.
V = 0.93
er_target = 7.3
p_target = 10 ** (-er_target / 10)
u = (p_target - (1 - V)) / (1 - p_target)
interior_floor_share = (D - 1) * TP / WINDOW  # 0.9702
f_over = u * ((D - 1) / D) / interior_floor_share
f_ph = f_over / (1 + f_over)
print("\n== phase-frame floor calibration ==")
print(f"  ER target {er_target} dB at V = {V} -> p_phi {p_target:.4f} "
      f"-> phase_floor = {f_ph:.6f}")
