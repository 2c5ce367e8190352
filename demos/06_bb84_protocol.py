"""Differential-phase BB84 over phase frames.

Alice encodes one qubit per frame in the differential phase (X: {0, pi},
Z: {pi/2, 3pi/2}); Bob's interferometer phase picks his basis.  The demo
runs the exchange clean and under an intercept-resend attack, sifts the
keys, reports each run's finite-key secret fraction at its simulated QBER
(0 under the attack: the protocol aborts), and evaluates the bound over a
range of block sizes.
"""
from pathlib import Path

from sdmqsim.pipeline import run_scenario
from sdmqsim.protocol import key_rate
from sdmqsim.scenarios import load_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
N_FRAMES = 400_000

for name in ("bb84", "bb84_eve"):
    scenario = load_scenario(SCENARIOS / f"{name}.ini").with_overrides(n_frames=N_FRAMES)
    rep = run_scenario(scenario).report
    v = scenario.experiment.visibility_cap
    print(f"== {name} (V = {v}) ==")
    print(f"  detected {rep['extra']['n_detected']}, sifted {rep['extra']['n_sifted']}, "
          f"sifted QBER {rep['qber_sifted']:.4f}, key rate {rep['key_rate']:.4f}")

print("\nwrong-port floor at V = 0.93: (1 - V)/2 =", round((1 - 0.93) / 2, 4))
print("intercept-resend signature at V = 1: 1/2 x 1/2 = 0.25")

print("\n== finite-key secret fraction (defaults, k = n) ==")
for n in (10**3, 10**4, 10**5, 10**6, 10**7):
    print(f"  n = {n:>8}: r = {key_rate(n):.4f}")
print("  (r >= 0.64 from n = 1e6 with the default parameter set)")
