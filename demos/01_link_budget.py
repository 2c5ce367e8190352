"""Link budget of the mode-multiplexed span.

Walks the measured tables: group-wise insertion loss at both fiber
lengths, the crosstalk matrix and its renormalization to exact
column-stochasticity, the per-signal transmission under both photon-number
reference planes, and the photon-counting (ergodicity) cross-check of the
power-level crosstalk measurement.
"""
from importlib import resources

import numpy as np

from sdmqsim.channel import ChannelModel, db_to_linear, load_link_tables
from sdmqsim.config import ROLE_PHOTONS, SignalAssignment, SimConfig

il, xt = load_link_tables()
# the packaged file's crosstalk rows in dB, its last five lines, before renormalization
tables = resources.files("sdmqsim").joinpath("data/fmf_link_tables.txt").read_text()
xt_db = np.loadtxt(tables.splitlines()[-5:])

print("== insertion loss (dB) ==")
for dist in ("40m", "8km"):
    print(f"  {dist}: {il[dist]}")
print(f"  average at 8 km: {np.mean(il['8km']):.2f} dB")

print("\n== crosstalk matrix ==")
print("  raw linear column sums:", np.round(db_to_linear(xt_db).sum(axis=0), 4))
print("  renormalized column sums:", np.round(np.sum(xt, axis=0), 12))
print("  group-1 confinement:", round(xt[0][0], 4))
print("  group-5 output distribution:", np.round([row[4] for row in xt], 4))

print("\n== per-signal transmission ==")
channel = ChannelModel(il=il, xt=xt, distance="8km", mu_reference="mux_input")
for g in (1, 3, 5):
    # all output groups collected: the crosstalk columns are stochastic
    meas = 10 * np.log10(channel.transmission(SignalAssignment("S", input_group=g)))
    print(f"  input group {g}: measured IL {meas:.2f} dB "
          f"(table {il['8km'][g - 1]:.2f} dB)")

mu_mux = 2.5
received = [2.5 * channel.transmission(SignalAssignment("S", input_group=g))
            for g in range(1, 6)]
print(f"\n  mu = {mu_mux} photons/frame at the multiplexer input -> "
      f"{np.mean(received):.3f} photons/frame at the receiver (group average)")

fmf = ChannelModel(il=il, xt=xt, distance="8km", mu_reference="fmf_input",
                   input_mdm_exclusion_db=4.2)
sig1 = SignalAssignment("S", input_group=1)
print(f"  fiber-input reference, group 1: "
      f"{fmf.transmission(sig1):.4f} linear ({10 * np.log10(fmf.transmission(sig1)):.2f} dB)")

# photon-counting crosstalk at the single-photon level matches the
# power-level table (random mode coupling is ergodic)
print("\n== single-photon crosstalk check, input group 1 ==")
from sdmqsim.pipeline import _cell_edges, _detector_cells, _timebin_law

n = 100_000
vcfg = SimConfig(mu_in=2.5, dead_time_ps=0, seed=7)
sig = SignalAssignment("A", input_group=1, fixed_slot=10)
counts = np.array([
    _detector_cells((ROLE_PHOTONS, g), _timebin_law(vcfg, channel, [sig], (g,)), vcfg, "always",
                    n, _cell_edges(vcfg, [])).count(0, vcfg.frame_period_ps)
    for g in range(1, 6)
], dtype=float)
print("  counted fractions:", np.round(counts / counts.sum(), 4))
print("  table fractions:  ", np.round([row[0] for row in xt], 4))
