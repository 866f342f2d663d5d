"""Entanglement entropy growth after a sudden expansion.

Prepares the free Dirac-sea vacuum on a small comoving lattice, switches
the scale factor a: 0.01 -> 10 instantaneously, and follows the block
entropy of a centered partition.  The measured curve is compared to the
quasi-particle prediction built from the Bogoliubov production spectrum:
linear growth while counter-propagating pairs straddle one boundary,
then a volume-law plateau.

Run from the repository root:

    python demos/entropy_growth.py

Writes entropy_growth.csv next to this script; shows a figure if
matplotlib is importable.
"""

import os

import numpy as np

from cosmodirac import (
    BlockSpec,
    LatticeSpec,
    QuenchProfile,
    bogoliubov_spectrum,
    entropy_trajectory,
    free_ground_state,
    propagate,
    qp_entropy,
    qp_input_from_spectrum,
    qp_plateau,
)
from cosmodirac.gaussian import sample_grid

N_SITES = 128
BLOCK = 32
A_0, A_F = 0.01, 10.0
ETA_END = 30.0

spec = LatticeSpec(num_sites=N_SITES, mass=1.0)
vacuum = free_ground_state(spec, spec.mass * A_0)

print(f"evolving {N_SITES} sites to eta = {ETA_END} ...")
# g = 0 and a constant after the switch, so each sample is an exact
# rotation; 121 uniform times, one every 0.25
sample_etas = sample_grid((0.0, ETA_END), 121)
traj = propagate(vacuum, QuenchProfile(A_0, A_F), sample_etas)

block = BlockSpec(BLOCK, N_SITES)
etas = np.asarray(traj.etas)
measured, _ = entropy_trajectory(traj, block)

# quasi-particle prediction from the production spectrum
spectrum = bogoliubov_spectrum(traj.state(-1), spec.mass * A_F)
qp = qp_input_from_spectrum(spectrum, float(BLOCK))
predicted = qp_entropy(qp, etas)

print(f"plateau prediction: {qp_plateau(qp):.3f} nats")
print(f"measured at eta={etas[-1]:.0f}: {measured[-1] - measured[0]:.3f} nats "
      f"(initial offset {measured[0]:.3f})")

out = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                   "entropy_growth.csv")
np.savetxt(out, np.column_stack([etas, measured - measured[0], predicted]),
           delimiter=",", header="eta,delta_S_measured,S_quasiparticle",
           comments="")
print(f"wrote {out}")

try:
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(etas, measured - measured[0], label="measured (baseline subtracted)")
    ax.plot(etas, predicted, "--", label="quasi-particle")
    ax.set_xlabel(r"conformal time $\eta$")
    ax.set_ylabel(r"$\Delta S_A$ [nats]")
    ax.legend()
    fig.tight_layout()
    plt.show()
