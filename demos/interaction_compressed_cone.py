"""Interaction-compressed entanglement cones after a sudden expansion.

Runs the same comoving quench a: 0.7 -> 1.3 twice — once free, once with
a quartic contact interaction treated self-consistently — and renders
the entanglement-contour light cones over a centered block.  The scalar
condensate shifts the effective mass toward the flat-band point, so the
dressed quasi-particles are slower and the interacting cone is steeper
(more conformal time per site): a compressed cone.

    python demos/interaction_compressed_cone.py

Uses smaller lattices than the shipped fig2 presets.  Both runs are
sampled at 141 uniform times, one every 0.25 as in the presets, by
``propagate``: it rotates the free one in closed form and solves the
interacting one by DOP853 at the presets' default tolerance, so it
finishes in a few seconds.
"""

import numpy as np

from cosmodirac import (
    BlockSpec,
    LatticeSpec,
    QuenchProfile,
    contour_trajectory,
    front_slope,
    propagate,
    renormalized_velocity,
    self_consistent_ground_state,
)
from cosmodirac.gaussian import sample_grid

N_SITES = 256
BLOCK = 64
A_0, A_F = 0.7, 1.3
ETA_END = 35.0


def run(coupling):
    spec = LatticeSpec(num_sites=N_SITES, mass=-1.0, coupling=coupling)
    vacuum, cond = self_consistent_ground_state(spec, A_0)
    print(f"g0^2 = {coupling}: prepared with Sigma = {cond.sigma:+.4f}, "
          f"Pi = {cond.pi:+.4f}")
    traj = propagate(vacuum, QuenchProfile(A_0, A_F), sample_grid((0.0, ETA_END), 141))
    field, _ = contour_trajectory(traj, BlockSpec(BLOCK, N_SITES))
    return traj, field


fields = {}
for g2 in (0.0, 1.0):
    traj, field = run(g2)
    slope = front_slope(field)
    v = renormalized_velocity(traj, A_F, (20.0, ETA_END))
    print(f"  front slope d(eta)/dx = {slope:.3f}  "
          f"(ballistic prediction 1/(2 v_g) = {1.0 / (2.0 * v):.3f})")
    fields[g2] = field

print("interacting cone is steeper (compressed):",
      front_slope(fields[1.0]) > front_slope(fields[0.0]))

try:
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    fig, axes = plt.subplots(1, 2, figsize=(9, 4), sharey=True)
    for ax, (g2, field) in zip(axes, sorted(fields.items())):
        ax.pcolormesh(np.arange(BLOCK), field.etas, field.spinor_summed(),
                      shading="nearest", cmap="magma")
        ax.set_title(rf"$g_0^2 = {g2}$")
        ax.set_xlabel("site in block")
    axes[0].set_ylabel(r"conformal time $\eta$")
    fig.tight_layout()
    plt.show()
