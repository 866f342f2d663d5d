"""Entanglement horizon under accelerating (de Sitter) expansion.

An accelerating background a(eta) = -1/(H eta) gives quasi-particles a
finite conformal-time budget: pairs can only cross 2 v |eta_0| sites
before the horizon, so a wide enough block keeps a causally dark central
band of width l_A - 4 v / (H a_0) where the contour never rises above
the vacuum floor.  In cosmological time the cones bend and freeze.

    python demos/de_sitter_horizon.py
"""

import numpy as np

from cosmodirac import (
    BlockSpec,
    DeSitterProfile,
    LatticeSpec,
    cone_front,
    contour_trajectory,
    group_velocity,
    horizon_width,
    propagate,
    self_consistent_ground_state,
)
from cosmodirac.gaussian import sample_grid

N_SITES = 256
BLOCK = 160
HUBBLE = 0.1
ETA_0 = -30.0
# fig4's end, just short of the horizon at eta = 0
ETA_END = -0.001362


def fitted_slope(x, y):
    """Theil-Sen slope of y(x): the median of the slopes between pairs of points."""
    i, j = np.triu_indices(len(x), k=1)
    return float(np.median((y[j] - y[i]) / (x[j] - x[i])))


spec = LatticeSpec(num_sites=N_SITES, mass=1.0, coupling=2.0)
profile = DeSitterProfile(hubble=HUBBLE, eta_0=ETA_0)

# matter content from a mass quench -1 -> +1 at the initial time: the vacuum
# of the lattice at mass -1, evolved on the lattice at mass +1
state, cond = self_consistent_ground_state(LatticeSpec(N_SITES, -1.0, spec.coupling),
                                           profile.a_0)
state.spec = spec
print(f"prepared at a_0 = {profile.a_0:.4f} with Sigma = {cond.sigma:+.4f}, "
      f"Pi = {cond.pi:+.4f}")

span = (ETA_0, ETA_END)
# fig4's samples and tolerance
traj = propagate(state, profile, sample_grid(span, 121), rtol=1e-10)
print(f"scale factor grew {profile.a_0:.3f} -> {traj.a_vals[-1]:.1f} "
      f"({len(traj.etas)} samples, adaptive)")

field, _ = contour_trajectory(traj, BlockSpec(BLOCK, N_SITES))

# dressed group velocity averaged over the run
vs = [
    group_velocity(spec.mass * a + sigma, 0.0, pi)
    for a, sigma, pi in zip(traj.a_vals, traj.sigma, traj.pi)
]
v_bar = np.trapezoid(vs, traj.etas) / (traj.etas[-1] - traj.etas[0])
predicted = horizon_width(float(BLOCK), v_bar, HUBBLE, profile.a_0)

final_u = field.values[-1, :, 0]
measured = int(np.count_nonzero(final_u < 1e-3))
print(f"mean dressed group velocity: {v_bar:.4f}")
print(f"dark band: predicted {predicted:.1f} sites, measured {measured}")

# the front's slope in cosmological time over the outer and the inner third
# of the depths it reached, to one significant digit: near the cone's end the
# arrival times are far apart in t, so a local difference there moves 3x
# between rtol 1e-10 and 1e-12, while these fits move by at most 15%
depths, arrivals = cone_front(field)
t_arr = np.asarray(profile.cosmological_time(arrivals))
third = len(depths) // 3
outer = fitted_slope(depths[:third], t_arr[:third])
inner = fitted_slope(depths[-third:], t_arr[-third:])
print(f"front freezes: d(t)/dx rises from {outer:.1g} over the outer third of "
      f"the depths it reached to {inner:.1g} over the inner third")

try:
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    fig, ax = plt.subplots(figsize=(6, 4))
    t_axis = np.asarray(field.times)
    ax.pcolormesh(np.arange(BLOCK), t_axis, field.spinor_summed(),
                  shading="nearest", cmap="magma")
    ax.set_xlabel("site in block")
    ax.set_ylabel("cosmological time t")
    ax.set_title("curved cones and a dark central band")
    fig.tight_layout()
    plt.show()
