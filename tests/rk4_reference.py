"""Plain per-step RK4 on the self-consistent block equations, and its grid.

The independent integrator the tests compare the library's propagators
against: one numpy expression per term of d n_k/d eta, with no buffers
and no vectorised stages.  :func:`step_grid` gives the times a fixed-step
run samples, which the presets' sample times were first written as.
Import it as ``from rk4_reference import ...``, as ``conftest`` is.
"""

import numpy as np

from cosmodirac.gaussian import CorrelationState


def step_grid(eta_span, deta: float, sample_every: int = 1):
    """A fixed-step grid and the steps it samples.

    ``deta`` is rounded down to h = (eta1 - eta0)/n_steps with n_steps =
    ceil((eta1 - eta0)/deta), at least one.  A sample is taken at the start, after
    every ``sample_every``-th step and after the last one, at
    min(eta0 + j*h, eta1) for the j steps taken (n_steps*h can round past
    eta1, out of a profile's domain); a sample whose time rounding
    leaves equal to the previous one (h << eta0) is dropped.

    Returns ``(h, steps, etas)``: the step, the sampled step counts j
    (int array from 0) and the sample times.
    """
    if deta <= 0:
        raise ValueError("deta must be positive")
    eta0, eta1 = float(eta_span[0]), float(eta_span[1])
    if not eta1 > eta0:
        raise ValueError("eta_span must be increasing")
    n_steps = max(1, int(np.ceil((eta1 - eta0) / deta - 1e-12)))
    h = (eta1 - eta0) / n_steps
    steps = np.append(np.arange(0, n_steps, sample_every), n_steps)
    etas = np.minimum(eta0 + steps * h, eta1)
    etas[0] = eta0
    moved = np.concatenate([[True], etas[1:] > etas[:-1]])
    return h, steps[moved], etas[moved]


def _reference_field(spec, profile, half=False):
    """d n_k/d eta for (N_S, 3) Bloch vectors, one numpy expression per term.

    With ``half``, for the (N_S/2 + 1, 3) Bloch vectors on k in [-pi, 0] of
    a mirror-symmetric state (see :func:`reference_mirror_expand`): Sigma
    counts each momentum strictly inside twice, as 2 sum n_z minus the two
    ends, and Pi is 0.
    """
    ks = spec.momentum_grid()
    if half:
        ks = ks[:spec.num_sites // 2 + 1]
    sin_term = -np.sin(ks)
    wilson_term = 1.0 - np.cos(ks)
    pref = spec.coupling / (2.0 * spec.num_sites)

    def rhs(eta, n):
        if half:
            sig = -pref * (2.0 * np.sum(n[:, 2]) - (n[0, 2] + n[-1, 2]))
            pi = 0.0
        else:
            sig = -pref * np.sum(n[:, 2])
            pi = pref * np.sum(n[:, 1])
        bz = spec.mass * float(profile.scale_factor(eta)) + sig + wilson_term
        nx, ny, nz = n[:, 0], n[:, 1], n[:, 2]
        return np.stack([2.0 * (pi * nz - bz * ny), 2.0 * (bz * nx - sin_term * nz),
                         2.0 * (sin_term * ny - pi * nx)], axis=-1)

    return rhs


def reference_mirror_expand(half, num_sites):
    """The (N_S, 3) Bloch vectors of a mirror-symmetric state from the
    (N_S/2 + 1, 3) ones on k in [-pi, 0]: n(-k) = diag(-1, -1, 1) n(k)."""
    inner = half[1:num_sites // 2][::-1] * np.array([-1.0, -1.0, 1.0])
    return np.concatenate([half, inner])


def _reference_rk4(initial, profile, eta_span, deta, sample_every):
    rhs = _reference_field(initial.spec, profile)
    eta0, eta1 = eta_span
    n_steps = int(np.ceil((eta1 - eta0) / deta - 1e-12))
    h = (eta1 - eta0) / n_steps
    n, eta = initial.bloch.copy(), eta0
    etas, blochs = [eta0], [n]
    for step in range(n_steps):
        k1 = rhs(eta, n)
        k2 = rhs(eta + 0.5 * h, n + 0.5 * h * k1)
        k3 = rhs(eta + 0.5 * h, n + 0.5 * h * k2)
        k4 = rhs(eta + h, n + h * k3)
        n = n + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        # the last sample time can round past eta1; it is clamped there
        eta = min(eta0 + (step + 1) * h, eta1)
        if ((step + 1) % sample_every == 0 or step == n_steps - 1) and etas[-1] < eta:
            etas.append(eta)
            blochs.append(n)
    return np.array(etas), blochs


def reference_final_state(initial, profile, eta_span, deta):
    """The :class:`CorrelationState` RK4 reaches at the end of ``eta_span``."""
    etas, blochs = _reference_rk4(initial, profile, eta_span, deta, sample_every=10**9)
    return CorrelationState(initial.spec, blochs[-1])
