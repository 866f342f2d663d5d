"""Plain per-step RK4 on the self-consistent block equations.

The independent integrator the tests compare the library's propagators
against: one numpy expression per term of d n_k/d eta, with no buffers
and no vectorised stages.  Import it as ``from rk4_reference import ...``,
as ``conftest`` is.
"""

import numpy as np

from cosmodirac.gaussian import CorrelationState


def _reference_field(spec, profile):
    """d n_k/d eta for (N_S, 3) Bloch vectors, one numpy expression per term."""
    ks = spec.momentum_grid()
    a = spec.spacing
    sin_term = -np.sin(ks * a) / a
    wilson_term = (1.0 - np.cos(ks * a)) / a
    pref = spec.coupling / (2.0 * a * spec.num_sites)

    def rhs(eta, n):
        sig = -pref * np.sum(n[:, 2])
        pi = pref * np.sum(n[:, 1])
        bz = spec.mass * float(profile.scale_factor(eta)) + sig + wilson_term
        nx, ny, nz = n[:, 0], n[:, 1], n[:, 2]
        return np.stack([2.0 * (pi * nz - bz * ny), 2.0 * (bz * nx - sin_term * nz),
                         2.0 * (sin_term * ny - pi * nx)], axis=-1)

    return rhs


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
    return CorrelationState(initial.spec, blochs[-1], float(etas[-1]),
                            float(profile.scale_factor(etas[-1])))
