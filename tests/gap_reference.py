"""The gap equation solved one Π seed at a time, on scalars.

The fixed iteration the tests compare
:func:`cosmodirac.gaussian.self_consistent_ground_state` against: each seed
of ``pi_seeds`` in turn iterated by a scalar map with its own momentum
rows, then the lowest-energy converged seed.  Import it as
``from gap_reference import ...``, as ``conftest`` is.
"""

import numpy as np

from cosmodirac.gaussian import (GAP_MIXING, CondensatePair, ConvergenceError,
                                 DegenerateGroundStateError, free_ground_state,
                                 mean_field_energy)


def reference_gap_map(spec, ma_eff):
    """(Sigma, Pi) -> (Sigma', Pi'), the condensates of the Dirac sea of
    h_k(ma_eff, Sigma, Pi), for scalars."""
    ks = spec.momentum_grid()
    sin = np.sin(ks)
    sin2 = sin * sin
    wilson = 1.0 - np.cos(ks)
    pref = spec.coupling / (2.0 * spec.num_sites)

    def gap(sigma, pi):
        bz = (ma_eff + sigma) + wilson
        eps = np.sqrt((sin2 + pi * pi) + bz * bz)
        if (eps < 1e-12).any():
            raise DegenerateGroundStateError(
                f"gap closes at k = {ks[eps < 1e-12]}; ground state degenerate"
            )
        return float(-pref * (bz / eps).sum()), float(pref * (pi / eps).sum())

    return gap


def reference_ground_state(spec, a_val, tol=1e-10, max_iter=10_000,
                           pi_seeds=(0.0, 0.1, -0.1, 0.5, -0.5)):
    """``self_consistent_ground_state``'s (CorrelationState, CondensatePair),
    each seed iterated on its own."""
    ma_eff = spec.mass * a_val
    if spec.coupling == 0.0:
        return free_ground_state(spec, ma_eff), CondensatePair(0.0, 0.0)
    gap = reference_gap_map(spec, ma_eff)
    best = None
    failures = []
    for pi0 in pi_seeds:
        sig, pi = 0.0, float(pi0)
        history = []
        converged = False
        for _ in range(max_iter):
            new_sig, new_pi = gap(sig, pi)
            d_sig = new_sig - sig
            d_pi = new_pi - pi
            history.append(max(abs(d_sig), abs(d_pi)))
            sig += GAP_MIXING * d_sig
            pi += GAP_MIXING * d_pi
            if history[-1] < tol:
                converged = True
                break
        if not converged:
            failures.append((pi0, history[-10:]))
            continue
        state = free_ground_state(spec, ma_eff, sig, pi)
        energy = mean_field_energy(state, ma_eff)
        if best is None or energy < best[0] - 1e-12:
            best = (energy, state, CondensatePair(sig, pi))
    if best is None:
        raise ConvergenceError(
            f"gap equation did not converge within {max_iter} iterations "
            f"for any seed", residuals=failures
        )
    return best[1], best[2]
