"""Discrete symmetry operators and residual checks.

Single-particle representations: time reversal T = gamma0 * K, particle-
hole C = gamma0 gamma1 * K, sublattice S = sigma_y (gamma0 gamma5 fixed
to unit square by a phase), parity P = gamma0, and the CP remnant
realised by gamma1 with conjugation.  Anti-unitaries are handled as
(matrix, conjugate) pairs and every relation is evaluated on explicit
blocks per momentum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import (GAMMA0, GAMMA1, SIGMA_Y, ExponentialProfile, LatticeSpec,
                      hamiltonian_block)
from .gaussian import CorrelationState, propagate, self_consistent_ground_state
from .production import bogoliubov_spectrum, spectrum_asymmetry

T_MATRIX = GAMMA0
C_MATRIX = GAMMA0 @ GAMMA1
S_MATRIX = SIGMA_Y  # gamma0 gamma5 = i sigma_y up to the phase fixing S^2 = 1
P_MATRIX = GAMMA0
CP_MATRIX = GAMMA1

HOLDS_THRESHOLD = 1e-10  # fraction of max block norm separating exact algebra from O(Pi)

# Hubble rate (in 1/a) from which the sweep takes the sudden limit: the ramp
# would last less than 1/(a_0 H) <= 0.01/a_0 in eta, far below the lattice's
# time scales, so the vacuum at a_0 is measured at a_f with no evolution.
QUENCH_LIMIT_HUBBLE = 100.0


@dataclass
class SymmetryReport:
    """Max-over-k residual norms of the five defining relations."""

    residuals: dict  # name -> float
    holds: dict  # name -> bool

    def table(self) -> str:
        lines = ["symmetry  residual      holds"]
        for name in ("T", "C", "S", "P", "CP"):
            lines.append(
                f"{name:<9} {self.residuals[name]:<13.4e} {self.holds[name]}"
            )
        return "\n".join(lines)


def _opnorm(m):
    return np.linalg.norm(m, ord=2, axis=(-2, -1)).max()


def symmetry_report(ma_eff, sigma, pi, spec: LatticeSpec) -> SymmetryReport:
    """Evaluate the defining relations on every grid momentum.

    T:  T^dag h_{-k}^* T  = h_k        C:  C^dag h_{-k}^* C = -h_k
    S:  S^dag h_k S       = -h_k       P:  P^dag h_{-k} P   =  h_k
    CP: g1^dag h_k^* g1   = -h_k
    """
    ks = spec.momentum_grid()
    h = hamiltonian_block(ks, ma_eff, sigma, pi)
    h_neg = hamiltonian_block(-ks, ma_eff, sigma, pi)
    residuals = {
        "T": _opnorm(T_MATRIX.conj().T @ h_neg.conj() @ T_MATRIX - h),
        "C": _opnorm(C_MATRIX.conj().T @ h_neg.conj() @ C_MATRIX + h),
        "S": _opnorm(S_MATRIX.conj().T @ h @ S_MATRIX + h),
        "P": _opnorm(P_MATRIX.conj().T @ h_neg @ P_MATRIX - h),
        "CP": _opnorm(CP_MATRIX.conj().T @ h.conj() @ CP_MATRIX + h),
    }
    scale = max(_opnorm(h), 1e-300)
    holds = {k: bool(v < HOLDS_THRESHOLD * scale) for k, v in residuals.items()}
    return SymmetryReport(residuals=residuals, holds=holds)


def time_reversal_condition_residual(profile, eta_0, eta, ma_coeff=1.0,
                                     sigma=0.0, pi=0.0, spec=None):
    """Residual of T^dag h_{-k}^*(eta) T = h_k(2 eta_0 - eta).

    The expansion singles out a direction of time, so the condition only
    holds instantaneously at eta = eta_0.
    """
    spec = spec or LatticeSpec(num_sites=64)
    ks = spec.momentum_grid()
    h_eta = hamiltonian_block(-ks, ma_coeff * float(profile.scale_factor(eta)), sigma, pi)
    h_ref = hamiltonian_block(
        ks, ma_coeff * float(profile.scale_factor(2 * eta_0 - eta)), sigma, pi
    )
    return _opnorm(T_MATRIX.conj().T @ h_eta.conj() @ T_MATRIX - h_ref)


def contour_cp_check(field) -> float:
    """max over (i, eta) of |S_{(i,u)} - S_{(l_A+1-i, d)}|.

    The pairing is structural: sigma_y Gamma_k^T sigma_y = 1 - Gamma_k
    holds for every 2 x 2 Hermitian block of unit trace, and k -> -k
    carries it into real space, so it holds for any Bloch field, whatever
    the dynamics or the pseudo-scalar condensate.  A deviation above
    numerical noise is a fault of the contour code, not physics; each
    spinor's contour can still be mirror-asymmetric on its own.
    """
    up = field.values[:, :, 0]
    down_mirrored = field.values[:, ::-1, 1]
    return float(np.max(np.abs(up - down_mirrored)))


def _sweep_row(spec, a_0, a_f, vacuum, hubble):
    """One sweep row: ``vacuum`` taken through the ramp at ``hubble`` to a_f."""
    state, nfev = vacuum, 0
    if hubble < QUENCH_LIMIT_HUBBLE:
        profile = ExponentialProfile(a_0=a_0, a_f=a_f, hubble=hubble)
        traj = propagate(vacuum, profile, [0.0, profile.eta_clamp])
        state, nfev = traj.state(-1), traj.nfev
    spectrum = bogoliubov_spectrum(state, spec.mass * a_f)
    return {
        "hubble": float(hubble),
        "asymmetry": spectrum_asymmetry(spectrum),
        "beta_sq_sum": float(np.sum(spectrum.beta_sq)),
        "nfev": nfev,
    }


def spectrum_symmetry_check(
    spec: LatticeSpec | CorrelationState,
    a_0: float,
    a_f: float,
    hubble_values,
):
    """Production-spectrum asymmetry versus Hubble rate.

    Prepares the self-consistent vacuum at a_0 once; for each H, evolves
    it through the exponential ramp a_0 -> a_f, measures the spectrum
    against the bare vacuum at a_f (free dispersion at m a_f, the fixed
    mode basis in which the time-reversal argument for the quench limit
    is exact), and records the +-k asymmetry.  A rate of at least
    :data:`QUENCH_LIMIT_HUBBLE` is the sudden limit: the vacuum is measured
    as it is.  Demonstrates the non-monotone restoration of a symmetric
    spectrum in the quench limit.

    Each ramp is one DOP853 solve (:func:`propagate` at rtol
    :data:`~cosmodirac.gaussian.REFERENCE_RTOL`) sampled at the two ends of
    [0, eta_clamp]: the ramp's kinks are those ends, so the span is one
    piece and no step straddles a kink.  The purity gate checks the vacuum
    and the final state, and the sampled start costs the solve three
    evaluations of dense output.  The
    rates run one after another in this process: fig6's six take about
    0.1 s in all on a 2-core machine, too little to share among processes.

    ``spec`` is the lattice, or that vacuum itself when the caller has
    already solved for it (:func:`~cosmodirac.pipeline.run` passes the
    state it prepared when that is the lattice's vacuum at a_0); the
    vacuum is then used as it is, with no second gap-equation solve.

    Returns a list of dicts {hubble, asymmetry, beta_sq_sum, nfev}, in the
    order of ``hubble_values``; ``nfev`` counts the field evaluations of the
    ramp's solve, 0 in the sudden limit.
    """
    if isinstance(spec, CorrelationState):
        vacuum, spec = spec, spec.spec
    else:
        vacuum, _ = self_consistent_ground_state(spec, a_0)
    return [_sweep_row(spec, a_0, a_f, vacuum, hubble)
            for hubble in hubble_values]
