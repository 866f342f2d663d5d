"""Bogoliubov analysis: production spectra, densities, and pair entropies."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import CorrelationState, DegenerateGroundStateError
from .lattice import hamiltonian_block


@dataclass
class ProductionSpectrum:
    """Per-momentum produced-pair occupations |beta_k|^2.

    ``reference`` records the instantaneous-vacuum parameters
    (ma_eff, sigma, pi) the spectrum is measured against.
    """

    k: np.ndarray
    beta_sq: np.ndarray
    reference: tuple

    def __post_init__(self):
        if not np.all((-1e-12 <= self.beta_sq) & (self.beta_sq <= 1.0 + 1e-12)):
            raise ValueError("|beta_k|^2 must lie in [0, 1]")
        self.beta_sq = np.clip(self.beta_sq, 0.0, 1.0)


def bogoliubov_spectrum(state: CorrelationState, ma_eff, sigma=0.0,
                        pi=0.0) -> ProductionSpectrum:
    """Occupation of the positive-energy reference band in ``state``.

    For each grid momentum, |beta_k|^2 = u_+^dag(k) (1 - Gamma_k) u_+(k)
    where u_+(k) is the positive-energy eigenvector of the reference
    block h_k(ma_eff, sigma, pi).  It vanishes identically when the state
    is the reference vacuum.
    """
    spec = state.spec
    ks = spec.momentum_grid()
    h = hamiltonian_block(ks, ma_eff, sigma, pi)
    evals, evecs = np.linalg.eigh(h)  # ascending; column 1 is positive branch
    if np.any(evals[:, 1] < 1e-12):
        bad = ks[evals[:, 1] < 1e-12]
        raise DegenerateGroundStateError(f"reference gap closes at k = {bad}")
    u_plus = evecs[:, :, 1]
    rho = np.eye(2)[None, :, :] - state.blocks
    beta_sq = np.einsum("ka,kab,kb->k", u_plus.conj(), rho, u_plus).real
    return ProductionSpectrum(
        k=ks,
        beta_sq=np.clip(beta_sq, 0.0, 1.0),
        reference=(float(ma_eff), float(sigma), float(pi)),
    )


def mode_pair_entropy(beta_sq):
    """Particle-antiparticle mode entropy for one (or many) |beta_k|^2.

    Returns (S_mode, s_pair) with
    S_mode = -(1 - b) log(1 - b) - b log b   (natural log, 0 log 0 = 0)
    and s_pair = 2 S_mode, the entropy a quasi-particle pair carries.
    """
    b = np.asarray(beta_sq, dtype=float)
    inside = (-1e-12 <= b) & (b <= 1.0 + 1e-12)
    if not np.all(inside):
        raise ValueError(f"beta_sq outside [0, 1]: {b[~inside]}")
    b = np.clip(b, 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = -np.where(b > 0, b * np.log(b), 0.0) - np.where(
            b < 1, (1.0 - b) * np.log(1.0 - b), 0.0
        )
    if s.ndim == 0:
        s = float(s)
    return s, 2.0 * s


def spectrum_asymmetry(spectrum: ProductionSpectrum) -> float:
    """max over +-k pairs of | |beta_k|^2 - |beta_-k|^2 |.

    The self-paired momenta k = 0 and k = -pi/a are excluded.
    """
    n = spectrum.beta_sq.size
    idx = np.arange(n)
    refl = (-idx) % n
    mask = idx != refl  # drops k = -pi/a (n=0) and k = 0 (n = N/2)
    if not np.any(mask):
        return 0.0
    return float(np.max(np.abs(spectrum.beta_sq[mask] - spectrum.beta_sq[refl][mask])))
