"""Exact Gaussian-state block entropy and entanglement contour.

The block density-matrix spectrum follows from the block's own 2L x 2L
real-space correlation matrix, ``real_space_correlation(state, block)``
(Peschel, J. Phys. A 36, L205 (2003)); its eigenmodes carry mode
entropies that the contour redistributes over sites and spinor
components (Chen & Vidal, J. Stat. Mech. P10011 (2014)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gaussian import Trajectory, real_space_correlation

_NU_CLIP = 1e-14  # restricted spectra pile up exponentially at 0 and 1
EDGE_MARGIN = 4  # sites at each block edge that the cone front skips
FRONT_THRESHOLD = 0.2  # cone-front threshold, as a fraction of the median final contour


class InvalidStateError(ValueError):
    """Restricted correlation matrix has eigenvalues outside [0, 1]."""


@dataclass(frozen=True)
class BlockSpec:
    """Contiguous block of ``length`` sites starting at ``start``."""

    start: int
    length: int
    num_sites: int

    def __post_init__(self):
        if not (1 <= self.length <= self.num_sites):
            raise ValueError(f"block length {self.length} outside [1, {self.num_sites}]")
        if not (0 <= self.start and self.start + self.length <= self.num_sites):
            raise ValueError("block must lie within the chain")

    @classmethod
    def centered(cls, length, num_sites):
        return cls((num_sites - length) // 2, length, num_sites)


@dataclass
class ContourField:
    """Spatio-temporal contour S[eta][site][spinor] over a block.

    ``values`` has shape (n_times, length, 2) with spinor index
    0 = u, 1 = d; ``times`` is the cosmological time of each slice.
    """

    etas: np.ndarray
    values: np.ndarray
    block: BlockSpec
    times: np.ndarray = None  # cosmological time; contour_trajectory always sets it

    def __post_init__(self):
        if self.values.shape != (len(self.etas), self.block.length, 2):
            raise ValueError(f"contour shape {self.values.shape} inconsistent with block")
        if np.any(self.values < -1e-12):
            raise InvalidStateError("contour values must be nonnegative")

    def spinor_summed(self) -> np.ndarray:
        """(n_times, length) site contour S_i = S_iu + S_id."""
        return self.values.sum(axis=-1)


def _mode_entropies(nu):
    nu = np.clip(nu, _NU_CLIP, 1.0 - _NU_CLIP)
    return -nu * np.log(nu) - (1.0 - nu) * np.log(1.0 - nu)


def _check_shape(gamma: np.ndarray, block: BlockSpec):
    n = 2 * block.length
    if gamma.shape != (n, n):
        raise ValueError(f"correlation matrix of shape {gamma.shape} is not the "
                         f"block's own {n} x {n}")


def _check_spectrum(nu):
    if np.any(nu < -1e-8) or np.any(nu > 1.0 + 1e-8):
        raise InvalidStateError(
            f"restricted eigenvalues outside [0,1]: min {nu.min():.3e}, "
            f"max {nu.max():.3e}"
        )


def block_entropy(gamma: np.ndarray, block: BlockSpec) -> float:
    """von Neumann entropy of the block from its own 2L x 2L correlation
    matrix ``gamma``, as ``real_space_correlation(state, block)`` builds it.
    """
    _check_shape(gamma, block)
    nu = np.linalg.eigvalsh(gamma)
    _check_spectrum(nu)
    return float(np.sum(_mode_entropies(nu)))


def entanglement_contour(gamma: np.ndarray, block: BlockSpec) -> np.ndarray:
    """Site- and spinor-resolved contour of the block, shape (length, 2).

    ``gamma`` is the block's own 2L x 2L correlation matrix, as
    ``real_space_correlation(state, block)`` builds it.  Diagonalise it,
    U^dag Gamma_A U = diag(nu); each eigenmode's entropy s_m is
    distributed with weights |U_{(i,alpha),m}|^2, so the values are
    nonnegative and sum to the block entropy.
    """
    _check_shape(gamma, block)
    nu, u = np.linalg.eigh(gamma)
    _check_spectrum(nu)
    s = _mode_entropies(nu)
    vals = (np.abs(u) ** 2) @ s
    return vals.reshape(block.length, 2)


def contour_trajectory(trajectory: Trajectory, block: BlockSpec,
                       time_stride: int = 1) -> ContourField:
    """Contour field along a trajectory, one slice per strided sample (the
    last always kept), timed by :attr:`~cosmodirac.gaussian.Trajectory.times`."""
    if time_stride < 1:
        raise ValueError("time_stride must be >= 1")
    idx = list(range(0, len(trajectory.etas), time_stride))
    if idx[-1] != len(trajectory.etas) - 1:
        idx.append(len(trajectory.etas) - 1)
    etas = trajectory.etas[idx]
    vals = np.empty((len(idx), block.length, 2))
    for row, i in enumerate(idx):
        gamma = real_space_correlation(trajectory.state(i), block)
        vals[row] = entanglement_contour(gamma, block)
    return ContourField(etas=etas, values=vals, block=block, times=trajectory.times[idx])


def cone_front(field: ContourField):
    """Arrival times of the entanglement front entering from the block edges.

    The threshold is :data:`FRONT_THRESHOLD` of the median nonzero contour
    at the final sample.  For each depth d (sites, measured inward from the
    nearer boundary, skipping :data:`EDGE_MARGIN` sites at each end) the
    arrival time is the first threshold crossing of the spinor-summed
    contour, linearly interpolated between samples.  Averages the left-
    and right-moving fronts, which coincide for parity-symmetric runs.

    Returns (depths, arrival_etas) for the depths that were reached.
    """
    S = field.spinor_summed()
    final = S[-1]
    live = final[final > 1e-9]
    if live.size == 0:
        raise InvalidStateError("contour vanishes everywhere at the final sample")
    thr = FRONT_THRESHOLD * float(np.median(live))
    L = field.block.length
    etas = field.etas
    depths, arrivals = [], []
    for d in range(EDGE_MARGIN, L // 2 - EDGE_MARGIN):
        eta_d = []
        for col in (S[:, d], S[:, L - 1 - d]):
            idx = int(np.argmax(col > thr))
            if col[idx] <= thr or idx == 0:
                eta_d = []
                break
            eta_d.append(float(np.interp(thr, [col[idx - 1], col[idx]],
                                         [etas[idx - 1], etas[idx]])))
        if eta_d:
            depths.append(d + 0.5)  # site centers
            arrivals.append(np.mean(eta_d))
    return np.array(depths), np.array(arrivals)


def front_slope(field: ContourField) -> float:
    """Cone slope d(eta)/d(depth) from a least-squares fit of the front.

    This is the slope as drawn in a time-versus-site rendering: the
    inverse of the front speed, 1/(2 v_g) for ballistic pair spreading.
    Slower quasi-particles give a steeper (larger) slope — a compressed
    cone.
    """
    depths, arrivals = cone_front(field)
    if depths.size < 4:
        raise InvalidStateError("front crossed fewer than four depths; evolve longer")
    return float(np.polyfit(depths, arrivals, 1)[0])
