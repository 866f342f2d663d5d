"""Exact Gaussian-state block entropy and entanglement contour.

The block density-matrix spectrum follows from the block's own 2L x 2L
real-space correlation matrix, ``real_space_correlation(state, block)``
(Peschel, J. Phys. A 36, L205 (2003)); its eigenmodes carry mode
entropies that the contour redistributes over sites and spinor
components (Chen & Vidal, J. Stat. Mech. P10011 (2014)).

Two paths diagonalise the block, and both give the same entropy and
contour.  While the state keeps Pi = 0, n_x and n_y are odd in k and n_z
is even, so every block has the on-site particle-hole symmetry
sigma_x (1 - Gamma_A^*) sigma_x = Gamma_A.  With W = 1_L (x) W_0,
W_0 = [[1, i], [1, -i]]/sqrt(2), the block is then W^dag Gamma_A W =
1/2 + iA with A real antisymmetric: its eigenvalues are 1/2 +- lambda,
and A^T A is real symmetric with eigenvalues lambda^2, each twice.  The
mode entropy is even about 1/2, so the real path diagonalises A^T A (a
real ``eigh`` at about a third of the complex one's cost) and the
contour is S_(i,u) = S_(i,d) = (1/2) sum_m (R_(i,u),m^2 + R_(i,d),m^2) s_m
over its eigenvectors R and eigenvalues mu_m, with s_m the entropy of
nu_m = 1/2 - sqrt(mu_m).  A block whose Re(W^dag Gamma_A W) is further
than :data:`PARTICLE_HOLE_TOL` = 1e-12 from 1/2 takes the complex path:
the ``eigh`` of Gamma_A itself.  That tolerance sits between the
shipped runs: every block of the Pi = 0 presets is within 1.6e-15,
every block of a parity-broken state (fig3a, fig3c, fig3d, fig4, and
fig5, released from the Pi = 1.07 vacuum) is 2.5e-2 or more away.  A
block with an entry that is not finite takes neither path: it raises
:class:`InvalidStateError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gaussian import Trajectory, real_space_correlation

_NU_CLIP = 1e-14  # restricted spectra pile up exponentially at 0 and 1
# max |Re(W^dag Gamma_A W) - 1/2| up to which a block takes the real path
PARTICLE_HOLE_TOL = 1e-12
EDGE_MARGIN = 4  # sites at each block edge that the cone front skips
FRONT_THRESHOLD = 0.2  # cone-front threshold, as a fraction of the median final contour


class InvalidStateError(ValueError):
    """Restricted correlation matrix is not finite or has eigenvalues
    outside [0, 1]."""


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
        # all(>= ...) rather than any(< ...), so that a NaN value fails too
        if not (np.all(self.values >= -1e-12) and np.all(np.isfinite(self.values))):
            raise InvalidStateError("contour values must be finite and nonnegative; "
                                    "found non-finite or negative values")

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
    if not np.all((nu >= -1e-8) & (nu <= 1.0 + 1e-8)):  # a NaN fails too
        raise InvalidStateError(
            f"restricted eigenvalues outside [0,1]: min {nu.min():.3e}, "
            f"max {nu.max():.3e}"
        )


def _particle_hole_form(gamma: np.ndarray, length: int):
    """(residual, A) of the block in the basis W = 1_L (x) W_0.

    W^dag Gamma_A W is formed site block by site block: with the 2 x 2
    blocks [[a, b], [c, d]] of Gamma_A it is [[u, iw], [-ix, v]]/2 for
    u = p + q, v = p - q, w = r - s, x = r + s, where p = a + d,
    q = b + c, r = a - d, s = b - c.  ``residual`` is
    max |Re(W^dag Gamma_A W) - 1/2|; ``A``, its imaginary part (a real
    antisymmetric 2L x 2L matrix), is built only when the residual is
    within :data:`PARTICLE_HOLE_TOL`, and is None otherwise.
    """
    g = gamma.reshape(length, 2, length, 2)
    a, b, c, d = g[:, 0, :, 0], g[:, 0, :, 1], g[:, 1, :, 0], g[:, 1, :, 1]
    p, q, r, s = a + d, b + c, a - d, b - c
    u, v, w, x = p + q, p - q, r - s, r + s
    eye = np.eye(length)
    residual = 0.5 * np.max([np.max(np.abs(u.real - eye)), np.max(np.abs(v.real - eye)),
                             np.max(np.abs(w.imag)), np.max(np.abs(x.imag))])
    if not (residual <= PARTICLE_HOLE_TOL):  # a NaN fails too
        return residual, None
    twice_a = np.empty((length, 2, length, 2))
    twice_a[:, 0, :, 0], twice_a[:, 1, :, 1] = u.imag, v.imag
    twice_a[:, 0, :, 1], twice_a[:, 1, :, 0] = w.real, -x.real
    return residual, 0.5 * twice_a.reshape(2 * length, 2 * length)


def _mode_spectrum(gamma: np.ndarray, block: BlockSpec, contour: bool):
    """Mode entropies of the block and, if ``contour``, its (length, 2) contour.

    Takes the real path when the block is particle-hole symmetric to
    :data:`PARTICLE_HOLE_TOL`, else the complex one; see the module
    docstring.  Raises :class:`InvalidStateError` for a block that is not
    finite, before any ``eigh``, and for a spectrum outside [0, 1] on
    either path.
    """
    _check_shape(gamma, block)
    if not np.all(np.isfinite(gamma)):
        raise InvalidStateError("restricted correlation matrix is not finite")
    _, a = _particle_hole_form(gamma, block.length)
    matrix = gamma if a is None else a.T @ a
    if contour:
        nu, vecs = np.linalg.eigh(matrix)
    else:
        nu, vecs = np.linalg.eigvalsh(matrix), None
    if a is not None:
        nu = 0.5 - np.sqrt(np.maximum(nu, 0.0))  # from mu = lambda^2
    _check_spectrum(nu)
    s = _mode_entropies(nu)
    if vecs is None:
        return s, None
    if a is None:
        return s, ((np.abs(vecs) ** 2) @ s).reshape(block.length, 2)
    site = 0.5 * ((vecs * vecs) @ s).reshape(block.length, 2).sum(axis=1)
    return s, np.repeat(site[:, None], 2, axis=1)


def block_entropy(gamma: np.ndarray, block: BlockSpec) -> float:
    """von Neumann entropy of the block from its own 2L x 2L correlation
    matrix ``gamma``, as ``real_space_correlation(state, block)`` builds it.
    """
    s, _ = _mode_spectrum(gamma, block, contour=False)
    return float(np.sum(s))


def entanglement_contour(gamma: np.ndarray, block: BlockSpec) -> np.ndarray:
    """Site- and spinor-resolved contour of the block, shape (length, 2).

    ``gamma`` is the block's own 2L x 2L correlation matrix, as
    ``real_space_correlation(state, block)`` builds it.  Diagonalise it,
    U^dag Gamma_A U = diag(nu); each eigenmode's entropy s_m is
    distributed with weights |U_{(i,alpha),m}|^2, so the values are
    nonnegative and sum to the block entropy.  A particle-hole-symmetric
    block (Pi = 0) is diagonalised through a real matrix of the same
    spectrum, with equal u and d values (see the module docstring).
    """
    _, vals = _mode_spectrum(gamma, block, contour=True)
    return vals


def contour_trajectory(trajectory: Trajectory, block: BlockSpec) -> ContourField:
    """Contour field along a trajectory, one slice per sample, timed by
    :attr:`~cosmodirac.gaussian.Trajectory.times`."""
    vals = np.empty((len(trajectory.etas), block.length, 2))
    for i in range(len(trajectory.etas)):
        gamma = real_space_correlation(trajectory.state(i), block)
        vals[i] = entanglement_contour(gamma, block)
    return ContourField(etas=trajectory.etas, values=vals, block=block,
                        times=trajectory.times)


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
