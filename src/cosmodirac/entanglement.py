"""Exact Gaussian-state block entropy and entanglement contour.

The block density-matrix spectrum follows from the block's 2L x 2L
correlation matrix Gamma_A (Peschel, J. Phys. A 36, L205 (2003)); its
eigenmodes carry mode entropies that the contour redistributes over sites
and spinor components (Chen & Vidal, J. Stat. Mech. P10011 (2014)).  The
states are translation invariant, so a block is fixed by its 2L - 1
separation blocks Gamma(d), |d| < L, of one FFT, and is built from them.

Two paths diagonalise the block, and both give the same entropy and
contour.  While the state keeps Pi = 0, n_x and n_y are odd in k and n_z
is even, so every block has the on-site particle-hole symmetry
sigma_x (1 - Gamma_A^*) sigma_x = Gamma_A.  With W = 1_L (x) W_0,
W_0 = [[1, i], [1, -i]]/sqrt(2), the block is then W^dag Gamma_A W =
1/2 + iA with A real antisymmetric: its eigenvalues are 1/2 +- lambda,
and A^T A is real symmetric with eigenvalues lambda^2, each twice.  W is
on-site, so the test reads max |Re(W_0^dag Gamma(d) W_0) - delta_(d,0)/2|
over the 2L - 1 separations, and a block within :data:`PARTICLE_HOLE_TOL`
= 1e-12 gathers A = Im(W_0^dag Gamma(d) W_0) into a real matrix.  The
mode entropy is even about 1/2, so the real path diagonalises A^T A (a
real ``eigh`` at about a third of the complex one's cost) and the
contour is S_(i,u) = S_(i,d) = (1/2) sum_m (R_(i,u),m^2 + R_(i,d),m^2) s_m
over its eigenvectors R and eigenvalues mu_m, with s_m the entropy of
nu_m = 1/2 - sqrt(mu_m).  Any other block takes the complex ``eigh`` of
Gamma_A itself.  The tolerance sits between the shipped runs: every
block of the Pi = 0 presets is within 1.7e-15, every block of a
parity-broken state (fig3a, fig3c, fig3d, fig4, and fig5, released from
the Pi = 1.07 vacuum) is 2.5e-2 or more away.  A state with a Bloch
vector that is not finite takes neither path: it raises
:class:`InvalidStateError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gaussian import CorrelationState, Trajectory, gather_separations, separation_blocks

_NU_CLIP = 1e-14  # restricted spectra pile up exponentially at 0 and 1
# max |Re(W^dag Gamma_A W) - 1/2| up to which a block takes the real path
PARTICLE_HOLE_TOL = 1e-12
# W_0 = _V/sqrt(2), so W_0^dag G W_0 = (V^dag G V)/2 rounds only in its sums
_V = np.array([[1.0, 1.0j], [1.0, -1.0j]])
EDGE_MARGIN = 4  # sites at each block edge that the cone front skips
FRONT_THRESHOLD = 0.2  # cone-front threshold, as a fraction of the median final contour


class InvalidStateError(ValueError):
    """State or contour is not finite, or a block has eigenvalues outside [0, 1]."""


@dataclass(frozen=True)
class BlockSpec:
    """Block of ``length`` consecutive sites of a chain of ``num_sites``.

    The states are translation invariant, so where the block starts
    changes nothing.
    """

    length: int
    num_sites: int

    def __post_init__(self):
        if not (1 <= self.length <= self.num_sites):
            raise ValueError(f"block length {self.length} outside [1, {self.num_sites}]")


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


def _check_spectrum(nu):
    if not np.all((nu >= -1e-8) & (nu <= 1.0 + 1e-8)):  # a NaN fails too
        raise InvalidStateError(
            f"restricted eigenvalues outside [0,1]: min {nu.min():.3e}, "
            f"max {nu.max():.3e}"
        )


def _block_matrix(state: CorrelationState, block: BlockSpec):
    """(residual, matrix) of the block: the particle-hole residual over its
    2L - 1 separations, and the real A if that is within
    :data:`PARTICLE_HOLE_TOL`, else the complex Gamma_A (module docstring).
    Raises :class:`InvalidStateError` for a state that is not finite."""
    if not np.all(np.isfinite(state.bloch)):
        raise InvalidStateError("state is not finite")
    g = separation_blocks(state)
    rotated = 0.5 * (_V.conj().T @ g @ _V)
    held = rotated[np.arange(1 - block.length, block.length) % len(g)].real
    held[block.length - 1] -= 0.5 * np.eye(2)  # d = 0
    residual = float(np.max(np.abs(held)))
    if residual <= PARTICLE_HOLE_TOL:
        return residual, gather_separations(rotated.imag, block.length)
    return residual, gather_separations(g, block.length)


def _mode_spectrum(matrix: np.ndarray, contour: bool):
    """Mode entropies of a block and, if ``contour``, its (length, 2) contour.

    ``matrix`` is the block as :func:`_block_matrix` builds it: a real A
    takes the real path, a complex Gamma_A the complex one.  Raises
    :class:`InvalidStateError` for a spectrum outside [0, 1] on either path.
    """
    real = np.isrealobj(matrix)
    product = matrix.T @ matrix if real else matrix
    if contour:
        nu, vecs = np.linalg.eigh(product)
    else:
        nu, vecs = np.linalg.eigvalsh(product), None
    if real:
        nu = 0.5 - np.sqrt(np.maximum(nu, 0.0))  # from mu = lambda^2
    _check_spectrum(nu)
    s = _mode_entropies(nu)
    if vecs is None:
        return s, None
    length = len(matrix) // 2
    if not real:
        return s, ((np.abs(vecs) ** 2) @ s).reshape(length, 2)
    site = 0.5 * ((vecs * vecs) @ s).reshape(length, 2).sum(axis=1)
    return s, np.repeat(site[:, None], 2, axis=1)


def block_entropy(state: CorrelationState, block: BlockSpec) -> float:
    """von Neumann entropy of ``block`` in ``state``."""
    s, _ = _mode_spectrum(_block_matrix(state, block)[1], contour=False)
    return float(np.sum(s))


def entanglement_contour(state: CorrelationState, block: BlockSpec) -> np.ndarray:
    """Site- and spinor-resolved contour of ``block`` in ``state``, shape (length, 2).

    Diagonalise the block's correlation matrix, U^dag Gamma_A U = diag(nu);
    each eigenmode's entropy s_m is distributed with weights
    |U_{(i,alpha),m}|^2, so the values are nonnegative and sum to the block
    entropy.  A particle-hole-symmetric block (Pi = 0) is diagonalised
    through a real matrix of the same spectrum, with equal u and d values
    (see the module docstring).
    """
    _, vals = _mode_spectrum(_block_matrix(state, block)[1], contour=True)
    return vals


def contour_trajectory(trajectory: Trajectory, block: BlockSpec) -> ContourField:
    """Contour field along a trajectory, one slice per sample, timed by
    :attr:`~cosmodirac.gaussian.Trajectory.times`."""
    vals = np.empty((len(trajectory.etas), block.length, 2))
    for i in range(len(trajectory.etas)):
        vals[i] = entanglement_contour(trajectory.state(i), block)
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
