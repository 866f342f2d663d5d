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
sigma_x (1 - Gamma_A^*) sigma_x = Gamma_A.  With
W_0 = [[1, i], [1, -i]]/sqrt(2) = V/sqrt(2), that reads
W_0^dag Gamma(d) W_0 = delta_(d,0)/2 + iA(d) with A(d) real, so the test
is max |Re(W_0^dag Gamma(d) W_0) - delta_(d,0)/2| over the 2L - 1
separations.  A block within :data:`PARTICLE_HOLE_TOL` = 1e-12 takes the
parity-sector path, any other the complex ``eigh`` of Gamma_A itself.
The tolerance sits between the shipped runs: every block of the Pi = 0
presets is within 1.7e-15, every block of a parity-broken state (fig3a,
fig3c, fig3d, fig4, and fig5, released from the Pi = 1.07 vacuum) is
2.5e-2 or more away.  A state with a Bloch vector that is not finite
takes neither path: it raises :class:`InvalidStateError`.

The parity-sector path works with G(d) = 2 Gamma(d) - delta_(d,0), taken
as G(d) = i V A(d) V^dag, the exactly particle-hole-symmetric part.  Its
sigma_x and sigma_y parts are odd in d and its sigma_z part is even,
because :func:`~cosmodirac.gaussian.separation_blocks` makes
Gamma(-d) = Gamma(d)^dag exactly; only the identity part i tr A(d),
which half filling makes zero, is left by rounding (below 1e-16).  So
the block commutes with P = J (x) sigma_z, where J reverses the block's
sites.  The particle-hole map sigma_x K carries the P = +1 sector onto
the P = -1 sector and sends the eigenvalue lambda of G to -lambda, so
the L x L Hermitian H_+ of the P = +1 sector holds the whole spectrum.
Its basis is (e_(j,b) + p_b e_(L-1-j,b))/sqrt(2), p = (+1, -1) for
b = (u, d), over the sites j < L/2, and it is gathered straight from the
separations as Toeplitz plus Hankel,
H_+[(i,a),(j,b)] = G(i - j)_(ab) + p_b G(i + j - L + 1)_(ab), row 2i + a.
For odd L the middle site j = (L - 1)/2 is its own mirror and adds only
its u state e_(j,u): the gather runs over j <= (L - 1)/2, drops the
middle d row and column, and scales the middle u row and column, now
the last, by 1/sqrt(2) (its diagonal entry by 1/2), since the gather
counts that site twice.  With eigenvalues lambda_m, eigenvectors U and mode entropies
s_m = s((1 + lambda_m)/2), the entropy is 2 sum_m s_m (the P = -1 sector
repeats it, s being even about 1/2), and the contour is
S_(i,u) = S_(i,d) = (1/2) sum_m s_m (|U_(i,u),m|^2 + |U_(i,d),m|^2) at
site i and at its mirror L - 1 - i; the middle site of an odd block gets
sum_m s_m |U_(j,u),m|^2, with no 1/2 and only a u row.  The site contour
is mirror-symmetric by construction.  One complex L x L ``eigh`` takes
about a fifth of the time of the complex 2L x 2L one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .gaussian import CorrelationState, Trajectory, gather_separations, separation_blocks

_NU_CLIP = 1e-14  # restricted spectra pile up exponentially at 0 and 1
# max |Re(W^dag Gamma_A W) - 1/2| up to which a block takes the parity-sector path
PARTICLE_HOLE_TOL = 1e-12
# W_0 = _V/sqrt(2); the entries of V are +-1 and +-i, so the rotations round
# only in their sums.  A stack of 2 x 2 blocks X flattened row by row has
# (A X B).ravel() = X.ravel() @ kron(A^T, B): _TO_W gives W_0^dag Gamma(d) W_0
# and _G_FROM_A gives G(d) = i V A(d) V^dag (module docstring)
_V = np.array([[1.0, 1.0j], [1.0, -1.0j]])
_TO_W = 0.5 * np.kron(_V.conj(), _V)
_G_FROM_A = 1j * np.kron(_V.T, _V.conj().T)
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
    """(residual, sector, matrix) of the block: the particle-hole residual
    over its 2L - 1 separations, whether that is within
    :data:`PARTICLE_HOLE_TOL`, and then the L x L parity sector H_+, else
    the complex Gamma_A (module docstring).  Raises ``ValueError`` for a
    block of another chain and :class:`InvalidStateError` for a state that
    is not finite."""
    num_sites = state.spec.num_sites
    if block.num_sites != num_sites:
        raise ValueError(f"block of a {block.num_sites}-site chain given a state "
                         f"of a {num_sites}-site chain")
    if not np.all(np.isfinite(state.bloch)):
        raise InvalidStateError("state is not finite")
    g = separation_blocks(state)
    length = block.length
    # W_0^dag Gamma(d) W_0 for d = 1 - L, ..., L - 1, flattened
    rotated = g[np.arange(1 - length, length) % num_sites].reshape(-1, 4) @ _TO_W
    held = rotated.real.copy()
    held[length - 1] -= [0.5, 0.0, 0.0, 0.5]  # d = 0
    residual = float(np.max(np.abs(held)))
    if residual <= PARTICLE_HOLE_TOL:
        separations = (rotated.imag @ _G_FROM_A).reshape(-1, 2, 2)
        return residual, True, _sector_matrix(separations, length)
    return residual, False, gather_separations(g, length)


def _sector_matrix(separations: np.ndarray, length: int) -> np.ndarray:
    """H_+ of a block of ``length`` sites from its separations G(d), stacked
    (2 length - 1, 2, 2) from d = 1 - length (module docstring)."""
    half = (length + 1) // 2  # sites, with the middle one of an odd block
    h = np.empty((half, 2, half, 2), dtype=complex)
    for b, combine in ((0, np.add), (1, np.subtract)):  # p_b = +1, -1
        column = separations[:, :, b]
        # windows [s, a, j] = column[2 length - 2 - s - j] and column[s + j]:
        # G(i - j) at s = length - 1 - i and G(i + j - length + 1) at s = i
        toeplitz = sliding_window_view(column[::-1], half, axis=0)[length - half:length]
        hankel = sliding_window_view(column, half, axis=0)[:half]
        combine(toeplitz[::-1], hankel, out=h[:, :, :, b])
    h = h.reshape(2 * half, 2 * half)
    if length % 2:  # the middle site: its u state alone
        h = h[:-1, :-1]
        h[-1, :-1] *= np.sqrt(0.5)
        h[:-1, -1] *= np.sqrt(0.5)
        h[-1, -1] *= 0.5
    return h


def _mode_spectrum(matrix: np.ndarray, sector: bool, contour: bool):
    """Entropy of a block and, if ``contour``, its (length, 2) contour.

    ``matrix`` is the block as :func:`_block_matrix` builds it: H_+ on the
    parity-sector path (``sector``), else the complex Gamma_A.  Raises
    :class:`InvalidStateError` for a spectrum outside [0, 1] on either path.
    """
    if contour:
        nu, vecs = np.linalg.eigh(matrix)
    else:
        nu, vecs = np.linalg.eigvalsh(matrix), None
    if sector:
        nu = 0.5 * (1.0 + nu)  # from the eigenvalues lambda of H_+
    _check_spectrum(nu)
    s = _mode_entropies(nu)
    entropy = float(np.sum(s))
    if sector:
        entropy *= 2.0  # the P = -1 sector
    if vecs is None:
        return entropy, None
    weights = (np.abs(vecs) ** 2) @ s
    if not sector:
        return entropy, weights.reshape(-1, 2)
    pairs = len(matrix) // 2
    half = 0.5 * weights[:2 * pairs].reshape(pairs, 2).sum(axis=1)
    site = np.concatenate([half, weights[2 * pairs:], half[::-1]])
    return entropy, np.repeat(site[:, None], 2, axis=1)


def _block_spectrum(state, block, contour, sectors):
    _, sector, matrix = _block_matrix(state, block)
    if sectors is not None:
        sectors.append(sector)
    return _mode_spectrum(matrix, sector, contour)


def block_entropy(state: CorrelationState, block: BlockSpec, sectors=None) -> float:
    """von Neumann entropy of ``block`` in ``state``.

    ``sectors``, if given, is a list: it gets whether the block took the
    parity-sector path appended.
    """
    return _block_spectrum(state, block, False, sectors)[0]


def entanglement_contour(state: CorrelationState, block: BlockSpec,
                         sectors=None) -> np.ndarray:
    """Site- and spinor-resolved contour of ``block`` in ``state``, shape (length, 2).

    Diagonalise the block's correlation matrix, U^dag Gamma_A U = diag(nu);
    each eigenmode's entropy s_m is distributed with weights
    |U_{(i,alpha),m}|^2, so the values are nonnegative and sum to the block
    entropy.  A particle-hole-symmetric block (Pi = 0) is diagonalised in
    its parity sector, with equal u and d values and a mirror-symmetric
    site contour (see the module docstring).  ``sectors`` is as for
    :func:`block_entropy`.
    """
    return _block_spectrum(state, block, True, sectors)[1]


def contour_trajectory(trajectory: Trajectory, block: BlockSpec,
                       sectors=None) -> ContourField:
    """Contour field along a trajectory, one slice per sample, timed by
    :attr:`~cosmodirac.gaussian.Trajectory.times`.  ``sectors`` is as for
    :func:`block_entropy`, one entry per sample."""
    vals = np.empty((len(trajectory.etas), block.length, 2))
    for i in range(len(trajectory.etas)):
        vals[i] = entanglement_contour(trajectory.state(i), block, sectors)
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
