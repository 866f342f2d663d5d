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

An analysis is one pass over the trajectory (:func:`entropy_trajectory`,
:func:`contour_trajectory`; :func:`block_entropy` and
:func:`entanglement_contour` are the one-sample case).  Each sample's
2L - 1 separations, from its own FFT, fill a (T, 2L - 1, 2, 2) stack;
the particle-hole test rotates the whole stack in one product and takes
one max per sample.  Each path then keeps only what it gathers from, A(d)
or Gamma(d).  Index arrays built once per pass gather every sample's H_+
(the Hankel's d columns from a negated copy of its G(d), so the gather
adds where the formula subtracts) or Gamma_A, and each block gets one
``eigh``, or ``eigvalsh`` for the entropy alone.  The L x L matrices are
not stacked: a batched ``eigh`` costs the same per sample, and the stack
would hold T of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gaussian import CorrelationState, Trajectory, separation_blocks

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


def _gather_indices(length: int, sector: bool):
    """Flat indices into a sample's held separations, (2 length - 1, 2, 2)
    stacked from d = 1 - length and flattened, that gather its block.

    The complex path takes one (2L, 2L) array: entry ((i, a), (j, b)), row
    2i + a, is Gamma(i - j)_ab.  The parity-sector path takes two (L, L)
    arrays over the sites i, j <= (L - 1)/2, the middle d row and column of
    an odd block dropped: the Toeplitz G(i - j)_ab and the Hankel
    p_b G(i + j - L + 1)_ab, whose d columns (p_b = -1) index a negated
    copy of the separations appended after them (module docstring).
    """
    sites = np.arange((length + 1) // 2 if sector else length)
    size = 2 * len(sites)

    def flat(offset):  # entry ((i, a), (j, b)) at 4 offset[i, j] + 2a + b
        index = 4 * offset[:, None, :, None] + np.arange(4).reshape(1, 2, 1, 2)
        return index.reshape(size, size).astype(np.int32)  # half the bytes of intp

    toeplitz = flat(sites[:, None] - sites[None, :] + length - 1)  # d = i - j
    if not sector:
        return toeplitz
    hankel = flat(sites[:, None] + sites[None, :])  # d = i + j - L + 1
    hankel[:, 1::2] += 4 * (2 * length - 1)
    if length % 2:  # the middle site: its u state alone
        return toeplitz[:-1, :-1].copy(), hankel[:-1, :-1].copy()
    return toeplitz, hankel


def _spectra(spec, bloch: np.ndarray, block: BlockSpec, contour: bool):
    """``(entropy, values, sector)`` of ``block`` in each of the T states
    with Bloch vectors ``bloch`` (T, N_S, 3): entropies (T,), contours
    (T, length, 2) if ``contour`` (else None), and whether each block took
    the parity-sector path (T,) bool.

    Each sample's 2L - 1 separations come from its own FFT; the
    particle-hole test then runs on all of them at once, and each block is
    gathered by index arrays built once per call and diagonalised by one
    ``eigh`` (``eigvalsh`` without ``contour``).  Raises ``ValueError`` for
    a block of another chain and :class:`InvalidStateError` for a state
    that is not finite or a spectrum outside [0, 1].
    """
    num_sites = spec.num_sites
    if block.num_sites != num_sites:
        raise ValueError(f"block of a {block.num_sites}-site chain given a state "
                         f"of a {num_sites}-site chain")
    if not np.all(np.isfinite(bloch)):
        raise InvalidStateError("state is not finite")
    length = block.length
    held = np.arange(1 - length, length) % num_sites  # d = 1 - L, ..., L - 1
    separations = np.empty((len(bloch), 2 * length - 1, 4), dtype=complex)
    for i, n in enumerate(bloch):
        separations[i] = separation_blocks(CorrelationState(spec, n))[held].reshape(-1, 4)
    # W_0^dag Gamma(d) W_0 for d = 1 - L, ..., L - 1, one product over the stack
    rotated = separations @ _TO_W
    residual = rotated.real.copy()
    residual[:, length - 1] -= [0.5, 0.0, 0.0, 0.5]  # d = 0
    sector = np.max(np.abs(residual), axis=(1, 2)) <= PARTICLE_HOLE_TOL
    # each path keeps only what it gathers from, in sample order: A(d) on
    # the parity-sector path, Gamma(d) on the complex one
    sources = {True: iter(rotated.imag[sector]), False: iter(separations[~sector])}
    del separations, rotated, residual
    indices = {path: _gather_indices(length, path) for path in set(sector.tolist())}
    entropy = np.empty(len(bloch))
    values = np.empty((len(bloch), length, 2)) if contour else None
    for i, on_sector in enumerate(sector.tolist()):
        g = next(sources[on_sector])
        if on_sector:
            g = (g @ _G_FROM_A).ravel()  # G(d) = i V A(d) V^dag
            g = np.concatenate((g, np.negative(g)))
            toeplitz, hankel = indices[True]
            matrix = g.take(toeplitz)
            matrix += g.take(hankel)
            if length % 2:  # the gather counts the middle site twice
                matrix[-1, :-1] *= np.sqrt(0.5)
                matrix[:-1, -1] *= np.sqrt(0.5)
                matrix[-1, -1] *= 0.5
        else:
            matrix = g.ravel().take(indices[False])
        entropy[i], site_values = _mode_spectrum(matrix, on_sector, contour)
        if contour:
            values[i] = site_values
    return entropy, values, sector


def _mode_spectrum(matrix: np.ndarray, sector: bool, contour: bool):
    """Entropy of a block and, if ``contour``, its (length, 2) contour.

    ``matrix`` is the block as :func:`_spectra` gathers it: H_+ on the
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


def entropy_trajectory(trajectory: Trajectory, block: BlockSpec):
    """von Neumann entropy of ``block`` at every sample of ``trajectory``.

    Returns ``(entropy, sector)``: the entropies (T,) and whether each
    sample's block took the parity-sector path (T,) bool.
    """
    entropy, _, sector = _spectra(trajectory.spec, trajectory.bloch, block, False)
    return entropy, sector


def contour_trajectory(trajectory: Trajectory, block: BlockSpec):
    """Contour field of ``block`` along ``trajectory``, one slice per sample.

    Returns ``(field, sector)``: the :class:`ContourField`, timed by
    :attr:`~cosmodirac.gaussian.Trajectory.times`, and whether each
    sample's block took the parity-sector path (T,) bool.
    """
    _, values, sector = _spectra(trajectory.spec, trajectory.bloch, block, True)
    return ContourField(etas=trajectory.etas, values=values, block=block,
                        times=trajectory.times), sector


def block_entropy(state: CorrelationState, block: BlockSpec) -> float:
    """von Neumann entropy of ``block`` in ``state``: the one-sample
    :func:`entropy_trajectory`."""
    return float(_spectra(state.spec, state.bloch[None], block, False)[0][0])


def entanglement_contour(state: CorrelationState, block: BlockSpec) -> np.ndarray:
    """Site- and spinor-resolved contour of ``block`` in ``state``, shape (length, 2):
    the one-sample :func:`contour_trajectory`.

    Diagonalise the block's correlation matrix, U^dag Gamma_A U = diag(nu);
    each eigenmode's entropy s_m is distributed with weights
    |U_{(i,alpha),m}|^2, so the values are nonnegative and sum to the block
    entropy.  A particle-hole-symmetric block (Pi = 0) is diagonalised in
    its parity sector, with equal u and d values and a mirror-symmetric
    site contour (see the module docstring).
    """
    return _spectra(state.spec, state.bloch[None], block, True)[1][0]


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
