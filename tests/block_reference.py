"""The per-sample block build, kept as the oracle of the one-pass build.

Each sample on its own: one FFT's separations
(:func:`~cosmodirac.gaussian.separation_blocks`), the particle-hole test
over its 2L - 1 of them, then the parity sector H_+ gathered by sliding
windows or the complex Gamma_A of
:func:`~cosmodirac.gaussian.real_space_correlation`, then the library's
``eigh`` and mode entropies.  :mod:`cosmodirac.entanglement` builds every
sample's blocks in one pass; the tests ask it for the same numbers to the
bit.  Import it as ``from block_reference import ...``, as ``conftest`` is.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from cosmodirac.entanglement import (PARTICLE_HOLE_TOL, _G_FROM_A, _TO_W,
                                     InvalidStateError, _mode_spectrum)
from cosmodirac.gaussian import real_space_correlation, separation_blocks


def block_matrix(state, block):
    """(residual, sector, matrix) of one sample's block: the particle-hole
    residual over its 2L - 1 separations, whether that is within
    PARTICLE_HOLE_TOL, and then the L x L parity sector H_+, else the
    complex Gamma_A."""
    num_sites = state.spec.num_sites
    if block.num_sites != num_sites:
        raise ValueError(f"block of a {block.num_sites}-site chain given a state "
                         f"of a {num_sites}-site chain")
    if not np.all(np.isfinite(state.bloch)):
        raise InvalidStateError("state is not finite")
    g = separation_blocks(state)
    length = block.length
    rotated = g[np.arange(1 - length, length) % num_sites].reshape(-1, 4) @ _TO_W
    held = rotated.real.copy()
    held[length - 1] -= [0.5, 0.0, 0.0, 0.5]  # d = 0
    residual = float(np.max(np.abs(held)))
    if residual <= PARTICLE_HOLE_TOL:
        separations = (rotated.imag @ _G_FROM_A).reshape(-1, 2, 2)
        return residual, True, sector_matrix(separations, length)
    return residual, False, real_space_correlation(state, block)


def sector_matrix(separations, length):
    """H_+ of a block of ``length`` sites from its separations G(d), stacked
    (2 length - 1, 2, 2) from d = 1 - length, by sliding windows."""
    half = (length + 1) // 2
    h = np.empty((half, 2, half, 2), dtype=complex)
    for b, combine in ((0, np.add), (1, np.subtract)):  # p_b = +1, -1
        column = separations[:, :, b]
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


def reference_spectra(trajectory, block, contour):
    """``(entropy (T,), values (T, L, 2) or None, sector (T,))`` of ``block``
    along ``trajectory``, one sample at a time."""
    count = len(trajectory.etas)
    entropy, sector = np.empty(count), np.empty(count, dtype=bool)
    values = np.empty((count, block.length, 2)) if contour else None
    for i in range(count):
        _, sector[i], matrix = block_matrix(trajectory.state(i), block)
        entropy[i], site_values = _mode_spectrum(matrix, sector[i], contour)
        if contour:
            values[i] = site_values
    return entropy, values, sector
