"""Exact many-body (Fock-space) oracle for the Gaussian machinery.

A 4-site chain has 8 fermion modes and a 256-dimensional Fock space,
small enough to diagonalize the full quadratic many-body Hamiltonian
with dense linear algebra.  Everything the package computes through
correlation matrices — ground states, quench dynamics, block entropies,
production spectra — is checked here against the brute-force state
vector with no Gaussian shortcut anywhere in the reference path.
"""

import numpy as np
import pytest

from cosmodirac.entanglement import BlockSpec, block_entropy, entanglement_contour
from cosmodirac.gaussian import (
    evolve_free,
    free_ground_state,
    real_space_correlation,
    sample_grid,
)
from cosmodirac.lattice import LatticeSpec, QuenchProfile, hamiltonian_block
from cosmodirac.production import bogoliubov_spectrum

N_SITES = 4
N_MODES = 2 * N_SITES
DIM = 2**N_MODES

MA_I, MA_F = 0.5, 3.0


def _jw_annihilators():
    """Jordan-Wigner a_p on the 2^8 Fock space, mode-major ordering."""
    ident = np.eye(2)
    z = np.diag([1.0, -1.0])
    a = np.array([[0.0, 1.0], [0.0, 0.0]])  # |0>, |1> basis
    ops = []
    for p in range(N_MODES):
        factors = [z] * p + [a] + [ident] * (N_MODES - p - 1)
        full = np.array([[1.0]])
        for f in factors:
            full = np.kron(full, f)
        ops.append(full)
    return ops


def _single_particle_h(spec, ma_eff):
    """Dense real-space 8x8 Hamiltonian from the momentum blocks."""
    ks = spec.momentum_grid()
    h_k = hamiltonian_block(ks, ma_eff, 0.0, 0.0)
    n = spec.num_sites
    h = np.zeros((2 * n, 2 * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            blk = np.tensordot(np.exp(1j * ks * (i - j)), h_k, axes=(0, 0)) / n
            h[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = blk
    assert np.allclose(h, h.conj().T)
    return h


@pytest.fixture(scope="module")
def fock():
    ops = _jw_annihilators()

    def many_body(h):
        hmb = np.zeros((DIM, DIM), dtype=complex)
        for p in range(N_MODES):
            for q in range(N_MODES):
                if h[p, q] != 0.0:
                    hmb += h[p, q] * ops[p].conj().T @ ops[q]
        return hmb

    def correlation(psi):
        """gamma[p, q] = <psi| a_p a_q^dag |psi>."""
        gamma = np.empty((N_MODES, N_MODES), dtype=complex)
        for q in range(N_MODES):
            col = ops[q].conj().T @ psi
            for p in range(N_MODES):
                gamma[p, q] = np.vdot(psi, ops[p] @ col)
        return gamma

    def leading_block_entropy(psi, n_block_sites):
        """Exact von Neumann entropy of the first n_block_sites sites.

        The block modes are the leading JW factors, so the spin-chain
        partial trace equals the fermionic one (no string crosses the cut).
        """
        m = psi.reshape(2 ** (2 * n_block_sites), -1)
        lam = np.linalg.eigvalsh(m @ m.conj().T)
        lam = lam[lam > 1e-14]
        return float(-np.sum(lam * np.log(lam)))

    spec = LatticeSpec(num_sites=N_SITES, mass=1.0)
    h_i = many_body(_single_particle_h(spec, MA_I))
    h_f = many_body(_single_particle_h(spec, MA_F))
    evals_i, evecs_i = np.linalg.eigh(h_i)
    evals_f, evecs_f = np.linalg.eigh(h_f)
    assert evals_i[1] - evals_i[0] > 1e-6  # unique ground state
    return {
        "spec": spec,
        "correlation": correlation,
        "leading_block_entropy": leading_block_entropy,
        "ground_i": evecs_i[:, 0],
        "e0_i": evals_i[0],
        "evals_f": evals_f,
        "evecs_f": evecs_f,
    }


def _exact_evolved(fock, eta):
    w, u = fock["evals_f"], fock["evecs_f"]
    phases = np.exp(-1j * w * eta)
    return u @ (phases * (u.conj().T @ fock["ground_i"]))


class TestGroundState:
    def test_correlation_matrix_matches_exact_ground_state(self, fock):
        state = free_ground_state(fock["spec"], MA_I)
        gamma = real_space_correlation(state)
        exact = fock["correlation"](fock["ground_i"])
        assert np.max(np.abs(gamma - exact)) < 1e-10

    def test_ground_energy_is_filled_dirac_sea(self, fock):
        eps = np.linalg.eigvalsh(_single_particle_h(fock["spec"], MA_I))
        assert fock["e0_i"] == pytest.approx(np.sum(eps[eps < 0]), abs=1e-10)

    def test_block_entropy_matches_exact_partial_trace(self, fock):
        state = free_ground_state(fock["spec"], MA_I)
        for n_block in (1, 2):
            block = BlockSpec(n_block, N_SITES)
            s_gauss = block_entropy(state, block)
            s_exact = fock["leading_block_entropy"](fock["ground_i"], n_block)
            assert s_gauss == pytest.approx(s_exact, abs=1e-8)


@pytest.fixture(scope="module")
def evolved(fock):
    state = free_ground_state(fock["spec"], MA_I)
    return evolve_free(state, QuenchProfile(MA_I, MA_F),
                       sample_grid((0.0, 1.5), 4))


class TestQuenchDynamics:
    def test_correlation_matrix_tracks_exact_evolution(self, fock, evolved):
        for i in range(1, len(evolved.etas)):
            snap = evolved.state(i)
            psi = _exact_evolved(fock, evolved.etas[i])
            gamma = real_space_correlation(snap)
            assert np.max(np.abs(gamma - fock["correlation"](psi))) < 1e-8

    def test_closed_form_matches_exact_evolution(self, fock):
        state = free_ground_state(fock["spec"], MA_I)
        etas = np.linspace(0.0, 1.5, 7)
        traj = evolve_free(state, QuenchProfile(MA_I, MA_F), etas)
        for i, eta in enumerate(etas):
            gamma = real_space_correlation(traj.state(i))
            exact = fock["correlation"](_exact_evolved(fock, eta))
            assert np.max(np.abs(gamma - exact)) < 1e-10

    def test_block_entropy_tracks_exact_evolution(self, fock, evolved):
        psi = _exact_evolved(fock, evolved.etas[-1])
        block = BlockSpec(2, N_SITES)
        s_gauss = block_entropy(evolved.state(-1), block)
        s_exact = fock["leading_block_entropy"](psi, 2)
        assert s_exact > 0.1  # the quench really entangles the block
        assert s_gauss == pytest.approx(s_exact, abs=1e-8)

    def test_contour_sums_to_exact_entropy(self, fock, evolved):
        psi = _exact_evolved(fock, evolved.etas[-1])
        block = BlockSpec(2, N_SITES)
        contour = entanglement_contour(evolved.state(-1), block)
        s_exact = fock["leading_block_entropy"](psi, 2)
        assert np.sum(contour) == pytest.approx(s_exact, abs=1e-8)

    def test_production_spectrum_matches_exact_occupations(self, fock, evolved):
        # |beta_k|^2 from the package vs exact <b_k^dag b_k> obtained by
        # projecting the evolved state's correlations on the final-vacuum
        # positive-energy eigenvectors, all in the Fock-space path
        psi = _exact_evolved(fock, evolved.etas[-1])
        exact_gamma = fock["correlation"](psi)
        spec = fock["spec"]
        ks = spec.momentum_grid()
        h_k = hamiltonian_block(ks, MA_F, 0.0, 0.0)
        _, evecs = np.linalg.eigh(h_k)
        out = bogoliubov_spectrum(evolved.state(-1), MA_F)
        for n, k in enumerate(ks):
            u_plus = evecs[n, :, 1]
            # Fourier transform the exact correlation to momentum k
            blk = np.zeros((2, 2), dtype=complex)
            for i in range(N_SITES):
                for j in range(N_SITES):
                    blk += (
                        np.exp(-1j * k * (i - j))
                        * exact_gamma[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                        / N_SITES
                    )
            beta_exact = np.vdot(u_plus, (np.eye(2) - blk) @ u_plus).real
            assert out.beta_sq[n] == pytest.approx(beta_exact, abs=1e-8)
