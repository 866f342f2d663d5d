"""Block entropies, contours, and cone fronts."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from block_reference import block_matrix, reference_spectra
from cosmodirac import entanglement
from cosmodirac.entanglement import (
    _NU_CLIP,
    PARTICLE_HOLE_TOL,
    BlockSpec,
    ContourField,
    InvalidStateError,
    _mode_entropies,
    _mode_spectrum,
    block_entropy,
    cone_front,
    contour_trajectory,
    diagonalised_sites,
    entanglement_contour,
    entropy_trajectory,
    front_slope,
)
from cosmodirac.gaussian import (
    REFERENCE_RTOL,
    CorrelationState,
    Trajectory,
    condensates,
    free_ground_state,
    propagate,
    real_space_correlation,
    sample_grid,
    self_consistent_ground_state,
)
from cosmodirac.lattice import LatticeSpec, QuenchProfile, StaticProfile


def _binary(nu):
    nu = np.clip(nu, 1e-300, 1 - 1e-16)
    return -nu * np.log(nu) - (1 - nu) * np.log(1 - nu)


class TestBlockSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            BlockSpec(length=0, num_sites=8)
        with pytest.raises(ValueError):
            BlockSpec(length=9, num_sites=8)


class TestEntropy:
    def test_diagonal_correlation_oracle(self, rng):
        # for gamma = diag(nu) the block entropy is the sum of binary
        # entropies and the contour is exactly the per-mode values
        nu = rng.uniform(0.05, 0.95, size=6)
        gamma = np.diag(nu).astype(complex)
        expected = _binary(nu)
        entropy, _ = _mode_spectrum(gamma, sector=False, contour=False)
        assert entropy == pytest.approx(np.sum(expected), rel=1e-12)
        _, contour = _mode_spectrum(gamma, sector=False, contour=True)
        assert contour.shape == (3, 2)
        assert np.allclose(contour.reshape(-1), expected, rtol=1e-12)

    def test_contour_sums_to_block_entropy(self):
        spec = LatticeSpec(num_sites=32, mass=1.0)
        state = free_ground_state(spec, 0.01)
        traj = propagate(state, QuenchProfile(0.01, 10.0),
                         sample_grid((0.0, 3.0), 2))
        blk = BlockSpec(10, 32)
        contour = entanglement_contour(traj.state(-1), blk)
        assert np.all(contour >= 0.0)
        assert np.sum(contour) == pytest.approx(block_entropy(traj.state(-1), blk),
                                                abs=1e-12)

    def test_pure_state_complement_entropies_agree(self):
        # block_entropy takes S(15) through the 9-site complement, so S(15)
        # comes from the 15-site block's own build of block_reference
        spec = LatticeSpec(num_sites=24, mass=1.0)
        state = free_ground_state(spec, 0.3)
        s_a = block_entropy(state, BlockSpec(9, 24))
        _, sector, matrix = block_matrix(state, BlockSpec(15, 24))
        s_b, _ = _mode_spectrum(matrix, sector=sector, contour=False)
        assert s_a == pytest.approx(s_b, abs=1e-10)

    def test_deep_mass_vacuum_is_nearly_product(self):
        spec = LatticeSpec(num_sites=16, mass=50.0)
        assert block_entropy(free_ground_state(spec, 50.0), BlockSpec(6, 16)) < 1e-2

    def test_corrupted_matrix_raises(self):
        gamma = np.diag(np.full(8, 1.5)).astype(complex)
        with pytest.raises(InvalidStateError):
            _mode_spectrum(gamma, sector=False, contour=False)


def _complex_contour(gamma):
    """Contour and entropy from the complex ``eigh`` of the block itself."""
    nu, u = np.linalg.eigh(gamma)
    s = _mode_entropies(nu)
    return ((np.abs(u) ** 2) @ s).reshape(-1, 2), float(np.sum(s))


def _sector_basis(length):
    """(2L, L) basis of the P = +1 sector of a block of L sites, columns as
    in the entanglement module docstring, the middle site's u state last."""
    basis = np.zeros((2 * length, length))
    for j in range(length // 2):
        for b, p in ((0, 1.0), (1, -1.0)):
            basis[2 * j + b, 2 * j + b] = np.sqrt(0.5)
            basis[2 * (length - 1 - j) + b, 2 * j + b] = p * np.sqrt(0.5)
    if length % 2:
        basis[length - 1, length - 1] = 1.0  # the middle site's u state
    return basis


def _sector_block(lambdas, rng):
    """(H_+, Gamma_A) of a random block of L = len(lambdas) sites that has
    both symmetries: H_+ = Q diag(lambdas) Q^dag for a random unitary Q, put
    into the P = +1 sector (its basis as in the entanglement module
    docstring, middle site last) and mirrored into the P = -1 sector by
    sigma_x K."""
    length = len(lambdas)
    q, _ = np.linalg.qr(rng.normal(size=(length, length))
                        + 1j * rng.normal(size=(length, length)))
    h = q @ np.diag(lambdas) @ q.conj().T
    basis = _sector_basis(length)
    plus = basis @ h @ basis.T
    flip = np.kron(np.eye(length), np.array([[0.0, 1.0], [1.0, 0.0]]))
    return h, 0.5 * np.eye(2 * length) + 0.5 * (plus - flip @ plus.conj() @ flip)


def _random_pi_zero_state(num_sites, rng):
    """A translation-invariant Pi = 0 state: random Bloch vectors with
    n_x, n_y odd in k, n_z even and |n| <= 1, pure at about 30% of the
    momenta."""
    bloch = np.zeros((num_sites, 3))
    for n in range(1, num_sites // 2):
        v = rng.normal(size=3)
        v *= min(1.0, rng.uniform(0.3, 1.3)) / np.linalg.norm(v)
        bloch[n], bloch[num_sites - n] = v, v * [-1.0, -1.0, 1.0]
    bloch[[0, num_sites // 2], 2] = rng.uniform(-1.0, 1.0, size=2)  # k = -pi, 0
    return CorrelationState(LatticeSpec(num_sites=num_sites, mass=1.0), bloch)


def _trajectory_of(bloch, spec):
    """A trajectory holding the Bloch vectors ``bloch`` (T, N_S, 3) as its
    samples, at eta = 0, 1, ... on a static profile."""
    count = len(bloch)
    return Trajectory(etas=np.arange(float(count)), a_vals=np.ones(count), bloch=bloch,
                      sigma=np.zeros(count), pi=np.zeros(count), spec=spec,
                      profile=StaticProfile())


def _one_sample(state, block):
    """(entropy, contour, sector) of ``block`` in ``state``, through
    :func:`entropy_trajectory` and :func:`contour_trajectory` of a
    one-sample trajectory."""
    traj = _trajectory_of(state.bloch[None], state.spec)
    entropy, sector = entropy_trajectory(traj, block)
    field, contour_sector = contour_trajectory(traj, block)
    assert np.array_equal(sector, contour_sector)
    return entropy[0], field.values[0], bool(sector[0])


class TestSpectrumPaths:
    """Particle-hole-symmetric blocks (Pi = 0) take the parity-sector path,
    and agree with the complex ``eigh`` of the block; any other block takes
    the complex path, with the same numbers as that ``eigh`` to the bit."""

    @staticmethod
    def _free_quench_blocks():
        spec = LatticeSpec(num_sites=48, mass=1.0)
        traj = propagate(free_ground_state(spec, 0.01), QuenchProfile(0.01, 10.0),
                         np.linspace(0.0, 4.0, 5))
        return traj, BlockSpec(16, 48)

    @staticmethod
    def _interacting_quench_blocks():
        spec = LatticeSpec(num_sites=32, mass=1.0, coupling=1.0)
        vacuum, _ = self_consistent_ground_state(spec, 0.01)
        traj = propagate(vacuum, QuenchProfile(0.01, 10.0), np.linspace(0.0, 2.0, 5),
                         rtol=REFERENCE_RTOL)
        assert np.max(np.abs(traj.sigma)) > 1e-3 and np.max(np.abs(traj.pi)) < 1e-12
        return traj, BlockSpec(12, 32)

    @pytest.mark.parametrize("blocks", ["_free_quench_blocks", "_interacting_quench_blocks"],
                             ids=["free", "g1_dop853"])
    def test_pi_zero_blocks_take_the_parity_sector_path(self, blocks):
        traj, blk = getattr(self, blocks)()
        assert np.all(entropy_trajectory(traj, blk)[1])
        assert np.all(contour_trajectory(traj, blk)[1])
        for i in range(len(traj.etas)):
            state = traj.state(i)
            assert block_matrix(state, blk)[0] <= PARTICLE_HOLE_TOL
            contour = entanglement_contour(state, blk)
            ref, entropy = _complex_contour(real_space_correlation(state, blk))
            assert np.max(np.abs(contour - ref)) < 1e-13
            assert abs(np.sum(contour) - np.sum(ref)) < 1e-12
            assert abs(block_entropy(state, blk) - entropy) < 1e-12
            if i > 0:  # entangled, so the comparison is not of zeros
                assert entropy > 0.5

    def test_random_particle_hole_blocks_match_the_complex_eigh(self, rng):
        for length in (6, 7):
            h, gamma = _sector_block(rng.uniform(-1.0, 1.0, size=length), rng)
            ref, entropy = _complex_contour(gamma)
            contour = _mode_spectrum(h, sector=True, contour=True)[1]
            assert np.max(np.abs(contour - ref)) < 1e-13
            assert _mode_spectrum(h, sector=True, contour=False)[0] == pytest.approx(
                entropy, abs=1e-12)

    def test_parity_broken_vacuum_takes_the_complex_path_bit_for_bit(self):
        spec = LatticeSpec(num_sites=32, mass=1.0, coupling=3.0)
        vacuum, _ = self_consistent_ground_state(spec, 0.01)
        assert condensates(vacuum).pi == pytest.approx(1.07, abs=0.01)
        blk = BlockSpec(10, 32)
        assert block_matrix(vacuum, blk)[0] > 1e-2
        assert not _one_sample(vacuum, blk)[2]
        gamma = real_space_correlation(vacuum, blk)
        nu, u = np.linalg.eigh(gamma)
        expected = ((np.abs(u) ** 2) @ _mode_entropies(nu)).reshape(blk.length, 2)
        assert np.array_equal(entanglement_contour(vacuum, blk), expected)
        assert block_entropy(vacuum, blk) == float(
            np.sum(_mode_entropies(np.linalg.eigvalsh(gamma))))

    @pytest.mark.parametrize("half_filled, entry",
                             [(False, (3, 2)), (False, (3, 1)), (True, (0, 0))],
                             ids=["diagonal", "imaginary_part", "half_filled_4x4"])
    def test_a_nan_block_takes_the_complex_path(self, monkeypatch, half_filled, entry):
        # such a block used to take the complex path and return NaN cells; it
        # now raises before either path diagonalises it.  A NaN n_z reaches the
        # block's diagonal, a NaN n_y only imaginary parts; eigvalsh gives the
        # 4 x 4 block 1/2 with one NaN the finite spectrum [0, -0, 1/2, 1/2],
        # so its block_entropy used to be 2 log 2
        if half_filled:  # Gamma_k = 1/2 at every k
            blk = BlockSpec(2, 4)
            state = CorrelationState(LatticeSpec(num_sites=4, mass=1.0), np.zeros((4, 3)))
        else:
            traj, blk = self._free_quench_blocks()
            state = traj.state(-1).copy()
        state.bloch[entry] = np.nan

        def refuse(matrix):
            raise AssertionError("a block that is not finite was diagonalised")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        with pytest.raises(InvalidStateError, match="not finite"):
            block_entropy(state, blk)
        with pytest.raises(InvalidStateError, match="not finite"):
            entanglement_contour(state, blk)

    def test_particle_hole_block_outside_the_unit_interval_raises(self, rng):
        # lambda = 1.2: eigenvalues (1 +- 1.2)/2 = 1.1 and -0.1
        h, _ = _sector_block([1.2, 0.4, -0.2, 0.6], rng)
        with pytest.raises(InvalidStateError):
            _mode_spectrum(h, sector=True, contour=False)
        with pytest.raises(InvalidStateError):
            _mode_spectrum(h, sector=True, contour=True)

    def test_a_block_of_another_chain_is_refused(self, monkeypatch):
        # it used to give the 12-site block of the 16-site chain 0.6063 nats,
        # and to wrap the separations of a block longer than the chain
        state = free_ground_state(LatticeSpec(num_sites=16, mass=1.0), 0.5)

        def refuse(*args, **kwargs):
            raise AssertionError("a block of another chain reached the FFT")

        monkeypatch.setattr("cosmodirac.gaussian.ifft", refuse)
        for blk in (BlockSpec(12, 32), BlockSpec(6, 8)):
            for measure in (block_entropy, entanglement_contour):
                with pytest.raises(ValueError, match="16-site chain") as info:
                    measure(state, blk)
                assert f"{blk.num_sites}-site chain" in str(info.value)


class TestOnePassBuild:
    """The one-pass build gives the per-sample build of ``block_reference``
    to the bit: entropies, contours and paths, on Pi = 0 samples (a free
    quench, as fig1a), Pi != 0 ones (the g = 3 vacuum released into g = 0,
    as fig5) and a trajectory holding both, at L = 1, odd, even and N_S."""

    NUM_SITES = 32

    @classmethod
    def _samples(cls, released):
        free = LatticeSpec(num_sites=cls.NUM_SITES, mass=1.0)
        if released:
            state, _ = self_consistent_ground_state(
                LatticeSpec(num_sites=cls.NUM_SITES, mass=1.0, coupling=3.0), 0.01)
            state.spec = free
        else:
            state = free_ground_state(free, 0.01)
        return propagate(state, QuenchProfile(0.01, 10.0), sample_grid((0.0, 6.0), 5))

    @pytest.mark.parametrize("length", [1, 7, 12, NUM_SITES])
    @pytest.mark.parametrize("kind", ["pi_zero", "released", "both"])
    def test_matches_the_per_sample_build_bit_for_bit(self, kind, length):
        if kind == "both":
            bloch = np.concatenate([self._samples(False).bloch, self._samples(True).bloch])
            traj = _trajectory_of(bloch, LatticeSpec(num_sites=self.NUM_SITES, mass=1.0))
        else:
            traj = self._samples(kind == "released")
        blk = BlockSpec(length, self.NUM_SITES)
        entropy, sector = entropy_trajectory(traj, blk)
        field, contour_sector = contour_trajectory(traj, blk)
        ref_entropy, _, ref_sector = reference_spectra(traj, blk, contour=False)
        _, ref_values, _ = reference_spectra(traj, blk, contour=True)
        expected = {"pi_zero": [True] * 5, "released": [False] * 5,
                    "both": [True] * 5 + [False] * 5}[kind]
        assert sector.dtype == bool and sector.tolist() == expected
        assert np.array_equal(sector, ref_sector) and np.array_equal(contour_sector, ref_sector)
        assert np.array_equal(entropy, ref_entropy)
        assert np.array_equal(field.values, ref_values)
        assert np.array_equal(field.times, traj.times)
        for i in (0, len(traj.etas) - 1):  # the one-sample case
            assert block_entropy(traj.state(i), blk) == ref_entropy[i]
            assert np.array_equal(entanglement_contour(traj.state(i), blk), ref_values[i])

    @pytest.mark.parametrize("released", [False, True], ids=["pi_zero", "released"])
    def test_a_nan_sample_raises(self, monkeypatch, released):
        traj = self._samples(released)
        traj.bloch[3, 5, 2] = np.nan

        def refuse(matrix):
            raise AssertionError("a block that is not finite was diagonalised")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        blk = BlockSpec(12, self.NUM_SITES)
        for measure in (entropy_trajectory, contour_trajectory):
            with pytest.raises(InvalidStateError, match="not finite"):
                measure(traj, blk)


class TestSmallerSide:
    """A block longer than half a pure chain, 0 < N_S - L < L, is
    diagonalised through its complement (module docstring).  On exact
    closed-form states (the samples of :class:`TestOnePassBuild`) it agrees
    with the block's own build of ``block_reference``: the entropy differs
    by the block side's _NU_CLIP floor, 2(2L - N_S) s(1e-14), to within
    1e-12 (measured at most 8.7e-14), the contour by 1e-12 per site
    (measured at most 8.7e-13), and the contour keeps the sum rule.
    LatticeSpec takes only even chains, so N_S = 34 stands in for the odd
    one: there L = 17 is half the chain and keeps the block side, to the
    bit.  L = N_S/2, L = N_S and a mixed state never reach the complement.
    """

    @staticmethod
    def _trajectory(num_sites, kind):
        free = LatticeSpec(num_sites=num_sites, mass=1.0)

        def samples(released):
            if released:
                state, _ = self_consistent_ground_state(
                    LatticeSpec(num_sites=num_sites, mass=1.0, coupling=3.0), 0.01)
                state.spec = free
            else:
                state = free_ground_state(free, 0.01)
            return propagate(state, QuenchProfile(0.01, 10.0), sample_grid((0.0, 6.0), 5))

        if kind == "both":
            return _trajectory_of(np.concatenate([samples(False).bloch,
                                                  samples(True).bloch]), free)
        return samples(kind == "released")

    @staticmethod
    def _spy(monkeypatch):
        """What :func:`_spectra` hands ``_mode_spectrum``, (matrix, sector,
        cross) per block, in a list."""
        seen, real = [], entanglement._mode_spectrum

        def spy(matrix, sector, contour, cross=None):
            seen.append((matrix, sector, cross))
            return real(matrix, sector, contour, cross)

        monkeypatch.setattr(entanglement, "_mode_spectrum", spy)
        return seen

    @pytest.mark.parametrize("kind", ["pi_zero", "released", "both"])
    @pytest.mark.parametrize("length", [17, 20, 25, 31])
    @pytest.mark.parametrize("num_sites", [32, 34])
    def test_matches_the_block_side(self, num_sites, length, kind):
        traj = self._trajectory(num_sites, kind)
        blk = BlockSpec(length, num_sites)
        entropy, sector = entropy_trajectory(traj, blk)
        field, _ = contour_trajectory(traj, blk)
        ref_entropy, _, ref_sector = reference_spectra(traj, blk, contour=False)
        _, ref_values, _ = reference_spectra(traj, blk, contour=True)
        assert np.array_equal(sector, ref_sector)
        if 2 * length == num_sites:
            assert diagonalised_sites(traj.bloch, blk) == length
            assert np.array_equal(entropy, ref_entropy)
            assert np.array_equal(field.values, ref_values)
            return
        assert diagonalised_sites(traj.bloch, blk) == num_sites - length
        floor = 2 * (2 * length - num_sites) * _mode_entropies(np.float64(_NU_CLIP))
        assert np.max(np.abs(ref_entropy - entropy - floor)) <= 1e-12
        assert np.max(np.abs(field.values - ref_values)) <= 1e-12
        assert np.all(field.values >= 0.0)
        assert np.max(np.abs(field.values.sum(axis=(1, 2)) - entropy)) <= 1e-12
        assert np.min(entropy[1:]) > 0.5  # entangled, so not a comparison of zeros

    @pytest.mark.parametrize("length", [17, 20])
    def test_cross_blocks_are_the_dense_projections(self, monkeypatch, length):
        # the gathered matrices against the whole chain's dense Gamma: on
        # the sector path Q_B^T G_B Q_B and Q_A^T G_AB Q_B with G = 2 Gamma - 1
        # and Q the sector bases, on the complex path Gamma_B and Gamma_AB
        num_sites, seen = 32, self._spy(monkeypatch)
        a, b = slice(0, 2 * length), slice(2 * length, None)
        q_a, q_b = _sector_basis(length), _sector_basis(num_sites - length)
        for kind, on_sector in (("pi_zero", True), ("released", False)):
            state = self._trajectory(num_sites, kind).state(-1)
            entanglement_contour(state, BlockSpec(length, num_sites))
            matrix, sector, cross = seen.pop()
            assert sector == on_sector
            gamma = real_space_correlation(state)
            if sector:
                g = 2.0 * gamma - np.eye(2 * num_sites)
                assert np.max(np.abs(matrix - q_b.T @ g[b, b] @ q_b)) <= 1e-15
                assert np.max(np.abs(cross - q_a.T @ g[a, b] @ q_b)) <= 1e-15
            else:
                assert np.array_equal(matrix, gamma[b, b])
                assert np.array_equal(cross, gamma[a, b])

    @pytest.mark.parametrize("length", [16, 32], ids=["half", "whole"])
    def test_half_and_whole_chain_keep_the_block(self, monkeypatch, length):
        seen = self._spy(monkeypatch)
        traj = self._trajectory(32, "both")
        blk = BlockSpec(length, 32)
        assert diagonalised_sites(traj.bloch, blk) == length
        entropy_trajectory(traj, blk)
        contour_trajectory(traj, blk)
        assert len(seen) == 2 * len(traj.etas)
        for matrix, sector, cross in seen:
            assert cross is None and len(matrix) == (length if sector else 2 * length)

    def test_a_mixed_state_keeps_the_block(self, monkeypatch):
        # the identities need Gamma^2 = Gamma; this state is mixed at most momenta
        state = _random_pi_zero_state(32, np.random.default_rng(5))
        assert state.purity_defect() > 1e-2
        blk = BlockSpec(25, 32)
        assert diagonalised_sites(state.bloch[None], blk) == 25
        seen = self._spy(monkeypatch)
        entropy, contour, _ = _one_sample(state, blk)
        assert all(cross is None for _, _, cross in seen)
        ref, ref_entropy = _complex_contour(real_space_correlation(state, blk))
        assert np.max(np.abs(contour - ref)) <= 1e-13
        assert abs(entropy - ref_entropy) <= 1e-12


class TestContourSumRule:
    """The contour sums to the block entropy to criterion 7's 1e-10, on
    random small evolved states along both spectrum paths."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), num_sites=st.integers(2, 16).map(lambda half: 2 * half),
           released=st.booleans(), a_f=st.floats(0.5, 10.0), eta=st.floats(0.1, 6.0))
    def test_contour_sums_to_block_entropy_on_both_paths(self, data, num_sites,
                                                          released, a_f, eta):
        # a free quench keeps Pi = 0 (parity-sector path); the g = 3 vacuum,
        # Pi = 1.07, released into g = 0 does not (complex path)
        length = data.draw(st.integers(1, num_sites), label="length")
        free = LatticeSpec(num_sites=num_sites, mass=1.0)
        if released:
            state, _ = self_consistent_ground_state(
                LatticeSpec(num_sites=num_sites, mass=1.0, coupling=3.0), 0.01)
            assert condensates(state).pi == pytest.approx(1.07, abs=0.01)
            state.spec = free
        else:
            state = free_ground_state(free, 0.01)
        traj = propagate(state, QuenchProfile(0.01, a_f), [0.0, eta])
        blk = BlockSpec(length, num_sites)
        residual = block_matrix(traj.state(-1), blk)[0]
        sector = bool(entropy_trajectory(traj, blk)[1][-1])
        assert bool(residual > PARTICLE_HOLE_TOL) == released != sector
        contour = entanglement_contour(traj.state(-1), blk)
        assert contour.shape == (length, 2) and np.all(contour >= 0.0)
        assert abs(np.sum(contour) - block_entropy(traj.state(-1), blk)) <= 1e-10


@st.composite
def _chain_and_block(draw):
    num_sites = 2 * draw(st.integers(1, 16))
    return num_sites, draw(st.sampled_from([1, num_sites]) | st.integers(1, num_sites))


class TestParitySector:
    """On random Pi = 0 states the parity-sector path gives the contour of
    the complex ``eigh`` of the block to 1e-13 per site and its entropy to
    1e-12, at every block length, odd ones, L = 1 and L = N_S included."""

    @settings(max_examples=200, deadline=None)
    @given(chain=_chain_and_block(), seed=st.integers(0, 2**32 - 1))
    @example(chain=(2, 1), seed=0)
    @example(chain=(32, 32), seed=1)
    @example(chain=(32, 15), seed=2)
    def test_sector_path_matches_the_complex_eigh(self, chain, seed):
        num_sites, length = chain
        state = _random_pi_zero_state(num_sites, np.random.default_rng(seed))
        blk = BlockSpec(length, num_sites)
        entropy, contour, sector = _one_sample(state, blk)
        assert sector
        h = block_matrix(state, blk)[2]
        assert h.shape == (length, length) and np.max(np.abs(h - h.conj().T)) <= 1e-15
        ref, ref_entropy = _complex_contour(real_space_correlation(state, blk))
        assert np.max(np.abs(contour - ref)) <= 1e-13
        assert abs(entropy - ref_entropy) <= 1e-12
        # mirror-symmetric and spinor-balanced to the bit
        assert np.array_equal(contour, contour[::-1])
        assert np.array_equal(contour[:, 0], contour[:, 1])


class TestContourField:
    def test_mirror_and_spinor_structure_without_parity_breaking(self):
        # Pi = 0 evolution: site contour symmetric about the block center
        spec = LatticeSpec(num_sites=48, mass=1.0)
        state = free_ground_state(spec, 0.01)
        traj = propagate(state, QuenchProfile(0.01, 10.0),
                         sample_grid((0.0, 4.0), 5))
        field, _ = contour_trajectory(traj, BlockSpec(16, 48))
        summed = field.spinor_summed()
        assert np.max(np.abs(summed - summed[:, ::-1])) < 1e-10

    def test_shape_validation_and_time_stride(self):
        # one slice per sample: the stride is always one
        spec = LatticeSpec(num_sites=16, mass=1.0)
        state = free_ground_state(spec, 0.01)
        traj = propagate(state, QuenchProfile(0.01, 10.0),
                         sample_grid((0.0, 1.0), 11))
        blk = BlockSpec(8, 16)
        field, _ = contour_trajectory(traj, blk)
        assert len(traj.etas) == 11 and field.values.shape == (11, 8, 2)
        assert np.array_equal(field.etas, traj.etas)
        # the trajectory's own time axis: t of every sample to the bit
        assert np.array_equal(field.times, traj.times)
        assert np.array_equal(field.times, traj.profile.cosmological_time(traj.etas))
        for i in (0, 10):
            assert np.array_equal(field.values[i], entanglement_contour(traj.state(i), blk))
        with pytest.raises(ValueError):
            ContourField(etas=np.zeros(3), values=np.zeros((2, 8, 2)), block=blk)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1e-3])
    def test_non_finite_or_negative_values_are_refused(self, bad):
        # an any(values < 0) test lets NaN through, and cone_front then
        # blames a contour that vanishes everywhere
        with pytest.raises(InvalidStateError, match="non-finite or negative"):
            ContourField(etas=np.arange(3.0), values=np.full((3, 4, 2), bad),
                         block=BlockSpec(4, 8))


class TestConeFront:
    @staticmethod
    def _synthetic(slope, length=40, n_t=200, eta_max=20.0):
        etas = np.linspace(0.0, eta_max, n_t)
        vals = np.zeros((n_t, length, 2))
        for d in range(length // 2):
            arrive = slope * (d + 0.5)
            for col in (d, length - 1 - d):
                # smooth ramp from 0 to 1 over one time unit after arrival
                vals[:, col, 0] = np.clip(etas - arrive, 0.0, 1.0) * 0.5
                vals[:, col, 1] = vals[:, col, 0]
        return ContourField(etas=etas, values=vals,
                            block=BlockSpec(length, 2 * length))

    def test_recovers_synthetic_ballistic_slope(self):
        field = self._synthetic(slope=1.7)
        depths, arrivals = cone_front(field)
        assert depths.size > 4
        # threshold crossing shifts every arrival by the same constant,
        # so the fitted slope is exact
        assert front_slope(field) == pytest.approx(1.7, rel=1e-6)

    def test_unreached_depths_are_dropped(self):
        field = self._synthetic(slope=4.0, eta_max=30.0)
        depths, _ = cone_front(field)
        assert depths.size < field.block.length // 2 - 8
        assert np.all(4.0 * depths < 30.0)

    def test_a_dark_band_at_rounding_level_does_not_move_the_front(self):
        # fig4's band sits near 1e-9, and its level moves with the solver's
        # rtol; an absolute 1e-9 cut counted it in one run and not the other
        fronts = []
        for floor in (1.6e-9, 1.3e-10):
            field = self._synthetic(slope=1.7)
            dark = np.all(field.values == 0.0, axis=(0, 2))
            assert 0 < dark.sum() < field.block.length // 2
            # final values that differ from site to site, so the median sees the band
            length = field.block.length
            depth = np.minimum(np.arange(length), length - 1 - np.arange(length))
            values = field.values / (1.0 + depth)[:, None]
            values[:, dark] = floor / 2
            fronts.append(cone_front(ContourField(field.etas, values, field.block)))
        (depths, arrivals), (depths_low, arrivals_low) = fronts
        assert depths.size > 4
        assert np.array_equal(depths, depths_low)
        assert np.array_equal(arrivals, arrivals_low)

    def test_a_vanishing_contour_raises(self):
        field = self._synthetic(slope=1.7)
        with pytest.raises(InvalidStateError, match="vanishes everywhere"):
            cone_front(ContourField(field.etas, np.zeros_like(field.values), field.block))

    def test_too_few_depths_raises(self):
        field = self._synthetic(slope=10.0, eta_max=12.0)
        with pytest.raises(InvalidStateError):
            front_slope(field)
