"""Block entropies, contours, and cone fronts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosmodirac.entanglement import (
    PARTICLE_HOLE_TOL,
    BlockSpec,
    ContourField,
    InvalidStateError,
    _block_matrix,
    _mode_entropies,
    _mode_spectrum,
    block_entropy,
    cone_front,
    contour_trajectory,
    entanglement_contour,
    front_slope,
)
from cosmodirac.gaussian import (
    REFERENCE_RTOL,
    CorrelationState,
    condensates,
    evolve_adaptive,
    evolve_free,
    free_ground_state,
    real_space_correlation,
    self_consistent_ground_state,
    step_grid,
)
from cosmodirac.lattice import LatticeSpec, QuenchProfile


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
        s, _ = _mode_spectrum(gamma, contour=False)
        assert np.sum(s) == pytest.approx(np.sum(expected), rel=1e-12)
        _, contour = _mode_spectrum(gamma, contour=True)
        assert contour.shape == (3, 2)
        assert np.allclose(contour.reshape(-1), expected, rtol=1e-12)

    def test_contour_sums_to_block_entropy(self):
        spec = LatticeSpec(num_sites=32, mass=1.0)
        state = free_ground_state(spec, 0.01)
        traj = evolve_free(state, QuenchProfile(0.01, 10.0),
                           step_grid((0.0, 3.0), 1e-3, 10**9)[2])
        blk = BlockSpec(10, 32)
        contour = entanglement_contour(traj.state(-1), blk)
        assert np.all(contour >= 0.0)
        assert np.sum(contour) == pytest.approx(block_entropy(traj.state(-1), blk),
                                                abs=1e-12)

    def test_pure_state_complement_entropies_agree(self):
        spec = LatticeSpec(num_sites=24, mass=1.0)
        state = free_ground_state(spec, 0.3)
        s_a = block_entropy(state, BlockSpec(9, 24))
        s_b = block_entropy(state, BlockSpec(15, 24))
        assert s_a == pytest.approx(s_b, abs=1e-10)

    def test_deep_mass_vacuum_is_nearly_product(self):
        spec = LatticeSpec(num_sites=16, mass=50.0)
        assert block_entropy(free_ground_state(spec, 50.0), BlockSpec(6, 16)) < 1e-2

    def test_corrupted_matrix_raises(self):
        gamma = np.diag(np.full(8, 1.5)).astype(complex)
        with pytest.raises(InvalidStateError):
            _mode_spectrum(gamma, contour=False)


def _complex_contour(gamma):
    """Contour and entropy from the complex ``eigh`` of the block itself."""
    nu, u = np.linalg.eigh(gamma)
    s = _mode_entropies(nu)
    return ((np.abs(u) ** 2) @ s).reshape(-1, 2), float(np.sum(s))


def _particle_hole_block(lambdas, rng):
    """(A, W (1/2 + iA) W^dag) for a random real antisymmetric A whose
    eigenvalues are +-i lambda, with W = 1_L (x) [[1, i], [1, -i]]/sqrt(2)."""
    n = 2 * len(lambdas)
    o, _ = np.linalg.qr(rng.normal(size=(n, n)))
    a = np.zeros((n, n))
    for j, lam in enumerate(lambdas):
        a[2 * j, 2 * j + 1], a[2 * j + 1, 2 * j] = lam, -lam
    a = o @ a @ o.T
    w = np.kron(np.eye(len(lambdas)), np.array([[1, 1j], [1, -1j]]) / np.sqrt(2))
    return a, w @ (0.5 * np.eye(n) + 1j * a) @ w.conj().T


class TestSpectrumPaths:
    """Particle-hole-symmetric blocks (Pi = 0) take the real path, and agree
    with the complex ``eigh`` of the block; any other block takes the
    complex path, with the same numbers as that ``eigh`` to the bit."""

    @staticmethod
    def _free_quench_blocks():
        spec = LatticeSpec(num_sites=48, mass=1.0)
        traj = evolve_free(free_ground_state(spec, 0.01), QuenchProfile(0.01, 10.0),
                           np.linspace(0.0, 4.0, 5))
        return traj, BlockSpec(16, 48)

    @staticmethod
    def _interacting_quench_blocks():
        spec = LatticeSpec(num_sites=32, mass=1.0, coupling=1.0)
        vacuum, _ = self_consistent_ground_state(spec, 0.01)
        traj = evolve_adaptive(vacuum, QuenchProfile(0.01, 10.0), (0.0, 2.0),
                               sample_etas=np.linspace(0.0, 2.0, 5), rtol=REFERENCE_RTOL)
        assert np.max(np.abs(traj.sigma)) > 1e-3 and np.max(np.abs(traj.pi)) < 1e-12
        return traj, BlockSpec(12, 32)

    @pytest.mark.parametrize("blocks", ["_free_quench_blocks", "_interacting_quench_blocks"],
                             ids=["free", "g1_dop853"])
    def test_pi_zero_blocks_take_the_real_path(self, blocks):
        traj, blk = getattr(self, blocks)()
        for i in range(len(traj.etas)):
            state = traj.state(i)
            assert _block_matrix(state, blk)[0] <= PARTICLE_HOLE_TOL
            contour = entanglement_contour(state, blk)
            ref, entropy = _complex_contour(real_space_correlation(state, blk))
            assert np.max(np.abs(contour - ref)) < 1e-13
            assert abs(np.sum(contour) - np.sum(ref)) < 1e-12
            assert abs(block_entropy(state, blk) - entropy) < 1e-12
            if i > 0:  # entangled, so the comparison is not of zeros
                assert entropy > 0.5

    def test_random_particle_hole_blocks_match_the_complex_eigh(self, rng):
        a, gamma = _particle_hole_block(rng.uniform(0.0, 0.5, size=6), rng)
        ref, entropy = _complex_contour(gamma)
        assert np.max(np.abs(_mode_spectrum(a, contour=True)[1] - ref)) < 1e-13
        assert np.sum(_mode_spectrum(a, contour=False)[0]) == pytest.approx(entropy,
                                                                            abs=1e-12)

    def test_parity_broken_vacuum_takes_the_complex_path_bit_for_bit(self):
        spec = LatticeSpec(num_sites=32, mass=1.0, coupling=3.0)
        vacuum, _ = self_consistent_ground_state(spec, 0.01)
        assert condensates(vacuum).pi == pytest.approx(1.07, abs=0.01)
        blk = BlockSpec(10, 32)
        assert _block_matrix(vacuum, blk)[0] > 1e-2
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
        # |lambda| = 0.6: eigenvalues 1/2 +- 0.6 = -0.1 and 1.1
        a, _ = _particle_hole_block([0.6, 0.2, 0.1, 0.3], rng)
        with pytest.raises(InvalidStateError):
            _mode_spectrum(a, contour=False)
        with pytest.raises(InvalidStateError):
            _mode_spectrum(a, contour=True)


class TestContourSumRule:
    """The contour sums to the block entropy to criterion 7's 1e-10, on
    random small evolved states along both spectrum paths."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), num_sites=st.integers(2, 16).map(lambda half: 2 * half),
           released=st.booleans(), a_f=st.floats(0.5, 10.0), eta=st.floats(0.1, 6.0))
    def test_contour_sums_to_block_entropy_on_both_paths(self, data, num_sites,
                                                          released, a_f, eta):
        # a free quench keeps Pi = 0 (real path); the g = 3 vacuum, Pi = 1.07,
        # released into g = 0 does not (complex path)
        length = data.draw(st.integers(1, num_sites), label="length")
        free = LatticeSpec(num_sites=num_sites, mass=1.0)
        if released:
            state, _ = self_consistent_ground_state(
                LatticeSpec(num_sites=num_sites, mass=1.0, coupling=3.0), 0.01)
            assert condensates(state).pi == pytest.approx(1.07, abs=0.01)
            state.spec = free
        else:
            state = free_ground_state(free, 0.01)
        traj = evolve_free(state, QuenchProfile(0.01, a_f), [0.0, eta])
        blk = BlockSpec(length, num_sites)
        residual, _ = _block_matrix(traj.state(-1), blk)
        assert bool(residual > PARTICLE_HOLE_TOL) == released
        contour = entanglement_contour(traj.state(-1), blk)
        assert contour.shape == (length, 2) and np.all(contour >= 0.0)
        assert abs(np.sum(contour) - block_entropy(traj.state(-1), blk)) <= 1e-10


class TestContourField:
    def test_mirror_and_spinor_structure_without_parity_breaking(self):
        # Pi = 0 evolution: site contour symmetric about the block center
        spec = LatticeSpec(num_sites=48, mass=1.0)
        state = free_ground_state(spec, 0.01)
        traj = evolve_free(state, QuenchProfile(0.01, 10.0),
                           step_grid((0.0, 4.0), 1e-3, 1000)[2])
        field = contour_trajectory(traj, BlockSpec(16, 48))
        summed = field.spinor_summed()
        assert np.max(np.abs(summed - summed[:, ::-1])) < 1e-10

    def test_shape_validation_and_time_stride(self):
        # one slice per sample: the stride is always one
        spec = LatticeSpec(num_sites=16, mass=1.0)
        state = free_ground_state(spec, 0.01)
        traj = evolve_free(state, QuenchProfile(0.01, 10.0),
                           step_grid((0.0, 1.0), 1e-3, 100)[2])
        blk = BlockSpec(8, 16)
        field = contour_trajectory(traj, blk)
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

    def test_too_few_depths_raises(self):
        field = self._synthetic(slope=10.0, eta_max=12.0)
        with pytest.raises(InvalidStateError):
            front_slope(field)
