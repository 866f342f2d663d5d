"""Block entropies, contours, and cone fronts."""

import numpy as np
import pytest

from cosmodirac.entanglement import (
    BlockSpec,
    ContourField,
    InvalidStateError,
    block_entropy,
    cone_front,
    contour_trajectory,
    entanglement_contour,
    front_slope,
)
from cosmodirac.gaussian import (
    REFERENCE_RTOL,
    evolve_adaptive,
    evolve_free,
    free_ground_state,
    real_space_correlation,
    step_grid,
)
from cosmodirac.lattice import ExponentialProfile, LatticeSpec, QuenchProfile


def _binary(nu):
    nu = np.clip(nu, 1e-300, 1 - 1e-16)
    return -nu * np.log(nu) - (1 - nu) * np.log(1 - nu)


class TestBlockSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            BlockSpec(start=0, length=0, num_sites=8)
        with pytest.raises(ValueError):
            BlockSpec(start=6, length=4, num_sites=8)
        blk = BlockSpec.centered(4, 10)
        assert blk.start == 3
        assert np.array_equal(blk.row_indices(), np.arange(6, 14))


class TestEntropy:
    def test_diagonal_correlation_oracle(self, rng):
        # for gamma = diag(nu) the block entropy is the sum of binary
        # entropies and the contour is exactly the per-mode values
        nu = rng.uniform(0.05, 0.95, size=16)
        gamma = np.diag(nu).astype(complex)
        blk = BlockSpec(start=2, length=3, num_sites=8)
        rows = blk.row_indices()
        expected = _binary(nu[rows])
        assert block_entropy(gamma, blk) == pytest.approx(np.sum(expected), rel=1e-12)
        contour = entanglement_contour(gamma, blk)
        assert np.allclose(contour.reshape(-1), expected, rtol=1e-12)

    def test_contour_sums_to_block_entropy(self):
        spec = LatticeSpec(num_sites=32, mass=1.0)
        state = free_ground_state(spec, 0.01, a_val=0.01)
        traj = evolve_free(state, QuenchProfile(0.01, 10.0),
                           step_grid((0.0, 3.0), 1e-3, 10**9)[2])
        gamma = real_space_correlation(traj.state(-1))
        blk = BlockSpec.centered(10, 32)
        contour = entanglement_contour(gamma, blk)
        assert np.all(contour >= 0.0)
        assert np.sum(contour) == pytest.approx(block_entropy(gamma, blk), abs=1e-12)

    def test_pure_state_complement_entropies_agree(self):
        spec = LatticeSpec(num_sites=24, mass=1.0)
        state = free_ground_state(spec, 0.3, a_val=0.3)
        gamma = real_space_correlation(state)
        s_a = block_entropy(gamma, BlockSpec(0, 9, 24))
        s_b = block_entropy(gamma, BlockSpec(9, 15, 24))
        assert s_a == pytest.approx(s_b, abs=1e-10)

    def test_deep_mass_vacuum_is_nearly_product(self):
        spec = LatticeSpec(num_sites=16, mass=50.0)
        gamma = real_space_correlation(free_ground_state(spec, 50.0))
        assert block_entropy(gamma, BlockSpec.centered(6, 16)) < 1e-2

    def test_corrupted_matrix_raises(self):
        gamma = np.diag(np.full(16, 1.5)).astype(complex)
        with pytest.raises(InvalidStateError):
            block_entropy(gamma, BlockSpec(0, 4, 8))

    def test_matrix_of_neither_block_nor_chain_size_rejected(self):
        blk = BlockSpec(2, 3, 8)
        for n in (4, 10, 14):
            with pytest.raises(ValueError, match="fits neither"):
                block_entropy(np.eye(n, dtype=complex), blk)
        with pytest.raises(ValueError, match="fits neither"):
            entanglement_contour(np.eye(16, dtype=complex)[:6], blk)

    def test_block_matrix_and_dense_matrix_agree(self):
        spec = LatticeSpec(num_sites=24, mass=1.0)
        state = free_ground_state(spec, 0.3, a_val=0.3)
        blk = BlockSpec(5, 7, 24)
        dense = real_space_correlation(state)
        own = real_space_correlation(state, blk)
        assert block_entropy(own, blk) == block_entropy(dense, blk)
        assert np.array_equal(entanglement_contour(own, blk),
                              entanglement_contour(dense, blk))


class TestContourField:
    def test_mirror_and_spinor_structure_without_parity_breaking(self):
        # Pi = 0 evolution: site contour symmetric about the block center
        spec = LatticeSpec(num_sites=48, mass=1.0)
        state = free_ground_state(spec, 0.01, a_val=0.01)
        traj = evolve_free(state, QuenchProfile(0.01, 10.0),
                           step_grid((0.0, 4.0), 1e-3, 1000)[2])
        field = contour_trajectory(traj, BlockSpec.centered(16, 48))
        summed = field.spinor_summed()
        assert np.max(np.abs(summed - summed[:, ::-1])) < 1e-10

    def test_equals_contour_of_dense_matrix(self):
        # the block-local route is bit-identical to slicing the dense matrix,
        # for blocks at both chain edges and in the middle
        spec = LatticeSpec(num_sites=32, mass=-1.0, coupling=3.0)
        state = free_ground_state(spec, -0.4, a_val=0.5)
        traj = evolve_adaptive(state, ExponentialProfile(0.5, 1.5, hubble=1.0),
                               (0.0, 2.0), step_grid((0.0, 2.0), 1e-2, 40)[2],
                               rtol=REFERENCE_RTOL)
        assert len(traj.etas) == 6
        for blk in (BlockSpec(0, 9, 32), BlockSpec(23, 9, 32),
                    BlockSpec.centered(12, 32), BlockSpec(0, 32, 32)):
            field = contour_trajectory(traj, blk, time_stride=2)
            dense = [entanglement_contour(real_space_correlation(traj.state(i)), blk)
                     for i in (0, 2, 4, 5)]
            assert np.array_equal(field.values, np.array(dense))

    def test_shape_validation_and_time_stride(self):
        spec = LatticeSpec(num_sites=16, mass=1.0)
        state = free_ground_state(spec, 0.01, a_val=0.01)
        traj = evolve_free(state, QuenchProfile(0.01, 10.0),
                           step_grid((0.0, 1.0), 1e-3, 100)[2])
        field = contour_trajectory(traj, BlockSpec.centered(8, 16), time_stride=4)
        assert field.etas[-1] == traj.etas[-1]  # final slice always kept
        assert field.times is not None and field.times.shape == field.etas.shape
        with pytest.raises(ValueError):
            ContourField(etas=np.zeros(3), values=np.zeros((2, 8, 2)),
                         block=BlockSpec.centered(8, 16))


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
                            block=BlockSpec.centered(length, 2 * length))

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
