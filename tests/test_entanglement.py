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
    evolve_free,
    free_ground_state,
    real_space_correlation,
    step_grid,
)
from cosmodirac.lattice import LatticeSpec, QuenchProfile


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


class TestEntropy:
    def test_diagonal_correlation_oracle(self, rng):
        # for gamma = diag(nu) the block entropy is the sum of binary
        # entropies and the contour is exactly the per-mode values
        nu = rng.uniform(0.05, 0.95, size=6)
        gamma = np.diag(nu).astype(complex)
        blk = BlockSpec(start=2, length=3, num_sites=8)
        expected = _binary(nu)
        assert block_entropy(gamma, blk) == pytest.approx(np.sum(expected), rel=1e-12)
        contour = entanglement_contour(gamma, blk)
        assert np.allclose(contour.reshape(-1), expected, rtol=1e-12)

    def test_contour_sums_to_block_entropy(self):
        spec = LatticeSpec(num_sites=32, mass=1.0)
        state = free_ground_state(spec, 0.01)
        traj = evolve_free(state, QuenchProfile(0.01, 10.0),
                           step_grid((0.0, 3.0), 1e-3, 10**9)[2])
        blk = BlockSpec.centered(10, 32)
        gamma = real_space_correlation(traj.state(-1), blk)
        contour = entanglement_contour(gamma, blk)
        assert np.all(contour >= 0.0)
        assert np.sum(contour) == pytest.approx(block_entropy(gamma, blk), abs=1e-12)

    def test_pure_state_complement_entropies_agree(self):
        spec = LatticeSpec(num_sites=24, mass=1.0)
        state = free_ground_state(spec, 0.3)
        a, b = BlockSpec(0, 9, 24), BlockSpec(9, 15, 24)
        s_a = block_entropy(real_space_correlation(state, a), a)
        s_b = block_entropy(real_space_correlation(state, b), b)
        assert s_a == pytest.approx(s_b, abs=1e-10)

    def test_deep_mass_vacuum_is_nearly_product(self):
        spec = LatticeSpec(num_sites=16, mass=50.0)
        blk = BlockSpec.centered(6, 16)
        gamma = real_space_correlation(free_ground_state(spec, 50.0), blk)
        assert block_entropy(gamma, blk) < 1e-2

    def test_corrupted_matrix_raises(self):
        gamma = np.diag(np.full(8, 1.5)).astype(complex)
        with pytest.raises(InvalidStateError):
            block_entropy(gamma, BlockSpec(0, 4, 8))

    def test_matrix_not_of_the_block_size_rejected(self):
        # the whole chain's 16 x 16 matrix included: only the block's own is read
        blk = BlockSpec(2, 3, 8)
        for n in (4, 10, 14, 16):
            with pytest.raises(ValueError, match="not the block's own 6 x 6"):
                block_entropy(np.eye(n, dtype=complex), blk)
            with pytest.raises(ValueError, match="not the block's own 6 x 6"):
                entanglement_contour(np.eye(n, dtype=complex), blk)
        with pytest.raises(ValueError, match="not the block's own 6 x 6"):
            entanglement_contour(np.eye(16, dtype=complex)[:6], blk)


class TestContourField:
    def test_mirror_and_spinor_structure_without_parity_breaking(self):
        # Pi = 0 evolution: site contour symmetric about the block center
        spec = LatticeSpec(num_sites=48, mass=1.0)
        state = free_ground_state(spec, 0.01)
        traj = evolve_free(state, QuenchProfile(0.01, 10.0),
                           step_grid((0.0, 4.0), 1e-3, 1000)[2])
        field = contour_trajectory(traj, BlockSpec.centered(16, 48))
        summed = field.spinor_summed()
        assert np.max(np.abs(summed - summed[:, ::-1])) < 1e-10

    def test_shape_validation_and_time_stride(self):
        spec = LatticeSpec(num_sites=16, mass=1.0)
        state = free_ground_state(spec, 0.01)
        traj = evolve_free(state, QuenchProfile(0.01, 10.0),
                           step_grid((0.0, 1.0), 1e-3, 100)[2])
        field = contour_trajectory(traj, BlockSpec.centered(8, 16), time_stride=4)
        assert len(traj.etas) == 11
        idx = [0, 4, 8, 10]  # every fourth sample, and the final one always kept
        assert np.array_equal(field.etas, traj.etas[idx])
        # the trajectory's own time axis, subset: t of those samples to the bit
        assert np.array_equal(field.times, traj.times[idx])
        assert np.array_equal(field.times, traj.profile.cosmological_time(traj.etas[idx]))
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
