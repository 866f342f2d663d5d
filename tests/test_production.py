"""Bogoliubov production spectra against closed-form two-level overlaps."""

import numpy as np
import pytest

from cosmodirac.gaussian import (
    REFERENCE_RTOL,
    StepSizeError,
    evolve_adaptive,
    evolve_free,
    free_ground_state,
    sample_grid,
)
from cosmodirac.lattice import (
    ExponentialProfile,
    LatticeSpec,
    QuenchProfile,
    bloch_vector,
)
from cosmodirac.production import (
    ProductionSpectrum,
    bogoliubov_spectrum,
    mode_pair_entropy,
    spectrum_asymmetry,
)


class TestSpectrum:
    def test_vacuum_reference_gives_zero(self):
        spec = LatticeSpec(num_sites=32, mass=1.0)
        state = free_ground_state(spec, 1.3)
        out = bogoliubov_spectrum(state, 1.3)
        assert np.max(out.beta_sq) < 1e-14

    def test_sudden_quench_matches_bloch_overlap_formula(self):
        # two-level overlap: |<u_+(final)|u_-(initial)>|^2
        #                  = (1 - b_hat_i . b_hat_f) / 2
        spec = LatticeSpec(num_sites=64, mass=1.0)
        ma_i, ma_f = 0.01, 10.0
        state = free_ground_state(spec, ma_i)
        out = bogoliubov_spectrum(state, ma_f)
        ks = spec.momentum_grid()
        b_i = bloch_vector(ks, ma_i, 0.0, 0.0)
        b_f = bloch_vector(ks, ma_f, 0.0, 0.0)
        cos = np.sum(b_i * b_f, axis=-1) / (
            np.linalg.norm(b_i, axis=-1) * np.linalg.norm(b_f, axis=-1)
        )
        assert np.max(np.abs(out.beta_sq - 0.5 * (1.0 - cos))) < 1e-13

    def test_interacting_reference_uses_dressed_block(self):
        spec = LatticeSpec(num_sites=32, mass=-1.0, coupling=3.0)
        state = free_ground_state(spec, -0.7, sigma=-0.13, pi=1.11)
        out = bogoliubov_spectrum(state, -0.7, sigma=-0.13, pi=1.11)
        assert np.max(out.beta_sq) < 1e-14
        # mismatched condensates look excited
        out2 = bogoliubov_spectrum(state, -0.7)
        assert np.max(out2.beta_sq) > 0.1

    def test_slow_ramp_is_nearly_adiabatic(self):
        spec = LatticeSpec(num_sites=32, mass=1.0)
        prof = ExponentialProfile(a_0=0.7, a_f=1.3, hubble=0.05)
        state = free_ground_state(spec, 0.7)
        span = (0.0, prof.eta_clamp + 20.0)
        traj = evolve_adaptive(state, prof, span, sample_grid(span, 2),
                               rtol=REFERENCE_RTOL)
        out = bogoliubov_spectrum(traj.state(-1), 1.3)
        assert np.max(out.beta_sq) < 1e-3

    def test_reference_gap_closure_raises(self):
        from cosmodirac.gaussian import DegenerateGroundStateError

        spec = LatticeSpec(num_sites=32, mass=1.0)
        state = free_ground_state(spec, 1.0)
        with pytest.raises(DegenerateGroundStateError):
            bogoliubov_spectrum(state, 0.0)

    def test_rejects_out_of_range_occupations(self):
        with pytest.raises(ValueError):
            ProductionSpectrum(
                k=np.array([0.0]), beta_sq=np.array([1.5]),
                reference=(1.0, 0.0, 0.0),
            )

    def test_rejects_nan_occupations(self):
        with pytest.raises(ValueError):
            ProductionSpectrum(
                k=np.array([0.0, 1.0]), beta_sq=np.array([0.2, np.nan]),
                reference=(1.0, 0.0, 0.0),
            )


class TestDerivedQuantities:
    def test_mode_pair_entropy_values(self):
        s, pair = mode_pair_entropy(0.5)
        assert s == pytest.approx(np.log(2.0))
        assert pair == pytest.approx(2.0 * np.log(2.0))
        s0, _ = mode_pair_entropy(0.0)
        s1, _ = mode_pair_entropy(1.0)
        assert s0 == 0.0 and s1 == 0.0
        arr, pairs = mode_pair_entropy(np.array([0.0, 0.5, 1.0]))
        assert np.allclose(pairs, 2.0 * arr)
        with pytest.raises(ValueError):
            mode_pair_entropy(1.2)

    def test_mode_pair_entropy_rejects_nan(self):
        # NaN used to be mapped to zero entropy
        with pytest.raises(ValueError):
            mode_pair_entropy(np.nan)
        with pytest.raises(ValueError):
            mode_pair_entropy(np.array([0.5, np.nan]))

    def test_spectrum_asymmetry(self):
        spec = LatticeSpec(num_sites=8, mass=1.0)
        beta = np.zeros(8)
        spect = ProductionSpectrum(spec.momentum_grid(), beta, (1.0, 0.0, 0.0))
        assert spectrum_asymmetry(spect) == 0.0
        beta2 = np.zeros(8)
        beta2[1] = 0.3  # partner sits at index (-1) % 8 = 7
        beta2[7] = 0.1
        spect2 = ProductionSpectrum(spec.momentum_grid(), beta2, (1.0, 0.0, 0.0))
        assert spectrum_asymmetry(spect2) == pytest.approx(0.2)

    def test_quench_spectrum_symmetric_without_parity_breaking(self):
        spec = LatticeSpec(num_sites=64, mass=1.0)
        state = free_ground_state(spec, 0.01)
        traj = evolve_free(state, QuenchProfile(0.01, 10.0),
                           sample_grid((0.0, 2.0), 2))
        out = bogoliubov_spectrum(traj.state(-1), 10.0)
        assert spectrum_asymmetry(out) < 1e-12
