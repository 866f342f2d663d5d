"""Discrete-symmetry relations, residual patterns, and spectrum checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rk4_reference import reference_final_state

from cosmodirac import symmetry
from cosmodirac.entanglement import (BlockSpec, ContourField, contour_trajectory,
                                     entanglement_contour)
from cosmodirac.gaussian import (REFERENCE_RTOL, CorrelationState, evolve_adaptive,
                                  evolve_free,
                                  free_ground_state, sample_grid,
                                  self_consistent_ground_state)
from cosmodirac.lattice import (ExponentialProfile, LatticeSpec, QuenchProfile,
                                StaticProfile)
from cosmodirac.production import bogoliubov_spectrum, spectrum_asymmetry
from cosmodirac.symmetry import (
    contour_cp_check,
    spectrum_symmetry_check,
    symmetry_report,
    time_reversal_condition_residual,
)


class TestReport:
    def test_all_five_hold_without_pseudoscalar(self):
        spec = LatticeSpec(num_sites=64)
        rep = symmetry_report(-1.3, 0.05, 0.0, spec)
        assert all(rep.holds.values())
        assert max(rep.residuals.values()) < 1e-12
        assert "T" in rep.table() and "holds" in rep.table()

    def test_pseudoscalar_breaks_c_s_p_exactly(self):
        # the pi sigma_y term is the only piece that flips under C, S, P,
        # so those residuals are exactly 2|pi|; T and CP survive
        spec = LatticeSpec(num_sites=64)
        for pi in (0.3, 1.1):
            rep = symmetry_report(-1.3, 0.05, pi, spec)
            assert rep.holds["T"] and rep.holds["CP"]
            for broken in ("C", "S", "P"):
                assert not rep.holds[broken]
                assert rep.residuals[broken] == pytest.approx(2.0 * pi, rel=1e-12)

    def test_residuals_linear_in_pseudoscalar(self):
        spec = LatticeSpec(num_sites=32)
        r1 = symmetry_report(0.4, 0.0, 0.01, spec).residuals["P"]
        r2 = symmetry_report(0.4, 0.0, 0.02, spec).residuals["P"]
        assert r2 == pytest.approx(2.0 * r1, rel=1e-10)


class TestTimeReversalCondition:
    def test_holds_only_at_reference_time(self):
        prof = ExponentialProfile(a_0=0.7, a_f=1.3, hubble=0.3)
        eta_0 = 0.5 * prof.eta_clamp
        assert time_reversal_condition_residual(prof, eta_0, eta_0) < 1e-14
        for d_eta in (0.3, 0.8):
            res = time_reversal_condition_residual(prof, eta_0, eta_0 + d_eta)
            # residual is the mass mismatch |a(eta) - a(2 eta_0 - eta)|
            expected = abs(
                float(prof.scale_factor(eta_0 + d_eta))
                - float(prof.scale_factor(eta_0 - d_eta))
            )
            assert res == pytest.approx(expected, rel=1e-10)
            assert res > 1e-3

    def test_static_background_time_reversal_everywhere(self):
        prof = StaticProfile(a_val=1.3)
        assert time_reversal_condition_residual(prof, 0.0, 7.0) < 1e-14

    @pytest.mark.parametrize("pi", [0.0, 0.5])
    def test_residual_is_the_scale_factor_mismatch(self, pi):
        # T survives the pseudo-scalar condensate (see TestReport), so only
        # the expansion breaks the condition, by |a(eta) - a(2 eta_0 - eta)|
        prof = ExponentialProfile(0.7, 1.3, hubble=1.0)
        assert time_reversal_condition_residual(prof, 0.2, 0.2, pi=pi) == 0.0
        assert time_reversal_condition_residual(
            StaticProfile(a_val=1.3), 0.2, 0.9, pi=pi) == 0.0
        res = time_reversal_condition_residual(prof, 0.2, 0.4, pi=pi)
        expected = abs(float(prof.scale_factor(0.4)) - float(prof.scale_factor(0.0)))
        assert res == pytest.approx(expected, rel=1e-12)
        assert res == pytest.approx(0.27222, abs=1e-5)


class TestContourCP:
    def test_synthetic_detector_floor(self, rng):
        blk = BlockSpec(8, 32)
        up = rng.uniform(0.0, 1.0, size=(4, 8))
        vals = np.stack([up, up[:, ::-1]], axis=-1)  # exact CP partner
        field = ContourField(etas=np.arange(4.0), values=vals, block=blk)
        assert contour_cp_check(field) == 0.0
        vals2 = vals.copy()
        vals2[2, 3, 0] += 1e-3
        field2 = ContourField(etas=np.arange(4.0), values=vals2, block=blk)
        assert contour_cp_check(field2) == pytest.approx(1e-3, rel=1e-9)

    def test_real_quench_field_respects_cp(self):
        spec = LatticeSpec(num_sites=32, mass=1.0)
        state = free_ground_state(spec, 0.01)
        traj = evolve_free(state, QuenchProfile(0.01, 10.0),
                           sample_grid((0.0, 3.0), 7))
        field = contour_trajectory(traj, BlockSpec(12, 32))
        assert contour_cp_check(field) < 1e-10

    @pytest.mark.parametrize("num_sites, length", [(32, 8), (64, 17)])
    def test_any_bloch_field_respects_cp(self, num_sites, length):
        # sigma_y Gamma_k^T sigma_y = 1 - Gamma_k for every 2 x 2 Hermitian block
        # of unit trace, so CP holds for a random unit Bloch field, one that no
        # dynamics made, while each spinor's contour is lopsided
        bloch = np.random.default_rng(num_sites).normal(size=(num_sites, 3))
        bloch /= np.linalg.norm(bloch, axis=1)[:, None]
        block = BlockSpec(length, num_sites)
        values = entanglement_contour(
            CorrelationState(LatticeSpec(num_sites=num_sites), bloch), block)
        field = ContourField(etas=np.zeros(1), values=values[None], block=block)
        up = values[:, 0]
        assert np.max(np.abs(up - up[::-1])) > 1e-2
        assert contour_cp_check(field) < 1e-13


@pytest.fixture(scope="module")
def rk4_sweep_states():
    """(spec, a_0, a_f, {hubble: final state}) of a small sweep, each ramp
    stepped by RK4 (the independent integrator) at deta = 1e-4 over
    [0, eta_clamp]; the sudden-limit rate keeps the vacuum."""
    spec = LatticeSpec(num_sites=16, mass=-1.0, coupling=3.0)
    a_0, a_f = 0.7, 1.3
    vacuum, _ = self_consistent_ground_state(spec, a_0)
    states = {}
    for hubble in (0.3, 2.0, 100.0):
        states[hubble] = vacuum
        if hubble < symmetry.QUENCH_LIMIT_HUBBLE:
            profile = ExponentialProfile(a_0=a_0, a_f=a_f, hubble=hubble)
            states[hubble] = reference_final_state(
                vacuum, profile, (0.0, profile.eta_clamp), 1e-4)
    return spec, a_0, a_f, states


class TestSpectrumSweep:
    def test_quench_limit_symmetric_slow_ramp_not(self):
        spec = LatticeSpec(num_sites=64, mass=-1.0, coupling=3.0)
        rows = spectrum_symmetry_check(spec, 0.7, 1.3, [100.0, 0.3])
        by_h = {r["hubble"]: r for r in rows}
        assert by_h[100.0]["asymmetry"] < 1e-8
        assert by_h[0.3]["asymmetry"] > 1e-3
        assert by_h[0.3]["beta_sq_sum"] > 0.0

    def test_sweep_rows_match_rk4_reference(self, rk4_sweep_states):
        spec, a_0, a_f, states = rk4_sweep_states
        rows = spectrum_symmetry_check(spec, a_0, a_f, list(states))
        for row, (hubble, state) in zip(rows, states.items(), strict=True):
            spectrum = bogoliubov_spectrum(state, spec.mass * a_f)
            assert row["hubble"] == hubble
            assert row["asymmetry"] == pytest.approx(
                spectrum_asymmetry(spectrum), rel=1e-8)
            assert row["beta_sq_sum"] == pytest.approx(
                float(np.sum(spectrum.beta_sq)), rel=1e-8)

    @settings(max_examples=25, deadline=None)
    @given(num_sites=st.integers(2, 16).map(lambda half: 2 * half),
           mass=st.sampled_from([1.0, -1.0]), coupling=st.sampled_from([0.0, 3.0]),
           hubble=st.floats(0.05, 50.0))
    def test_ramp_keeps_unit_bloch_vectors(self, num_sites, mass, coupling,
                                           hubble):
        # the sweep's propagator: one DOP853 solve over a ramp to its clamp
        spec = LatticeSpec(num_sites=num_sites, mass=mass, coupling=coupling)
        profile = ExponentialProfile(a_0=0.7, a_f=1.3, hubble=hubble)
        vacuum, _ = self_consistent_ground_state(spec, profile.a_0)
        traj = evolve_adaptive(vacuum, profile, (0.0, profile.eta_clamp),
                               sample_etas=[profile.eta_clamp],
                               rtol=REFERENCE_RTOL)
        norms = np.linalg.norm(traj.state(-1).bloch, axis=-1)
        np.testing.assert_allclose(norms, 1.0, rtol=0.0, atol=1e-9)
        assert traj.a_vals[-1] == pytest.approx(profile.a_f, rel=1e-14)

    def test_one_vacuum_solve_per_sweep(self, monkeypatch):
        solves = []

        def counted_solve(*a, **kw):
            solves.append(a)
            return solve(*a, **kw)

        solve = symmetry.self_consistent_ground_state
        monkeypatch.setattr(symmetry, "self_consistent_ground_state", counted_solve)
        spec = LatticeSpec(num_sites=8, mass=-1.0, coupling=3.0)
        hubbles = [100.0, 2.0, 0.3]
        rows = spectrum_symmetry_check(spec, 0.7, 1.3, hubbles)
        assert len(solves) == 1  # one vacuum for the whole sweep
        assert [row["hubble"] for row in rows] == hubbles
