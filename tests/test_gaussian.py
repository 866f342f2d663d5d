"""Gaussian-state blocks, condensates, gap equation, and evolution."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from gap_reference import reference_ground_state
from rk4_reference import (_reference_field, _reference_rk4, reference_final_state,
                           reference_mirror_expand, step_grid)

from cosmodirac import _dop853, gaussian
from cosmodirac.entanglement import BlockSpec
from cosmodirac.gaussian import (
    REFERENCE_RTOL,
    ConvergenceError,
    CorrelationState,
    DegenerateGroundStateError,
    StepSizeError,
    Trajectory,
    blocks_from_bloch,
    condensates,
    free_ground_state,
    mean_field_energy,
    propagate,
    real_space_correlation,
    sample_grid,
    self_consistent_ground_state,
    total_energy,
)
from cosmodirac.lattice import (
    DeSitterProfile,
    ExponentialProfile,
    LatticeSpec,
    QuenchProfile,
    StaticProfile,
    TabulatedProfile,
    bloch_vector,
    dispersion,
)

# Parity-broken (Aoki) vacuum condensates at ma_eff = -0.7, g0^2 = 3,
# N_S = 128; frozen from the converged gap-equation fixed point, which is
# stable in N_S at this level well before N_S = 128.
AOKI_SIGMA = -0.13129427
AOKI_PI = 1.11376224


class TestStateRepresentation:
    def test_blocks_have_unit_trace(self, rng):
        n = rng.normal(size=(6, 3))
        g = blocks_from_bloch(n)
        assert np.allclose(np.trace(g, axis1=-2, axis2=-1), 1.0)

    def test_purity_defect_measures_bloch_norm(self):
        spec = LatticeSpec(num_sites=8)
        n = np.zeros((8, 3))
        n[:, 2] = 1.0
        state = CorrelationState(spec, n)
        assert state.purity_defect() == pytest.approx(0.0, abs=1e-15)
        n[0, 2] = 1.1  # |n|^2 = 1.21 -> defect 0.21/4
        assert CorrelationState(spec, n).purity_defect() == pytest.approx(0.0525)


class TestGroundStates:
    def test_free_ground_state_is_positive_band_projector(self):
        spec = LatticeSpec(num_sites=16, mass=1.0)
        state = free_ground_state(spec, 1.0)
        assert state.purity_defect() < 1e-14
        # energy is -sum_k eps_k (all negative modes filled)
        eps = dispersion(spec.momentum_grid(), 1.0)
        assert total_energy(state, 1.0) == pytest.approx(-np.sum(eps), rel=1e-12)

    def test_gap_closure_raises(self):
        spec = LatticeSpec(num_sites=16)
        with pytest.raises(DegenerateGroundStateError):
            free_ground_state(spec, 0.0)  # massless: gap closes at k = 0
        # the gap equation's first map, at Sigma = Pi = 0, meets the same closure
        with pytest.raises(DegenerateGroundStateError, match=r"k = \[0\.\]"):
            self_consistent_ground_state(LatticeSpec(num_sites=16, coupling=1.0), 1.0)

    @pytest.mark.parametrize("num_sites", [8, 130, 1000])
    def test_gap_map_is_the_condensates_of_the_dirac_sea(self, num_sites):
        # numpy sums fewer than 8 terms in a row, unrolls 8-way up to 128 terms
        # and halves longer sums: 8 is unrolled, 130 and 1000 are halved
        spec = LatticeSpec(num_sites=num_sites, mass=-1.0, coupling=3.0)
        rng = np.random.default_rng(num_sites)
        for ma_eff, sigma, pi in rng.normal(size=(20, 3)):
            ma_eff, sigma, pi = float(ma_eff), float(sigma), float(pi)
            cond = condensates(free_ground_state(spec, ma_eff, sigma, pi))
            assert gaussian._gap_map(spec, ma_eff)(sigma, pi) == (cond.sigma, cond.pi)

    def test_deep_mass_scalar_condensate(self):
        # for ma_eff -> +inf the lower spinor fills every site and
        # Sigma -> -g0^2 / (2 a)
        spec = LatticeSpec(num_sites=64, mass=500.0, coupling=2.0)
        state = free_ground_state(spec, 500.0)
        cond = condensates(state)
        assert cond.sigma == pytest.approx(-1.0, rel=1e-4)
        assert cond.pi == pytest.approx(0.0, abs=1e-12)

    def test_free_coupling_short_circuits_gap_equation(self):
        spec = LatticeSpec(num_sites=32, mass=1.0, coupling=0.0)
        state, cond = self_consistent_ground_state(spec, 2.0)
        assert cond.sigma == 0.0 and cond.pi == 0.0

    def test_aoki_vacuum_frozen_condensates(self):
        spec = LatticeSpec(num_sites=128, mass=-1.0, coupling=3.0)
        _, cond = self_consistent_ground_state(spec, 0.7)
        assert cond.sigma == pytest.approx(AOKI_SIGMA, abs=1e-6)
        assert abs(cond.pi) == pytest.approx(AOKI_PI, abs=1e-6)

    def test_aoki_doublet_degenerate(self):
        spec = LatticeSpec(num_sites=64, mass=-1.0, coupling=3.0)
        ma_eff = -0.7
        states = {}
        for seed in (0.5, -0.5):
            state, cond = self_consistent_ground_state(spec, 0.7, pi_seeds=(seed,))
            states[np.sign(cond.pi)] = mean_field_energy(state, ma_eff)
        assert set(states) == {1.0, -1.0}
        assert states[1.0] == pytest.approx(states[-1.0], rel=1e-12)

    def test_gap_equation_convergence_error(self):
        spec = LatticeSpec(num_sites=32, mass=-1.0, coupling=3.0)
        with pytest.raises(ConvergenceError):
            self_consistent_ground_state(spec, 0.7, max_iter=3, tol=1e-14)

    def test_a_subnormal_coupling_has_a_finite_energy(self):
        # N_S / g0^2 overflowed, and inf times the vanishing condensates made
        # the energy NaN (hypothesis found g0^2 = 2.2e-311 at N_S = 2)
        spec = LatticeSpec(num_sites=2, mass=1.0, coupling=2.225073858507e-311)
        state, cond = self_consistent_ground_state(spec, 1.0)
        assert mean_field_energy(state, 1.0) == total_energy(state, 1.0)

    @pytest.mark.parametrize("tol", [0.0, -1e-10, np.nan])
    def test_a_tolerance_that_is_not_positive_is_refused(self, tol):
        # a NaN tol used to pass the check, iterate every seed to max_iter
        # and raise a ConvergenceError that blamed the convergence
        spec = LatticeSpec(num_sites=32, mass=-1.0, coupling=3.0)
        with pytest.raises(ValueError, match="tol must be positive"):
            self_consistent_ground_state(spec, 0.7, tol=tol, max_iter=200)


def _gap_outcome(solve, spec, a_val, **kwargs):
    """What a gap solve gives, as bytes where it gives floats: the state's
    Bloch vectors and (Sigma, Pi), or the error's type, text and residuals."""
    try:
        state, cond = solve(spec, a_val, **kwargs)
    except (ConvergenceError, DegenerateGroundStateError) as exc:
        return type(exc), str(exc), repr(getattr(exc, "residuals", None))
    return state.bloch.tobytes(), np.array([cond.sigma, cond.pi]).tobytes()


class TestGapOracle:
    """The gap solve against the per-seed scalar loop kept in
    ``tests/gap_reference.py``, to the bit and to the sign of zero, so a
    faster solve can replace the library's only if it gives the same."""

    @pytest.mark.parametrize("coupling", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("mass, a_val", [(-1.0, 0.7), (1.0, 1.0), (-1.0, 1.5)])
    def test_default_seeds(self, coupling, mass, a_val):
        spec = LatticeSpec(num_sites=64, mass=mass, coupling=coupling)
        new = _gap_outcome(self_consistent_ground_state, spec, a_val)
        assert new == _gap_outcome(reference_ground_state, spec, a_val)
        # g = 1 keeps Pi = 0 here; g = 2 and 3 take the Aoki branch
        _, cond = self_consistent_ground_state(spec, a_val)
        assert (cond.pi == 0.0) == (coupling == 1.0)

    @pytest.mark.parametrize("pi_seeds", [
        (0.5, 0.5, -0.5, 0.1, 0.1),  # duplicates, mirrored and not
        (-0.5,),  # a lone negative seed wins with its own sign
        (-0.3, 0.3),  # the negative seed comes first and wins the tie
        (-0.0,), (-0.0, 0.0, -0.1), (0.0, -0.0),
        (0, -1, 2),  # ints
        (),
    ])
    @pytest.mark.parametrize("coupling", [1.0, 3.0])
    def test_seed_tuples(self, pi_seeds, coupling):
        spec = LatticeSpec(num_sites=32, mass=-1.0, coupling=coupling)
        new = _gap_outcome(self_consistent_ground_state, spec, 0.7, pi_seeds=pi_seeds)
        assert new == _gap_outcome(reference_ground_state, spec, 0.7, pi_seeds=pi_seeds)

    @pytest.mark.parametrize("max_iter", [0, 1, 3, 10])
    @pytest.mark.parametrize("pi_seeds", [(0.0, 0.1, -0.1, 0.5, -0.5), (-0.5, 0.0)])
    def test_failures_keep_their_residuals(self, max_iter, pi_seeds):
        spec = LatticeSpec(num_sites=32, mass=-1.0, coupling=3.0)
        kwargs = dict(max_iter=max_iter, tol=1e-14, pi_seeds=pi_seeds)
        new = _gap_outcome(self_consistent_ground_state, spec, 0.7, **kwargs)
        assert new[0] is ConvergenceError
        assert new == _gap_outcome(reference_ground_state, spec, 0.7, **kwargs)

    def test_a_closed_gap_names_the_first_seed_that_closes(self):
        # mass 0: the seed 0.0 closes the gap at k = 0 on its first map
        spec = LatticeSpec(num_sites=16, mass=0.0, coupling=1.0)
        for pi_seeds in [(0.0, 0.1, -0.1), (0.1, -0.0), (0.5,)]:
            new = _gap_outcome(self_consistent_ground_state, spec, 1.0, pi_seeds=pi_seeds)
            assert new == _gap_outcome(reference_ground_state, spec, 1.0,
                                       pi_seeds=pi_seeds)

    @pytest.mark.parametrize("coupling", [-1.0, -3.9201674955118198])
    @pytest.mark.parametrize("pi_seeds", [(-0.5,), (0.5, -0.5, 0.1), (0.0, -0.5)])
    def test_a_negative_coupling_iterates_every_seed(self, pi_seeds, coupling):
        # Pi' has the opposite sign of Pi there.  At the second coupling the
        # first map sends Pi = +-0.5 to exactly -+0.5, so both seeds step to
        # an exact +0.0, whose sign a solve must keep
        spec = LatticeSpec(num_sites=16, mass=1.0, coupling=coupling)
        new = _gap_outcome(self_consistent_ground_state, spec, 1.0, pi_seeds=pi_seeds)
        assert new == _gap_outcome(reference_ground_state, spec, 1.0, pi_seeds=pi_seeds)


# N_S, m, a and g0^2, attractive and repulsive, for the gap map and solve
GAP_GRID = dict(
    num_sites=st.integers(1, 32).map(lambda half: 2 * half),
    mass=st.floats(-2.0, 2.0), a_val=st.floats(0.2, 2.0),
    coupling=st.one_of(st.floats(-4.0, 4.0), st.sampled_from([-1.0, 1.0, 2.0, 3.0])),
)


def _bits(*values):
    """Floats as bytes, so that comparing them tells -0.0 from 0.0."""
    return np.array(values, dtype=float).tobytes()


class TestGapMirror:
    """The -Pi seeds the default solve leaves out could never have won."""

    @settings(max_examples=60, deadline=None)
    @given(**GAP_GRID, sigma=st.floats(-2.0, 2.0), pi=st.floats(1e-6, 2.0),
           sign=st.sampled_from([1.0, -1.0]))
    def test_gap_map_mirrors_pi(self, num_sites, mass, a_val, coupling, sigma, pi, sign):
        spec = LatticeSpec(num_sites=num_sites, mass=mass, coupling=coupling)
        gap = gaussian._gap_map(spec, mass * a_val)

        def outcome(pi):
            try:
                return _bits(*gap(sigma, pi))
            except DegenerateGroundStateError as exc:
                return str(exc)

        pi *= sign
        mirrored = outcome(-pi)
        if isinstance(mirrored, bytes):
            new_sigma, new_pi = gap(sigma, pi)
            assert mirrored == _bits(new_sigma, -new_pi)
        else:
            assert mirrored == outcome(pi)
        # Pi = +-0 is the one exception: numpy sums -0.0 terms to +0.0, so
        # both zeros map to the same (Sigma', Pi'), and an iteration that
        # lands on Pi = 0 exactly goes on the same from either side
        assert outcome(-0.0) == outcome(0.0)

    @settings(max_examples=30, deadline=None)
    @given(**GAP_GRID)
    def test_default_seeds_solve_as_the_five_mirrored_ones(self, num_sites, mass, a_val,
                                                           coupling):
        # reference_ground_state keeps the five seeds 0, +-0.1, +-0.5; a
        # failed -p seed fails as its +p does, with the same residuals
        spec = LatticeSpec(num_sites=num_sites, mass=mass, coupling=coupling)
        try:
            state, cond = reference_ground_state(spec, a_val)
        except ConvergenceError as exc:
            with pytest.raises(ConvergenceError, match=re.escape(str(exc))) as new:
                self_consistent_ground_state(spec, a_val)
            assert new.value.residuals == [(pi0, history) for pi0, history
                                           in exc.residuals if pi0 >= 0]
            return
        except DegenerateGroundStateError as exc:
            with pytest.raises(DegenerateGroundStateError, match=re.escape(str(exc))):
                self_consistent_ground_state(spec, a_val)
            return
        new_state, new_cond = self_consistent_ground_state(spec, a_val)
        assert new_state.bloch.tobytes() == state.bloch.tobytes()
        assert _bits(new_cond.sigma, new_cond.pi) == _bits(cond.sigma, cond.pi)


class TestEvolution:
    def test_purity_and_trace_conserved(self):
        spec = LatticeSpec(num_sites=64, mass=1.0)
        state = free_ground_state(spec, 0.01)
        traj = propagate(state, QuenchProfile(0.01, 10.0), sample_grid((0.0, 5.0), 11))
        states = [traj.state(i) for i in range(len(traj.etas))]
        assert max(s.purity_defect() for s in states) < 1e-10
        # total charge: tr Gamma = N_S at half filling
        for s in states:
            charge = np.trace(real_space_correlation(s)).real
            assert charge == pytest.approx(spec.num_sites, rel=1e-12)

    def test_mean_field_energy_conserved_by_interacting_flow(self):
        # static-background self-consistent dynamics conserves the
        # condensate-corrected energy functional, not the bare Wick energy
        spec = LatticeSpec(num_sites=64, mass=-1.0, coupling=3.0)
        state, _ = self_consistent_ground_state(spec, 0.7)
        traj = propagate(state, StaticProfile(a_val=1.3), sample_grid((0.0, 4.0), 11),
                         rtol=REFERENCE_RTOL)
        energies = [mean_field_energy(traj.state(i), -1.3)
                    for i in range(len(traj.etas))]
        drift = np.max(np.abs(np.diff(energies))) / abs(energies[0])
        assert drift < 1e-10

    def test_vacuum_is_stationary(self):
        spec = LatticeSpec(num_sites=32, mass=1.0, coupling=2.0)
        state, _ = self_consistent_ground_state(spec, 1.0)
        traj = propagate(state.copy(), StaticProfile(a_val=1.0),
                         sample_grid((0.0, 2.0), 2001), rtol=REFERENCE_RTOL)
        assert np.max(np.abs(traj.bloch[-1] - state.bloch)) < 1e-8

    def test_adaptive_matches_fixed_step(self):
        spec = LatticeSpec(num_sites=32, mass=1.0, coupling=1.0)
        state, _ = self_consistent_ground_state(spec, 0.7)
        prof = QuenchProfile(0.7, 1.3)
        fixed = reference_final_state(state, prof, (0.0, 3.0), 1e-4)
        adaptive = propagate(state.copy(), prof, [0.0, 3.0], rtol=1e-10)
        assert np.max(np.abs(fixed.bloch - adaptive.bloch[-1])) < 1e-8

    def test_step_longer_than_the_span_takes_one_step(self):
        # ceil(span/deta - 1e-12) is 0 once deta >= 1e12 span: a division by zero
        h, steps, etas = step_grid((0.0, 1.0), 1e13)
        assert (h, steps.tolist(), etas.tolist()) == (1.0, [0, 1], [0.0, 1.0])

    def test_times_rounded_past_the_span_are_clamped(self):
        # 19 h with h = 1e5/19 rounds to 1e5 + 1.5e-11, past the tabulated
        # domain's 1e-12 of slack, so the grid clamps the last sample time and
        # the solve never asks for a time past the span.  The free vacuum under
        # a constant a is stationary, so DOP853 crosses the span in a few steps
        h, steps, etas = step_grid((0.0, 1e5), 5263.2)
        assert steps[-1] == 19 and etas[-1] == 1e5
        spec = LatticeSpec(num_sites=4, mass=1.0)
        state = free_ground_state(spec, 1.0)
        profile = TabulatedProfile((0.0, 1e5), (1.0, 1.0))
        traj = propagate(state, profile, etas, rtol=REFERENCE_RTOL)
        assert np.array_equal(traj.etas, etas)
        assert np.all(np.isfinite(traj.bloch))

    def test_rejects_bad_spans(self):
        # an interacting lattice, so that the run is solved by DOP853
        spec = LatticeSpec(num_sites=8, mass=1.0, coupling=1.0)
        state = free_ground_state(spec, 1.0)
        with pytest.raises(ValueError):
            sample_grid((1.0, 0.0), 2)
        with pytest.raises(ValueError, match="increasing"):
            propagate(state, StaticProfile(), [1.0, 0.0])
        # the span is that of the samples: one sample has nothing to evolve
        with pytest.raises(ValueError, match="two or more sample times"):
            propagate(state, StaticProfile(), [1.0])
        with pytest.raises(ValueError, match="increasing"):
            propagate(state, StaticProfile(), [0.0, 0.5, 0.5])
        # below 100 machine epsilons the error control cannot hold the tolerance
        with pytest.raises(ValueError, match="rtol"):
            propagate(state, StaticProfile(), [0.0, 1.0], rtol=1e-15)

    def test_nan_sample_time_is_refused_before_the_solve(self):
        # a NaN sample time used to end the solve in a failed reshape; a NaN
        # span end and a trajectory with a NaN time were accepted
        state = free_ground_state(LatticeSpec(num_sites=8, mass=1.0), 1.0)
        with pytest.raises(ValueError, match="sample times"):
            propagate(state, StaticProfile(), [0.0, np.nan, 1.0])
        with pytest.raises(ValueError, match="eta_span"):
            sample_grid((0.0, np.nan), 5)
        with pytest.raises(ValueError, match="sample times"):
            Trajectory(np.array([0.0, np.nan]), np.ones(2), np.zeros((2, 8, 3)),
                       np.zeros(2), np.zeros(2), state.spec)

    def test_empty_sample_times_are_refused(self):
        # both propagators used to fail with an IndexError at the first time
        state = free_ground_state(LatticeSpec(num_sites=8, mass=1.0), 1.0)
        with pytest.raises(ValueError, match="sample times must be nonempty"):
            propagate(state, StaticProfile(), [])
        with pytest.raises(ValueError, match="sample times must be nonempty"):
            Trajectory(np.zeros(0), np.ones(0), np.zeros((0, 8, 3)),
                       np.zeros(0), np.zeros(0), state.spec)

    def test_solve_stops_at_the_first_impure_step(self, monkeypatch):
        # a radial term c n makes |n_k|^2 = exp(2 c eta) for every k, so the
        # purity defect (|n|^2 - 1)/4 passes PURITY_TOL at a known time, long
        # before the only sample after the start; the error names the step
        # over which it passed, and the solve ends there
        c = 0.1
        rate = gaussian._BlockField.rate

        def growing(field, ma, out):
            rate(field, ma, out)
            out += c * field._n

        monkeypatch.setattr(gaussian._BlockField, "rate", growing)
        spec = LatticeSpec(num_sites=16, mass=1.0, coupling=1.0)
        state, _ = self_consistent_ground_state(spec, 1.0)
        with pytest.raises(StepSizeError) as err:
            propagate(state, StaticProfile(), [0.0, 0.5])
        bracket = re.search(r"between eta = (\S+) and (\S+);", str(err.value))
        start, end = map(float, bracket.groups())
        assert start <= np.log1p(4 * gaussian.PURITY_TOL) / (2 * c) <= end
        assert end < 0.5

    def test_non_finite_field_stops_the_solve(self, monkeypatch):
        # a field that turned NaN used to be refused step after step until
        # the step size underflowed (293 evaluations), and the error blamed
        # the step size
        rate = gaussian._BlockField.rate
        calls = 0

        def turns_nan(field, ma, out):
            nonlocal calls
            calls += 1
            rate(field, ma, out)
            if calls > 30:
                out.fill(np.nan)

        monkeypatch.setattr(gaussian._BlockField, "rate", turns_nan)
        spec, state = _quenched_vacuum(16, 1.0, 1.0)
        with pytest.raises(StepSizeError, match="not finite"):
            propagate(state, StaticProfile(1.3), [0.0, 1.0])
        # no more than the rest of the step that first met the NaN
        assert 30 < calls <= 30 + _dop853.N_STAGES


class TestRealSpace:
    def test_fft_matches_direct_fourier_sum(self):
        spec = LatticeSpec(num_sites=6, mass=0.7)
        state = free_ground_state(spec, 0.7)
        gamma = real_space_correlation(state)
        ks = spec.momentum_grid()
        blocks = state.blocks
        ns = spec.num_sites
        direct = np.zeros((2 * ns, 2 * ns), dtype=complex)
        for i in range(ns):
            for j in range(ns):
                blk = np.tensordot(np.exp(1j * ks * (i - j)), blocks, axes=(0, 0)) / ns
                direct[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = blk
        assert np.max(np.abs(gamma - direct)) < 1e-12
        assert np.allclose(gamma, gamma.conj().T)

    def test_total_occupation(self):
        # tr Gamma = sum_k tr Gamma_k = N_S for half filling
        spec = LatticeSpec(num_sites=8, mass=1.0)
        state = free_ground_state(spec, 1.0)
        gamma = real_space_correlation(state)
        assert np.trace(gamma).real == pytest.approx(8.0, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(num_sites=st.integers(2, 32).map(lambda half: 2 * half),
           coupling=st.sampled_from([0.0, 1.0, 3.0]), n_steps=st.integers(1, 60),
           length=st.integers(1, 64))
    def test_block_equals_dense_sub_block(self, num_sites, coupling, n_steps, length):
        length = min(length, num_sites)
        block = BlockSpec(length, num_sites)
        spec = LatticeSpec(num_sites=num_sites, mass=1.0, coupling=coupling)
        state = free_ground_state(spec, 0.3)
        state = reference_final_state(state, QuenchProfile(0.5, 1.5), (0.0, 1.0),
                                      1.0 / n_steps)
        # a block of L sites is the chain's leading L sites, the whole chain
        # included: translation invariance makes where it starts irrelevant
        rows = np.arange(2 * block.length)
        dense = real_space_correlation(state)
        assert np.array_equal(real_space_correlation(state, block),
                              dense[np.ix_(rows, rows)])


# ---------------------------------------------------------------------------
# Bit identity against the plain per-step formulation
# ---------------------------------------------------------------------------


def _reference_condensates(spec, n):
    pref = spec.coupling / (2.0 * spec.num_sites)
    return (float(-pref * np.sum(n[:, 2])), float(pref * np.sum(n[:, 1])))


def _assert_trajectory_equals(traj, etas, blochs, spec, profile):
    assert np.array_equal(traj.etas, etas)
    assert traj.bloch.shape == (len(blochs),) + blochs[0].shape
    for i, (eta, n) in enumerate(zip(etas, blochs)):
        assert np.array_equal(traj.bloch[i], n)
        assert traj.etas[i] == eta
        assert traj.a_vals[i] == float(profile.scale_factor(eta))
        assert (traj.sigma[i], traj.pi[i]) == _reference_condensates(spec, n)
        assert np.array_equal(traj.state(i).bloch, n)


# The cases: free and interacting quench, a continuous ramp, a tabulated a,
# a static chain and a de Sitter chart, each with the time its spans start at.
BIT_IDENTITY_PROFILES = {
    "quench": (QuenchProfile(0.5, 1.5), 0.0),
    "exponential": (ExponentialProfile(0.5, 2.0, hubble=1.0), 0.0),
    "tabulated": (TabulatedProfile((0.0, 1.0, 3.0), (0.5, 1.2, 0.9)), 0.0),
    "static": (StaticProfile(1.3), 0.0),
    "de_sitter": (DeSitterProfile(hubble=0.5, eta_0=-4.0, eta_max=-0.5), -4.0),
}
BIT_IDENTITY_CASES = dict(
    num_sites=st.integers(2, 32).map(lambda half: 2 * half),
    coupling=st.sampled_from([0.0, 1.0, 3.0]),
    mass=st.sampled_from([1.0, -1.0]),
    kind=st.sampled_from(sorted(BIT_IDENTITY_PROFILES)),
)


def _quenched_vacuum(num_sites, coupling, mass):
    spec = LatticeSpec(num_sites=num_sites, mass=mass, coupling=coupling)
    return spec, free_ground_state(spec, 0.3 * mass)


def _dop853_piece(state, profile, sample_etas, rtol):
    """(bloch, nfev, evolved momenta) of DOP853 from ``state`` at
    ``sample_etas[0]`` to each sample: the private piece solver of
    ``propagate``, so free static and quench chains, which ``propagate``
    rotates in closed form, are solved by DOP853 too."""
    sample_etas = np.asarray(sample_etas, dtype=float)
    return gaussian._dop853_piece(state.spec, state.bloch, profile.scale_factor,
                                  sample_etas[0], sample_etas, rtol)


def _assert_dop853_is_scipy(state, profile, sample_etas, rtol, half, momenta):
    """The piece solver and, where ``propagate`` runs DOP853 too, its
    trajectory equal scipy's solve over the span of the samples, with the
    same nfev, on ``momenta`` momenta."""
    spec = state.spec
    span = (sample_etas[0], sample_etas[-1])
    etas, blochs, nfev = _reference_solve(state, profile, span, sample_etas, rtol, half=half)
    bloch, piece_nfev, piece_momenta = _dop853_piece(state, profile, sample_etas, rtol)
    assert np.array_equal(bloch, np.array(blochs))
    assert (piece_nfev, piece_momenta) == (nfev, momenta)
    traj = propagate(state.copy(), profile, sample_etas, rtol=rtol)
    if traj.nfev:  # not rotated in closed form
        _assert_trajectory_equals(traj, etas, blochs, spec, profile)
        assert (traj.nfev, traj.evolved_momenta) == (nfev, momenta)


def _reference_solve(state, profile, span, sample_etas, rtol, half=False):
    """scipy's DOP853 on the reference field of all N_S momenta, or with
    ``half`` on the N_S/2 + 1 of k in [-pi, 0], each sample expanded to the
    whole grid: the sample times, the (N_S, 3) samples and nfev."""
    spec = state.spec
    y0 = state.bloch[:spec.num_sites // 2 + 1] if half else state.bloch
    rhs = _reference_field(spec, profile, half=half)
    sol = solve_ivp(lambda eta, y: rhs(eta, y.reshape(-1, 3)).ravel(), span,
                    y0.ravel().copy(), method="DOP853", t_eval=sample_etas,
                    rtol=rtol, atol=1e-12)
    blochs = [y.reshape(-1, 3) for y in sol.y.T]
    if half:
        blochs = [reference_mirror_expand(n, spec.num_sites) for n in blochs]
    return sol.t, blochs, sol.nfev


class TestBitIdentity:
    """The package's DOP853 with the in-place block-field kernel reproduces
    scipy's ``solve_ivp`` on the per-step formulation of the system it
    solves: the N_S/2 + 1 momenta k in [-pi, 0] of a mirror-symmetric state,
    all N_S of any other.  No span holds a kink of a(eta) inside it, so
    ``propagate`` solves it as one piece; the free static and quench cases,
    which ``propagate`` rotates in closed form, are solved by its private
    piece solver (:func:`_assert_dop853_is_scipy`)."""

    @settings(max_examples=25, deadline=None)
    @given(**BIT_IDENTITY_CASES, rtol=st.sampled_from([1e-10, REFERENCE_RTOL]))
    def test_dop853(self, num_sites, coupling, mass, kind, rtol):
        # every case is a Pi = 0 vacuum, so it takes the half grid
        spec, state = _quenched_vacuum(num_sites, coupling, mass)
        profile, eta0 = BIT_IDENTITY_PROFILES[kind]
        sample_etas = np.linspace(eta0, eta0 + 1.0, 5)
        _assert_dop853_is_scipy(state, profile, sample_etas, rtol, True, num_sites // 2 + 1)

    @settings(max_examples=25, deadline=None)
    @given(**BIT_IDENTITY_CASES, rtol=st.sampled_from([1e-10, REFERENCE_RTOL]),
           broken=st.sampled_from(["pi", "perturbed"]), site=st.integers(0, 63))
    def test_dop853_on_the_full_grid(self, num_sites, coupling, mass, kind, rtol,
                                     broken, site):
        # a Pi != 0 vacuum, or a Pi = 0 one with one Bloch vector moved by
        # 1e-9, far past MIRROR_TOL, keeps every momentum
        spec = LatticeSpec(num_sites=num_sites, mass=mass, coupling=coupling)
        if broken == "pi":
            state = free_ground_state(spec, 0.3 * mass, 0.0, 0.2)
        else:
            state = free_ground_state(spec, 0.3 * mass)
            state.bloch[site % num_sites] += [1e-9, -1e-9, 1e-9]
        profile, eta0 = BIT_IDENTITY_PROFILES[kind]
        sample_etas = np.linspace(eta0, eta0 + 1.0, 5)
        _assert_dop853_is_scipy(state, profile, sample_etas, rtol, False, num_sites)

    @pytest.mark.parametrize("site", [0, 8, 9, 15])
    def test_a_nan_initial_state_still_raises(self, site):
        # on DOP853 a NaN fails the mirror test, so it cannot hide in the half
        # the mirror path would not read (sites 9 to 15); the closed form
        # rotates it into NaN samples, which the purity gate refuses
        _, state = _quenched_vacuum(16, 1.0, 1.0)
        state.bloch[site, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            propagate(state, StaticProfile(1.3), [0.0, 1.0])
        _, state = _quenched_vacuum(16, 0.0, 1.0)
        state.bloch[site, 0] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(StepSizeError, match="nan"):
            propagate(state, StaticProfile(1.3), [0.0, 1.0])

    @settings(max_examples=20, deadline=None)
    @given(**BIT_IDENTITY_CASES)
    def test_half_grid_samples_are_mirror_symmetric_and_accurate(self, num_sites,
                                                                 coupling, mass, kind):
        spec, state = _quenched_vacuum(num_sites, coupling, mass)
        profile, eta0 = BIT_IDENTITY_PROFILES[kind]
        span = (eta0, eta0 + 1.0)
        sample_etas = np.linspace(*span, 7)
        bloch, _, _ = _dop853_piece(state, profile, sample_etas, REFERENCE_RTOL)
        # the momenta strictly inside (-pi, 0) and their mirror partners
        inner = np.arange(1, num_sites // 2)
        n, mirrored = bloch[:, inner], bloch[:, num_sites - inner]
        assert np.array_equal(mirrored, n * [-1.0, -1.0, 1.0])
        # Pi is g0^2/(2 N_S) times a sum of n_y whose mirror pairs cancel
        # but for rounding, plus the n_y of k = -pi, where sin k rounds to
        # -1.2e-16: up to 3.9e-17 g0^2 (1.2e-16 at N_S = 22, g0^2 = 3)
        _, pi = gaussian._condensate_sums(bloch, spec)
        assert np.max(np.abs(pi)) <= 1e-16 * coupling
        _, blochs, _ = _reference_solve(state, profile, span, sample_etas, REFERENCE_RTOL)
        assert np.max(np.abs(bloch - np.array(blochs))) <= 1e-9

    @pytest.mark.parametrize("rtol", [1e-10, REFERENCE_RTOL])
    @pytest.mark.parametrize("t_eval", [[0.0, 2.5], np.linspace(0.0, 2.5, 7),
                                        [0.3, 0.31, 1.7, 2.4999, 2.5]])
    @pytest.mark.parametrize("n", [1, 2, 5, 7, 13])
    def test_dop853_on_a_general_system(self, n, t_eval, rtol):
        # any length of state, not only 3 N_S: the stage arrays the solver
        # reuses are where an aliasing fault would show
        rng = np.random.default_rng(n)
        coupling = rng.normal(size=(n, n)) / n
        rates = rng.uniform(0.5, 2.0, n)

        def f(t, y):
            return coupling @ y + np.cos(rates * t + y) - 0.1 * y**3

        y0 = rng.normal(size=n)
        sol = solve_ivp(f, (0.0, 2.5), y0, method="DOP853", t_eval=t_eval, rtol=rtol,
                        atol=1e-12)
        steps = 0

        def check(t, y):
            # a faulty stage shrinks the steps without end: fail instead
            nonlocal steps
            steps += 1
            assert steps <= sol.nfev, "more steps than scipy's evaluations"

        ys, nfev = _dop853.solve(lambda t, y, out: np.copyto(out, f(t, y)), (0.0, 2.5),
                                 y0, t_eval, rtol, 1e-12, check)
        assert np.array_equal(ys, sol.y.T)
        assert nfev == sol.nfev


# ---------------------------------------------------------------------------
# Closed-form free evolution against the reference RK4
# ---------------------------------------------------------------------------


class TestClosedForm:
    """propagate's closed form is the exact flow that RK4 approximates to O(h^4)."""

    @settings(max_examples=30, deadline=None)
    @given(num_sites=st.integers(2, 32).map(lambda half: 2 * half),
           mass=st.sampled_from([1.0, -1.0]), a_val=st.floats(0.6, 2.0),
           switch=st.one_of(st.none(), st.floats(-2.0, 0.0)),
           n_steps=st.integers(100, 200))
    def test_rk4_converges_to_it_at_fourth_order(self, num_sites, mass, a_val,
                                                 switch, n_steps):
        # a static profile, or a quench that has already happened at eta_0
        spec, state = _quenched_vacuum(num_sites, 0.0, mass)
        profile = (StaticProfile(a_val) if switch is None
                   else QuenchProfile(0.5, a_val, eta_switch=switch))
        span = (0.0, 2.0)
        gaps = []
        for n in (n_steps, 2 * n_steps):
            etas, blochs = _reference_rk4(state, profile, span, 2.0 / n, n // 4)
            exact = propagate(state.copy(), profile, etas)
            gaps.append(np.max(np.abs(exact.bloch - np.array(blochs))))
        # RK4 turns n by w h - (w h)^5/120 per step, w = 2|b_k|
        omega = 2.0 * np.max(np.linalg.norm(
            bloch_vector(spec.momentum_grid(), mass * a_val, 0.0, 0.0), axis=-1))
        h = 2.0 / n_steps
        assert gaps[0] <= 2.0 * (span[1] - span[0]) * omega**5 * h**4 / 120.0
        assert gaps[1] <= gaps[0] / 8.0

    def test_mid_span_switch_matches_chained_rk4(self):
        # RK4 across the jump in a is only first-order accurate there, so
        # the reference is one RK4 run per side, the switch on the step grid
        spec, state = _quenched_vacuum(32, 0.0, -1.0)
        before_etas, before = _reference_rk4(state, StaticProfile(0.5), (0.0, 1.0),
                                             1e-3, 100)
        after_etas, after = _reference_rk4(CorrelationState(spec, before[-1]),
                                           StaticProfile(1.5), (1.0, 3.0), 1e-3, 100)
        etas = np.concatenate([before_etas, after_etas[1:]])
        exact = propagate(state.copy(), QuenchProfile(0.5, 1.5, eta_switch=1.0), etas)
        chained = np.array(before + after[1:])
        assert np.max(np.abs(exact.bloch - chained)) < 1e-10
        assert np.array_equal(exact.a_vals, np.where(etas < 1.0, 0.5, 1.5))

    @pytest.mark.parametrize("eta0, length, deta, sample_every", [
        (0.0, 3.0, 1e-2, 7),
        (-0.0, 1.0, 1e-2, 10),
        (-1.0, 2.0, 3e-3, 50),
        # h far below the spacing of floats near eta0: repeated times drop out
        (1e8, 1e-6, 1e-9, 1),
        (1e8, 1e-6, 1e-9, 3),
    ])
    def test_sample_grid_is_the_rk4_grid(self, eta0, length, deta, sample_every):
        spec, state = _quenched_vacuum(8, 0.0, 1.0)
        profile = QuenchProfile(0.5, 1.5, eta_switch=eta0 + 0.5 * length)
        span = (eta0, eta0 + length)
        _, steps, etas = step_grid(span, deta, sample_every)
        exact = propagate(state.copy(), profile, etas)
        assert np.array_equal(exact.etas, etas)
        assert np.array_equal(exact.bloch[0], state.bloch)
        # the first time is eta0 as given, down to the sign of a zero
        assert np.signbit(etas[0]) == np.signbit(eta0)
        if eta0 == 1e8:
            assert etas.size < steps[-1] // sample_every

    @pytest.mark.parametrize("span, n_samples", [
        ((0.0, 2.0), 5),
        ((-0.3, 0.7), 13),
        ((5.0, 5.25), 7),
    ])
    def test_adaptive_sample_grid_is_the_dop853_grid(self, span, n_samples):
        # the same switch inside the span, rotated on a free lattice and
        # solved by DOP853 on an interacting one
        profile = QuenchProfile(0.5, 1.5, eta_switch=0.5 * (span[0] + span[1]))
        _, coupled = _quenched_vacuum(8, 1.0, 1.0)
        dop853 = propagate(coupled, profile, sample_grid(span, n_samples))
        _, state = _quenched_vacuum(8, 0.0, 1.0)
        exact = propagate(state, profile, sample_grid(span, n_samples))
        assert dop853.nfev > 0 and exact.nfev == 0
        assert np.array_equal(exact.etas, dop853.etas)
        assert np.array_equal(exact.a_vals, dop853.a_vals)

    def test_what_it_cannot_rotate_goes_to_dop853(self):
        # only a free lattice under a piecewise-constant a(eta) is rotated
        _, state = _quenched_vacuum(8, 0.0, 1.0)
        for profile in (StaticProfile(), QuenchProfile(0.5, 1.5, eta_switch=0.5)):
            assert propagate(state, profile, [0.0, 1.0]).nfev == 0
        ramp = ExponentialProfile(0.5, 2.0, hubble=1.0)
        assert propagate(state, ramp, [0.0, 1.0]).nfev > 0
        _, coupled = _quenched_vacuum(8, 1.0, 1.0)
        assert propagate(coupled, StaticProfile(), [0.0, 1.0]).nfev > 0

    def test_nan_sample_time_is_refused(self):
        # no rotation wrote a NaN time's row, so whether the purity gate caught
        # it depended on what memory the output array was given
        _, state = _quenched_vacuum(8, 0.0, 1.0)
        for etas in ([0.0, np.nan, 1.0], [0.0, 1.0, np.inf]):
            with pytest.raises(ValueError, match="sample times"):
                propagate(state, QuenchProfile(1.0, 2.0), etas)


# ---------------------------------------------------------------------------
# Kinks of a(eta)
# ---------------------------------------------------------------------------


class TestKinks:
    """``propagate`` ends a solve at each kink of a(eta) inside the span."""

    @pytest.mark.parametrize("pi", [0.0, 0.2], ids=["half_grid", "full_grid"])
    @pytest.mark.parametrize("profile, kink, num_sites", [
        (ExponentialProfile(0.5, 2.0, hubble=1.0), 1.5, 52),
        (TabulatedProfile((0.0, 1.0, 3.0), (0.5, 1.2, 0.9)), 1.0, 48),
    ], ids=["exponential_clamp", "tabulated_sample"])
    def test_a_run_across_a_kink_is_two_runs_split_there(self, profile, kink, num_sites,
                                                         pi):
        # one DOP853 solve across the kink used to miss the split solves by
        # 7.4e-9 and 3.9e-12 at the clamp (half and full grid), and by
        # 1.3e-11 and 2.6e-10 at the tabulated sample
        spec = LatticeSpec(num_sites=num_sites, mass=1.0, coupling=3.0)
        state = free_ground_state(spec, 0.3, 0.0, pi)
        etas = np.linspace(0.0, 3.0, 13)
        at = int(np.flatnonzero(etas == kink)[0])
        whole = propagate(state, profile, etas)
        before = propagate(state, profile, etas[:at + 1])
        after = propagate(before.state(-1), profile, etas[at:])
        assert np.max(np.abs(whole.bloch
                             - np.concatenate([before.bloch[:-1], after.bloch]))) <= 1e-12
        assert whole.nfev == before.nfev + after.nfev
        assert whole.evolved_momenta == (num_sites // 2 + 1 if pi == 0.0 else num_sites)

    def test_every_profile_names_its_kinks(self):
        assert StaticProfile(1.3).kinks == ()
        assert DeSitterProfile(hubble=0.5, eta_0=-4.0).kinks == ()
        assert QuenchProfile(0.5, 1.5, eta_switch=0.7).kinks == (0.7,)
        assert ExponentialProfile(0.5, 2.0, hubble=1.0).kinks == (0.0, 1.5)
        assert ExponentialProfile(0.5, 0.5, hubble=1.0).kinks == (0.0,)
        assert TabulatedProfile((0.0, 1.0, 2.0, 3.0), (1.0, 2.0, 1.0, 2.0)).kinks == (1.0, 2.0)
        # derived from the fields, not a field
        with pytest.raises(TypeError):
            QuenchProfile(0.5, 1.5, kinks=(1.0,))


# ---------------------------------------------------------------------------
# Invariants of the two propagators
# ---------------------------------------------------------------------------


def _unit_defect(bloch):
    """max over samples and momenta of ||n_k| - 1|."""
    return np.max(np.abs(np.linalg.norm(bloch, axis=-1) - 1.0))


class TestPropagatorInvariants:
    """What the exact flow keeps, on the closed form and on DOP853 (the
    piece solver, over spans that may cross a kink)."""

    @settings(max_examples=30, deadline=None)
    @given(num_sites=st.integers(1, 32).map(lambda half: 2 * half),
           mass=st.sampled_from([1.0, -1.0]), a_val=st.floats(0.6, 2.0),
           switch=st.one_of(st.none(), st.floats(0.0, 100.0)))
    def test_closed_form_keeps_unit_bloch_vectors(self, num_sites, mass, a_val,
                                                  switch):
        # a rotation keeps |n_k| to rounding, however far it turns
        spec, state = _quenched_vacuum(num_sites, 0.0, mass)
        profile = (StaticProfile(a_val) if switch is None
                   else QuenchProfile(0.5, a_val, eta_switch=switch))
        traj = propagate(state, profile, np.linspace(0.0, 100.0, 41))
        assert _unit_defect(traj.bloch) <= 1e-13

    @settings(max_examples=20, deadline=None)
    @given(**BIT_IDENTITY_CASES)
    def test_dop853_keeps_unit_bloch_vectors(self, num_sites, coupling, mass, kind):
        spec, state = _quenched_vacuum(num_sites, coupling, mass)
        profile, eta0 = BIT_IDENTITY_PROFILES[kind]
        bloch, _, _ = _dop853_piece(state, profile, np.linspace(eta0, eta0 + 3.0, 7),
                                    REFERENCE_RTOL)
        assert _unit_defect(bloch) <= 1e-9

    @settings(max_examples=20, deadline=None)
    @given(**BIT_IDENTITY_CASES)
    def test_dop853_keeps_pi_zero_and_the_k_parity(self, num_sites, coupling, mass,
                                                   kind):
        # with Pi = 0 the field (-sin ka / a, 0, m a + Sigma + (1 - cos ka)/a)
        # is (odd, 0, even) in k, so 2 b x n keeps n_x and n_y odd and n_z
        # even, and Pi, a sum of n_y, stays 0.  Self-partner modes (k = 0, -pi)
        # must keep n_x = n_y = 0, which DOP853 holds only to its atol.
        spec, state = _quenched_vacuum(num_sites, coupling, mass)
        assert condensates(state).pi == 0.0
        profile, eta0 = BIT_IDENTITY_PROFILES[kind]
        n, _, _ = _dop853_piece(state, profile, np.linspace(eta0, eta0 + 3.0, 7),
                                REFERENCE_RTOL)
        partner = (-np.arange(num_sites)) % num_sites  # the grid index of -k
        mirrored = n[:, partner]
        assert np.max(np.abs(gaussian._condensate_sums(n, spec)[1])) <= 1e-9
        assert np.max(np.abs(n[..., :2] + mirrored[..., :2])) <= 1e-9
        assert np.max(np.abs(n[..., 2] - mirrored[..., 2])) <= 1e-9
