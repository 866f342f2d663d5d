"""Quasi-particle entropy/contour quadratures and the equilibration gate."""

import numpy as np
import pytest

from conftest import preset_run

from cosmodirac import quasiparticle
from cosmodirac.gaussian import Trajectory, free_ground_state, propagate, sample_grid
from cosmodirac.lattice import (DeSitterProfile, ExponentialProfile, LatticeSpec,
                                QuenchProfile, StaticProfile, TabulatedProfile,
                                band_velocity)
from cosmodirac.production import bogoliubov_spectrum, mode_pair_entropy
from cosmodirac.quasiparticle import (
    NonEquilibratedWindowError,
    QPInput,
    condensate_persistence,
    dressed_reference,
    horizon_width,
    qp_contour,
    qp_entropy,
    qp_input_from_spectrum,
    qp_plateau,
    renormalized_velocity,
)


NAN = float("nan")


def _flat_qp(v0=0.4, s0=0.9, length=32.0, n=64):
    ks = np.linspace(-np.pi, np.pi, n, endpoint=False)
    return QPInput(k=ks, v=np.full(n, v0), s_pair=np.full(n, s0),
                   block_length=length)


@pytest.mark.parametrize("make", [
    lambda: StaticProfile(a_val=NAN),
    lambda: QuenchProfile(a_0=NAN, a_f=1.0),
    lambda: QuenchProfile(a_0=1.0, a_f=NAN),
    lambda: ExponentialProfile(a_0=1.0, a_f=2.0, hubble=NAN),
    lambda: DeSitterProfile(hubble=NAN, eta_0=-30.0),
    lambda: TabulatedProfile(etas=(0.0, NAN, 2.0), values=(1.0, 1.0, 1.0)),
    lambda: TabulatedProfile(etas=(0.0, 1.0, 2.0), values=(1.0, NAN, 1.0)),
    lambda: qp_entropy(_flat_qp(n=16), NAN),
    lambda: qp_entropy(_flat_qp(n=16), np.array([1.0, NAN])),
    lambda: qp_contour(_flat_qp(n=16), NAN, 16.0),
    lambda: qp_contour(_flat_qp(n=16), 1.0, NAN),
], ids=["static_a_val", "quench_a_0", "quench_a_f", "exponential_hubble",
        "de_sitter_hubble", "tabulated_eta", "tabulated_value", "qp_entropy_eta",
        "qp_entropy_eta_array", "qp_contour_eta", "qp_contour_x"])
def test_nan_inputs_are_refused(make):
    # each check used to be written so that NaN passed it: the profiles were
    # built, qp_entropy returned the plateau and qp_contour zeros
    with pytest.raises(ValueError):
        make()


class TestQuadratures:
    def test_flat_input_closed_form(self):
        # constant v and s: S(eta) = s0 * min(2 v0 eta, l) at unit spacing
        qp = _flat_qp(v0=0.4, s0=0.9, length=32.0)
        for eta in (0.0, 5.0, 20.0, 39.9, 45.0, 200.0):
            expected = 0.9 * min(0.8 * eta, 32.0)
            assert qp_entropy(qp, eta) == pytest.approx(expected, rel=1e-10)
        assert qp_plateau(qp) == pytest.approx(0.9 * 32.0, rel=1e-12)

    def test_flat_input_contour_steps(self):
        qp = _flat_qp(v0=0.5, s0=1.0, length=32.0)
        eta = 10.0  # front reach = 10 sites from each edge
        xs = np.array([2.0, 9.0, 16.0, 23.0, 30.0])
        vals = qp_contour(qp, eta, xs)
        # half the modes at x have their partner beyond the nearer edge
        assert np.allclose(vals, [0.5, 0.5, 0.0, 0.5, 0.5])
        # late time: both step functions fire everywhere
        assert qp_contour(qp, 1e4, 16.0) == pytest.approx(1.0)
        assert qp_contour(qp, 0.0, 16.0) == 0.0
        # summed over the block's sites the contour is the block entropy
        sites = np.arange(32) + 0.5
        for eta in (3.0, 10.0, 40.0):
            assert np.sum(qp_contour(qp, eta, sites)) == pytest.approx(
                qp_entropy(qp, eta), rel=1e-12)

    def test_quadrature_converged_on_real_spectrum(self, monkeypatch):
        spec = LatticeSpec(num_sites=64, mass=1.0)
        state = free_ground_state(spec, 0.01)
        out = bogoliubov_spectrum(state, 10.0)
        qp = qp_input_from_spectrum(out, 32.0)
        coarse = [qp_entropy(qp, eta) for eta in (3.0, 30.0)]
        monkeypatch.setattr(quasiparticle, "QUADRATURE_POINTS", 65536)
        fine = [qp_entropy(qp, eta) for eta in (3.0, 30.0)]
        assert coarse != fine and coarse == pytest.approx(fine, rel=1e-3)

    def test_input_from_spectrum_wiring(self):
        spec = LatticeSpec(num_sites=32, mass=1.0)
        state = free_ground_state(spec, 0.01)
        out = bogoliubov_spectrum(state, 10.0)
        qp = qp_input_from_spectrum(out, 16.0)
        assert qp.block_length == 16.0
        assert np.allclose(qp.v, band_velocity(out.k, 10.0, 0.0, 0.0))
        assert np.allclose(qp.s_pair, mode_pair_entropy(out.beta_sq)[1])

    def test_validation(self):
        with pytest.raises(ValueError):
            _flat_qp(v0=-0.1)
        with pytest.raises(ValueError):
            _flat_qp(s0=5.0)
        qp = _flat_qp()
        with pytest.raises(ValueError):
            qp_entropy(qp, -1.0)
        with pytest.raises(ValueError):
            qp_contour(qp, 1.0, 40.0)

    @pytest.mark.parametrize("length", [NAN, np.inf, 0.0, -5.0])
    def test_a_block_length_that_is_not_finite_and_positive_is_refused(self, length):
        # NaN gave NaN entropies, and -5 gave qp_entropy(qp, [0, 1]) == [0, -0.5]
        with pytest.raises(ValueError, match="block_length must be finite and positive"):
            _flat_qp(length=length)

    @pytest.mark.parametrize("preset", ["fig1a", "fig1b", "fig3a", "fig3c"])
    def test_an_array_of_times_matches_scalar_calls_bit_for_bit(self, preset):
        # one refined grid for every time, as entropy_qp.csv is written
        config, traj = preset_run(preset)
        block = next(a.options["block"] for a in config.analyses if a.kind == "qp")
        spectrum = bogoliubov_spectrum(traj.state(-1), *dressed_reference(traj))
        qp = qp_input_from_spectrum(spectrum, block.length)
        etas = traj.etas - traj.etas[0]
        predicted = qp_entropy(qp, etas)
        assert isinstance(predicted, np.ndarray) and predicted.shape == etas.shape
        assert predicted.tolist() == [qp_entropy(qp, float(eta)) for eta in etas]
        assert predicted[0] == 0.0 and np.all(predicted[1:] > 0.0)

    def test_a_scalar_time_gives_a_float(self):
        qp = _flat_qp()
        for eta in (2.0, np.float64(2.0), np.array(2.0), 0.0):
            value = qp_entropy(qp, eta)
            assert type(value) is float
        assert qp_entropy(qp, 2.0) == qp_entropy(qp, np.array([2.0]))[0]
        assert qp_entropy(qp, np.zeros((2, 3))).shape == (2, 3)
        with pytest.raises(ValueError, match="nonnegative"):
            qp_entropy(qp, np.array([1.0, -1e-300, 2.0]))

    def test_validation_rejects_nan(self):
        with pytest.raises(ValueError):
            _flat_qp(v0=np.nan)
        with pytest.raises(ValueError):
            _flat_qp(s0=np.nan)


def _condensate_series(etas, sigma, pi):
    """A trajectory carrying only condensates; its states are never read."""
    n = len(etas)
    return Trajectory(etas, np.ones(n), np.zeros((n, 0, 3)), sigma, pi, spec=None)


def _synthetic_trajectory(damping, n=400, eta_max=40.0):
    etas = np.linspace(0.0, eta_max, n)
    sig = 0.3 * np.cos(2.0 * etas) * np.exp(-damping * etas) - 0.8
    return _condensate_series(etas, sig, np.zeros(n))


class TestEquilibrationGate:
    def test_persistence_ratio_separates_regimes(self):
        damped = condensate_persistence(_synthetic_trajectory(0.2))
        persistent = condensate_persistence(_synthetic_trajectory(0.0))
        assert damped < 0.05
        assert persistent > 0.8

    def test_constant_series_gives_zero(self):
        n = 50
        traj = _condensate_series(np.linspace(0, 10, n), np.full(n, -0.5),
                                  np.full(n, 0.1))
        assert condensate_persistence(traj) == 0.0
        with pytest.raises(ValueError):
            condensate_persistence(_condensate_series(np.array([0.0, 1.0]),
                                                      np.zeros(2), np.zeros(2)))

    def test_free_quench_returns_bare_group_velocity(self):
        spec = LatticeSpec(num_sites=64, mass=-1.0, coupling=0.0)
        state = free_ground_state(spec, -0.7)
        traj = propagate(state, QuenchProfile(0.7, 1.3),
                         sample_grid((0.0, 10.0), 101))
        v = renormalized_velocity(traj)
        assert v == pytest.approx(0.3, abs=1e-9)  # |ma_f + 1| = 0.3

    def test_persistent_oscillations_refuse(self):
        traj = _synthetic_trajectory(0.0)
        with pytest.raises(NonEquilibratedWindowError):
            renormalized_velocity(traj)

    def test_a_run_too_sparse_to_judge_is_refused(self):
        # two samples leave the persistence windows empty; the gate raises
        # before any dressing is read
        traj = _condensate_series(np.array([0.0, 1.0]), np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match="too sparsely sampled"):
            renormalized_velocity(traj)

    def test_dressing_is_the_last_quarter_mean_in_the_csv_rounding(self):
        # the late window of the persistence gate, and Sigma as
        # (m a_f + mean Sigma) - m a_f, as entropy_qp.csv is written
        etas = np.linspace(0.0, 8.0, 9)
        sigma, pi = 0.1 * etas + 0.01, -0.2 * etas
        traj = Trajectory(etas, np.full(9, 1.3), np.zeros((9, 0, 3)), sigma, pi,
                          spec=LatticeSpec(num_sites=4, mass=-1.0))
        late = etas >= 6.0
        ma_f = -1.0 * 1.3
        assert dressed_reference(traj) == (
            ma_f, (ma_f + float(np.mean(sigma[late]))) - ma_f, float(np.mean(pi[late])))


class TestHorizon:
    def test_width_formula_and_validation(self):
        assert horizon_width(160.0, 0.92, 0.1, 1.0 / 3.0) == pytest.approx(
            160.0 - 4.0 * 0.92 / (0.1 / 3.0)
        )
        assert horizon_width(10.0, 1.0, 0.1, 1.0) < 0.0  # cones meet
        with pytest.raises(ValueError):
            horizon_width(10.0, 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("args, name", [
        ((10.0, 1.0, NAN, 1.0), "hubble"),
        ((10.0, 1.0, 0.1, NAN), "a_0"),
        ((10.0, 1.0, 0.1, -1.0), "a_0"),
        ((NAN, 1.0, 0.1, 1.0), "block_length"),
        ((np.inf, 1.0, 0.1, 1.0), "block_length"),
        ((160.0, NAN, 0.1, 1.0 / 3.0), "v_g"),
        ((160.0, np.inf, 0.1, 1.0 / 3.0), "v_g"),
    ])
    def test_a_width_from_a_bad_input_is_refused(self, args, name):
        # NaN in any of the four used to come back as a NaN width
        with pytest.raises(ValueError, match=name):
            horizon_width(*args)
