"""Lattice geometry, scale factors, dispersion, and group velocity."""

import numpy as np
import pytest
from scipy.integrate import quad

from cosmodirac.lattice import (
    GAMMA0,
    GAMMA1,
    DeSitterProfile,
    DomainError,
    ExponentialProfile,
    LatticeSpec,
    QuenchProfile,
    StaticProfile,
    TabulatedProfile,
    band_velocity,
    bloch_vector,
    dispersion,
    group_velocity,
    hamiltonian_block,
)


class TestGammaAlgebra:
    def test_defining_relations(self):
        ident = np.eye(2)
        assert np.allclose(GAMMA0, GAMMA0.conj().T)
        assert np.allclose(GAMMA0 @ GAMMA0, ident)
        assert np.allclose(GAMMA1 @ GAMMA1, -ident)
        assert np.allclose(GAMMA0 @ GAMMA1 + GAMMA1 @ GAMMA0, 0.0)


class TestLatticeSpec:
    def test_rejects_odd_or_tiny_chains(self):
        with pytest.raises(ValueError):
            LatticeSpec(num_sites=5)
        with pytest.raises(ValueError):
            LatticeSpec(num_sites=0)

    def test_momentum_grid_uniform_and_symmetric(self):
        spec = LatticeSpec(num_sites=16)
        ks = spec.momentum_grid()
        assert ks.size == 16
        dk = np.diff(ks)
        assert np.allclose(dk, 2 * np.pi / 16)
        # every k has a partner -k on the grid (identifying +-pi)
        refl = (-np.arange(16)) % 16  # k -> -k
        period = 2 * np.pi
        folded = (ks[refl] + ks) % period
        assert np.allclose(np.minimum(folded, period - folded), 0.0, atol=1e-12)
        assert np.array_equal(refl[refl], np.arange(16))


class TestProfiles:
    def test_static_is_constant_and_linear_in_time(self):
        prof = StaticProfile(a_val=2.5)
        assert np.allclose(prof.scale_factor([-3.0, 0.0, 7.0]), 2.5)
        etas = np.array([-1.0, 0.3, 4.0])
        assert np.allclose(prof.cosmological_time(etas), 2.5 * etas)

    def test_exponential_profile_values_and_duration(self):
        prof = ExponentialProfile(a_0=0.01, a_f=10.0, hubble=1.0)
        # a(t) = a_0 e^{Ht} rewritten in conformal time
        assert prof.scale_factor(0.0) == pytest.approx(0.01)
        assert prof.scale_factor(-5.0) == pytest.approx(0.01)  # asymptotic in-region
        assert prof.scale_factor(1e9) == pytest.approx(10.0)  # clamped out-region
        # the ramp lasts Delta t = (1/H) log(a_f/a_0) in cosmological time
        assert prof.cosmological_time(prof.eta_clamp) == pytest.approx(
            np.log(1000.0), rel=1e-12)
        eta_mid = 0.5 * prof.eta_clamp
        expected = 0.01 / (1.0 - 0.01 * eta_mid)
        assert prof.scale_factor(eta_mid) == pytest.approx(expected, rel=1e-12)

    def test_exponential_duration_matches_numerical_inversion(self):
        # cross-check Delta t = (1/H) log(a_f/a_0) by integrating a(eta)
        prof = ExponentialProfile(a_0=0.01, a_f=10.0, hubble=1.0)
        t_ramp, _ = quad(lambda e: float(prof.scale_factor(e)), 0.0, prof.eta_clamp,
                         limit=400)
        assert t_ramp == pytest.approx(np.log(1000.0), rel=1e-8)

    def test_exponential_round_trip(self):
        # back to eta through a(t) = a_0 e^{Ht} on the ramp, d eta = dt / a(t)
        prof = ExponentialProfile(a_0=0.7, a_f=1.3, hubble=0.3)
        etas = np.linspace(-2.0, 2.0 + prof.eta_clamp, 41)
        ts = prof.cosmological_time(etas)
        t_c = np.log(1.3 / 0.7) / 0.3
        back = np.where(ts < 0, ts / 0.7, np.where(
            ts < t_c, -np.expm1(-0.3 * ts) / (0.7 * 0.3),
            prof.eta_clamp + (ts - t_c) / 1.3))
        assert np.allclose(back, etas, atol=1e-12)

    def test_quench_profile_is_a_sharp_switch(self):
        prof = QuenchProfile(a_0=0.7, a_f=1.3)
        assert prof.scale_factor(-1e-12) == pytest.approx(0.7)
        assert prof.scale_factor(0.0) == pytest.approx(1.3)
        etas = np.array([-2.0, -0.5, 0.5, 2.0])
        assert np.allclose(prof.cosmological_time(etas), [-1.4, -0.35, 0.65, 2.6])

    def test_de_sitter_caption_values(self):
        prof = DeSitterProfile(hubble=0.1, eta_0=-30.0)
        assert prof.scale_factor(-30.0) == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert prof.a_0 == pytest.approx(1.0 / 3.0, rel=1e-12)
        # reference point t(eta_0) = 0 and closed form t = (1/H) log(eta_0/eta)
        assert prof.cosmological_time(-30.0) == pytest.approx(0.0, abs=1e-12)
        t_end = prof.cosmological_time(-0.001362)
        assert t_end == pytest.approx(10.0 * np.log(30.0 / 0.001362), rel=1e-12)
        assert t_end == pytest.approx(100.0, abs=0.01)

    def test_de_sitter_domain_errors(self):
        prof = DeSitterProfile(hubble=0.1, eta_0=-30.0, eta_max=-0.01)
        with pytest.raises(DomainError):
            prof.scale_factor(0.5)
        with pytest.raises(DomainError):
            prof.scale_factor(-31.0)
        with pytest.raises(ValueError):
            DeSitterProfile(hubble=0.1, eta_0=-1.0, eta_max=1.0)

    def test_de_sitter_round_trip(self):
        # back to eta through a(t) = a_0 e^{Ht}: eta = eta_0 e^{-Ht}
        prof = DeSitterProfile(hubble=0.1, eta_0=-30.0)
        etas = np.linspace(-30.0, -0.01, 17)
        ts = prof.cosmological_time(etas)
        assert np.allclose(-30.0 * np.exp(-0.1 * ts), etas, rtol=1e-12)

    def test_preparation_scale_uses_incoming_side_of_quench(self):
        from cosmodirac.lattice import preparation_scale

        prof = QuenchProfile(a_0=0.7, a_f=1.3)
        # a(0) is already post-quench, but the state is prepared pre-quench
        assert prof.scale_factor(0.0) == pytest.approx(1.3)
        assert preparation_scale(prof, 0.0) == pytest.approx(0.7)
        assert preparation_scale(prof, 2.0) == pytest.approx(1.3)
        assert preparation_scale(StaticProfile(a_val=2.0), 5.0) == pytest.approx(2.0)

    def test_tabulated_matches_linear_interpolation(self):
        prof = TabulatedProfile(etas=(0.0, 1.0, 3.0), values=(1.0, 2.0, 2.0))
        assert prof.scale_factor(0.5) == pytest.approx(1.5)
        with pytest.raises(DomainError):
            prof.scale_factor(4.0)
        t = prof.cosmological_time(2.0)
        assert t == pytest.approx(1.5 + 2.0, rel=1e-8)  # piecewise areas
        with pytest.raises(ValueError):
            TabulatedProfile(etas=(0.0, 0.0), values=(1.0, 1.0))
        with pytest.raises(ValueError):
            TabulatedProfile(etas=(0.0, 1.0), values=(1.0, -1.0))

    # every parameter of every profile, with valid values for the others
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("make, name", [
        (lambda x: StaticProfile(a_val=x), "a_val"),
        (lambda x: ExponentialProfile(a_0=x, a_f=2.0, hubble=1.0), "a_0"),
        (lambda x: ExponentialProfile(a_0=1.0, a_f=x, hubble=1.0), "a_f"),
        (lambda x: ExponentialProfile(a_0=1.0, a_f=2.0, hubble=x), "hubble"),
        (lambda x: QuenchProfile(a_0=x, a_f=1.0), "a_0"),
        (lambda x: QuenchProfile(a_0=0.5, a_f=x), "a_f"),
        (lambda x: QuenchProfile(a_0=0.5, a_f=1.0, eta_switch=x), "eta_switch"),
        (lambda x: DeSitterProfile(hubble=x, eta_0=-30.0), "hubble"),
        (lambda x: DeSitterProfile(hubble=0.1, eta_0=x), "eta_0"),
        (lambda x: DeSitterProfile(hubble=0.1, eta_0=-30.0, eta_max=x), "eta_max"),
        (lambda x: TabulatedProfile(etas=(0.0, x), values=(1.0, 2.0)), "etas"),
        (lambda x: TabulatedProfile(etas=(x, 1.0), values=(1.0, 2.0)), "etas"),
        (lambda x: TabulatedProfile(etas=(0.0, 1.0), values=(1.0, x)), "values"),
    ], ids=["static-a_val", "exponential-a_0", "exponential-a_f", "exponential-hubble",
            "quench-a_0", "quench-a_f", "quench-eta_switch", "de_sitter-hubble",
            "de_sitter-eta_0", "de_sitter-eta_max", "tabulated-last_eta",
            "tabulated-first_eta", "tabulated-value"])
    def test_a_non_finite_parameter_is_refused_by_name(self, make, name, bad):
        # a NaN eta_switch used to put the switch at minus infinity, and an
        # infinite a_f or sample time built a profile
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            make(bad)

    def test_tabulated_time_is_the_trapezoid_of_the_samples(self):
        # a(eta) is linear between samples, so t(eta) is exactly the area of
        # the trapezoids under it
        prof = TabulatedProfile(etas=(-1.0, 0.5, 3.0), values=(0.4, 1.6, 0.9))
        a_at_2 = 1.6 + (0.9 - 1.6) * (2.0 - 0.5) / 2.5
        by_hand = {
            -1.0: 0.0,
            -0.25: 0.5 * (0.4 + 1.0) * 0.75,
            0.5: 0.5 * (0.4 + 1.6) * 1.5,
            2.0: 0.5 * (0.4 + 1.6) * 1.5 + 0.5 * (1.6 + a_at_2) * 1.5,
            3.0: 0.5 * (0.4 + 1.6) * 1.5 + 0.5 * (1.6 + 0.9) * 2.5,
        }
        etas = np.array(list(by_hand))
        got = prof.cosmological_time(etas)
        assert got.shape == etas.shape
        for eta, t in zip(etas, got):
            assert t == pytest.approx(by_hand[eta], rel=1e-15, abs=0.0)
            assert prof.cosmological_time(eta) == t


# Each profile with conformal times that reach every branch of its scale
# factor: flat, ramp, clamp, switch, chart or table, and the 1e-12 of slack
# past a domain's ends.
_EXP = ExponentialProfile(a_0=0.01, a_f=10.0, hubble=1.0)
SCALAR_CASES = {
    "static": (StaticProfile(a_val=2.5), [-3.0, 0.0, 7.25]),
    "exponential": (_EXP, [-5.0, -1e-300, 0.0, *np.linspace(0.0, _EXP.eta_clamp, 41)[1:],
                           np.nextafter(_EXP.eta_clamp, 0.0), _EXP.eta_clamp + 1e-9,
                           2 * _EXP.eta_clamp, 1e9]),
    "quench": (QuenchProfile(a_0=0.7, a_f=1.3, eta_switch=0.5),
               [-1.0, np.nextafter(0.5, 0.0), 0.5, 2.0]),
    "de_sitter": (DeSitterProfile(hubble=0.1, eta_0=-30.0, eta_max=-0.01),
                  [-30.0 - 5e-13, *np.linspace(-30.0, -0.01, 41), -0.01 + 5e-13]),
    "tabulated": (TabulatedProfile(etas=(0.0, 1.0, 3.0), values=(1.0, 2.0, 2.5)),
                  [-5e-13, *np.linspace(0.0, 3.0, 31), 0.1, 2.9, 3.0 + 5e-13]),
}


class TestScalarScaleFactor:
    """A float eta gives the array path's value to the bit; the profiles an
    adaptive solve reads at every evaluation take a scalar path for it."""

    @pytest.mark.parametrize("kind", SCALAR_CASES)
    def test_scalar_path_is_the_array_path(self, kind):
        profile, etas = SCALAR_CASES[kind]
        expected = profile.scale_factor(np.array(etas))
        for eta, a in zip(etas, expected):
            # solve_ivp hands the right-hand side an np.float64
            for x in (float(eta), np.float64(eta)):
                got = profile.scale_factor(x)
                if kind in ("exponential", "quench", "de_sitter"):
                    assert not isinstance(got, np.ndarray), (kind, x)
                assert float(got).hex() == float(a).hex(), (kind, x)

    @pytest.mark.parametrize("kind, eta", [("de_sitter", -30.0 - 2e-12),
                                           ("de_sitter", -0.005),
                                           ("tabulated", -1.0),
                                           ("tabulated", 3.0 + 2e-12)])
    def test_out_of_domain_scalars_raise(self, kind, eta):
        profile, _ = SCALAR_CASES[kind]
        with pytest.raises(DomainError) as array_error:
            profile.scale_factor(np.array([eta]))
        for x in (eta, np.float64(eta)):
            with pytest.raises(DomainError) as error:
                profile.scale_factor(x)
            assert str(error.value) == str(array_error.value)


class TestDispersion:
    def test_block_matches_bloch_decomposition(self):
        ks = np.linspace(-np.pi, np.pi, 7)
        h = hamiltonian_block(ks, 0.4, 0.1, 0.2)
        b = bloch_vector(ks, 0.4, 0.1, 0.2)
        assert np.allclose(np.trace(h, axis1=-2, axis2=-1), 0.0)
        assert np.allclose(h, np.conj(np.swapaxes(h, -1, -2)))
        evals = np.linalg.eigvalsh(h)
        assert np.allclose(evals[:, 1], np.linalg.norm(b, axis=-1))

    def test_massless_half_zone_energy(self):
        # at ka = pi/2 with ma_eff = 0: b = (-1, 0, 1), energies +-sqrt(2)
        h = hamiltonian_block(np.pi / 2, 0.0)
        evals = np.linalg.eigvalsh(h)
        assert np.allclose(evals, [-np.sqrt(2.0), np.sqrt(2.0)], rtol=1e-14)

    def test_band_velocity_matches_finite_difference(self):
        ks = np.linspace(-3.0, 3.0, 11)
        for ma_eff, sig, pi in [(1.0, 0.0, 0.0), (-1.3, 0.05, 0.0), (0.4, -0.1, 0.3)]:
            dk = 1e-6
            fd = np.abs(
                dispersion(ks + dk, ma_eff, sig, pi) - dispersion(ks - dk, ma_eff, sig, pi)
            ) / (2 * dk)
            assert np.allclose(band_velocity(ks, ma_eff, sig, pi), fd, atol=1e-8)

    def test_group_velocity_closed_form(self):
        # free chain at unit spacing: eps^2 = 1 + B^2 - 2 B cos(k) with
        # B = ma_eff + 1, so v_g = |B| for |B| <= 1 and 1 otherwise
        for ma_eff in (-1.3, -0.5, -1.0 + 0.3, 0.5, 1.0, -2.7):
            b = ma_eff + 1.0
            expected = min(1.0, abs(b))
            assert group_velocity(ma_eff) == pytest.approx(expected, abs=1e-9)

    def test_group_velocity_upper_bounds_grid_velocities(self):
        ks = LatticeSpec(num_sites=64).momentum_grid()
        v_g = group_velocity(-1.3, 0.05, 0.2)
        assert v_g >= np.max(band_velocity(ks, -1.3, 0.05, 0.2)) - 1e-12

    def test_spectrum_even_in_k_even_with_broken_parity(self):
        # parity is broken by pi != 0 but eps_k stays even in k
        spec = LatticeSpec(num_sites=64)
        ks = spec.momentum_grid()
        eps = dispersion(ks, -1.3, 0.0, 0.7)
        refl = (-np.arange(64)) % 64  # k -> -k
        assert np.allclose(eps, eps[refl], rtol=1e-14)
