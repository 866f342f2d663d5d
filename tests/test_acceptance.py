"""End-to-end acceptance checks on the shipped figure presets.

One test per headline claim, each printing a single summary line.
Trajectories are cached per preset in conftest, so the expensive
evolutions run once per session.  This module is the slow part of the
suite (about 15 s on a 2-core machine).
"""

import numpy as np
import pytest

from block_reference import block_matrix
from conftest import preset_run, preset_field

from cosmodirac.entanglement import (
    PARTICLE_HOLE_TOL,
    BlockSpec,
    _mode_entropies,
    block_entropy,
    cone_front,
    entropy_trajectory,
    front_slope,
)
from cosmodirac.gaussian import (
    REFERENCE_RTOL,
    evolve_adaptive,
    evolve_free,
    free_ground_state,
    mean_field_energy,
    real_space_correlation,
    sample_grid,
)
from cosmodirac.lattice import (
    ExponentialProfile,
    LatticeSpec,
    group_velocity,
)
from cosmodirac.production import bogoliubov_spectrum
from cosmodirac.quasiparticle import (
    NonEquilibratedWindowError,
    condensate_persistence,
    horizon_width,
    qp_contour,
    qp_entropy,
    qp_input_from_spectrum,
    qp_plateau,
    renormalized_velocity,
)
from cosmodirac.symmetry import contour_cp_check, spectrum_symmetry_check


def _entropy_series(name, length):
    config, traj = preset_run(name)
    block = BlockSpec(length, config.lattice.num_sites)
    return config, traj, np.asarray(traj.etas), entropy_trajectory(traj, block)[0]


def _qp_prediction(config, traj, length, sigma=0.0, pi=0.0):
    spec = config.lattice
    a_f = float(config.profile.scale_factor(traj.etas[-1]))
    spectrum = bogoliubov_spectrum(traj.state(-1), spec.mass * a_f, sigma=sigma, pi=pi)
    return qp_input_from_spectrum(spectrum, float(length))


def test_criterion_1_entropy_growth_matches_quasiparticles():
    """Measured entropy growth follows the QP curve for a large partition.

    Growth window (prediction in [30%, 80%] of its plateau): max relative
    error < 5%.  Plateau window (final 20% of the run): < 3%.  The
    quench leaves a log-law initial entropy the pair count cannot know
    about, so the comparison uses Delta S = S - S(0).  The small
    partition of fig1a must deviate visibly more.
    """
    config, traj, etas, s = _entropy_series("fig1b", 128)
    qp = _qp_prediction(config, traj, 128)
    plateau = qp_plateau(qp)
    predicted = qp_entropy(qp, etas)
    rel = np.abs((s - s[0]) - predicted) / np.maximum(predicted, 1e-12)
    grow = (predicted > 0.3 * plateau) & (predicted < 0.8 * plateau)
    plat = etas >= 0.8 * etas[-1]
    grow_err = float(rel[grow].max())
    plat_err = float(rel[plat].max())
    assert grow_err < 0.05
    assert plat_err < 0.03
    assert np.all(np.diff(s) > -1e-6)  # monotone up to noise

    config_a, traj_a, etas_a, s_a = _entropy_series("fig1a", 32)
    qp_a = _qp_prediction(config_a, traj_a, 32)
    pred_a = qp_entropy(qp_a, etas_a)
    plateau_a = qp_plateau(qp_a)
    rel_a = np.abs((s_a - s_a[0]) - pred_a) / np.maximum(pred_a, 1e-12)
    grow_a = (pred_a > 0.3 * plateau_a) & (pred_a < 0.8 * plateau_a)
    small_err = float(rel_a[grow_a].max())
    assert small_err > 2.0 * grow_err
    print(f"criterion 1 PASS: growth err {grow_err:.3f} < 5%, plateau "
          f"{plat_err:.3f} < 3%; small partition {small_err:.3f} visibly worse")


def test_criterion_2_interactions_compress_the_cone():
    """Interacting cone slope d(eta)/dx exceeds the bare slope.

    Both slopes agree with the ballistic 1/(2 v_g) of the respective
    (bare / condensate-dressed) dispersion to 10%.
    """
    results = {}
    for name in ("fig2_free", "fig2_int"):
        _, traj = preset_run(name)
        slope = front_slope(preset_field(name))
        v = renormalized_velocity(traj, 1.3, (20.0, 35.0))
        dev = abs(slope * 2.0 * v - 1.0)
        assert dev < 0.10, (name, slope, v)
        results[name] = (slope, v, dev)
    assert results["fig2_int"][0] > results["fig2_free"][0]
    assert results["fig2_int"][1] < results["fig2_free"][1]  # dressed is slower
    print("criterion 2 PASS: slopes free %.3f / int %.3f (devs %.3f / %.3f)"
          % (results["fig2_free"][0], results["fig2_int"][0],
             results["fig2_free"][2], results["fig2_int"][2]))


def test_criterion_2b_quasiparticle_contour_inside_the_cone():
    """The contour fig2_free measures follows the quasi-particle contour.

    Compared is Delta S_i = S_i(eta) - S_i(0), spinor-summed, with
    qp_contour at the site's depth, from both block edges and at every
    sample.  The window keeps depths d (sites from the nearer edge) with
    3 <= d and d + 1/2 <= v_max (eta - eta_0), half the front's reach
    2 v_max (eta - eta_0): closer to the front the sharp pair count
    misses the lattice's smooth rise, and the first sites feel the
    boundary.  Tolerance: 5% relative on every compared site.
    """
    config, traj = preset_run("fig2_free")
    field = preset_field("fig2_free")
    length = field.block.length
    qp = _qp_prediction(config, traj, length)
    measured = field.spinor_summed() - field.spinor_summed()[0]
    depth = np.minimum(np.arange(length), length - 1 - np.arange(length))
    worst, compared = 0.0, 0
    for eta, row in zip(field.etas - field.etas[0], measured):
        inside = (depth >= 3) & (depth + 0.5 <= np.max(qp.v) * eta)
        if not inside.any():
            continue
        predicted = qp_contour(qp, eta, np.arange(length)[inside] + 0.5)
        worst = max(worst, float(np.max(np.abs(row[inside] / predicted - 1.0))))
        compared += int(np.count_nonzero(inside))
    assert compared > 500
    assert worst < 0.05
    print(f"criterion 2b PASS: {compared} sites within {worst:.3f} of the "
          f"quasi-particle contour")


def test_criterion_3_de_sitter_horizon_and_curved_cones():
    """Accelerating expansion leaves a dark central band of the predicted width.

    Width measured on the per-spinor u contour at the 1e-3 threshold;
    prediction l_A - 4 v_g/(H a_0) with the time-averaged dressed group
    velocity, tolerance +-2 sites.  In cosmological time the cones bend:
    the local front slope dt/dx grows by a large factor along the front.
    """
    config, traj = preset_run("fig4")
    field = preset_field("fig4")
    spec = config.lattice
    profile = config.profile

    final_u = field.values[-1, :, 0]
    dark = np.where(final_u < 1e-3)[0]
    assert dark.size > 0 and np.all(np.diff(dark) == 1)  # one contiguous band

    vs = [
        group_velocity(spec.mass * a + sig, 0.0, pi)
        for a, sig, pi in zip(traj.a_vals, traj.sigma, traj.pi)
    ]
    v_bar = np.trapezoid(vs, traj.etas) / (traj.etas[-1] - traj.etas[0])
    predicted = horizon_width(float(field.block.length), v_bar, profile.hubble,
                              profile.a_0)
    assert abs(dark.size - predicted) <= 2.0

    depths, arrivals = cone_front(field)
    t_arr = np.asarray(profile.cosmological_time(arrivals))
    third = len(depths) // 3
    early = np.polyfit(depths[:third], t_arr[:third], 1)[0]
    late = np.polyfit(depths[-third:], t_arr[-third:], 1)[0]
    assert late > 2.0 * early  # cones curve as the expansion accelerates
    print(f"criterion 3 PASS: band {dark.size} vs predicted {predicted:.1f} "
          f"(v_bar {v_bar:.3f}); dt/dx rises x{late / early:.1f}")


def test_criterion_4_cp_structure_of_the_contour():
    """Pseudo-scalar condensates skew per-spinor cones; CP pairs them.

    Pi = 0 run: site contour mirror-symmetric and spinor-balanced to
    1e-10.  Its blocks are particle-hole symmetric, so the contour is
    computed on the parity-sector path, where S_u = S_d and the mirror
    symmetry hold by construction; at a few samples it is therefore
    compared with the complex ``eigh`` of the block itself to 1e-12.
    Parity-broken preparation (fig5): its blocks fail the particle-hole
    test, and each spinor's contour is mirror-asymmetric above 1e-2, the
    physics half of the claim.  The CP pairing S_(i,u) = S_(l+1-i,d),
    held to 1e-6, is structural: sigma_y Gamma_k^T sigma_y = 1 - Gamma_k
    for any Bloch field (``contour_cp_check``), so that half checks the
    contour code, not the dynamics.
    """
    sym_field = preset_field("fig2_free")
    summed = sym_field.spinor_summed()
    mirror = float(np.max(np.abs(summed - summed[:, ::-1])))
    spinor = float(np.max(np.abs(sym_field.values[:, :, 0]
                                 - sym_field.values[:, :, 1])))
    assert mirror < 1e-10 and spinor < 1e-10
    _, traj = preset_run("fig2_free")
    block = sym_field.block
    for i in np.linspace(0, len(traj.etas) - 1, 4).astype(int):
        nu, u = np.linalg.eigh(real_space_correlation(traj.state(i), block))
        ref = ((np.abs(u) ** 2) @ _mode_entropies(nu)).reshape(block.length, 2)
        assert np.max(np.abs(sym_field.values[i] - ref)) < 1e-12

    field5 = preset_field("fig5")
    _, traj5 = preset_run("fig5")
    for i in np.linspace(0, len(traj5.etas) - 1, 4).astype(int):
        assert block_matrix(traj5.state(i), field5.block)[0] > PARTICLE_HOLE_TOL
    up = field5.values[:, :, 0]
    lopsided = float(np.max(np.abs(up - up[:, ::-1])))
    cp_dev = contour_cp_check(field5)
    assert lopsided > 1e-2
    assert cp_dev < 1e-6
    print(f"criterion 4 PASS: symmetric run {mirror:.1e}; broken run "
          f"asym {lopsided:.3f} with CP deviation {cp_dev:.1e}")


def test_criterion_5_spectrum_symmetry_restoration():
    """Production asymmetry vanishes in the quench limit, not at finite rate."""
    spec = LatticeSpec(num_sites=128, mass=-1.0, coupling=3.0)
    rows = spectrum_symmetry_check(spec, 0.7, 1.3, [100.0, 0.3])
    by_h = {r["hubble"]: r for r in rows}
    assert by_h[100.0]["asymmetry"] < 1e-8
    assert by_h[0.3]["asymmetry"] > 1e-3
    assert by_h[0.3]["beta_sq_sum"] > 1.0  # plenty of production either way
    print("criterion 5 PASS: asymmetry %.1e (quench) vs %.1e (Ha=0.3)"
          % (by_h[100.0]["asymmetry"], by_h[0.3]["asymmetry"]))


def test_criterion_6_production_spectra_against_oracles():
    """|beta_k|^2 matches independent oracles.

    (a) Sudden quench: the two-level overlap closed form to 1e-10, and a
    slow ramp stays adiabatic.  (b) Exact many-body path: the 4-site
    Jordan-Wigner diagonalization reproduces the package's occupations
    to 1e-8 with no Gaussian shortcut.
    """
    from cosmodirac.lattice import bloch_vector
    from cosmodirac.lattice import hamiltonian_block
    import test_fock_oracle as fo

    # (a) closed-form overlap
    config, traj = preset_run("fig1b")
    spec = config.lattice
    ks = spec.momentum_grid()
    out = bogoliubov_spectrum(traj.state(0), 10.0)
    b_i = bloch_vector(ks, 0.01, 0.0, 0.0)
    b_f = bloch_vector(ks, 10.0, 0.0, 0.0)
    cos = np.sum(b_i * b_f, axis=-1) / (
        np.linalg.norm(b_i, axis=-1) * np.linalg.norm(b_f, axis=-1)
    )
    quench_err = float(np.max(np.abs(out.beta_sq - 0.5 * (1.0 - cos))))
    assert quench_err < 1e-10

    small = LatticeSpec(num_sites=64, mass=1.0)
    ramp = ExponentialProfile(a_0=0.7, a_f=1.3, hubble=0.05)
    ramp_span = (0.0, ramp.eta_clamp + 10.0)
    ramp_traj = evolve_adaptive(free_ground_state(small, 0.7), ramp,
                                ramp_span, sample_grid(ramp_span, 2),
                                rtol=REFERENCE_RTOL)
    ramp_max = float(np.max(
        bogoliubov_spectrum(ramp_traj.state(-1), 1.3).beta_sq
    ))
    assert ramp_max < 2e-2

    # (b) exact 256-dimensional Fock-space reference
    ed_spec = LatticeSpec(num_sites=fo.N_SITES, mass=1.0)
    ops = fo._jw_annihilators()
    h_i = np.zeros((fo.DIM, fo.DIM), dtype=complex)
    h_f = np.zeros_like(h_i)
    sp_i = fo._single_particle_h(ed_spec, fo.MA_I)
    sp_f = fo._single_particle_h(ed_spec, fo.MA_F)
    for p in range(fo.N_MODES):
        for q in range(fo.N_MODES):
            h_i += sp_i[p, q] * ops[p].conj().T @ ops[q]
            h_f += sp_f[p, q] * ops[p].conj().T @ ops[q]
    _, vec_i = np.linalg.eigh(h_i)
    w_f, vec_f = np.linalg.eigh(h_f)
    eta = 1.5
    psi = vec_f @ (np.exp(-1j * w_f * eta) * (vec_f.conj().T @ vec_i[:, 0]))

    gauss = evolve_free(free_ground_state(ed_spec, fo.MA_I),
                        fo.QuenchProfile(fo.MA_I, fo.MA_F),
                        sample_grid((0.0, eta), 2))
    gamma = real_space_correlation(gauss.state(-1))
    exact = np.empty_like(gamma)
    for q in range(fo.N_MODES):
        col = ops[q].conj().T @ psi
        for p in range(fo.N_MODES):
            exact[p, q] = np.vdot(psi, ops[p] @ col)
    ed_err = float(np.max(np.abs(gamma - exact)))
    assert ed_err < 1e-8
    print(f"criterion 6 PASS: quench oracle {quench_err:.1e}, ramp max "
          f"{ramp_max:.1e}, exact-diagonalization gap {ed_err:.1e}")


# the preset runs and contour fields that criteria 1-6 read
HEALTH_RUNS = ("fig1a", "fig1b", "fig2_free", "fig2_int", "fig4", "fig5")
HEALTH_FIELDS = ("fig2_free", "fig2_int", "fig4", "fig5")
# the interacting presets that quench to a constant a_f
ENERGY_RUNS = ("fig2_int", "fig3a", "fig3b", "fig3c", "fig3d", "fig6")


def test_criterion_7_numerical_health_of_all_runs():
    """Every cached preset run conserves purity, charge and energy.

    Purity defect < 1e-8 and the charge of the preset's block, if it has
    one, tr Gamma_A = l_A, on every sample: every diagonal 2x2 block of
    the chain's Gamma is the same separation-0 block of unit trace, so
    this checks the FFT normalisation.  Contour values nonnegative and
    summing to the block entropy.  On each interacting quench preset the
    mean-field energy, which the self-consistent flow conserves while a
    is constant, drifts by less than 1e-10 of itself over the samples at
    a = a_f (7.4e-13 at most as shipped; the field mutants of the
    CHANGES.md ledger drift by 2e-3 to 0.8).  The runs and fields of
    criteria 1-6 are computed here if no earlier test cached them, so the
    result does not depend on which tests ran first.
    """
    from conftest import _RUNS, _FIELDS

    for name in HEALTH_RUNS:
        preset_run(name)
    for name in HEALTH_FIELDS:
        preset_field(name)
    assert len(_RUNS) >= 6
    worst_drift = 0.0
    for name in ENERGY_RUNS:
        config, traj = preset_run(name)
        ma_f = config.lattice.mass * config.profile.a_f
        energies = np.array([mean_field_energy(traj.state(i), ma_f)
                             for i in np.flatnonzero(traj.a_vals == config.profile.a_f)])
        assert energies.size >= 2, name
        drift = float(np.max(np.abs(energies - energies[0])) / abs(energies[0]))
        assert drift < 1e-10, (name, drift)
        worst_drift = max(worst_drift, drift)
    worst = 0.0
    for name, (config, traj) in _RUNS.items():
        states = [traj.state(i) for i in range(len(traj.etas))]
        purity = max(st.purity_defect() for st in states)
        assert purity < 1e-8, name
        worst = max(worst, purity)
        block = next((a.options["block"] for a in config.analyses
                      if "block" in a.options), None)
        if block is None:
            continue
        for st in states:
            charge = np.trace(real_space_correlation(st, block)).real
            assert charge == pytest.approx(block.length, rel=1e-12), name
    for (name, _), field in _FIELDS.items():
        assert np.all(field.values >= -1e-12), name
        _, traj = preset_run(name)
        assert np.sum(field.values[-1]) == pytest.approx(
            block_entropy(traj.state(-1), field.block), abs=1e-10
        ), name
    print(f"criterion 7 PASS: {len(_RUNS)} runs, worst purity defect "
          f"{worst:.1e}, worst energy drift {worst_drift:.1e}, all contour sum "
          f"rules hold")


def test_only_the_mirror_symmetric_run_is_solved_on_half_the_momenta():
    """DOP853 solves a preset on N_S/2 + 1 momenta only where its vacuum is
    mirror-symmetric, fig2_int's Pi = 0 one (257 of 512); every other run,
    the parity-broken ones and the closed forms, on all N_S.  The half
    grid's samples keep Pi = 0 to rounding."""
    for name in HEALTH_RUNS + ENERGY_RUNS:
        config, traj = preset_run(name)
        n_s = config.lattice.num_sites
        expected = n_s // 2 + 1 if name == "fig2_int" else n_s
        assert traj.evolved_momenta == expected, name
    _, traj = preset_run("fig2_int")
    assert np.max(np.abs(traj.pi)) <= 1e-16
    print("mirror path PASS: fig2_int on 257 of 512 momenta, "
          f"max |Pi| {np.max(np.abs(traj.pi)):.1e}")


def test_criterion_8_validity_boundary_is_flagged():
    """Persistent condensate oscillations break the QP picture — and are caught.

    fig3c (parity-broken interacting quench): the prediction misses the
    measured growth by > 20% at eta = 3, both condensates keep
    oscillating (persistence >= 0.5), and renormalized_velocity refuses
    instead of returning a number.
    """
    config, traj, etas, s = _entropy_series("fig3c", 64)
    quarter = etas >= etas[0] + 0.75 * (etas[-1] - etas[0])
    sigma = float(np.mean(traj.sigma[quarter]))
    pi = float(np.mean(traj.pi[quarter]))
    qp = _qp_prediction(config, traj, 64, sigma=sigma, pi=pi)
    i3 = int(np.argmin(np.abs(etas - 3.0)))
    predicted = qp_entropy(qp, float(etas[i3]))
    mispred = abs((s[i3] - s[0]) - predicted) / predicted
    assert mispred > 0.2

    p_sigma = condensate_persistence(traj, "sigma")
    p_pi = condensate_persistence(traj, "pi")
    assert p_sigma >= 0.5 and p_pi >= 0.5
    with pytest.raises(NonEquilibratedWindowError):
        renormalized_velocity(traj, 1.3, (30.0, 40.0))
    print(f"criterion 8 PASS: misprediction {mispred:.2f} at eta=3, "
          f"persistence sigma {p_sigma:.2f} / pi {p_pi:.2f}, velocity refused")
