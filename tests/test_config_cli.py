"""Config validation, shipped presets, CLI exit codes, and reproducibility."""

import csv
import json

import numpy as np
import pytest

from cosmodirac import gaussian, pipeline
from cosmodirac.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main, preset_names
from cosmodirac.config import ConfigError, config_from_dict, load_config
from cosmodirac.entanglement import BlockSpec
from cosmodirac.lattice import StaticProfile
from cosmodirac.pipeline import RunManifest
from cosmodirac.production import bogoliubov_spectrum
from cosmodirac.quasiparticle import qp_entropy, qp_input_from_spectrum

from conftest import preset_config

SMALL_RUN = """
lattice: {num_sites: 16, mass: 1.0}
profile: {kind: quench, a_0: 0.01, a_f: 10.0}
evolution: {eta_span: [0.0, 2.0], deta: 1.0e-3, sample_every: 200}
analyses:
  - {kind: entropy, block: {length: 6}}
  - {kind: spectrum}
"""


NAN = float("nan")
CONTOUR = {"kind": "contour", "block": {"length": 4}}


class TestSchema:
    def test_all_shipped_presets_validate(self):
        names = preset_names()
        assert len(names) >= 10
        for name in names:
            config = preset_config(name)
            assert config.lattice.num_sites >= 64

    def test_errors_name_the_field(self):
        base = {
            "lattice": {"num_sites": 16},
            "profile": {"kind": "static", "a_val": 1.0},
            "evolution": {"eta_span": [0.0, 1.0], "deta": 1e-3},
        }
        cases = [
            (lambda d: d["lattice"].pop("num_sites"), "lattice.num_sites"),
            (lambda d: d["profile"].update(kind="warp"), "profile.kind"),
            (lambda d: d["evolution"].update(eta_span=[1.0, 0.0]), "evolution.eta_span"),
            (lambda d: d["evolution"].update(eta_span=[0.0, float("inf")]),
             "evolution.eta_span"),
            (lambda d: d["evolution"].update(deta=-1.0), "evolution.deta"),
            (lambda d: d.update(extra={}), "extra"),
            (lambda d: d.update(output={"formats": ["xlsx"]}), "output.formats"),
            (
                lambda d: d.update(analyses=[{"kind": "contour",
                                              "block": {"length": 99}}]),
                "analyses[0].block.length",
            ),
            # a key the section does not read, misspelt or of another kind
            (lambda d: d["lattice"].update(masss=5.0), "lattice.masss"),
            (lambda d: d["profile"].update(hubble=1.0), "profile.hubble"),
            (lambda d: d.update(preparation={"kind": "vacuum", "m_pre": 1.0}),
             "preparation.m_pre"),
            (lambda d: d["evolution"].update(n_samples=11), "evolution.n_samples"),
            (lambda d: d["evolution"].update(method="adaptive"), "evolution.deta"),
            (lambda d: d.update(analyses=[dict(CONTOUR, spinor_mode="split")]),
             "analyses[0].spinor_mode"),
            (lambda d: d.update(analyses=[{"kind": "spectrum"},
                                          {"kind": "entropy", "block": {"length": 4},
                                           "time_stride": 2}]),
             "analyses[1].time_stride"),
            (lambda d: d.update(analyses=[dict(CONTOUR, block={"length": 4, "end": 8})]),
             "analyses[0].block.end"),
            # numbers that are not finite
            (lambda d: d["evolution"].update(deta=NAN), "evolution.deta"),
            (lambda d: d["lattice"].update(mass=NAN), "lattice.mass"),
            # lattice units: a config may not set the spacing, even to 1
            (lambda d: d["lattice"].update(spacing=1.0), "lattice.spacing"),
            (lambda d: d["profile"].update(a_val=float("inf")), "profile.a_val"),
            (lambda d: d.update(evolution={"eta_span": [0.0, 1.0],
                                           "method": "adaptive", "rtol": NAN}),
             "evolution.rtol"),
            (lambda d: d.update(analyses=[{"kind": "symmetry", "a_0": 0.7, "a_f": NAN,
                                           "hubble_values": [1.0]}]),
             "analyses[0].a_f"),
            # a symmetry ramp must expand from a positive a_0
            (lambda d: d.update(analyses=[{"kind": "symmetry", "a_0": 1.3, "a_f": 0.7,
                                           "hubble_values": [1.0]}]),
             "analyses[0].a_f"),
            (lambda d: d.update(analyses=[{"kind": "symmetry", "a_0": 0.0, "a_f": 0.7,
                                           "hubble_values": [1.0]}]),
             "analyses[0].a_0"),
            (lambda d: d.update(profile={"kind": "tabulated",
                                         "samples": [[0.0, 1.0], [1.0, NAN]]}),
             "profile.samples"),
            # a contour stride below one
            (lambda d: d.update(analyses=[dict(CONTOUR, time_stride=0)]),
             "analyses[0].time_stride"),
            (lambda d: d.update(analyses=[dict(CONTOUR, time_stride=-2)]),
             "analyses[0].time_stride"),
        ]
        for mutate, expected_path in cases:
            raw = json.loads(json.dumps(base))
            mutate(raw)
            with pytest.raises(ConfigError) as err:
                config_from_dict(raw)
            assert err.value.path == expected_path

    def test_qp_window_must_be_an_increasing_finite_pair(self):
        raw = {
            "lattice": {"num_sites": 16},
            "profile": {"kind": "static", "a_val": 1.0},
            "evolution": {"eta_span": [0.0, 1.0], "deta": 1e-3},
        }
        bad = (["a"], [0.5], [0.5, 0.2], [0.5, 0.5], [0.0, float("nan")],
               [float("-inf"), 1.0], [0.0, "1"], [0.0, 1.0, 2.0], [False, True])
        for window in bad:
            raw["analyses"] = [{"kind": "spectrum"},
                               {"kind": "qp", "block": {"length": 4}, "window": window}]
            with pytest.raises(ConfigError) as err:
                config_from_dict(raw)
            assert err.value.path == "analyses[1].window", window
        raw["analyses"][1]["window"] = [0, 0.75]
        assert config_from_dict(raw).analyses[1].options["window"] == (0.0, 0.75)

    def test_span_outside_profile_domain(self):
        raw = {
            "lattice": {"num_sites": 16},
            "profile": {"kind": "de_sitter", "hubble": 0.1, "eta_0": -30.0},
            "evolution": {"eta_span": [-30.0, 5.0], "deta": 1e-3},
        }
        with pytest.raises(ConfigError) as err:
            config_from_dict(raw)
        assert err.value.path == "evolution.eta_span"

    def test_defaults(self):
        config = load_config(SMALL_RUN)
        assert config.preparation == {"kind": "vacuum"}
        assert config.evolution["method"] == "rk4"
        assert config.eta_span == (0.0, 2.0)
        # centered by default
        assert config.analyses[0].options["block"] == BlockSpec(5, 6, 16)
        assert config.output == {"directory": None}


class TestCLI:
    def test_check_preset_ok(self, capsys):
        assert main(["check", "--preset", "fig5"]) == EXIT_OK
        assert "valid" in capsys.readouterr().out

    def test_config_errors_exit_1(self, tmp_path, capsys):
        assert main(["check", "--preset", "nonexistent"]) == EXIT_CONFIG
        assert main(["check", str(tmp_path / "missing.yaml")]) == EXIT_CONFIG
        assert main(["check"]) == EXIT_CONFIG
        bad = tmp_path / "bad.yaml"
        bad.write_text("lattice: {num_sites: 3}\n")
        assert main(["check", str(bad)]) == EXIT_CONFIG
        cfg = tmp_path / "ok.yaml"
        cfg.write_text(SMALL_RUN)
        assert main(["run", str(cfg), "--preset", "fig5"]) == EXIT_CONFIG
        assert main(["run", str(cfg)]) == EXIT_CONFIG  # no output directory
        assert main(["plots", str(tmp_path / "nope.json")]) == EXIT_CONFIG
        assert "error" in capsys.readouterr().err

    def test_numerical_failure_exits_2(self, tmp_path, capsys):
        # interacting, so that DOP853 solves it (a free run is rotated
        # exactly), at a tolerance loose enough to break the purity gate
        cfg = tmp_path / "unstable.yaml"
        cfg.write_text(SMALL_RUN.replace(
            "deta: 1.0e-3, sample_every: 200", "method: adaptive, rtol: 1.0e-2").replace(
            "mass: 1.0}", "mass: 1.0, coupling: 1.0}"))
        code = main(["run", str(cfg), "--output", str(tmp_path / "out")])
        assert code == EXIT_NUMERICAL
        assert "StepSizeError" in capsys.readouterr().err

    def test_step_rounded_past_the_profile_domain_runs(self, tmp_path):
        # 19 steps of h = 1e5/19 end at 1e5 + 1.5e-11, past the tabulated
        # domain's 1e-12 of slack; such a run used to fail with a DomainError.
        # The free vacuum under a constant a is stationary, so the solve is quick
        cfg = tmp_path / "tabulated.yaml"
        cfg.write_text(
            "lattice: {num_sites: 4, mass: 1.0}\n"
            "profile: {kind: tabulated, samples: [[0.0, 1.0], [1.0e+5, 1.0]]}\n"
            "evolution: {eta_span: [0.0, 1.0e+5], deta: 5263.2}\n"
            "analyses: [{kind: entropy, block: {length: 2}}]\n")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output", str(out)]) == EXIT_OK
        for name in ("condensates.csv", "entropy_measured.csv"):
            with open(out / name) as fh:
                rows = np.array([[float(x) for x in row]
                                 for row in list(csv.reader(fh))[1:]])
            assert rows.shape[0] == 20 and np.all(np.isfinite(rows)), name
            assert rows[-1, 0] == 1e5, name

    def test_coarse_free_run_is_exact(self, tmp_path):
        # deta = 0.5 blew RK4 up on this free quench; in closed form it only
        # sets the sample grid, so every shared sample matches a fine run
        tables = {}
        for deta in ("0.5", "1.0e-3"):
            cfg = tmp_path / f"{deta}.yaml"
            cfg.write_text(SMALL_RUN.replace("1.0e-3", deta))
            out = tmp_path / deta
            assert main(["run", str(cfg), "--output", str(out)]) == EXIT_OK
            for name in ("entropy_measured.csv", "spectrum.csv", "condensates.csv"):
                with open(out / name) as fh:
                    rows = np.array([[float(x) for x in row]
                                     for row in list(csv.reader(fh))[1:]])
                assert np.all(np.isfinite(rows)), (deta, name)
                tables[deta, name] = rows
        for name in ("entropy_measured.csv", "condensates.csv"):
            coarse, fine = tables["0.5", name], tables["1.0e-3", name]
            assert list(coarse[:, 0]) == [0.0, 2.0]
            fine = fine[np.isin(fine[:, 0], coarse[:, 0])]
            assert np.allclose(coarse, fine, rtol=0.0, atol=1e-6), name
        assert np.allclose(tables["0.5", "spectrum.csv"],
                           tables["1.0e-3", "spectrum.csv"], rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("edit, expected", [
        (lambda t: t, "closed_form"),
        (lambda t: t.replace("deta: 1.0e-3, sample_every: 200",
                             "method: adaptive, n_samples: 5"), "closed_form"),
        (lambda t: t.replace("mass: 1.0}", "mass: 1.0, coupling: 1.0}"), "dop853"),
        (lambda t: t.replace("mass: 1.0}", "mass: 1.0, coupling: 1.0}").replace(
            "deta: 1.0e-3, sample_every: 200", "method: adaptive, n_samples: 5"),
         "dop853"),
    ], ids=["free_rk4", "free_adaptive", "interacting_rk4", "interacting_adaptive"])
    def test_manifest_names_the_propagator_that_ran(self, tmp_path, monkeypatch,
                                                    edit, expected):
        # the rk4 dialect only sets the sample grid: RK4 never steps a run
        assert not hasattr(pipeline, "evolve") and not hasattr(gaussian, "evolve")
        ran = []
        for module, name, kind in ((pipeline, "evolve_free", "closed_form"),
                                   (pipeline, "evolve_adaptive", "dop853")):
            def record(*args, _kind=kind, _func=getattr(module, name), **kwargs):
                ran.append(_kind)
                return _func(*args, **kwargs)
            monkeypatch.setattr(module, name, record)
        cfg = tmp_path / "run.yaml"
        cfg.write_text(edit(SMALL_RUN))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output", str(out)]) == EXIT_OK
        assert ran == [expected]
        assert json.loads((out / "manifest.json").read_text())["propagator"] == expected
        manifest = RunManifest.load(out / "manifest.json")
        assert manifest.propagator == expected
        assert manifest.verify() == []

    def test_qp_window_without_samples_exits_1(self, tmp_path, capsys):
        # a window past the end of eta_span used to average an empty slice
        # and write an all-zero entropy_qp.csv with exit 0
        cfg = tmp_path / "qp.yaml"
        cfg.write_text(SMALL_RUN + "  - {kind: qp, block: {length: 6}, "
                                   "window: [50.0, 60.0]}\n")
        code = main(["run", str(cfg), "--output", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "analyses[].window" in capsys.readouterr().err

    def test_malformed_qp_window_exits_1_before_evolving(self, tmp_path, capsys):
        # a non-numeric window used to run the whole evolution and then die
        # with a numpy traceback
        cfg = tmp_path / "qp.yaml"
        cfg.write_text(SMALL_RUN + "  - {kind: qp, block: {length: 6}, window: [a]}\n")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "analyses[2].window" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("edit, field", [
        (lambda t: t.replace("deta: 1.0e-3", "deta: .nan"), "evolution.deta"),
        (lambda t: t.replace("mass: 1.0", "mass: .nan"), "lattice.mass"),
        (lambda t: t.replace("mass: 1.0", "masss: 5.0"), "lattice.masss"),
        (lambda t: t + "  - {kind: symmetry, a_0: 0.7, a_f: .nan, "
                       "hubble_values: [1.0]}\n", "analyses[2].a_f"),
        (lambda t: t + "  - {kind: contour, block: {length: 6}, time_stride: 0}\n",
         "analyses[2].time_stride"),
        (lambda t: t + "  - {kind: symmetry, a_0: 1.3, a_f: 0.7, "
                       "hubble_values: [1.0]}\n", "analyses[2].a_f"),
        # a ramp that does not expand used to crash the sweep in evolve_adaptive
        (lambda t: t + "  - {kind: symmetry, a_0: 0.7, a_f: 0.7, "
                       "hubble_values: [1.0]}\n", "analyses[2].a_f"),
        (lambda t: t + "  - {kind: symmetry, a_0: 0.7, a_f: 1.3, "
                       "hubble_values: [.inf, 1.0]}\n", "analyses[2].hubble_values"),
        # YAML booleans are ints to Python, and used to load as 1 and 0
        (lambda t: t.replace("mass: 1.0", "mass: true"), "lattice.mass"),
        (lambda t: t.replace("[0.0, 2.0]", "[false, true]"), "evolution.eta_span"),
        (lambda t: t.replace("sample_every: 200", "sample_every: true"),
         "evolution.sample_every"),
        (lambda t: t.replace("length: 6", "length: true"), "analyses[0].block.length"),
        (lambda t: t + "  - {kind: symmetry, a_0: 0.7, a_f: 1.3, "
                       "hubble_values: [on]}\n", "analyses[2].hubble_values"),
        (lambda t: t.replace("{kind: quench, a_0: 0.01, a_f: 10.0}",
                             "{kind: tabulated, samples: [[0.0, 1.0], [2.0, yes]]}"),
         "profile.samples"),
        # a quench to the mass it starts from used to pass check and then die
        # in mass_quench_prepare with a traceback naming no field
        (lambda t: t + "preparation: {kind: mass_quench, m_pre: 1.0}\n",
         "preparation.m_pre"),
        # an rtol below DOP853's floor used to run at the floor, exit 0, and
        # leave the asked-for value in the manifest
        (lambda t: t.replace("deta: 1.0e-3, sample_every: 200",
                             "method: adaptive, rtol: -1.0"), "evolution.rtol"),
        (lambda t: t.replace("deta: 1.0e-3, sample_every: 200",
                             "method: adaptive, rtol: 1.0e-15"), "evolution.rtol"),
        # output.binary used to add state_final.npy; the switch is gone
        (lambda t: t + "output: {binary: true}\n", "output.binary"),
    ], ids=["deta_nan", "mass_nan", "mass_typo", "symmetry_a_f_nan", "time_stride_0",
            "symmetry_a_f_below_a_0", "symmetry_a_f_equal_a_0", "hubble_inf",
            "mass_bool", "eta_span_bools", "sample_every_bool", "block_length_bool",
            "hubble_bool", "tabulated_sample_bool", "m_pre_equal_mass",
            "rtol_negative", "rtol_below_floor", "output_binary"])
    def test_bad_fields_exit_1_before_evolving(self, tmp_path, capsys, edit, field):
        # each of these used to evolve (or start to) and then die with a
        # traceback, blame the step size, or run with the field ignored
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(edit(SMALL_RUN))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert field in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_run_without_an_output_directory_writes_nothing(self, tmp_path, monkeypatch):
        # run() used to write into the working directory when neither
        # output_dir nor output.directory was set
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ConfigError) as err:
            pipeline.run(load_config(SMALL_RUN))
        assert err.value.path == "output.directory"
        assert list(tmp_path.iterdir()) == []

    def test_run_plots_and_bit_reproducibility(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(SMALL_RUN)
        out1, out2 = tmp_path / "out1", tmp_path / "out2"
        assert main(["run", str(cfg), "--output", str(out1)]) == EXIT_OK
        assert main(["run", str(cfg), "--output", str(out2)]) == EXIT_OK
        m1 = RunManifest.load(out1 / "manifest.json")
        m2 = RunManifest.load(out2 / "manifest.json")
        assert m1.verify() == []
        assert {"entropy_measured.csv", "spectrum.csv", "condensates.csv"} <= set(
            m1.files
        )
        # identical configs produce byte-identical outputs
        assert m1.files == m2.files
        assert main(["plots", str(out1 / "manifest.json")]) == EXIT_OK
        assert "plot_entropy.py" in capsys.readouterr().out

    def test_empty_analysis_list_still_writes_manifest(self, tmp_path):
        cfg = tmp_path / "bare.yaml"
        cfg.write_text(
            "lattice: {num_sites: 16, mass: 1.0}\n"
            "profile: {kind: quench, a_0: 0.01, a_f: 10.0}\n"
            "evolution: {eta_span: [0.0, 0.5], deta: 1.0e-3, sample_every: 100}\n"
        )
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output", str(out)]) == EXIT_OK
        manifest = RunManifest.load(out / "manifest.json")
        assert manifest.verify() == []
        assert "condensates.csv" in manifest.files


class TestPipelineEvolution:
    def test_quench_inside_the_span_matches_split_solves(self):
        # DOP853's step control has to find the jump in a(eta) at eta_switch;
        # the reference solves each side on its own static background
        config = config_from_dict({
            "lattice": {"num_sites": 64, "mass": -1.0, "coupling": 3.0},
            "profile": {"kind": "quench", "a_0": 0.7, "a_f": 1.3, "eta_switch": 1.05},
            "evolution": {"eta_span": [0.0, 2.0], "deta": 1.0e-2, "sample_every": 10},
        })
        traj = pipeline._evolve(config, pipeline._prepare(config))
        etas = gaussian.step_grid((0.0, 2.0), 1e-2, 10)[2]
        assert np.array_equal(traj.etas, etas)
        early = etas < 1.05
        before = gaussian.evolve_adaptive(
            pipeline._prepare(config), StaticProfile(0.7), (0.0, 1.05),
            sample_etas=np.append(etas[early], 1.05), rtol=gaussian.REFERENCE_RTOL)
        after = gaussian.evolve_adaptive(
            before.state(-1), StaticProfile(1.3), (1.05, 2.0),
            sample_etas=etas[~early], rtol=gaussian.REFERENCE_RTOL)
        split = np.concatenate([before.bloch[:-1], after.bloch])
        assert np.max(np.abs(traj.bloch - split)) < 1e-9
        assert np.array_equal(traj.a_vals, np.where(early, 0.7, 1.3))

    @pytest.mark.parametrize("coupling, propagator", [(0.0, "closed_form"),
                                                      (1.0, "dop853")],
                             ids=["free", "interacting"])
    def test_manifest_records_diagnostics(self, tmp_path, coupling, propagator):
        text = SMALL_RUN.replace("mass: 1.0}", f"mass: 1.0, coupling: {coupling}}}")
        config = load_config(text)
        traj = pipeline._evolve(config, pipeline._prepare(config))
        cfg = tmp_path / "run.yaml"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output", str(out)]) == EXIT_OK
        manifest = RunManifest.load(out / "manifest.json")
        assert manifest.propagator == propagator
        assert manifest.diagnostics == {"nfev": traj.nfev,
                                        "max_purity_defect": traj.purity_defect()}
        assert (traj.nfev == 0) == (propagator == "closed_form")
        assert 0.0 <= traj.purity_defect() < 1e-6
        # the diagnostics are not in the inventory, which still verifies
        assert "diagnostics" not in manifest.files and manifest.verify() == []

    def test_qp_clock_starts_at_a_quench_inside_the_span(self, tmp_path):
        # pairs are made at the switch: no entropy before it, and after it the
        # prediction for a quench at eta = 0, shifted by eta_switch
        config = load_config(
            "lattice: {num_sites: 64, mass: 1.0}\n"
            "profile: {kind: quench, a_0: 0.01, a_f: 10.0, eta_switch: 2.0}\n"
            "evolution: {eta_span: [0.0, 4.0], deta: 1.0e-3, sample_every: 250}\n"
            "analyses: [{kind: qp, block: {length: 16}}]\n")
        pipeline.run(config, output_dir=tmp_path)
        with open(tmp_path / "entropy_qp.csv") as fh:
            rows = np.array([[float(x) for x in row] for row in list(csv.reader(fh))[1:]])
        before = rows[:, 0] < 2.0
        assert np.count_nonzero(before) == 8 and np.all(rows[before, 1] == 0.0)
        traj = pipeline._evolve(config, pipeline._prepare(config))
        qp = qp_input_from_spectrum(bogoliubov_spectrum(traj.state(-1), 10.0), 16)
        assert rows[~before, 1].tolist() == [qp_entropy(qp, eta - 2.0)
                                             for eta in rows[~before, 0]]

    def test_qp_clock_starts_where_an_exponential_ramp_starts(self, tmp_path):
        # a(eta) is flat at a_0 before eta = 0, so the vacuum is stationary and
        # no pairs are made there; the clock used to start at the first sample
        config = load_config(
            "lattice: {num_sites: 64, mass: 1.0}\n"
            "profile: {kind: exponential, a_0: 0.01, a_f: 10.0, hubble: 100.0}\n"
            "evolution: {eta_span: [-2.0, 4.0], deta: 1.0e-3, sample_every: 250}\n"
            "analyses: [{kind: qp, block: {length: 16}}]\n")
        pipeline.run(config, output_dir=tmp_path)
        with open(tmp_path / "entropy_qp.csv") as fh:
            rows = np.array([[float(x) for x in row] for row in list(csv.reader(fh))[1:]])
        before = rows[:, 0] <= 0.0
        assert np.count_nonzero(before) == 9 and np.all(rows[before, 1] == 0.0)
        traj = pipeline._evolve(config, pipeline._prepare(config))
        a_f = float(traj.a_vals[-1])  # the ramp's formula lands a few ulp short of 10
        qp = qp_input_from_spectrum(bogoliubov_spectrum(traj.state(-1), a_f), 16)
        assert rows[~before, 1].tolist() == [qp_entropy(qp, eta)
                                             for eta in rows[~before, 0]]

    @pytest.mark.parametrize("preset, expected", [("fig1a", False), ("fig3c", True)])
    def test_manifest_flags_the_qp_validity_regime(self, tmp_path, preset, expected):
        # fig3c's Sigma oscillations persist (late/early ratio about 1.03), so
        # its entropy_qp.csv is advisory; fig1a is free
        pipeline.run(preset_config(preset), output_dir=tmp_path)
        manifest = RunManifest.load(tmp_path / "manifest.json")
        assert manifest.diagnostics["qp_out_of_validity"] is expected
        assert manifest.verify() == []

    def test_qp_validity_is_null_on_a_sparse_trajectory(self, tmp_path):
        # 11 samples hold too few in the early window to judge persistence
        text = SMALL_RUN.replace("mass: 1.0}", "mass: 1.0, coupling: 1.0}")
        cfg = tmp_path / "run.yaml"
        cfg.write_text(text + "  - {kind: qp, block: {length: 6}}\n")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output", str(out)]) == EXIT_OK
        diagnostics = json.loads((out / "manifest.json").read_text())["diagnostics"]
        assert diagnostics["qp_out_of_validity"] is None
