"""Config validation, shipped presets, CLI exit codes, and reproducibility."""

import csv
import json

import numpy as np
import pytest

from cosmodirac import entanglement, gaussian, pipeline, symmetry
from cosmodirac.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main, preset_names
from cosmodirac.config import ConfigError, config_from_dict, load_config
from cosmodirac.entanglement import BlockSpec
from cosmodirac.lattice import StaticProfile
from cosmodirac.pipeline import RunManifest
from cosmodirac.production import bogoliubov_spectrum
from cosmodirac.quasiparticle import (PERSISTENCE_LIMIT, condensate_persistence,
                                      qp_entropy, qp_input_from_spectrum)
from cosmodirac.symmetry import spectrum_symmetry_check

from conftest import preset_config, preset_run

SMALL_RUN = """
lattice: {num_sites: 16, mass: 1.0}
profile: {kind: quench, a_0: 0.01, a_f: 10.0}
evolution: {eta_span: [0.0, 2.0], sample_spacing: 0.2}
analyses:
  - {kind: entropy, block: {length: 6}}
  - {kind: spectrum}
"""


NAN = float("nan")
HUGE = 10**400  # an int no float can hold
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
            "evolution": {"eta_span": [0.0, 1.0], "n_samples": 11},
        }
        cases = [
            (lambda d: d["lattice"].pop("num_sites"), "lattice.num_sites"),
            (lambda d: d["profile"].update(kind="warp"), "profile.kind"),
            (lambda d: d["evolution"].update(eta_span=[1.0, 0.0]), "evolution.eta_span"),
            (lambda d: d["evolution"].update(eta_span=[0.0, float("inf")]),
             "evolution.eta_span"),
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
             "preparation.kind"),
            # one sample-time rule: exactly one of the count and the spacing,
            # and the keys of the old fixed-step grid are unknown
            (lambda d: d["evolution"].update(sample_spacing=0.1),
             "evolution.sample_spacing"),
            (lambda d: d["evolution"].pop("n_samples"), "evolution.n_samples"),
            (lambda d: d["evolution"].update(n_samples=1), "evolution.n_samples"),
            (lambda d: d.update(evolution={"eta_span": [0.0, 1.0], "sample_spacing": 0.3}),
             "evolution.sample_spacing"),
            (lambda d: d.update(evolution={"eta_span": [0.0, 1.0], "sample_spacing": 0.0}),
             "evolution.sample_spacing"),
            (lambda d: d["evolution"].update(method="adaptive"), "evolution.method"),
            (lambda d: d["evolution"].update(deta=-1.0), "evolution.deta"),
            (lambda d: d["evolution"].update(sample_every=1), "evolution.sample_every"),
            (lambda d: d.update(analyses=[dict(CONTOUR, spinor_mode="split")]),
             "analyses[0].spinor_mode"),
            (lambda d: d.update(analyses=[{"kind": "spectrum"},
                                          {"kind": "entropy", "block": {"length": 4},
                                           "time_stride": 2}]),
             "analyses[1].time_stride"),
            (lambda d: d.update(analyses=[dict(CONTOUR, block={"length": 4, "end": 8})]),
             "analyses[0].block.end"),
            # numbers that are not finite
            (lambda d: d["lattice"].update(mass=NAN), "lattice.mass"),
            # lattice units: a config may not set the spacing, even to 1
            (lambda d: d["lattice"].update(spacing=1.0), "lattice.spacing"),
            (lambda d: d["profile"].update(a_val=float("inf")), "profile.a_val"),
            (lambda d: d["evolution"].update(rtol=NAN), "evolution.rtol"),
            (lambda d: d.update(evolution={"eta_span": [0.0, 1.0], "sample_spacing": NAN}),
             "evolution.sample_spacing"),
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
            # ints beyond the range of a float used to end in an OverflowError
            # or a numpy TypeError that named no field
            (lambda d: d["lattice"].update(mass=HUGE), "lattice.mass"),
            (lambda d: d["evolution"].update(eta_span=[0.0, HUGE]), "evolution.eta_span"),
            (lambda d: d.update(analyses=[{"kind": "symmetry", "a_0": 0.7, "a_f": 1.3,
                                           "hubble_values": [HUGE]}]),
             "analyses[0].hubble_values"),
            (lambda d: d.update(profile={"kind": "tabulated",
                                         "samples": [[0.0, 1.0], [HUGE, 1.0]]}),
             "profile.samples"),
            # a contour takes every sample: time_stride is no field, at any value
            (lambda d: d.update(analyses=[dict(CONTOUR, time_stride=0)]),
             "analyses[0].time_stride"),
            (lambda d: d.update(analyses=[dict(CONTOUR, time_stride=-2)]),
             "analyses[0].time_stride"),
            # settings no run used are gone, even at their old defaults:
            # blocks are centred, spectra bare, and qp dressed by the last quarter
            (lambda d: d.update(analyses=[dict(CONTOUR, block={"length": 4, "start": 6})]),
             "analyses[0].block.start"),
            (lambda d: d.update(analyses=[{"kind": "spectrum", "reference_mode": "bare"}]),
             "analyses[0].reference_mode"),
            (lambda d: d.update(analyses=[{"kind": "symmetry", "a_0": 0.7, "a_f": 1.3,
                                           "hubble_values": [1.0],
                                           "reference_mode": "dressed"}]),
             "analyses[0].reference_mode"),
            (lambda d: d.update(analyses=[{"kind": "qp", "block": {"length": 4},
                                           "window": [0.75, 1.0]}]),
             "analyses[0].window"),
        ]
        for mutate, expected_path in cases:
            raw = json.loads(json.dumps(base))
            mutate(raw)
            with pytest.raises(ConfigError) as err:
                config_from_dict(raw)
            assert err.value.path == expected_path

    def test_condensates_is_not_an_analysis(self):
        # every run writes condensates.csv; asking for it ran a no-op
        with pytest.raises(ConfigError) as err:
            load_config(SMALL_RUN + "  - {kind: condensates}\n")
        assert err.value.path == "analyses[2].kind"

    def test_span_outside_profile_domain(self):
        raw = {
            "lattice": {"num_sites": 16},
            "profile": {"kind": "de_sitter", "hubble": 0.1, "eta_0": -30.0},
            "evolution": {"eta_span": [-30.0, 5.0], "n_samples": 2},
        }
        with pytest.raises(ConfigError) as err:
            config_from_dict(raw)
        assert err.value.path == "evolution.eta_span"

    def test_defaults(self):
        config = load_config(SMALL_RUN)
        assert config.preparation == config.lattice
        # the spacing is resolved to a count, solved at the reference rtol
        assert config.evolution == {"eta_span": (0.0, 2.0), "n_samples": 11,
                                    "rtol": gaussian.REFERENCE_RTOL}
        assert config.eta_span == (0.0, 2.0)
        # blocks are centred
        assert config.analyses[0].options["block"] == BlockSpec(6, 16)
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
            "sample_spacing: 0.2", "sample_spacing: 0.2, rtol: 1.0e-2").replace(
            "mass: 1.0}", "mass: 1.0, coupling: 1.0}"))
        code = main(["run", str(cfg), "--output", str(tmp_path / "out")])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "StepSizeError" in err and "between eta" in err

    def test_step_rounded_past_the_profile_domain_runs(self, tmp_path):
        # 19 intervals of 1e5/19 add up to 1e5 + 1.5e-11, past the tabulated
        # domain's 1e-12 of slack; such a run used to fail with a DomainError.
        # The last sample time is the end of the span itself.  The free vacuum
        # under a constant a is stationary, so the solve is quick
        cfg = tmp_path / "tabulated.yaml"
        cfg.write_text(
            "lattice: {num_sites: 4, mass: 1.0}\n"
            "profile: {kind: tabulated, samples: [[0.0, 1.0], [1.0e+5, 1.0]]}\n"
            "evolution: {eta_span: [0.0, 1.0e+5], n_samples: 20}\n"
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
        # a spacing of 0.5 blew RK4 up on this free quench; in closed form the
        # samples are no steps, so every shared sample matches a fine run
        tables = {}
        for grid in ("n_samples: 2", "sample_spacing: 0.2"):
            cfg = tmp_path / f"{grid[0]}.yaml"
            cfg.write_text(SMALL_RUN.replace("sample_spacing: 0.2", grid))
            out = tmp_path / grid[0]
            assert main(["run", str(cfg), "--output", str(out)]) == EXIT_OK
            for name in ("entropy_measured.csv", "spectrum.csv", "condensates.csv"):
                with open(out / name) as fh:
                    rows = np.array([[float(x) for x in row]
                                     for row in list(csv.reader(fh))[1:]])
                assert np.all(np.isfinite(rows)), (grid, name)
                tables[grid[0], name] = rows
        for name in ("entropy_measured.csv", "condensates.csv"):
            coarse, fine = tables["n", name], tables["s", name]
            assert list(coarse[:, 0]) == [0.0, 2.0]
            fine = fine[np.isin(fine[:, 0], coarse[:, 0])]
            assert np.allclose(coarse, fine, rtol=0.0, atol=1e-6), name
        assert np.allclose(tables["n", "spectrum.csv"],
                           tables["s", "spectrum.csv"], rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("edit, expected", [
        (lambda t: t, "closed_form"),
        (lambda t: t.replace("mass: 1.0}", "mass: 1.0, coupling: 1.0}"), "dop853"),
    ], ids=["free", "interacting"])
    def test_manifest_names_the_propagator_that_ran(self, tmp_path, monkeypatch,
                                                    edit, expected):
        # the lattice and profile pick the propagator; there is no fixed-step one
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
        # deta is no field, even at the NaN that used to crash the step grid
        (lambda t: t.replace("sample_spacing: 0.2", "deta: .nan"), "evolution.deta"),
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
        (lambda t: t.replace("sample_spacing: 0.2", "n_samples: 11, sample_every: true"),
         "evolution.sample_every"),
        (lambda t: t.replace("length: 6", "length: true"), "analyses[0].block.length"),
        (lambda t: t + "  - {kind: symmetry, a_0: 0.7, a_f: 1.3, "
                       "hubble_values: [on]}\n", "analyses[2].hubble_values"),
        (lambda t: t.replace("{kind: quench, a_0: 0.01, a_f: 10.0}",
                             "{kind: tabulated, samples: [[0.0, 1.0], [2.0, yes]]}"),
         "profile.samples"),
        # a quench to the mass it starts from used to pass check and then die
        # in mass_quench_prepare with a traceback naming no field
        (lambda t: t + "preparation: {m_pre: 1.0}\n",
         "preparation.m_pre"),
        # an rtol below DOP853's floor used to run at the floor, exit 0, and
        # leave the asked-for value in the manifest
        (lambda t: t.replace("sample_spacing: 0.2", "sample_spacing: 0.2, rtol: -1.0"),
         "evolution.rtol"),
        (lambda t: t.replace("sample_spacing: 0.2", "sample_spacing: 0.2, rtol: 1.0e-15"),
         "evolution.rtol"),
        # output.binary used to add state_final.npy; the switch is gone
        (lambda t: t + "output: {binary: true}\n", "output.binary"),
        # blocks are centred and spectra bare, with no setting for either
        (lambda t: t.replace("length: 6}", "length: 6, start: 0}"),
         "analyses[0].block.start"),
        (lambda t: t.replace("{kind: spectrum}", "{kind: spectrum, reference_mode: bare}"),
         "analyses[1].reference_mode"),
        # one sample-time rule
        (lambda t: t.replace("sample_spacing: 0.2", "method: rk4, sample_spacing: 0.2"),
         "evolution.method"),
        (lambda t: t.replace("sample_spacing: 0.2", "deta: 1.0e-3, sample_every: 200"),
         "evolution.deta"),
        (lambda t: t.replace("sample_spacing: 0.2", "n_samples: 11, sample_spacing: 0.2"),
         "evolution.sample_spacing"),
        (lambda t: t.replace(", sample_spacing: 0.2", ""), "evolution.n_samples"),
        (lambda t: t.replace("sample_spacing: 0.2", "sample_spacing: 0.3"),
         "evolution.sample_spacing"),
        (lambda t: t.replace("sample_spacing: 0.2", "n_samples: true"),
         "evolution.n_samples"),
        # ints beyond the range of a float used to end in a traceback
        (lambda t: t.replace("mass: 1.0", f"mass: {HUGE}"), "lattice.mass"),
        (lambda t: t.replace("[0.0, 2.0]", f"[0.0, {HUGE}]"), "evolution.eta_span"),
        (lambda t: t + "  - {kind: symmetry, a_0: 0.7, a_f: 1.3, "
                       f"hubble_values: [{HUGE}]}}\n", "analyses[2].hubble_values"),
        (lambda t: t.replace("{kind: quench, a_0: 0.01, a_f: 10.0}",
                             f"{{kind: tabulated, samples: [[0.0, 1.0], [2.0, {HUGE}]]}}"),
         "profile.samples"),
        # a sample count whose trajectory no memory holds used to pass check
        # and end run in a traceback from np.linspace
        (lambda t: t.replace("sample_spacing: 0.2", "n_samples: 100000000000000000000"),
         "evolution.n_samples"),
        (lambda t: t.replace("sample_spacing: 0.2", "sample_spacing: 1.0e-12"),
         "evolution.sample_spacing"),
        # a second entropy analysis used to overwrite the first's
        # entropy_measured.csv and exit 0
        (lambda t: t + "  - {kind: entropy, block: {length: 4}}\n", "analyses[2].kind"),
    ], ids=["deta_nan", "mass_nan", "mass_typo", "symmetry_a_f_nan", "time_stride_0",
            "symmetry_a_f_below_a_0", "symmetry_a_f_equal_a_0", "hubble_inf",
            "mass_bool", "eta_span_bools", "sample_every_bool", "block_length_bool",
            "hubble_bool", "tabulated_sample_bool", "m_pre_equal_mass",
            "rtol_negative", "rtol_below_floor", "output_binary", "block_start",
            "reference_mode", "method", "deta", "both_counts",
            "neither_count", "spacing_not_dividing", "n_samples_bool", "mass_huge_int",
            "eta_span_huge_int", "hubble_huge_int", "tabulated_sample_huge_int",
            "n_samples_huge", "sample_spacing_tiny", "repeated_kind"])
    def test_bad_fields_exit_1_before_evolving(self, tmp_path, capsys, edit, field):
        # each of these used to evolve (or start to) and then die with a
        # traceback, blame the step size, or run with the field ignored;
        # check and run both refuse it
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(edit(SMALL_RUN))
        out = tmp_path / "out"
        for argv in (["check", str(cfg)], ["run", str(cfg), "--output", str(out)]):
            assert main(argv) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert field in err
            assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, manifest_text, key", [
        (["plots", "manifest.json"], "{not json", ""),
        (["plots", "manifest.json"], "[1, 2]", ""),
        (["plots", "manifest.json"], '{"config": {}, "wall_time_s": 0.0, "version": "0"}',
         "'files'"),
        (["run", "run.yaml", "--output", "taken"], "", ""),
        (["run", "."], "", ""),
    ], ids=["manifest_not_json", "manifest_a_json_list", "manifest_without_files",
            "output_is_a_file", "config_is_a_directory"])
    def test_bad_paths_exit_1_naming_them(self, tmp_path, capsys, argv, manifest_text, key):
        # each of these used to end in a traceback: JSONDecodeError, TypeError,
        # KeyError, FileExistsError and IsADirectoryError
        (tmp_path / "run.yaml").write_text(SMALL_RUN)
        (tmp_path / "manifest.json").write_text(manifest_text)
        (tmp_path / "taken").write_text("")
        argv = argv[:1] + [arg if arg.startswith("--") else str(tmp_path / arg)
                           for arg in argv[1:]]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert argv[-1] in err and key in err, err

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
            "evolution: {eta_span: [0.0, 0.5], sample_spacing: 0.1}\n"
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
            "evolution": {"eta_span": [0.0, 2.0], "sample_spacing": 0.1},
        })
        traj = pipeline._evolve(config, pipeline._prepare(config)[0])
        etas = gaussian.sample_grid((0.0, 2.0), 21)
        assert np.array_equal(traj.etas, etas)
        early = etas < 1.05
        before = gaussian.evolve_adaptive(
            pipeline._prepare(config)[0], StaticProfile(0.7), (0.0, 1.05),
            sample_etas=np.append(etas[early], 1.05), rtol=gaussian.REFERENCE_RTOL)
        after = gaussian.evolve_adaptive(
            before.state(-1), StaticProfile(1.3), (1.05, 2.0),
            sample_etas=etas[~early], rtol=gaussian.REFERENCE_RTOL)
        split = np.concatenate([before.bloch[:-1], after.bloch])
        assert np.max(np.abs(traj.bloch - split)) < 1e-9
        assert np.array_equal(traj.a_vals, np.where(early, 0.7, 1.3))

    # the interacting vacuum has Pi = 0, so DOP853 solves half of the 16 momenta
    @pytest.mark.parametrize("coupling, propagator, momenta", [(0.0, "closed_form", 16),
                                                               (1.0, "dop853", 9)],
                             ids=["free", "interacting"])
    def test_manifest_records_diagnostics(self, tmp_path, coupling, propagator, momenta):
        text = SMALL_RUN.replace("mass: 1.0}", f"mass: 1.0, coupling: {coupling}}}")
        config = load_config(text)
        traj = pipeline._evolve(config, pipeline._prepare(config)[0])
        cfg = tmp_path / "run.yaml"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output", str(out)]) == EXIT_OK
        manifest = RunManifest.load(out / "manifest.json")
        assert manifest.propagator == propagator
        diagnostics = dict(manifest.diagnostics)
        assert set(diagnostics.pop("stage_s")) >= {"prepare", "evolve", "write"}
        assert diagnostics == {"nfev": traj.nfev, "evolved_momenta": momenta,
                               "max_purity_defect": traj.purity_defect(),
                               "parity_sector_fraction": {"analyses[0].entropy": 1.0},
                               "diagonalised_sites": {"analyses[0].entropy": 6}}
        assert (traj.nfev == 0) == (propagator == "closed_form")
        assert 0.0 <= traj.purity_defect() < 1e-6
        # the diagnostics are not in the inventory, which still verifies
        assert "diagnostics" not in manifest.files and manifest.verify() == []

    def test_manifest_records_the_sweep_nfev_of_each_rate(self, tmp_path):
        # fig6's sweep: one DOP853 solve per rate below the sudden limit,
        # none at H = 100; the counts stay out of the inventory
        config = preset_config("fig6")
        manifest = pipeline.run(config, output_dir=tmp_path)
        i, opts = next((i, a.options) for i, a in enumerate(config.analyses)
                       if a.kind == "symmetry")
        sweep = spectrum_symmetry_check(config.lattice, opts["a_0"], opts["a_f"],
                                        opts["hubble_values"])
        stage = f"analyses[{i}].symmetry"
        recorded = RunManifest.load(tmp_path / "manifest.json").diagnostics["sweep_nfev"]
        assert recorded == manifest.diagnostics["sweep_nfev"] == {
            stage: [r["nfev"] for r in sweep]}
        recorded = recorded[stage]
        assert [n == 0 for n in recorded] == [h >= symmetry.QUENCH_LIMIT_HUBBLE
                                              for h in opts["hubble_values"]]
        assert all(n >= 17 for n, h in zip(recorded, opts["hubble_values"]) if h < 100.0)
        assert "symmetry_sweep.csv" in manifest.files and manifest.verify() == []

    def test_manifest_records_the_wall_time_of_each_stage(self, tmp_path):
        text = SMALL_RUN + "  - {kind: contour, block: {length: 4}}\n"
        manifest = pipeline.run(load_config(text), output_dir=tmp_path)
        stage_s = RunManifest.load(tmp_path / "manifest.json").diagnostics["stage_s"]
        assert stage_s == manifest.diagnostics["stage_s"]
        assert set(stage_s) == {"prepare", "evolve", "analyses[0].entropy",
                                "analyses[1].spectrum", "analyses[2].contour", "write"}
        assert all(isinstance(t, float) and t >= 0.0 for t in stage_s.values())
        assert sum(stage_s.values()) <= manifest.wall_time
        # the timings stay out of the inventory, so the files keep their digests
        assert set(manifest.files) == {"condensates.csv", "entropy_measured.csv",
                                       "spectrum.csv", "contour.csv"}
        assert manifest.verify() == []

    @pytest.mark.parametrize("preset, fraction", [("fig2_free", 1.0), ("fig5", 0.0)])
    def test_manifest_records_the_parity_sector_fraction(self, tmp_path, monkeypatch,
                                                         preset, fraction):
        # fig2_free keeps Pi = 0; fig5 is released from the Pi = 1.07 vacuum.
        # The fraction is read from the path each block took: one FFT a block
        ffts = []
        separations = entanglement.separation_blocks

        def counted(state):
            ffts.append(state)
            return separations(state)

        monkeypatch.setattr(entanglement, "separation_blocks", counted)
        config = preset_config(preset)
        manifest = pipeline.run(config, output_dir=tmp_path)
        recorded = RunManifest.load(tmp_path / "manifest.json").diagnostics
        assert recorded["parity_sector_fraction"] == {"analyses[0].contour": fraction}
        assert len(ffts) == len(preset_run(preset)[1].etas)
        assert "parity_sector_fraction" not in manifest.files and manifest.verify() == []

    @pytest.mark.parametrize("preset, sites", [("fig2_free", 128), ("fig4", 96)])
    def test_manifest_records_the_diagonalised_sites(self, tmp_path, preset, sites):
        # fig4's 160-site block of 256 goes through its 96-site complement;
        # fig2_free's 128 sites are half the chain, so through the block
        config = preset_config(preset)
        manifest = pipeline.run(config, output_dir=tmp_path)
        recorded = RunManifest.load(tmp_path / "manifest.json").diagnostics
        block = config.analyses[0].options["block"]
        assert recorded["diagonalised_sites"] == {"analyses[0].contour": sites}
        assert sites == min(block.length, block.num_sites - block.length)
        assert "diagonalised_sites" not in manifest.files and manifest.verify() == []

    @pytest.mark.parametrize("preparation, a_0, sweep_solves", [
        ("", 0.7, 0),
        ("preparation: {coupling_pre: 3.0}\n", 0.7, 0),
        ("preparation: {coupling_pre: 2.0}\n", 0.7, 1),
        ("preparation: {m_pre: -2.0}\n", 0.7, 1),
        ("", 0.8, 1),
    ], ids=["vacuum", "same_coupling_pre", "other_coupling_pre", "mass_quench",
            "other_a_0"])
    def test_symmetry_sweep_starts_from_the_prepared_vacuum(
            self, tmp_path, monkeypatch, preparation, a_0, sweep_solves):
        # the sweep solves for its vacuum at a_0 only when the run did not
        # prepare that vacuum already, and writes the same bytes either way
        solves = []

        def counted_solve(*a, **kw):
            solves.append(a)
            return solve(*a, **kw)

        solve = symmetry.self_consistent_ground_state
        monkeypatch.setattr(symmetry, "self_consistent_ground_state", counted_solve)
        config = load_config(
            "lattice: {num_sites: 16, mass: -1.0, coupling: 3.0}\n"
            "profile: {kind: quench, a_0: 0.7, a_f: 1.3}\n" + preparation +
            "evolution: {eta_span: [0.0, 0.2], n_samples: 3}\n"
            "analyses:\n"
            f"  - {{kind: symmetry, a_0: {a_0}, a_f: 1.3, hubble_values: [100.0, 4.0]}}\n")
        pipeline.run(config, output_dir=tmp_path)
        assert len(solves) == sweep_solves
        with open(tmp_path / "symmetry_sweep.csv") as fh:
            written = [[float(x) for x in row] for row in list(csv.reader(fh))[1:]]
        expected = spectrum_symmetry_check(config.lattice, a_0, 1.3, [100.0, 4.0])
        assert written == [[r["hubble"], r["asymmetry"], r["beta_sq_sum"]]
                           for r in expected]

    def test_qp_clock_starts_at_a_quench_inside_the_span(self, tmp_path):
        # pairs are made at the switch: no entropy before it, and after it the
        # prediction for a quench at eta = 0, shifted by eta_switch
        config = load_config(
            "lattice: {num_sites: 64, mass: 1.0}\n"
            "profile: {kind: quench, a_0: 0.01, a_f: 10.0, eta_switch: 2.0}\n"
            "evolution: {eta_span: [0.0, 4.0], sample_spacing: 0.25}\n"
            "analyses: [{kind: qp, block: {length: 16}}]\n")
        pipeline.run(config, output_dir=tmp_path)
        with open(tmp_path / "entropy_qp.csv") as fh:
            rows = np.array([[float(x) for x in row] for row in list(csv.reader(fh))[1:]])
        before = rows[:, 0] < 2.0
        assert np.count_nonzero(before) == 8 and np.all(rows[before, 1] == 0.0)
        traj = pipeline._evolve(config, pipeline._prepare(config)[0])
        qp = qp_input_from_spectrum(bogoliubov_spectrum(traj.state(-1), 10.0), 16)
        assert rows[~before, 1].tolist() == [qp_entropy(qp, eta - 2.0)
                                             for eta in rows[~before, 0]]

    def test_qp_clock_starts_where_an_exponential_ramp_starts(self, tmp_path):
        # a(eta) is flat at a_0 before eta = 0, so the vacuum is stationary and
        # no pairs are made there; the clock used to start at the first sample
        config = load_config(
            "lattice: {num_sites: 64, mass: 1.0}\n"
            "profile: {kind: exponential, a_0: 0.01, a_f: 10.0, hubble: 100.0}\n"
            "evolution: {eta_span: [-2.0, 4.0], sample_spacing: 0.25}\n"
            "analyses: [{kind: qp, block: {length: 16}}]\n")
        pipeline.run(config, output_dir=tmp_path)
        with open(tmp_path / "entropy_qp.csv") as fh:
            rows = np.array([[float(x) for x in row] for row in list(csv.reader(fh))[1:]])
        before = rows[:, 0] <= 0.0
        assert np.count_nonzero(before) == 9 and np.all(rows[before, 1] == 0.0)
        traj = pipeline._evolve(config, pipeline._prepare(config)[0])
        a_f = float(traj.a_vals[-1])  # the ramp's formula lands a few ulp short of 10
        qp = qp_input_from_spectrum(bogoliubov_spectrum(traj.state(-1), a_f), 16)
        assert rows[~before, 1].tolist() == [qp_entropy(qp, eta)
                                             for eta in rows[~before, 0]]

    @pytest.mark.parametrize("preparation", ["{m_pre: 2.0}",
                                             "{coupling_pre: 3.0}"],
                             ids=["mass_quench", "coupling_pre"])
    def test_qp_clock_starts_at_a_quenched_preparation_on_any_profile(self, tmp_path,
                                                                      preparation):
        # a mass quench, or the vacuum of another coupling released into this
        # one, makes pairs at eta_0, before the ramp starts at eta = 0: the
        # clock starts at the first sample, as the measured entropy does
        config = load_config(
            "lattice: {num_sites: 64, mass: 1.0}\n"
            "profile: {kind: exponential, a_0: 1.0, a_f: 10.0, hubble: 1.0}\n"
            f"preparation: {preparation}\n"
            "evolution: {eta_span: [-2.0, 4.0], sample_spacing: 0.25}\n"
            "analyses: [{kind: qp, block: {length: 16}}, "
            "{kind: entropy, block: {length: 16}}]\n")
        pipeline.run(config, output_dir=tmp_path)
        rows = {}
        for name in ("entropy_qp.csv", "entropy_measured.csv"):
            with open(tmp_path / name) as fh:
                rows[name] = np.array([[float(x) for x in row[:1] + row[-1:]]
                                       for row in list(csv.reader(fh))[1:]])
        qp_rows, measured = rows["entropy_qp.csv"], rows["entropy_measured.csv"]
        before_ramp = qp_rows[:, 0] <= 0.0
        assert np.count_nonzero(before_ramp) == 9
        assert measured[8, 1] > measured[0, 1] + 0.3  # pairs made before the ramp
        assert qp_rows[0, 1] == 0.0 and np.all(qp_rows[1:9, 1] > 0.0)
        traj = pipeline._evolve(config, pipeline._prepare(config)[0])
        qp = qp_input_from_spectrum(bogoliubov_spectrum(traj.state(-1),
                                                        float(traj.a_vals[-1])), 16)
        assert qp_rows[:, 1].tolist() == [qp_entropy(qp, eta + 2.0)
                                          for eta in qp_rows[:, 0]]

    @pytest.mark.parametrize("preset, expected", [("fig1a", False), ("fig3c", True)])
    def test_manifest_flags_the_qp_validity_regime(self, tmp_path, preset, expected):
        # fig3c's Sigma oscillations persist (late/early ratio about 1.03), so
        # its entropy_qp.csv is advisory; fig1a is free, with no ratio to judge
        config = preset_config(preset)
        pipeline.run(config, output_dir=tmp_path)
        manifest = RunManifest.load(tmp_path / "manifest.json")
        stage = next(f"analyses[{i}].qp" for i, a in enumerate(config.analyses)
                     if a.kind == "qp")
        flag = manifest.diagnostics["qp_out_of_validity"][stage]
        persistence = manifest.diagnostics["qp_sigma_persistence"][stage]
        assert flag is expected
        if preset == "fig1a":
            assert persistence is None
        else:
            _, traj = preset_run(preset)
            assert persistence == condensate_persistence(traj, "sigma")
            assert flag is (persistence > PERSISTENCE_LIMIT)
        assert manifest.verify() == []

    def test_qp_validity_is_null_on_a_sparse_trajectory(self, tmp_path):
        # 11 samples hold too few in the early window to judge persistence
        text = SMALL_RUN.replace("mass: 1.0}", "mass: 1.0, coupling: 1.0}")
        cfg = tmp_path / "run.yaml"
        cfg.write_text(text + "  - {kind: qp, block: {length: 6}}\n")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output", str(out)]) == EXIT_OK
        diagnostics = json.loads((out / "manifest.json").read_text())["diagnostics"]
        assert diagnostics["qp_out_of_validity"] == {"analyses[2].qp": None}
        assert diagnostics["qp_sigma_persistence"] == {"analyses[2].qp": None}


class TestWriteCsv:
    """``pipeline._write_csv`` writes the bytes ``csv.writer`` writes given
    each float cell as f"{x:.17g}": floats, ints, numpy bools and strings,
    as ``symmetry_report.csv`` mixes them, with "\\r\\n" line ends."""

    HEADER = ["symmetry", "residual[1/a]", "count", "holds"]
    ROWS = [
        ("T", -0.0, 0, np.bool_(True)),
        ("C", 5e-324, 7, np.bool_(False)),
        ("S", 1e300, -3, True),
        ("P", np.float64(0.1), 2**70, np.bool_(True)),
        ("CP", float("nan"), np.int64(-12), False),
        ("PT", -float("inf"), 1, np.bool_(False)),
        ("PC", 1.0, 10**20, np.bool_(True)),
    ]

    @staticmethod
    def _csv_writer_bytes(path, header, rows):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([f"{x:.17g}" if isinstance(x, float) else x for x in row])
        return path.read_bytes()

    @pytest.mark.parametrize("rows_per_write", [1, 3, 7, 100])
    def test_same_bytes_as_csv_writer(self, tmp_path, rows_per_write):
        expected = self._csv_writer_bytes(tmp_path / "reference.csv", self.HEADER,
                                          self.ROWS)
        assert pipeline._write_csv(tmp_path / "out.csv", self.HEADER, iter(self.ROWS),
                                   rows_per_write=rows_per_write) == ["out.csv"]
        written = (tmp_path / "out.csv").read_bytes()
        assert written == expected
        lines = written.split(b"\r\n")
        assert len(lines) == len(self.ROWS) + 2 and lines[-1] == b""
        assert lines[1] == b"T,-0,0,True" and lines[2] == b"C,4.9406564584124654e-324,7,False"
        assert b"\n" not in written.replace(b"\r\n", b"")

    def test_a_header_alone(self, tmp_path):
        expected = self._csv_writer_bytes(tmp_path / "reference.csv", self.HEADER, [])
        pipeline._write_csv(tmp_path / "out.csv", self.HEADER, [])
        assert (tmp_path / "out.csv").read_bytes() == expected == b",".join(
            h.encode() for h in self.HEADER) + b"\r\n"
