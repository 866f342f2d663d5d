"""Config validation, shipped presets, CLI exit codes, and reproducibility."""

import json

import pytest

from cosmodirac.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main, preset_names
from cosmodirac.config import ConfigError, config_from_dict, load_config
from cosmodirac.pipeline import RunManifest

from conftest import preset_config

SMALL_RUN = """
lattice: {num_sites: 16, mass: 1.0}
profile: {kind: quench, a_0: 0.01, a_f: 10.0}
evolution: {eta_span: [0.0, 2.0], deta: 1.0e-3, sample_every: 200}
analyses:
  - {kind: entropy, block: {length: 6}}
  - {kind: spectrum}
"""


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
               [float("-inf"), 1.0], [0.0, "1"], [0.0, 1.0, 2.0])
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
        assert config.output["formats"] == ["csv"]
        assert config.eta_span == (0.0, 2.0)
        # centered by default
        assert config.analyses[0].options["block"] == {"start": 5, "length": 6}


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
        assert main(["run", str(cfg), "--workers", "0"]) == EXIT_CONFIG
        assert main(["run", str(cfg)]) == EXIT_CONFIG  # no output directory
        assert main(["plots", str(tmp_path / "nope.json")]) == EXIT_CONFIG
        assert "error" in capsys.readouterr().err

    def test_numerical_failure_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "unstable.yaml"
        cfg.write_text(SMALL_RUN.replace("1.0e-3", "0.5"))
        code = main(["run", str(cfg), "--output", str(tmp_path / "out")])
        assert code == EXIT_NUMERICAL
        assert "StepSizeError" in capsys.readouterr().err

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

    def test_run_plots_and_bit_reproducibility(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(SMALL_RUN)
        out1, out2 = tmp_path / "out1", tmp_path / "out2"
        assert main(["run", str(cfg), "--output", str(out1)]) == EXIT_OK
        assert main(["run", str(cfg), "--output", str(out2)]) == EXIT_OK
        m1 = RunManifest.load(out1 / "manifest.json")
        m2 = RunManifest.load(out2 / "manifest.json")
        m1.verify()
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
        manifest.verify()
        assert "condensates.csv" in manifest.files
