"""Tests of the benchmark's own machinery: output check, span arithmetic,
removal of the trace wrappers, workload definitions and host-speed rescaling.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import csv
import importlib
import sys
import tempfile
import unittest
from pathlib import Path

import yaml

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402
from check import check_run, load_reference, make_reference  # noqa: E402
from tracing import PROFILE_CLASSES, SPAN_SITES, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, workload_raw, workload_text  # noqa: E402


def _write(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


class OutputCheckTest(unittest.TestCase):
    N_ROWS = 1000  # more than the sample, so some rows are not stored

    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self._tmp.name)
        self.header = ["eta[a]", "S[nats]", "holds"]
        self.rows = [[f"{0.1 * i:.17g}", f"{1.0 / (i + 1):.17g}", str(i % 2 == 0)]
                     for i in range(self.N_ROWS)]
        _write(self.dir / "entropy.csv", self.header, self.rows)
        (self.dir / "manifest.json").write_text("{}\n")
        self.ref = make_reference(self.dir, "synthetic")
        self.sampled = sorted(int(i) for i in self.ref["files"]["entropy.csv"]["rows"])
        self.unsampled = next(i for i in range(self.N_ROWS) if i not in self.sampled)

    def tearDown(self):
        self._tmp.cleanup()

    def _rewrite(self, row, col, value):
        rows = [list(r) for r in self.rows]
        rows[row][col] = value
        _write(self.dir / "entropy.csv", self.header, rows)

    def test_unchanged_run_passes(self):
        result = check_run(self.dir, self.ref)
        self.assertTrue(result["ok"], result["errors"])
        self.assertTrue(result["digest_match"])
        self.assertEqual(result["max_abs_dev"], 0.0)

    def test_deviation_of_an_equally_accurate_integrator_passes(self):
        row = self.sampled[3]
        self._rewrite(row, 1, repr(float(self.rows[row][1]) + 1e-8))
        result = check_run(self.dir, self.ref)
        self.assertTrue(result["ok"], result["errors"])
        self.assertFalse(result["digest_match"])

    def test_corrupted_value_fails(self):
        row = self.sampled[3]
        self._rewrite(row, 1, repr(float(self.rows[row][1]) + 1e-3))
        self.assertFalse(check_run(self.dir, self.ref)["ok"])

    def test_changed_text_cell_fails(self):
        self._rewrite(self.sampled[1], 2, "Maybe")
        self.assertFalse(check_run(self.dir, self.ref)["ok"])

    def test_nan_fails_even_outside_the_sample(self):
        for row in (self.sampled[2], self.unsampled):
            with self.subTest(row=row):
                self._rewrite(row, 1, "nan")
                self.assertFalse(check_run(self.dir, self.ref)["ok"])

    def test_truncated_or_missing_file_fails(self):
        _write(self.dir / "entropy.csv", self.header, self.rows[:-1])
        self.assertFalse(check_run(self.dir, self.ref)["ok"])
        (self.dir / "entropy.csv").unlink()
        self.assertFalse(check_run(self.dir, self.ref)["ok"])


class SpanArithmeticTest(unittest.TestCase):
    def test_self_time_is_duration_minus_covered_child_time(self):
        spans = [
            ["pipeline.run", 0.0, 10.0, -1, "r", None],
            ["gaussian.evolve", 1.0, 4.0, 0, "r", None],
            ["entanglement.block_entropy", 3.0, 6.0, 0, "r", None],  # overlaps evolve
            ["lattice.cosmological_time", 2.0, 3.0, 1, "r", None],
            ["production.bogoliubov_spectrum", 9.0, 12.0, 0, "r", None],  # past the parent
        ]
        # root: children cover [1, 6] and [9, 10] -> 10 - 6
        self.assertEqual(self_times(spans), [4.0, 2.0, 3.0, 1.0, 3.0])

    def test_layer_self_times_add_up_to_the_root(self):
        spans = [
            ["pipeline.run", 0.0, 10.0, -1, "r", None],
            ["gaussian.evolve", 0.5, 6.0, 0, "r", {"steps": 100}],
            ["entanglement.contour_trajectory", 6.0, 9.5, 0, "r", None],
            ["gaussian.real_space_correlation", 6.5, 7.0, 2, "r", {"bytes": 64}],
            ["entanglement.entanglement_contour", 7.0, 8.0, 2, "r", {"dim": 8}],
        ]
        m = layer_metrics(spans, {"lattice.scale_factor_calls": 400,
                                  "gaussian.adaptive_nfev": 0})
        self.assertAlmostEqual(sum(v for k, v in m.items() if k.endswith(".self_s")), 10.0)
        self.assertAlmostEqual(m["pipeline.self_s"], 1.0)
        self.assertAlmostEqual(m["gaussian.self_s"], 6.0)
        self.assertAlmostEqual(m["entanglement.self_s"], 3.0)
        self.assertAlmostEqual(m["gaussian.us_per_step"], 5.5e6 / 100)
        self.assertEqual(m["entanglement.eigh_dim"], 8)
        self.assertEqual(m["gaussian.real_space_bytes_computed"], 64)


class WrapperLifetimeTest(unittest.TestCase):
    def _attributes(self):
        found = {}
        for module_name, names in SPAN_SITES:
            module = importlib.import_module(module_name)
            for name in names:
                found[(module_name, name)] = getattr(module, name)
        lattice = importlib.import_module("cosmodirac.lattice")
        for cls in PROFILE_CLASSES:
            found[(cls, "scale_factor")] = vars(getattr(lattice, cls))["scale_factor"]
        found[("scipy.integrate", "solve_ivp")] = importlib.import_module(
            "scipy.integrate").solve_ivp
        return found

    def test_untraced_calls_reach_the_unwrapped_functions(self):
        from cosmodirac import gaussian, pipeline
        from cosmodirac.lattice import LatticeSpec, QuenchProfile

        before = self._attributes()
        state = gaussian.free_ground_state(LatticeSpec(num_sites=8), 0.5, a_val=0.5)
        profile = QuenchProfile(a_0=0.5, a_f=1.0)
        tracer = Tracer("test")
        with tracer:
            self.assertIsNot(pipeline.evolve, gaussian.evolve)
            pipeline.evolve(state, profile, (0.0, 0.01), 1e-3)
        self.assertEqual([s[0] for s in tracer.spans], ["gaussian.evolve"])
        self.assertEqual(tracer.spans[0][5], {"steps": 10})
        calls = tracer.counts["lattice.scale_factor_calls"]
        self.assertGreaterEqual(calls, 40)

        after = self._attributes()
        for key, original in before.items():
            self.assertIs(after[key], original, key)
        self.assertIs(pipeline.evolve, gaussian.evolve)
        pipeline.evolve(state, profile, (0.0, 0.01), 1e-3)
        self.assertEqual(len(tracer.spans), 1)
        self.assertEqual(tracer.counts["lattice.scale_factor_calls"], calls)


class WorkloadTest(unittest.TestCase):
    def test_overrides_change_only_what_they_name(self):
        from cosmodirac import cli

        for name, spec in WORKLOADS.items():
            with self.subTest(workload=name):
                shipped = yaml.safe_load(cli.preset_text(spec["preset"]))
                raw = workload_raw(name, cli.preset_text(spec["preset"]))
                self.assertEqual(raw["lattice"], shipped["lattice"])
                self.assertEqual(raw["profile"], shipped["profile"])
                self.assertEqual([a["kind"] for a in raw["analyses"]],
                                 [a["kind"] for a in shipped["analyses"]])
                for key, value in spec.get("evolution", {}).items():
                    self.assertEqual(raw["evolution"][key], value)

    def test_configs_validate_and_references_match_the_definitions(self):
        from cosmodirac import cli, config

        for name, spec in WORKLOADS.items():
            with self.subTest(workload=name):
                config.load_config(workload_text(name, cli.preset_text(spec["preset"])))
                self.assertEqual(load_reference(name)["workload"], spec)

    def test_an_override_needs_exactly_one_analysis_of_its_kind(self):
        WORKLOADS["_test"] = {"preset": "fig1a", "analyses": {"contour": {"block": {}}}}
        try:
            with self.assertRaises(ValueError):
                workload_raw("_test", "evolution: {}\nanalyses: [{kind: entropy}]\n")
        finally:
            del WORKLOADS["_test"]


class HostSpeedTest(unittest.TestCase):
    def test_rescaling_uses_the_mean_of_the_bracketing_probes(self):
        ref = hostspeed.REFERENCE_S
        slow = {k: 3.0 * v for k, v in ref.items()}
        e = hostspeed.ELASTICITY
        self.assertAlmostEqual(hostspeed.scaled(2.0, ref, ref), 2.0)
        self.assertAlmostEqual(hostspeed.scaled(2.0, ref, slow), 2.0 * 0.5 ** e)
        self.assertAlmostEqual(hostspeed.scaled(2.0, slow, slow), 2.0 * 3.0 ** -e)

    def test_probe_times_every_part(self):
        times = hostspeed.probe()
        self.assertEqual(set(times), set(hostspeed.REFERENCE_S))
        self.assertTrue(all(t > 0.0 for t in times.values()))


if __name__ == "__main__":
    unittest.main()
