"""The package imports and runs with scipy unimportable.

scipy is only the tests' oracle: a subprocess that blocks ``import scipy``
before anything else imports cosmodirac, runs an adaptive de Sitter config
(which DOP853 solves in the mass frame) and a tabulated-profile config (which DOP853 solves on half its momenta)
through ``pipeline.run`` and finds the group velocity, and must load no
scipy module while writing the bytes an in-process run writes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import cosmodirac
from cosmodirac import pipeline
from cosmodirac.config import load_config

CONFIGS = {
    "de_sitter": (
        "lattice: {num_sites: 32, mass: 1.0, coupling: 2.0}\n"
        "profile: {kind: de_sitter, hubble: 0.5, eta_0: -4.0}\n"
        "preparation: {m_pre: -1.0}\n"
        "evolution: {eta_span: [-4.0, -0.5], n_samples: 6, rtol: 1.0e-10}\n"
        "analyses:\n"
        "  - {kind: entropy, block: {length: 8}}\n"
        "  - {kind: contour, block: {length: 8}}\n"
    ),
    "tabulated": (
        "lattice: {num_sites: 16, mass: 1.0}\n"
        "profile: {kind: tabulated, samples: [[0.0, 0.5], [1.0, 1.2], [2.0, 0.9]]}\n"
        "evolution: {eta_span: [0.0, 2.0], sample_spacing: 0.25}\n"
        "analyses:\n"
        "  - {kind: entropy, block: {length: 4}}\n"
        "  - {kind: spectrum}\n"
    ),
}

CHILD = """
import json, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import cosmodirac
from cosmodirac import group_velocity, load_config, pipeline

def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy") and m != "scipy")

after_import = scipy_modules()
inventories = {}
for name, path in json.loads(sys.argv[1]).items():
    with open(path) as fh:
        config = load_config(fh)
    inventories[name] = pipeline.run(config, output_dir=path + ".out").files
group_velocity(-1.3, 0.05, 0.2)
print(json.dumps({"after_import": after_import, "after_runs": scipy_modules(),
                  "inventories": inventories}))
"""


def test_runs_without_scipy(tmp_path):
    paths = {}
    for name, text in CONFIGS.items():
        paths[name] = str(tmp_path / f"{name}.yaml")
        Path(paths[name]).write_text(text)
    env = dict(os.environ, PYTHONPATH=str(Path(cosmodirac.__file__).parents[1]))
    child = subprocess.run([sys.executable, "-c", CHILD, json.dumps(paths)], env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout.splitlines()[-1])
    assert report["after_import"] == [] and report["after_runs"] == []
    for name, text in CONFIGS.items():
        manifest = pipeline.run(load_config(text), output_dir=tmp_path / name)
        assert report["inventories"][name] == manifest.files
        assert manifest.propagator == "dop853"
        # the de Sitter run's one piece is mass-dominated and takes the mass frame
        assert manifest.diagnostics["mass_frame_pieces"] == (name == "de_sitter")
    # the free tabulated run starts mirror-symmetric: half of its 16 momenta
    assert manifest.diagnostics["evolved_momenta"] == 9
