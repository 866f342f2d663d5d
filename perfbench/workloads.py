"""The benchmark's workloads: shipped presets with a shorter horizon.

Each workload is a preset from ``cosmodirac.presets`` with a few
evolution or analysis settings overridden, so that one repetition takes
about a second.  Lattice, couplings, profile, preparation and the kind of
every analysis are the preset's own; only the span of conformal time,
the sample count or the list of Hubble rates shrink.  Short repetitions
are what make the benchmark steady: the host's speed swings by up to a
factor of two in stretches of seconds, and many short repetitions let a
run see the host at its usual fast speed (see README.md, "Noise").
"""

from __future__ import annotations

import copy

import yaml

WORKLOADS = {
    # fig1a: 5,000 of the preset's 60,000 RK4 steps, 11 samples.
    "free_quench_entropy": {
        "preset": "fig1a",
        "evolution": {"eta_span": [0.0, 2.5]},
    },
    # fig2_int: 3,000 of 70,000 RK4 steps, 7 samples of the N_S=512 contour.
    "interacting_contour_512": {
        "preset": "fig2_int",
        "evolution": {"eta_span": [0.0, 1.5]},
    },
    # fig4: the last stretch of the de Sitter chart, 21 contour samples.
    "desitter_adaptive_contour": {
        "preset": "fig4",
        "evolution": {"eta_span": [-3.0, -0.001362], "n_samples": 21},
    },
    # fig6: four of the six Hubble rates (the quench limit down to H = 0.3).
    "symmetry_sweep": {
        "preset": "fig6",
        "analyses": {"symmetry": {"hubble_values": [100.0, 4.0, 1.0, 0.3]}},
    },
}


def workload_raw(name: str, preset_text: str) -> dict:
    """The preset's parsed mapping with the workload's overrides applied."""
    spec = WORKLOADS[name]
    raw = copy.deepcopy(yaml.safe_load(preset_text))
    raw["evolution"].update(spec.get("evolution", {}))
    for kind, settings in spec.get("analyses", {}).items():
        matches = [a for a in raw["analyses"] if a.get("kind") == kind]
        if len(matches) != 1:
            raise ValueError(f"{name}: preset has {len(matches)} {kind!r} analyses")
        matches[0].update(settings)
    return raw


def workload_text(name: str, preset_text: str) -> str:
    """YAML text of the workload's config, for ``config.load_config``."""
    return yaml.safe_dump(workload_raw(name, preset_text), sort_keys=False)
