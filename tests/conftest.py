"""Shared fixtures: preset-driven trajectories cached for the whole session.

The acceptance suite exercises the shipped figure presets; several
criteria share the same evolution, so runs are cached by preset name and
contour fields by (preset, block length).  Presets that differ only in
their analyses (fig3b, fig3c, fig3d) share one trajectory.
"""

import json

import numpy as np
import pytest

from cosmodirac.config import load_config
from cosmodirac.cli import preset_text
from cosmodirac.entanglement import BlockSpec, contour_trajectory
from cosmodirac.pipeline import _evolve, _prepare

_RUNS = {}
_FIELDS = {}
_TRAJECTORIES = {}  # the config without its analyses, as JSON -> trajectory


def preset_config(name):
    return load_config(preset_text(name))


def preset_run(name):
    """(config, trajectory) for a shipped preset, computed once per session."""
    if name not in _RUNS:
        config = preset_config(name)
        key = json.dumps({k: v for k, v in config.raw.items() if k != "analyses"},
                         sort_keys=True)
        if key not in _TRAJECTORIES:
            _TRAJECTORIES[key] = _evolve(config, _prepare(config))
        _RUNS[name] = (config, _TRAJECTORIES[key])
    return _RUNS[name]


def preset_field(name, length=None):
    """Contour field over the preset's own (or an overridden) block."""
    config, traj = preset_run(name)
    if length is None:
        length = next(
            a.options["block"].length
            for a in config.analyses
            if "block" in a.options
        )
    key = (name, length)
    if key not in _FIELDS:
        block = BlockSpec(length, config.lattice.num_sites)
        _FIELDS[key] = contour_trajectory(traj, block)[0]
    return _FIELDS[key]


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
