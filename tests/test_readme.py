"""The README's library example runs as printed, and its configs validate."""

import re
from pathlib import Path

import numpy as np

from cosmodirac.config import load_config

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    """The first fenced Python block under the "## Library" heading."""
    text = README.read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs():
    namespace = {}
    exec(compile(_library_example(), "README.md", "exec"), namespace)
    traj, entropy = namespace["traj"], namespace["entropy"]
    assert len(entropy) == len(traj.etas) == 121
    assert np.all(np.isfinite(entropy))
    # the quench entangles the block: the entropy grows from the vacuum's
    assert entropy[-1] > entropy[0]
    assert traj.times.shape == traj.etas.shape


def test_yaml_configs_validate():
    blocks = re.findall(r"```yaml\n(.*?)```", README.read_text(), re.DOTALL)
    assert blocks
    for block in blocks:
        load_config(block)
