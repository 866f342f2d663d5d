"""Experiment orchestration: prepare, evolve, analyse, and emit artifacts.

A run executes preparation -> evolution -> each requested analysis and
writes one CSV per analysis plus a JSON manifest with a sha256 inventory
of every emitted file.  CSV cells are printed with %.17g, so re-running
an identical config reproduces every file bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig
from .entanglement import contour_trajectory, diagonalised_sites, entropy_trajectory
from .gaussian import (
    evolve_adaptive,
    evolve_free,
    sample_grid,
    self_consistent_ground_state,
)
from .lattice import ExponentialProfile, QuenchProfile, StaticProfile, preparation_scale
from .production import bogoliubov_spectrum, mode_pair_entropy
from .quasiparticle import (PERSISTENCE_LIMIT, condensate_persistence, qp_entropy,
                            qp_input_from_spectrum)
from .symmetry import spectrum_symmetry_check, symmetry_report


@dataclass
class RunManifest:
    """Record of one executed run: config snapshot, inventory, timings.

    ``propagator`` names what evolved the state: ``"closed_form"``
    (:func:`~cosmodirac.gaussian.evolve_free`, no field evaluations) or
    ``"dop853"`` (:func:`~cosmodirac.gaussian.evolve_adaptive`).
    ``diagnostics`` says how it went: ``nfev``, the field evaluations of
    the solve (0 in closed form), ``evolved_momenta``, the momenta it
    solved for (N_S/2 + 1 where a mirror-symmetric Pi = 0 state let
    DOP853 solve the half k in [-pi, 0], as on fig2_int, else N_S), and
    ``max_purity_defect``, the worst purity defect over the samples, which
    DOP853 does not conserve, so on a DOP853 run it tracks the step error.  Each analysis adds its own
    diagnostics, each a mapping from the analysis's stage,
    ``analyses[<i>].<kind>``, to its value.  An ``entropy`` or ``contour``
    analysis adds ``parity_sector_fraction``, the fraction of its blocks,
    one per sample, that took the parity-sector path of
    :mod:`~cosmodirac.entanglement` (1.0 for a Pi = 0 run), and
    ``diagonalised_sites``, the number of sites whose modes each block's
    ``eigh`` took, its complement's N_S - L when that is the smaller side
    (96 for fig4's 160 of 256 sites), else its length L (see
    :func:`~cosmodirac.entanglement.diagonalised_sites`).  A ``qp``
    analysis adds ``qp_out_of_validity``, the advisory tag of
    ``entropy_qp.csv``, and ``qp_sigma_persistence``, the value it was
    judged by (see :func:`_qp_validity`).  A ``symmetry`` analysis adds
    ``sweep_nfev``, the field evaluations of the Hubble sweep's solve at
    each rate of ``hubble_values``, in that order (0 in the sudden limit).
    ``stage_s`` holds the wall time in seconds of each stage: ``prepare``,
    ``evolve``, each analysis as ``analyses[<i>].<kind>`` (its CSVs and
    diagnostics included), and ``write``, the condensates CSV and the
    sha256 inventory.  A process's first LAPACK call can add about 1 s to
    the stage that makes it.  None of these is in the inventory, so the
    files stay byte-identical.
    """

    directory: Path
    config: dict
    files: dict  # relative path -> sha256 hex digest
    wall_time: float
    version: str = __version__
    propagator: str | None = None  # "closed_form" or "dop853"
    diagnostics: dict | None = None

    def path(self) -> Path:
        return self.directory / "manifest.json"

    def save(self):
        payload = {
            "version": self.version,
            "wall_time_s": self.wall_time,
            "propagator": self.propagator,
            "diagnostics": self.diagnostics,
            "config": self.config,
            "files": self.files,
        }
        with open(self.path(), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "RunManifest":
        path = Path(path)
        with open(path) as fh:
            payload = json.load(fh)
        return cls(
            directory=path.parent,
            config=payload["config"],
            files=payload["files"],
            wall_time=payload["wall_time_s"],
            version=payload["version"],
            propagator=payload.get("propagator"),
            diagnostics=payload.get("diagnostics"),
        )

    def verify(self) -> list:
        """Names of inventory files that are missing or whose hash changed."""
        bad = []
        for name, digest in self.files.items():
            target = self.directory / name
            if not target.exists() or _sha256(target) != digest:
                bad.append(name)
        return bad


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_csv(path, header, rows, rows_per_write=1):
    """Write ``rows`` under ``header``, ``rows_per_write`` rows (one
    sample's) per ``write``; returns ``[path.name]`` for the inventory.

    The bytes are those of :func:`csv.writer` given each float cell as
    ``f"{x:.17g}"``: "\\r\\n" line ends, a float as %.17g and any other cell
    as %s.  One %-format, read off the first row, formats every row, so a
    column holds floats in every row or in none; no cell may need quoting.
    """
    rows = iter(rows)
    row_format = None
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        while chunk := list(islice(rows, rows_per_write)):
            if row_format is None:
                row_format = ",".join(["%.17g" if isinstance(x, float) else "%s"
                                       for x in chunk[0]]) + "\r\n"
            fh.write("".join([row_format % row for row in chunk]))
    return [path.name]


def _prepare(config: RunConfig):
    """``(state, vacuum)``: the self-consistent vacuum at a(eta_0) of the
    preparation lattice, to be evolved on the run's lattice, and ``(state,
    a(eta_0))`` if that lattice is the run's own, else None."""
    a_start = preparation_scale(config.profile, config.eta_span[0])
    state, _ = self_consistent_ground_state(config.preparation, a_start)
    state.spec = config.lattice
    return state, ((state, a_start) if config.preparation == config.lattice else None)


def _evolve(config: RunConfig, state):
    """Evolve the prepared state to its ``evolution.n_samples`` uniform times
    (:func:`~cosmodirac.gaussian.sample_grid`): rotated exactly to each by
    :func:`~cosmodirac.gaussian.evolve_free` on a free lattice under a
    static or quench profile, else solved at ``evolution.rtol`` by
    :func:`~cosmodirac.gaussian.evolve_adaptive`."""
    ev = config.evolution
    etas = sample_grid(config.eta_span, ev["n_samples"])
    if config.lattice.coupling == 0.0 and isinstance(config.profile,
                                                     (StaticProfile, QuenchProfile)):
        return evolve_free(state, config.profile, etas)
    return evolve_adaptive(state, config.profile, config.eta_span,
                           sample_etas=etas, rtol=ev["rtol"])


def _emit_condensates(traj, directory):
    rows = zip(traj.etas.tolist(), traj.times.tolist(), traj.sigma.tolist(),
               traj.pi.tolist())
    return _write_csv(directory / "condensates.csv",
                      ["eta[a]", "t[a]", "sigma[1/a]", "pi[1/a]"], rows)


# An analysis emitter ``(traj, opts, directory, vacuum)`` writes its files and
# returns ``(names, notes)``: their names and its diagnostics, which ``run``
# records as ``diagnostics[key][stage]``.  ``opts`` are the analysis's
# validated options, its block a BlockSpec, the lattice is ``traj.spec`` and
# ``vacuum`` is the second value of :func:`_prepare`.


def _block_notes(traj, block, sector):
    """The diagnostics of a block analysis whose samples took the parity-sector
    path where ``sector``, (T,) bool, holds."""
    return {"parity_sector_fraction": np.count_nonzero(sector) / len(sector),
            "diagonalised_sites": diagonalised_sites(traj.bloch, block)}


def _emit_entropy(traj, opts, directory, vacuum):
    entropy, sector = entropy_trajectory(traj, opts["block"])
    rows = zip(traj.etas.tolist(), traj.times.tolist(), entropy.tolist())
    return (_write_csv(directory / "entropy_measured.csv",
                       ["eta[a]", "t[a]", "entropy[nats]"], rows),
            _block_notes(traj, opts["block"], sector))


def _emit_contour(traj, opts, directory, vacuum):
    field, sector = contour_trajectory(traj, opts["block"])
    rows = ((eta, t, j, s_u, s_d)
            for eta, t, values in zip(field.etas.tolist(), field.times.tolist(),
                                      field.values)
            for j, (s_u, s_d) in enumerate(values.tolist()))
    return (_write_csv(directory / "contour.csv",
                       ["eta[a]", "t[a]", "site[block index]", "S_u[nats]", "S_d[nats]"],
                       rows, rows_per_write=field.block.length),
            _block_notes(traj, opts["block"], sector))


def _dressed_spectrum(traj):
    """Final-state spectrum against the vacuum dressed by the mean condensates
    over the last quarter of the run, which always holds the last sample."""
    etas = traj.etas
    mask = etas >= etas[0] + 0.75 * (etas[-1] - etas[0])
    ma_f = traj.spec.mass * float(traj.a_vals[-1])
    # (m a_f + Sigma) - m a_f, not Sigma: the rounding the CSVs were written with
    ma_ref = ma_f + float(np.mean(traj.sigma[mask]))
    return bogoliubov_spectrum(traj.state(-1), ma_f, sigma=ma_ref - ma_f,
                               pi=float(np.mean(traj.pi[mask])))


def _emit_spectrum(traj, opts, directory, vacuum):
    spectrum = bogoliubov_spectrum(traj.state(-1),
                                   traj.spec.mass * float(traj.a_vals[-1]))
    s_mode, s_pair = mode_pair_entropy(spectrum.beta_sq)
    rows = zip(spectrum.k.tolist(), spectrum.beta_sq.tolist(), s_mode.tolist(),
               s_pair.tolist())
    return _write_csv(directory / "spectrum.csv",
                      ["k[1/a]", "beta_sq[dimensionless]", "s_mode[nats]", "s_pair[nats]"],
                      rows), {}


def _emit_qp(traj, opts, directory, vacuum):
    spectrum = _dressed_spectrum(traj)
    qp = qp_input_from_spectrum(spectrum, opts["block"].length)
    # pairs are made at the first sample by a state that is not the vacuum of
    # the run's lattice (a mass quench, or the vacuum of another coupling), or
    # else when a(eta) starts to change: a sudden switch inside the span, or
    # the start of an exponential ramp at eta = 0, starts the clock there,
    # with no entropy before it
    start = traj.etas[0]
    if vacuum is not None:
        if isinstance(traj.profile, QuenchProfile):
            start = max(start, traj.profile.eta_switch)
        elif isinstance(traj.profile, ExponentialProfile):
            start = max(start, 0.0)
    entropy = qp_entropy(qp, np.maximum(traj.etas - start, 0.0))
    rows = zip(traj.etas.tolist(), entropy.tolist())
    persistence, out_of_validity = _qp_validity(traj)
    return (_write_csv(directory / "entropy_qp.csv", ["eta[a]", "entropy[nats]"], rows),
            {"qp_sigma_persistence": persistence, "qp_out_of_validity": out_of_validity})


def _emit_symmetry(traj, opts, directory, vacuum):
    lattice = traj.spec
    a_f = float(traj.a_vals[-1])
    report = symmetry_report(lattice.mass * a_f + float(traj.sigma[-1]), 0.0,
                             float(traj.pi[-1]), lattice)
    rows = [(nm, report.residuals[nm], report.holds[nm])
            for nm in ("T", "C", "S", "P", "CP")]
    _write_csv(directory / "symmetry_report.csv",
               ["symmetry", "residual[1/a]", "holds"], rows)
    with open(directory / "symmetry_report.txt", "w") as fh:
        fh.write(report.table() + "\n")

    # the sweep starts from the run's own vacuum when it was prepared at the
    # sweep's a_0, instead of solving for it again
    source = lattice
    if vacuum is not None and vacuum[1] == opts["a_0"]:
        source = vacuum[0]
    sweep = spectrum_symmetry_check(source, opts["a_0"], opts["a_f"],
                                    opts["hubble_values"])
    _write_csv(directory / "symmetry_sweep.csv",
               ["hubble[1/a]", "asymmetry[dimensionless]", "beta_sq_sum[dimensionless]"],
               [(r["hubble"], r["asymmetry"], r["beta_sq_sum"]) for r in sweep])
    return (["symmetry_report.csv", "symmetry_report.txt", "symmetry_sweep.csv"],
            {"sweep_nfev": [r["nfev"] for r in sweep]})


_EMITTERS = {
    "entropy": _emit_entropy,
    "contour": _emit_contour,
    "spectrum": _emit_spectrum,
    "qp": _emit_qp,
    "symmetry": _emit_symmetry,
}


def _qp_validity(traj):
    """``(persistence, out_of_validity)``: whether the quasi-particle picture
    is outside its validity regime, and the value that says so.

    ``persistence`` is Sigma's
    :func:`~cosmodirac.quasiparticle.condensate_persistence`, and the
    picture is out of validity when it exceeds
    :data:`~cosmodirac.quasiparticle.PERSISTENCE_LIMIT`.  A free run is
    inside, with no persistence to judge: ``(None, False)``.  A trajectory
    too sparse to judge gives ``(None, None)``.
    """
    if traj.spec.coupling == 0.0:
        return None, False
    try:
        persistence = condensate_persistence(traj, "sigma")
    except ValueError:
        return None, None
    return persistence, persistence > PERSISTENCE_LIMIT


def run(config: RunConfig, output_dir=None, workers: int = 1) -> RunManifest:
    """Execute a validated config and write all artifacts.

    Returns the saved :class:`RunManifest`.  ``output_dir`` overrides
    ``output.directory`` from the config; with neither set, a
    :class:`~cosmodirac.config.ConfigError` naming ``output.directory`` is
    raised before any work starts.  ``workers`` is unused; the benchmark
    harness (``perfbench/worker.py``, ``perfbench/make_references.py``)
    still passes ``workers=1``.
    """
    t_start = time.perf_counter()
    output = output_dir or config.output["directory"]
    if not output:
        raise ConfigError("output.directory", "not set; pass an output directory (simulate run --output DIR)")
    directory = Path(output)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in its place, or no permission
        raise ConfigError("output.directory",
                          f"cannot make directory {directory}: {exc.strerror}") from exc

    stage_s = {}
    clock = time.perf_counter()

    def lap(stage):
        nonlocal clock
        now = time.perf_counter()
        stage_s[stage] = now - clock
        clock = now

    state, vacuum = _prepare(config)
    lap("prepare")
    traj = _evolve(config, state)
    lap("evolve")

    diagnostics = {"nfev": traj.nfev, "evolved_momenta": traj.evolved_momenta,
                   "stage_s": stage_s}
    files = []
    for i, analysis in enumerate(config.analyses):
        stage = f"analyses[{i}].{analysis.kind}"
        names, notes = _EMITTERS[analysis.kind](traj, analysis.options, directory, vacuum)
        files += names
        for key, value in notes.items():
            diagnostics.setdefault(key, {})[stage] = value
        lap(stage)

    files = _emit_condensates(traj, directory) + files
    inventory = {name: _sha256(directory / name) for name in files}
    lap("write")
    diagnostics["max_purity_defect"] = traj.purity_defect()
    manifest = RunManifest(
        directory=directory,
        config=config.raw,
        files=inventory,
        wall_time=time.perf_counter() - t_start,
        propagator="closed_form" if traj.nfev == 0 else "dop853",
        diagnostics=diagnostics,
    )
    manifest.save()
    return manifest


# ---------------------------------------------------------------------------
# Plot-script generation
# ---------------------------------------------------------------------------

_PLOT_HEADER = """\
#!/usr/bin/env python3
# Auto-generated data-only plot script; reads CSVs by relative path.
import csv
from pathlib import Path

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt
import numpy as np

HERE = Path(__file__).resolve().parent

def load(name):
    with open(HERE / name) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        data = np.array([[float(x) for x in row] for row in reader])
    return header, data
"""

_PLOT_ENTROPY = _PLOT_HEADER + """
_, measured = load("entropy_measured.csv")
fig, ax = plt.subplots(figsize=(5, 3.2))
ax.plot(measured[:, 0], measured[:, 2], label="measured")
try:
    _, qp = load("entropy_qp.csv")
    ax.plot(qp[:, 0], qp[:, 1], "--", label="quasi-particle")
except FileNotFoundError:
    pass
ax.set_xlabel(r"$\\eta$ [a]")
ax.set_ylabel(r"$S_A$ [nats]")
ax.legend(frameon=False)
fig.tight_layout()
fig.savefig(HERE / "entropy.png", dpi=160)
"""

_PLOT_CONTOUR = _PLOT_HEADER + """
_, data = load("contour.csv")
etas = np.unique(data[:, 0])
sites = np.unique(data[:, 2]).astype(int)
n_t, n_x = etas.size, sites.size
s_u = data[:, 3].reshape(n_t, n_x)
s_d = data[:, 4].reshape(n_t, n_x)
times = data[:, 1].reshape(n_t, n_x)[:, 0]

for tag, axis_vals, axis_label in (("eta", etas, r"$\\eta$ [a]"),
                                   ("t", times, r"$t$ [a]")):
    fig, axes = plt.subplots(1, 2, figsize=(8, 3.2), sharey=True)
    for ax, field, title in ((axes[0], s_u, r"$S_i^u$"),
                             (axes[1], s_d, r"$S_i^d$")):
        im = ax.pcolormesh(sites, axis_vals, field, shading="nearest")
        ax.set_xlabel("site")
        ax.set_title(title)
        fig.colorbar(im, ax=ax)
    axes[0].set_ylabel(axis_label)
    fig.tight_layout()
    fig.savefig(HERE / f"contour_{tag}.png", dpi=160)

# zigzag rendering: sites and spinors interleaved (1u, 1d, 2u, 2d, ...)
zig = np.empty((n_t, 2 * n_x))
zig[:, 0::2] = s_u
zig[:, 1::2] = s_d
fig, ax = plt.subplots(figsize=(5, 3.2))
im = ax.pcolormesh(np.arange(2 * n_x), etas, zig, shading="nearest")
ax.set_xlabel("zigzag index")
ax.set_ylabel(r"$\\eta$ [a]")
fig.colorbar(im, ax=ax)
fig.tight_layout()
fig.savefig(HERE / "contour_zigzag.png", dpi=160)
"""

_PLOT_SPECTRUM = _PLOT_HEADER + """
_, data = load("spectrum.csv")
fig, ax = plt.subplots(figsize=(5, 3.2))
ax.plot(data[:, 0], data[:, 1], ".-", ms=3)
ax.set_xlabel("k [1/a]")
ax.set_ylabel(r"$|\\beta_k|^2$")
fig.tight_layout()
fig.savefig(HERE / "spectrum.png", dpi=160)
"""

_PLOT_SWEEP = _PLOT_HEADER + """
_, data = load("symmetry_sweep.csv")
fig, ax = plt.subplots(figsize=(5, 3.2))
ax.loglog(data[:, 0], data[:, 1], "o-")
ax.set_xlabel("H [1/a]")
ax.set_ylabel("spectrum asymmetry")
fig.tight_layout()
fig.savefig(HERE / "symmetry_sweep.png", dpi=160)
"""

_PLOT_CONDENSATES = _PLOT_HEADER + """
_, data = load("condensates.csv")
fig, ax = plt.subplots(figsize=(5, 3.2))
ax.plot(data[:, 0], data[:, 2], label=r"$\\Sigma$")
ax.plot(data[:, 0], data[:, 3], label=r"$\\Pi$")
ax.set_xlabel(r"$\\eta$ [a]")
ax.set_ylabel("condensate [1/a]")
ax.legend(frameon=False)
fig.tight_layout()
fig.savefig(HERE / "condensates.png", dpi=160)
"""

_PLOTS = {
    "entropy_measured.csv": ("plot_entropy.py", _PLOT_ENTROPY),
    "contour.csv": ("plot_contour.py", _PLOT_CONTOUR),
    "spectrum.csv": ("plot_spectrum.py", _PLOT_SPECTRUM),
    "symmetry_sweep.csv": ("plot_symmetry_sweep.py", _PLOT_SWEEP),
    "condensates.csv": ("plot_condensates.py", _PLOT_CONDENSATES),
}


def make_plots(manifest: RunManifest) -> list:
    """Emit self-contained plot scripts next to the manifest's CSVs.

    Scripts only read the CSVs (no recomputation); one script per
    analysis whose data file is present.  Returns the script paths.
    """
    missing = manifest.verify()
    if missing:
        raise FileNotFoundError(
            f"manifest inventory out of date, missing/modified: {missing}"
        )
    written = []
    for data_file, (script_name, body) in _PLOTS.items():
        if data_file in manifest.files:
            path = manifest.directory / script_name
            with open(path, "w") as fh:
                fh.write(body)
            written.append(path)
    return written
