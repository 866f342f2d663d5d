"""Run configuration: YAML schema, validation, and object construction.

One config file describes one reproducible experiment: lattice, scale
factor, preparation, evolution, the list of analyses, and output options.
Validation errors name the offending field path so a broken config fails
before any computation starts.  Every section rejects keys it does not
read, and every number must be finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import yaml

from . import _dop853
from .entanglement import BlockSpec
from .gaussian import REFERENCE_RTOL
from .lattice import (
    DeSitterProfile,
    ExponentialProfile,
    LatticeSpec,
    QuenchProfile,
    StaticProfile,
    TabulatedProfile,
)

# kind -> the fields a section of that kind reads besides its kind
PROFILE_FIELDS = {
    "static": ("a_val",),
    "exponential": ("a_0", "a_f", "hubble"),
    "quench": ("a_0", "a_f", "eta_switch"),
    "de_sitter": ("hubble", "eta_0", "eta_max"),
    "tabulated": ("samples",),
}
ANALYSIS_FIELDS = {
    "entropy": ("block",),
    "contour": ("block",),
    "spectrum": (),
    "qp": ("block",),
    "condensates": (),
    "symmetry": ("hubble_values", "a_0", "a_f"),
}
PREPARATION_FIELDS = {"vacuum": ("coupling_pre",),
                      "mass_quench": ("m_pre", "coupling_pre")}
PROFILE_KINDS = tuple(PROFILE_FIELDS)
PREPARATION_KINDS = tuple(PREPARATION_FIELDS)
ANALYSIS_KINDS = tuple(ANALYSIS_FIELDS)
# The DOP853 solver's own floor, 100 machine epsilons: its error control
# cannot honour a tighter rtol, so it refuses one and a config is rejected.
MIN_RTOL = _dop853.MIN_RTOL
# The largest trajectory a run may hold: its (n_samples, N_S, 3) float64
# Bloch vectors.  A larger sample count is refused at validation.
MAX_TRAJECTORY_BYTES = 4 * 2**30


class ConfigError(ValueError):
    """Invalid or missing configuration field; ``path`` names the field."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


def _require(mapping, key, path, types=None):
    if not isinstance(mapping, dict):
        raise ConfigError(path, f"expected a mapping, got {type(mapping).__name__}")
    if key not in mapping:
        raise ConfigError(f"{path}.{key}", "missing required field")
    val = mapping[key]
    # YAML reads true/no/on as bools, and bool is a subclass of int
    if types is not None and (not isinstance(val, types)
                              or isinstance(val, bool) and bool not in types):
        raise ConfigError(
            f"{path}.{key}",
            f"expected {' or '.join(t.__name__ for t in types)}, "
            f"got {type(val).__name__}",
        )
    return val


def _optional(mapping, key, default, path, types=None):
    if isinstance(mapping, dict) and mapping.get(key) is None:
        return default
    return _require(mapping, key, path, types)


def _number(mapping, key, path, *default):
    """A finite int or float field as a float; optional if a default is given."""
    if default and isinstance(mapping, dict) and mapping.get(key) is None:
        return default[0]
    val = _require(mapping, key, path, (int, float))
    if not _is_finite_number(val):
        raise ConfigError(f"{path}.{key}", "must be finite, within the range of a float")
    return float(val)


def _is_finite_number(x):
    """Whether ``x`` is an int or float (not a bool) that is a finite float."""
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        return False
    try:
        return bool(np.isfinite(float(x)))
    except OverflowError:  # an int beyond the range of a float
        return False


def _reject_unknown(section, known, path):
    """Fail on a key the builder does not read, such as a misspelt field."""
    for key in section:
        if key not in known:
            raise ConfigError(f"{path}.{key}",
                              f"unknown field; expected one of {sorted(known)}")


def _check_choice(value, choices, path):
    if value not in choices:
        raise ConfigError(path, f"must be one of {choices}, got {value!r}")
    return value


@dataclass
class AnalysisSpec:
    """One requested analysis; ``options`` carries kind-specific keys."""

    kind: str
    options: dict = field(default_factory=dict)


@dataclass
class RunConfig:
    """Validated experiment description.

    ``raw`` keeps the parsed YAML mapping verbatim for the manifest
    snapshot, so a run can be reproduced from its own output directory.
    """

    lattice: LatticeSpec
    profile: object
    preparation: dict
    evolution: dict
    analyses: list
    output: dict
    raw: dict

    @property
    def eta_span(self):
        return tuple(self.evolution["eta_span"])


def _build_lattice(section) -> LatticeSpec:
    path = "lattice"
    _reject_unknown(section, ("num_sites", "mass", "coupling"), path)
    n = _require(section, "num_sites", path, (int,))
    mass = _number(section, "mass", path, 0.0)
    coupling = _number(section, "coupling", path, 0.0)
    if coupling < 0:
        raise ConfigError("lattice.coupling", "must be nonnegative")
    try:
        return LatticeSpec(num_sites=n, mass=mass, coupling=coupling)
    except ValueError as exc:
        raise ConfigError("lattice", str(exc)) from exc


def _build_profile(section):
    path = "profile"
    kind = _check_choice(_require(section, "kind", path, (str,)), PROFILE_KINDS, f"{path}.kind")
    _reject_unknown(section, ("kind",) + PROFILE_FIELDS[kind], path)

    def num(key, *default):
        return _number(section, key, path, *default)

    try:
        if kind == "static":
            return StaticProfile(a_val=num("a_val"))
        if kind == "exponential":
            return ExponentialProfile(a_0=num("a_0"), a_f=num("a_f"), hubble=num("hubble"))
        if kind == "quench":
            return QuenchProfile(a_0=num("a_0"), a_f=num("a_f"),
                                 eta_switch=num("eta_switch", 0.0))
        if kind == "de_sitter":
            return DeSitterProfile(hubble=num("hubble"), eta_0=num("eta_0"),
                                   eta_max=num("eta_max", None))
        samples = _require(section, "samples", path, (list,))
        try:
            etas, values = zip(*samples)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}.samples", "expected [eta, a] pairs") from exc
        if not all(_is_finite_number(x) for x in etas + values):
            raise ConfigError(f"{path}.samples", "expected finite numbers")
        return TabulatedProfile(etas=tuple(map(float, etas)),
                                values=tuple(map(float, values)))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _build_preparation(section, lattice) -> dict:
    path = "preparation"
    if section is None:
        return {"kind": "vacuum"}
    kind = _check_choice(_require(section, "kind", path, (str,)),
                         PREPARATION_KINDS, f"{path}.kind")
    _reject_unknown(section, ("kind",) + PREPARATION_FIELDS[kind], path)
    out = {"kind": kind}
    if kind == "mass_quench":
        out["m_pre"] = _number(section, "m_pre", path)
        if out["m_pre"] == lattice.mass:
            raise ConfigError(f"{path}.m_pre", "equals lattice.mass: the quench "
                                               "prepares no matter")
    coupling_pre = _number(section, "coupling_pre", path, None)
    if coupling_pre is not None:
        if coupling_pre < 0:
            raise ConfigError(f"{path}.coupling_pre", "must be nonnegative")
        # prepare in a different interaction strength than the evolution
        # (e.g. parity-broken vacuum released into free dynamics)
        out["coupling_pre"] = coupling_pre
    return out


def _interval(values, path):
    """(eta_start, eta_end) from a list of two finite, increasing numbers."""
    if len(values) != 2 or not all(_is_finite_number(x) for x in values):
        raise ConfigError(path, f"expected [eta_start, eta_end], two finite "
                                f"numbers, got {values!r}")
    if not float(values[1]) > float(values[0]):
        raise ConfigError(path, "eta_end must exceed eta_start")
    return float(values[0]), float(values[1])


def _build_evolution(section, num_sites) -> dict:
    """``eta_span``, ``n_samples`` uniform sample times over it (given as
    the count or as their ``sample_spacing``, which must cut the span into
    whole intervals) and the DOP853 ``rtol``."""
    path = "evolution"
    _reject_unknown(section, ("eta_span", "n_samples", "sample_spacing", "rtol"), path)
    span = _interval(_require(section, "eta_span", path, (list,)), f"{path}.eta_span")
    given = [key for key in ("n_samples", "sample_spacing") if section.get(key) is not None]
    if len(given) != 1:
        raise ConfigError(f"{path}.{given[-1] if given else 'n_samples'}",
                          "give exactly one of n_samples and sample_spacing")
    if "n_samples" in given:
        n_samples = _require(section, "n_samples", path, (int,))
        if n_samples < 2:
            raise ConfigError(f"{path}.n_samples", "must be >= 2")
    else:
        spacing = _number(section, "sample_spacing", path)
        if not spacing > 0:
            raise ConfigError(f"{path}.sample_spacing", "must be positive")
        intervals = (span[1] - span[0]) / spacing
        if not (np.isfinite(intervals)
                and abs(intervals - round(intervals)) <= 1e-9 * intervals):
            raise ConfigError(f"{path}.sample_spacing",
                              f"must cut eta_span into whole intervals, got "
                              f"{intervals:.12g} of them")
        n_samples = round(intervals) + 1
    if n_samples * num_sites * 3 * 8 > MAX_TRAJECTORY_BYTES:
        raise ConfigError(f"{path}.{given[0]}", f"{n_samples} samples of {num_sites} "
                          f"sites exceed {MAX_TRAJECTORY_BYTES} bytes")
    rtol = _number(section, "rtol", path, REFERENCE_RTOL)
    if rtol < MIN_RTOL:
        raise ConfigError(f"{path}.rtol", f"must be at least {MIN_RTOL:.3g}, got {rtol}")
    return {"eta_span": span, "n_samples": n_samples, "rtol": rtol}


def _build_block(section, num_sites, path) -> BlockSpec:
    _reject_unknown(section, ("length",), path)
    length = _require(section, "length", path, (int,))
    if not (1 <= length <= num_sites):
        raise ConfigError(f"{path}.length", f"must lie in [1, {num_sites}]")
    return BlockSpec(length, num_sites)


def _build_analyses(section, lattice: LatticeSpec) -> list:
    if section is None:
        return []
    if not isinstance(section, list):
        raise ConfigError("analyses", "expected a list")
    out = []
    for i, entry in enumerate(section):
        path = f"analyses[{i}]"
        kind = _check_choice(_require(entry, "kind", path, (str,)),
                             ANALYSIS_KINDS, f"{path}.kind")
        _reject_unknown(entry, ("kind",) + ANALYSIS_FIELDS[kind], path)
        # each kind writes files of fixed names, so a second would overwrite them
        if any(spec.kind == kind for spec in out):
            raise ConfigError(f"{path}.kind", f"repeats {kind!r}; give each kind once")
        opts = {}
        if kind in ("entropy", "contour", "qp"):
            opts["block"] = _build_block(
                _require(entry, "block", path, (dict,)), lattice.num_sites,
                f"{path}.block",
            )
        if kind == "symmetry":
            hv = _require(entry, "hubble_values", path, (list,))
            if not hv or not all(_is_finite_number(x) and x > 0 for x in hv):
                raise ConfigError(f"{path}.hubble_values",
                                  "expected a nonempty list of finite positive rates")
            opts["hubble_values"] = [float(x) for x in hv]
            opts["a_0"] = _number(entry, "a_0", path)
            opts["a_f"] = _number(entry, "a_f", path)
            if not opts["a_0"] > 0:
                raise ConfigError(f"{path}.a_0", "must be positive")
            if not opts["a_f"] > opts["a_0"]:
                raise ConfigError(f"{path}.a_f", "the ramp expands: need a_f > a_0")
        out.append(AnalysisSpec(kind=kind, options=opts))
    return out


def _build_output(section) -> dict:
    path = "output"
    section = {} if section is None else section
    directory = _optional(section, "directory", None, path, (str,))
    _reject_unknown(section, ("directory",), path)
    return {"directory": directory}


def load_config(source) -> RunConfig:
    """Parse and validate a config from a YAML file path or string."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        source = str(source)
        if "\n" in source:
            text = source
        else:
            with open(source, "r") as fh:
                text = fh.read()
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError("<file>", f"not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("<file>", "top level must be a mapping")
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> RunConfig:
    """Validate an already-parsed mapping into a RunConfig."""
    known = {"lattice", "profile", "preparation", "evolution", "analyses", "output"}
    for key in raw:
        if key not in known:
            raise ConfigError(key, "unknown top-level section")
    lattice = _build_lattice(_require(raw, "lattice", "<file>", (dict,)))
    profile = _build_profile(_require(raw, "profile", "<file>", (dict,)))
    preparation = _build_preparation(raw.get("preparation"), lattice)
    evolution = _build_evolution(_require(raw, "evolution", "<file>", (dict,)),
                                 lattice.num_sites)
    analyses = _build_analyses(raw.get("analyses"), lattice)
    output = _build_output(raw.get("output"))
    span = evolution["eta_span"]
    # profile-domain check up front so runs fail in validation, not mid-flight
    for eta in span:
        try:
            profile.scale_factor(eta)
        except Exception as exc:
            raise ConfigError("evolution.eta_span",
                              f"eta = {eta} outside profile domain: {exc}") from exc
    return RunConfig(lattice=lattice, profile=profile, preparation=preparation,
                     evolution=evolution, analyses=analyses, output=output, raw=raw)
