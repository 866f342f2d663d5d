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

from .entanglement import BlockSpec
from .lattice import (
    DeSitterProfile,
    ExponentialProfile,
    LatticeSpec,
    QuenchProfile,
    StaticProfile,
    TabulatedProfile,
)

# kind (or method) -> the fields a section of that kind reads besides its kind
PROFILE_FIELDS = {
    "static": ("a_val",),
    "exponential": ("a_0", "a_f", "hubble"),
    "quench": ("a_0", "a_f", "eta_switch"),
    "de_sitter": ("hubble", "eta_0", "eta_max"),
    "tabulated": ("samples",),
}
ANALYSIS_FIELDS = {
    "entropy": ("block",),
    "contour": ("block", "time_stride"),
    "spectrum": ("reference_mode",),
    "qp": ("block", "window"),
    "condensates": (),
    "symmetry": ("reference_mode", "hubble_values", "a_0", "a_f"),
}
PREPARATION_FIELDS = {"vacuum": ("coupling_pre",),
                      "mass_quench": ("m_pre", "coupling_pre")}
EVOLUTION_FIELDS = {"rk4": ("deta", "sample_every"), "adaptive": ("n_samples", "rtol")}
PROFILE_KINDS = tuple(PROFILE_FIELDS)
PREPARATION_KINDS = tuple(PREPARATION_FIELDS)
ANALYSIS_KINDS = tuple(ANALYSIS_FIELDS)
EVOLUTION_METHODS = tuple(EVOLUTION_FIELDS)
# The vacuum a spectrum is measured against: "bare" is the free one at m a_f;
# "dressed" adds condensates, for `spectrum` their mean over the last quarter
# of the run (bare when g = 0), for `symmetry` the final state's own.
REFERENCE_MODES = ("bare", "dressed")
# scipy's DOP853 raises a smaller rtol to 100 machine epsilons, with only a warning.
MIN_RTOL = 100 * np.finfo(float).eps


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
    val = float(_require(mapping, key, path, (int, float)))
    if not np.isfinite(val):
        raise ConfigError(f"{path}.{key}", f"must be finite, got {val}")
    return val


def _is_finite_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and np.isfinite(x)


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


def _build_evolution(section) -> dict:
    path = "evolution"
    span = _interval(_require(section, "eta_span", path, (list,)), f"{path}.eta_span")
    method = _check_choice(_optional(section, "method", "rk4", path, (str,)),
                           EVOLUTION_METHODS, f"{path}.method")
    _reject_unknown(section, ("eta_span", "method") + EVOLUTION_FIELDS[method], path)
    out = {"eta_span": span, "method": method}
    if method == "rk4":
        deta = _number(section, "deta", path)
        if deta <= 0:
            raise ConfigError(f"{path}.deta", "must be positive")
        out["deta"] = deta
        out["sample_every"] = int(_optional(section, "sample_every", 1, path, (int,)))
        if out["sample_every"] < 1:
            raise ConfigError(f"{path}.sample_every", "must be >= 1")
    else:
        out["n_samples"] = int(_optional(section, "n_samples", 201, path, (int,)))
        out["rtol"] = _number(section, "rtol", path, 1e-10)
        if out["rtol"] < MIN_RTOL:
            raise ConfigError(f"{path}.rtol", f"must be at least {MIN_RTOL:.3g}, "
                                              f"got {out['rtol']}")
        if out["n_samples"] < 2:
            raise ConfigError(f"{path}.n_samples", "must be >= 2")
    return out


def _build_block(section, num_sites, path) -> BlockSpec:
    _reject_unknown(section, ("start", "length"), path)
    length = _require(section, "length", path, (int,))
    if not (1 <= length <= num_sites):
        raise ConfigError(f"{path}.length", f"must lie in [1, {num_sites}]")
    start = _optional(section, "start", (num_sites - length) // 2, path, (int,))
    if not (0 <= start and start + length <= num_sites):
        raise ConfigError(f"{path}.start", "block must lie within the chain")
    return BlockSpec(start, length, num_sites)


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
        opts = {}
        if kind in ("entropy", "contour", "qp"):
            opts["block"] = _build_block(
                _require(entry, "block", path, (dict,)), lattice.num_sites,
                f"{path}.block",
            )
        if kind == "contour":
            opts["time_stride"] = int(_optional(entry, "time_stride", 1, path, (int,)))
            if opts["time_stride"] < 1:
                raise ConfigError(f"{path}.time_stride", "must be >= 1")
        if kind in ("spectrum", "symmetry"):
            opts["reference_mode"] = _check_choice(
                _optional(entry, "reference_mode", "bare", path, (str,)),
                REFERENCE_MODES, f"{path}.reference_mode",
            )
        if kind == "qp":
            window = _optional(entry, "window", None, path, (list,))
            if window is not None:
                window = _interval(window, f"{path}.window")
            opts["window"] = window
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
    evolution = _build_evolution(_require(raw, "evolution", "<file>", (dict,)))
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
