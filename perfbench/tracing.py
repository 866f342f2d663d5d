"""Span tracing of cosmodirac from outside the package.

A :class:`Tracer` replaces public functions with wrappers at the module
attribute their caller looks up (``cosmodirac.pipeline.evolve`` is what
``pipeline.run`` calls, ``cosmodirac.symmetry.evolve`` is what the
Hubble sweep calls).  Each wrapped call records a span
``[name, start, end, parent, run_id, extra]`` in memory; nothing under
``src/`` is edited and :meth:`Tracer.uninstall` puts every original back.

Hot per-step callees (the profiles' ``scale_factor``, called four times
per RK4 step) are only counted, since a span per call would cost more
than the call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time

# Attribute sites wrapped with spans, as (module the caller looks up, names).
SPAN_SITES = (
    ("cosmodirac.pipeline", (
        "free_ground_state", "mass_quench_prepare", "self_consistent_ground_state",
        "evolve", "evolve_adaptive", "real_space_correlation", "condensates",
        "block_entropy", "contour_trajectory", "cosmological_time",
        "preparation_scale", "bogoliubov_spectrum", "mode_pair_entropy",
        "qp_entropy", "qp_input_from_spectrum", "condensate_persistence",
        "spectrum_symmetry_check", "symmetry_report",
    )),
    ("cosmodirac.entanglement", (
        "real_space_correlation", "entanglement_contour", "cosmological_time",
    )),
    ("cosmodirac.symmetry", (
        "evolve", "self_consistent_ground_state", "bogoliubov_spectrum",
        "spectrum_asymmetry",
    )),
)

# Classes whose scale_factor calls are counted (no span).
PROFILE_CLASSES = ("StaticProfile", "ExponentialProfile", "QuenchProfile",
                   "DeSitterProfile", "TabulatedProfile")

LAYERS = ("pipeline", "gaussian", "entanglement", "production",
          "quasiparticle", "symmetry", "lattice")

PREPARE = ("gaussian.free_ground_state", "gaussian.mass_quench_prepare",
           "gaussian.self_consistent_ground_state")
EVOLVE = ("gaussian.evolve", "gaussian.evolve_adaptive")


def _rk4_steps(bound, result):
    # Same step count as cosmodirac.gaussian.evolve.
    eta0, eta1 = (float(x) for x in bound["eta_span"])
    return {"steps": int(math.ceil((eta1 - eta0) / bound["deta"] - 1e-12))}


def _dense_bytes(bound, result):
    return {"bytes": int(result.nbytes)}


def _eigh_dim(bound, result):
    return {"dim": 2 * int(bound["block"].length)}


# Per-function extras computed from the call's arguments and result.
EXTRAS = {
    "gaussian.evolve": _rk4_steps,
    "gaussian.real_space_correlation": _dense_bytes,
    "entanglement.block_entropy": _eigh_dim,
    "entanglement.entanglement_contour": _eigh_dim,
}


def _span_name(func) -> str:
    return f"{func.__module__.rsplit('.', 1)[-1]}.{func.__name__}"


class Tracer:
    """In-memory span recorder that installs and removes its wrappers."""

    def __init__(self, run_id: str = "run"):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or -1, run_id, extra]
        self.counts = {"lattice.scale_factor_calls": 0, "gaussian.adaptive_nfev": 0}
        self.missing = []  # sites absent from this version of the package
        self._stack = []
        self._saved = []  # (owner, attribute, original)

    # -- spans -------------------------------------------------------------

    def span(self, name, func, *args, **kwargs):
        """Call ``func`` inside a span called ``name``; return its result."""
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent, self.run_id, None]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            result = func(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
        extra = EXTRAS.get(name)
        if extra is not None:
            bound = inspect.signature(func).bind(*args, **kwargs)
            bound.apply_defaults()
            record[5] = extra(bound.arguments, result)
        return result

    def _span_wrapper(self, func):
        name = _span_name(func)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            return self.span(name, func, *args, **kwargs)

        return wrapper

    # -- install / uninstall -----------------------------------------------

    def _replace(self, owner, attribute, new):
        self._saved.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, new)

    def install(self):
        for module_name, names in SPAN_SITES:
            module = importlib.import_module(module_name)
            for name in names:
                if not callable(getattr(module, name, None)):
                    self.missing.append(f"{module_name}.{name}")
                    continue
                self._replace(module, name, self._span_wrapper(getattr(module, name)))

        lattice = importlib.import_module("cosmodirac.lattice")
        counts = self.counts
        for cls_name in PROFILE_CLASSES:
            cls = getattr(lattice, cls_name, None)
            if cls is None or "scale_factor" not in vars(cls):
                self.missing.append(f"cosmodirac.lattice.{cls_name}.scale_factor")
                continue
            original = vars(cls)["scale_factor"]

            def counted(self_, eta, _original=original):
                counts["lattice.scale_factor_calls"] += 1
                return _original(self_, eta)

            self._replace(cls, "scale_factor", counted)

        # evolve_adaptive imports solve_ivp at call time, so this site sees it.
        integrate = importlib.import_module("scipy.integrate")
        solve_ivp = integrate.solve_ivp

        @functools.wraps(solve_ivp)
        def counted_solve_ivp(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            counts["gaussian.adaptive_nfev"] += int(sol.nfev)
            return sol

        self._replace(integrate, "solve_ivp", counted_solve_ivp)
        return self

    def uninstall(self):
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def self_times(spans) -> list:
    """Each span's duration minus the part of it its children cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping children are not counted twice.
    """
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        intervals = sorted(
            (max(spans[c][1], start), min(spans[c][2], end)) for c in children[i]
        )
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, counts) -> dict:
    """Per-layer metrics from one traced run's spans and counters.

    The ``<layer>.self_s`` values add up to the root span's duration.
    """
    selfs = self_times(spans)

    def total(names, field=None):
        if field is None:
            return sum(s[2] - s[1] for s in spans if s[0] in names)
        return sum(s[5][field] for s in spans if s[0] in names)

    m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for span, st in zip(spans, selfs):
        m[f"{span[0].split('.', 1)[0]}.self_s"] += st

    rk4_s = total(("gaussian.evolve",))
    steps = total(("gaussian.evolve",), "steps")
    eigh = ("entanglement.block_entropy", "entanglement.entanglement_contour")
    m.update({
        "gaussian.prepare_s": total(PREPARE),
        "gaussian.evolve_s": total(EVOLVE),
        "gaussian.evolve_steps": steps,
        "gaussian.us_per_step": 1e6 * rk4_s / steps if steps else 0.0,
        "gaussian.adaptive_nfev": counts["gaussian.adaptive_nfev"],
        "lattice.scale_factor_calls": counts["lattice.scale_factor_calls"],
        "gaussian.real_space_s": total(("gaussian.real_space_correlation",)),
        "gaussian.real_space_calls": sum(
            s[0] == "gaussian.real_space_correlation" for s in spans),
        "gaussian.real_space_bytes_computed": total(
            ("gaussian.real_space_correlation",), "bytes"),
        "entanglement.contour_s": total(("entanglement.entanglement_contour",)),
        "entanglement.entropy_s": total(("entanglement.block_entropy",)),
        "entanglement.eigh_calls": sum(s[0] in eigh for s in spans),
        "entanglement.eigh_dim": max(
            [s[5]["dim"] for s in spans if s[0] in eigh], default=0),
        "production.spectrum_s": total(("production.bogoliubov_spectrum",)),
        "quasiparticle.qp_s": sum(
            s[2] - s[1] for s in spans if s[0].startswith("quasiparticle.")),
        "lattice.cosmological_time_s": total(("lattice.cosmological_time",)),
        "symmetry.sweep_self_s": sum(
            st for s, st in zip(spans, selfs)
            if s[0] == "symmetry.spectrum_symmetry_check"),
        "trace.spans": len(spans),
    })
    return m
