"""Lattice geometry, scale factors, and the single-particle Wilson Hamiltonian.

Everything here is a pure function of its value inputs: momentum grids,
gamma matrices, cosmological time from conformal time, 2x2 Hamiltonian
blocks, and the dispersion relation with its group velocity.  Every
profile writes ``scale_factor`` and ``cosmological_time`` once, as one
formula for one float time; an array of times is evaluated time by time
through the same formula (:func:`_per_time`), so a float and an array agree
bit for bit, and the adaptive solver, which reads a(eta) or t(eta) at every
right-hand-side evaluation, builds no array for it.
Each profile names its ``kinks``, the times at which a(eta) or its slope
jumps, derived from its fields; ``gaussian.propagate`` ends a solve at each.
Between consecutive kinks, and before the first or after the last, every
profile's a(eta) is monotone, so a stretch whose two ends read the same a is
flat, and ``propagate`` rotates a free one exactly; a new profile must keep this.

All quantities are in lattice units, a = 1: lengths and conformal times count
sites, and momenta, masses and rates are in 1/a.  A chain whose sites lie
s apart is this one with m -> m s, H -> H s and every length or time
l -> l / s.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import wraps

import numpy as np

# Gamma matrices in the 2x2 irreducible representation:
# gamma0 = sigma_z, gamma1 = i sigma_y, gamma5 = gamma0 gamma1 = sigma_x.
GAMMA0 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
GAMMA1 = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


class DomainError(ValueError):
    """Conformal time outside the validity domain of a scale-factor profile."""


@dataclass(frozen=True)
class LatticeSpec:
    """Co-moving chain parameters.

    Parameters
    ----------
    num_sites : int
        Number of co-moving sites N_S.  Must be even so that k and -k
        both lie on the momentum grid.
    mass : float
        Bare mass m in units of 1/a; the Hamiltonian sees m times the
        scale factor.
    coupling : float
        Dimensionless four-fermion coupling g0^2.  The scale factor does
        not renormalise it.
    """

    num_sites: int
    mass: float = 0.0
    coupling: float = 0.0

    def __post_init__(self):
        if self.num_sites < 2 or self.num_sites % 2 != 0:
            raise ValueError(f"num_sites must be even and >= 2, got {self.num_sites}")

    def momentum_grid(self) -> np.ndarray:
        """First-Brillouin-zone momenta k_n = -pi + 2*pi*n/N_S.

        The grid is uniform with step 2*pi/N_S and symmetric under
        k -> -k (identifying -pi with +pi); index n maps to index
        (N_S - n) mod N_S under reflection.
        """
        n = np.arange(self.num_sites)
        return -np.pi + 2.0 * np.pi * n / self.num_sites


# ---------------------------------------------------------------------------
# Scale-factor profiles
# ---------------------------------------------------------------------------


def _per_time(formula):
    """The profile method of ``formula(self, eta)``, written for one float time.

    A float time, the np.float64 of a DOP853 stage included, goes straight to
    the formula as a Python float, whose arithmetic overflows to inf with no
    warning; any other input is read as an array and evaluated time by time,
    into float64 of its shape.
    """
    @wraps(formula)
    def method(self, eta):
        if isinstance(eta, float):
            return formula(self, float(eta))
        eta = np.asarray(eta, dtype=float)
        return np.array([formula(self, x) for x in eta.ravel().tolist()],
                        dtype=float).reshape(eta.shape)
    return method


def _check_finite(profile, *names):
    """Refuse the first parameter of ``names`` that is not finite (NaN or
    infinite, or any such entry of a sequence), naming it."""
    for name in names:
        value = getattr(profile, name)
        if not np.all(np.isfinite(np.asarray(value, dtype=float))):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class StaticProfile:
    """Flat background, a(eta) = a_val; cosmological time t = a_val eta is
    zero at eta = 0, and there are no kinks."""

    a_val: float = 1.0
    kinks = ()

    def __post_init__(self):
        _check_finite(self, "a_val")
        if not self.a_val > 0:
            raise ValueError("a_val must be positive")

    @_per_time
    def scale_factor(self, eta):
        return self.a_val

    @_per_time
    def cosmological_time(self, eta):
        return self.a_val * eta


@dataclass(frozen=True)
class ExponentialProfile:
    """Exponential interpolation a_0 -> a_f at Hubble rate H.

    In cosmological time a(t) = a_0 exp(H t); rewritten in conformal time
    this is a(eta) = a_0 / (1 - a_0 H eta), valid from eta = 0 and clamped
    at a_f once reached.  The clamp point is
    eta_f = (1 - a_0/a_f) / (a_0 H), and the total cosmological duration
    is Delta t = log(a_f/a_0) / H.  For eta < 0 the profile is held at a_0
    (asymptotic in-region).  Cosmological time is zero at eta = 0.  The
    kinks of a(eta) are where the ramp starts and where it is clamped.
    """

    a_0: float
    a_f: float
    hubble: float

    def __post_init__(self):
        _check_finite(self, "a_0", "a_f", "hubble")
        if not (self.a_f >= self.a_0 > 0):
            raise ValueError("require a_f >= a_0 > 0")
        if not self.hubble > 0:
            raise ValueError("hubble rate must be positive")

    @property
    def eta_clamp(self) -> float:
        return (1.0 - self.a_0 / self.a_f) / (self.a_0 * self.hubble)

    @property
    def kinks(self) -> tuple:
        # a_f = a_0 leaves no ramp: the clamp is the start, one kink
        return (0.0, self.eta_clamp) if self.eta_clamp > 0.0 else (0.0,)

    @_per_time
    def scale_factor(self, eta):
        ramp = self.a_0 / (1.0 - self.a_0 * self.hubble * min(eta, self.eta_clamp))
        return min(max(ramp, self.a_0), self.a_f)

    @_per_time
    def cosmological_time(self, eta):
        # Piecewise integral of a(eta'): flat in-region, ramp, flat out-region.
        eta_c = self.eta_clamp
        mid = 0.0
        if eta > 0:
            mid = -np.log1p(-self.a_0 * self.hubble * min(eta, eta_c)) / self.hubble
        return self.a_0 * min(eta, 0.0) + mid + self.a_f * max(eta - eta_c, 0.0)


@dataclass(frozen=True)
class QuenchProfile:
    """Instantaneous expansion a_0 -> a_f at eta = 0 (sudden/quench limit).

    Cosmological time is zero at the switch, the one kink of a(eta).  A
    switch at eta_s is this profile on times shifted by -eta_s.
    """

    a_0: float
    a_f: float
    kinks = (0.0,)

    def __post_init__(self):
        _check_finite(self, "a_0", "a_f")
        if not (self.a_0 > 0 and self.a_f > 0):
            raise ValueError("scale factors must be positive")

    @_per_time
    def scale_factor(self, eta):
        return self.a_0 if eta < 0.0 else self.a_f

    @_per_time
    def cosmological_time(self, eta):
        return self.a_0 * eta if eta < 0 else self.a_f * eta


def preparation_scale(profile, eta0) -> float:
    """Scale factor the initial state is prepared at.

    For continuous profiles this is a(eta0); at or before the switch of a
    sudden quench it is the incoming (pre-quench) value, so the run
    starts in the old vacuum and evolves under the new background.
    """
    if isinstance(profile, QuenchProfile) and eta0 <= 0.0:
        return float(profile.a_0)
    return float(profile.scale_factor(eta0))


@dataclass(frozen=True)
class DeSitterProfile:
    """Accelerating expansion a(eta) = -1/(H eta) on the chart eta_0 <= eta < 0.

    a(eta) diverges at the horizon eta -> 0^-, so a time at or past 0, or
    NaN, is outside the chart, and so is a time short of 0 at which
    a(eta) or t(eta) is not a finite float; below eta_0 it allows 1e-12 of
    slack, as every profile domain does.  The initial scale factor is
    a_0 = -1/(H eta_0).  Cosmological time is zero at eta_0, and the chart
    has no kinks.
    """

    hubble: float
    eta_0: float
    kinks = ()

    def __post_init__(self):
        _check_finite(self, "hubble", "eta_0")
        if not self.hubble > 0:
            raise ValueError("hubble rate must be positive")
        if not self.eta_0 < 0:
            raise ValueError("require eta_0 < 0")

    @property
    def a_0(self) -> float:
        return -1.0 / (self.hubble * self.eta_0)

    def _chart(self, eta):
        """``(a(eta), t(eta))`` at a float time of the chart, or
        :class:`DomainError`; an H eta that underflows to 0, or an a or t
        that overflows, marks a time past the chart's last float."""
        if self.eta_0 - 1e-12 <= eta < 0.0 and self.hubble * eta < 0.0:
            # Python floats overflow to inf without a warning
            a = -1.0 / (self.hubble * eta)
            t = float(np.log(self.eta_0 / eta)) / self.hubble
            if math.isfinite(a) and math.isfinite(t):
                return a, t
        raise DomainError(f"eta outside de Sitter chart [{self.eta_0}, 0) "
                          "of finite a(eta) and t(eta)")

    @_per_time
    def scale_factor(self, eta):
        return self._chart(eta)[0]

    @_per_time
    def cosmological_time(self, eta):
        return self._chart(eta)[1]


@dataclass(frozen=True)
class TabulatedProfile:
    """Piecewise-linear a(eta) through the given (eta, a) samples.

    Cosmological time is zero at the first sample; the kinks of a(eta) are
    the samples strictly inside.
    """

    etas: tuple = field(default_factory=tuple)
    values: tuple = field(default_factory=tuple)

    def __post_init__(self):
        etas = np.asarray(self.etas, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if etas.ndim != 1 or etas.shape != vals.shape or etas.size < 2:
            raise ValueError("need matching 1D eta/a samples, at least two points")
        _check_finite(self, "etas", "values")
        if not np.all(np.diff(etas) > 0):
            raise ValueError("eta samples must be strictly increasing")
        if not np.all(vals > 0):
            raise ValueError("scale-factor samples must be positive")
        object.__setattr__(self, "etas", tuple(etas))
        object.__setattr__(self, "values", tuple(vals))
        # t at each sample: the trapezoids below it, summed in order
        object.__setattr__(self, "_areas", tuple(np.concatenate(
            [[0.0], np.cumsum(0.5 * (vals[:-1] + vals[1:]) * np.diff(etas))])))

    @property
    def kinks(self) -> tuple:
        return self.etas[1:-1]

    @_per_time
    def scale_factor(self, eta):
        # the samples' span with 1e-12 of slack at each end; NaN fails it
        if not self.etas[0] - 1e-12 <= eta <= self.etas[-1] + 1e-12:
            raise DomainError(f"eta outside tabulated domain [{self.etas[0]}, {self.etas[-1]}]")
        return np.interp(eta, self.etas, self.values)

    @_per_time
    def cosmological_time(self, eta):
        """The exact integral of the piecewise-linear a: the trapezoids of
        the samples below eta, and the one from the last of them to eta."""
        a = self.scale_factor(eta)  # checks the domain
        i = min(max(bisect_right(self.etas, eta) - 1, 0), len(self.etas) - 2)
        return self._areas[i] + 0.5 * (self.values[i] + a) * (eta - self.etas[i])


# ---------------------------------------------------------------------------
# Hamiltonian blocks and dispersion
# ---------------------------------------------------------------------------


def bloch_vector(k, ma_eff, sigma, pi):
    """Pauli decomposition h = b . sigma of the 2x2 Hamiltonian block.

    Returns the stacked real field b = (-sin k, pi, M_k) with
    M_k = ma_eff + sigma + 1 - cos k; broadcasting over k.
    """
    k = np.asarray(k, dtype=float)
    bx = -np.sin(k)
    by = np.broadcast_to(float(pi), k.shape).copy()
    bz = ma_eff + sigma + (1.0 - np.cos(k))
    return np.stack([bx, by, np.broadcast_to(bz, k.shape)], axis=-1)


def hamiltonian_block(k, ma_eff, sigma=0.0, pi=0.0):
    """Single-particle Wilson block(s) h_k, Hermitian and traceless.

    h_k = -(sin k) * gamma0 gamma1
          + (ma_eff + sigma + 1 - cos k) * gamma0 - i * pi * gamma1,
    which in the Pauli basis reads -(sin k) sx + pi sy + M_k sz.
    A scalar ``k`` yields one 2x2 matrix, an array a stacked (..., 2, 2).
    """
    b = bloch_vector(k, ma_eff, sigma, pi)
    h = np.zeros(b.shape[:-1] + (2, 2), dtype=complex)
    h[..., 0, 0] = b[..., 2]
    h[..., 1, 1] = -b[..., 2]
    h[..., 0, 1] = b[..., 0] - 1j * b[..., 1]
    h[..., 1, 0] = b[..., 0] + 1j * b[..., 1]
    return h


def dispersion(k, ma_eff, sigma=0.0, pi=0.0):
    """Positive-branch quasi-particle energy eps_k = |b(k)|."""
    b = bloch_vector(k, ma_eff, sigma, pi)
    return np.linalg.norm(b, axis=-1)


def band_velocity(k, ma_eff, sigma=0.0, pi=0.0):
    """|d eps_k / dk| from the analytic derivative of the dispersion."""
    for name, value in (("ma_eff", ma_eff), ("sigma", sigma), ("pi", pi)):
        if not np.isfinite(value):  # a NaN gap would read as velocity 0
            raise ValueError(f"{name} must be finite, got {value}")
    k = np.asarray(k, dtype=float)
    if not np.all(np.isfinite(k)):  # a NaN momentum would read as velocity 0
        raise ValueError(f"every momentum k must be finite, got {k}")
    s = np.sin(k)
    c = np.cos(k)
    m_k = ma_eff + sigma + (1.0 - c)
    eps = np.sqrt(s**2 + m_k**2 + pi**2)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = np.where(eps > 0, np.abs(s * c + m_k * s) / np.where(eps > 0, eps, 1.0), 0.0)
    return v


def group_velocity(ma_eff, sigma=0.0, pi=0.0):
    """v_g = max_k |d eps_k / dk| over the continuous Brillouin zone, in
    closed form.

    With M = ma_eff + sigma, eps_k^2 = A - 2 (M + 1) cos k for
    A = 1 + (M + 1)^2 + pi^2, so d eps_k / dk = (M + 1) sin k / eps_k, whose
    largest modulus over k is |M + 1| sqrt(2 / (A + s)), where
    s = sqrt(A^2 - 4 (M + 1)^2) = sqrt((M^2 + pi^2) ((M + 2)^2 + pi^2)).
    The product form cancels no terms, and the gapless points need no case
    of their own.  A grid maximum would underestimate cone slopes.
    """
    for name, value in (("ma_eff", ma_eff), ("sigma", sigma), ("pi", pi)):
        if not np.isfinite(value):  # a NaN gap would read as velocity 0
            raise ValueError(f"{name} must be finite, got {value}")
    m = ma_eff + sigma
    a = 1.0 + (m + 1.0) ** 2 + pi**2
    s = np.sqrt((m**2 + pi**2) * ((m + 2.0) ** 2 + pi**2))
    return float(abs(m + 1.0) * np.sqrt(2.0 / (a + s)))
