"""Lattice geometry, scale factors, and the single-particle Wilson Hamiltonian.

Everything here is a pure function of its value inputs: momentum grids,
gamma matrices, cosmological time from conformal time, 2x2 Hamiltonian
blocks, and the dispersion relation with its group velocity.  The
exponential, quench and de Sitter profiles, the ones the adaptive solver
reads at every right-hand-side evaluation, take a scalar path for one float
time with the IEEE operations of their array path, so both agree bit for bit.
Each profile names its ``kinks``, the times at which a(eta) or its slope
jumps, derived from its fields; ``gaussian.propagate`` ends a solve at each.

All quantities are in lattice units, a = 1: lengths and conformal times count
sites, and momenta, masses and rates are in 1/a.  A chain whose sites lie
s apart is this one with m -> m s, H -> H s and every length or time
l -> l / s.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

# ``isinstance(eta, float)`` holds for the np.float64 times that the DOP853
# stages pass too; the scalar branches spare each right-hand-side call a 0-d
# array.


def _check_domain(eta, lo, hi, name):
    """Raise :class:`DomainError` unless every eta lies in [lo, hi], to 1e-12."""
    if isinstance(eta, float):
        outside = eta < lo - 1e-12 or eta > hi + 1e-12
    else:
        outside = np.any(eta < lo - 1e-12) or np.any(eta > hi + 1e-12)
    if outside:
        raise DomainError(f"eta outside {name} [{lo}, {hi}]")


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

    def scale_factor(self, eta):
        return self.a_val * np.ones_like(np.asarray(eta, dtype=float))

    def cosmological_time(self, eta):
        return self.a_val * np.asarray(eta, dtype=float)


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

    def scale_factor(self, eta):
        if isinstance(eta, float):
            ramp = self.a_0 / (1.0 - self.a_0 * self.hubble * min(eta, self.eta_clamp))
            return min(max(ramp, self.a_0), self.a_f)
        eta = np.asarray(eta, dtype=float)
        ramp = self.a_0 / (1.0 - self.a_0 * self.hubble * np.minimum(eta, self.eta_clamp))
        return np.clip(ramp, self.a_0, self.a_f)

    def cosmological_time(self, eta):
        eta = np.asarray(eta, dtype=float)
        # Piecewise integral of a(eta'): flat in-region, ramp, flat out-region.
        eta_c = self.eta_clamp
        pre = self.a_0 * np.minimum(eta, 0.0)
        mid = np.where(
            eta > 0,
            -np.log1p(-self.a_0 * self.hubble * np.clip(eta, 0.0, eta_c)) / self.hubble,
            0.0,
        )
        post = self.a_f * np.maximum(eta - eta_c, 0.0)
        return pre + mid + post


@dataclass(frozen=True)
class QuenchProfile:
    """Instantaneous expansion a_0 -> a_f at eta_switch (sudden/quench limit).

    Cosmological time is zero at eta_switch, the one kink of a(eta).
    """

    a_0: float
    a_f: float
    eta_switch: float = 0.0

    @property
    def kinks(self) -> tuple:
        return (self.eta_switch,)

    def __post_init__(self):
        _check_finite(self, "a_0", "a_f", "eta_switch")
        if not (self.a_0 > 0 and self.a_f > 0):
            raise ValueError("scale factors must be positive")

    def scale_factor(self, eta):
        if isinstance(eta, float):
            return self.a_0 if eta < self.eta_switch else self.a_f
        eta = np.asarray(eta, dtype=float)
        return np.where(eta < self.eta_switch, self.a_0, self.a_f)

    def cosmological_time(self, eta):
        eta = np.asarray(eta, dtype=float)
        d = eta - self.eta_switch
        return np.where(d < 0, self.a_0 * d, self.a_f * d)


def preparation_scale(profile, eta0) -> float:
    """Scale factor the initial state is prepared at.

    For continuous profiles this is a(eta0); at the switch time of a
    sudden quench it is the incoming (pre-quench) value, so the run
    starts in the old vacuum and evolves under the new background.
    """
    if isinstance(profile, QuenchProfile) and eta0 <= profile.eta_switch:
        return float(profile.a_0)
    return float(profile.scale_factor(eta0))


@dataclass(frozen=True)
class DeSitterProfile:
    """Accelerating expansion a(eta) = -1/(H eta) on eta in [eta_0, eta_max], eta < 0.

    The default eta_max truncates the chart just before the eta -> 0^-
    horizon.  The initial scale factor is a_0 = -1/(H eta_0).  Cosmological
    time is zero at eta_0, and the chart has no kinks.
    """

    hubble: float
    eta_0: float
    eta_max: float = None  # default set in __post_init__
    kinks = ()

    def __post_init__(self):
        if self.eta_max is None:
            object.__setattr__(self, "eta_max", -0.001362)
        _check_finite(self, "hubble", "eta_0", "eta_max")
        if not self.hubble > 0:
            raise ValueError("hubble rate must be positive")
        if not (self.eta_0 < self.eta_max < 0):
            raise ValueError("require eta_0 < eta_max < 0")

    @property
    def a_0(self) -> float:
        return -1.0 / (self.hubble * self.eta_0)

    def scale_factor(self, eta):
        if isinstance(eta, float):
            _check_domain(eta, self.eta_0, self.eta_max, "de Sitter chart")
            return -1.0 / (self.hubble * min(eta, self.eta_max))
        eta = np.asarray(eta, dtype=float)
        _check_domain(eta, self.eta_0, self.eta_max, "de Sitter chart")
        return -1.0 / (self.hubble * np.minimum(eta, self.eta_max))

    def cosmological_time(self, eta):
        eta = np.asarray(eta, dtype=float)
        self.scale_factor(eta)  # domain check
        return np.log(self.eta_0 / eta) / self.hubble


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

    @property
    def kinks(self) -> tuple:
        return self.etas[1:-1]

    def scale_factor(self, eta):
        eta = np.asarray(eta, dtype=float)
        _check_domain(eta, self.etas[0], self.etas[-1], "tabulated domain")
        return np.interp(eta, self.etas, self.values)

    def cosmological_time(self, eta):
        """The exact integral of the piecewise-linear a: the trapezoids of
        the samples below eta, and the one from the last of them to eta."""
        eta = np.asarray(eta, dtype=float)
        self.scale_factor(eta)  # domain check
        etas, vals = np.array(self.etas), np.array(self.values)
        areas = np.concatenate([[0.0], np.cumsum(0.5 * (vals[:-1] + vals[1:]) * np.diff(etas))])
        i = np.clip(np.searchsorted(etas, eta, side="right") - 1, 0, etas.size - 2)
        return areas[i] + 0.5 * (vals[i] + np.interp(eta, etas, vals)) * (eta - etas[i])


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
    k = np.asarray(k, dtype=float)
    s = np.sin(k)
    c = np.cos(k)
    m_k = ma_eff + sigma + (1.0 - c)
    eps = np.sqrt(s**2 + m_k**2 + pi**2)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = np.where(eps > 0, np.abs(s * c + m_k * s) / np.where(eps > 0, eps, 1.0), 0.0)
    return v


# 1 / golden ratio: the share of a bracket a golden-section step keeps
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def group_velocity(ma_eff, sigma=0.0, pi=0.0):
    """v_g = max_k |d eps_k / dk| over the continuous Brillouin zone.

    A coarse grid scan locates the global maximum basin, then a
    golden-section search on the grid points either side of it narrows the
    maximum to 1e-12 in k; grid-only maxima systematically underestimate
    cone slopes.
    """
    ks = np.linspace(0.0, np.pi, 2049)
    vs = band_velocity(ks, ma_eff, sigma, pi)
    i = int(np.argmax(vs))
    lo = ks[max(i - 1, 0)]
    hi = ks[min(i + 1, ks.size - 1)]

    def v(k):
        return float(band_velocity(k, ma_eff, sigma, pi))

    k_left, k_right = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    v_left, v_right = v(k_left), v(k_right)
    while hi - lo > 1e-12:
        if v_left > v_right:
            hi, k_right, v_right = k_right, k_left, v_left
            k_left = hi - _GOLDEN * (hi - lo)
            v_left = v(k_left)
        else:
            lo, k_left, v_left = k_left, k_right, v_right
            k_right = lo + _GOLDEN * (hi - lo)
            v_right = v(k_right)
    return max(v_left, v_right, float(vs[i]))
