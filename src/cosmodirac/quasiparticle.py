"""Closed-form quasi-particle predictions for entropy growth and contours.

Entangled particle-antiparticle pairs propagate ballistically at +-v_k
and carry entropy s(k); the block entropy and its contour follow from
counting pairs straddling the partition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import Trajectory
from .lattice import group_velocity, band_velocity
from .production import ProductionSpectrum, mode_pair_entropy


# Late/early amplitude ratio of the Sigma oscillations above which they
# count as persistent: the regime where the picture is known to fail.
PERSISTENCE_LIMIT = 0.5

# Fewest Brillouin-zone momenta the quadratures interpolate v and s onto.
QUADRATURE_POINTS = 4096


class NonEquilibratedWindowError(RuntimeError):
    """Condensates still oscillate over the late window the dressing averages."""


@dataclass
class QPInput:
    """Per-momentum velocities and pair entropies feeding the predictions.

    ``k`` must be the (sorted ascending) Brillouin-zone grid in 1/a, and
    ``block_length`` counts sites; ``v`` and ``s_pair`` are interpolated
    periodically onto a refined grid by the quadratures.
    """

    k: np.ndarray
    v: np.ndarray
    s_pair: np.ndarray
    block_length: float

    def __post_init__(self):
        if not (np.isfinite(self.block_length) and self.block_length > 0):
            raise ValueError(f"block_length must be finite and positive, got {self.block_length}")
        if not np.all(self.v >= 0):
            raise ValueError("velocities must be nonnegative")
        if not np.all((-1e-12 <= self.s_pair) & (self.s_pair <= 2 * np.log(2) + 1e-9)):
            raise ValueError("pair entropies must lie in [0, 2 log 2]")

    def refined(self):
        """Periodic interpolation of v and s onto >= QUADRATURE_POINTS momenta."""
        n = max(QUADRATURE_POINTS, 2 * self.k.size)
        kk = np.linspace(-np.pi, np.pi, n, endpoint=False)
        period = 2.0 * np.pi
        k_ext = np.concatenate([self.k, [self.k[0] + period]])
        v_ext = np.concatenate([self.v, [self.v[0]]])
        s_ext = np.concatenate([self.s_pair, [self.s_pair[0]]])
        return kk, np.interp(kk, k_ext, v_ext), np.interp(kk, k_ext, s_ext)


def qp_input_from_spectrum(spectrum: ProductionSpectrum, block_length: float) -> QPInput:
    """Assemble a QPInput from a production spectrum and its reference dispersion."""
    ma_eff, sigma, pi = spectrum.reference
    v = band_velocity(spectrum.k, ma_eff, sigma, pi)
    _, s_pair = mode_pair_entropy(spectrum.beta_sq)
    return QPInput(k=spectrum.k, v=v, s_pair=s_pair, block_length=float(block_length))


def qp_entropy(qp: QPInput, eta):
    """Quasi-particle block entropy at conformal time(s) eta.

    S_A(eta) = eta * int_{2 v eta < l} dk/2pi 2 v s(k)
             + l  * int_{2 v eta > l} dk/2pi   s(k);
    the first term counts pairs still straddling a single boundary
    (linear growth), the second the saturated modes (volume-law plateau).
    Trapezoidal quadrature on a refined periodic grid, refined once for
    all the times.  ``eta`` may be an array, and gives an array of the
    same shape; a scalar gives a float.
    """
    etas = np.asarray(eta, dtype=float)
    if not np.all(etas >= 0):
        raise ValueError("eta must be nonnegative")
    flat = etas.reshape(-1)
    out = np.zeros(flat.shape)
    if np.any(flat != 0.0):
        kk, v, s = qp.refined()
        dk = kk[1] - kk[0]
        two_v, saturated = 2.0 * v, qp.block_length * s
        for i in np.flatnonzero(flat).tolist():
            t = float(flat[i])
            integrand = np.where(two_v * t < qp.block_length, t * 2.0 * v * s, saturated)
            out[i] = np.sum(integrand) * dk / (2.0 * np.pi)
    return out.reshape(etas.shape) if etas.ndim else float(out[0])


def qp_plateau(qp: QPInput) -> float:
    """Late-time plateau l_A int s dk / 2pi."""
    kk, _, s = qp.refined()
    return float(qp.block_length * np.sum(s) * (kk[1] - kk[0]) / (2.0 * np.pi))


def qp_contour(qp: QPInput, eta: float, x):
    """Quasi-particle contour at depth x into the block (spinor-summed).

    S_A(x) = int dk/2pi s(k) [Theta(2 v_k eta - x)
                              + Theta(2 v_k eta - (l_A - x))] / 2,
    with sharp step functions.  A quasi-particle at x carries its pair's
    entropy once its partner, 2 v_k eta behind it, has left the block;
    half the modes at each |k| move right, with partners beyond the left
    edge, and half move left.  Integrated over x this is
    :func:`qp_entropy`.  The per-spinor prediction is half this value.
    ``x`` may be an array and must lie in [0, l_A].
    """
    if not eta >= 0:
        raise ValueError("eta must be nonnegative")
    x = np.asarray(x, dtype=float)
    if not np.all((x >= -1e-12) & (x <= qp.block_length + 1e-12)):
        raise ValueError("x must lie within the block")
    kk, v, s = qp.refined()
    dk = kk[1] - kk[0]
    reach = 2.0 * v * eta
    left = reach[None, :] >= x.reshape(-1, 1)
    right = reach[None, :] >= (qp.block_length - x).reshape(-1, 1)
    out = (s[None, :] * (left.astype(float) + right)).sum(axis=1) * dk / (4.0 * np.pi)
    return out if x.ndim else float(out[0])


def _last_quarter(etas):
    """The late window, the last quarter of the run with its last sample."""
    return etas >= etas[0] + 0.75 * (etas[-1] - etas[0])


def condensate_persistence(trajectory: Trajectory, which: str = "sigma") -> float:
    """Late-time / early-time oscillation amplitude ratio of a condensate.

    Amplitudes are standard deviations over the first [5%, 30%] and the
    final quarter of the trajectory.  Damped post-quench transients give
    a small ratio; the synchronized non-equilibrating oscillations of the
    parity-broken regime keep it near one.
    """
    if which not in ("sigma", "pi"):
        raise ValueError(f"which must be 'sigma' or 'pi', got {which!r}")
    etas = trajectory.etas
    vals = getattr(trajectory, which)
    t0, span = etas[0], etas[-1] - etas[0]
    early = (etas >= t0 + 0.05 * span) & (etas <= t0 + 0.30 * span)
    late = _last_quarter(etas)
    if np.count_nonzero(early) < 4 or np.count_nonzero(late) < 4:
        raise ValueError("trajectory too sparsely sampled for persistence")
    early_amp = float(np.std(vals[early]))
    if early_amp == 0.0:
        return 0.0
    return float(np.std(vals[late])) / early_amp


def dressed_reference(trajectory: Trajectory):
    """``(m a_f, Sigma, Pi)``: the final dispersion, m the lattice's bare mass
    and a_f the last scale factor, dressed by the mean condensates over the
    late window of :func:`condensate_persistence`.  Sigma is (m a_f + mean
    Sigma) - m a_f, the rounding ``entropy_qp.csv`` is written with."""
    late = _last_quarter(trajectory.etas)
    ma_f = trajectory.spec.mass * float(trajectory.a_vals[-1])
    ma_ref = ma_f + float(np.mean(trajectory.sigma[late]))
    return ma_f, ma_ref - ma_f, float(np.mean(trajectory.pi[late]))


def renormalized_velocity(trajectory: Trajectory):
    """Group velocity of the :func:`dressed_reference` dispersion.

    Refuses when the scalar condensate's oscillations persist (late-time
    amplitude above :data:`PERSISTENCE_LIMIT` of the early amplitude)
    instead of damping out, or the run is too sparse to tell.
    """
    persistence = condensate_persistence(trajectory, "sigma")
    if persistence > PERSISTENCE_LIMIT:
        raise NonEquilibratedWindowError(
            f"Sigma oscillations persist (late/early amplitude ratio "
            f"{persistence:.2f}); the quasi-particle picture does not apply"
        )
    return group_velocity(*dressed_reference(trajectory))


def horizon_width(block_length: float, v_g: float, hubble: float, a_0: float) -> float:
    """Width of the causally dark central band, Delta x = l_A - 4 v_g/(H a_0).

    Nonpositive values mean the cones meet and no disconnected region
    survives.
    """
    if not (hubble > 0 and a_0 > 0):  # NaN fails too
        raise ValueError(f"hubble and a_0 must be positive, got {hubble} and {a_0}")
    for name, value in (("block_length", block_length), ("v_g", v_g)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    return float(block_length - 4.0 * v_g / (hubble * a_0))
