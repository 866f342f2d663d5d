"""Fermionic Gaussian states in momentum blocks and their self-consistent dynamics.

The state is one 2x2 Hermitian block per grid momentum,
Gamma_k[a,b] = <psi_{k,a} psi_{k,b}^dagger>.  Translation invariance and
particle-number conservation make this block form exact for every state
reachable here, so storage and the evolution right-hand side are O(N_S)
instead of O(N_S^2).

Internally a block is handled through its Bloch vector,
Gamma_k = (1 + n_k . sigma)/2 with real n_k; the map is affine, so
trace is conserved identically and purity is just ||n_k| - 1|.

An interacting vacuum solves the gap equation: (Sigma, Pi) must be the
condensates of the Dirac sea of h_k(m a, Sigma, Pi).  The iteration
(:func:`self_consistent_ground_state`) evaluates that map on momentum rows
built once per solve (:func:`_gap_map`), with the operations and summation
order of ``condensates(free_ground_state(...))``, so both forms agree bit
for bit and only a converged seed's state is built.

One propagator, :func:`propagate`, evolves every run.  It cuts the span
at the kinks of a(eta) that lie inside it and solves each piece from the
state at its start.  A free run (g = 0) on a piecewise-constant a(eta)
needs no integrator: each Bloch vector is rotated exactly about its
fixed field.  Every other piece is one DOP853 solve by the package's own
numpy solver (:mod:`cosmodirac._dop853`, scipy's DOP853 to the bit, its
stage arrays allocated once per solve), whose field kernel works on
component rows, (n_x, n_y, n_z) each over the momenta solved for, in
preallocated buffers, and reads a(eta) on a profile's scalar path where
it has one.  A mirror-symmetric state, n(-k) = diag(-1, -1, 1) n(k) to
within :data:`MIRROR_TOL` as every Pi = 0 vacuum is, stays so, and is
solved on the N_S/2 + 1 momenta k in [-pi, 0] and expanded to the whole
grid at each sample; any other state is solved on all N_S.  A run is
sampled at the uniform times of :func:`sample_grid`, and a solve runs at
:data:`REFERENCE_RTOL` unless the config sets its own ``rtol``.
The order of every floating-point operation is fixed, so runs are
bit-reproducible.
A :class:`Trajectory` stores its samples as arrays, the Bloch vectors as
(T, N_S, 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
# numpy loads numpy.fft on first use; load it with the package instead
from numpy.fft import ifft

from . import _dop853
from .lattice import LatticeSpec, QuenchProfile, StaticProfile, bloch_vector


class DegenerateGroundStateError(RuntimeError):
    """Gap closure at a grid momentum makes the Dirac-sea filling ambiguous."""


class ConvergenceError(RuntimeError):
    """Gap-equation fixed-point iteration did not reach tolerance."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals or []


class StepSizeError(RuntimeError):
    """The solver failed, or purity drifted beyond :data:`PURITY_TOL`."""


@dataclass(frozen=True)
class CondensatePair:
    """Scalar (Sigma) and pseudo-scalar (Pi) fermion condensates."""

    sigma: float = 0.0
    pi: float = 0.0


@dataclass
class CorrelationState:
    """Momentum-block correlation matrix of a fermionic Gaussian state.

    Attributes
    ----------
    spec : LatticeSpec
    bloch : (N_S, 3) float array
        Bloch vectors n_k; Gamma_k = (1 + n_k . sigma)/2.

    A snapshot's time and scale factor live in the :class:`Trajectory`
    it came from.
    """

    spec: LatticeSpec
    bloch: np.ndarray

    @property
    def blocks(self) -> np.ndarray:
        """Stacked (N_S, 2, 2) complex Hermitian blocks Gamma_k."""
        return blocks_from_bloch(self.bloch)

    def purity_defect(self) -> float:
        """max_k ||Gamma_k^2 - Gamma_k|| = max_k | |n_k|^2 - 1 | / 4."""
        return float(_purity_defects(self.bloch))

    def copy(self) -> "CorrelationState":
        return CorrelationState(self.spec, self.bloch.copy())


def blocks_from_bloch(n: np.ndarray) -> np.ndarray:
    g = np.zeros(n.shape[:-1] + (2, 2), dtype=complex)
    g[..., 0, 0] = (1.0 + n[..., 2]) / 2.0
    g[..., 1, 1] = (1.0 - n[..., 2]) / 2.0
    g[..., 0, 1] = (n[..., 0] - 1j * n[..., 1]) / 2.0
    g[..., 1, 0] = (n[..., 0] + 1j * n[..., 1]) / 2.0
    return g


def _purity_defects(bloch):
    """max_k | |n_k|^2 - 1 | / 4 over the last two axes of (..., N_S, 3)."""
    return np.max(np.abs(np.sum(bloch**2, axis=-1) - 1.0), axis=-1) / 4.0


@dataclass
class Trajectory:
    """Sampled output of :func:`propagate`.

    Arrays over the T samples: strictly increasing conformal times
    ``etas`` (T,) and their cosmological :attr:`times`, scale factors
    ``a_vals`` (T,), Bloch vectors ``bloch`` (T, N_S, 3) and condensates
    ``sigma`` and ``pi`` (T,).  ``nfev`` counts the field evaluations that
    produced them (0 for the closed form), and ``evolved_momenta`` the
    momenta the propagator solved for: N_S, or N_S/2 + 1 where every
    DOP853 piece took the mirror path.
    """

    etas: np.ndarray
    a_vals: np.ndarray
    bloch: np.ndarray
    sigma: np.ndarray
    pi: np.ndarray
    spec: LatticeSpec
    profile: object = None
    nfev: int = 0
    evolved_momenta: int | None = None

    def __post_init__(self):
        t = len(self.etas)
        if any(len(x) != t for x in (self.a_vals, self.bloch, self.sigma, self.pi)):
            raise ValueError("every sampled array must have one entry per time")
        _check_sample_times(self.etas)

    @cached_property
    def times(self) -> np.ndarray:
        """Cosmological time (T,) of each sample, the one time axis analyses
        read; element by element, so ``times[idx]`` is t(etas[idx]) to the bit."""
        return np.asarray(self.profile.cosmological_time(self.etas), dtype=float)

    def state(self, i) -> CorrelationState:
        """Sample ``i`` as a :class:`CorrelationState` viewing ``bloch[i]``."""
        return CorrelationState(self.spec, self.bloch[i])

    def purity_defect(self) -> float:
        """The worst :meth:`CorrelationState.purity_defect` over the samples."""
        return float(np.max(_purity_defects(self.bloch)))


# ---------------------------------------------------------------------------
# Condensates and ground states
# ---------------------------------------------------------------------------


def _condensate_sums(bloch, spec: LatticeSpec):
    """(Sigma, Pi) of Bloch vectors (..., N_S, 3), over the leading axes.

    A C-contiguous stack has each state's k axis summed pairwise, exactly
    as for that state alone.
    """
    pref = spec.coupling / (2.0 * spec.num_sites)
    return -pref * np.sum(bloch[..., 2], axis=-1), pref * np.sum(bloch[..., 1], axis=-1)


def condensates(state: CorrelationState) -> CondensatePair:
    """Scalar and pseudo-scalar condensates of a state.

    Sigma = g0^2/(2 N_S) sum_k [Tr(gamma0) - Tr(Gamma_k gamma0)]
          = -g0^2/(2 N_S) sum_k n_{k,z},
    Pi    = i g0^2/(2 N_S) sum_k [Tr(gamma1) - Tr(Gamma_k gamma1)]
          =  g0^2/(2 N_S) sum_k n_{k,y}.
    """
    sigma, pi = _condensate_sums(state.bloch, state.spec)
    return CondensatePair(sigma=float(sigma), pi=float(pi))


def free_ground_state(spec: LatticeSpec, ma_eff, sigma=0.0, pi=0.0) -> CorrelationState:
    """Dirac-sea ground state of h_k(ma_eff, sigma, pi) on the grid.

    Each block is the rank-1 projector onto the positive-energy
    eigenvector (equivalently, the negative-energy mode is filled):
    n_k = b_k / |b_k|.
    """
    ks = spec.momentum_grid()
    b = bloch_vector(ks, ma_eff, sigma, pi)
    eps = np.linalg.norm(b, axis=-1)
    if np.any(eps < 1e-12):
        bad = ks[eps < 1e-12]
        raise DegenerateGroundStateError(
            f"gap closes at k = {bad}; ground state degenerate"
        )
    return CorrelationState(spec, b / eps[:, None])


def total_energy(state: CorrelationState, ma_eff, sigma=0.0, pi=0.0) -> float:
    """sum_k <psi_k^dag h_k psi_k> = sum_k [Tr h_k - Tr(Gamma_k h_k)]."""
    ks = state.spec.momentum_grid()
    b = bloch_vector(ks, ma_eff, sigma, pi)
    return float(-np.sum(b * state.bloch))


def mean_field_energy(state: CorrelationState, ma_eff) -> float:
    """Energy functional whose stationary points are the gap-equation vacua.

    E[Gamma] = sum_k [Tr h_k - Tr(Gamma_k h_k)]
             + (N_S / g0^2) (Sigma[Gamma]^2 - Pi[Gamma]^2).

    Its functional derivative reproduces the condensate-dressed block
    h_k(ma_eff + Sigma) - i Pi gamma1, so it is conserved by the
    self-consistent evolution on static backgrounds and ranks competing
    fixed points (the +-Pi Aoki doublet is exactly degenerate).
    """
    spec = state.spec
    e = total_energy(state, ma_eff)
    if spec.coupling != 0.0:
        sigma, pi = _condensate_sums(state.bloch, spec)
        condensed = sigma**2 - pi**2
        # a subnormal g0^2 makes N_S / g0^2 infinite, and its condensates square to 0
        if condensed != 0.0:
            e += (spec.num_sites / spec.coupling) * condensed
    return float(e)


# Linear mixing of the gap-equation iteration: the share of each update taken.
GAP_MIXING = 0.5


def _gap_map(spec: LatticeSpec, ma_eff):
    """The gap-equation map (Sigma, Pi) -> (Sigma', Pi') at effective mass
    ``ma_eff``: the condensates of the Dirac sea of h_k(ma_eff, Sigma, Pi).

    With b_k = (-sin k, Pi, b_z) and b_z = ma_eff + Sigma + 1 - cos k,
    eps_k = |b_k| and n_k = b_k / eps_k,

        Sigma' = -g0^2/(2 N_S) sum_k b_z/eps_k,
        Pi'    =  g0^2/(2 N_S) sum_k Pi/eps_k.

    The momentum rows are built once; every floating-point operation, and
    the summation order of each eps_k and of each pairwise sum over k, is the
    one of ``condensates(free_ground_state(spec, ma_eff, Sigma, Pi))``, so the
    two agree bit for bit.  Raises :class:`DegenerateGroundStateError` where
    the gap closes, as :func:`free_ground_state` does.
    """
    ks = spec.momentum_grid()
    sin = np.sin(ks)
    sin2 = sin * sin
    wilson = 1.0 - np.cos(ks)
    pref = spec.coupling / (2.0 * spec.num_sites)

    def gap(sigma, pi):
        bz = (ma_eff + sigma) + wilson
        eps = np.sqrt((sin2 + pi * pi) + bz * bz)
        if (eps < 1e-12).any():
            raise DegenerateGroundStateError(
                f"gap closes at k = {ks[eps < 1e-12]}; ground state degenerate"
            )
        return float(-pref * (bz / eps).sum()), float(pref * (pi / eps).sum())

    return gap


def self_consistent_ground_state(
    spec: LatticeSpec,
    a_val: float,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    pi_seeds=(0.0, 0.1, 0.5),
):
    """Gap-equation-consistent vacuum at scale factor a_val.

    Iterates the gap map (Sigma, Pi) -> (Sigma', Pi'), the condensates of
    the Dirac sea of h_k(m a_val, Sigma, Pi) (:func:`_gap_map`, bit for bit
    ``condensates(free_ground_state(...))``), with linear mixing
    (:data:`GAP_MIXING`) until the update falls below ``tol``.  Several Pi
    seeds probe the parity-broken (Aoki) branches; the state of each
    converged seed is built once by :func:`free_ground_state`, the
    lowest-energy fixed point wins and the sign of Pi is reported as found.

    The default seeds have no -Pi mirrors: the gap map takes (Sigma, -Pi)
    to (Sigma', -Pi') to the bit, since negation is exact in each of its
    operations (both zeros of Pi map alike), so a seed -p repeats the
    iteration of +p mirrored, ties its energy exactly and can never beat
    it by the 1e-12 a winner needs.  The doublet branch a default solve
    returns therefore has Pi >= 0 for g0^2 > 0.  Explicit ``pi_seeds`` are
    iterated as given, in their order.

    Returns (CorrelationState, CondensatePair).
    """
    if not tol > 0:  # a NaN tol fails too
        raise ValueError(f"tol must be positive, got {tol}")
    ma_eff = spec.mass * a_val
    if spec.coupling == 0.0:
        return free_ground_state(spec, ma_eff), CondensatePair(0.0, 0.0)

    gap = _gap_map(spec, ma_eff)
    best = None
    failures = []
    for pi0 in pi_seeds:
        sig, pi = 0.0, float(pi0)
        history = []
        converged = False
        for _ in range(max_iter):
            new_sig, new_pi = gap(sig, pi)
            d_sig = new_sig - sig
            d_pi = new_pi - pi
            history.append(max(abs(d_sig), abs(d_pi)))
            sig += GAP_MIXING * d_sig
            pi += GAP_MIXING * d_pi
            if history[-1] < tol:
                converged = True
                break
        if not converged:
            failures.append((pi0, history[-10:]))
            continue
        state = free_ground_state(spec, ma_eff, sig, pi)
        energy = mean_field_energy(state, ma_eff)
        if best is None or energy < best[0] - 1e-12:
            best = (energy, state, CondensatePair(sig, pi))
    if best is None:
        raise ConvergenceError(
            f"gap equation did not converge within {max_iter} iterations "
            f"for any seed", residuals=failures
        )
    return best[1], best[2]


# ---------------------------------------------------------------------------
# Real-time evolution
# ---------------------------------------------------------------------------


# DOP853 relative tolerance of a run whose config sets no ``rtol``, and of
# each ramp of the Hubble sweep.  The interacting presets' CSVs then agree
# with a fixed-step RK4 at the steps they once shipped with to 5e-9, and the
# fig6 sweep rows with RK4 at a step of 1e-4 to 1e-9 relative.
REFERENCE_RTOL = 1e-12

# The largest purity defect a propagated sample may have before the run fails.
PURITY_TOL = 1e-6

# max_k |n(-k) - M n(k)| up to which a DOP853 piece solves a state on half
# the momenta
MIRROR_TOL = 1e-12
# M = diag(-1, -1, 1), the mirror k -> -k of a Pi = 0 Bloch vector
_MIRROR = np.array([-1.0, -1.0, 1.0])


def _is_mirror_symmetric(bloch) -> bool:
    """Whether (N_S, 3) Bloch vectors have max_k |n(-k) - M n(k)| within
    :data:`MIRROR_TOL`; tested with <=, so that a NaN state fails."""
    _, mirror = _separation_constants(bloch.shape[0])
    return bool(np.max(np.abs(bloch[mirror] - bloch * _MIRROR)) <= MIRROR_TOL)


def _mirror_expand(half, num_sites):
    """(T, N_S, 3) Bloch vectors from (T, N_S/2 + 1, 3) samples on the grid's
    prefix k in [-pi, 0]: index N_S - j gets n(-k_j) = M n(k_j)."""
    h = num_sites // 2
    bloch = np.empty((half.shape[0], num_sites, 3))
    bloch[:, :h + 1] = half
    np.multiply(half[:, h - 1:0:-1], _MIRROR, out=bloch[:, h + 1:])
    return bloch


class _BlockField:
    """The self-consistent field b_k and d n_k/d eta = 2 b_k x n_k, in place:
    the right-hand side of :func:`_dop853_piece`.

    Built once per run from the lattice.  The state being differentiated
    sits in a buffer ``v`` of component rows (n_x, n_y, n_z, n_x, n_y) and
    twice the field in ``b`` as (b_x, b_y, b_z, b_x, b_y), with b = (-sin k,
    Pi, m a + Sigma + 1 - cos k).  The repeated rows make the cross
    product (b x n)_i = b_{i+1} n_{i+2} - b_{i+2} n_{i+1} two shifted
    row slices, each multiplied into a contiguous work block, so that
    only their difference is written into the solver's strided row.  The
    two condensate sums are one reduction over the (n_y, n_z) rows into a
    work pair, each row summed pairwise as on its own.  Every view and
    work array is taken once here, so an evaluation allocates no arrays.
    Doubling is exact in binary floating point, so (2 b) x n is bit for
    bit 2 (b x n).

    With ``mirror`` the field acts on the grid's prefix k in [-pi, 0] of a
    mirror-symmetric state (see :func:`_dop853_piece`).  Each momentum
    strictly inside stands for its partner -k too, whose n_z is its own:
    Sigma reads 2 sum n_z minus the two ends, k = -pi and k = 0, which
    stand for themselves.  The partner's n_y is the negative of its own, so
    Pi, and b_y with it, stays 0; a weighted n_y sum would not.
    """

    def __init__(self, spec: LatticeSpec, mirror: bool = False):
        ks = spec.momentum_grid()
        if mirror:
            ks = ks[:spec.num_sites // 2 + 1]
        self.mirror = mirror
        self.pref = spec.coupling / (2.0 * spec.num_sites)
        self.wilson2 = 2.0 * (1.0 - np.cos(ks))
        b = np.empty((5, ks.size))
        b[0::3] = -2.0 * np.sin(ks)
        v = np.empty((5, ks.size))
        self._n, self._wrap_to, self._wrap_from = v[:3], v[3:], v[:2]
        self._nyz = v[1:3]
        self._nz_ends = v[2, ::ks.size - 1]
        self._by, self._bz = b[1::3], b[2]
        self._cross = (b[1:4], v[2:5], b[2:5], v[1:4])
        self._lead, self._lag = np.empty((2, 3, ks.size))
        self._sums = np.empty(2)

    def load(self, n):
        """Copy the (3, N) component rows ``n`` into ``v``, N the momenta
        the field acts on."""
        self._n[...] = n
        self._wrap_to[...] = self._wrap_from

    def rate(self, ma, out):
        """out <- 2 b x n for the state in ``v`` at effective mass ``ma``."""
        np.add.reduce(self._nyz, axis=1, out=self._sums)
        sum_y, sum_z = self._sums.tolist()
        if self.mirror:
            first, last = self._nz_ends.tolist()
            sum_y, sum_z = 0.0, 2.0 * sum_z - (first + last)
        sig = -self.pref * sum_z
        self._by.fill(2.0 * (self.pref * sum_y))
        np.add(2.0 * (ma + sig), self.wilson2, out=self._bz)
        b_lead, n_lead, b_lag, n_lag = self._cross
        np.multiply(b_lead, n_lead, out=self._lead)
        np.multiply(b_lag, n_lag, out=self._lag)
        np.subtract(self._lead, self._lag, out=out)


def _check_sample_times(etas) -> np.ndarray:
    # all(> 0) rather than any(<= 0), so that a NaN fails too
    etas = np.asarray(etas, dtype=float)
    if not (etas.size and np.all(np.isfinite(etas)) and np.all(np.diff(etas) > 0)):
        raise ValueError("sample times must be nonempty, finite and strictly increasing, "
                         f"got {etas}")
    return etas


def _purity_gate(etas, bloch, remedy):
    """Raise at the first sample whose purity defect exceeds :data:`PURITY_TOL`.

    ``not (defect <= PURITY_TOL)`` so that a NaN state fails the gate too.
    """
    defects = _purity_defects(bloch)
    bad = np.flatnonzero(~(defects <= PURITY_TOL))
    if bad.size:
        i = bad[0]
        raise StepSizeError(
            f"purity defect {defects[i]:.3e} at eta = {etas[i]:.6g}; {remedy}"
        )


def sample_grid(eta_span, n_samples: int):
    """``n_samples`` sample times spread uniformly over ``eta_span``, both
    ends included: the sample times of every run."""
    eta0, eta1 = float(eta_span[0]), float(eta_span[1])
    if not (eta1 > eta0):  # a NaN end fails too
        raise ValueError("eta_span must be increasing")
    return np.linspace(eta0, eta1, int(n_samples))


def propagate(
    initial: CorrelationState,
    profile,
    etas,
    rtol: float = REFERENCE_RTOL,
) -> Trajectory:
    """The state ``initial`` at ``etas[0]`` evolved to each sample time
    ``etas`` (two or more, strictly increasing; see :func:`sample_grid`).

    d n_k/d eta = 2 b_k x n_k, with b_k = (-sin k, Pi, m a(eta) + Sigma
    + 1 - cos k) and the condensates recomputed from all the blocks.  The
    span [etas[0], etas[-1]] is cut at the profile's ``kinks`` strictly
    inside it, and each piece is solved from the state at its start; a
    sample on a kink belongs to the piece that starts there, and a piece
    that ends at a kink reads a(eta) from its left, so a quench's jump acts
    only on the next piece.  A free lattice (g = 0) on a
    :class:`StaticProfile` or :class:`QuenchProfile` is rotated exactly on
    each piece (:func:`_rotation_piece`); every other run is solved by
    DOP853 (:func:`_dop853_piece`) at ``rtol``, which may not be below
    :data:`~cosmodirac._dop853.MIN_RTOL`.  The trajectory's ``nfev`` sums
    the pieces' field evaluations, and ``evolved_momenta`` is the most
    momenta a piece solved for.

    Raises :class:`StepSizeError` if the field is not finite, the step size
    underflows, or the purity defect of any sample exceeds
    :data:`PURITY_TOL` or is not finite, and ``ValueError`` for bad sample
    times or, on DOP853, an initial state that is not finite.
    """
    etas = _check_sample_times(etas)
    if etas.size < 2:
        raise ValueError(f"propagate needs two or more sample times, got {etas}")
    spec = initial.spec
    rotates = spec.coupling == 0.0 and isinstance(profile, (StaticProfile, QuenchProfile))
    solve_piece = _rotation_piece if rotates else _dop853_piece
    cuts = [kink for kink in profile.kinks if etas[0] < kink < etas[-1]]
    bloch = np.empty((etas.size,) + initial.bloch.shape)
    n, first, nfev, momenta = initial.bloch, 0, 0, 0
    for start, end in zip([etas[0], *cuts], [*cuts, None]):
        if end is None:
            times, scale_factor = etas[first:], profile.scale_factor
        else:
            times = np.append(etas[first:np.searchsorted(etas, end)], end)
            left = np.nextafter(end, -np.inf)
            scale_factor = lambda eta, left=left: profile.scale_factor(min(eta, left))
        piece, piece_nfev, piece_momenta = solve_piece(spec, n, scale_factor, start,
                                                       times, rtol)
        rows = times.size - (end is not None)
        bloch[first:first + rows] = piece[:rows]
        n, first = piece[-1], first + rows
        nfev, momenta = nfev + piece_nfev, max(momenta, piece_momenta)
    _purity_gate(etas, bloch, "check the initial state" if rotates else "tighten rtol")
    a_vals = np.asarray(profile.scale_factor(etas), dtype=float)
    return Trajectory(etas, a_vals, bloch, *_condensate_sums(bloch, spec), spec, profile,
                      nfev=nfev, evolved_momenta=momenta)


def _rotation_piece(spec, n, scale_factor, start, times, rtol):
    """``(bloch, 0, N_S)``: the free Bloch vectors ``n`` at ``start``
    rotated exactly to each of ``times`` under the constant a(start).

    With g = 0 the field b = (-sin k, 0, m a + 1 - cos k) is fixed, so by
    Rodrigues' formula n(t) = n cos(w t) + (b^ x n) sin(w t)
    + b^ (b^ . n)(1 - cos(w t)) with w = 2|b| and t = eta - start, exactly
    n at t = 0; a mode with b = 0 stays put.  Every time is rotated from
    ``start``, so no error accumulates.
    """
    b = bloch_vector(spec.momentum_grid(), spec.mass * float(scale_factor(start)), 0.0, 0.0)
    eps = np.linalg.norm(b, axis=-1)
    unit = np.divide(b, eps[:, None], out=np.zeros_like(b), where=eps[:, None] > 0)
    angle = 2.0 * (times - start)[:, None] * eps
    cos, sin = np.cos(angle)[..., None], np.sin(angle)[..., None]
    axial = unit * np.sum(unit * n, axis=-1, keepdims=True)
    return n * cos + np.cross(unit, n) * sin + axial * (1.0 - cos), 0, spec.num_sites


def _dop853_piece(spec, n, scale_factor, start, times, rtol):
    """``(bloch, nfev, N)``: the Bloch vectors ``n`` at ``start`` solved to
    each of ``times``, the last of which ends the solve.

    The self-consistent field (:class:`_BlockField`) is integrated by the
    package's DOP853 (:func:`cosmodirac._dop853.solve`) at relative
    tolerance ``rtol`` and absolute tolerance 1e-12, reading a(eta) from
    ``scale_factor``.  Its step control tracks the local frequency, so a
    de Sitter chart, whose m a(eta) = -m/(H eta) diverges towards
    eta -> 0^-, costs steps logarithmic in the final scale factor; the
    dense output puts the samples between the steps, so they leave the
    step control alone.  The state vector keeps the (N, 3) order of the N
    momenta solved for, so the error norm sees the same numbers.

    A state with Pi = 0 keeps the mirror n(-k) = M n(k), M = diag(-1, -1,
    1), under this flow.  If ``n`` has it, max_k |n(-k) - M n(k)| <=
    :data:`MIRROR_TOL` (a NaN state fails), the solve runs on the prefix
    k in [-pi, 0], N = N_S/2 + 1 momenta, with the weighted condensate
    sums of :class:`_BlockField`, and each sample is expanded into the
    full grid as n(N_S - j) = M n(j), so its mirror pairs agree exactly.
    Any other state is solved on all N = N_S momenta.  The solve stops at
    the first step that takes the purity defect past :data:`PURITY_TOL`
    and names it, so a runaway state ends the run.
    """
    mirror = _is_mirror_symmetric(n)
    y0 = n[:spec.num_sites // 2 + 1] if mirror else n
    field = _BlockField(spec, mirror)
    load, rate, mass = field.load, field.rate, spec.mass

    def rhs(eta, y, out):
        load(y.reshape(-1, 3).T)
        rate(mass * float(scale_factor(eta)), out.reshape(-1, 3).T)

    last_pure = start  # the last step end whose state passed

    def check(eta, y):
        nonlocal last_pure
        # not (<=) rather than >, so that a NaN state fails too
        if not (_purity_defects(y.reshape(-1, 3)) <= PURITY_TOL):
            raise StepSizeError(f"purity defect passed {PURITY_TOL:g} between "
                                f"eta = {last_pure:.6g} and {eta:.6g}; tighten rtol")
        last_pure = eta

    try:
        ys, nfev = _dop853.solve(rhs, (start, times[-1]), y0.ravel(), times, rtol,
                                 1e-12, check)
    except _dop853.SolverError as exc:
        raise StepSizeError(f"adaptive integration failed: {exc}") from exc
    # C order, so that the stacked condensate sums equal the per-state ones
    bloch = ys.reshape(times.size, -1, 3)
    if mirror:
        bloch = _mirror_expand(bloch, spec.num_sites)
    return bloch, nfev, y0.shape[0]


# ---------------------------------------------------------------------------
# Real-space reconstruction
# ---------------------------------------------------------------------------


@cache
def _separation_constants(ns: int):
    """The sign (-1)^d, shaped (N_S, 1, 1), and the index of -d of every
    separation d < ``ns``: built once per chain size, and read-only."""
    signs = ((-1.0) ** np.arange(ns))[:, None, None]
    mirror = -np.arange(ns) % ns
    signs.flags.writeable = mirror.flags.writeable = False
    return signs, mirror


def separation_blocks(state: CorrelationState) -> np.ndarray:
    """(N_S, 2, 2) separation blocks Gamma(d) = (1/N_S) sum_k exp(i k d) Gamma_k
    by one FFT, averaged with Gamma(-d)^dag so that the two agree exactly."""
    signs, mirror = _separation_constants(state.spec.num_sites)
    # k_n = -pi + 2 pi n/N:  exp(i k_n d) = (-1)^d exp(2 pi i n d / N)
    g = ifft(state.blocks, axis=0)
    g *= signs
    return 0.5 * (g + g[mirror].conj().transpose(0, 2, 1))


def real_space_correlation(state: CorrelationState, block=None) -> np.ndarray:
    """Real-space correlation matrix, site-major spinor ordering.

    Gamma_{(i,alpha),(j,beta)} = (1/N_S) sum_k exp(i k (x_i - x_j))
    (Gamma_k)_{alpha beta}, gathered from :func:`separation_blocks`.  Row
    index is 2*i + alpha with alpha in {u, d} = {0, 1}.  Given a block
    (anything with a ``length``), it is the chain's leading 2L rows and
    columns, which translation invariance makes those of any L sites in a row.
    """
    length = state.spec.num_sites if block is None else block.length
    g = separation_blocks(state)
    sites = np.arange(length)
    d = (sites[:, None] - sites[None, :]) % g.shape[0]
    return g[d].transpose(0, 2, 1, 3).reshape(2 * length, 2 * length)
