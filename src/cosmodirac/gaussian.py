"""Fermionic Gaussian states in momentum blocks and their self-consistent dynamics.

The state is one 2x2 Hermitian block per grid momentum,
Gamma_k[a,b] = <psi_{k,a} psi_{k,b}^dagger>.  Translation invariance and
particle-number conservation make this block form exact for every state
reachable here, so storage and the evolution right-hand side are O(N_S)
instead of O(N_S^2).

Internally a block is handled through its Bloch vector,
Gamma_k = (1 + n_k . sigma)/2 with real n_k; the map is affine, so
Runge-Kutta trajectories in either parameterisation coincide.  Trace is
then conserved identically and purity is just ||n_k| - 1|.

Both integrators share one field kernel that works on component rows,
(n_x, n_y, n_z) each over the whole grid, in preallocated buffers; the
fixed-step integrator evaluates the scale factor for a block of steps at
once.  The order of every floating-point operation is fixed, so runs are
bit-reproducible.  Fixed-step RK4 (:func:`evolve`) is the reference
integrator; runs go through DOP853 (:func:`evolve_adaptive`), which at
:data:`REFERENCE_RTOL` stands in for hand-set RK4 steps.  A free run
(g = 0) on a piecewise-constant a(eta) needs no integrator:
:func:`evolve_free` rotates each Bloch vector exactly about its fixed
field, so the step only sets the sample grid.
A :class:`Trajectory` stores its samples as arrays, the Bloch vectors as
(T, N_S, 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import LatticeSpec, QuenchProfile, StaticProfile, bloch_vector


class DegenerateGroundStateError(RuntimeError):
    """Gap closure at a grid momentum makes the Dirac-sea filling ambiguous."""


class ConvergenceError(RuntimeError):
    """Gap-equation fixed-point iteration did not reach tolerance."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals or []


class StepSizeError(RuntimeError):
    """Purity drifted beyond tolerance during integration; reduce deta."""


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
    eta : float
        Conformal time of the snapshot.
    a_val : float
        Scale-factor value at the snapshot.
    """

    spec: LatticeSpec
    bloch: np.ndarray
    eta: float = 0.0
    a_val: float = 1.0

    @property
    def blocks(self) -> np.ndarray:
        """Stacked (N_S, 2, 2) complex Hermitian blocks Gamma_k."""
        return blocks_from_bloch(self.bloch)

    def purity_defect(self) -> float:
        """max_k ||Gamma_k^2 - Gamma_k|| = max_k | |n_k|^2 - 1 | / 4."""
        return float(_purity_defects(self.bloch))

    def copy(self) -> "CorrelationState":
        return CorrelationState(self.spec, self.bloch.copy(), self.eta, self.a_val)


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
    """Sampled output of :func:`evolve`, :func:`evolve_adaptive` and
    :func:`evolve_free`.

    Arrays over the T samples: strictly increasing conformal times
    ``etas`` (T,), scale factors ``a_vals`` (T,), Bloch vectors ``bloch``
    (T, N_S, 3) and condensates ``sigma`` and ``pi`` (T,).  ``nfev`` counts
    the field evaluations that produced them (0 for the closed form).
    """

    etas: np.ndarray
    a_vals: np.ndarray
    bloch: np.ndarray
    sigma: np.ndarray
    pi: np.ndarray
    spec: LatticeSpec
    profile: object = None
    nfev: int = 0

    def __post_init__(self):
        t = len(self.etas)
        if any(len(x) != t for x in (self.a_vals, self.bloch, self.sigma, self.pi)):
            raise ValueError("every sampled array must have one entry per time")
        if np.any(np.diff(self.etas) <= 0):
            raise ValueError("sample times must be strictly increasing")

    def state(self, i) -> CorrelationState:
        """Sample ``i`` as a :class:`CorrelationState` viewing ``bloch[i]``."""
        return CorrelationState(self.spec, self.bloch[i], float(self.etas[i]),
                                float(self.a_vals[i]))

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
    pref = spec.coupling / (2.0 * spec.spacing * spec.num_sites)
    return -pref * np.sum(bloch[..., 2], axis=-1), pref * np.sum(bloch[..., 1], axis=-1)


def condensates(state: CorrelationState) -> CondensatePair:
    """Scalar and pseudo-scalar condensates of a state.

    Sigma = g0^2/(2 a N_S) sum_k [Tr(gamma0) - Tr(Gamma_k gamma0)]
          = -g0^2/(2 a N_S) sum_k n_{k,z},
    Pi    = i g0^2/(2 a N_S) sum_k [Tr(gamma1) - Tr(Gamma_k gamma1)]
          =  g0^2/(2 a N_S) sum_k n_{k,y}.
    """
    sigma, pi = _condensate_sums(state.bloch, state.spec)
    return CondensatePair(sigma=float(sigma), pi=float(pi))


def free_ground_state(
    spec: LatticeSpec, ma_eff, sigma=0.0, pi=0.0, eta=0.0, a_val=1.0
) -> CorrelationState:
    """Dirac-sea ground state of h_k(ma_eff, sigma, pi) on the grid.

    Each block is the rank-1 projector onto the positive-energy
    eigenvector (equivalently, the negative-energy mode is filled):
    n_k = b_k / |b_k|.
    """
    ks = spec.momentum_grid()
    b = bloch_vector(ks, ma_eff, sigma, pi, spec.spacing)
    eps = np.linalg.norm(b, axis=-1)
    if np.any(eps < 1e-12):
        bad = ks[eps < 1e-12]
        raise DegenerateGroundStateError(
            f"gap closes at k = {bad}; ground state degenerate"
        )
    return CorrelationState(spec, b / eps[:, None], eta=eta, a_val=a_val)


def total_energy(state: CorrelationState, ma_eff, sigma=0.0, pi=0.0) -> float:
    """sum_k <psi_k^dag h_k psi_k> = sum_k [Tr h_k - Tr(Gamma_k h_k)]."""
    ks = state.spec.momentum_grid()
    b = bloch_vector(ks, ma_eff, sigma, pi, state.spec.spacing)
    return float(-np.sum(b * state.bloch))


def mean_field_energy(state: CorrelationState, ma_eff) -> float:
    """Energy functional whose stationary points are the gap-equation vacua.

    E[Gamma] = sum_k [Tr h_k - Tr(Gamma_k h_k)]
             + (a N_S / g0^2) (Sigma[Gamma]^2 - Pi[Gamma]^2).

    Its functional derivative reproduces the condensate-dressed block
    h_k(ma_eff + Sigma) - i Pi gamma1, so it is conserved by the
    self-consistent evolution on static backgrounds and ranks competing
    fixed points (the +-Pi Aoki doublet is exactly degenerate).
    """
    spec = state.spec
    e = total_energy(state, ma_eff)
    if spec.coupling != 0.0:
        sigma, pi = _condensate_sums(state.bloch, spec)
        e += (spec.spacing * spec.num_sites / spec.coupling) * (sigma**2 - pi**2)
    return float(e)


# Linear mixing of the gap-equation iteration: the share of each update taken.
GAP_MIXING = 0.5


def self_consistent_ground_state(
    spec: LatticeSpec,
    a_val: float,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    pi_seeds=(0.0, 0.1, -0.1, 0.5, -0.5),
):
    """Gap-equation-consistent vacuum at scale factor a_val.

    Iterates (Sigma, Pi) -> condensates(free_ground_state(...)) with
    linear mixing (:data:`GAP_MIXING`) until the update falls below
    ``tol``.  Several Pi seeds probe the parity-broken (Aoki) branches;
    the lowest-energy fixed point wins and the sign of Pi is reported as
    found.

    Returns (CorrelationState, CondensatePair).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    ma_eff = spec.mass * a_val
    if spec.coupling == 0.0:
        state = free_ground_state(spec, ma_eff, a_val=a_val)
        return state, CondensatePair(0.0, 0.0)

    best = None
    failures = []
    for pi0 in pi_seeds:
        sig, pi = 0.0, float(pi0)
        history = []
        converged = False
        for _ in range(max_iter):
            new = condensates(free_ground_state(spec, ma_eff, sig, pi))
            d_sig = new.sigma - sig
            d_pi = new.pi - pi
            history.append(max(abs(d_sig), abs(d_pi)))
            sig += GAP_MIXING * d_sig
            pi += GAP_MIXING * d_pi
            if history[-1] < tol:
                converged = True
                break
        if not converged:
            failures.append((pi0, history[-10:]))
            continue
        state = free_ground_state(spec, ma_eff, sig, pi, a_val=a_val)
        energy = mean_field_energy(state, ma_eff)
        if best is None or energy < best[0] - 1e-12:
            best = (energy, state, CondensatePair(sig, pi))
    if best is None:
        raise ConvergenceError(
            f"gap equation did not converge within {max_iter} iterations "
            f"for any seed", residuals=failures
        )
    return best[1], best[2]


def mass_quench_prepare(spec: LatticeSpec, m_pre: float, a_val: float):
    """Ground state at bare mass m_pre, to be evolved at bare mass spec.mass.

    Seeds nonzero particle content at the start of the expansion.  The
    condensates are made self-consistent whenever the coupling is nonzero.
    Returns (CorrelationState, CondensatePair).
    """
    if m_pre == spec.mass:
        raise ValueError("pre-quench mass equals the bare mass: no matter content")
    pre_spec = LatticeSpec(spec.num_sites, spec.spacing, m_pre, spec.coupling)
    state, cond = self_consistent_ground_state(pre_spec, a_val)
    state.spec = spec
    return state, cond


# ---------------------------------------------------------------------------
# Real-time evolution
# ---------------------------------------------------------------------------


# RK4 steps whose stage scale factors come from one vectorised profile call;
# bounds the per-block arrays independently of the run length.
_BLOCK_STEPS = 256

# DOP853 relative tolerance of every solve that stands in for hand-set RK4
# steps: a run whose config sets ``deta`` and each ramp of the Hubble sweep.
# The interacting presets' CSVs then agree with RK4 at their shipped steps to
# 5e-9, and the fig6 sweep rows with RK4 at deta = 1e-4 to 1e-9 relative.
REFERENCE_RTOL = 1e-12


class _BlockField:
    """The self-consistent field b_k and d n_k/d eta = 2 b_k x n_k, in place.

    Built once per run from the lattice.  The state being differentiated
    sits in a buffer ``v`` of component rows (n_x, n_y, n_z, n_x, n_y) and
    the field in ``b`` as (b_x, b_y, b_z, b_x, b_y), with b = (-sin(ka)/a, Pi,
    m a + Sigma + (1 - cos ka)/a).  The repeated rows make the cross
    product (b x n)_i = b_{i+1} n_{i+2} - b_{i+2} n_{i+1} two shifted
    row slices.  Every view is taken once here, so an evaluation
    allocates no arrays.
    """

    def __init__(self, spec: LatticeSpec):
        ks = spec.momentum_grid()
        a = spec.spacing
        self.pref = spec.coupling / (2.0 * a * spec.num_sites)
        self.wilson = (1.0 - np.cos(ks * a)) / a
        b = np.empty((5, spec.num_sites))
        b[0::3] = -np.sin(ks * a) / a
        v = np.empty((5, spec.num_sites))
        self._n, self._wrap_to, self._wrap_from = v[:3], v[3:], v[:2]
        self._ny, self._nz = v[1], v[2]
        self._by, self._bz = b[1::3], b[2]
        self._cross = (b[1:4], v[2:5], b[2:5], v[1:4])
        self._tmp = np.empty((3, spec.num_sites))

    def load(self, n):
        """Copy the (3, N_S) component rows ``n`` into ``v``."""
        self._n[...] = n
        self._wrap_to[...] = self._wrap_from

    def stage(self, n, c, k):
        """Load the Runge-Kutta stage input n + c * k into ``v``."""
        np.multiply(k, c, out=self._n)
        np.add(n, self._n, out=self._n)
        self._wrap_to[...] = self._wrap_from

    def rate(self, ma, out):
        """out <- 2 b x n for the state in ``v`` at effective mass ``ma``."""
        sig = -self.pref * self._nz.sum()
        self._by.fill(self.pref * self._ny.sum())
        np.add(ma + sig, self.wilson, out=self._bz)
        b_lead, n_lead, b_lag, n_lag = self._cross
        np.multiply(b_lead, n_lead, out=out)
        np.multiply(b_lag, n_lag, out=self._tmp)
        np.subtract(out, self._tmp, out=out)
        np.multiply(out, 2.0, out=out)


def _check_span(eta_span):
    eta0, eta1 = float(eta_span[0]), float(eta_span[1])
    if eta1 <= eta0:
        raise ValueError("eta_span must be increasing")
    return eta0, eta1


def _purity_gate(etas, bloch, purity_tol, remedy):
    """Raise at the first sample whose purity defect exceeds ``purity_tol``.

    ``not (defect <= tol)`` so that a NaN state fails the gate too.
    """
    defects = _purity_defects(bloch)
    bad = np.flatnonzero(~(defects <= purity_tol))
    if bad.size:
        i = bad[0]
        raise StepSizeError(
            f"purity defect {defects[i]:.3e} at eta = {etas[i]:.6g}; {remedy}"
        )


def step_grid(eta_span, deta: float, sample_every: int = 1):
    """The fixed-step grid of :func:`evolve` and the steps it samples.

    ``deta`` is rounded down to h = (eta1 - eta0)/n_steps with n_steps =
    ceil((eta1 - eta0)/deta), at least one.  A sample is taken at the start, after
    every ``sample_every``-th step and after the last one, at
    min(eta0 + j*h, eta1) for the j steps taken (n_steps*h can round past
    eta1, out of a profile's domain); a sample whose time rounding
    leaves equal to the previous one (h << eta0) is dropped.

    Returns ``(h, steps, etas)``: the step, the sampled step counts j
    (int array from 0) and the sample times.
    """
    if deta <= 0:
        raise ValueError("deta must be positive")
    eta0, eta1 = _check_span(eta_span)
    n_steps = max(1, int(np.ceil((eta1 - eta0) / deta - 1e-12)))
    h = (eta1 - eta0) / n_steps
    steps = np.append(np.arange(0, n_steps, sample_every), n_steps)
    etas = np.minimum(eta0 + steps * h, eta1)
    etas[0] = eta0
    moved = np.concatenate([[True], etas[1:] > etas[:-1]])
    return h, steps[moved], etas[moved]


def sample_grid(eta_span, n_samples: int):
    """``n_samples`` sample times spread uniformly over ``eta_span``, both
    ends included: the grid of the ``adaptive`` dialect."""
    eta0, eta1 = _check_span(eta_span)
    return np.linspace(eta0, eta1, int(n_samples))


def evolve(
    initial: CorrelationState,
    profile,
    eta_span,
    deta: float,
    sample_every: int = 1,
    purity_tol: float = 1e-6,
) -> Trajectory:
    """Integrate the self-consistent block equations over eta_span.

    The library's deterministic reference integrator; a pipeline run
    samples the same grid through :func:`evolve_adaptive`.  Classical
    fixed-step RK4 on d Gamma_k/d eta = -i [h_k(m a(eta),
    Sigma(Gamma), Pi(Gamma)), Gamma_k]; the condensates are recomputed
    from the full set of blocks at every stage.  The state is stepped in
    place as (3, N_S) component rows, and the stage scale factors of each
    block of ``_BLOCK_STEPS`` steps come from one vectorised
    ``profile.scale_factor`` call.  Samples are written into preallocated
    arrays on the grid of :func:`step_grid`.  Every elementwise operation
    and the fixed-order condensate sums are the same on every run, so
    runs are bit-reproducible.

    Raises :class:`StepSizeError` if the purity defect of any sample
    exceeds ``purity_tol`` or is not finite.
    """
    h, steps, etas = step_grid(eta_span, deta, sample_every)
    eta0, eta1 = etas[0], float(eta_span[1])
    half, sixth = 0.5 * h, h / 6.0
    spec = initial.spec
    field = _BlockField(spec)

    n = initial.bloch.T.copy()
    k1, k2, k3, k4 = np.empty((4,) + n.shape)
    a_vals = np.empty(etas.size)
    bloch = np.empty((etas.size,) + initial.bloch.shape)
    a_vals[0], bloch[0] = profile.scale_factor(eta0), initial.bloch
    t, sampled = 1, steps.tolist()
    # steps after the last sampled one would never be seen
    n_steps = sampled[-1]
    for start in range(0, n_steps, _BLOCK_STEPS):
        stop = min(start + _BLOCK_STEPS, n_steps)
        m = stop - start
        # e[j] = eta0 + (start + j)*h starts step start + j; e[m] ends the block
        e = eta0 + np.arange(start, stop + 1) * h
        # the last step's times can round past eta1, out of a profile's domain
        a = profile.scale_factor(
            np.minimum(np.concatenate([e, e[:-1] + half, e[:-1] + h]), eta1))
        ma = (spec.mass * a).tolist()
        ma_start, ma_mid, ma_end = ma[:m], ma[m + 1 : 2 * m + 1], ma[2 * m + 1 :]
        for j in range(m):
            field.load(n)
            field.rate(ma_start[j], k1)
            field.stage(n, half, k1)
            field.rate(ma_mid[j], k2)
            field.stage(n, half, k2)
            field.rate(ma_mid[j], k3)
            field.stage(n, h, k3)
            field.rate(ma_end[j], k4)
            # n + (h/6) * (((k1 + 2 k2) + 2 k3) + k4), in that order
            np.multiply(k2, 2.0, out=k2)
            np.add(k1, k2, out=k1)
            np.multiply(k3, 2.0, out=k3)
            np.add(k1, k3, out=k1)
            np.add(k1, k4, out=k1)
            np.multiply(k1, sixth, out=k1)
            np.add(n, k1, out=n)
            if start + j + 1 == sampled[t]:
                a_vals[t], bloch[t] = a[j + 1], n.T
                _purity_gate(etas[t:t + 1], bloch[t:t + 1], purity_tol,
                             f"reduce deta (currently {h:.3e})")
                t += 1
    return Trajectory(etas, a_vals, bloch, *_condensate_sums(bloch, spec), spec, profile,
                      nfev=4 * n_steps)


def evolve_free(
    initial: CorrelationState,
    profile,
    etas,
) -> Trajectory:
    """Exact samples of a free run on a static or sudden-quench background.

    With g = 0 there are no condensates, and while a(eta) is constant
    the field b_k = (-sin(ka)/a, 0, m a(eta) + (1 - cos ka)/a) is fixed,
    so d n_k/d eta = 2 b_k x n_k rotates n_k rigidly about b_k/|b_k| by
    the angle 2|b_k|(eta - eta_0) (Rodrigues' formula), for all samples
    and momenta at once.  ``initial`` is the state at ``etas[0]``.  A
    :class:`QuenchProfile` whose ``eta_switch`` lies after ``etas[0]``
    gets one rotation under a_0 up to the switch and one under a_f from
    the rotated state on.  Every sample is rotated from the initial or
    the switch state, so no error accumulates.

    Raises :class:`StepSizeError` if the purity defect of any sample
    exceeds 1e-6 or is not finite, and ``ValueError`` for a coupled
    lattice or another profile.
    """
    spec = initial.spec
    if spec.coupling != 0.0:
        raise ValueError("evolve_free needs a free lattice (coupling 0)")
    if not isinstance(profile, (StaticProfile, QuenchProfile)):
        raise ValueError("evolve_free needs a static or quench profile")
    etas = np.asarray(etas, dtype=float)
    eta0 = etas[0]
    # (start, a) of each stretch of constant a over the samples
    pieces = [(eta0, float(profile.scale_factor(eta0)))]
    if isinstance(profile, QuenchProfile) and eta0 < profile.eta_switch:
        pieces = [(eta0, float(profile.a_0)), (profile.eta_switch, float(profile.a_f))]
    ks = spec.momentum_grid()
    bloch = np.empty((etas.size,) + initial.bloch.shape)
    n = initial.bloch
    for i, (start, a) in enumerate(pieces):
        end = pieces[i + 1][0] if i + 1 < len(pieces) else np.inf
        rows = (etas >= start) & (etas < end)
        b = bloch_vector(ks, spec.mass * a, 0.0, 0.0, spec.spacing)
        bloch[rows] = _rotate(n, b, etas[rows] - start)
        if i + 1 < len(pieces):
            n = _rotate(n, b, [end - start])[0]
    _purity_gate(etas, bloch, 1e-6, "check the initial state")
    a_vals = np.asarray(profile.scale_factor(etas), dtype=float)
    return Trajectory(etas, a_vals, bloch, *_condensate_sums(bloch, spec), spec, profile)


def _rotate(n, b, durations):
    """(T, N_S, 3) Bloch vectors n rotated for ``durations`` about fields b.

    n(t) = n cos(w t) + (b^ x n) sin(w t) + b^ (b^ . n)(1 - cos(w t))
    with w = 2|b|, exactly n at t = 0; a mode with b = 0 stays put.
    """
    eps = np.linalg.norm(b, axis=-1)
    unit = np.divide(b, eps[:, None], out=np.zeros_like(b), where=eps[:, None] > 0)
    angle = 2.0 * np.asarray(durations, dtype=float)[:, None] * eps
    cos, sin = np.cos(angle)[..., None], np.sin(angle)[..., None]
    axial = unit * np.sum(unit * n, axis=-1, keepdims=True)
    return n * cos + np.cross(unit, n) * sin + axial * (1.0 - cos)


def evolve_adaptive(
    initial: CorrelationState,
    profile,
    eta_span,
    sample_etas,
    rtol: float = 1e-10,
    purity_tol: float = 1e-6,
) -> Trajectory:
    """Adaptive-step integration of the self-consistent block equations.

    Same dynamics and field kernel as :func:`evolve`, delegated to
    scipy's DOP853 with tight tolerances.  Essential for de Sitter
    profiles, where the effective mass m a(eta) = -m/(H eta) diverges
    towards eta -> 0^- and a fixed step either wastes the early window or
    blows up at the end; the step-size controller tracks the local
    frequency, so the cost is logarithmic in the final scale factor.
    The integrator's state vector keeps the (N_S, 3) order, so its error
    norm and step control see the same numbers.

    The trajectory holds the states at ``sample_etas`` (ascending, within
    ``eta_span``; see :func:`sample_grid` and :func:`step_grid`).  The
    absolute tolerance is fixed at 1e-12; ``rtol`` sets the accuracy.
    """
    from scipy.integrate import solve_ivp

    eta0, eta1 = _check_span(eta_span)
    spec = initial.spec
    field = _BlockField(spec)
    out = np.empty((3, spec.num_sites))

    sample_etas = np.asarray(sample_etas, dtype=float)
    if sample_etas[0] < eta0 - 1e-12 or sample_etas[-1] > eta1 + 1e-12:
        raise ValueError("sample_etas must lie within eta_span")

    def rhs(eta, y):
        field.load(y.reshape(-1, 3).T)
        field.rate(spec.mass * float(profile.scale_factor(eta)), out)
        return out.T.ravel()

    sol = solve_ivp(
        rhs,
        (eta0, eta1),
        initial.bloch.ravel().copy(),
        method="DOP853",
        t_eval=sample_etas,
        rtol=rtol,
        atol=1e-12,
        dense_output=False,
    )
    if not sol.success:
        raise StepSizeError(f"adaptive integration failed: {sol.message}")
    # C order, so that the stacked condensate sums equal the per-state ones
    bloch = np.ascontiguousarray(sol.y.T).reshape(len(sol.t), spec.num_sites, 3)
    _purity_gate(sol.t, bloch, purity_tol, "tighten rtol")
    a_vals = np.asarray(profile.scale_factor(sol.t), dtype=float)
    return Trajectory(sol.t, a_vals, bloch, *_condensate_sums(bloch, spec), spec, profile,
                      nfev=int(sol.nfev))


# ---------------------------------------------------------------------------
# Real-space reconstruction
# ---------------------------------------------------------------------------


def real_space_correlation(state: CorrelationState, block=None) -> np.ndarray:
    """Real-space correlation matrix, site-major spinor ordering.

    Gamma_{(i,alpha),(j,beta)} = (1/N_S) sum_k exp(i k (x_i - x_j))
    (Gamma_k)_{alpha beta}, evaluated with an FFT over the block array and
    indexed by the separation (i - j) mod N_S.  Row index is 2*i + alpha
    with alpha in {u, d} = {0, 1}, counted from the first site kept.

    With ``block=None`` the dense 2N_S x 2N_S matrix of the whole chain
    is built.  Given a block (anything with ``start`` and ``length``,
    such as :class:`~cosmodirac.entanglement.BlockSpec`), only its
    2L x 2L restriction is built; its entries are bit-identical to the
    block's rows and columns of the dense matrix.
    """
    ns = state.spec.num_sites
    blocks = state.blocks  # (N, 2, 2), ordered along the momentum grid
    # k_n = -pi/a + 2 pi n/(N a):  exp(i k_n d a) = (-1)^d exp(2 pi i n d / N)
    g = np.fft.ifft(blocks, axis=0)  # (N, 2, 2) indexed by separation d
    g *= ((-1.0) ** np.arange(ns))[:, None, None]
    if block is None:
        sites = np.arange(ns)
    else:
        sites = np.arange(block.start, block.start + block.length)
    d = (sites[:, None] - sites[None, :]) % ns
    out = g[d].transpose(0, 2, 1, 3).reshape(2 * sites.size, 2 * sites.size)
    return 0.5 * (out + out.conj().T)
