"""The Dormand-Prince 8(5,3) Runge-Kutta method with its 7th-order dense output.

:func:`solve` integrates dy/dt = f(t, y) forward over a span and returns
the solution at given sample times.  It is a numpy port of
``scipy.integrate.solve_ivp(method="DOP853")`` (scipy 1.17) for the case
the evolution needs, operation for operation, so the samples and the
evaluation count agree with it to the bit:

- the initial step of Hairer, Norsett & Wanner, Sec. II.4
  (:func:`_initial_step`);
- the error estimate that blends the 5th- and 3rd-order embedded
  solutions (:func:`_error_norm`);
- the step control: ``SAFETY`` times error**(-1/8), clipped to
  [``MIN_FACTOR``, ``MAX_FACTOR``], and no growth right after a rejection;
- the 7th-order dense output for the samples a step covers, which costs
  3 extra evaluations for each such step.

Each stage's increment and state go to two arrays allocated once per
solve, and each stage's row of the tableau and node are taken once at
import (:func:`_evaluate_stage`); the operations and their order are
scipy's, so the reuse changes no bit.

The tableau is that of Hairer's ``dop853.f``; see E. Hairer, S. P. Norsett
and G. Wanner, *Solving Ordinary Differential Equations I: Nonstiff
Problems*, ch. II.  The decimals are the ones scipy ships, so they parse
to the same floats.
"""

from __future__ import annotations

import numpy as np

EPS = np.finfo(float).eps
# The smallest relative tolerance the error control can honour.
MIN_RTOL = 100 * EPS

SAFETY = 0.9  # multiplies the step that the error's asymptotics suggest
MIN_FACTOR = 0.2  # the most a step may shrink at once
MAX_FACTOR = 10  # the most a step may grow at once
ERROR_EXPONENT = -1 / 8  # -1 / (error estimator order 7 + 1)

N_STAGES = 12  # stages of one step; stage 12 evaluates the new solution
N_STAGES_EXTENDED = 16  # with the three stages of the dense output

C = np.array([0.0,
              0.526001519587677318785587544488e-01,
              0.789002279381515978178381316732e-01,
              0.118350341907227396726757197510,
              0.281649658092772603273242802490,
              0.333333333333333333333333333333,
              0.25,
              0.307692307692307692307692307692,
              0.651282051282051282051282051282,
              0.6,
              0.857142857142857142857142857142,
              1.0,
              1.0,
              0.1,
              0.2,
              0.777777777777777777777777777778])

A = np.zeros((N_STAGES_EXTENDED, N_STAGES_EXTENDED))
A[1, [0]] = [5.26001519587677318785587544488e-2]
A[2, [0, 1]] = [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]
A[3, [0, 2]] = [2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2]
A[4, [0, 2, 3]] = [
    2.41365134159266685502369798665e-1, -8.84549479328286085344864962717e-1,
    9.24834003261792003115737966543e-1
]
A[5, [0, 3, 4]] = [
    3.7037037037037037037037037037e-2, 1.70828608729473871279604482173e-1,
    1.25467687566822425016691814123e-1
]
A[6, [0, 3, 4, 5]] = [
    3.7109375e-2, 1.70252211019544039314978060272e-1,
    6.02165389804559606850219397283e-2, -1.7578125e-2
]
A[7, [0, 3, 4, 5, 6]] = [
    3.70920001185047927108779319836e-2, 1.70383925712239993810214054705e-1,
    1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
    8.27378916381402288758473766002e-3
]
A[8, [0, 3, 4, 5, 6, 7]] = [
    6.24110958716075717114429577812e-1, -3.36089262944694129406857109825,
    -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
    2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1
]
A[9, [0, 3, 4, 5, 6, 7, 8]] = [
    4.77662536438264365890433908527e-1, -2.48811461997166764192642586468,
    -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
    1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
    -2.03312017085086261358222928593e-2
]
A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = [
    -9.3714243008598732571704021658e-1, 5.18637242884406370830023853209,
    1.09143734899672957818500254654, -8.14978701074692612513997267357,
    -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
    2.49360555267965238987089396762, -3.0467644718982195003823669022
]
A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = [
    2.27331014751653820792359768449, -1.05344954667372501984066689879e1,
    -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
    2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
    -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
    6.43392746015763530355970484046e-1
]
A[12, [0, 5, 6, 7, 8, 9, 10, 11]] = [
    5.42937341165687622380535766363e-2, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2
]
A[13, [0, 6, 7, 8, 9, 10, 11, 12]] = [
    5.61675022830479523392909219681e-2, 2.53500210216624811088794765333e-1,
    -2.46239037470802489917441475441e-1, -1.24191423263816360469010140626e-1,
    1.5329179827876569731206322685e-1, 8.20105229563468988491666602057e-3,
    7.56789766054569976138603589584e-3, -8.298e-3
]
A[14, [0, 5, 6, 7, 10, 11, 12, 13]] = [
    3.18346481635021405060768473261e-2, 2.83009096723667755288322961402e-2,
    5.35419883074385676223797384372e-2, -5.49237485713909884646569340306e-2,
    -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
    -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1
]
A[15, [0, 5, 6, 7, 8, 12, 13, 14]] = [
    -4.28896301583791923408573538692e-1, -4.69762141536116384314449447206,
    7.68342119606259904184240953878, 4.06898981839711007970213554331,
    3.56727187455281109270669543021e-1, -1.39902416515901462129418009734e-3,
    2.9475147891527723389556272149, -9.15095847217987001081870187138
]

B = A[N_STAGES, :N_STAGES]

# What each stage reads, taken once: its row A[s, :s] and its node C[s] as a
# Python float, which multiplies a float to the same double as C[s] does.
_A_ROWS = [A[s, :s].copy() for s in range(N_STAGES_EXTENDED)]
_NODES = C.tolist()

# Error estimators over the 13 stages: B minus the 3rd-order weights, and the
# 5th-order one.
E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1
]

# Rows 3-6 of the dense-output coefficients; rows 0-2 follow from the step.
D = np.zeros((4, N_STAGES_EXTENDED))
D[0, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = [
    -0.84289382761090128651353491142e+1, 0.56671495351937776962531783590,
    -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
    0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
    0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
    -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
    -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1
]
D[1, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = [
    0.10427508642579134603413151009e+2, 0.24228349177525818288430175319e+3,
    0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
    -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
    -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
    0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
    -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2
]
D[2, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = [
    0.19985053242002433820987653617e+2, -0.38703730874935176555105901742e+3,
    -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
    -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
    -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
    -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
    0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2
]
D[3, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = [
    -0.25693933462703749003312586129e+2, -0.15418974869023643374053993627e+3,
    -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
    0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
    0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
    -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
    -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3
]


class SolverError(RuntimeError):
    """A step's error estimate is not finite, or the step size underflowed."""


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, f0, t_bound, rtol, atol, buf):
    """First step size (Hairer, Norsett & Wanner, Sec. II.4).

    h0 moves y0 by 1% of its norm in the error weights along f0; h1 makes
    h1**8 max(|f0|, |f'|) = 0.01, with |f'| estimated from one evaluation
    at t0 + h0 (into ``buf``); the step is min(100 h0, h1, the span).
    """
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    fun(t0 + h0, y0 + h0 * f0, buf)
    d2 = _rms((buf - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length)


def _evaluate_stage(fun, t, y, h, K, s, dy, stage):
    """Evaluate stage s of the step of size h from (t, y) into K[s].

    Its increment h sum_j A[s, j] K[j] goes to ``dy`` and its state y + dy
    to ``stage``, two arrays of y's shape that every stage reuses.
    """
    np.dot(K[:s].T, _A_ROWS[s], out=dy)
    dy *= h
    np.add(y, dy, out=stage)
    fun(t + _NODES[s] * h, stage, K[s])


def _rk_step(fun, t, y, h, K, dy, stage):
    """One step of size h from (t, y), with K[0] = f(t, y) on entry.

    Fills stages 1-11 (through the reused arrays ``dy`` and ``stage``, see
    :func:`_evaluate_stage`) and, in K[12], the derivative at the new
    solution, which it returns.
    """
    for s in range(1, N_STAGES):
        _evaluate_stage(fun, t, y, h, K, s, dy, stage)
    y_new = y + h * np.dot(K[:N_STAGES].T, B)
    fun(t + h, y_new, K[N_STAGES])
    return y_new


def _error_norm(K, h, scale):
    """The step's error in the weights ``scale``: the 5th-order estimate,
    damped where the 3rd-order one is larger (Hairer's ``dop853.f``)."""
    err5 = np.dot(K.T, E5) / scale
    err3 = np.dot(K.T, E3) / scale
    err5_norm_2 = np.linalg.norm(err5)**2
    err3_norm_2 = np.linalg.norm(err3)**2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def _dense_coefficients(fun, t_old, h, y_old, y, K, dy, stage):
    """The seven rows F of the 7th-order interpolant on [t_old, t_old + h].

    Evaluates the three extra stages into K[13:16], through the reused
    arrays ``dy`` and ``stage`` (see :func:`_evaluate_stage`); K[0] and
    K[12] hold the derivatives at both ends of the step.
    """
    for s in range(N_STAGES + 1, N_STAGES_EXTENDED):
        _evaluate_stage(fun, t_old, y_old, h, K, s, dy, stage)
    F = np.empty((7, y.size))
    f_old = K[0]
    delta_y = y - y_old
    F[0] = delta_y
    F[1] = h * f_old - delta_y
    F[2] = 2 * delta_y - h * (K[N_STAGES] + f_old)
    F[3:] = h * np.dot(D, K)
    return F


def _interpolate(F, t_old, h, y_old, t):
    """The interpolant at the times t, as (len(t), n)."""
    x = ((t - t_old) / h)[:, None]
    y = np.zeros((len(x), len(y_old)))
    for i, f in enumerate(reversed(F)):
        y += f
        if i % 2 == 0:
            y *= x
        else:
            y *= 1 - x
    y += y_old
    return y


def solve(fun, t_span, y0, t_eval, rtol, atol, check):
    """Integrate dy/dt = f(t, y) from ``y0`` over ``t_span`` = (t0, t1), t1 > t0.

    ``fun(t, y, out)`` writes f(t, y) into the array ``out`` of y's shape
    (n,); it must not keep ``y``, which for most evaluations is the one
    stage array that every stage of the solve overwrites.  ``t_eval``
    holds the sample times, increasing and within the span.  ``rtol`` (at
    least :data:`MIN_RTOL`) and ``atol`` weigh each component's error by
    atol + rtol |y|.  ``check(t, y)`` is called on the solution at the end
    of each accepted step, before the samples the step covers; it stops
    the solve by raising.

    Returns ``(ys, nfev)``: the samples (len(t_eval), n) and the number of
    evaluations of ``fun``.  Raises :class:`SolverError` when a step's
    error estimate is not finite or the step size underflows.
    """
    if rtol < MIN_RTOL:
        raise ValueError(f"rtol must be at least {MIN_RTOL:.3g}")
    t, t_bound = map(float, t_span)
    y = np.asarray(y0, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError("every component of the initial state must be finite")
    t_eval = np.asarray(t_eval, dtype=float)
    ys = np.empty((t_eval.size, y.size))
    n_sampled = 0

    K = np.empty((N_STAGES_EXTENDED, y.size))
    dy, stage = np.empty(y.size), np.empty(y.size)  # reused by every stage
    fun(t, y, K[0])
    h_abs = _initial_step(fun, t, y, K[0], t_bound, rtol, atol, K[1])
    nfev = 2
    while t < t_bound:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise SolverError("Required step size is less than spacing between numbers.")
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            y_new = _rk_step(fun, t, y, h, K, dy, stage)
            nfev += N_STAGES
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norm(K[:N_STAGES + 1], h, scale)
            # scipy would shrink the step until it underflows
            if not np.isfinite(error_norm):
                raise SolverError(f"the derivative is not finite on the step from t = {t:.6g}")
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True

        t_old, y_old, t, y = t, y, t_new, y_new
        check(t, y)
        # the samples in (t_old, t]
        stop = int(np.searchsorted(t_eval, t, side="right"))
        if stop > n_sampled:
            F = _dense_coefficients(fun, t_old, h, y_old, y, K, dy, stage)
            nfev += 3
            ys[n_sampled:stop] = _interpolate(F, t_old, h, y_old, t_eval[n_sampled:stop])
            n_sampled = stop
        K[0] = K[N_STAGES]
    return ys, nfev
