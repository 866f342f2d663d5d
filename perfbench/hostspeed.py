"""Host-speed probe: fixed kernels timed right before and after each measurement.

The machine this benchmark was written on runs the same code up to twice
as slowly for seconds to minutes at a time, with process CPU time moving
with wall time (README.md, "Noise").  The probe is the benchmark's own
code and never calls cosmodirac, so a change to the package cannot move
it.  It has three parts, one for each kind of work the workloads do:
numpy on small arrays in an RK4 loop (``rk4``), plain interpreted Python
(``py``) and a LAPACK eigendecomposition on the BLAS threads (``eigh``).
They are timed separately, so a record shows which kind of work the host
slowed.

A measurement bracketed by probes that took ``p`` seconds in all (the mean
of the probe before and the probe after) is multiplied by
``(R / p) ** ELASTICITY`` with ``R = sum(REFERENCE_S.values())``, about the
probe's time on an idle core of that 2-core x86_64 VM.  The workloads do
not slow down in full proportion to the probe: over 80 runs the slope of
log(workload time) on log(probe time) was 0.5 to 0.95 from run to run and
0.4 to 0.8 from repetition to repetition, depending on the workload.  Full
rescaling (exponent 1) then overcorrects, and on ``symmetry_sweep`` it
spread the runs more (IQR/median 24%) than it steadied them; the square
root kept every workload's spread at or below 12.5% on the same runs.

    python3 perfbench/hostspeed.py      # time the probe a few times
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = {"rk4": 0.014, "py": 0.005, "eigh": 0.012}
ELASTICITY = 0.5

_N = 128
_STATE = np.linspace(0.1, 1.0, 3 * _N).reshape(_N, 3)
_SIN = np.sin(np.linspace(0.0, 3.0, _N))
_COS = np.cos(np.linspace(0.0, 3.0, _N))
_SYM = np.random.default_rng(0).standard_normal((200, 200))
_SYM = _SYM + _SYM.T


def _rhs(n):
    sig = -0.01 * np.sum(n[:, 2])
    pi = 0.01 * np.sum(n[:, 1])
    bz = 0.5 + sig + _COS
    nx, ny, nz = n[:, 0], n[:, 1], n[:, 2]
    return np.stack([2.0 * (pi * nz - bz * ny), 2.0 * (bz * nx - _SIN * nz),
                     2.0 * (_SIN * ny - pi * nx)], axis=-1)


def _rk4():
    n, h = _STATE.copy(), 1e-3
    for _ in range(150):
        k1 = _rhs(n)
        k2 = _rhs(n + 0.5 * h * k1)
        k3 = _rhs(n + 0.5 * h * k2)
        k4 = _rhs(n + h * k3)
        n = n + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _py():
    s, d = 0, {}
    for i in range(40000):
        s += i ^ (i >> 3)
        d[i & 255] = s


def _eigh():
    for _ in range(3):
        np.linalg.eigh(_SYM)


KERNELS = {"rk4": _rk4, "py": _py, "eigh": _eigh}


def probe() -> dict:
    """Seconds each part of the probe takes now."""
    times = {}
    for name, kernel in KERNELS.items():
        start = time.perf_counter()
        kernel()
        times[name] = time.perf_counter() - start
    return times


def scaled(seconds: float, before: dict, after: dict) -> float:
    """``seconds`` rescaled towards the host speed at which the probe takes REFERENCE_S."""
    measured = 0.5 * (sum(before.values()) + sum(after.values()))
    return seconds * (sum(REFERENCE_S.values()) / measured) ** ELASTICITY


if __name__ == "__main__":
    probe()  # first call loads LAPACK and starts its threads
    for _ in range(10):
        print("  ".join(f"{k} {v * 1e3:5.1f} ms" for k, v in probe().items()))
