"""Adaptive one-dimensional integrators.

The package does not call `adaptive_simpson`: the tests integrate
1/(L rho^2) with it as the oracle of the closed-form `observables.phase`.
`solve_rk45` is a Dormand-Prince 5(4) embedded pair with PI-free standard
step control, started at the first output time; output times are honored
by capping the step at the next requested sample, so no interpolation
error enters the reported trajectory.  Its state is exactly two floats,
(x, x'), the shape of every system the package integrates.  Each stage
input and the error estimate add (h a_ij) k_j over the tableau's nonzero
entries in j order, as a vector axpy does, so the result is bit-identical
to the array solver it replaced.  Every step makes seven rhs calls; the
seventh stage is not reused as the next step's first (no
first-same-as-last), so that rhs calls // 7 counts the steps.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from .errors import ConvergenceError, DomainError, StepSizeUnderflowError

# Dormand-Prince 5(4) tableau
_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)
_B5 = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0, 0.0)
# the last stage is evaluated at the fifth-order solution y5
_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    _B5[:6],
)
# b5 - b4: weights of the embedded error estimate
_E = (71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0,
      -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)
# the steps walk these: each stage after the first as its c_i and nonzero
# (j, a_ij), and the error estimate's nonzero (j, e_j)
_STAGES = tuple((c, tuple((j, a) for j, a in enumerate(row) if a != 0.0))
                for c, row in zip(_C[1:], _A[1:]))
_ERROR = tuple((j, e) for j, e in enumerate(_E) if e != 0.0)

# per-component error tolerance of solve_rk45: atol + rtol |y|
_RTOL = 1e-10
_ATOL = 1e-10
_SAFETY = 0.9
_MIN_SCALE = 0.2
_MAX_SCALE = 5.0
# adaptive_simpson: tolerance of the whole-interval panel test (halved at
# each bisection) and the bisection depth limit
_SIMPSON_TOL = 1e-10
_SIMPSON_MAX_DEPTH = 50


def solve_rk45(rhs: Callable[[float, tuple[float, float]], tuple[float, float]],
               y0: Sequence[float],
               t_eval: Sequence[float],
               post_step: Callable[[float, tuple[float, float]], None] | None = None,
               ) -> list[tuple[float, float]]:
    """Integrate y' = rhs(t, y) from y0 at t_eval[0]; return the states at t_eval.

    A state is a pair of floats (x, x'): rhs(t, y) takes and returns one,
    and the result is a list with one state per entry of t_eval.  t_eval
    must be non-empty, finite and strictly ascending, and y0 two finite
    values; a bad value raises DomainError (a ValueError) naming it before
    rhs is first called.  The stage sums run over the Dormand-Prince
    tableau's nonzero entries, in order.  Every step calls rhs seven
    times.  There is deliberately no first-same-as-last reuse of the
    seventh stage: `bench/tracing.py` counts steps as rhs calls // 7.
    post_step, if given, is called after every accepted step (guards may
    raise from it).
    Raises StepSizeUnderflowError if error control collapses the step.
    """
    t_eval = [float(v) for v in t_eval]
    y0 = tuple(float(v) for v in y0)
    for name, values in (("t_eval", t_eval), ("y0", y0)):
        for i, v in enumerate(values):
            if not math.isfinite(v):
                raise DomainError(f"{name}[{i}] must be finite, got {v!r}")
    if len(y0) != 2:
        raise DomainError(f"y0 must hold two values (x, x'), got {len(y0)}")
    if len(t_eval) == 0:
        raise DomainError("t_eval must be a non-empty 1-d sequence")
    if any(b <= a for a, b in zip(t_eval, t_eval[1:])):
        raise DomainError("t_eval must be strictly ascending")

    out = [y0]
    t = t_eval[0]
    x, v = y0
    next_idx = 1
    h = min(1e-2, (t_eval[-1] - t) / 10.0)

    while next_idx < len(t_eval):
        lands_on_sample = False
        target = t_eval[next_idx]
        if t + h >= target:
            h = target - t
            lands_on_sample = True
        if h < 1e-13 * max(1.0, abs(t)):
            raise StepSizeUnderflowError(t)

        # each stage input adds (h * a_ij) * k_j in j order, the operations
        # of a vector axpy in its order; the last input, kept, is y5
        k = [rhs(t, (x, v))]
        for c, row in _STAGES:
            x5, v5 = x, v
            for j, a in row:
                p = h * a
                kx, kv = k[j]
                x5 += p * kx
                v5 += p * kv
            k.append(rhs(t + c * h, (x5, v5)))
        ex = ev = 0.0
        for j, e in _ERROR:
            p = h * e
            kx, kv = k[j]
            ex += p * kx
            ev += p * kv

        # RMS of err / (atol + rtol max(|y5|, |y|)); the max keeps |y5|
        # unless |y| exceeds it, so that a NaN in y5 rejects the step
        m, n = abs(x5), abs(x)
        rx = ex / (_ATOL + _RTOL * (n if n > m else m))
        m, n = abs(v5), abs(v)
        rv = ev / (_ATOL + _RTOL * (n if n > m else m))
        err_norm = math.sqrt((rx * rx + rv * rv) / 2)

        if err_norm <= 1.0:
            t_new = target if lands_on_sample else t + h
            t, x, v = t_new, x5, v5
            if post_step is not None:
                post_step(t, (x, v))
            if lands_on_sample:
                out.append((x, v))
                next_idx += 1
            factor = _MAX_SCALE if err_norm == 0.0 else min(
                _MAX_SCALE, max(_MIN_SCALE, _SAFETY * err_norm ** -0.2))
            h = h * factor
        else:
            h = h * max(_MIN_SCALE, _SAFETY * err_norm ** -0.2)
    return out


def adaptive_simpson(f: Callable[[float], float],
                     a: float,
                     b: float) -> float:
    """Adaptive Simpson quadrature of f over [a, b]."""
    if a == b:
        return 0.0
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_rec(f, a, b, fa, fm, fb, whole, _SIMPSON_TOL, _SIMPSON_MAX_DEPTH)


def _simpson_rec(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol * max(1.0, abs(left + right)):
        return left + right + delta / 15.0
    if depth <= 0:
        raise ConvergenceError(f"adaptive_simpson failed to converge on [{a}, {b}]")
    return (_simpson_rec(f, a, m, fa, flm, fm, left, tol / 2.0, depth - 1)
            + _simpson_rec(f, m, b, fm, frm, fb, right, tol / 2.0, depth - 1))
