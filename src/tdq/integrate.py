"""Adaptive one-dimensional integrators.

The package does not call `adaptive_simpson`: the tests integrate
1/(L rho^2) with it as the oracle of the closed-form `observables.phase`.
`solve_rk45` is a Dormand-Prince 5(4) embedded pair with PI-free standard
step control, started at the first output time; output times are honored
by capping the step at the next requested sample, so no interpolation
error enters the reported trajectory.  Its states are tuples of floats and
every step makes seven rhs calls: the systems here have two components,
for which plain float arithmetic beats array overhead.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from .errors import ConvergenceError, StepSizeUnderflowError

# Dormand-Prince 5(4) tableau
_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)
_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)
_B5 = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0, 0.0)
# b5 - b4: weights of the embedded error estimate
_E = (71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0,
      -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)
# (index, coefficient) pairs of the nonzero entries, in stage order
_A_NONZERO = tuple(tuple((j, a) for j, a in enumerate(row) if a != 0.0) for row in _A)
_B5_NONZERO = tuple((i, b) for i, b in enumerate(_B5) if b != 0.0)
_E_NONZERO = tuple((i, e) for i, e in enumerate(_E) if e != 0.0)

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


def solve_rk45(rhs: Callable[[float, tuple[float, ...]], tuple[float, ...]],
               y0: Sequence[float],
               t_eval: Sequence[float],
               post_step: Callable[[float, tuple[float, ...]], None] | None = None,
               ) -> list[tuple[float, ...]]:
    """Integrate y' = rhs(t, y) from y0 at t_eval[0]; return the states at t_eval.

    States are tuples of floats: rhs(t, y) takes and returns one, and the
    result is a list with one state per entry of t_eval.  t_eval must be
    non-empty, finite and strictly ascending, and y0 finite; a bad value
    raises ValueError naming it before rhs is first called.  Every step
    calls rhs seven times (no first-same-as-last reuse).  post_step, if
    given, is called after every accepted step (guards may raise from it).
    Raises StepSizeUnderflowError if error control collapses the step.
    """
    t_eval = [float(v) for v in t_eval]
    y = tuple(float(v) for v in y0)
    for name, values in (("t_eval", t_eval), ("y0", y)):
        for i, v in enumerate(values):
            if not math.isfinite(v):
                raise ValueError(f"{name}[{i}] must be finite, got {v!r}")
    if len(t_eval) == 0:
        raise ValueError("t_eval must be a non-empty 1-d sequence")
    if any(b <= a for a, b in zip(t_eval, t_eval[1:])):
        raise ValueError("t_eval must be strictly ascending")

    out = [y]
    t = t_eval[0]
    next_idx = 1
    h = min(1e-2, (t_eval[-1] - t) / 10.0)
    k = [None] * 7

    while next_idx < len(t_eval):
        lands_on_sample = False
        target = t_eval[next_idx]
        if t + h >= target:
            h = target - t
            lands_on_sample = True
        if h < 1e-13 * max(1.0, abs(t)):
            raise StepSizeUnderflowError(t)

        # every sum adds (h * coefficient) * k_i stage by stage and skips
        # zero coefficients: the operations of a vector axpy, in its order
        k[0] = rhs(t, y)
        for i in range(1, 7):
            yi = y
            for j, a in _A_NONZERO[i]:
                ha = h * a
                yi = tuple([v + ha * kv for v, kv in zip(yi, k[j])])
            k[i] = rhs(t + _C[i] * h, yi)
        y5 = y
        for i, b in _B5_NONZERO:
            hb = h * b
            y5 = tuple([v + hb * kv for v, kv in zip(y5, k[i])])
        err = [0.0] * len(y)
        for i, e in _E_NONZERO:
            he = h * e
            err = [v + he * kv for v, kv in zip(err, k[i])]

        # RMS of err / (atol + rtol max(|y5|, |y|)), summed in component
        # order; y5 goes first so that a NaN in it rejects the step
        sq = 0.0
        for r, a, b in zip(err, y5, y):
            r = r / (_ATOL + _RTOL * max(abs(a), abs(b)))
            sq += r * r
        err_norm = math.sqrt(sq / len(y))

        if err_norm <= 1.0:
            t_new = target if lands_on_sample else t + h
            t, y = t_new, y5
            if post_step is not None:
                post_step(t, y)
            if lands_on_sample:
                out.append(y)
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
