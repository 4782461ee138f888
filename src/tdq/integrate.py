"""Adaptive one-dimensional integrators.

The package does not call `adaptive_simpson`: the tests integrate
1/(L rho^2) with it as the oracle of the closed-form `observables.phase`.
`solve_rk45` is a Dormand-Prince 5(4) embedded pair with PI-free standard
step control, started at the first output time; output times are honored
by capping the step at the next requested sample, so no interpolation
error enters the reported trajectory.  Its state is exactly two floats,
(x, x'), the shape of every system the package integrates: the stages,
the fifth-order sum, the error estimate and its norm are written out in
scalars, with the operations and order of a vector axpy, so the result
is bit-identical to the array solver it replaced.  Every step makes seven
rhs calls; the seventh stage is not reused as the next step's first
(no first-same-as-last), so that rhs calls // 7 counts the steps.
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
    rhs is first called.  Every step calls rhs seven times.  There is
    deliberately no first-same-as-last reuse of the seventh stage:
    `bench/tracing.py` counts steps as rhs calls // 7.  post_step, if
    given, is called after every accepted step (guards may raise from it).
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

    # the zero entries a61 = b1, b6 and e1 are skipped below; c5 = c6 = 1
    (_, c1, c2, c3, c4, _, _) = _C
    (_, (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43),
     (a50, a51, a52, a53, a54), _) = _A
    (b0, _, b2, b3, b4, b5, _) = _B5
    (e0, _, e2, e3, e4, e5, e6) = _E
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

        # each component adds (h * coefficient) * k_j stage by stage and
        # skips the zero coefficients: the operations of a vector axpy, in
        # its order.  The seventh stage's input is y5 itself.
        kx0, kv0 = rhs(t, (x, v))
        p0 = h * a10
        kx1, kv1 = rhs(t + c1 * h, (x + p0 * kx0, v + p0 * kv0))
        p0, p1 = h * a20, h * a21
        kx2, kv2 = rhs(t + c2 * h, (x + p0 * kx0 + p1 * kx1,
                                    v + p0 * kv0 + p1 * kv1))
        p0, p1, p2 = h * a30, h * a31, h * a32
        kx3, kv3 = rhs(t + c3 * h, (x + p0 * kx0 + p1 * kx1 + p2 * kx2,
                                    v + p0 * kv0 + p1 * kv1 + p2 * kv2))
        p0, p1, p2, p3 = h * a40, h * a41, h * a42, h * a43
        kx4, kv4 = rhs(t + c4 * h, (x + p0 * kx0 + p1 * kx1 + p2 * kx2 + p3 * kx3,
                                    v + p0 * kv0 + p1 * kv1 + p2 * kv2 + p3 * kv3))
        p0, p1, p2, p3, p4 = h * a50, h * a51, h * a52, h * a53, h * a54
        kx5, kv5 = rhs(t + h, (x + p0 * kx0 + p1 * kx1 + p2 * kx2 + p3 * kx3 + p4 * kx4,
                               v + p0 * kv0 + p1 * kv1 + p2 * kv2 + p3 * kv3 + p4 * kv4))
        p0, p2, p3, p4, p5 = h * b0, h * b2, h * b3, h * b4, h * b5
        x5 = x + p0 * kx0 + p2 * kx2 + p3 * kx3 + p4 * kx4 + p5 * kx5
        v5 = v + p0 * kv0 + p2 * kv2 + p3 * kv3 + p4 * kv4 + p5 * kv5
        kx6, kv6 = rhs(t + h, (x5, v5))
        p0, p2, p3, p4, p5, p6 = h * e0, h * e2, h * e3, h * e4, h * e5, h * e6
        ex = p0 * kx0 + p2 * kx2 + p3 * kx3 + p4 * kx4 + p5 * kx5 + p6 * kx6
        ev = p0 * kv0 + p2 * kv2 + p3 * kv3 + p4 * kv4 + p5 * kv5 + p6 * kv6

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
