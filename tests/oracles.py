"""Independent oracles the tests compare against.

Each oracle deliberately avoids the production code path it checks:
trapezoid sums instead of Gauss-Legendre, mpmath instead of the
continued fractions and series, finite differences instead of analytic
derivatives.  The Fraction hypergeometric series are the exact sums
that the fixed-point pass behind `tdq.special_functions`'
`hyp1f1_special` and `hyp2f2_special` rounds, the Fraction Hermite Newton
step is the plain form of `tdq.verify`'s integer one, and
`solve_rk45_numpy` is the array form of the tuple Dormand-Prince solver;
the tests pin each pair to identical floats.
The printed Bell form of the disequilibrium is kept here, on the partial
Bell polynomial recurrence `bell_partial`, which the tests check against
partition enumeration.
`level_closed_form_per_root` and `level_quadrature_per_panel` are the
plain forms of `tdq.information`'s level constants, one series pair per
root and one Hermite evaluation per panel; the tests pin the shared-work
forms to the same floats.
`write_csv_chunked` is the `%`-template csv writer that the array writer
of `tdq.cli` replaced; the tests pin the two to identical bytes.
`cmd_rho`, `cmd_observables` and `cmd_info` are those commands as they were
when they built one snapshot and one tuple per row (with their helpers
`_one_block` and `_snapshots`), and `cmd_density` as it was when it
evaluated P one snapshot at a time, kept verbatim with the package's old
row walk `snapshots` (and its `pinney_rows`): the commands that evaluate
a level at a time must print the same bytes.
`worst` is the tests' own reduction of residuals, which keeps a NaN where
a running max(worst, r) drops it; it shares no code with `tdq.verify`'s.
`rho_by_properties`, `L_by_properties` and `omega_sq_by_properties` are the
rho path as it was when `SuperconductorParams` recomputed its derived
constants on every read and the modulus loops built their steps term by
term (`modulus_by_loops`, `steed_cf2_by_loop`), kept verbatim: the cached
constants and tabulated steps must reproduce their floats bit for bit.
`scalar_wavefunction` is `tdq.observables.wavefunction` as it was when it
took one charge of one scalar snapshot, with Python floats and `cmath`,
kept verbatim: psi on levels and charge arrays must have its bits.
"""

import cmath
import itertools
import math
import sys
from fractions import Fraction
from typing import Callable, Sequence

import mpmath as mp
import numpy as np

from tdq.cli import RunConfig, _fmt, _Table, _write_table
from tdq.dynamics import SuperconductorParams, rho_analytic
from tdq.errors import DomainError, StepSizeUnderflowError
from tdq.integrate import _A, _ATOL, _B5, _C, _E, _MAX_SCALE, _MIN_SCALE, _RTOL, _SAFETY
from tdq.information import _PANEL_NODES, _printed_isum_coefficient, measures
from tdq.observables import (
    QuantumSnapshot,
    density_values,
    energy_mean,
    moments,
    uncertainty_product,
)
from tdq import special_functions as sf
from tdq.special_functions import (
    EULER_GAMMA,
    gauss_legendre,
    hermite,
    hermite_function,
    hyp1f1_special,
    hyp2f2_special,
)


def worst(residuals) -> float:
    """The largest of the residuals and 0.0, or NaN if any residual is NaN."""
    values = [float(r) for r in residuals]
    if any(math.isnan(v) for v in values):
        return math.nan
    return max([0.0, *values])


def solve_rk45_numpy(rhs: Callable[[float, np.ndarray], np.ndarray],
                     t0: float,
                     y0: Sequence[float],
                     t_eval: Sequence[float],
                     post_step: Callable[[float, np.ndarray], None] | None = None,
                     ) -> np.ndarray:
    """The numpy-vector Dormand-Prince solver that `tdq.integrate.solve_rk45`
    replaced, kept verbatim: the tuple solver must reproduce its states bit
    for bit and make the same rhs calls.  rhs takes and returns arrays.

    t_eval must be ascending and start at t0.  post_step, if given, is
    called after every accepted step (guards may raise from it).
    Raises StepSizeUnderflowError if error control collapses the step.
    """
    t_eval = np.asarray(t_eval, dtype=float)
    if t_eval.ndim != 1 or len(t_eval) == 0:
        raise ValueError("t_eval must be a non-empty 1-d sequence")
    if np.any(np.diff(t_eval) <= 0.0):
        raise ValueError("t_eval must be strictly ascending")
    if t_eval[0] != t0:
        raise ValueError(f"t_eval must start at t0={t0!r}")

    y = np.asarray(y0, dtype=float).copy()
    out = np.empty((len(t_eval), len(y)))
    out[0] = y
    if len(t_eval) == 1:
        return out

    t = float(t0)
    t_end = float(t_eval[-1])
    next_idx = 1
    h = min(1e-2, (t_end - t0) / 10.0)
    k = [np.empty_like(y) for _ in range(7)]

    while next_idx < len(t_eval):
        lands_on_sample = False
        target = t_eval[next_idx]
        if t + h >= target:
            h = target - t
            lands_on_sample = True
        if h < 1e-13 * max(1.0, abs(t)):
            raise StepSizeUnderflowError(t)

        k[0] = rhs(t, y)
        for i in range(1, 7):
            yi = y.copy()
            for j, a in enumerate(_A[i]):
                if a != 0.0:
                    yi += h * a * k[j]
            k[i] = rhs(t + _C[i] * h, yi)

        y5 = y.copy()
        err = np.zeros_like(y)
        for i in range(7):
            if _B5[i] != 0.0:
                y5 += h * _B5[i] * k[i]
            if _E[i] != 0.0:
                err += h * _E[i] * k[i]

        scale_den = _ATOL + _RTOL * np.maximum(np.abs(y), np.abs(y5))
        err_norm = float(np.sqrt(np.mean((err / scale_den) ** 2)))

        if err_norm <= 1.0:
            t_new = target if lands_on_sample else t + h
            t, y = t_new, y5
            if post_step is not None:
                post_step(t, y)
            if lands_on_sample:
                out[next_idx] = y
                next_idx += 1
            factor = _MAX_SCALE if err_norm == 0.0 else min(
                _MAX_SCALE, max(_MIN_SCALE, _SAFETY * err_norm ** -0.2))
            h = h * factor
        else:
            h = h * max(_MIN_SCALE, _SAFETY * err_norm ** -0.2)
    return out


def hyp1f1_fraction_series(z: float | Fraction) -> float:
    """1F1(1; 1/2; z) summed in exact Fractions: t_{m+1} = t_m 2 z / (2m+1),
    stopped once |term| < 1e-30 |sum| or after 400 terms."""
    zq = Fraction(z)
    term = Fraction(1)
    total = Fraction(1)
    for m in range(400):
        term *= 2 * zq / (2 * m + 1)
        total += term
        if abs(term) < Fraction(1, 10 ** 30) * abs(total):
            break
    return float(total)


def hyp2f2_fraction_series(z: float | Fraction) -> float:
    """2F2(1, 1; 3/2, 2; z) summed in exact Fractions:
    t_{m+1} = t_m 2 z (m+1) / ((2m+3)(m+2)), same stop rule."""
    zq = Fraction(z)
    term = Fraction(1)
    total = Fraction(1)
    for m in range(400):
        term *= 2 * zq * (m + 1) / ((2 * m + 3) * (m + 2))
        total += term
        if abs(term) < Fraction(1, 10 ** 30) * abs(total):
            break
    return float(total)


def hermite_newton_step_fraction(n: int, r: float) -> float:
    """H_n(r) / H_n'(r) in exact Fractions from the integer coefficients,
    rounded once."""
    coefficients = hermite(n).coefficients
    x = Fraction(r)
    value = sum(c * x ** i for i, c in enumerate(coefficients))
    slope = sum(i * c * x ** (i - 1) for i, c in enumerate(coefficients) if i)
    return float(value / slope)


def dawson_trapezoid(x: float, points: int = 200001) -> float:
    """F(x) = integral_0^x e^{t^2 - x^2} dt by brute-force trapezoid."""
    t = np.linspace(0.0, x, points)
    return float(np.trapezoid(np.exp(t * t - x * x), t))


def hyp2f2_dawson_integral(x: float, points: int = 4001) -> float:
    """2F2(1,1;3/2,2;-x^2) = (2/x) integral_0^1 F(x v) dv, obtained by
    integrating the defining series term by term; the Dawson factor comes
    from an independent implementation."""
    from scipy.special import dawsn
    v = np.linspace(0.0, 1.0, points)
    return float(2.0 / x * np.trapezoid(dawsn(x * v), v))


def hypergeometric_mp(z: float, dps: int = 40) -> tuple[float, float]:
    """(1F1(1; 1/2; z), 2F2(1, 1; 3/2, 2; z)) from mpmath's own series."""
    with mp.workdps(dps):
        Z = mp.mpf(z)
        return float(mp.hyp1f1(1, 0.5, Z)), float(mp.hyp2f2(1, 1, 1.5, 2, Z))


def entropy_closed_form_mp(n: int, roots, dps: int = 40) -> float:
    """The printed closed-form entropy of level n at unit rho, summed at
    extended precision over the given (float) Hermite roots."""
    with mp.workdps(dps):
        ent = n * mp.euler + n + mp.mpf(1) / 2 + mp.log(
            mp.sqrt(mp.pi) * mp.factorial(n) * mp.mpf(2) ** n)
        coef = mp.fsum(mp.binomial(n, i) * (-2) ** i / mp.mpf(i)
                       for i in range(1, n + 1))
        for r in roots:
            z = -mp.mpf(r) ** 2
            ent += 2 * mp.hyp2f2(1, 1, 1.5, 2, z) * z + coef * mp.hyp1f1(1, 0.5, z)
        return float(ent)


def bessel_mp(kind: str, nu: float, x: float, dps: int = 40) -> float:
    with mp.workdps(dps):
        fn = mp.besselj if kind == "j" else mp.bessely
        return float(fn(mp.mpf(nu), mp.mpf(x)))


def _modulus_mp(nu, x):
    """(J^2 + Y^2, J J' + Y Y') as mpmath numbers, at the caller's precision."""
    j, y = mp.besselj(nu, x), mp.bessely(nu, x)
    jp, yp = mp.besselj(nu, x, 1), mp.bessely(nu, x, 1)
    return j * j + y * y, j * jp + y * yp


def bessel_modulus_mp(nu: float, x: float, dps: int = 40) -> tuple[float, float]:
    """(J^2 + Y^2, J J' + Y Y') at extended precision; the oscillating
    products cancel by orders of magnitude, so they are not formed in binary64."""
    with mp.workdps(dps):
        return tuple(float(v) for v in _modulus_mp(mp.mpf(nu), mp.mpf(x)))


def rho_mp(sigma0: float, t: float, dps: int = 40) -> tuple[float, float]:
    """(rho, rho') of the hyperbolic model in figure units
    (A = eps0 = c = lambdaL = 1, so the Bessel argument is t + 1), from
    mpmath's J, Y and their derivatives instead of the modulus series."""
    with mp.workdps(dps):
        s = mp.mpf(sigma0)
        beta, p, x = (1 + s) / 2, (1 - s) / 2, mp.mpf(t) + 1
        g, half_slope = _modulus_mp(beta, x)
        rho = mp.sqrt(mp.pi / 2) * x ** p * mp.sqrt(g)
        return float(rho), float(rho * (p / x + half_slope / g))


def phase_mp(sigma0: float, ts: Sequence[float], dps: int = 30) -> list[float]:
    """theta_0(t) of the hyperbolic model in figure units for ascending
    times ts: -(1/2) times the integral of 2/(pi x M^2), M^2 = J^2 + Y^2
    from mpmath, over x in [1, t + 1], by mpmath's Gauss-Legendre rule on
    the segments between consecutive times, accumulated."""
    with mp.workdps(dps):
        beta = (1 + mp.mpf(sigma0)) / 2

        def slope(x):
            return 2 / (mp.pi * x * (mp.besselj(beta, x) ** 2 + mp.bessely(beta, x) ** 2))

        edges = [mp.mpf(1)] + [mp.mpf(t) + 1 for t in ts]
        total, out = mp.mpf(0), []
        for a, b in zip(edges, edges[1:]):
            total += mp.quad(slope, [a, b], method="gauss-legendre")
            out.append(float(-total / 2))
        return out


def hermite_root_error_mp(n: int, r: float, dps: int = 40) -> float:
    """Newton step |H_n(r) / H_n'(r)| at extended precision, with mpmath's
    H_n and H_n' = 2n H_{n-1}: the forward error of r as a root of H_n."""
    with mp.workdps(dps):
        x = mp.mpf(r)
        return float(abs(mp.hermite(n, x) / (2 * n * mp.hermite(n - 1, x))))


def density_mp(n: int, q: float, scale: float, dps: int = 50):
    """P = h_n(q/scale)^2 / scale at extended precision, with mpmath's H_n,
    from the exact floats q and scale; an mpf, so that a P below the float
    range stays visible."""
    with mp.workdps(dps):
        xi = mp.mpf(q) / mp.mpf(scale)
        h = (mp.hermite(n, xi) * mp.exp(-xi * xi / 2)
             / mp.sqrt(2 ** n * mp.factorial(n) * mp.sqrt(mp.pi)))
        return h * h / mp.mpf(scale)


def trapezoid_moment(q: np.ndarray, p: np.ndarray, power: int) -> float:
    """integral q^power P(q) dq on a dense grid, trapezoid rule."""
    return float(np.trapezoid(p * q ** power, q))


def bell_partial(m: int, l: int, a):
    """Partial Bell polynomial B_{m,l}(a_1, ..., a_{m-l+1}).

    Uses the recurrence
        B_{m,l} = sum_{i=1}^{m-l+1} C(m-1, i-1) a_i B_{m-i,l-1},
        B_{0,0} = 1, B_{m,0} = 0 for m > 0,
    equivalent to the sum over partitions of m into l blocks.  Arithmetic
    is generic: float arguments give floats, int/Fraction arguments give
    exact results.
    """
    if not 1 <= l <= m:
        raise DomainError(f"bell_partial requires 1 <= l <= m, got m={m}, l={l}")
    if len(a) < m - l + 1:
        raise DomainError(
            f"bell_partial needs {m - l + 1} arguments for (m={m}, l={l}), got {len(a)}")
    zero = a[0] * 0
    table = [[zero] * (l + 1) for _ in range(m + 1)]
    table[0][0] = zero + 1
    for mm in range(1, m + 1):
        for ll in range(1, min(mm, l) + 1):
            acc = zero
            for i in range(1, mm - ll + 2):
                if i <= len(a):
                    acc = acc + math.comb(mm - 1, i - 1) * a[i - 1] * table[mm - i][ll - 1]
            table[mm][ll] = acc
    return table[m][l]


def bell_by_partition_enumeration(m: int, l: int, a: list[float]) -> float:
    """Direct sum over partitions of m into l blocks (the defining formula)."""
    total = 0.0
    n_args = m - l + 1

    def recurse(i: int, blocks_left: int, weight_left: int, js: list[int]):
        nonlocal total
        if i == n_args:
            if blocks_left == 0 and weight_left == 0:
                coeff = math.factorial(m)
                prod = 1.0
                for idx, j in enumerate(js, start=1):
                    coeff //= math.factorial(j)
                    prod *= (a[idx - 1] / math.factorial(idx)) ** j
                total += coeff * prod
            return
        for j in range(min(blocks_left, weight_left // (i + 1)) + 1):
            recurse(i + 1, blocks_left - j, weight_left - (i + 1) * j, js + [j])

    recurse(0, l, m, [])
    return total


def diseq_printed_bell_sum(n: int) -> Fraction:
    """D * rho * sqrt(hbar) * sqrt(2 pi) as the paper prints it, in exact
    integers: sum_j (2j)! 4! / (8^j j! (2j+4)!) B_{2j+4,4}(i! q_{i-1})
    / (2^n n!)^2 over the integer Hermite coefficients q_l."""
    q = hermite(n).coefficients

    def q_at(l: int) -> int:
        return q[l] if l <= n else 0

    total = Fraction(0)
    for j in range(2 * n + 1):
        args = [math.factorial(i) * q_at(i - 1) for i in range(1, 2 * j + 2)]
        bell = bell_partial(2 * j + 4, 4, args)
        total += Fraction(math.factorial(2 * j) * 24 * bell,
                          8 ** j * math.factorial(j) * math.factorial(2 * j + 4))
    return total / (2 ** n * math.factorial(n)) ** 2


def level_closed_form_per_root(n: int) -> tuple[float, float]:
    """(s_n, d_n) from the printed entropy, summing 1F1 and 2F2 once per
    root, and d_n from the printed Bell sum."""
    roots = hermite(n).roots
    entropy = (n * EULER_GAMMA + n + 0.5
               + math.log(math.sqrt(math.pi) * math.factorial(n) * 2.0 ** n))
    coef = float(_printed_isum_coefficient(n))
    for x in roots:
        entropy += coef * hyp1f1_special(-x * x) - 2.0 * hyp2f2_special(-x * x) * x * x
    return entropy, float(diseq_printed_bell_sum(n)) / math.sqrt(2.0 * math.pi)


def level_quadrature_per_panel(n: int) -> tuple[float, float]:
    """(s_n, d_n) by the sine-mapped panels, each panel mapped and its
    Hermite function evaluated on its own."""
    nodes, weights = gauss_legendre(_PANEL_NODES, 0.0, 1.0)
    angle = 2.0 * math.pi * nodes
    mapped = nodes - np.sin(angle) / (2.0 * math.pi)
    weights = weights * (1.0 - np.cos(angle))
    edge = math.sqrt(2.0 * n + 1.0) + 8.0
    edges = [-edge, *hermite(n).roots, edge]
    entropy = diseq = 0.0
    for a, b in zip(edges, edges[1:]):
        p = hermite_function(n, a + (b - a) * mapped) ** 2
        w = (b - a) * weights
        entropy -= float(w @ (p * np.log(p)))
        diseq += float(w @ (p * p))
    return entropy, diseq


# Reference (S, D) of the charge density at rho = hbar = 1, from 40-digit
# tanh-sinh integration with the integration path split at the density
# zeros (the -P ln P integrand is only C^1 there).
ENTROPY_DISEQ_X_UNITS = {
    0: (1.07236494292470009, 0.398942280401432678),
    1: (1.34272778838617826, 0.299206710301074508),
    2: (1.49860923325172784, 0.255572398382167809),
    3: (1.60971184130165311, 0.229080137574260171),
    4: (1.69655063068037526, 0.210598863720214309),
    5: (1.76806125323833305, 0.196664859816422814),
    6: (1.82896849027283872, 0.185622740023398006),
    7: (1.88208452090898122, 0.176563107420239995),
    8: (1.92922335310885995, 0.168937126570086829),
    9: (1.97162555496527060, 0.162390249334872949),
    10: (2.01017812546743775, 0.156681303151012524),
    11: (2.04553787958448284, 0.151639444108253882),
    12: (2.07820516128983646, 0.147139619072136805),
    13: (2.10857014317877305, 0.143087786468770573),
    14: (2.13694312581058266, 0.139411604547412991),
}


def legendre_node_errors_mp(n: int, node: float, weight: float,
                            dps: int = 40) -> tuple[float, float]:
    """(|node - r|, |weight / w - 1|) for the root r of P_n nearest `node` and
    its Gauss-Legendre weight w = 2 (1 - r^2) / (n P_{n-1}(r))^2, at dps digits.

    r is one Newton step on mpmath's P_n from the binary64 node; the step is
    quadratic, so from an error near 1e-16 it leaves one below 1e-25.
    """
    with mp.workdps(dps):
        x = mp.mpf(node)
        p, p_prev = mp.legendre(n, x), mp.legendre(n - 1, x)
        r = x - p * (x * x - 1) / (n * (x * p - p_prev))
        w = 2 * (1 - r * r) / (n * mp.legendre(n - 1, r)) ** 2
        return float(abs(x - r)), float(abs(mp.mpf(weight) / w - 1))


# Rows per `%` call of the csv writer.  One call per 2001-row `density`
# block makes temporary strings large enough that the allocator keeps their
# memory (the write adds 3.2 MiB to peak RSS); with 64-row chunks it adds
# 0.7 MiB, at the same speed.
_CHUNK_ROWS = 64


def write_csv_chunked(handle, meta: str, columns: list[str], table: _Table) -> None:
    """The csv writer that `tdq.cli._write_csv` replaced, kept verbatim: the
    array writer must reproduce its bytes.  csv rows, one `%` call per chunk
    of at most `_CHUNK_ROWS` rows.

    Fields are `%d` for n and `%.17g` (the bytes of `_fmt`) otherwise.  A
    chunk's template holds as literal text the block's head and every
    column that is the same object as in the previous block; those texts
    are formatted once per run of blocks that share them, and only the
    other columns are `%` fields.
    """
    kinds = ["%d" if name == "n" else "%.17g" for name in columns]
    head_template = "".join(kind + "," for kind in kinds[:table.width])
    kinds = kinds[table.width:]
    handle.write(f"# {meta}\n{','.join(columns)}\n")
    previous, key, row_templates = (), None, []
    for head, block in table.blocks:
        rows = len(block[0])
        shared = tuple(c is p for c, p in itertools.zip_longest(block, previous))
        previous = block
        if (shared, rows) != key:
            key, row_templates = (shared, rows), None  # free the old ones first
            row_templates = list(map(",".join, zip(*(
                map(kind.__mod__, np.asarray(c).tolist()) if same
                else itertools.repeat(kind, rows)
                for kind, c, same in zip(kinds, block, shared)))))
        values = [np.asarray(c).tolist() for c, same in zip(block, shared) if not same]
        fields = list(itertools.chain.from_iterable(zip(*values)))
        prefix = head_template % head
        joiner = "\n" + prefix
        for start in range(0, rows, _CHUNK_ROWS):
            stop = start + _CHUNK_ROWS
            template = prefix + joiner.join(row_templates[start:stop]) + "\n"
            handle.write(template % tuple(fields[start * len(values):stop * len(values)]))


def _decay_exponent(params) -> float:
    return params.sigma0 / (params.A * params.eps0)


def _beta(params) -> float:
    return 0.5 * (1.0 + _decay_exponent(params))


def _k(params) -> float:
    return params.c / (params.lambdaL * params.A)


def _omega0_sq(params) -> float:
    return (params.c / params.lambdaL) ** 2


def L_by_properties(params, t: float) -> float:
    return (params.A * t + 1.0) ** _decay_exponent(params)


def omega_sq_by_properties(params, t: float) -> float:
    sigma_dot = -params.sigma0 * params.A / (params.A * t + 1.0) ** 2
    return _omega0_sq(params) + sigma_dot / params.eps0


def steed_cf2_by_loop(order: float, x: float) -> tuple[float, float]:
    xi = 1.0 / x
    a = 0.25 - order * order
    pq = complex(-0.5 * xi, 1.0)
    b = complex(2.0 * x, 2.0)
    c = b + 1j * a * xi / pq
    d = 1.0 / b
    pq *= c * d
    for i in range(2, sf._SERIES_MAX_TERMS):
        a += 2.0 * (i - 1)
        b += 2j
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        pq *= delta
        if abs(delta.real - 1.0) + abs(delta.imag) < sf._BESSEL_EPS:
            break
    else:
        raise AssertionError(f"CF2 did not converge at order {order!r}, x={x!r}")
    return pq.real, pq.imag


def modulus_by_loops(nu: float, x: float) -> tuple[float, float]:
    if x < sf._MODULUS_ASYMPTOTIC_X:
        if x < sf._TEMME_X_MAX or x < nu:
            j, y, jp, yp = sf._bessel_jy(nu, x)
            return j * j + y * y, j * jp + y * yp
        p, q = steed_cf2_by_loop(nu, x)
        m_sq = 2.0 / (math.pi * x * q)
        return m_sq, p * m_sq
    mu = 4.0 * nu * nu
    inv_4x2 = 0.25 / (x * x)
    term = total = 1.0
    half_slope = -0.5
    for k in range(1, sf._SERIES_MAX_TERMS):
        odd = 2.0 * k - 1.0
        nxt = term * (odd / (2.0 * k)) * (mu - odd * odd) * inv_4x2
        if abs(nxt) > abs(term):
            if abs(nxt) < sf._MODULUS_TRUNCATION_TOL * abs(total):
                break
            raise AssertionError(f"series diverges for nu={nu}, x={x}")
        term = nxt
        total += term
        half_slope -= (k + 0.5) * term
        if abs(term) < 1e-17 * abs(total):
            break
    else:
        raise AssertionError(f"series did not converge for nu={nu}, x={x}")
    scale = 2.0 / (math.pi * x)
    return scale * total, scale * half_slope / x


def rho_by_properties(params, t: float) -> tuple[float, float]:
    """(rho, rho') with every derived constant recomputed from the fields."""
    tau = params.A * t + 1.0
    beta, k = _beta(params), _k(params)
    u = k * tau
    m_sq, m_dm = modulus_by_loops(beta, u)
    p = 0.5 * (1.0 - _decay_exponent(params))
    rho = math.sqrt(math.pi / (2.0 * params.A)) * tau ** p * math.sqrt(m_sq)
    rho_dot = rho * (p * params.A / tau + _k(params) * params.A * m_dm / m_sq)
    return rho, rho_dot


def _one_block(rows: list[tuple]) -> _Table:
    """`rows` as a table of one block with an empty head."""
    table = _Table(width=0)
    table.add((), *zip(*rows))
    return table


def cmd_rho(config: RunConfig) -> int:
    """Columns (t, sigma0, rho, rho_dot, L, omega_sq) over the sweep."""
    rows = []
    grid = config.t_grid()
    for sigma0 in sorted(config.sigma0):
        params = config.params_for(sigma0)
        states = [rho_analytic(params, float(t)) for t in grid]
        for t, state in zip(grid, states):
            rows.append((float(t), sigma0, state.rho, state.rho_dot,
                         params.L(float(t)), params.omega_sq(float(t))))
    _write_table(config, ["t", "sigma0", "rho", "rho_dot", "L", "omega_sq"],
                 _one_block(rows))
    return 0


def pinney_rows(params: SuperconductorParams, ts) -> list[tuple[float, ...]]:
    """(t, rho, rho', L, omega^2) at each t in ts, from one `rho_analytic`
    call per t; they depend on t alone, so every n shares them."""
    return [(s.t, s.rho, s.rho_dot, params.L(s.t), params.omega_sq(s.t))
            for s in (rho_analytic(params, float(t)) for t in ts)]


def snapshots(params: SuperconductorParams, ns, ts):
    """Snapshots for every n in ns and t in ts, n-major (all of ts for the
    first n, then the next), sharing the `pinney_rows`."""
    rows = pinney_rows(params, ts)
    for n in ns:
        for row in rows:
            yield QuantumSnapshot(n, *row, params.hbar)


def _snapshots(config: RunConfig):
    """(sigma0, snapshot) in row order (sigma0, n, t)."""
    grid = config.t_grid()
    for sigma0 in sorted(config.sigma0):
        for snap in snapshots(config.params_for(sigma0), sorted(config.n), grid):
            yield sigma0, snap


def cmd_observables(config: RunConfig) -> int:
    """Second moments, uncertainty product, and mean energy per (t, sigma0, n)."""
    rows = []
    for sigma0, snap in _snapshots(config):
        _, _, q2, phi2 = moments(snap)
        energy = energy_mean(snap)
        rows.append((snap.t, sigma0, snap.n, q2, phi2, uncertainty_product(snap), energy,
                     energy / (snap.n + 0.5)))
    _write_table(config, ["t", "sigma0", "n", "q2", "phi2", "dq_dphi",
                          "energy", "energy_per_level"], _one_block(rows))
    return 0


def cmd_info(config: RunConfig) -> int:
    """Entropy, disequilibrium, and complexity; H, D, C from quadrature."""
    rows = []
    for sigma0, snap in _snapshots(config):
        closed = measures(snap, "closed_form")
        quad = measures(snap)
        rows.append((snap.t, sigma0, snap.n,
                     closed.entropy_S, quad.entropy_S, quad.H,
                     closed.disequilibrium_D, quad.disequilibrium_D,
                     quad.complexity_C))
    _write_table(config, ["t", "sigma0", "n", "S_closed", "S_quad", "H",
                          "D_closed", "D_quad", "C"], _one_block(rows))
    return 0


def cmd_density(config: RunConfig) -> int:
    """Probability density P(q) per (t, sigma0, n) over the charge grid.

    One block per (sigma0, n, t): its head is (t, sigma0, n), its columns
    the charge grid, shared by every block, and P on it.
    """
    table = _Table(width=3)
    q_grid, t_grid = config.q_grid(), config.t_grid()
    for sigma0 in sorted(config.sigma0):
        for snap in snapshots(config.params_for(sigma0), sorted(config.n), t_grid):
            p = density_values(snap, q_grid)
            with np.errstate(over="ignore"):  # an overflow is a norm of inf, and warned of
                norm = float(np.trapezoid(p, q_grid))
            if not abs(norm - 1.0) <= 1e-6:  # NaN included
                print(f"warning: density norm {norm:.9f} off unit at sigma0={_fmt(sigma0)}, "
                      f"n={snap.n}, t={_fmt(snap.t)}; widen --qmin/--qmax, or raise "
                      "--qpoints if the grid is too coarse", file=sys.stderr)
            table.add((snap.t, sigma0, snap.n), q_grid, p)
    _write_table(config, ["t", "sigma0", "n", "q", "P"], table)
    return 0


def scalar_wavefunction(snapshot: QuantumSnapshot, q: float, theta: float = 0.0) -> complex:
    """psi_n(q, t) including the supplied phase factor e^{i theta}.

    theta defaults to 0 because the snapshot carries no trajectory
    history; pass phase(...) for the full time-dependent solution.  The
    modulus is independent of theta and of the rho' term.  psi is 0 where
    the modulus is: xi is capped at 1e300 as in `density_values`, and a
    phase that may overflow there is not evaluated.
    """
    scale = snapshot.scale
    # h_n carries the real Gaussian factor e^{-q^2/(2 hbar rho^2)} and the
    # normalization; only the rho' chirp and the phase are left
    with np.errstate(over="ignore"):
        xi = float(np.clip(q / scale, -1e300, 1e300))
    h = float(hermite_function(snapshot.n, xi))
    if h == 0.0:
        return 0j
    chirp = snapshot.L * snapshot.rho_dot / (2.0 * snapshot.hbar * snapshot.rho)
    return h / math.sqrt(scale) * cmath.exp(1j * (chirp * q * q + theta))
