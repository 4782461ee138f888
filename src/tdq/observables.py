"""Exact quantum states of the charge oscillator and their observables.

The normalized solutions are Gaussian-with-complex-width Hermite states

    psi_n(q,t) = e^{i theta_n} [pi^{1/2} hbar^{1/2} n! 2^n rho]^{-1/2}
                 exp[(i L / 2 hbar)(rho'/rho + i/(L rho^2)) q^2]
                 H_n(q / (hbar^{1/2} rho)),

so the probability density reduces to the real closed form

    P(q,t) = h_n(q / (hbar^{1/2} rho))^2 / (hbar^{1/2} rho),

with h_n the orthonormal Hermite function.  Second moments and the mean
energy are closed-form in (rho, rho', L, omega^2):

    <q^2>   = hbar rho^2 (n + 1/2)
    <Phi^2> = (hbar/rho^2)(1 + L^2 rho^2 rho'^2)(n + 1/2)
    dq dPhi = hbar sqrt(1 + L^2 rho^2 rho'^2)(n + 1/2)
    <E_n>   = [(1 + L^2 rho^2 rho'^2)/(2 L^2 rho^2)
               + omega^2 rho^2 / 2] (n + 1/2) hbar

A snapshot holds one time, or a level: one n over a time grid (`levels`),
which is how the package walks a (sigma0, n, t) grid.  Numpy's + - * /
and sqrt round correctly, so a level's observables and its rows of P and
psi, in the scalar order of operations, have the bits of its scalar
snapshots.  P and psi read h_n(q / scale) from one `_hermite_values`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import PinneyState, SuperconductorParams, rho_analytic
from .special_functions import (
    _bessel_jy,
    _check_quantum_number,
    _checked,
    _debye_phase,
    hermite_function,
)


@dataclass(frozen=True)
class QuantumSnapshot:
    """Everything a fixed-time observable needs: an integer n >= 0 plus
    (t, rho, rho', L, omega^2), floats or, in a level, float64 arrays."""

    n: int
    t: float | np.ndarray
    rho: float | np.ndarray
    rho_dot: float | np.ndarray
    L: float | np.ndarray
    omega_sq: float | np.ndarray
    hbar: float

    def __post_init__(self):
        _check_quantum_number(self.n)

    @property
    def scale(self) -> float | np.ndarray:
        """Density width sqrt(hbar) rho: P(q) = h_n(q / scale)^2 / scale."""
        return math.sqrt(self.hbar) * self.rho


def make_snapshot(params: SuperconductorParams,
                  state: PinneyState,
                  n: int) -> QuantumSnapshot:
    """Assemble a snapshot from params and a Pinney state computed for them."""
    return QuantumSnapshot(n=n, t=state.t, rho=state.rho, rho_dot=state.rho_dot,
                           L=params.L(state.t), omega_sq=params.omega_sq(state.t),
                           hbar=params.hbar)


def levels(params: SuperconductorParams, ns, ts) -> list[QuantumSnapshot]:
    """One level per n in ns over the times ts.  Their (t, rho, rho', L,
    omega^2) are float64 arrays from one `rho_analytic` call per t; they
    depend on t alone, so every n shares them."""
    rows = [(s.t, s.rho, s.rho_dot, params.L(s.t), params.omega_sq(s.t))
            for s in (rho_analytic(params, float(t)) for t in ts)]
    columns = tuple(np.array(rows, dtype=float).reshape(-1, 5).T.copy())
    return [QuantumSnapshot(n, *columns, params.hbar) for n in ns]


def _truncation_edge(n: int) -> float:
    """|xi| = sqrt(2n+1) + 8, beyond which h_n(xi)^2 < 1e-25."""
    return math.sqrt(2.0 * n + 1.0) + 8.0


def truncation_radius(snapshot: QuantumSnapshot) -> float | np.ndarray:
    """Half-width sqrt(hbar) rho (sqrt(2n+1) + 8) beyond which P < 1e-25."""
    return snapshot.scale * _truncation_edge(snapshot.n)


def phase(params: SuperconductorParams, n: int, t: float) -> float:
    """Phase theta_n(t) = -(n + 1/2) integral_0^t dt' / (L rho^2) for an
    integer n >= 0, in closed form: with tau = A t + 1, L rho^2 =
    (pi/(2A)) tau M_beta(k tau)^2, and the Wronskian makes 2/(pi x M^2) the
    slope of the continuous theta_beta(x) = arg(J_beta(x) + i Y_beta(x)), so

        theta_n(t) = -(n + 1/2) [theta_beta(k tau) - theta_beta(k)]

    (Lewis and Riesenfeld, J. Math. Phys. 10, 1458 (1969)).  The difference
    is taken whole, as the argument of (J + iY)(k tau) (J - iY)(k) from two
    kernel calls, so it does not cancel where both phases sit near -pi/2.
    Its 2 pi branch is the one nearest the difference of the two Debye
    estimates (`_debye_phase`): each is within 0.53 of theta_beta, so their
    difference is within 1.06 < pi of the true one.  EnvelopeError names
    sigma0 and t if k or k tau is outside the Bessel envelope, or if any of
    J, Y, J', Y' there is not finite (tiny k or k tau).
    """
    _check_quantum_number(n)
    beta, k = params.beta, params.k
    u = k * (params.A * t + 1.0)
    j1, y1, _, _ = _checked(_bessel_jy, beta, k, "phase", params.sigma0, t)
    j2, y2, _, _ = _checked(_bessel_jy, beta, u, "phase", params.sigma0, t)
    near = _debye_phase(beta, u) - _debye_phase(beta, k)
    delta = math.atan2(j1 * y2 - j2 * y1, j1 * j2 + y1 * y2)
    return -(n + 0.5) * (delta + 2.0 * math.pi * round((near - delta) / (2.0 * math.pi)))


def _hermite_values(snapshot: QuantumSnapshot, q) -> tuple[np.ndarray, np.ndarray]:
    """(scale, h_n(q / scale)) with a trailing axis on scale, so that a level
    gives one row per time.  xi = q/scale is capped at 1e300, silently:
    there e^{-xi^2/2}, and so h_n, is 0 and sqrt(2) xi is still finite."""
    scale = np.expand_dims(snapshot.scale, -1)
    with np.errstate(over="ignore"):
        xi = np.clip(np.asarray(q, dtype=float) / scale, -1e300, 1e300)
        return scale, hermite_function(snapshot.n, xi)


def wavefunction(snapshot: QuantumSnapshot, q, theta=0.0) -> complex | np.ndarray:
    """psi_n(q, t) including the supplied phase factor e^{i theta}.

    q is as in `density_values`, theta one phase or one per time of a
    level; one time and one charge give a complex.  theta defaults to 0
    because the snapshot carries no trajectory history; pass phase(...)
    for the full time-dependent solution.  The modulus is independent of
    theta and of the rho' term.  psi is 0 where the modulus is.
    """
    scale, h = _hermite_values(snapshot, q)
    # h_n carries the real Gaussian factor e^{-q^2/(2 hbar rho^2)} and the
    # normalization; only the rho' chirp and the phase are left
    with np.errstate(over="ignore", invalid="ignore"):
        chirp = snapshot.L * snapshot.rho_dot / (2.0 * snapshot.hbar * snapshot.rho)
        angle = np.expand_dims(chirp, -1) * q * q + np.expand_dims(theta, -1)
        psi = np.where(h == 0.0, 0j, h / np.sqrt(scale) * np.exp(1j * angle))
    return complex(psi[0]) if np.ndim(snapshot.t) == np.ndim(q) == 0 else psi


def density_values(snapshot: QuantumSnapshot, q: np.ndarray) -> np.ndarray:
    """P(q, t) = |psi_n|^2 on an array of charge values (real closed form).

    A level gives one row of P per time; its q is one charge grid for every
    time or one row of charges per time.  P takes its limit 0 where q/scale
    or its square overflows.  It is h h / scale, or h (h / scale) where h h
    is subnormal (|h| < 2^-511) and has lost digits that P keeps.
    """
    scale, h = _hermite_values(snapshot, q)
    hh = h * h
    low = np.where(hh < 2.0 ** -1022, h, 0.0)
    return np.where(low != 0.0, low * (low / scale), hh / scale)


def _finite_or(value, fallback):
    """value, or fallback() where value is not finite; fallback is called
    only if needed, under the errstate of Python float arithmetic."""
    if (finite := np.isfinite(value)).all():
        return value
    with np.errstate(over="ignore", invalid="ignore"):
        other = fallback()
    return np.where(finite, value, other) if np.ndim(value) else other


def moments(snapshot: QuantumSnapshot) -> tuple:
    """(<q>, <Phi>, <q^2>, <Phi^2>); the first moments vanish identically.

    Where rho^2 overflows, <q^2> is (hbar rho) rho (n + 1/2); where
    (L rho rho')^2 does, <Phi^2> is hbar (1/rho^2 + (L rho')^2) (n + 1/2).
    """
    n_half = snapshot.n + 0.5
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats do
        rho2 = snapshot.rho * snapshot.rho
        cross = snapshot.L * snapshot.rho * snapshot.rho_dot
        q2 = snapshot.hbar * rho2 * n_half
        phi2 = snapshot.hbar / rho2 * (1.0 + cross * cross) * n_half

    def split():
        slope = snapshot.L * snapshot.rho_dot
        return snapshot.hbar * (1.0 / rho2 + slope * slope) * n_half
    q2 = _finite_or(q2, lambda: snapshot.hbar * snapshot.rho * snapshot.rho * n_half)
    return 0.0, 0.0, q2, _finite_or(phi2, split)


def uncertainty_product(snapshot: QuantumSnapshot) -> float | np.ndarray:
    """dq dPhi = hbar sqrt(1 + L^2 rho^2 rho'^2) (n + 1/2); floor at rho' = 0.
    Where (L rho rho')^2 overflows, hypot(1, L rho rho') stands for the root."""
    sqrt, hypot = ((np.sqrt, np.hypot) if isinstance(snapshot.rho, np.ndarray)
                   else (math.sqrt, math.hypot))
    with np.errstate(over="ignore", invalid="ignore"):
        cross = snapshot.L * snapshot.rho * snapshot.rho_dot
        product = snapshot.hbar * sqrt(1.0 + cross * cross) * (snapshot.n + 0.5)
    return _finite_or(product, lambda: snapshot.hbar * hypot(1.0, cross) * (snapshot.n + 0.5))


def energy_mean(snapshot: QuantumSnapshot) -> float | np.ndarray:
    """Mean energy <E_n>; decays to zero as the charge is expelled.

    Where L^2 rho^2 overflows (L near the top of the float range) the first
    term is summed as 1/(2 L^2 rho^2) + rho'^2/2 instead, and where rho^2
    does the second as (omega^2 rho) rho / 2; both stay finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        rho2 = snapshot.rho * snapshot.rho
        L2 = snapshot.L * snapshot.L
        cross2 = L2 * rho2 * snapshot.rho_dot * snapshot.rho_dot
        energy = ((1.0 + cross2) / (2.0 * L2 * rho2)
                  + 0.5 * snapshot.omega_sq * rho2) * (snapshot.n + 0.5) * snapshot.hbar

    def large():
        inverse = 1.0 / (snapshot.L * snapshot.rho)
        potential = _finite_or(0.5 * snapshot.omega_sq * rho2,
                               lambda: 0.5 * snapshot.omega_sq * snapshot.rho * snapshot.rho)
        return (0.5 * inverse * inverse + 0.5 * snapshot.rho_dot * snapshot.rho_dot
                + potential) * (snapshot.n + 0.5) * snapshot.hbar
    return _finite_or(energy, large)
