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

A snapshot holds one time, or a level: one n over a time grid (`levels`).
Numpy's + - * / and sqrt round correctly, so a level's observables, in
the scalar order of operations, have the bits of its scalar snapshots.
"""

from __future__ import annotations

import cmath
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


def pinney_rows(params: SuperconductorParams, ts) -> list[tuple[float, ...]]:
    """(t, rho, rho', L, omega^2) at each t in ts, from one `rho_analytic`
    call per t; they depend on t alone, so every n shares them."""
    return [(s.t, s.rho, s.rho_dot, params.L(s.t), params.omega_sq(s.t))
            for s in (rho_analytic(params, float(t)) for t in ts)]


def pinney_columns(params: SuperconductorParams, ts) -> tuple[np.ndarray, ...]:
    """The `pinney_rows` as five float64 arrays over ts."""
    return tuple(np.array(pinney_rows(params, ts), dtype=float).reshape(-1, 5).T.copy())


def levels(params: SuperconductorParams, ns, ts) -> list[QuantumSnapshot]:
    """One level per n in ns: a snapshot of the `pinney_columns` over ts."""
    columns = pinney_columns(params, ts)
    return [QuantumSnapshot(n, *columns, params.hbar) for n in ns]


def snapshots(params: SuperconductorParams, ns, ts):
    """Snapshots for every n in ns and t in ts, n-major (all of ts for the
    first n, then the next), sharing the `pinney_rows`."""
    rows = pinney_rows(params, ts)
    for n in ns:
        for row in rows:
            yield QuantumSnapshot(n, *row, params.hbar)


def _truncation_edge(n: int) -> float:
    """|xi| = sqrt(2n+1) + 8, beyond which h_n(xi)^2 < 1e-25."""
    return math.sqrt(2.0 * n + 1.0) + 8.0


def truncation_radius(snapshot: QuantumSnapshot) -> float:
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


def wavefunction(snapshot: QuantumSnapshot, q: float, theta: float = 0.0) -> complex:
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


def density_values(snapshot: QuantumSnapshot, q: np.ndarray) -> np.ndarray:
    """P(q, t) = |psi_n|^2 on an array of charge values (real closed form).

    P takes its limit 0 where q/scale or its square overflows, silently:
    xi = q/scale is capped at 1e300, where e^{-xi^2/2}, and so h_n, is 0
    and sqrt(2) xi is still finite.
    """
    scale = snapshot.scale
    with np.errstate(over="ignore"):
        xi = np.clip(np.asarray(q, dtype=float) / scale, -1e300, 1e300)
        h = hermite_function(snapshot.n, xi)
    return h * h / scale


def moments(snapshot: QuantumSnapshot) -> tuple:
    """(<q>, <Phi>, <q^2>, <Phi^2>); the first moments vanish identically."""
    n_half = snapshot.n + 0.5
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats do
        rho2 = snapshot.rho * snapshot.rho
        cross = snapshot.L * snapshot.rho * snapshot.rho_dot
        q2 = snapshot.hbar * rho2 * n_half
        phi2 = snapshot.hbar / rho2 * (1.0 + cross * cross) * n_half
    return 0.0, 0.0, q2, phi2


def uncertainty_product(snapshot: QuantumSnapshot) -> float | np.ndarray:
    """dq dPhi = hbar sqrt(1 + L^2 rho^2 rho'^2) (n + 1/2); floor at rho' = 0."""
    sqrt = np.sqrt if isinstance(snapshot.rho, np.ndarray) else math.sqrt
    with np.errstate(over="ignore", invalid="ignore"):
        cross = snapshot.L * snapshot.rho * snapshot.rho_dot
        return snapshot.hbar * sqrt(1.0 + cross * cross) * (snapshot.n + 0.5)


def energy_mean(snapshot: QuantumSnapshot) -> float | np.ndarray:
    """Mean energy <E_n>; decays to zero as the charge is expelled.

    Where L^2 rho^2 overflows (L near the top of the float range) the first
    term is summed as 1/(2 L^2 rho^2) + rho'^2/2 instead, which stays finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        rho2 = snapshot.rho * snapshot.rho
        L2 = snapshot.L * snapshot.L
        cross2 = L2 * rho2 * snapshot.rho_dot * snapshot.rho_dot
        energy = ((1.0 + cross2) / (2.0 * L2 * rho2)
                  + 0.5 * snapshot.omega_sq * rho2) * (snapshot.n + 0.5) * snapshot.hbar
        if (finite := np.isfinite(energy)).all():
            return energy
        inverse = 1.0 / (snapshot.L * snapshot.rho)
        large = (0.5 * inverse * inverse + 0.5 * snapshot.rho_dot * snapshot.rho_dot
                 + 0.5 * snapshot.omega_sq * rho2) * (snapshot.n + 0.5) * snapshot.hbar
    return np.where(finite, energy, large) if np.ndim(energy) else large
