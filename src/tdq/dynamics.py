"""Classical charge dynamics in a superconductor with time-dependent
conductivity, and the auxiliary Milne-Pinney amplitude.

The charge obeys a damped oscillator with time-dependent coefficients,

    q'' + (sigma(t)/eps0) q' + omega^2(t) q = 0,
    omega^2(t) = c^2/lambdaL^2 + sigma_dot(t)/eps0,

and every quantum observable of the system is parameterized by rho(t),
the positive solution of the generalized Milne-Pinney equation

    rho'' + (L'/L) rho' + omega^2 rho = 1 / (L^2 rho^3),
    L(t) = exp(integral_0^t sigma/eps0),  L(0) = 1.

The conductivity follows the hyperbolic law sigma(t) = sigma0/(A t + 1), so
L(t) = (A t + 1)^s, and the Pinney equation has the exact solution

    rho(t) = sqrt(pi/(2A)) (At+1)^{(1-s)/2}
             [J_beta^2(k(At+1)) + Y_beta^2(k(At+1))]^{1/2},

with s = sigma0/(A eps0), beta = (1+s)/2, k = c/(lambdaL A).  Both the
exact formula and an adaptive Runge-Kutta path are provided; the
Lewis-Riesenfeld invariant ties the two trajectories together and is
conserved along any consistent pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import DomainError, EnvelopeError, PinneySingularityError, TimeMismatchError
from .integrate import solve_rk45
from .special_functions import _bessel_modulus_sq, _check_bessel_envelope

_RHO_GUARD = 1e-12


def _or_inf(expression: Callable[[], float]) -> float:
    """expression(), or inf where it overflows or divides by 0."""
    try:
        return expression()
    except ArithmeticError:  # ZeroDivisionError, OverflowError
        return math.inf


@dataclass(frozen=True)
class SuperconductorParams:
    """Physical constants of one experiment, and the time-dependent
    coefficients sigma, L and omega^2 they fix.

    Figure units set A = eps0 = c = lambdaL = hbar = 1; sigma0 = 0 is the
    lossless LC limit.  lambdaL is taken as an input length, never derived
    from microscopic constants.  Every field must be finite, sigma0 >= 0
    and the others > 0, or DomainError names the field and its value; so
    must beta, k and omega0^2, with k > 0, or DomainError names the fields
    they are made of.
    sigma, sigma_dot, L and omega^2 are the one home of the conductivity law,
    which every solver reads; each raises DomainError naming t at and past
    the pole of sigma, where A t + 1 <= 0.

    The derived constants are set once, at construction, where they are
    validated, and every reader shares them: decay_exponent
    s = sigma0/(A eps0), the Bessel order beta = (1 + s)/2 (the square root
    form is a perfect square), its argument scale k = c/(lambdaL A),
    omega0_sq = c^2/lambdaL^2, and rho's exponent rho_exponent = (1 - s)/2
    and prefactor rho_prefactor = sqrt(pi/(2A)).  Equality, hashing and
    `dataclasses.replace` see the fields alone.
    """

    sigma0: float
    A: float = 1.0
    eps0: float = 1.0
    c: float = 1.0
    lambdaL: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        # each test reads `not (ok)`, so that NaN fails it
        if not (math.isfinite(self.sigma0) and self.sigma0 >= 0.0):
            raise DomainError(f"sigma0 must be finite and >= 0, got sigma0={self.sigma0!r}")
        for name in ("A", "eps0", "c", "lambdaL", "hbar"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise DomainError(f"{name} must be finite and > 0, got {name}={value!r}")
        # finite fields can still overflow a derived constant, or underflow
        # it to 0 or a product to 0 (a division by it raises): either is
        # taken as inf, which the checks below reject
        s = _or_inf(lambda: self.sigma0 / (self.A * self.eps0))
        derived = {"decay_exponent": s, "beta": 0.5 * (1.0 + s),
                   "k": _or_inf(lambda: self.c / (self.lambdaL * self.A)),
                   "omega0_sq": _or_inf(lambda: (self.c / self.lambdaL) ** 2),
                   "rho_exponent": 0.5 * (1.0 - s),
                   "rho_prefactor": math.sqrt(math.pi / (2.0 * self.A))}
        for what, name, names, positive in (
                ("beta = (1 + sigma0/(A eps0))/2", "beta", ("sigma0", "A", "eps0"), False),
                ("k = c/(lambdaL A)", "k", ("c", "lambdaL", "A"), True),
                ("omega0^2 = (c/lambdaL)^2", "omega0_sq", ("c", "lambdaL"), False)):
            value = derived[name]
            if not (math.isfinite(value) and (value > 0.0 or not positive)):
                given = ", ".join(f"{field}={getattr(self, field)!r}" for field in names)
                raise DomainError(f"{what} must be finite{' and > 0' if positive else ''}, "
                                  f"got {given}")
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def _tau(self, t: float) -> float:
        """A t + 1; DomainError naming t at and past the pole of sigma, where
        A t + 1 <= 0 (or is NaN)."""
        tau = self.A * t + 1.0
        if not tau > 0.0:
            raise DomainError(f"sigma(t) = sigma0/(A t + 1) needs A t + 1 > 0, "
                              f"got t={t!r} with A={self.A!r}")
        return tau

    def sigma(self, t: float) -> float:
        """Conductivity sigma(t) = sigma0 / (A t + 1)."""
        return self.sigma0 / self._tau(t)

    def sigma_dot(self, t: float) -> float:
        """Time derivative -sigma0 A / (A t + 1)^2 of the conductivity."""
        tau = self._tau(t)
        try:
            return -self.sigma0 * self.A / tau ** 2
        except OverflowError:  # tau^2 is out of float range, sigma_dot is not
            return -self.sigma0 * self.A / tau / tau

    def L(self, t: float) -> float:
        """L(t) = exp(integral_0^t sigma/eps0 dt') = (A t + 1)^s; L(0) = 1.
        EnvelopeError names sigma0 and t where L is out of float range."""
        tau = self._tau(t)
        try:
            return tau ** self.decay_exponent
        except OverflowError:
            raise EnvelopeError(f"L at sigma0={self.sigma0!r}, t={t!r}: (A t + 1)^s with "
                                f"s={self.decay_exponent!r} is out of float range") from None

    def omega_sq(self, t: float) -> float:
        """omega^2(t) = c^2/lambdaL^2 + sigma_dot(t)/eps0; may be negative."""
        return self.omega0_sq + self.sigma_dot(t) / self.eps0


@dataclass(frozen=True)
class PinneyState:
    """Milne-Pinney amplitude and slope at one time."""

    t: float
    rho: float
    rho_dot: float

    def __post_init__(self):
        if not self.rho > 0.0:
            raise DomainError(f"rho must be positive, got {self.rho!r} at t={self.t!r}")


@dataclass(frozen=True)
class ClassicalState:
    """Charge trajectory point; phi = L(t) q_dot is the canonical momentum."""

    t: float
    q: float
    q_dot: float
    phi: float


def rho_analytic(params: SuperconductorParams, t: float) -> PinneyState:
    """Exact Pinney amplitude.

    rho depends on the Bessel functions only through the modulus
    M^2 = J_beta^2 + Y_beta^2 at u = k(A t + 1), and the slope only through
    M M' = J_beta J_beta' + Y_beta Y_beta',
        rho'/rho = p A/(A t + 1) + k A M M' / M^2,   p = (1 - s)/2;
    and both come from one run of the kernel `_bessel_modulus_sq` (the
    Bessel kernel below u = 2 or u = beta, Steed's CF2 alone from
    max(2, beta) to 20, the asymptotic series from 20 up).  Against 40-digit
    mpmath over beta in [0.5, 10], near-integer orders included, rho is
    within 1.7e-15 relative and rho' within 5.4e-15 of |rho'| + rho/(A t + 1);
    re-measured on 1672 points with u in [0.1, 20), the worst were 1.2e-15
    and 2.7e-15 (3.0e-15 with the kernel in place of CF2).  Valid for
    A t + 1 > 0, which allows the slightly negative times used by
    finite-difference residual checks.
    The envelope is checked once, here, so that EnvelopeError names sigma0
    and t (u <= 0 fails it).  A rho or rho' out of float range (extreme
    constants, such as c = 1e-150) raises EnvelopeError naming sigma0, t
    and u; as that rejects a non-finite modulus too, this hot path skips
    `_checked` and calls the kernel.
    """
    A = params.A
    tau = A * t + 1.0
    beta, k = params.beta, params.k
    u = k * tau
    _check_bessel_envelope(beta, u, "rho_analytic", params.sigma0, t)
    m_sq, m_dm = _bessel_modulus_sq(beta, u)
    p = params.rho_exponent
    rho = params.rho_prefactor * tau ** p * math.sqrt(m_sq)
    rho_dot = rho * (p * A / tau + k * A * m_dm / m_sq)
    if not (0.0 < rho < math.inf and math.isfinite(rho_dot)):
        raise EnvelopeError(f"rho_analytic at sigma0={params.sigma0!r}, t={t!r}: rho={rho!r} "
                            f"or rho'={rho_dot!r} out of float range at Bessel argument {u!r}")
    return PinneyState(t=t, rho=rho, rho_dot=rho_dot)


def equation_of_motion(params: SuperconductorParams, pinney: bool = False,
                       ) -> Callable[[float, tuple[float, float]], tuple[float, float]]:
    """The right-hand side (t, (x, x')) -> (x', x'') that `solve_rk45` integrates.

    x'' = -(sigma/eps0) x' - omega^2 x is the damped charge equation; with
    pinney=True it is the Milne-Pinney equation, which adds 1/(L^2 x^3)
    since L'/L = sigma/eps0.  Each call reads sigma, omega^2 and L from
    params' methods, so the rhs has no copy of the conductivity law; where
    L is out of float range, 1/(L^2 x^3) is taken as its limit 0.
    """
    sigma, omega_sq, L_of, eps0 = params.sigma, params.omega_sq, params.L, params.eps0

    def rhs(t, y):
        x, x_dot = y
        x_ddot = -sigma(t) / eps0 * x_dot - omega_sq(t) * x
        if pinney:
            try:
                L = L_of(t)
            except EnvelopeError:
                return (x_dot, x_ddot)
            x_ddot += 1.0 / (L * L * x * x * x)
        return (x_dot, x_ddot)

    return rhs


def solve_pinney_numeric(params: SuperconductorParams, *,
                         t_grid: Sequence[float]) -> list[PinneyState]:
    """Integrate the Pinney equation on an ascending grid from its one seed,
    rho_analytic(params, t_grid[0]); other initial values go straight to
    solve_rk45 with equation_of_motion(params, pinney=True).  Raises
    PinneySingularityError if rho crosses the 1e-12 positivity guard and
    StepSizeUnderflowError if the controller stalls.  Nothing compares the
    result with rho_analytic, and it drifts at high Bessel order: on t in
    [0, 5] its relative error reaches 9.3e-5 at sigma0 = 12 and 51 at 19.
    """
    if len(t_grid) == 0:
        raise DomainError("t_grid must be a non-empty ascending grid")
    seed = rho_analytic(params, float(t_grid[0]))

    def guard(t, y):
        if y[0] < _RHO_GUARD:
            raise PinneySingularityError(t, params.sigma0)

    states = solve_rk45(equation_of_motion(params, pinney=True), (seed.rho, seed.rho_dot),
                        t_grid, post_step=guard)
    return [PinneyState(t=float(t), rho=y[0], rho_dot=y[1])
            for t, y in zip(t_grid, states)]


def solve_classical(params: SuperconductorParams,
                    q0: float,
                    q_dot0: float,
                    t_grid: Sequence[float]) -> list[ClassicalState]:
    """Integrate the damped charge equation on an ascending grid from t_grid[0]."""
    states = solve_rk45(equation_of_motion(params), (q0, q_dot0), t_grid)
    return [ClassicalState(t=float(t), q=y[0], q_dot=y[1],
                           phi=params.L(float(t)) * y[1])
            for t, y in zip(t_grid, states)]


def invariant_value(params: SuperconductorParams,
                    cs: ClassicalState,
                    ps: PinneyState) -> float:
    """Lewis-Riesenfeld invariant I = [(q/rho)^2 + (rho phi - L rho' q)^2] / 2.

    Constant along any jointly integrated (charge, Pinney) pair at equal
    times; raises TimeMismatchError otherwise.
    """
    if abs(cs.t - ps.t) > 1e-12 * max(1.0, abs(cs.t)):
        raise TimeMismatchError(
            f"classical state at t={cs.t!r} but Pinney state at t={ps.t!r}")
    L = params.L(cs.t)
    stretched = cs.q / ps.rho
    conjugate = ps.rho * cs.phi - L * ps.rho_dot * cs.q
    return 0.5 * (stretched * stretched + conjugate * conjugate)
