import dataclasses
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from tdq import dynamics, special_functions, verify
from tdq.dynamics import (
    ClassicalState,
    PinneyState,
    SuperconductorParams,
    equation_of_motion,
    invariant_value,
    rho_analytic,
    solve_classical,
    solve_pinney_numeric,
)
from tdq.errors import DomainError, EnvelopeError, PinneySingularityError, TimeMismatchError
from tdq.integrate import solve_rk45


def pinney_residual_fd(params, t, h=1e-3):
    # rho'' from the fourth-order five-point stencil on rho alone, so the
    # residual stays independent of the analytic rho'
    rm2, rm1, rp1, rp2 = (rho_analytic(params, t + k * h).rho for k in (-2, -1, 1, 2))
    r0 = rho_analytic(params, t)
    rho_ddot = (-rm2 + 16.0 * rm1 - 30.0 * r0.rho + 16.0 * rp1 - rp2) / (12.0 * h * h)
    L = params.L(t)
    return abs(rho_ddot
               + params.sigma(t) / params.eps0 * r0.rho_dot
               + params.omega_sq(t) * r0.rho
               - 1.0 / (L * L * r0.rho ** 3))


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SuperconductorParams(sigma0=-1.0)
        with pytest.raises(ValueError):
            SuperconductorParams(sigma0=1.0, lambdaL=0.0)

    @pytest.mark.parametrize("name, value", [
        *((name, value) for name in ("sigma0", "A", "eps0", "c", "lambdaL", "hbar")
          for value in (math.nan, math.inf, -math.inf)),
        *((name, 0.0) for name in ("A", "eps0", "c", "lambdaL", "hbar")),
    ])
    def test_bad_constant_names_the_field(self, name, value):
        # NaN passes `< 0` and `<= 0` alike, and A=inf makes the Bessel
        # argument NaN, so each must fail at construction
        fields = {"sigma0": 1.0, name: value}
        with pytest.raises(DomainError, match=f"^{name} must be finite and "
                                              f"[>=]+ 0, got {name}={value!r}$"):
            SuperconductorParams(**fields)

    @pytest.mark.parametrize("fields, named", [
        ({"eps0": 1e-320}, "beta = (1 + sigma0/(A eps0))/2 must be finite, "
                           "got sigma0=1.0, A=1.0, eps0=1e-320"),  # beta = inf
        ({"A": 1e-200, "eps0": 1e-200}, "got sigma0=1.0, A=1e-200, eps0=1e-200"),  # A eps0 = 0
        ({"c": 1e-200, "lambdaL": 1e200}, "k = c/(lambdaL A) must be finite and > 0, "
                                          "got c=1e-200, lambdaL=1e+200, A=1.0"),  # k = 0
        ({"c": 1e300, "A": 1e-300}, "got c=1e+300, lambdaL=1.0, A=1e-300"),  # k = inf
        ({"c": 1e300}, "omega0^2 = (c/lambdaL)^2 must be finite, "
                       "got c=1e+300, lambdaL=1.0"),  # (c/lambdaL)**2 overflows
    ])
    def test_bad_derived_constant_names_its_fields(self, fields, named):
        with pytest.raises(DomainError) as info:
            SuperconductorParams(sigma0=1.0, **fields)
        assert named in str(info.value)

    def test_derived_quantities(self):
        params = SuperconductorParams(sigma0=2.0)
        assert params.beta == pytest.approx(1.5, abs=1e-15)
        assert params.k == pytest.approx(1.0, abs=1e-15)
        params = SuperconductorParams(sigma0=0.0)
        assert params.beta == 0.5

    @given(st.floats(min_value=0.0, max_value=10.0))
    def test_beta_perfect_square(self, sigma0):
        params = SuperconductorParams(sigma0=sigma0)
        s = params.decay_exponent
        root_form = 0.5 * math.sqrt(1.0 + 2.0 * s + s * s)
        assert abs(root_form - params.beta) <= 1e-14 * max(1.0, params.beta)


# unit constants, the near-integer order 2 - 5e-10, order 10, and two sets
# of non-unit constants
_BIT_IDENTITY_PARAMS = (
    SuperconductorParams(sigma0=0.0), SuperconductorParams(sigma0=0.4),
    SuperconductorParams(sigma0=3.0 - 1e-9), SuperconductorParams(sigma0=7.3),
    SuperconductorParams(sigma0=19.0),
    SuperconductorParams(sigma0=1.3, A=0.7, eps0=2.1, c=3.3, lambdaL=1.9, hbar=0.5),
    SuperconductorParams(sigma0=5.0, A=2.5, eps0=0.3, c=0.2, lambdaL=0.45),
)
# Bessel arguments on both sides of x = 2 and x = 20, the modulus branch points
_BIT_IDENTITY_U = (0.3, 1.5, 1.99, 2.0, 3.3, 4.7, 7.7, 9.9, 13.0, 16.1, 19.99, 20.0, 21.0,
                   24.6, 27.1, 33.3, 41.7, 49.9)


class TestCachedConstants:
    @pytest.mark.parametrize("params", _BIT_IDENTITY_PARAMS)
    def test_rho_path_keeps_the_bits_of_the_property_expressions(self, params):
        branches = set()
        for u in _BIT_IDENTITY_U:
            t = (u / oracles._k(params) - 1.0) / params.A
            state = rho_analytic(params, t)
            got = (state.rho, state.rho_dot, params.L(t), params.omega_sq(t))
            want = (*oracles.rho_by_properties(params, t), oracles.L_by_properties(params, t),
                    oracles.omega_sq_by_properties(params, t))
            assert [v.hex() for v in got] == [v.hex() for v in want], (u, t)
            x = params.k * (params.A * t + 1.0)
            branches.add("kernel" if x < 2.0 or x < params.beta
                          else "cf2" if x < 20.0 else "series")
        assert branches == {"kernel", "cf2", "series"}

    def test_cached_constants_leave_the_dataclass_contract(self):
        params = SuperconductorParams(sigma0=1.3, A=0.7, c=3.3)
        fresh = SuperconductorParams(sigma0=1.3, A=0.7, c=3.3)
        rho_analytic(params, 0.5)  # reads every cached constant
        for name in ("sigma0", "beta", "rho_exponent"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(params, name, 2.0)
        assert params == fresh and hash(params) == hash(fresh)
        assert pickle.dumps(params) == pickle.dumps(fresh)
        clone = pickle.loads(pickle.dumps(params))
        assert clone == params and clone.rho_exponent == params.rho_exponent
        other = dataclasses.replace(params, sigma0=2.6)
        assert other != params
        assert other.decay_exponent == 2.6 / 0.7
        assert other.beta == 0.5 * (1.0 + 2.6 / 0.7)
        assert other.rho_exponent == 0.5 * (1.0 - 2.6 / 0.7)
        assert dataclasses.replace(params, A=2.0).rho_prefactor == math.sqrt(math.pi / 4.0)


class TestFloatRange:
    """Near the top of the float range L raises, and sigma_dot does not."""

    def test_L_out_of_float_range_names_sigma0_and_t(self):
        params = SuperconductorParams(sigma0=19.0)
        with pytest.raises(EnvelopeError, match=r"^L at sigma0=19\.0, t=4e\+21: "):
            params.L(4e21)

    def test_sigma_dot_past_the_square_of_tau(self):
        params = SuperconductorParams(sigma0=1.0, A=1e300)
        tau = 1e300 * 1e-140 + 1.0  # tau^2 = 1e320 overflows, sigma_dot is -1e-20
        assert params.sigma_dot(1e-140) == -1e300 / tau / tau
        assert params.omega_sq(1e-140) == 1.0 - 1e300 / tau / tau
        # where tau^2 is a float, the property expression
        assert params.omega_sq(1e-160) == oracles.omega_sq_by_properties(params, 1e-160)

    def test_equation_of_motion_past_the_square_of_tau(self):
        # s = 19 and tau = 1e160: tau^2 and L = tau^s are out of float range,
        # and 1/(L^2 x^3) is taken as 0
        params = SuperconductorParams(sigma0=19.0, A=1e10, eps0=1e-10)
        t = 1e150
        want = -params.sigma(t) / params.eps0 * 3.0 - params.omega_sq(t) * 2.0
        for pinney in (False, True):
            assert equation_of_motion(params, pinney)(t, (2.0, 3.0)) == (3.0, want)


class TestConductivityLaw:
    def test_hyperbolic_identity(self):
        params = SuperconductorParams(sigma0=3.0)
        for t in np.linspace(0.0, 10.0, 21):
            assert params.sigma(float(t)) * (params.A * t + 1.0) == pytest.approx(
                3.0, abs=1e-14)

    def test_L_values(self):
        params = SuperconductorParams(sigma0=2.0)
        assert params.L(0.0) == 1.0
        assert params.L(1.0) == pytest.approx(4.0, rel=1e-14)
        params0 = SuperconductorParams(sigma0=0.0)
        for t in (0.0, 1.0, 5.0):
            assert params0.L(t) == 1.0

    def test_L_monotone(self):
        params = SuperconductorParams(sigma0=1.5)
        values = [params.L(float(t)) for t in np.linspace(0.0, 5.0, 11)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(v > 0 for v in values)


class TestOmegaSq:
    def test_negative_at_origin(self):
        params = SuperconductorParams(sigma0=3.0)
        assert params.omega_sq(0.0) == pytest.approx(-2.0, abs=1e-14)

    def test_lc_limit(self):
        params = SuperconductorParams(sigma0=0.0)
        for t in (0.0, 1.0, 7.0):
            assert params.omega_sq(t) == 1.0

    def test_late_time_asymptote(self):
        params = SuperconductorParams(sigma0=3.0)
        value = params.omega_sq(100.0)
        assert abs(value - 1.0) < 3e-4
        assert value == pytest.approx(1.0 - 3.0 / 101.0 ** 2, rel=1e-12)


class TestRhoAnalytic:
    def test_value_at_zero_sigma2(self):
        # beta = 3/2, k = 1: with J^2 + Y^2 = (2/pi)(sin - cos)^2 + (2/pi)(cos + sin)^2
        # = 4/pi at x = 1, rho(0) = sqrt(pi/2) * sqrt(4/pi) = sqrt(2)
        params = SuperconductorParams(sigma0=2.0)
        state = rho_analytic(params, 0.0)
        j = math.sqrt(2.0 / math.pi) * (math.sin(1.0) - math.cos(1.0))
        y = -math.sqrt(2.0 / math.pi) * (math.cos(1.0) + math.sin(1.0))
        expected = math.sqrt(math.pi / 2.0) * math.hypot(j, y)
        assert state.rho == pytest.approx(expected, rel=1e-12)
        assert state.rho == pytest.approx(math.sqrt(2.0), rel=1e-12)

    @pytest.mark.parametrize("t", [0.5, 30.0])
    def test_one_envelope_check_per_call(self, t, monkeypatch):
        # on both sides of the modulus series' threshold at u = 20
        checks = []
        real = special_functions._check_bessel_envelope
        for module in (dynamics, special_functions):
            monkeypatch.setattr(module, "_check_bessel_envelope",
                                lambda *args: checks.append(args) or real(*args))
        rho_analytic(SuperconductorParams(sigma0=2.0), t)
        assert checks == [(1.5, t + 1.0, "rho_analytic", 2.0, t)]

    @pytest.mark.parametrize("sigma0, t, kernel_runs", [
        (2.0, 0.5, 1),   # u = 1.5 < 2: Temme's series inside the kernel
        (19.0, 3.0, 1),  # u = 4 < beta = 10: CF2 at order beta would lose q
        (2.0, 1.0, 0),   # u = 2 = max(2, beta): CF2 alone
        (2.0, 5.0, 0),
        (19.0, 9.0, 0),  # u = beta = 10
        (19.0, 18.9, 0),
        (2.0, 30.0, 0),  # u >= 20: the asymptotic series
    ])
    def test_kernel_runs_only_below_two_or_the_order(self, sigma0, t, kernel_runs,
                                                       monkeypatch):
        calls = []
        real = special_functions._bessel_jy
        monkeypatch.setattr(special_functions, "_bessel_jy",
                            lambda *args: calls.append(args) or real(*args))
        rho_analytic(SuperconductorParams(sigma0=sigma0), t)
        assert len(calls) == kernel_runs

    def test_lc_limit_constant(self):
        params = SuperconductorParams(sigma0=0.0)
        for t in (0.0, 0.5, 3.0):
            state = rho_analytic(params, t)
            assert state.rho == pytest.approx(1.0, abs=1e-13)
            assert state.rho_dot == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("sigma0", [0.4, 0.6, 0.8, 1.5, 2.0, 2.5, 3.0])
    def test_pinney_residual(self, sigma0):
        params = SuperconductorParams(sigma0=sigma0)
        for t in np.linspace(0.0, 5.0, 6):
            assert pinney_residual_fd(params, float(t)) < 1e-6

    def test_verify_pinney_residual_margin(self):
        params = SuperconductorParams(sigma0=3.0)
        assert verify.pinney_residual(params, 0.0) < 1e-8

    def test_rho_dot_matches_finite_difference(self):
        params = SuperconductorParams(sigma0=2.5)
        h = 1e-5
        for t in (0.0, 0.7, 2.3, 5.0):
            fd = (rho_analytic(params, t + h).rho
                  - rho_analytic(params, t - h).rho) / (2.0 * h)
            assert rho_analytic(params, t).rho_dot == pytest.approx(fd, abs=1e-8)

    def test_envelope_violation_names_parameters(self):
        params = SuperconductorParams(sigma0=2.0)
        with pytest.raises(EnvelopeError, match="sigma0=2.0"):
            rho_analytic(params, 60.0)

    @pytest.mark.parametrize("t", [-1.0, -2.0, math.nan])
    def test_time_outside_the_domain_names_t(self, t):
        # A t + 1 <= 0 puts the Bessel argument k (A t + 1) at or below 0
        params = SuperconductorParams(sigma0=2.0)
        with pytest.raises(EnvelopeError, match=f"sigma0=2.0, t={t!r}"):
            rho_analytic(params, t)

    @pytest.mark.parametrize("sigma0, t, order, u", [
        (2.0, 60.0, "1.5", "61.0"),  # argument >= 20: the modulus-series branch
        (20.0, 1.0, "10.5", "2.0"),  # argument < 20: the kernel branch
    ])
    def test_envelope_message_in_full(self, sigma0, t, order, u):
        params = SuperconductorParams(sigma0=sigma0)
        with pytest.raises(EnvelopeError) as info:
            rho_analytic(params, t)
        assert str(info.value) == (
            f"rho_analytic at sigma0={sigma0!r}, t={t!r}: Bessel order {order} and "
            f"argument {u} outside the supported envelope [0, 10.0] x (0, 50.0]")

    def test_envelope_violation_order(self):
        # beta = 10.5 is above the order limit even where the argument is large
        params = SuperconductorParams(sigma0=20.0)
        for t in (0.0, 30.0):
            with pytest.raises(EnvelopeError, match="order 10.5"):
                rho_analytic(params, t)

    def test_positive_rho(self):
        for sigma0 in (0.5, 1.5, 3.0):
            params = SuperconductorParams(sigma0=sigma0)
            for t in np.linspace(0.0, 5.0, 26):
                assert rho_analytic(params, float(t)).rho > 0.0


class TestRhoAnalyticAsymptotic:
    """The modulus asymptotic branch, used from Bessel argument 20 up."""

    @pytest.mark.parametrize("beta", [0.6, 1.0, 1.5, 2.0 - 5e-10, 2.25, 10.0])
    @pytest.mark.parametrize("x", [20.0, 25.0, 33.3, 41.0, 50.0])
    def test_against_extended_precision(self, beta, x):
        sigma0 = 2.0 * beta - 1.0
        params = SuperconductorParams(sigma0=sigma0)
        state = rho_analytic(params, x - 1.0)
        rho, rho_dot = oracles.rho_mp(sigma0, x - 1.0)
        assert abs(state.rho - rho) <= 2e-15 * abs(rho)
        assert abs(state.rho_dot - rho_dot) <= 5e-15 * abs(rho_dot)

    @pytest.mark.parametrize("beta", [0.6, 0.77, 1.3, 2.25, 4.1, 7.3, 9.9])
    def test_branches_agree_at_crossover(self, beta, monkeypatch):
        params = SuperconductorParams(sigma0=2.0 * beta - 1.0)
        asymptotic = rho_analytic(params, 19.0)
        monkeypatch.setattr(special_functions, "_MODULUS_ASYMPTOTIC_X", math.inf)
        series = rho_analytic(params, 19.0)
        assert series.rho == pytest.approx(asymptotic.rho, rel=1e-13)
        assert series.rho_dot == pytest.approx(asymptotic.rho_dot, rel=1e-13)


class TestRhoAnalyticNearIntegerOrder:
    """Orders just off an integer, where Y through sin(beta pi) cancels."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    @pytest.mark.parametrize("offset", [1e-10, 1e-7, 1.0000001e-6, 2e-6, 1e-4,
                                        -1e-10, -1e-7, -1.0000001e-6, -2e-6, -1e-4])
    def test_against_extended_precision(self, n, offset):
        sigma0 = 2.0 * (n + offset) - 1.0
        params = SuperconductorParams(sigma0=sigma0)
        for x in [0.7, 1.9, 2.1, 8.0, 19.5, *np.linspace(40.0, 50.0, 5)]:
            state = rho_analytic(params, x - 1.0)
            rho, rho_dot = oracles.rho_mp(sigma0, x - 1.0)
            assert abs(state.rho - rho) <= 5e-15 * rho
            # rho'/rho is a sum of p/x and the modulus slope, so the error
            # of rho' scales with rho/x where the two cancel
            assert abs(state.rho_dot - rho_dot) <= 5e-15 * (abs(rho_dot) + rho / x)


class TestPinneyNumeric:
    def test_lc_equilibrium_fixed_point(self):
        params = SuperconductorParams(sigma0=0.0)
        grid = np.linspace(0.0, 10.0, 41)
        states = solve_rk45(dynamics.equation_of_motion(params, pinney=True), (1.0, 0.0), grid)
        for rho, _ in states:
            assert rho == pytest.approx(1.0, abs=1e-9)

    def test_matches_analytic_when_seeded(self):
        grid = np.linspace(0.0, 5.0, 51)
        for sigma0 in (0.5, 2.0, 3.0):
            params = SuperconductorParams(sigma0=sigma0)
            states = solve_pinney_numeric(params, t_grid=grid)
            worst = max(abs(s.rho - rho_analytic(params, s.t).rho) for s in states)
            assert worst < 1e-6

    def test_singularity_names_sigma0(self):
        # at Bessel order 10 RK45 drives rho through its positivity guard
        with pytest.raises(PinneySingularityError) as exc:
            solve_pinney_numeric(SuperconductorParams(sigma0=19.0), t_grid=np.linspace(0, 15, 3))
        assert exc.value.sigma0 == 19.0
        assert exc.value.t == pytest.approx(13.9408, abs=1e-4)
        assert re.fullmatch(r"rho fell below the singularity guard at t=13\.94\d*"
                            r" \(sigma0=19\.0\)", str(exc.value))

    def test_classical_pinney_formula(self):
        # undamped omega=1 with rho(0)=2, rho'(0)=0:
        # rho(t) = sqrt(4 cos^2 t + sin^2 t / 4)
        params = SuperconductorParams(sigma0=0.0)
        grid = np.linspace(0.0, math.pi, 33)
        states = solve_rk45(dynamics.equation_of_motion(params, pinney=True), (2.0, 0.0), grid)
        for t, (rho, _) in zip(grid, states):
            expected = math.sqrt(4.0 * math.cos(t) ** 2 + 0.25 * math.sin(t) ** 2)
            assert rho == pytest.approx(expected, abs=1e-8)
        assert grid[16] == pytest.approx(math.pi / 2.0)
        assert states[16][0] == pytest.approx(0.5, abs=1e-8)


class TestNonUnitConstants:
    """The solvers' right-hand sides at constants where each one shows: a
    misplaced eps0 or A is invisible at the unit constants of the figures."""

    CONSTANTS = {"A": 0.5, "eps0": 2.0, "c": 3.0, "lambdaL": 1.5, "hbar": 0.7}
    SIGMAS = (0.5, 2.0, 3.0)

    @staticmethod
    def solver_rhs(monkeypatch, solve, params):
        """The rhs that `solve(params)` hands to `solve_rk45`."""
        seen = []
        real = dynamics.solve_rk45
        monkeypatch.setattr(dynamics, "solve_rk45", lambda rhs, *args, **kwargs: (
            seen.append(rhs) or real(rhs, *args, **kwargs)))
        solve(params)
        return seen[0]

    @pytest.mark.parametrize("sigma0", SIGMAS)
    def test_rhs_bits_match_the_params_expression(self, sigma0, monkeypatch):
        params = SuperconductorParams(sigma0=sigma0, **self.CONSTANTS)
        grid = np.linspace(0.0, 2.0, 3)
        charge = self.solver_rhs(
            monkeypatch, lambda p: solve_classical(p, 0.7, -0.3, grid), params)
        pinney = self.solver_rhs(
            monkeypatch, lambda p: solve_pinney_numeric(p, t_grid=grid), params)
        mismatches = 0
        for t in np.linspace(-0.5, 8.0, 20):
            t = float(t)
            L = params.L(t)
            for x in np.linspace(-2.5, 3.0, 40):
                x = float(x)
                for v in np.linspace(-4.0, 4.0, 25):
                    v = float(v)
                    damped = -params.sigma(t) / params.eps0 * v - params.omega_sq(t) * x
                    mismatches += charge(t, (x, v)) != (v, damped)
                    mismatches += pinney(t, (x, v)) != (
                        v, damped + 1.0 / (L * L * x * x * x))
        assert mismatches == 0

    @pytest.mark.parametrize("sigma0", SIGMAS)
    def test_numeric_rho_matches_analytic(self, sigma0):
        params = SuperconductorParams(sigma0=sigma0, **self.CONSTANTS)
        states = solve_pinney_numeric(params, t_grid=np.linspace(0.0, 5.0, 51))
        worst = max(abs(s.rho / rho_analytic(params, s.t).rho - 1.0) for s in states)
        assert worst < 1e-6

    @pytest.mark.parametrize("sigma0", SIGMAS)
    def test_invariant_conserved(self, sigma0):
        params = SuperconductorParams(sigma0=sigma0, **self.CONSTANTS)
        grid = np.linspace(0.0, 5.0, 51)
        amplitudes = [rho_analytic(params, float(t)) for t in grid]
        for q0, q_dot0 in ((1.0, 0.0), (0.0, 1.0), (0.7, -0.3)):
            values = [invariant_value(params, cs, ps) for cs, ps in
                      zip(solve_classical(params, q0, q_dot0, grid), amplitudes)]
            drift = max(abs(v - values[0]) for v in values) / abs(values[0])
            assert drift < 1e-6


class TestClassical:
    def test_undamped_cosine(self):
        params = SuperconductorParams(sigma0=0.0)
        grid = np.linspace(0.0, math.pi, 65)
        states = solve_classical(params, 1.0, 0.0, grid)
        for state in states:
            assert state.q == pytest.approx(math.cos(state.t), abs=1e-8)
        assert abs(states[-1].q + 1.0) < 1e-8

    def test_null_solution(self):
        params = SuperconductorParams(sigma0=2.0)
        states = solve_classical(params, 0.0, 0.0, np.linspace(0.0, 3.0, 13))
        assert all(state.q == 0.0 and state.q_dot == 0.0 for state in states)

    def test_damped_envelope_decays(self):
        params = SuperconductorParams(sigma0=2.0)
        grid = np.linspace(0.0, 20.0, 201)
        states = solve_classical(params, 1.0, 0.0, grid)
        # past the last extremum the charge amplitude must not grow
        tail = [abs(s.q) for s in states if s.t > 10.0]
        assert max(tail) < max(abs(s.q) for s in states[:50])

    def test_non_finite_initial_value_is_named(self):
        # used to surface as a StepSizeUnderflowError at t=0.0
        params = SuperconductorParams(sigma0=2.0)
        with pytest.raises(ValueError, match=r"^y0\[0\] must be finite"):
            solve_classical(params, math.nan, 0.0, np.linspace(0.0, 1.0, 5))

    def test_empty_grid_is_named(self):
        # the solver owns the grid check; nothing may index t_grid[0] first
        params = SuperconductorParams(sigma0=2.0)
        with pytest.raises(ValueError, match="^t_eval must be a non-empty"):
            solve_classical(params, 1.0, 0.0, [])

    def test_phi_is_L_times_qdot(self):
        params = SuperconductorParams(sigma0=1.5)
        states = solve_classical(params, 0.3, -0.2, np.linspace(0.0, 4.0, 17))
        for state in states:
            assert state.phi == pytest.approx(params.L(state.t) * state.q_dot,
                                              rel=1e-12, abs=1e-15)


class TestInvariant:
    def test_zero_state(self):
        params = SuperconductorParams(sigma0=2.0)
        cs = ClassicalState(t=0.0, q=0.0, q_dot=0.0, phi=0.0)
        assert invariant_value(params, cs, rho_analytic(params, 0.0)) == 0.0

    def test_static_oscillator_half(self):
        params = SuperconductorParams(sigma0=0.0)
        for t in (0.0, 0.7, 2.0):
            cs = ClassicalState(t=t, q=math.cos(t), q_dot=-math.sin(t),
                                phi=-math.sin(t))
            ps = PinneyState(t=t, rho=1.0, rho_dot=0.0)
            assert invariant_value(params, cs, ps) == pytest.approx(
                0.5, rel=1e-14)

    def test_conserved_along_trajectories(self):
        params = SuperconductorParams(sigma0=2.0)
        grid = np.linspace(0.0, 5.0, 51)
        for q0, q_dot0 in ((1.0, 0.0), (0.0, 1.0), (0.7, -0.3)):
            states = solve_classical(params, q0, q_dot0, grid)
            values = [invariant_value(params, cs,
                                      rho_analytic(params, cs.t))
                      for cs in states]
            drift = max(abs(v - values[0]) for v in values) / abs(values[0])
            assert drift < 1e-6

    def test_time_mismatch(self):
        params = SuperconductorParams(sigma0=2.0)
        cs = ClassicalState(t=1.0, q=1.0, q_dot=0.0, phi=0.0)
        with pytest.raises(TimeMismatchError):
            invariant_value(params, cs, rho_analytic(params, 2.0))


class TestStateValidation:
    def test_pinney_state_requires_positive_rho(self):
        with pytest.raises(ValueError):
            PinneyState(t=0.0, rho=0.0, rho_dot=0.0)

    @settings(deadline=None, max_examples=25)
    @given(sigma0=st.floats(min_value=0.0, max_value=3.0),
           t=st.floats(min_value=0.0, max_value=5.0))
    def test_analytic_state_positive(self, sigma0, t):
        params = SuperconductorParams(sigma0=sigma0)
        assert rho_analytic(params, t).rho > 0.0
