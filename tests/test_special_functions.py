import ast
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from tdq import special_functions, verify
from tdq.errors import ConvergenceError, DomainError, EnvelopeError, TdqError
from tdq.special_functions import (
    _bessel_jy,
    _bessel_modulus_sq,
    _debye_phase,
    _legendre_and_prev,
    _legendre_nodes_weights,
    bessel_jy,
    bessel_modulus_sq,
    gauss_legendre,
    hermite,
    hermite_function,
    hyp1f1_special,
    hyp2f2_special,
)


class TestBesselJ:
    def test_half_order_closed_form(self):
        x = math.pi / 2.0
        assert bessel_jy(0.5, x)[0] == pytest.approx(2.0 / math.pi, rel=1e-13)

    def test_small_argument_limit(self):
        assert abs(bessel_jy(0.0, 1e-8)[0] - 1.0) < 1e-15

    def test_three_halves_closed_form(self):
        x = 2.0
        expected = math.sqrt(2.0 / (math.pi * x)) * (math.sin(x) / x - math.cos(x))
        assert bessel_jy(1.5, x)[0] == pytest.approx(expected, rel=1e-12)

    def test_envelope(self):
        for order, x in ((11.0, 1.0), (1.0, 0.0), (1.0, 51.0), (-0.5, 1.0), (math.nan, 1.0)):
            message = (f"Bessel order {order!r} and argument {x!r} outside the "
                       "supported envelope [0, 10.0] x (0, 50.0]")
            with pytest.raises(EnvelopeError, match=f"^{re.escape(message)}$"):
                bessel_jy(order, x)

    @pytest.mark.parametrize("nu", [0.0, 0.5, 0.7, 1.0, 1.75, 2.0, 2.3, 10.0])
    @pytest.mark.parametrize("x", [0.1, 1.0, 6.0, 25.0, 50.0])
    def test_against_extended_precision(self, nu, x):
        assert bessel_jy(nu, x)[0] == pytest.approx(
            oracles.bessel_mp("j", nu, x), rel=1e-10, abs=1e-13)

    def test_against_scipy_grid(self):
        from scipy.special import jv
        for nu in (0.0, 0.25, 0.9, 1.0, 1.5, 3.0):
            for x in (0.3, 2.0, 9.5):
                assert bessel_jy(nu, x)[0] == pytest.approx(float(jv(nu, x)),
                                                            rel=1e-10, abs=1e-12)


class TestBesselY:
    def test_half_order_closed_form(self):
        for x in (0.5, 1.0, 2.0, 7.0):
            expected = -math.sqrt(2.0 / (math.pi * x)) * math.cos(x)
            assert bessel_jy(0.5, x)[1] == pytest.approx(expected, rel=1e-12)

    def test_three_halves_closed_form(self):
        x = 2.0
        expected = -math.sqrt(2.0 / (math.pi * x)) * (math.cos(x) / x + math.sin(x))
        assert bessel_jy(1.5, x)[1] == pytest.approx(expected, rel=1e-9)

    def test_integer_orders_against_scipy(self):
        from scipy.special import yn
        for n in (0, 1, 2, 5):
            for x in (0.2, 1.0, 4.0, 10.0, 30.0):
                assert bessel_jy(float(n), x)[1] == pytest.approx(float(yn(n, x)),
                                                                  rel=1e-9, abs=1e-12)

    def test_non_integer_against_extended_precision(self):
        for nu in (0.7, 0.75, 0.9, 1.25, 2.3):
            for x in (0.5, 2.0, 10.0, 50.0):
                assert bessel_jy(nu, x)[1] == pytest.approx(
                    oracles.bessel_mp("y", nu, x), rel=1e-9, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            bessel_jy(1.0, -1.0)

    def test_wronskian_spec_grid(self):
        for nu in (0.5, 1.0, 1.5, 2.3):
            for x in (0.5, 1.0, 2.0, 5.0, 10.0):
                j, y, jp, yp = bessel_jy(nu, x)
                wronskian = j * yp - jp * y
                assert wronskian == pytest.approx(2.0 / (math.pi * x), rel=1e-8)

    @pytest.mark.parametrize("eps", [2.2e-16, -4e-16, 5e-10, -9e-7])
    def test_near_integer_orders_against_extended_precision(self, eps):
        # a reflection formula through sin(nu pi) would cancel here
        for n in (0, 1, 2, 3, 7):
            for nu in (n + eps, -(n + eps)):
                if nu < 0.0:
                    continue
                for x in (0.3, 1.0, 5.0, 12.0, 19.9):
                    assert bessel_jy(nu, x)[1] == pytest.approx(
                        oracles.bessel_mp("y", nu, x), rel=1e-11)

    def test_wronskian_near_integer_orders(self):
        for nu in (2.0 - 4e-16, 1.0 + 5e-10, 3.0 - 9e-7, 3.0 + 1.1e-6):
            for x in (0.3, 1.0, 4.0, 12.0):
                j, y, jp, yp = bessel_jy(nu, x)
                wronskian = j * yp - jp * y
                assert wronskian == pytest.approx(2.0 / (math.pi * x), rel=1e-8)

    @settings(deadline=None, max_examples=40)
    @given(nu=st.floats(min_value=0.05, max_value=4.0),
           x=st.floats(min_value=0.3, max_value=12.0))
    def test_wronskian_property(self, nu, x):
        j, y, jp, yp = bessel_jy(nu, x)
        wronskian = j * yp - jp * y
        assert wronskian == pytest.approx(2.0 / (math.pi * x), rel=1e-8)


class TestBesselPair:
    @pytest.mark.parametrize("nu", [0.75, 0.0, 0.5, 1.0, 2.0, 2.3])
    @pytest.mark.parametrize("x", [0.5, 3.0, 12.0, 19.9])
    def test_bit_identical_to_single_functions(self, nu, x):
        # the public call returns the kernel's four results unchanged, on
        # both sides of the Temme/CF2 split at x = 2
        assert bessel_jy(nu, x) == _bessel_jy(nu, x)

    @pytest.mark.parametrize("check, kernel_runs", [
        (verify.check_bessel_wronskian, 20),
        (verify.check_bessel_half_integer_closed_forms, 10),
        (verify.check_bessel_modulus_vs_asymptotic, 15),
    ])
    def test_verify_runs_the_kernel_once_per_point(self, check, kernel_runs, monkeypatch):
        # each (order, argument) takes its (J, Y, J', Y') from one kernel run
        calls = []

        def counting(nu, x):
            calls.append((nu, x))
            return _bessel_jy(nu, x)

        monkeypatch.setattr(special_functions, "_bessel_jy", counting)
        assert check(dict(verify._ALL_CHECKS)[check]).passed
        assert len(calls) == len(set(calls)) == kernel_runs


class TestBesselModulus:
    @pytest.mark.parametrize("x", [20.0, 27.5, 50.0])
    def test_terminating_half_integer_orders(self, x):
        # M^2 = 2/(pi x) at order 1/2 and (2/(pi x))(1 + 1/x^2) at order 3/2;
        # M M' is half the derivative of each
        m2, m_dm = bessel_modulus_sq(0.5, x)
        assert m2 == pytest.approx(2.0 / (math.pi * x), rel=1e-15)
        assert m_dm == pytest.approx(-1.0 / (math.pi * x * x), rel=1e-15)
        m2, m_dm = bessel_modulus_sq(1.5, x)
        assert m2 == pytest.approx(2.0 / (math.pi * x) * (1.0 + 1.0 / x ** 2), rel=1e-15)
        assert m_dm == pytest.approx(-1.0 / math.pi * (1.0 / x ** 2 + 3.0 / x ** 4),
                                     rel=1e-15)

    @pytest.mark.parametrize("nu", [0.0, 0.6, 1.0, 3.7, 7.5, 10.0])
    @pytest.mark.parametrize("x", [20.0, 31.0, 50.0])
    def test_against_extended_precision(self, nu, x):
        m2_ref, m_dm_ref = oracles.bessel_modulus_mp(nu, x)
        m2, m_dm = bessel_modulus_sq(nu, x)
        assert m2 == pytest.approx(m2_ref, rel=1e-15)
        assert m_dm == pytest.approx(m_dm_ref, rel=4e-15)

    @pytest.mark.parametrize("nu", [0.0, 0.5, 2.0 - 5e-10, 3.7, 10.0])
    @pytest.mark.parametrize("x", [1e-3, 1.9, 2.0, 10.0, 19.999999999999996])
    def test_below_20_is_the_checked_kernel(self, nu, x):
        j, y, jp, yp = bessel_jy(nu, x)
        assert bessel_modulus_sq(nu, x) == (j * j + y * y, j * jp + y * yp)

    def test_outside_the_envelope_raises(self):
        # the public entry checks the envelope on both sides of x = 20
        with pytest.raises(EnvelopeError, match="order 11.0 and argument 10.0"):
            bessel_modulus_sq(11.0, 10.0)
        with pytest.raises(DomainError):
            bessel_modulus_sq(1.0, 0.0)
        with pytest.raises(EnvelopeError):
            bessel_modulus_sq(1.0, math.nan)
        with pytest.raises(EnvelopeError, match="order 25.0 and argument 20.0"):
            bessel_modulus_sq(25.0, 20.0)
        with pytest.raises(EnvelopeError, match="order 3.0 and argument 60.0 outside"):
            bessel_modulus_sq(3.0, 60.0)
        with pytest.raises(EnvelopeError):
            bessel_modulus_sq(math.nan, 30.0)
        # the unchecked kernel's series still raises once x is too small for
        # the order, rather than lose precision
        with pytest.raises(ConvergenceError, match="nu=25.0, x=20.0"):
            _bessel_modulus_sq(25.0, 20.0)
        with pytest.raises(ConvergenceError):
            _bessel_modulus_sq(math.nan, 30.0)


class TestNonFiniteResults:
    """Inside the envelope a tiny x can overflow Y or lose J to NaN; the
    public entries raise EnvelopeError naming the order and x instead."""

    # at (0.5, 1e-60) Temme's Y_mu cancels away, which leaves no Wronskian
    # to scale J by
    @pytest.mark.parametrize("entry", [bessel_jy, bessel_modulus_sq])
    @pytest.mark.parametrize("order, x", [(0.5, 1e-300), (10.0, 1e-40), (3.0, 1e-100),
                                          (0.5, 1e-60)])
    def test_entry_raises(self, entry, order, x):
        with pytest.raises(EnvelopeError, match=re.escape(
                f"Bessel order {order!r} and argument {x!r} give the non-finite")):
            entry(order, x)

    @pytest.mark.parametrize("order", [0.0, 0.25, 0.5 - 1e-9, 0.5, 1.5, 2.5, 10.0])
    def test_finite_results_or_a_tdq_error(self, order):
        # x log-spaced down to the smallest subnormal, then across the rest
        for x in [10.0 ** -e for e in range(0, 324, 7)] + [5e-324, 2.0, 20.0, 50.0]:
            for entry in (bessel_jy, bessel_modulus_sq):
                try:
                    results = entry(order, x)
                except TdqError:
                    continue
                assert all(map(math.isfinite, results)), (entry.__name__, order, x)


def test_package_code_calls_the_kernels():
    # package code passes its own context to `_checked` or checks the
    # envelope itself and calls a kernel; only `special_functions` (which
    # defines the public entries) and `verify` (which tests them) call those
    callers = []
    for path in sorted(Path(special_functions.__file__).parent.glob("*.py")):
        if path.stem in ("special_functions", "verify"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name in ("bessel_jy", "bessel_modulus_sq"):
                    callers.append(f"{path.name}:{node.lineno} calls {name}")
    assert callers == []


class TestDebyePhase:
    @pytest.mark.parametrize("nu", [0.5, 1.0, 2.0 - 5e-10, 2.0, 4.7, 10.0])
    def test_within_bound_of_the_phase(self, nu):
        # `phase` takes its 2 pi branch from the difference of two
        # estimates, which is safe while their errors sum to less than pi.
        # The phase arg(J + iY) rises from -pi/2 with slope 2/(pi x M^2) <= 1
        # for nu >= 1/2, so unwrapping atan2(Y, J) on steps of 0.025 follows it.
        xs = np.linspace(0.0, 50.0, 2001)[1:]
        raw = [math.atan2(*_bessel_jy(nu, x)[1::-1]) for x in xs]
        phases = np.unwrap([-0.5 * math.pi, *raw])[1:]
        estimates = np.array([_debye_phase(nu, x) for x in xs])
        assert np.max(np.abs(estimates - phases)) <= 0.53


class TestHermite:
    def test_low_orders(self):
        assert hermite(0).coefficients == (1,)
        assert hermite(0).roots == ()
        assert hermite(1).coefficients == (0, 2)
        assert hermite(2).coefficients == (-2, 0, 4)
        assert hermite(4).coefficients == (12, 0, -48, 0, 16)

    def test_h2_roots(self):
        roots = hermite(2).roots
        assert roots[1] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
        assert roots[0] == -roots[1]

    def test_h3_roots(self):
        roots = hermite(3).roots
        assert roots[1] == 0.0
        assert roots[2] == pytest.approx(math.sqrt(1.5), abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_roots_symmetric_and_residual(self, n):
        # exact symmetry: the closed-form entropy sums each root pair once
        table = hermite(n)
        for k, r in enumerate(table.roots):
            assert r == -table.roots[n - 1 - k]
            assert oracles.hermite_root_error_mp(n, r) <= 1e-15

    @pytest.mark.parametrize("n", range(1, 13))
    def test_integer_newton_step_matches_fractions(self, n):
        table = hermite(n)
        for r in table.roots:
            assert verify._newton_step(table.coefficients, r) == \
                oracles.hermite_newton_step_fraction(n, r)

    @settings(deadline=None, max_examples=40)
    @given(n=st.integers(min_value=1, max_value=12),
           r=st.floats(min_value=-6.0, max_value=6.0))
    @example(n=2, r=5e-324)
    def test_integer_newton_step_matches_fractions_anywhere(self, n, r):
        try:
            want = oracles.hermite_newton_step_fraction(n, r)
        except (ZeroDivisionError, OverflowError) as exc:
            # ZeroDivisionError: r is a root of H_n' (r = 0 for even n);
            # OverflowError: the step ~ -1/(4r) of even n exceeds a float
            with pytest.raises(type(exc)):
                verify._newton_step(hermite(n).coefficients, r)
            return
        assert verify._newton_step(hermite(n).coefficients, r) == want

    def test_roots_against_scipy(self):
        from scipy.special import roots_hermite
        for n in (4, 9, 12):
            reference = roots_hermite(n)[0]
            assert np.allclose(hermite(n).roots, reference, atol=1e-12)

    def test_negative_order_names_n(self):
        # the recurrence alone would return h_1 for every n < 0
        with pytest.raises(DomainError, match="^quantum number must be an integer >= 0, got n=-1$"):
            hermite_function(-1, 0.5)

    def test_orthogonality(self):
        nodes, weights = gauss_legendre(200, -10.0, 10.0)
        for m in range(13):
            hm = hermite_function(m, nodes)
            for n in range(13):
                got = float(np.dot(weights, hm * hermite_function(n, nodes)))
                assert abs(got - (1.0 if m == n else 0.0)) < 1e-8


class TestDawsonAndHypergeometric:
    def test_top_of_envelope_against_extended_precision(self):
        # x in (5.25, 6]: the alternating series cancels most here, 1F1
        # from terms up to 3e15 to a sum near -1e-2; summed exactly and
        # rounded once, both are within half an ulp
        for x in np.linspace(5.25, 6.0, 31)[1:]:
            z = -float(x) * float(x)
            f11, f22 = oracles.hypergeometric_mp(z)
            assert abs(hyp1f1_special(z) - f11) <= 2.0 ** -53 * abs(f11)
            assert abs(hyp2f2_special(z) - f22) <= 2.0 ** -53 * abs(f22)

    def test_hyp1f1_at_zero(self):
        assert hyp1f1_special(0.0) == 1.0

    def test_hyp1f1_via_dawson_oracle(self):
        got = hyp1f1_special(-1.0)
        want = 1.0 - 2.0 * oracles.dawson_trapezoid(1.0)
        assert got == pytest.approx(want, abs=1e-10)

    def test_hyp1f1_extended_precision(self):
        assert hyp1f1_special(-4.0) == pytest.approx(
            oracles.hyp1f1_fraction_series(-4.0), rel=1e-9)

    def test_hyp1f1_guards(self):
        with pytest.raises(DomainError):
            hyp1f1_special(0.5)
        with pytest.raises(EnvelopeError):
            hyp1f1_special(-40.0)

    @pytest.mark.parametrize("fn", [hyp1f1_special, hyp2f2_special],
                             ids=lambda fn: fn.__name__)
    def test_nan_argument_names_z(self, fn):
        # NaN fails `z <= 0` but also passes `z > 0`
        with pytest.raises(DomainError, match=f"^{fn.__name__} requires z <= 0, got z=nan"):
            fn(math.nan)

    def test_hyp2f2_at_zero(self):
        assert hyp2f2_special(0.0) == 1.0

    def test_hyp2f2_integral_representation(self):
        # term-by-term integration gives 2F2(1,1;3/2,2;-x^2) = (2/x) int_0^1 F(xv) dv
        assert hyp2f2_special(-1.0) == pytest.approx(
            oracles.hyp2f2_dawson_integral(1.0), abs=5e-8)

    def test_hyp2f2_extended_precision(self):
        assert hyp2f2_special(-9.0) == pytest.approx(
            oracles.hyp2f2_fraction_series(-9.0), rel=1e-12)

    @pytest.mark.parametrize("z", [-0.25, -1.0, -4.0, -9.0, -16.0, -25.0, -36.0])
    def test_raw_series_equivalence_envelope(self, z):
        assert hyp1f1_special(z) == pytest.approx(
            oracles.hyp1f1_fraction_series(z), rel=1e-9)
        assert hyp2f2_special(z) == pytest.approx(
            oracles.hyp2f2_fraction_series(z), rel=1e-9)

    @settings(deadline=None, max_examples=40)
    @given(z=st.floats(min_value=-36.0, max_value=0.0))
    @example(z=-0.25)
    @example(z=-1.0)
    @example(z=-4.0)
    @example(z=-9.0)
    @example(z=-25.0)
    @example(z=-5.3 ** 2)
    @example(z=-36.0)
    @example(z=-0.0)
    @example(z=-5e-324)
    def test_integer_ratio_series_match_fractions(self, z):
        assert hyp1f1_special(z) == oracles.hyp1f1_fraction_series(z)
        assert hyp2f2_special(z) == oracles.hyp2f2_fraction_series(z)

    @pytest.mark.parametrize("n", range(15))
    def test_pair_at_exact_squared_roots(self, n):
        # the entropy's Dawson term needs the series at -x^2 exactly, not
        # at the rounded -x*x: z = -p^2/q^2 for each root x = p/q of H_n
        for x in hermite(n).roots:
            p, q = x.as_integer_ratio()
            z = Fraction(-p * p, q * q)
            assert special_functions._hyp_pair(-p * p, q * q) == (
                oracles.hyp1f1_fraction_series(z), oracles.hyp2f2_fraction_series(z))

    @pytest.mark.parametrize("z", [-1e-300, -0.3, -0.8540326565981969, -5.3 ** 2, -36.0])
    def test_pair_precision_doubling_keeps_the_result(self, z, monkeypatch):
        # from 8 bits the error bound cannot decide the rounding until the
        # scale has doubled past the 2^70 tail cut, so every pass but the
        # last is rejected; -0.854... is the float nearest the zero of 1F1
        ratio = z.as_integer_ratio()
        want = special_functions._hyp_pair(*ratio)
        monkeypatch.setattr(special_functions, "_HYP_START_BITS", 8)
        assert special_functions._hyp_pair(*ratio) == want

    def test_series_out_of_terms_names_z(self):
        # far outside the envelope the terms still grow after 400 of them
        with pytest.raises(ConvergenceError, match=r"z=-10000\.0$"):
            special_functions._hyp_pair(*(-1e4).as_integer_ratio())

    def test_quadrature_check_passes_with_margin(self):
        result = verify.check_hypergeometric_vs_quadrature(2e-13)
        assert result.passed and result.residual < 1e-14

    def test_quadrature_check_fails_on_perturbed_hyp2f2(self, monkeypatch):
        monkeypatch.setattr(verify, "hyp2f2_special",
                            lambda z: hyp2f2_special(z) * (1.0 + 1e-12))
        result = verify.check_hypergeometric_vs_quadrature(2e-13)
        assert not result.passed
        assert result.residual > 5e-13

    def test_hyp2f2_guards(self):
        with pytest.raises(DomainError):
            hyp2f2_special(1.0)
        with pytest.raises(EnvelopeError):
            hyp2f2_special(-37.0)


class TestBellPartial:
    def test_single_partition_cases(self):
        assert oracles.bell_partial(4, 4, [2.0]) == pytest.approx(16.0)
        assert oracles.bell_partial(3, 1, [5.0, 7.0, 11.0]) == pytest.approx(11.0)

    def test_b42_explicit(self):
        a1, a2, a3 = 1.3, -0.7, 2.1
        expected = 3.0 * a2 ** 2 + 4.0 * a1 * a3
        assert oracles.bell_partial(4, 2, [a1, a2, a3]) == pytest.approx(
            expected, rel=1e-14)

    def test_matches_enumeration_to_m8(self):
        args = [1.0, -2.0, 3.0, 0.5, -1.5, 2.5, 0.25, -0.75]
        for m in range(1, 9):
            for l in range(1, m + 1):
                got = oracles.bell_partial(m, l, args[: m - l + 1])
                want = oracles.bell_by_partition_enumeration(m, l, args[: m - l + 1])
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_exact_for_integers(self):
        value = oracles.bell_partial(6, 3, [1, 2, 3, 4])
        assert isinstance(value, int)
        assert value == oracles.bell_by_partition_enumeration(6, 3, [1, 2, 3, 4])

    def test_dimension_error(self):
        with pytest.raises(DomainError):
            oracles.bell_partial(4, 2, [1.0, 2.0])

    @settings(deadline=None, max_examples=50)
    @given(st.integers(min_value=1, max_value=7), st.data())
    def test_recurrence_equals_enumeration(self, m, data):
        l = data.draw(st.integers(min_value=1, max_value=m))
        args = data.draw(st.lists(
            st.floats(min_value=-3.0, max_value=3.0),
            min_size=m - l + 1, max_size=m - l + 1))
        got = oracles.bell_partial(m, l, args)
        want = oracles.bell_by_partition_enumeration(m, l, args)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-9)


class TestGaussLegendre:
    def test_low_order_exactness(self):
        nodes, weights = gauss_legendre(2, -1.0, 1.0)
        assert float(np.dot(weights, nodes * nodes)) == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_gaussian_integral(self):
        nodes, weights = gauss_legendre(200, -8.0, 8.0)
        assert float(np.dot(weights, np.exp(-nodes * nodes))) == pytest.approx(
            math.sqrt(math.pi), rel=1e-12)

    def test_constant(self):
        nodes, weights = gauss_legendre(5, 0.0, 5.0)
        assert float(np.dot(weights, np.ones_like(nodes))) == pytest.approx(5.0, rel=1e-14)

    def test_rule_invariants(self):
        nodes, weights = gauss_legendre(37, -2.0, 3.0)
        assert np.all(weights > 0.0)
        assert float(np.sum(weights)) == pytest.approx(5.0, rel=1e-12)
        assert np.all(np.diff(nodes) > 0)
        assert nodes[0] > -2.0 and nodes[-1] < 3.0

    def test_against_scipy(self):
        from scipy.special import roots_legendre
        x_ref, w_ref = roots_legendre(64)
        nodes, weights = gauss_legendre(64, -1.0, 1.0)
        assert np.allclose(nodes, x_ref, atol=1e-14)
        assert np.allclose(weights, w_ref, atol=1e-14)

    def test_guards(self):
        with pytest.raises(DomainError):
            gauss_legendre(1, 0.0, 1.0)
        with pytest.raises(DomainError):
            gauss_legendre(10, 1.0, 1.0)

    @pytest.mark.parametrize("n_points, a, b, named", [
        (2.5, 0.0, 1.0, "n_points=2.5"),
        (10.0, 0.0, 1.0, "n_points=10.0"),
        (10, 0.0, math.inf, "b=inf"),
        (10, -math.inf, math.inf, "a=-inf"),
        (10, math.nan, 1.0, "a=nan"),
    ])
    def test_bad_argument_is_named(self, n_points, a, b, named):
        # an infinite end gave NaN nodes and inf weights; a float count
        # raised TypeError from inside numpy
        with pytest.raises(DomainError, match=named):
            gauss_legendre(n_points, a, b)

    @pytest.mark.parametrize("a, b", [(-1.0, 1.0), (-2.5, 7.25)])
    @pytest.mark.parametrize("n", [2, 17, 160, 512])
    def test_plain_pair_of_the_mapped_rule(self, n, a, b):
        # bit for bit the [-1, 1] rule's affine map onto [a, b]
        x, w = _legendre_nodes_weights(n)
        half = 0.5 * (b - a)
        rule = gauss_legendre(n, a, b)
        assert type(rule) is tuple and len(rule) == 2
        nodes, weights = rule
        assert np.array_equal(nodes, 0.5 * (a + b) + half * x)
        assert np.array_equal(weights, half * w)

    def test_numpy_integer_count_accepted(self):
        nodes, _ = gauss_legendre(np.int64(17), 0.0, 5.0)
        assert np.array_equal(nodes, gauss_legendre(17, 0.0, 5.0)[0])

    @pytest.mark.parametrize("n, weight_error", [
        (2, 2.3e-16), (3, 5.6e-16), (17, 1.3e-15), (40, 2.1e-14), (64, 9.3e-14),
        (160, 2.0e-13), (200, 1.5e-14), (512, 1.2e-13), (2000, 4.1e-11)])
    def test_against_mpmath(self, n, weight_error):
        # weight_error: the worst relative weight error of the five-pass
        # kernel this one replaced, at the same nodes; at the ends it is set
        # by the rounding of the node, amplified by ~4/(1 - x^2)
        x, w = _legendre_nodes_weights(n)
        for i in sorted({0, 1, n // 4, n // 2 - 1, n // 2, n - 2, n - 1}):
            node_error, relative_weight_error = oracles.legendre_node_errors_mp(n, x[i], w[i])
            assert node_error <= 1e-16
            assert relative_weight_error <= weight_error

    @pytest.mark.parametrize("n", [2, 3, 16, 17, 160, 161, 511, 512])
    def test_exact_symmetry_and_order(self, n):
        x, w = _legendre_nodes_weights(n)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert np.all(np.diff(x) > 0.0) and np.all(w > 0.0)
        assert not x.flags.writeable and not w.flags.writeable
        if n % 2:
            centre = x[n // 2]
            assert centre == 0.0 and math.copysign(1.0, centre) == 1.0

    @pytest.mark.parametrize("n", [160, 200, 512, 2000])
    def test_at_most_three_recurrence_passes(self, n, monkeypatch):
        calls = []

        def counting(order, x):
            calls.append(order)
            return _legendre_and_prev(order, x)

        monkeypatch.setattr(special_functions, "_legendre_and_prev", counting)
        _legendre_nodes_weights.__wrapped__(n)
        assert len(calls) <= 3

    @pytest.mark.parametrize("n", [2, 3, 40, 513])
    def test_in_place_recurrence_is_bit_identical(self, n):
        x = np.random.default_rng(n).uniform(-1.0, 1.0, 257)
        p_prev, p = np.ones_like(x), x.copy()
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        got, got_prev = _legendre_and_prev(n, x)
        assert np.array_equal(got, p) and np.array_equal(got_prev, p_prev)

    @settings(deadline=None, max_examples=30)
    @given(n=st.integers(min_value=2, max_value=8), data=st.data())
    def test_polynomial_exactness(self, n, data):
        degree = data.draw(st.integers(min_value=0, max_value=2 * n - 1))
        coeffs = data.draw(st.lists(st.floats(min_value=-2.0, max_value=2.0),
                                    min_size=degree + 1, max_size=degree + 1))
        nodes, weights = gauss_legendre(n, -1.5, 2.0)
        got = float(np.dot(weights, np.polynomial.polynomial.polyval(nodes, coeffs)))
        exact = sum(c / (k + 1) * (2.0 ** (k + 1) - (-1.5) ** (k + 1))
                    for k, c in enumerate(coeffs))
        assert got == pytest.approx(exact, rel=1e-11, abs=1e-11)
