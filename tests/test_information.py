import dataclasses
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import oracles
from tdq import information, verify
from tdq.dynamics import SuperconductorParams, rho_analytic
from tdq.information import measures
from tdq.observables import QuantumSnapshot, make_snapshot
from tdq.special_functions import hermite, hermite_function


def snapshot_at(sigma0, t, n, **kwargs):
    params = SuperconductorParams(sigma0=sigma0, **kwargs)
    return make_snapshot(params, rho_analytic(params, t), n)


def unit_snapshot(n, rho=1.0, hbar=1.0, rho_dot=0.0):
    return QuantumSnapshot(n=n, t=0.0, rho=rho, rho_dot=rho_dot, L=1.0,
                           omega_sq=1.0, hbar=hbar)


def measures_along(params, n, ts):
    """Quadrature measures at each grid time along the exact amplitude."""
    return [measures(make_snapshot(params, rho_analytic(params, float(t)), n))
            for t in ts]


class TestCoefficients:
    """The closed-form D builds its Bell arguments from the integer
    coefficients of H_n over sqrt(2^n n! sqrt(pi)); those must give the
    orthonormal Hermite function the densities are made of."""

    @pytest.mark.parametrize("n", range(7))
    def test_reproduces_normalized_hermite(self, n):
        norm = math.sqrt(2.0 ** n * math.factorial(n) * math.sqrt(math.pi))
        for x in (-1.7, -0.4, 0.0, 0.9, 2.2):
            poly = sum(q * x ** l for l, q in enumerate(hermite(n).coefficients))
            assert poly / norm * math.exp(-0.5 * x * x) == pytest.approx(
                hermite_function(n, x), rel=1e-12, abs=1e-13)


class TestEntropyQuadrature:
    def test_ground_state_unit_width(self):
        ms = measures(unit_snapshot(0))
        assert ms.entropy_S == pytest.approx(0.5 + math.log(math.sqrt(math.pi)),
                                             abs=1e-9)

    def test_general_gaussian_entropy(self):
        for rho, hbar in ((0.7, 1.0), (2.0, 1.0), (1.1, 2.5)):
            ms = measures(unit_snapshot(0, rho=rho, hbar=hbar))
            expected = 0.5 + math.log(math.sqrt(hbar * math.pi) * rho)
            assert ms.entropy_S == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("n", range(information._MAX_CLOSED_FORM_N + 1))
    def test_reference_values(self, n):
        s_ref, _ = oracles.ENTROPY_DISEQ_X_UNITS[n]
        ms = measures(unit_snapshot(n))
        assert ms.entropy_S == pytest.approx(s_ref, abs=1e-13)

    def test_scaling_law(self):
        for n in (0, 1, 3):
            base = measures(unit_snapshot(n)).entropy_S
            for rho in (0.5, 2.0):
                shifted = measures(unit_snapshot(n, rho=rho)).entropy_S
                assert shifted - base == pytest.approx(math.log(rho), abs=1e-9)


class TestEntropyClosedForm:
    def test_ground_state_empty_sums(self):
        for rho in (0.6, 1.0, 3.0):
            ms = measures(unit_snapshot(0, rho=rho), "closed_form")
            assert ms.entropy_S == pytest.approx(
                0.5 + math.log(math.sqrt(math.pi) * rho), rel=1e-14)

    def test_matches_quadrature_n1(self):
        closed = measures(unit_snapshot(1), "closed_form").entropy_S
        quad = measures(unit_snapshot(1)).entropy_S
        assert abs(closed - quad) < 1e-6

    def test_rho_dependence_is_pure_log(self):
        for n in (1, 2, 4):
            base = measures(unit_snapshot(n), "closed_form").entropy_S
            shifted = measures(unit_snapshot(n, rho=2.5), "closed_form").entropy_S
            assert shifted - base == pytest.approx(math.log(2.5), rel=1e-13)

    def test_printed_formula_against_extended_precision(self):
        # the same formula over the same float roots, summed at 40 digits:
        # what remains is the error of 1F1 and 2F2, not of the summation
        for n in range(information._MAX_CLOSED_FORM_N + 1):
            s_closed, _ = information._level_closed_form(n)
            assert abs(s_closed - oracles.entropy_closed_form_mp(
                n, hermite(n).roots)) <= 2e-14

    def test_isum_coefficient_matches_binomial_sum(self):
        # -2 sum_{odd k <= n} 1/k is the printed sum_i C(n, i) (-2)^i / i exactly
        for n in range(information._MAX_CLOSED_FORM_N + 1):
            printed = sum(Fraction(math.comb(n, i) * (-2) ** i, i) for i in range(1, n + 1))
            assert information._printed_isum_coefficient(n) == printed

    def test_higher_n_residual_is_reported_not_hidden(self):
        # the printed closed form drifts for n >= 2; quadrature is the
        # authority and the residual must stay visible, not be patched
        closed = measures(unit_snapshot(2), "closed_form").entropy_S
        quad = measures(unit_snapshot(2)).entropy_S
        assert closed - quad == pytest.approx(2.0, abs=1e-6)


class TestDisequilibrium:
    def test_closed_form_ground_state(self):
        for rho, hbar in ((1.0, 1.0), (0.5, 1.0), (1.7, 2.0)):
            ms = measures(unit_snapshot(0, rho=rho, hbar=hbar), "closed_form")
            assert ms.disequilibrium_D == pytest.approx(
                1.0 / (rho * math.sqrt(2.0 * math.pi * hbar)), rel=1e-12)

    def test_closed_form_first_excited(self):
        ms = measures(unit_snapshot(1), "closed_form")
        assert ms.disequilibrium_D == pytest.approx(
            3.0 / (4.0 * math.sqrt(2.0 * math.pi)), rel=1e-9)

    def test_quadrature_ground_state(self):
        ms = measures(unit_snapshot(0))
        assert ms.disequilibrium_D == pytest.approx(1.0 / math.sqrt(2.0 * math.pi),
                                                    rel=1e-9)

    @pytest.mark.parametrize("n", range(information._MAX_CLOSED_FORM_N + 1))
    def test_dual_method_equivalence(self, n):
        snap = snapshot_at(2.0, 0.6, n)
        closed = measures(snap, "closed_form").disequilibrium_D
        quad = measures(snap).disequilibrium_D
        assert closed == pytest.approx(quad, rel=1e-13)

    def test_exact_sum_equals_printed_bell_sum(self):
        # H_n^4 moments and the printed Bell form are the same rational
        for n in range(information._MAX_CLOSED_FORM_N + 1):
            exact = information._diseq_reduced_exact(n)
            assert exact == oracles.diseq_printed_bell_sum(n)

    @pytest.mark.parametrize("n", range(information._MAX_CLOSED_FORM_N + 1))
    def test_reference_values(self, n):
        _, d_ref = oracles.ENTROPY_DISEQ_X_UNITS[n]
        closed = measures(unit_snapshot(n), "closed_form")
        assert closed.disequilibrium_D == pytest.approx(d_ref, rel=1e-12)
        assert measures(unit_snapshot(n)).disequilibrium_D == pytest.approx(
            d_ref, rel=1e-13)

    def test_doubling_rho_halves_D(self):
        for n in (0, 2, 5):
            d1 = measures(unit_snapshot(n), "closed_form").disequilibrium_D
            d2 = measures(unit_snapshot(n, rho=2.0), "closed_form").disequilibrium_D
            assert d2 == pytest.approx(0.5 * d1, rel=1e-13)

    def test_high_n_stable(self):
        # the Fraction path keeps n = 12 exact; quadrature agrees
        snap = snapshot_at(1.5, 0.3, 12)
        closed = measures(snap, "closed_form").disequilibrium_D
        quad = measures(snap).disequilibrium_D
        assert closed == pytest.approx(quad, rel=1e-8)


class TestSharedLevelWork:
    """The level constants sum 1F1 and 2F2 in one pass per root pair and
    evaluate h_n once per level; the per-root and per-panel forms give the
    same floats."""

    @pytest.mark.parametrize("n", range(information._MAX_CLOSED_FORM_N + 1))
    def test_closed_form_equals_per_root_sum(self, n):
        assert information._level_closed_form.__wrapped__(n) == \
            oracles.level_closed_form_per_root(n)

    @pytest.mark.parametrize("n", range(information._MAX_CLOSED_FORM_N + 1))
    def test_quadrature_equals_per_panel_sum(self, n):
        assert information._level_quadrature.__wrapped__(n) == \
            oracles.level_quadrature_per_panel(n)

    def test_call_counts(self, monkeypatch):
        calls = dict.fromkeys(("_hyp_pair", "hermite_function"), 0)

        def counting(name, original):
            def counted(*args):
                calls[name] += 1
                return original(*args)
            return counted

        for name in calls:
            monkeypatch.setattr(information, name,
                                counting(name, getattr(information, name)))
        pairs = 0
        for n in range(13):
            before = dict(calls)
            information._level_closed_form.__wrapped__(n)
            assert calls["_hyp_pair"] - before["_hyp_pair"] == (n + 1) // 2
            pairs += (n + 1) // 2
            information._level_quadrature.__wrapped__(n)
            assert calls["hermite_function"] - before["hermite_function"] == 1
        assert pairs == calls["_hyp_pair"] == 42


class TestMeasureSet:
    def test_method_tag_and_unknown_method(self):
        # at unit width the measures are the level constants themselves,
        # so each tag must select its own pair
        snap = unit_snapshot(1)
        for method, level in (("quadrature", information._level_quadrature),
                              ("closed_form", information._level_closed_form)):
            ms = measures(snap, method)
            assert (ms.entropy_S, ms.disequilibrium_D) == level(1)
        assert measures(snap) == measures(snap, "quadrature")
        with pytest.raises(ValueError, match="bogus"):
            measures(snap, "bogus")

    def test_internal_consistency(self):
        snap = snapshot_at(2.0, 0.5, 1)
        ms = measures(snap)
        assert ms.H == pytest.approx(math.exp(ms.entropy_S), rel=1e-12)
        assert ms.complexity_C == pytest.approx(ms.H * ms.disequilibrium_D, rel=1e-12)

    def test_lmc_bound_monitored(self):
        for n in (0, 1, 2, 3):
            snap = snapshot_at(2.0, 1.0, n)
            assert measures(snap).complexity_C >= 1.0 - 1e-9


class TestComplexity:
    def test_ground_state_universal_value(self):
        target = math.sqrt(math.e / 2.0)
        for sigma0, t, hbar in ((0.5, 0.0, 1.0), (2.0, 1.3, 1.0), (3.0, 4.0, 2.0)):
            snap = snapshot_at(sigma0, t, 0, hbar=hbar)
            assert measures(snap).complexity_C == pytest.approx(target, abs=1e-9)

    def test_time_and_conductivity_independence(self):
        ts = np.linspace(0.0, 5.0, 11)
        for n in (0, 1, 2):
            values = []
            for sigma0 in (0.5, 2.0, 3.0):
                params = SuperconductorParams(sigma0=sigma0)
                values.extend(m.complexity_C for m in measures_along(params, n, ts))
            assert max(values) - min(values) < 1e-7

    @pytest.mark.parametrize("method", ["quadrature", "closed_form"])
    def test_one_value_per_level(self, method):
        # C = e^{s_n} d_n holds no width, so every (sigma0, t) of a level
        # gives the same double
        for n in range(information._MAX_CLOSED_FORM_N + 1):
            values = {measures(snapshot_at(sigma0, t, n), method).complexity_C
                      for sigma0 in (0.5, 2.0, 3.0) for t in (0.0, 0.5, 2.0)}
            assert len(values) == 1, (n, values)

    @pytest.mark.parametrize("n", [0, 3])
    @pytest.mark.parametrize("hbar", [1e-300, 1e300])
    def test_extreme_hbar_against_mpmath(self, hbar, n):
        # H = e^{s_n} s and C = e^{s_n} d_n; the width enters H as one
        # factor, where e^{s_n + ln s} would carry |ln s| ~ 345 ulps of S
        ms = measures(snapshot_at(2.0, 0.5, n, hbar=hbar))
        rho, _ = oracles.rho_mp(2.0, 0.5)
        s_n, d_n = oracles.ENTROPY_DISEQ_X_UNITS[n]
        with mp.workdps(40):
            level_H = mp.exp(s_n)
            assert abs(ms.H / (level_H * mp.sqrt(hbar) * rho) - 1) <= 1e-14
            assert abs(ms.complexity_C / (level_H * d_n) - 1) <= 1e-14


class TestMeasuresOverTime:
    """Quadrature measures along the exact amplitude on a time grid."""

    def test_figure_trends_and_rates(self):
        ts = np.linspace(0.0, 2.0, 9)
        h_by_sigma = {}
        d_by_sigma = {}
        for sigma0 in (2.0, 2.5, 3.0):
            params = SuperconductorParams(sigma0=sigma0)
            sets = measures_along(params, 0, ts)
            hs = [m.H for m in sets]
            ds = [m.disequilibrium_D for m in sets]
            idx = len(ts) // 2
            assert hs[-1] < hs[idx] < hs[0]
            assert ds[-1] > ds[idx] > ds[0]
            h_by_sigma[sigma0] = hs
            d_by_sigma[sigma0] = ds
        # larger sigma0 changes faster (ordering checked at t = 1.5, index 6)
        assert d_by_sigma[3.0][6] > d_by_sigma[2.5][6] > d_by_sigma[2.0][6]
        assert h_by_sigma[3.0][6] < h_by_sigma[2.5][6] < h_by_sigma[2.0][6]

    def test_scaling_constants_along_grid(self):
        params = SuperconductorParams(sigma0=2.0)
        ts = np.linspace(0.0, 2.0, 9)
        sets = measures_along(params, 1, ts)
        rhos = [rho_analytic(params, float(t)).rho for t in ts]
        shifted = [m.entropy_S - math.log(r) for m, r in zip(sets, rhos)]
        products = [m.disequilibrium_D * r for m, r in zip(sets, rhos)]
        assert max(shifted) - min(shifted) < 1e-9
        assert max(products) - min(products) < 1e-9


class TestInformationCheck:
    def test_passes_with_margin(self):
        result = verify.check_information_vs_density_quadrature(1e-9)
        assert result.passed and result.residual < 1e-12

    def test_fails_when_scaling_drops_sqrt_hbar(self, monkeypatch):
        # the check integrates P in q directly, so a scaling step that
        # forgets sqrt(hbar) must show at its hbar = 2 snapshot
        scaled = information._scaled

        def scaled_without_hbar(snapshot, s_n, d_n):
            return scaled(dataclasses.replace(snapshot, hbar=1.0), s_n, d_n)

        monkeypatch.setattr(information, "_scaled", scaled_without_hbar)
        result = verify.check_information_vs_density_quadrature(1e-9)
        assert not result.passed
        assert result.residual > 0.1
