import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from tdq import observables, special_functions, verify
from tdq.dynamics import (
    PinneyState,
    SuperconductorParams,
    rho_analytic,
)
from tdq.errors import DomainError, EnvelopeError
from tdq.integrate import adaptive_simpson
from tdq.observables import (
    QuantumSnapshot,
    density_values,
    energy_mean,
    levels,
    make_snapshot,
    moments,
    phase,
    truncation_radius,
    uncertainty_product,
    wavefunction,
)
from tdq.special_functions import hermite, hermite_function


def snapshot_at(sigma0, t, n, **kwargs):
    params = SuperconductorParams(sigma0=sigma0, **kwargs)
    return make_snapshot(params, rho_analytic(params, t), n)


def dense_grid(snapshot, points=200001):
    r = truncation_radius(snapshot)
    return np.linspace(-r, r, points)


class TestPhase:
    def test_zero_at_origin(self):
        params = SuperconductorParams(sigma0=2.0)
        assert phase(params, 0, 0.0) == 0.0

    def test_lc_linear_phase(self):
        params = SuperconductorParams(sigma0=0.0)
        assert phase(params, 0, 2.0) == pytest.approx(-1.0, rel=1e-10)
        assert phase(params, 2, 1.0) == pytest.approx(-2.5, rel=1e-10)

    def test_derivative_matches_integrand(self):
        params = SuperconductorParams(sigma0=2.0)
        h = 1e-4
        for n, t in ((0, 0.5), (1, 1.2)):
            derivative = (phase(params, n, t + h)
                          - phase(params, n, t - h)) / (2.0 * h)
            state = rho_analytic(params, t)
            assert derivative == pytest.approx(
                -(n + 0.5) / (params.L(t) * state.rho ** 2), abs=1e-6)


class TestClosedFormPhase:
    @staticmethod
    def simpson_phase(params, n, t):
        return -(n + 0.5) * adaptive_simpson(
            lambda u: 1.0 / (params.L(u) * rho_analytic(params, u).rho ** 2), 0.0, t)

    @pytest.mark.parametrize("sigma0", [0.0, 0.3, 1.0, 2.0, 3.0 - 1e-9, 3.0, 3.5])
    def test_matches_simpson_oracle(self, sigma0):
        # t = 18.5 and 19.5 put the Bessel argument t + 1 on either side of
        # 20, where rho_analytic switches to the modulus series
        params = SuperconductorParams(sigma0=sigma0)
        for n, t in ((0, 0.1), (1, 3.0), (0, 18.5), (2, 19.5), (0, 48.0)):
            assert phase(params, n, t) == pytest.approx(
                self.simpson_phase(params, n, t), rel=1e-11)

    def test_scaled_units(self):
        params = SuperconductorParams(sigma0=1.3, A=0.5, eps0=2.0, c=3.0, lambdaL=1.5)
        assert phase(params, 1, 4.0) == pytest.approx(
            self.simpson_phase(params, 1, 4.0), rel=1e-11)

    @pytest.mark.parametrize("t", [math.nan, -2.0, 60.0])
    def test_outside_envelope_names_sigma0_and_t(self, t):
        params = SuperconductorParams(sigma0=2.0)
        with pytest.raises(EnvelopeError, match=re.escape(f"phase at sigma0=2.0, t={t!r}")):
            phase(params, 0, t)

    def test_envelope_message_in_full(self):
        with pytest.raises(EnvelopeError) as info:
            phase(SuperconductorParams(sigma0=2.0), 0, 60.0)
        assert str(info.value) == (
            "phase at sigma0=2.0, t=60.0: Bessel order 1.5 and argument 61.0 "
            "outside the supported envelope [0, 10.0] x (0, 50.0]")

    def test_start_outside_envelope(self):
        # k = 60 fails at t = 0 itself, even where k (A t + 1) is back inside
        params = SuperconductorParams(sigma0=2.0, c=60.0)
        with pytest.raises(EnvelopeError, match="phase at sigma0=2.0, t=-0.5"):
            phase(params, 0, -0.5)

    def test_non_finite_bessel_values_name_sigma0_and_t(self):
        # at k = 1e-200 the kernel's J is NaN, which round() cannot take
        params = SuperconductorParams(sigma0=2.0, c=1e-200)
        with pytest.raises(EnvelopeError, match=re.escape(
                "phase at sigma0=2.0, t=0.5: Bessel order 1.5 and argument 1e-200 "
                "give the non-finite")):
            phase(params, 0, 0.5)

    def test_non_finite_bessel_slope_raises(self):
        # at k = 1e-150 J and Y are finite but Y' is NaN: phase returned
        # -0.0 there, while rho_analytic already raised
        params = SuperconductorParams(sigma0=2.0, c=1e-150)
        with pytest.raises(EnvelopeError, match=re.escape(
                "phase at sigma0=2.0, t=0.5: Bessel order 1.5 and argument 1e-150 "
                "give the non-finite results (-0.0, ")):
            phase(params, 0, 0.5)
        with pytest.raises(EnvelopeError, match="rho_analytic at sigma0=2.0, t=0.5"):
            rho_analytic(params, 0.5)


class TestPhaseOverOrderEnvelope:
    @pytest.mark.parametrize("sigma0", [0.5, 3.0 - 1e-9, 10.0, 15.0, 19.0])
    def test_matches_extended_precision(self, sigma0):
        # sigma0 = 19 is Bessel order 10, the top of the envelope; at
        # t = 0.01 both Bessel phases sit near -pi/2 and the phase is
        # -2.4e-19 there
        ts = (0.01, 0.5, 2.0, 12.0, 48.0)
        params = SuperconductorParams(sigma0=sigma0)
        for t, want in zip(ts, oracles.phase_mp(sigma0, ts)):
            assert abs(phase(params, 0, t) / want - 1.0) <= 1e-13


class TestWavefunction:
    def test_odd_state_node_at_origin(self):
        snap = snapshot_at(2.0, 0.5, 1)
        assert wavefunction(snap, 0.0) == 0.0

    def test_modulus_ignores_phase_and_slope(self):
        snap = snapshot_at(2.0, 0.5, 2)
        for q in (-1.3, -0.4, 0.0, 0.7, 2.1):
            base = abs(wavefunction(snap, q)) ** 2
            with_phase = abs(wavefunction(snap, q, theta=0.7)) ** 2
            assert with_phase == pytest.approx(base, rel=1e-12, abs=1e-300)
            assert base == pytest.approx(float(density_values(snap, np.array([q]))[0]),
                                         rel=1e-12, abs=1e-300)

    def test_closed_form_density(self):
        snap = snapshot_at(3.0, 0.5, 1)
        rho, hbar = snap.rho, snap.hbar
        for q in (-0.9, 0.3, 1.4):
            xi = q / (math.sqrt(hbar) * rho)
            expected = (math.exp(-xi * xi) * (2.0 * xi) ** 2
                        / (math.sqrt(math.pi * hbar) * 2.0 * rho))
            assert abs(wavefunction(snap, q)) ** 2 == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("sigma0, n, t, constants", [
        (2.0, 0, 0.5, {}),
        (2.0, 2, 1.5, {}),
        (0.5, 1, 0.3, dict(A=0.5, eps0=2.0, c=3.0, lambdaL=1.5, hbar=0.7)),
    ])
    def test_chirp_gives_the_covariance(self, sigma0, n, t, constants):
        # The chirp is the only q-dependent phase of psi, so it alone makes
        # the symmetrized covariance Re int psi* q (-i hbar d/dq) psi dq,
        # which the closed form gives as hbar L rho rho' (n + 1/2).  d/dq is
        # a central difference; the integral runs on Gauss-Legendre panels
        # split at the zeros of the density.
        snap = snapshot_at(sigma0, t, n, **constants)
        h = 1e-4
        radius = truncation_radius(snap)
        edges = [-radius, *(snap.scale * np.asarray(hermite(n).roots)), radius]
        x, w = np.polynomial.legendre.leggauss(64)
        total = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            for q, weight in zip(0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w):
                q = float(q)
                slope = (wavefunction(snap, q + h) - wavefunction(snap, q - h)) / (2.0 * h)
                total += weight * (wavefunction(snap, q).conjugate() * q
                                   * -1j * snap.hbar * slope).real
        want = snap.hbar * snap.L * snap.rho * snap.rho_dot * (n + 0.5)
        assert abs(total - want) <= 1e-6 * snap.hbar * (n + 0.5)

    @pytest.mark.parametrize("n, q, constants", [
        (0, 1e200, {}),
        (1, 1e10, dict(hbar=1e-300)),
        (1, math.inf, {}),
        (3, -math.inf, {}),
    ])
    def test_zero_where_the_modulus_is_zero(self, n, q, constants):
        # out where q/scale, its square or the chirp phase overflows,
        # psi takes the limit 0 of its modulus rather than nan
        snap = snapshot_at(2.0, 0.5, n, **constants)
        assert float(density_values(snap, np.array([q]))[0]) == 0.0
        assert wavefunction(snap, q) == 0.0

    def test_ground_state_norm(self):
        snap = snapshot_at(2.0, 1.0, 0)
        q = dense_grid(snap, 20001)
        values = np.abs(wavefunction(snap, q)) ** 2
        assert float(np.trapezoid(values, q)) == pytest.approx(1.0, abs=1e-8)


# psi keeps the bits of `oracles.scalar_wavefunction` at every sigma0,
# both constant sets, every time, n and theta, and these 44 charges: the
# bulk, a tiny charge, the far tails, and 1e200 and -1e305, where h_n is 0
# and the chirp phase overflows
PSI_CHARGES = np.concatenate([np.linspace(-5.0, 5.0, 39), [1e-300, 9.5, -14.0, 1e200, -1e305]])
PSI_TIMES = np.array([0.0, 0.3, 1.7, 9.0])


def complex_hexes(values):
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


class TestWavefunctionOnLevels:
    @pytest.mark.parametrize("constants", [
        {}, dict(A=0.5, eps0=2.0, c=3.0, lambdaL=1.5, hbar=0.7)], ids=["unit", "scaled"])
    def test_level_rows_have_the_bits_of_the_scalar_oracle(self, constants):
        for sigma0 in (0.0, 0.5, 2.0, 3.0, 7.0):
            params = SuperconductorParams(sigma0=sigma0, **constants)
            for level in levels(params, (0, 1, 4, 12), PSI_TIMES):
                for theta in (0.0, 0.7):
                    psi = wavefunction(level, PSI_CHARGES, theta)
                    assert psi.shape == (PSI_TIMES.size, PSI_CHARGES.size)
                    for row, snap in zip(psi, level_rows(level)):
                        want = [oracles.scalar_wavefunction(snap, q, theta)
                                for q in PSI_CHARGES.tolist()]
                        assert complex_hexes(row) == complex_hexes(want)

    def test_scalar_calls_have_the_bits_of_the_scalar_oracle(self):
        params = SuperconductorParams(sigma0=0.5, A=0.5, eps0=2.0, c=3.0, lambdaL=1.5, hbar=0.7)
        for n in (0, 4):
            snap = make_snapshot(params, rho_analytic(params, 1.7), n)
            for q in PSI_CHARGES.tolist():
                got = wavefunction(snap, q, 0.7)
                assert type(got) is complex
                assert complex_hexes([got]) == complex_hexes(
                    [oracles.scalar_wavefunction(snap, q, 0.7)])

    def test_one_row_of_charges_per_time(self):
        level = levels(SuperconductorParams(sigma0=2.0, hbar=0.7), (3,), PSI_TIMES)[0]
        grid = np.stack([PSI_CHARGES * (1.0 + 0.5 * i) for i in range(PSI_TIMES.size)])
        psi = wavefunction(level, grid, 0.7)
        for row, charges, snap in zip(psi, grid, level_rows(level)):
            assert complex_hexes(row) == complex_hexes(
                [oracles.scalar_wavefunction(snap, q, 0.7) for q in charges.tolist()])

    def test_one_theta_per_time(self):
        params = SuperconductorParams(sigma0=2.0)
        level = levels(params, (1,), PSI_TIMES)[0]
        thetas = np.array([phase(params, 1, t) for t in PSI_TIMES.tolist()])
        psi = wavefunction(level, PSI_CHARGES, thetas)
        for row, snap, theta in zip(psi, level_rows(level), thetas.tolist()):
            assert complex_hexes(row) == complex_hexes(
                [oracles.scalar_wavefunction(snap, q, theta) for q in PSI_CHARGES.tolist()])

    def test_modulus_is_the_density(self):
        level = levels(SuperconductorParams(sigma0=3.0, hbar=0.7), (0, 4), PSI_TIMES)[1]
        p = density_values(level, PSI_CHARGES)
        assert np.abs(np.abs(wavefunction(level, PSI_CHARGES, 0.7)) ** 2 - p).max() <= (
            1e-15 * p.max())

    def test_level_with_one_charge_and_snapshot_with_a_charge_array(self):
        # both raised TypeError when psi took one Python float
        level = levels(SuperconductorParams(sigma0=2.0), (2,), PSI_TIMES)[0]
        psi = wavefunction(level, 0.5)
        assert psi.shape == (PSI_TIMES.size, 1)
        assert psi[:, 0].tolist() == [wavefunction(snap, 0.5) for snap in level_rows(level)]
        snap = snapshot_at(2.0, 0.5, 2)
        assert wavefunction(snap, np.array([0.1, 0.2])).tolist() == [
            wavefunction(snap, 0.1), wavefunction(snap, 0.2)]

    @pytest.mark.parametrize("q", [1e300, -1e305])
    def test_zero_without_a_warning_where_q_overflows(self, q):
        level = levels(SuperconductorParams(sigma0=2.0), (0, 3), PSI_TIMES)[1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert wavefunction(snapshot_at(2.0, 0.5, 3), q) == 0j
            assert wavefunction(level, np.array([q, 0.5]))[:, 0].tolist() == [0j] * 4


class TestDensity:
    def test_symmetric(self):
        snap = snapshot_at(1.5, 0.5, 2)
        half = np.linspace(0.04, 6.0, 150)
        grid = np.concatenate([-half[::-1], [0.0], half])  # bitwise symmetric
        p = density_values(snap, grid)
        assert np.array_equal(p, p[::-1])

    def test_normalized_on_wide_grid(self):
        for n in range(5):
            snap = snapshot_at(1.5, 0.5, n)
            q = dense_grid(snap)
            assert oracles.trapezoid_moment(q, density_values(snap, q), 0) == (
                pytest.approx(1.0, abs=1e-8))

    def test_localization_grows_with_conductivity(self):
        # at t = 0.5 the sigma0 = 3 amplitude is smaller, so its ground
        # state is more localized and peaks higher at q = 0
        narrow = rho_analytic(SuperconductorParams(sigma0=3.0), 0.5)
        wide = rho_analytic(SuperconductorParams(sigma0=0.5), 0.5)
        assert narrow.rho < wide.rho
        snap3 = snapshot_at(3.0, 0.5, 0)
        snap05 = snapshot_at(0.5, 0.5, 0)
        zero = np.array([0.0])
        assert density_values(snap3, zero)[0] > density_values(snap05, zero)[0]

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_node_count(self, n):
        snap = snapshot_at(1.5, 0.5, n)
        q = dense_grid(snap, 4001)
        values = hermite_function(n, q / (math.sqrt(snap.hbar) * snap.rho))
        sign_changes = int(np.sum(np.signbit(values[1:]) != np.signbit(values[:-1])))
        assert sign_changes == n
        # and the density is machine-small at the corresponding charges
        p = density_values(snap, math.sqrt(snap.hbar) * snap.rho
                           * np.array(hermite(n).roots))
        if n:
            assert float(p.max()) < 1e-20


    @pytest.mark.parametrize("n", [0, 3])
    def test_digits_where_h_squared_is_subnormal(self, n):
        # at hbar = 1e-300 the width is 8.0e-151; at xi = 27 ... 30 h_n is a
        # normal float but h h is not, and h h / scale was 1.3e-7 off at
        # xi = 27 and 0 beyond.  The rounding of xi, times xi^2, sets the
        # floor: 30^2 * 1.1e-16 = 1e-13.  At xi = 37 the true P ~ 1e-445
        # underflows.
        snap = snapshot_at(2.0, 0.5, n, hbar=1e-300)
        q = snap.scale * np.array([27.0, 27.3, 30.0, 37.0])
        got = density_values(snap, q).tolist()
        want = [oracles.density_mp(n, v, snap.scale) for v in q.tolist()]
        for p, exact in zip(got[:3], want[:3]):
            assert abs(p / float(exact) - 1.0) <= 1.5e-13
        assert got[3] == float(want[3]) == 0.0 < want[3]

    def test_normal_h_squared_keeps_h_h_over_scale(self):
        snap = snapshot_at(2.0, 0.5, 3, hbar=0.7)
        q = np.linspace(-40.0, 40.0, 801) * snap.scale
        h = hermite_function(3, q / snap.scale)
        normal = np.abs(h) >= 2.0 ** -511
        assert 0 < normal.sum() < q.size
        assert density_values(snap, q)[normal].tobytes() == (h * h / snap.scale)[normal].tobytes()


class TestMoments:
    def test_ground_state_value(self):
        snap = QuantumSnapshot(n=0, t=0.0, rho=1.0, rho_dot=0.3, L=1.0,
                               omega_sq=1.0, hbar=1.0)
        assert moments(snap)[2] == pytest.approx(0.5, abs=1e-15)

    def test_first_moments_vanish(self):
        snap = snapshot_at(2.0, 0.5, 2)
        q = dense_grid(snap)
        p = density_values(snap, q)
        assert moments(snap)[0] == 0.0
        assert moments(snap)[1] == 0.0
        assert abs(oracles.trapezoid_moment(q, p, 1)) < 1e-12

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_q2_matches_quadrature(self, n):
        snap = snapshot_at(2.0, 0.7, n)
        q = dense_grid(snap)
        p = density_values(snap, q)
        assert moments(snap)[2] == pytest.approx(
            oracles.trapezoid_moment(q, p, 2), rel=1e-7)

    def test_phi2_with_zero_slope(self):
        snap = QuantumSnapshot(n=2, t=0.0, rho=1.3, rho_dot=0.0, L=7.0,
                               omega_sq=1.0, hbar=2.0)
        assert moments(snap)[3] == pytest.approx(2.0 / 1.3 ** 2 * 2.5, rel=1e-14)


    @pytest.mark.parametrize("L, rho, rho_dot", [
        (1e150, 1e10, 1e3),  # (L rho rho')^2 overflows, (L rho')^2 does not
        (1e100, 1e100, -1.0),
    ])
    def test_finite_where_the_cross_term_squared_overflows(self, L, rho, rho_dot):
        snap = QuantumSnapshot(n=2, t=0.0, rho=rho, rho_dot=rho_dot, L=L, omega_sq=0.7,
                               hbar=1.5)
        exact_L, exact_rho, exact_rho_dot = Fraction(L), Fraction(rho), Fraction(rho_dot)
        phi2 = (Fraction(1.5) / (exact_rho * exact_rho)
                * (1 + (exact_L * exact_rho * exact_rho_dot) ** 2) * Fraction(5, 2))
        assert moments(snap)[3] == pytest.approx(float(phi2), rel=1e-15)
        cross = float(exact_L * exact_rho * exact_rho_dot)
        assert uncertainty_product(snap) == pytest.approx(1.5 * math.hypot(1.0, cross) * 2.5,
                                                          rel=1e-15)
        # a level keeps the bits of its rows, the split and the plain ones
        level = QuantumSnapshot(n=2, t=np.array([0.0, 1.0]), rho=np.array([rho, 0.8]),
                                rho_dot=np.array([rho_dot, -0.3]), L=np.array([L, 1.7]),
                                omega_sq=np.array([0.7, 0.6]), hbar=1.5)
        assert hexes(level_values(level)) == hexes(row_values(level_rows(level)))
        assert all(math.isfinite(v) for quantity in level_values(level) for v in quantity)


class TestUncertainty:
    def test_minimum_at_zero_slope(self):
        snap = QuantumSnapshot(n=3, t=0.0, rho=2.0, rho_dot=0.0, L=5.0,
                               omega_sq=1.0, hbar=0.7)
        assert uncertainty_product(snap) == pytest.approx(0.7 * 3.5, rel=1e-15)

    def test_floor_and_strictness(self):
        params = SuperconductorParams(sigma0=2.0)
        state = rho_analytic(params, 0.5)
        snap = make_snapshot(params, state, 1)
        floor = params.hbar * 1.5
        assert uncertainty_product(snap) > floor + 1e-6  # rho_dot != 0 here
        lc_params = SuperconductorParams(sigma0=0.0)
        lc_snap = make_snapshot(lc_params, rho_analytic(lc_params, 1.0), 1)
        assert uncertainty_product(lc_snap) == pytest.approx(floor, abs=1e-12)

    def test_consistency_with_moments(self):
        snap = snapshot_at(2.5, 1.3, 2)
        _, _, q2, phi2 = moments(snap)
        assert uncertainty_product(snap) == pytest.approx(
            math.sqrt(q2 * phi2), rel=1e-12)

    @settings(deadline=None, max_examples=60)
    @given(rho=st.floats(min_value=0.05, max_value=20.0),
           rho_dot=st.floats(min_value=-10.0, max_value=10.0),
           L=st.floats(min_value=0.1, max_value=50.0),
           n=st.integers(min_value=0, max_value=12))
    def test_floor_property(self, rho, rho_dot, L, n):
        snap = QuantumSnapshot(n=n, t=0.0, rho=rho, rho_dot=rho_dot, L=L,
                               omega_sq=1.0, hbar=1.0)
        assert uncertainty_product(snap) >= (n + 0.5) - 1e-12


class TestEnergy:
    def test_static_spectrum(self):
        params = SuperconductorParams(sigma0=0.0)
        for n in range(4):
            snap = make_snapshot(params, rho_analytic(params, 2.0), n)
            assert energy_mean(snap) == pytest.approx(n + 0.5, rel=1e-12)
        scaled = SuperconductorParams(sigma0=0.0, c=2.0, hbar=3.0)
        state = PinneyState(t=0.0, rho=scaled.omega0_sq ** -0.25, rho_dot=0.0)
        snap = make_snapshot(scaled, state, 1)
        assert energy_mean(snap) == pytest.approx(3.0 * 2.0 * 1.5, rel=1e-12)

    def test_decomposition_identity(self):
        snap = snapshot_at(2.0, 0.8, 3)
        _, _, q2, phi2 = moments(snap)
        expected = phi2 / (2.0 * snap.L ** 2) + 0.5 * snap.omega_sq * q2
        assert energy_mean(snap) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("L, rho, rho_dot", [
        (4e161, 0.158, -2.1e-163),  # L^2 overflows; the rho' term dominates
        (1e200, 1e-10, 0.0),  # L^2 rho^2 overflows; the omega^2 term is all
        (1e200, 3e120, 1e-300),  # L rho overflows too
    ])
    def test_finite_where_L_squared_overflows(self, L, rho, rho_dot):
        snap = QuantumSnapshot(n=2, t=0.0, rho=rho, rho_dot=rho_dot, L=L, omega_sq=0.7,
                               hbar=1.5)
        L, rho, rho_dot = Fraction(L), Fraction(rho), Fraction(rho_dot)
        exact = ((1 + L * L * rho * rho * rho_dot * rho_dot) / (2 * L * L * rho * rho)
                 + Fraction(0.7) * rho * rho / 2) * Fraction(5, 2) * Fraction(1.5)
        assert energy_mean(snap) == pytest.approx(float(exact), rel=1e-15)

    def test_decay_and_sigma_ordering(self):
        per_level = {}
        for sigma0 in (0.4, 0.6, 0.8):
            params = SuperconductorParams(sigma0=sigma0)
            values = [energy_mean(make_snapshot(params,
                                                rho_analytic(params, t), 0)) / 0.5
                      for t in (0.0, 3.0, 5.0)]
            per_level[sigma0] = values
            assert values[1] < values[0]
            assert values[2] < values[1]
        assert per_level[0.8][1] < per_level[0.6][1] < per_level[0.4][1]


class TestSnapshot:
    @pytest.mark.parametrize("build", [
        lambda: QuantumSnapshot(n=-1, t=0.0, rho=1.0, rho_dot=0.0, L=1.0,
                                omega_sq=1.0, hbar=1.0),
        lambda: snapshot_at(2.0, 0.5, -1),
    ], ids=["QuantumSnapshot", "make_snapshot"])
    def test_negative_level_names_n(self, build):
        # a negative level would give <q^2> = hbar rho^2 (n + 1/2) < 0
        with pytest.raises(DomainError, match="^quantum number must be an integer >= 0, got n=-1$"):
            build()

    @pytest.mark.parametrize("n, call", [
        (2.5, lambda n: QuantumSnapshot(n=n, t=0.0, rho=1.0, rho_dot=0.0, L=1.0,
                                        omega_sq=1.0, hbar=1.0)),
        (2.0, lambda n: snapshot_at(2.0, 0.5, n)),
        (-1, lambda n: phase(SuperconductorParams(sigma0=2.0), n, 1.0)),
        (0.5, lambda n: phase(SuperconductorParams(sigma0=2.0), n, 1.0)),
        (2.5, lambda n: hermite_function(n, 0.5)),
        (-1, lambda n: hermite(n)),
    ], ids=["QuantumSnapshot", "make_snapshot", "phase-negative", "phase-fraction",
            "hermite_function", "hermite"])
    def test_level_must_be_a_nonnegative_integer(self, n, call):
        # phase(-1) would return minus the n = 0 phase, and a fractional level
        # would give moments of a state that does not exist
        with pytest.raises(DomainError,
                           match=f"^quantum number must be an integer >= 0, got n={n!r}$"):
            call(n)

    @pytest.mark.parametrize("n", [2**64, 10**400])
    @pytest.mark.parametrize("call, bound_text", [
        (lambda n: QuantumSnapshot(n=n, t=0.0, rho=1.0, rho_dot=0.0, L=1.0,
                                   omega_sq=1.0, hbar=1.0), "quantum numbers support n <= {}"),
        (lambda n: phase(SuperconductorParams(sigma0=2.0), n, 0.5),
         "quantum numbers support n <= {}"),
        # the Hermite bound is tighter, so it is named first
        (lambda n: hermite(n), "Hermite functions support n <= 620"),
        (lambda n: hermite_function(n, 0.5), "Hermite functions support n <= 620"),
    ], ids=["QuantumSnapshot", "phase", "hermite", "hermite_function"])
    def test_level_beyond_an_int64_names_n(self, n, call, bound_text):
        # the n column of a table is int64; past it numpy builds an object
        # column, and float(n) overflows
        bound = special_functions._QUANTUM_NUMBER_MAX
        assert bound == np.iinfo(np.int64).max
        with pytest.raises(EnvelopeError, match=f"^{bound_text.format(bound)}, got n={n}$"):
            call(n)
        assert math.isfinite(phase(SuperconductorParams(sigma0=2.0), bound, 0.5))

    @pytest.mark.parametrize("call", [
        lambda snap: wavefunction(snap, 0.5),
        lambda snap: density_values(snap, np.array([-0.5, 0.0, 0.5])),
    ], ids=["wavefunction", "density_values"])
    def test_level_beyond_the_hermite_envelope_names_n(self, call):
        # past the bound the outer lobes of h_n underflow to 0
        n = special_functions._HERMITE_N_MAX + 1
        with pytest.raises(EnvelopeError, match=f"^Hermite functions support n <= {n - 1}, got n={n}$"):
            call(snapshot_at(2.0, 0.5, n))
        assert np.all(np.isfinite(call(snapshot_at(2.0, 0.5, n - 1))))

    def test_numpy_integer_level_accepted(self):
        snap = snapshot_at(2.0, 0.5, np.int64(2))
        assert moments(snap) == moments(snapshot_at(2.0, 0.5, 2))

    def test_assembly(self):
        params = SuperconductorParams(sigma0=2.0)
        state = rho_analytic(params, 0.5)
        snap = make_snapshot(params, state, 3)
        assert snap.n == 3
        assert snap.t == 0.5
        assert snap.rho == state.rho
        assert snap.L == params.L(0.5)
        assert snap.hbar == params.hbar

    def test_sweep_is_n_major_with_one_amplitude_per_time(self, monkeypatch):
        calls = []

        def counted(params, t):
            calls.append(t)
            return rho_analytic(params, t)

        monkeypatch.setattr(oracles, "rho_analytic", counted)
        params = SuperconductorParams(sigma0=2.0, hbar=3.0)
        sweep = list(oracles.snapshots(params, (2, 0), np.array([0.0, 0.5, 1.0])))
        assert calls == [0.0, 0.5, 1.0]
        assert [(snap.n, snap.t) for snap in sweep] == [
            (2, 0.0), (2, 0.5), (2, 1.0), (0, 0.0), (0, 0.5), (0, 1.0)]
        assert sweep[4] == make_snapshot(params, rho_analytic(params, 0.5), 0)
        assert sweep[4].scale == math.sqrt(3.0) * sweep[4].rho

    def test_moment_check_sees_a_width_without_sqrt_hbar(self, monkeypatch):
        # every q-space density reads `scale`, so only a closed-form moment
        # at hbar != 1 can show it wrong
        assert verify.check_moment_consistency(1e-7).passed
        monkeypatch.setattr(QuantumSnapshot, "scale", property(lambda snap: snap.rho))
        assert not verify.check_moment_consistency(1e-7).passed

    def test_truncation_radius_tail(self):
        snap = snapshot_at(2.0, 0.5, 2)
        r = truncation_radius(snap)
        tail = float(density_values(snap, np.array([r]))[0])
        assert tail < 1e-25


def level_rows(level):
    """The scalar snapshots of a level's times."""
    columns = (level.t, level.rho, level.rho_dot, level.L, level.omega_sq)
    return [QuantumSnapshot(level.n, *row, level.hbar)
            for row in zip(*(column.tolist() for column in columns))]


def level_values(level):
    """Every observable of a level, one list of floats per quantity."""
    _, _, q2, phi2 = moments(level)
    return [q2.tolist(), phi2.tolist(), uncertainty_product(level).tolist(),
            energy_mean(level).tolist()]


def row_values(rows):
    """Every observable of the scalar snapshots, one list per quantity."""
    return [[moments(row)[2] for row in rows], [moments(row)[3] for row in rows],
            [uncertainty_product(row) for row in rows], [energy_mean(row) for row in rows]]


def hexes(values):
    return [[v.hex() for v in quantity] for quantity in values]


# L^2 rho^2 overflows at every time but the first; the others are the rows
# of TestEnergy.test_finite_where_L_squared_overflows
MIXED_LEVEL = QuantumSnapshot(
    n=2, t=np.array([0.0, 1.0, 2.0, 3.0]), rho=np.array([0.8, 1e-10, 3e120, 0.158]),
    rho_dot=np.array([-0.3, 0.0, 1e-300, -2.1e-163]), L=np.array([1.7, 1e200, 1e200, 4e161]),
    omega_sq=np.array([0.6, 0.7, 0.7, 0.7]), hbar=1.5)


# at the middle time q/scale, or its square, overflows at every charge but
# q = 0, so P is 0 there but at q = 0
DENSITY_LEVEL = QuantumSnapshot(
    n=2, t=np.array([0.0, 1.0, 2.0]), rho=np.array([0.8, 1e-300, 3.0]),
    rho_dot=np.array([-0.3, 0.0, 0.1]), L=np.ones(3), omega_sq=np.ones(3), hbar=1.5)


class TestLevels:
    def test_density_rows_have_the_bits_of_the_rows(self):
        q = np.array([-1e10, -2.0, -0.3, 0.0, 1e-5, 0.7, 4.0])
        for grid in (q, np.stack([q, 0.5 * q, 3.0 * q])):  # shared, and one per time
            got = density_values(DENSITY_LEVEL, grid)
            assert got.shape == (3, q.size)
            for i, row in enumerate(level_rows(DENSITY_LEVEL)):
                want = density_values(row, np.broadcast_to(grid, got.shape)[i])
                assert got[i].tobytes() == want.tobytes()
            assert got[1].tolist() == [0.0, 0.0, 0.0, got[1, 3], 0.0, 0.0, 0.0]
            assert math.isfinite(got[1, 3]) and got[1, 3] > 0.0

    @pytest.mark.parametrize("sigma0, c, ts", [
        (0.0, 1.0, np.linspace(0.0, 48.0, 41)),
        (0.8, 1.0, np.linspace(0.0, 5.0, 11)),
        (3.0 - 1e-9, 1.0, np.linspace(0.0, 49.0, 21)),
        (19.0, 1.0, np.linspace(0.0, 48.0, 7)),
        (1.0, 1e-160, np.linspace(3.9e161, 4e161, 2)),  # L^2 overflows at every time
        (1.0, 1e-100, np.linspace(0.0, 4e101, 5)),  # L^2 rho^2 rho'^2 overflows at t = 0 alone
    ])
    def test_level_has_the_bits_of_its_rows(self, sigma0, c, ts):
        params = SuperconductorParams(sigma0=sigma0, c=c, hbar=2.5)
        for level in levels(params, (0, 3), ts):
            assert level.t.tolist() == ts.tolist()
            assert hexes(level_values(level)) == hexes(row_values(level_rows(level)))

    def test_level_mixing_both_energy_branches(self):
        values = level_values(MIXED_LEVEL)
        assert hexes(values) == hexes(row_values(level_rows(MIXED_LEVEL)))
        assert all(math.isfinite(v) for v in values[3])

    def test_levels_share_one_amplitude_per_time(self, monkeypatch):
        calls = []

        def counted(params, t):
            calls.append(t)
            return rho_analytic(params, t)

        monkeypatch.setattr(observables, "rho_analytic", counted)
        params = SuperconductorParams(sigma0=2.0, hbar=3.0)
        ts = np.array([0.0, 0.5, 1.0])
        sweep = levels(params, (2, 0), ts)
        assert calls == [0.0, 0.5, 1.0]
        assert [level.n for level in sweep] == [2, 0]
        assert level_rows(sweep[1]) == list(oracles.snapshots(params, (0,), ts))

    def test_scalar_snapshots_give_unchanged_floats(self):
        # pure + - * / and sqrt, so these bits hold on any IEEE host
        plain = QuantumSnapshot(n=3, t=0.7, rho=0.8123, rho_dot=-0.31, L=1.9,
                                omega_sq=0.6, hbar=2.5)
        overflowing = QuantumSnapshot(n=2, t=0.0, rho=1e-10, rho_dot=0.0, L=1e200,
                                      omega_sq=0.7, hbar=1.5)
        for snap, want in (
                (plain, ["0x1.718169ea7f654p+2", "0x1.04be9041727c4p+4",
                         "0x1.3665b64401ee9p+3", "0x1.fe9de4363a0f0p+1"]),
                (overflowing, ["0x1.622d6fbc91e02p-65", "0x1.4542ba12a337cp+68",
                               "0x1.e000000000000p+1", "0x1.efd93607ff6d0p-67"])):
            values = [*moments(snap), uncertainty_product(snap), energy_mean(snap)]
            assert all(type(v) is float for v in values)
            assert [v.hex() for v in values[2:]] == want
