import ast
import dataclasses
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

from tdq import verify
from tdq.dynamics import PinneyState, SuperconductorParams

VERIFY_SOURCE = Path(verify.__file__).read_text()


class TestWorst:
    def test_empty_is_zero(self):
        assert verify._worst([]) == 0.0

    def test_floor_is_zero(self):
        # a signed violation that is <= 0 holds, and reads 0.0
        result = verify._worst([-3.0, -1e-300, -0.0])
        assert result == 0.0 and math.copysign(1.0, result) == 1.0

    def test_largest(self):
        assert verify._worst([1e-16, 3e-12, -5.0, 2e-12]) == 3e-12

    @pytest.mark.parametrize("residuals", [
        [math.nan, 1.0, 2.0], [1.0, math.nan, 2.0], [1.0, 2.0, math.nan], [-1.0, math.nan]])
    def test_nan_anywhere_is_nan(self, residuals):
        assert math.isnan(verify._worst(residuals))

    def test_reads_past_a_nan_to_the_end(self):
        # a check's note is returned after its last residual, so the
        # reduction must drain the generator whatever it meets
        residuals = iter([1.0, math.nan, 2.0, math.nan, 3.0])
        assert math.isnan(verify._worst(residuals))
        assert next(residuals, None) is None

    def test_numpy_values(self):
        result = verify._worst(np.array([1e-15, 4e-15, 2e-15]))
        assert result == 4e-15 and type(result) is float
        assert math.isnan(verify._worst(np.array([1e-15, np.nan, 2e-15])))


def _fails_with_nan(check, base):
    result = check(base)
    assert not result.passed
    assert math.isnan(result.residual)


# Mutants that put one NaN into what a check measures, past its first
# point; a running max(0.0, r) dropped each of them, and the check passed.
class TestNaNMutants:
    def test_density_nan_at_n3(self, monkeypatch):
        real = verify.density_values

        def mutant(snap, q):
            return real(snap, q) * (math.nan if snap.n == 3 else 1.0)

        monkeypatch.setattr(verify, "density_values", mutant)
        _fails_with_nan(verify.check_density_normalization, 1e-8)

    @staticmethod
    def nan_measures_at(n, monkeypatch):
        real = verify.measures

        def mutant(level, *method):
            got = real(level, *method)
            if level.n != n:
                return got
            nan = np.full_like(got.H, math.nan)  # one per time, as a level's measures
            return dataclasses.replace(got, entropy_S=nan, H=nan,
                                       disequilibrium_D=nan, complexity_C=math.nan)

        monkeypatch.setattr(verify, "measures", mutant)

    @pytest.mark.parametrize("check, base", [
        (verify.check_diseq_closed_vs_quadrature, 1e-8),
        (verify.check_lmc_complexity_lower_bound, 1e-9)])
    def test_measures_nan_at_n2(self, check, base, monkeypatch):
        self.nan_measures_at(2, monkeypatch)
        _fails_with_nan(check, base)

    def test_measures_nan_at_n0_keeps_the_note(self, monkeypatch):
        # the first C is NaN; the note, which the generator returns after
        # its last residual, is there because `_worst` reads past the NaN
        self.nan_measures_at(0, monkeypatch)
        result = verify.check_complexity_ground_state_value(1e-9)
        assert not result.passed and math.isnan(result.residual)
        assert result.note == "C(n=0)=nan target sqrt(e/2)=1.165821990799"

    def test_rho_dot_nan_at_t_2_5(self, monkeypatch):
        real = verify.rho_analytic

        def mutant(params, t):
            state = real(params, t)
            return PinneyState(t, state.rho, math.nan) if t == 2.5 else state

        monkeypatch.setattr(verify, "rho_analytic", mutant)
        _fails_with_nan(verify.check_lc_limit, 1e-12)


def _function_defs():
    tree = ast.parse(VERIFY_SOURCE)
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_every_check_reduces_through_worst():
    # one reduction: every check is a generator declared `@_check(base)`,
    # which names the result and reduces the residuals with `_worst`
    defs = _function_defs()
    for fn, base in verify._ALL_CHECKS:
        node = defs[fn.__name__]
        [decorator] = node.decorator_list
        assert isinstance(decorator, ast.Call), fn.__name__
        assert ast.unparse(decorator.func) == "_check", fn.__name__
        assert ast.literal_eval(decorator.args[0]) == base, fn.__name__
        assert inspect.isgeneratorfunction(fn.__wrapped__), fn.__name__
        # `_check` names the result: no literal of the name in the body
        literals = {c.value for c in ast.walk(node) if isinstance(c, ast.Constant)}
        assert fn.__name__.removeprefix("check_") not in literals, fn.__name__
    # only `_check` builds a result, that of a raising check too
    builders = {name for name, node in defs.items()
                if any(isinstance(c, ast.Call) and ast.unparse(c.func) == "CheckResult"
                       for c in ast.walk(node))}
    assert builders == {"_check"}
    assert "max(worst" not in VERIFY_SOURCE


def test_pinney_residual_sees_a_misplaced_eps0_in_omega_sq(monkeypatch):
    # sigma_dot eps0 in place of sigma_dot / eps0: invisible at eps0 = 1, so
    # only the check's non-unit constants can show it, and only if the
    # Pinney right-hand side reads omega^2 from SuperconductorParams
    monkeypatch.setattr(SuperconductorParams, "omega_sq",
                        lambda self, t: self.omega0_sq + self.sigma_dot(t) * self.eps0)
    result = verify.check_pinney_residual_analytic(1e-6)
    assert not result.passed
    assert result.residual > 1.0
