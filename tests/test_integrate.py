import ast
import math

import numpy as np
import pytest

import oracles
from tdq import dynamics, integrate
from tdq.dynamics import SuperconductorParams, solve_classical, solve_pinney_numeric
from tdq.errors import StepSizeUnderflowError
from tdq.integrate import adaptive_simpson, solve_rk45


def _decay(t, y):
    # y = (exp(-t), exp(-2t)) from (1, 1) at t = 0
    return (-y[0], -2.0 * y[1])


def _rhs_never_called(t, y):
    raise AssertionError("rhs called despite invalid input")


class TestSolveRK45:
    def test_exponential_decay(self):
        grid = np.linspace(0.0, 5.0, 26)
        out = solve_rk45(_decay, [1.0, 1.0], grid)
        for t, y in zip(grid, out):
            assert y[0] == pytest.approx(math.exp(-t), abs=1e-9)
            assert y[1] == pytest.approx(math.exp(-2.0 * t), abs=1e-9)

    def test_harmonic_oscillator_energy(self):
        grid = np.linspace(0.0, 20.0, 41)
        out = solve_rk45(lambda t, y: (y[1], -y[0]), [1.0, 0.0], grid)
        assert max(abs(q * q + p * p - 1.0) for q, p in out) < 1e-8

    def test_time_dependent_rhs(self):
        # y' = (2 t y0, t y1)  ->  y = (exp(t^2), exp(t^2/2))
        grid = np.linspace(0.0, 2.0, 9)
        out = solve_rk45(lambda t, y: (2.0 * t * y[0], t * y[1]), [1.0, 1.0], grid)
        assert out[-1][0] == pytest.approx(math.exp(4.0), rel=1e-9)
        assert out[-1][1] == pytest.approx(math.exp(2.0), rel=1e-9)

    def test_samples_exactly_on_grid(self):
        seen = []
        grid = np.array([0.0, 0.3, 1.0, 2.5])
        solve_rk45(_decay, [1.0, 1.0], grid,
                   post_step=lambda t, y: seen.append((t, y)))
        for target in grid[1:]:
            assert target in [t for t, _ in seen]
        assert all(type(y) is tuple and len(y) == 2 for _, y in seen)

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="ascending"):
            solve_rk45(_decay, [1.0, 1.0], [0.0, 1.0, 1.0])

    @pytest.mark.parametrize("y0, t_eval, name", [
        ([1.0, 1.0], [0.0, math.nan, 1.0], r"t_eval\[1\]"),
        ([1.0, 1.0], [0.0, math.inf], r"t_eval\[1\]"),
        ([1.0, 1.0], [0.0, -math.inf], r"t_eval\[1\]"),
        ([math.nan, 1.0], [0.0, 1.0], r"y0\[0\]"),
        ([1.0, math.inf], [0.0, 1.0], r"y0\[1\]"),
    ])
    def test_non_finite_input_raises_before_rhs(self, y0, t_eval, name):
        # a NaN sample used to pass the ascending check and an inf sample was
        # never landed on: both hung; a NaN state stalled the step control
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            solve_rk45(_rhs_never_called, y0, t_eval)

    @pytest.mark.parametrize("y0", [[], [1.0], [1.0, 0.0, 0.0]], ids=len)
    def test_state_of_other_than_two_values_raises_before_rhs(self, y0):
        with pytest.raises(ValueError, match="^y0 must hold two values"):
            solve_rk45(_rhs_never_called, y0, [0.0, 1.0])

    def test_post_step_exception_propagates(self):
        def guard(t, y):
            if y[0] < 0.5 or y[1] < 0.5:
                raise StepSizeUnderflowError(t)
        with pytest.raises(StepSizeUnderflowError):
            solve_rk45(_decay, [1.0, 1.0], np.linspace(0.0, 3.0, 7),
                       post_step=guard)

    def test_starts_at_first_sample(self):
        out = solve_rk45(_decay, [1.0, 1.0], [0.5, 1.5])
        assert out[-1][0] == pytest.approx(math.exp(-1.0), abs=1e-9)
        assert out[-1][1] == pytest.approx(math.exp(-2.0), abs=1e-9)

    def test_single_point_grid(self):
        out = solve_rk45(_decay, [2.0, 3.0], [0.0])
        assert out == [(2.0, 3.0)]


class TestMatchesArraySolver:
    """The tuple solver against the array solver it replaced: the same
    states, bit for bit, from the same number of rhs calls."""

    @pytest.mark.parametrize("grid", [np.linspace(0.0, 5.0, 51),
                                      np.linspace(0.0, 20.0, 201)],
                             ids=["t5", "t20"])
    @pytest.mark.parametrize("solve", [
        lambda params, grid: solve_pinney_numeric(params, t_grid=grid),
        lambda params, grid: solve_classical(params, 0.7, -0.3, grid),
    ], ids=["pinney", "classical"])
    @pytest.mark.parametrize("sigma0", [0.0, 0.5, 2.0, 3.3])
    def test_bit_identical(self, monkeypatch, sigma0, solve, grid):
        calls = []
        monkeypatch.setattr(dynamics, "solve_rk45", lambda *args, **kwargs: (
            calls.append((args, kwargs)) or solve_rk45(*args, **kwargs)))
        solve(SuperconductorParams(sigma0=sigma0), grid)
        (rhs, y0, t_eval, *rest), kwargs = calls[0]
        counts = [0, 0]

        def tuple_rhs(t, y):
            counts[0] += 1
            return rhs(t, y)

        def array_rhs(t, y):
            counts[1] += 1
            return np.array(rhs(t, y))

        got = solve_rk45(tuple_rhs, y0, t_eval, *rest, **kwargs)
        want = oracles.solve_rk45_numpy(array_rhs, t_eval[0], y0, t_eval, *rest,
                                        **kwargs)
        assert got == [tuple(row) for row in want]
        assert all(type(v) is float for state in got for v in state)
        assert counts[0] == counts[1]


@pytest.mark.parametrize("module", [integrate, dynamics], ids=lambda m: m.__name__)
def test_module_imports_no_numpy(module):
    # importing tdq loads numpy anyway, so only the source can show this
    with open(module.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        assert not any(name.split(".")[0] == "numpy" for name in names), ast.dump(node)


class TestAdaptiveSimpson:
    def test_polynomial(self):
        assert adaptive_simpson(lambda x: x ** 3, 0.0, 1.0) == pytest.approx(
            0.25, abs=1e-12)

    def test_exponential(self):
        assert adaptive_simpson(math.exp, 0.0, 2.0) == pytest.approx(
            math.exp(2.0) - 1.0, rel=1e-10)

    def test_oscillatory(self):
        assert adaptive_simpson(math.sin, 0.0, math.pi) == pytest.approx(
            2.0, rel=1e-10)

    def test_empty_interval(self):
        assert adaptive_simpson(math.exp, 1.0, 1.0) == 0.0
