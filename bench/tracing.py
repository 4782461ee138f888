"""Spans at `tdq`'s module boundaries, for the benchmark's traced runs.

`install` replaces the public calls between layers
(cli -> dynamics/observables/information/verify -> special_functions/integrate)
with wrappers that record a span per call: name, start, end, parent and a
small note (arguments the layer metrics need).  The wrapper is installed
wherever callers look the name up: every `tdq` module attribute bound to
the original function, plus the `verify._ALL_CHECKS` table, which holds
the check functions themselves.  `_dd` is left alone: it makes millions of
calls per run, and its cost shows as self time of the Bessel and
hypergeometric spans.  Spans stay in memory until `layer_metrics` runs.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# Result names of the 30 `tdq verify` checks, in suite order.
VERIFY_CHECKS = (
    "bessel_wronskian", "bessel_half_integer_closed_forms", "hermite_orthogonality",
    "hermite_root_residuals", "bell_recurrence_vs_enumeration",
    "hypergeometric_vs_rational_series", "gamma_recurrence", "quadrature_rule",
    "pinney_residual_analytic", "pinney_numeric_vs_analytic", "invariant_conservation",
    "beta_perfect_square", "lc_limit", "density_normalization", "moment_consistency",
    "uncertainty_identity", "uncertainty_floor", "density_node_structure",
    "phase_derivative", "entropy_scaling", "disequilibrium_scaling",
    "diseq_closed_vs_quadrature", "diseq_hand_values", "coefficient_parity",
    "complexity_constancy", "complexity_ground_state_value",
    "entropy_closed_vs_quadrature_n0", "entropy_closed_vs_quadrature_higher_n",
    "lmc_complexity_lower_bound", "monotone_localization",
)
# Checks that are asserted (not informational) with a nonzero tolerance,
# so residual / tolerance is a margin.
VERIFY_MARGIN_CHECKS = tuple(
    name for name in VERIFY_CHECKS
    if name not in ("density_node_structure", "coefficient_parity", "monotone_localization",
                    "entropy_closed_vs_quadrature_higher_n", "lmc_complexity_lower_bound"))

LARGE_X = 20.0

# Metrics the traced child reports; the parent adds the rest of PER_LAYER.
CHILD_METRICS = (
    "dynamics.rho_analytic.calls", "dynamics.rho_analytic.s",
    "dynamics.rho_analytic.us_per_call", "dynamics.rho_analytic.distinct_frac",
    "special_functions.bessel_j.calls", "special_functions.bessel_j.s",
    "special_functions.bessel_y.calls", "special_functions.bessel_y.s",
    "special_functions.bessel.large_x_s", "special_functions.bessel_y.integer_order_calls",
    "special_functions.hyp2f2_special.calls", "special_functions.hyp2f2_special.s",
    "special_functions.hyp1f1_special.calls", "special_functions.hyp1f1_special.s",
    "information.closed_form.calls", "information.closed_form.s",
    "information.closed_form.self_s",
    "information.quadrature.calls", "information.quadrature.s",
    "information.quadrature.self_s", "information.quadrature.points",
    "information.diseq_exact.misses", "special_functions.hermite.misses",
    "special_functions.legendre.misses",
    "observables.density_values.calls", "observables.density_values.points",
    "observables.density_values.s",
    "observables.phase.calls", "observables.phase.s",
    "integrate.adaptive_simpson.calls", "integrate.adaptive_simpson.evals",
    "integrate.solve_rk45.calls", "integrate.solve_rk45.s",
    "integrate.solve_rk45.rhs_calls", "integrate.solve_rk45.steps",
    "cli.write_table.s", "cli.write_table.rows", "cli.write_table.bytes", "cli.self_s",
) + tuple(f"verify.{name}.s" for name in VERIFY_CHECKS) \
  + tuple(f"verify.{name}.margin" for name in VERIFY_MARGIN_CHECKS)

# Per-layer metrics measured by the parent process from outputs and timings.
PARENT_METRICS = ("trace_overhead_frac", "s_closed_abs_err", "verify_worst_margin",
                  "machine.calibration_s")
PER_LAYER = CHILD_METRICS + PARENT_METRICS


class Recorder:
    """Spans kept as [name, start, end, parent index, note] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str, note=None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, note])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, note=None):
        """fn wrapped in a span; note(*args) gives the span's note."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name, note(*args) if note else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return wrapper

    def wrap_counting(self, name: str, fn, callable_at: int):
        """fn wrapped in a span whose note counts calls of its callable argument."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name, 0)

            def counted(*inner):
                self.spans[index][4] += 1
                return target(*inner)

            target = args[callable_at]
            args = args[:callable_at] + (counted,) + args[callable_at + 1:]
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return wrapper

    def wrap_check(self, fn):
        """A verify check wrapped in a span named after its result."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open("verify.?")
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            self.spans[index][0] = f"verify.{result.name}"
            if not result.informational and result.tolerance > 0.0:
                self.spans[index][4] = result.residual / result.tolerance
            return result
        return wrapper


def _replace_everywhere(original, wrapper) -> None:
    """Rebind every `tdq` module attribute that refers to `original`."""
    for module_name, module in list(sys.modules.items()):
        if module_name != "tdq" and not module_name.startswith("tdq."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(recorder: Recorder):
    """Wrap the layer boundaries of the imported `tdq` package.

    Returns the functions whose `cache_info()` the metrics read.
    """
    from tdq import cli, dynamics, information, integrate, observables
    from tdq import special_functions as sf
    from tdq import verify

    boundaries = [
        (dynamics, "rho_analytic", "dynamics.rho_analytic",
         lambda params, t: (params.sigma0, t)),
        (sf, "_bessel_j_any", "special_functions.bessel_j", lambda nu, x: (x, False)),
        (sf, "_bessel_y_any", "special_functions.bessel_y",
         lambda nu, x: (x, nu == int(nu))),
        (sf, "hyp2f2_special", "special_functions.hyp2f2_special", None),
        (sf, "hyp1f1_special", "special_functions.hyp1f1_special", None),
        (information, "_measures_closed_form", "information.closed_form", None),
        (information, "_measures_quadrature", "information.quadrature", None),
        (observables, "density_values", "observables.density_values",
         lambda snapshot, q: len(q)),
        (observables, "phase", "observables.phase", None),
        (cli, "_write_table", "cli.write_table", lambda config, columns, rows: len(rows)),
    ]
    for module, attr, name, note in boundaries:
        original = getattr(module, attr)
        _replace_everywhere(original, recorder.wrap(name, original, note))
    for module, attr, name, callable_at in (
            (integrate, "adaptive_simpson", "integrate.adaptive_simpson", 0),
            (integrate, "solve_rk45", "integrate.solve_rk45", 0)):
        original = getattr(module, attr)
        _replace_everywhere(original, recorder.wrap_counting(name, original, callable_at))
    verify._ALL_CHECKS = tuple((recorder.wrap_check(fn), base)
                               for fn, base in verify._ALL_CHECKS)
    return {"information.diseq_exact.misses": information._diseq_reduced_exact,
            "special_functions.hermite.misses": sf.hermite,
            "special_functions.legendre.misses": sf._legendre_nodes_weights}


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children[index]):
            lo, hi = max(child_start, reach, start), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _ancestors(spans: list[list], index: int):
    parent = spans[index][3]
    while parent >= 0:
        yield parent
        parent = spans[parent][3]


def layer_metrics(spans: list[list], caches: dict, output_bytes: int) -> dict[str, float]:
    """CHILD_METRICS from a finished run's spans.

    Times (`.s`) count only the outermost span of a name, so recursion
    into the same boundary is not counted twice.
    """
    own = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    total: dict[str, float] = defaultdict(float)
    self_total: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        by_name[name].append(index)
        self_total[name] += own[index]
        if all(spans[a][0] != name for a in _ancestors(spans, index)):
            total[name] += end - start
    calls = defaultdict(int, {name: len(indices) for name, indices in by_name.items()})

    def notes(name):
        return [spans[i][4] for i in by_name.get(name, ())]

    m: dict[str, float] = {}
    rho = "dynamics.rho_analytic"
    m[f"{rho}.calls"] = calls[rho]
    m[f"{rho}.s"] = total[rho]
    m[f"{rho}.us_per_call"] = 1e6 * total[rho] / calls[rho] if calls[rho] else 0.0
    m[f"{rho}.distinct_frac"] = len(set(notes(rho))) / calls[rho] if calls[rho] else 0.0

    large_x = 0.0
    integer_order = 0
    for name in ("special_functions.bessel_j", "special_functions.bessel_y"):
        for i in by_name.get(name, ()):
            _, start, end, _, (x, is_integer) = spans[i]
            if x >= LARGE_X:
                large_x += end - start
            integer_order += is_integer
    for kind in ("bessel_j", "bessel_y", "hyp2f2_special", "hyp1f1_special"):
        m[f"special_functions.{kind}.calls"] = calls[f"special_functions.{kind}"]
        m[f"special_functions.{kind}.s"] = total[f"special_functions.{kind}"]
    m["special_functions.bessel.large_x_s"] = large_x
    m["special_functions.bessel_y.integer_order_calls"] = integer_order

    for kind in ("closed_form", "quadrature"):
        name = f"information.{kind}"
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.s"] = total[name]
        m[f"{name}.self_s"] = self_total[name]
    m["information.quadrature.points"] = sum(
        spans[i][4] for i in by_name.get("observables.density_values", ())
        if any(spans[a][0] == "information.quadrature" for a in _ancestors(spans, i)))
    for metric, fn in caches.items():
        m[metric] = fn.cache_info().misses

    dv = "observables.density_values"
    m[f"{dv}.calls"] = calls[dv]
    m[f"{dv}.points"] = sum(notes(dv))
    m[f"{dv}.s"] = total[dv]
    m["observables.phase.calls"] = calls["observables.phase"]
    m["observables.phase.s"] = total["observables.phase"]
    m["integrate.adaptive_simpson.calls"] = calls["integrate.adaptive_simpson"]
    m["integrate.adaptive_simpson.evals"] = sum(notes("integrate.adaptive_simpson"))
    rk = "integrate.solve_rk45"
    rhs_calls = sum(notes(rk))
    m[f"{rk}.calls"] = calls[rk]
    m[f"{rk}.s"] = total[rk]
    m[f"{rk}.rhs_calls"] = rhs_calls
    m[f"{rk}.steps"] = rhs_calls // 7  # Dormand-Prince without FSAL: 7 rhs calls a step

    m["cli.write_table.s"] = total["cli.write_table"]
    m["cli.write_table.rows"] = sum(notes("cli.write_table"))
    m["cli.write_table.bytes"] = output_bytes if calls["cli.write_table"] else 0
    m["cli.self_s"] = self_total["cli"]

    for check in VERIFY_CHECKS:
        m[f"verify.{check}.s"] = total[f"verify.{check}"]
    for check in VERIFY_MARGIN_CHECKS:
        margins = [v for v in notes(f"verify.{check}") if v is not None]
        m[f"verify.{check}.margin"] = max(margins) if margins else 0.0
    return m
