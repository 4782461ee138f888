"""Quantized charge in a superconductor with time-dependent conductivity.

Core objects: SuperconductorParams describes the system, whose
conductivity decays as sigma0/(A t + 1); the dynamics module solves the
Milne-Pinney amplitude (exactly via Bessel functions or numerically),
observables evaluates the exact quantum states, and information computes
Shannon entropy, disequilibrium, and statistical complexity.
"""

from .dynamics import (
    ClassicalState,
    PinneyState,
    SuperconductorParams,
    invariant_value,
    rho_analytic,
    solve_classical,
    solve_pinney_numeric,
)
from .information import MeasureSet, measures
from .observables import (
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
from .special_functions import (
    bessel_jy,
    bessel_modulus_sq,
    gauss_legendre,
    hermite,
    hermite_function,
    hyp1f1_special,
    hyp2f2_special,
)
from .verify import CheckResult, run_checks

__version__ = "0.1.0"
