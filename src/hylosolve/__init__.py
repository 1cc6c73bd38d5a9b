"""hylosolve: a numerical workbench for constrained-minimizer solitary waves.

Computes energy minimizers at fixed charge via a penalized objective,
audits the structural hypotheses the construction relies on for concrete
NLS/wave/beam models on periodic grids, and runs empirical orbital
stability experiments around the computed minimizers.
"""

__version__ = "0.1.0"

from .exceptions import GridMismatch, Inadmissible, NearZeroCharge, NonFinite, NumericalFailure
from .grid import (Grid, FieldState, LatticeShift, NLS, NWE, NBE,
                   integrate, spectral_derivative, sharp_seminorm, translate,
                   phase_rotate, orbit_distance, random_state, x_norm)
from .nonlinearity import (WSpec, SinglePower, DoublePower, Saturating,
                           w_eval, check_w_conditions, WConditionReport)
from .models import (ModelSpec, energy, charge, grad_energy, grad_charge,
                     evolve_step, time_reverse, lyapunov_v)
from .functionals import (PenaltyParams, HylomorphyReport, lambda_ratio, phi,
                          j_delta, bound_m, nash_check, nash_exponents,
                          coercivity_exponent, choose_coercivity_params,
                          lambda0_estimate, hylomorphy_check)
from .minimize import (MinimizeOptions, MinimizeResult, ContinuationResult,
                       minimize_jdelta, refine_constrained, delta_continuation)
from .dynamics import EvolutionTrace, ConservationReport, evolve, conservation_report
from .stability import (Perturbation, StabilityReport, StabilityRow,
                        apply_perturbation, run_stability)
from .checkers import HypothesisCertificate, CheckResult, audit, gate_passed
from .rng import SplitMix64

__all__ = [
    "__version__",
    "Grid", "FieldState", "LatticeShift", "NLS", "NWE", "NBE",
    "integrate", "spectral_derivative", "sharp_seminorm", "translate",
    "phase_rotate", "orbit_distance", "random_state", "x_norm",
    "WSpec", "SinglePower", "DoublePower", "Saturating", "w_eval",
    "check_w_conditions", "WConditionReport",
    "ModelSpec", "energy", "charge", "grad_energy", "grad_charge",
    "evolve_step", "time_reverse", "lyapunov_v",
    "PenaltyParams", "HylomorphyReport", "lambda_ratio", "phi", "j_delta",
    "bound_m", "nash_check", "nash_exponents", "coercivity_exponent",
    "choose_coercivity_params", "lambda0_estimate", "hylomorphy_check",
    "MinimizeOptions", "MinimizeResult", "ContinuationResult",
    "minimize_jdelta", "refine_constrained", "delta_continuation",
    "EvolutionTrace", "ConservationReport", "evolve", "conservation_report",
    "Perturbation", "StabilityReport", "StabilityRow",
    "apply_perturbation", "run_stability",
    "HypothesisCertificate", "CheckResult", "audit", "gate_passed",
    "SplitMix64",
    "GridMismatch", "Inadmissible", "NearZeroCharge", "NonFinite", "NumericalFailure",
]
