"""hylosolve: a numerical workbench for constrained-minimizer solitary waves.

Computes energy minimizers at fixed charge via a penalized objective,
audits the structural hypotheses the construction relies on for concrete
NLS/wave/beam models on periodic grids, and runs empirical orbital
stability experiments around the computed minimizers.
"""

__version__ = "0.1.0"

from .exceptions import GridMismatch, NearZeroCharge, NonFinite, NumericalFailure
from .grid import (Grid, FieldState, LatticeShift, NLS, NWE, NBE,
                   integrate, spectral_derivative, sharp_seminorm, translate,
                   phase_rotate, orbit_distance, random_state)
from .nonlinearity import (WSpec, SinglePower, DoublePower, Saturating,
                           w_eval, check_w_conditions, WConditionReport)
from .models import (ModelSpec, energy, charge, grad_energy, grad_charge,
                     evolve_step, x_norm, time_reverse)
from .functionals import (PenaltyParams, HylomorphyReport, lambda_ratio, phi,
                          j_delta, bound_m, nash_check, nash_exponents,
                          coercivity_exponent, choose_coercivity_params,
                          lambda0_estimate, hylomorphy_check)
from .minimize import (MinimizeOptions, MinimizeResult, ContinuationResult,
                       minimize_jdelta, refine_constrained, delta_continuation)
from .dynamics import EvolutionTrace, ConservationReport, evolve, conservation_report
from .stability import (Perturbation, StabilityReport, StabilityRow,
                        lyapunov_v, apply_perturbation, run_stability,
                        v_separation_scan)
from .checkers import HypothesisCertificate, CheckResult, audit, gate_passed
from .rng import SplitMix64

__all__ = [
    "__version__",
    "Grid", "FieldState", "LatticeShift", "NLS", "NWE", "NBE",
    "integrate", "spectral_derivative", "sharp_seminorm", "translate",
    "phase_rotate", "orbit_distance", "random_state",
    "WSpec", "SinglePower", "DoublePower", "Saturating", "w_eval",
    "check_w_conditions", "WConditionReport",
    "ModelSpec", "energy", "charge", "grad_energy", "grad_charge",
    "evolve_step", "x_norm", "time_reverse",
    "PenaltyParams", "HylomorphyReport", "lambda_ratio", "phi", "j_delta",
    "bound_m", "nash_check", "nash_exponents", "coercivity_exponent",
    "choose_coercivity_params", "lambda0_estimate", "hylomorphy_check",
    "MinimizeOptions", "MinimizeResult", "ContinuationResult",
    "minimize_jdelta", "refine_constrained", "delta_continuation",
    "EvolutionTrace", "ConservationReport", "evolve", "conservation_report",
    "Perturbation", "StabilityReport", "StabilityRow", "lyapunov_v",
    "apply_perturbation", "run_stability", "v_separation_scan",
    "HypothesisCertificate", "CheckResult", "audit", "gate_passed",
    "SplitMix64",
    "GridMismatch", "NearZeroCharge", "NonFinite", "NumericalFailure",
]
