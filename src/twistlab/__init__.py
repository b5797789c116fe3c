"""twistlab: desk-scale numerics for Dirichlet series with gamma-factor
functional equations.

Smoothed critical-line evaluation, exact-vs-asymptotic gamma-factor ratios,
oscillatory quadrature with stationary-phase closed forms, the three-route
resonance transform H(alpha, T), and additive-twist / summatory-growth
experiments over a catalog of concrete L-series presets.
"""

from .coefficients import CoefficientProvider, CoefficientTable, tau_integers
from .errors import (BudgetError, PoleError, QuadratureError, ResonanceError,
                     SectorError, TwistlabError)
from .evaluate import (SmoothedEvaluation, SmoothedLineEvaluator,
                       fe_cross_check, reference_zeta, smoothed_value)
from .gammafn import (GammaRatioResult, gamma_ratio_asymptotic,
                      gamma_ratio_compare, log_gamma, sector_threshold)
from .model import (DerivedInvariants, FunctionalEquationData,
                    GammaFactorSpec, LSeriesInstance, PoleData,
                    SmoothingParams, degree, resonance_alpha,
                    stirling_constants)
from .oscillatory import (PhaseFamily, QuadratureResult,
                          I_n_quadrature, I_n_stationary_phase,
                          first_derivative_bound, in_stationary_range,
                          integrate_oscillatory)
from .presets import get_preset, instance_from_config, load_instance
from .summatory import (CertificateReport, GrowthReport, TwistReport,
                        abs_partial_sum, additive_twist,
                        omega_certificate, run_growth_scan, run_twist_scan)
from .transforms import (TransformReport, H_direct, H_fe_side, H_sum_side,
                         constant_conventions, kappa, run_transform)

__version__ = "0.1.0"
