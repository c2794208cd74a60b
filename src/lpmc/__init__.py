"""Matrix completion under linearly parameterized factorizations.

Four factorization families (free rectangular, symmetric PSD, subspace
constrained, skew-symmetric) share one regularized objective, one first-order
solver, and one set of landscape diagnostics built around balanced witnesses
and the curvature gap.
"""

from .errors import (DegeneracyError, NotPsdError, NumericError, RankError,
                     RepresentabilityError)
from .experiments import (CellSummary, ExperimentConfig, TrialRecord,
                          default_config, run_diagnostics, run_experiment,
                          write_csv)
from .instances import (assemble, orthonormal_vectors, psd_instance,
                        rectangular_instance, skew_instance, subspace_instance)
from .landscape import (ConcentrationReport, DeviationCheck, GapReport,
                        GroundTruthProfile, TuningReport,
                        WitnessFactorReport, concentration_report,
                        curvature_gap_decomposition, factor_curvature_gap,
                        ground_truth_profile, mask_count_check, mask_gap_norm,
                        noise_spectral_surrogate, param_curvature_gap,
                        sampled_deviation_check, tuning_conditions,
                        witness_factor_properties)
from .linalg import (ReducedSvd, YoulaDecomposition, reduced_svd,
                     spectral_norm, two_inf_norm, youla_decompose)
from .objective import (ObjectiveSpec, default_tuning, factor_curvature,
                        factor_grad, factor_value, make_spec, objective_grad,
                        objective_value, row_hinge_penalty,
                        row_hinge_penalty_curvature, row_hinge_penalty_grad)
from .optimizer import SolveConfig, SolveResult, halving_line_search, solve
from .parameterization import (LinearParam, WitnessCertificate, adjoint,
                               balanced_witness, certify, factors, pack_blocks,
                               psd_param, rectangular_param, skew_param,
                               subspace_param, theta_blocks, x_of, y_of)
from .sampling import (ObservationMask, RngState, bernoulli_mask,
                       gaussian_noise, observed_fraction, project_observed,
                       read_observations, skew_gaussian_noise,
                       symmetric_offdiag_mask, write_observations)

__version__ = "0.1.0"
