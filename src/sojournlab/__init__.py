"""Sojourn-time constants and exceedance experiments for Gaussian-related
random fields: exact path synthesis, sojourn reductions, constant estimators
with independent cross-checks, and the conditional-limit experiment kit.
"""

__version__ = "0.1.0"

from .gaussim import (Chi, DriftSpec, FbmW, GridSpec, Lattice2D, Queue,
                      SamplePath, ScaledVariance2D, StationaryExp1D,
                      StationaryExp2D, chi_batch, fbm_batch, normal_tail,
                      queue_batch, simulate_fbm, sliding_max,
                      stationary2d_batch, stationary_batch, w_field_batch)
from .sojourn import (LevelResult, batch_levels, batch_levels_in_place,
                      level_for_sojourn, level_rank, reduction_quadrature)
from .mc import (DEFAULT_CHUNK, ConfigError, LineFit, NumericFailure,
                 chunked_mean, derive_seed, fit_line, generator, stream_ids)
from .berman import (DEFAULT_LIMIT_SCHEDULE, ConstantEstimate,
                     berman_curve_1d, berman_curve_2d,
                     brownian_sup_oracle, estimate_berman_1d,
                     estimate_berman_1d_limit, estimate_berman_2d,
                     estimate_bhat, parabola_constant_closed_form)
from .asymptotics import (DoubleSumResult, ExperimentResult,
                          ExperimentSettings, QueueAsymptotics, TargetCurve,
                          conditional_sojourn_cdf, double_sum_diagnostic,
                          queue_asymptotics, queue_prefactor,
                          queue_window_exceed_mc, scaling_function,
                          target_curve)
