"""Subspace Kalman tracking of correlated time-varying channels.

A numpy-only library: a synthetic low-rank AR channel generator with ground
truth, the spectral/Yule-Walker numerics, an LMS coarse estimator, a
recursive subspace tracker, forward and backward Kalman recursions with
per-step model re-fits, two-filter fusion, and an experiment harness
(``subtrack`` CLI).
"""

from .channel_sim import (ChannelTrajectory, ObservationSequence, SimConfig,
                          SimGroundTruth, gen_symbols, generate_observations,
                          latent_trajectory, noise_variance_for_snr,
                          symbol_windows, synth_latent_channel)
from .coarse_est import (CoarseModel, autocorrelation_table,
                         estimate_channel_covariance,
                         estimate_process_noise_correlated, fit_coarse_model,
                         lms_track, project_components)
from .errors import (ConfigError, DegenerateInputError, DivergenceError,
                     FusionError, InvalidInputError, NumericError,
                     SingularModelError, SubtrackError, TrackerStallError,
                     UndefinedMetricError)
from .kalman_core import (ArTransitionModel, RecursiveAutocorr, backward_model, companion,
                          fb_combine, kf_predict, kf_update, predict_transition, stacked_noise)
from .linalg_spectral import (EigenDecomposition, evd_hermitian,
                              solve_yule_walker, truncate_subspace)
from .metrics import (CoherenceMatrix, cross_path_coherence,
                      eigenvalue_spectrum, normalized_prediction_error)
from .pipeline import (ALGORITHMS, TrackerConfig, TrackResult, run_asrmae,
                       run_dfb_asrmae, run_lms)
from .subspace_tracking import PastdTracker

__version__ = "0.1.0"
