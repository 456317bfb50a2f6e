"""covspec: eigenvector statistics of large sample covariance matrices.

Simulation of the weighted empirical spectral distribution, solvers for the
generalized Marchenko-Pastur equation, and Monte Carlo verification of the
Gaussian fluctuation limits against contour-integral and closed-form
theoretical covariances.
"""

from .spectrum import SpectralMeasure
from .model import (ENTRY_DISTS, ConfigError, DirectionSpec, ModelConfig, PopulationSpec,
                    Workspace, build_sample_cov, draw_entries, realize_direction,
                    realize_population, replicate_rng)
from .eigen import EigenSystem, cholesky_logdet, eig_decompose, gauss_rule, quad_form_power
from .mp import ConvergenceError, solve_mbar_grid, support
from .law import LimitLaw, cdf_limit, density, limit_moments, mean_functional
from .kernels import contour_nodes
from .functionals import FunctionalSpec
from .weighted import WeightedSpectrum, w_statistic, weighted_spectrum, y_process
from .kde import kde, silverman_bandwidth
from .harness import (CompareVerdict, MCReport, Tolerances, bb_covariance, bb_samples,
                      bb_target, compare_report, estimate_mean_cov, map_replicates,
                      realized_law, run_clt, run_replications, theoretical_cov_contour,
                      theoretical_cov_simplified)

__version__ = "0.1.0"
