"""covspec: eigenvector statistics of large sample covariance matrices.

Simulation of the weighted empirical spectral distribution, solvers for the
generalized Marchenko-Pastur equation, and Monte Carlo verification of the
Gaussian fluctuation limits against contour-integral and closed-form
theoretical covariances.
"""

from .spectrum import SpectralMeasure
from .model import (ENTRY_DISTS, DirectionSpec, ModelConfig, PopulationSpec, Workspace,
                    build_sample_cov, companion_sample_cov, draw_entries,
                    realize_direction, realize_population, replicate_rng)
from .eigen import (EigenSystem, cholesky_logdet, eig_decompose, quad_form_power,
                    resolvent_quad_form)
from .mp import (ConvergenceError, StieltjesSolution, closed_form_mp,
                 companion_transform, inverse_z, solve_mbar, solve_mbar_grid,
                 support_interval)
from .law import LimitLaw, cdf_limit, density, limit_moments, mean_functional
from .kernels import (Contour, ProofKernels, contour_around_support, contour_pair,
                      cov_kernel, homogeneity_residual, proof_kernels)
from .functionals import FunctionalSpec, poly_product
from .weighted import (WeightedSpectrum, eval_cdf, functional_gap, w_statistic,
                       weighted_spectrum, x_process, y_process)
from .kde import default_grid, kde, silverman_bandwidth
from .harness import (CompareVerdict, MCReport, Statistic, Tolerances, bb_covariance,
                      bb_samples, bb_target, compare_report, condition_profile,
                      direction_condition_gap, estimate_mean_cov, map_replicates,
                      realized_law, run_clt, run_replications, theoretical_cov_contour,
                      theoretical_cov_simplified)

__version__ = "0.1.0"
