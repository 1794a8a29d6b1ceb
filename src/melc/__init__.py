"""Multithreshold entropy linear classification toolkit.

Builds one-dimensional Gaussian-mixture densities of class projections,
scores directions by information-theoretic objectives (cross information
potential, quadratic Renyi entropies, Cauchy-Schwarz divergence) next to a
hinge baseline, extracts multithreshold decision rules, estimates the
class-balanced Bayes risk by quadrature, and sweeps all 2-D directions to
compare the optima.
"""

from .geometry import (
    LabeledDataset,
    UnitDirection,
    cosine_alignment,
    project,
)
from .kde import (
    DegenerateBandwidthError,
    Kde1d,
    cross_integral,
    kde_eval,
    self_integral,
    silverman_bandwidth,
)
from .objectives import (
    GaussianSpec,
    ProjectedPair,
    best_bias_hinge,
    cauchy_schwarz_divergence,
    cip,
    gaussian_cip_closed_form,
    projected_pair,
    renyi_cross_entropy,
    renyi_entropy,
    rescaled_pair,
)
from .risk import (
    BoundCheck,
    MultithresholdModel,
    RiskEstimate,
    best_single_threshold_error,
    bound_check,
    build_multithreshold_model,
    classify,
    eaa_bayes_risk_for_direction,
    empirical_balanced_error,
    overlap_integral,
)
from .sweep import (
    ComparisonRow,
    SweepRecord,
    angle_grid,
    bound_sweep,
    compare,
    melc_direction,
    relative_error,
    select_best,
    sweep,
)
from .datasets import (
    DatasetSpec,
    generate,
    load_csv,
    load_libsvm,
    pca_top2,
    save_csv,
    save_libsvm,
)

__version__ = "0.1.0"
