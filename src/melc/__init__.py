"""Multithreshold entropy linear classification toolkit.

Builds one-dimensional Gaussian-mixture densities of class projections,
scores directions by information-theoretic objectives (cross information
potential, quadratic Renyi entropies) next to a hinge baseline, extracts
multithreshold decision rules, estimates the class-balanced Bayes risk by
quadrature, sweeps all 2-D directions to compare the optima, and trains the
model on the direction of largest cross entropy.
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
    ProjectedPair,
    best_bias_hinge,
    cip,
    projected_pair,
    renyi_cross_entropy,
    renyi_entropy,
    rescaled_pair,
)
from .risk import (
    BoundCheck,
    MultithresholdModel,
    best_single_threshold_error,
    bound_check,
    build_multithreshold_model,
    classify,
    empirical_balanced_error,
    overlap_integral,
)
from .sweep import (
    ComparisonRow,
    SweepRecord,
    angle_grid,
    bound_summary,
    bound_sweep,
    compare,
    melc_direction,
    train,
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
)

__version__ = "0.1.0"
