"""Group-sparse kernel additive classification with a smoothed hinge loss.

Library layout:

- data:        datasets, grouping, standardization, stratified folds,
               synthetic generator
- kernels:     per-group Gaussian kernels and Gram blocks
- coherence:   the smooth surrogate loss, gradients, weighted risk
- solver:      monotone restarted FISTA for the penalized objective
- model:       fit / decision_function / predict / save / load
- interpret:   component values, group importances, partial dependence
- selection:   elastic-net logistic top-k feature screening
- evaluation:  AUROC/ACC/F1, stratified CV, grid search, Pearson, t-tests
- cli:         command-line pipeline wiring
"""

from .data import (Dataset, GroupPartition, ScalingParams, DataError,
                   load_csv, write_csv, standardize, apply_scaling,
                   stratified_kfold, synth_generate, load_groups_json,
                   dump_groups_json)
from .kernels import (KernelSpec, gaussian_kernel, gram_blocks, cross_gram,
                      median_heuristic_gamma)
from .coherence import (CoherenceParams, ClassWeights, loss, loss_grad,
                        curvature_bound, empirical_risk)
from .solver import (SolverConfig, SolveReport, SolverError, objective,
                     group_gradient, majorization_constant, group_update,
                     solve, lambda_max)
from .model import ModelState, fit, decision_function, predict, save, load
from .interpret import (PDCurve, GroupImportance, component_values,
                        group_contribution, rkhs_contribution,
                        partial_dependence, export_interpretation)
from .selection import (ENConfig, SelectionResult, en_lambda_max,
                        en_logistic_path, select_top_k)
from .evaluation import (MetricSet, CvReport, GridResult, auroc, accuracy_f1,
                         cross_validate, grid_search, default_lambda_grid,
                         pearson_matrix, paired_ttest)

__version__ = "0.1.0"
