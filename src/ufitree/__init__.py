"""Tree ensembles with debiased (out-of-sample corrected) split-improvement
feature importance, plus simulation harnesses and a CLI."""

__version__ = "0.1.0"

from .data import (
    Dataset, Encoder, FeatureKind,
    dummy_encode, fold_importances, inject_random_feature, load_csv,
)
from .forest import Forest, ForestConfig, bootstrap_indices, fit
from .importance import (
    ImportanceReport, permutation_importance,
    si_forest, si_tree, ufi_forest, ufi_tree,
    ufi_tree_classification, ufi_tree_regression,
)
from .simgen import (
    ExperimentResult, SimSetting, average_rank,
    gen_discrete10, gen_null_mixed, gen_signal, run_experiment,
)
from .tree import (
    Split, Tree, TreeConfig, best_split, evaluate_split, grow,
    impurity_from_counts, impurity_from_values, predictive_gini,
)

__all__ = [name for name in dir() if not name.startswith("_")]
