"""treemaml: MAML and tree-structured MAML over task hierarchies.

Library layout: numerics (similarity stats, finite differences),
models (batches, their stacked form, and linear regression with closed-form
derivatives), tasks (synthetic hierarchical task distribution, sampled into
stacked task batches), clustering (online top-down tree building), meta
(array-native inner/outer loops and meta-gradients), cli (experiment grids).

Typical use:
    >>> from treemaml import tasks, meta, models
    >>> tree = tasks.build_parameter_tree(tasks.TaskGeneratorConfig(seed=7))
"""

__version__ = "0.1.0"

from .numerics import (
    InsufficientSamplesError,
    NumericalError,
    SimilarityStats,
    ZeroVectorError,
    confidence_halfwidth_95,
    cosine_similarity,
    finite_difference_gradient,
    set_similarity,
)
from .models import Batch, BatchStack, EmptyBatchError, LinearRegressionModel
from .tasks import (
    ConfigError,
    TaskBatch,
    TaskGeneratorConfig,
    TaskSampler,
    build_parameter_tree,
    sample_task_batch,
)
from .clustering import (
    ClusterConfig,
    ClusterTreeNode,
    DuplicateTaskError,
    build_tree,
    clusters_at_level,
    otd_insert,
)
from .meta import (
    MODES,
    AdaptationTrace,
    CapabilityError,
    DivergenceError,
    FixedTreeSpec,
    MetaConfig,
    TreeShapeError,
    adapt_and_evaluate,
    adapt_tree,
    generator_hierarchy_tree,
    meta_train,
    outer_update,
    single_cluster_tree,
    singleton_tree,
)

__all__ = [
    # numerics
    "InsufficientSamplesError", "NumericalError", "SimilarityStats", "ZeroVectorError",
    "confidence_halfwidth_95", "cosine_similarity", "finite_difference_gradient",
    "set_similarity",
    # models
    "Batch", "BatchStack", "EmptyBatchError", "LinearRegressionModel",
    # tasks
    "ConfigError", "TaskBatch", "TaskGeneratorConfig", "TaskSampler",
    "build_parameter_tree", "sample_task_batch",
    # clustering
    "ClusterConfig", "ClusterTreeNode", "DuplicateTaskError", "build_tree",
    "clusters_at_level", "otd_insert",
    # meta
    "MODES", "AdaptationTrace", "CapabilityError", "DivergenceError", "FixedTreeSpec",
    "MetaConfig", "TreeShapeError", "adapt_and_evaluate", "adapt_tree",
    "generator_hierarchy_tree", "meta_train", "outer_update", "single_cluster_tree",
    "singleton_tree",
]
