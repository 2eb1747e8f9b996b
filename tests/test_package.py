"""The package's public surface and the hygiene of its module imports."""

import ast
from pathlib import Path

import treemaml

SRC = Path(treemaml.__file__).resolve().parent

# Imported on purpose without a use in the importing module.
IMPORT_ALLOWANCES = {
    # re-exported for callers that resolve treemaml.clustering.set_similarity
    "clustering.py": {"set_similarity"},
}


def test_public_names_are_pinned():
    # A change to this set is a change to the public API and should be
    # deliberate. The submodules stay reachable as attributes but are not
    # exported names.
    assert set(treemaml.__all__) == {
        "AdaptationTrace", "Batch", "BatchStack", "CapabilityError", "ClusterConfig",
        "ClusterTreeNode", "ConfigError", "DivergenceError", "DuplicateTaskError",
        "EmptyBatchError", "FixedTreeSpec", "InsufficientSamplesError", "LinearRegressionModel",
        "MODES", "MetaConfig", "NumericalError", "SimilarityStats", "TaskBatch",
        "TaskGeneratorConfig", "TaskSampler", "TreeShapeError", "ZeroVectorError",
        "adapt_and_evaluate", "adapt_tree", "build_parameter_tree", "build_tree",
        "clusters_at_level", "confidence_halfwidth_95", "cosine_similarity",
        "finite_difference_gradient", "generator_hierarchy_tree", "meta_train", "otd_insert",
        "outer_update", "sample_task_batch", "set_similarity", "single_cluster_tree",
        "singleton_tree",
    }
    assert len(treemaml.__all__) == len(set(treemaml.__all__))
    assert all(hasattr(treemaml, name) for name in treemaml.__all__)
    namespace: dict = {}
    exec("from treemaml import *", namespace)
    assert not {"clustering", "meta", "models", "numerics", "tasks"} & set(namespace)


def unused_imports(path: Path) -> set:
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used - IMPORT_ALLOWANCES.get(path.name, set())


def test_modules_import_only_names_they_use():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: sorted(unused_imports(p)) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}
