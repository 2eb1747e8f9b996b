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

# Public definitions that nothing in src/ uses, each kept for the reason given.
# A method or property is named with its class.
PINNED = {
    "set_similarity": "perfbench/cell.py --trace wraps it, and tests/otd_reference.py calls it",
    "singleton_tree": "acceptance criterion 2 builds its fixed tree with it",
    "single_cluster_tree": "acceptance criterion 3 builds its fixed tree with it",
    "stable_hash": "the config hash that ROADMAP item 3 writes into every output",
    "ClusterTreeNode.children": "perfbench/cell.py's clustered hook reads len(root.children), "
                                "and tests/cluster_walk.py walks a tree with it",
    "ClusterTreeNode.member_tasks": "tests/cluster_walk.py reads each node's tasks with it",
    "MetaConfig.describe": "the config hash that ROADMAP item 3 writes into every output",
    "LinearRegressionModel.gradient": "perfbench/cell.py's traced_model wraps it",
    "LinearRegressionModel.hessian_vector_product": "perfbench/cell.py's traced_model wraps it",
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
        "TaskGeneratorConfig", "TreeShapeError", "ZeroVectorError",
        "adapt_and_evaluate", "adapt_tree", "build_parameter_tree", "build_tree",
        "confidence_halfwidth_95", "cosine_similarity",
        "generator_hierarchy_tree", "meta_train", "outer_update", "sample_task_batch",
        "set_similarity", "single_cluster_tree", "singleton_tree",
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


def public_definitions(tree: ast.Module) -> dict:
    """Qualified name -> name of each module-level def or class, and each
    method or property of a module-level class, without a leading _."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found[node.name] = node.name
        if isinstance(node, ast.ClassDef):
            found |= {f"{node.name}.{item.name}": item.name for item in node.body
                      if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")}
    return found


def test_every_public_definition_has_a_use_or_a_pin():
    # a public definition is used somewhere in src/, by name or as an
    # attribute, or PINNED says why it stays
    used, defined = set(), {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        used |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        if path.name != "__init__.py":
            defined |= public_definitions(tree)
    assert sorted(q for q, name in defined.items() if name not in used and q not in PINNED) == []
    assert sorted(PINNED.keys() - defined.keys()) == []  # each pin names a definition
    # a pin whose name gained a use goes
    assert sorted(q for q in PINNED if defined[q] in used) == []
