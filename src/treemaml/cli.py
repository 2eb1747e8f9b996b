"""Experiment grid runner and `treemaml` command-line entry point.

A JSON spec file describes the task distribution, the meta-training template,
and the (mode x points x seed) grid. Every RNG stream is derived from the spec
seeds alone, and for a given (points, seed) cell all modes see identical
training batches, support batches, and meta-test tasks, so mode comparisons
are paired.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .meta import (
    MODES,
    AdaptationTrace,
    DivergenceError,
    MetaConfig,
    adapt_and_evaluate,
    adapt_tree,
    meta_train,
)
from .models import LinearRegressionModel
from .numerics import confidence_halfwidth_95
from .tasks import (
    ConfigError,
    TaskGeneratorConfig,
    TaskSampler,
    _require_int,
    build_parameter_tree,
    distribution_to_dict,
    sample_task_batch,
)

_SUPPORT_ID_BASE = 10**6
_TARGET_ID_BASE = 10**9
_DIAG_ID_BASE = 2 * 10**9


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment grid: distribution, meta template, and sweep axes."""

    generator: TaskGeneratorConfig
    meta: MetaConfig
    modes: tuple[str, ...] = ("baseline", "maml", "tree_fixed", "tree_learned")
    points_sweep: tuple[int, ...] = (5, 10, 20)
    meta_test_tasks: int = 400
    replicate_seeds: tuple[int, ...] = (0, 1, 2)
    eval_test_points: int = 20

    def __post_init__(self):
        for name in ("modes", "points_sweep", "replicate_seeds"):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)) or not values:
                raise ConfigError(f"{name} must be a non-empty list or tuple, not {values!r}")
            if name != "modes" and any(type(v) is not int for v in values):  # not a bool either
                raise ConfigError(f"{name} entries must be integers: {list(values)}")
            if len(set(values)) < len(values):
                raise ConfigError(f"{name} has a duplicate entry: {list(values)}")
            object.__setattr__(self, name, tuple(values))
        unknown = [m for m in self.modes if m not in MODES]
        if unknown:
            raise ConfigError(f"unknown modes {unknown}; allowed: {list(MODES)}")
        if any(s < 0 for s in self.replicate_seeds):
            raise ConfigError("replicate_seeds entries must be non-negative")
        if any(p < 1 for p in self.points_sweep):
            raise ConfigError("points_sweep entries must be >= 1")
        _require_int("meta_test_tasks", self.meta_test_tasks)
        _require_int("eval_test_points", self.eval_test_points)
        if self.meta_test_tasks < 2:
            raise ConfigError("meta_test_tasks must be >= 2 (CI needs two samples)")
        if self.eval_test_points < 1:
            raise ConfigError("eval_test_points must be >= 1")


_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,)}


def _has_type(kind: str, value) -> bool:
    """Whether value has the annotated type kind: a bool is no number here, an
    int is a float, and a tuple[...] may come as a JSON list. No value has a
    type this cannot check, such as FixedTreeSpec, so a spec cannot set a
    field of that type."""
    if kind.startswith("Optional["):
        return value is None or _has_type(kind[len("Optional["):-1], value)
    if kind.startswith("tuple[") and kind.endswith(", ...]"):
        return (isinstance(value, (list, tuple))
                and all(_has_type(kind[len("tuple["):-len(", ...]")], v) for v in value))
    return type(value) in _TYPES.get(kind, ())


def _checked(section: str, cls, values: dict) -> dict:
    """values, after checking that each names a field of cls and holds a value
    of its type; section names the key in the ConfigError."""
    if not isinstance(values, dict):
        raise ConfigError(f"{section} must be a JSON object, not {values!r}")
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    for name, value in values.items():
        where = f"{section}.{name}" if section else name
        grid_key = {"mode": "modes", "points": "points_sweep", "seed": "replicate_seeds"}.get(name)
        if cls is MetaConfig and grid_key:
            raise ConfigError(f"{where} is set per cell by the grid key {grid_key}")
        if name not in types:
            raise ConfigError(f"{where} is not a spec key")
        if not _has_type(types[name], value):
            raise ConfigError(f"{where} must be {types[name]}, not {value!r}")
    return values


def spec_from_dict(d: dict) -> ExperimentSpec:
    """The spec a JSON object describes: its generator and meta sections, and
    at the top level the grid keys, ExperimentSpec's other fields."""
    grid = {k: v for k, v in d.items() if k not in ("generator", "meta")}
    return ExperimentSpec(
        generator=TaskGeneratorConfig(**_checked("generator", TaskGeneratorConfig,
                                                 d.get("generator", {}))),
        meta=MetaConfig(**_checked("meta", MetaConfig, d.get("meta", {}))),
        **_checked("", ExperimentSpec, grid),
    )


def load_spec(path) -> ExperimentSpec:
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"spec file {path} is not valid JSON: {e}") from e
    if not isinstance(payload, dict):
        raise ConfigError("spec file must contain a JSON object")
    return spec_from_dict(payload)


@dataclass(frozen=True)
class RunResult:
    """One grid cell's evaluation outcome."""

    mode: str
    points_per_task: int
    per_task_mse: tuple
    mean_mse: float
    ci95: float
    seed: int
    wall_seconds: float


@dataclass(frozen=True)
class CellFailure:
    mode: str
    points_per_task: int
    seed: int
    error: str


@dataclass
class ExperimentOutcome:
    results: list
    failures: list
    training_logs: list
    trees: dict


def cell_config(spec: ExperimentSpec, mode: str, points: int, seed: int) -> MetaConfig:
    """Specialize the spec's meta template to one grid cell."""
    return replace(spec.meta, mode=mode, points=points, seed=seed)


def _run_cell(model, tree, spec: ExperimentSpec, mode: str, points: int, seed: int,
              dump_tree: bool):
    cfg = cell_config(spec, mode, points, seed)
    root_ss = np.random.SeedSequence([spec.generator.seed, seed, points])
    train_ss, eval_ss, diag_ss = root_ss.spawn(3)

    t0 = time.perf_counter()
    sampler = TaskSampler(tree, np.random.default_rng(train_ss), start_id=0)
    omega, log = meta_train(model, sampler, cfg)

    m = cfg.tasks_per_batch
    needs_support = mode in ("tree_fixed", "tree_learned")

    def draw(ss, tasks, n_test, start_id):
        return sample_task_batch(tree, tasks, np.random.default_rng(ss), n_train=points,
                                 n_val=0, n_test=n_test, start_id=start_id)

    per_task = []
    for i, child in enumerate(eval_ss.spawn(spec.meta_test_tasks)):
        support_ss, target_ss = child.spawn(2)
        # Drawn as arguments, so no name keeps target i's batches alive
        # while target i + 1 draws.
        per_task.append(adapt_and_evaluate(
            model, omega,
            draw(support_ss, m, 0, _SUPPORT_ID_BASE + i * m) if needs_support else None,
            draw(target_ss, 1, spec.eval_test_points, _TARGET_ID_BASE + i),
            cfg,
        ))
    wall = time.perf_counter() - t0

    result = RunResult(
        mode=mode,
        points_per_task=points,
        per_task_mse=tuple(float(v) for v in per_task),
        mean_mse=float(np.mean(per_task)),
        ci95=confidence_halfwidth_95(per_task),
        seed=seed,
        wall_seconds=wall,
    )

    tree_dump = None
    if dump_tree and needs_support:
        diag = TaskSampler(tree, np.random.default_rng(diag_ss), start_id=_DIAG_ID_BASE)
        trace = adapt_tree(model, omega, diag.sample_batch(m, points, points), cfg)
        tree_dump = trace_tree_to_dict(trace)
    return result, log, tree_dump


def run_experiment(spec: ExperimentSpec, dump_tree: bool = False, echo=None) -> ExperimentOutcome:
    """Run the full grid sequentially; an exception aborts only its own cell.

    Each failed cell becomes a CellFailure naming the exception, and the grid
    goes on with the next cell.
    """
    model = LinearRegressionModel(spec.generator.dim)
    tree = build_parameter_tree(spec.generator)
    outcome = ExperimentOutcome([], [], [], {})
    for mode in spec.modes:
        for points in spec.points_sweep:
            for seed in spec.replicate_seeds:
                try:
                    result, log, tree_dump = _run_cell(
                        model, tree, spec, mode, points, seed, dump_tree
                    )
                except Exception as e:  # one bad cell must not sink the rest of the grid
                    if isinstance(e, DivergenceError):
                        error = f"diverged: {e}"
                    else:
                        error = f"{type(e).__name__}: {e}"
                    outcome.failures.append(CellFailure(mode, points, seed, error))
                    if echo:
                        echo(f"[{mode} points={points} seed={seed}] FAILED: {error}")
                        # a divergence or a spec error names its cause; anything else is a bug
                        if not isinstance(e, (DivergenceError, ConfigError)):
                            echo(traceback.format_exc().rstrip())
                    continue
                outcome.results.append(result)
                for rec in log:
                    outcome.training_logs.append(
                        {"mode": mode, "points": points, "seed": seed, **rec}
                    )
                if tree_dump is not None:
                    outcome.trees[f"tree_{mode}_{points}_{seed}"] = tree_dump
                if echo:
                    echo(
                        f"[{mode} points={points} seed={seed}] "
                        f"mean_mse={result.mean_mse:.4f} ci95={result.ci95:.4f} "
                        f"wall={result.wall_seconds:.1f}s"
                    )
    return outcome


def trace_tree_to_dict(trace: AdaptationTrace) -> dict:
    """Render an adaptation trace's nested partitions as a cluster-tree dump."""
    task_ids = trace.tasks.ids
    ids = itertools.count(1)
    root = {"node_id": 0, "depth": 0, "member_tasks": sorted(task_ids.tolist()), "children": []}
    prev_nodes = [root]
    for depth, (owner, parent) in enumerate(zip(trace.owners, trace.parents), start=1):
        current = []
        for c, p in enumerate(parent.tolist()):
            node = {
                "node_id": next(ids),
                "depth": depth,
                "member_tasks": sorted(task_ids[owner == c].tolist()),
                "children": [],
            }
            prev_nodes[p]["children"].append(node)
            current.append(node)
        prev_nodes = current
    return root


def render_csv(results: Sequence[RunResult], spec: ExperimentSpec) -> str:
    """Deterministic per-cell CSV. Timings are deliberately excluded so two
    identical invocations produce identical bytes; see table footer for walls."""
    order = {m: i for i, m in enumerate(spec.modes)}
    rows = sorted(results, key=lambda r: (order[r.mode], r.points_per_task, r.seed))
    lines = ["mode,points,seed,mean_mse,ci95"]
    for r in rows:
        lines.append(f"{r.mode},{r.points_per_task},{r.seed},{r.mean_mse!r},{r.ci95!r}")
    return "\n".join(lines) + "\n"


def render_table(results: Sequence[RunResult], failures: Sequence[CellFailure],
                 spec: ExperimentSpec) -> str:
    """Aligned mean +/- ci95 per (mode, points), averaged across replicate seeds."""
    by_cell: dict = {}
    for r in results:
        by_cell.setdefault((r.mode, r.points_per_task), []).append(r)

    header = ["mode"] + [f"{p} pts" for p in spec.points_sweep]
    rows = [header]
    for mode in spec.modes:
        row = [mode]
        for points in spec.points_sweep:
            cell = by_cell.get((mode, points))
            if not cell:
                row.append("-")
                continue
            mean = float(np.mean([r.mean_mse for r in cell]))
            ci = float(np.mean([r.ci95 for r in cell]))
            row.append(f"{mean:.4f} +/- {ci:.4f}")
        rows.append(row)

    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows]
    lines.append("")
    lines.append(f"cells: {len(results)} ok, {len(failures)} failed; "
                 f"{spec.meta_test_tasks} meta-test tasks per cell, "
                 f"seeds {list(spec.replicate_seeds)}")
    total_wall = sum(r.wall_seconds for r in results)
    lines.append(f"wall: {total_wall:.1f}s total; per cell: "
                 + ", ".join(f"{r.mode}/{r.points_per_task}/{r.seed}={r.wall_seconds:.1f}s"
                             for r in results))
    for f in failures:
        lines.append(f"FAILED {f.mode}/{f.points_per_task}/{f.seed}: {f.error}")
    return "\n".join(lines) + "\n"


def write_outputs(outcome: ExperimentOutcome, spec: ExperimentSpec, out_dir) -> None:
    """Write results.csv, table.txt, log.jsonl and any tree dumps under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "results.csv").write_text(render_csv(outcome.results, spec))
    (out / "table.txt").write_text(render_table(outcome.results, outcome.failures, spec))
    with open(out / "log.jsonl", "w") as fh:
        for rec in outcome.training_logs:
            fh.write(json.dumps(rec) + "\n")
    for name, tree_dump in outcome.trees.items():
        (out / f"{name}.json").write_text(json.dumps(tree_dump, indent=2))


def export_distribution(spec: ExperimentSpec, path) -> None:
    """Write the task distribution (config + node centers) for audit."""
    tree = build_parameter_tree(spec.generator)
    Path(path).write_text(json.dumps(distribution_to_dict(tree)))


def _csv_ints(flag: str, text: str) -> tuple:
    try:
        return tuple(int(v) for v in text.split(",") if v.strip() != "")
    except ValueError:
        raise ConfigError(f"{flag} takes comma-separated integers, not {text!r}") from None


def _apply_overrides(spec: ExperimentSpec, args) -> ExperimentSpec:
    fields = {}
    if args.mode:
        fields["modes"] = tuple(m.strip() for m in args.mode.split(",") if m.strip())
    if args.points:
        fields["points_sweep"] = _csv_ints("--points", args.points)
    if args.seed:
        fields["replicate_seeds"] = _csv_ints("--seed", args.seed)
    if args.second_order:
        fields["meta"] = replace(spec.meta, second_order=(args.second_order == "on"))
    return replace(spec, **fields) if fields else spec


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="treemaml",
        description="Meta-learning benchmark runner (maml and tree variants).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment grid from a JSON spec file")
    run_p.add_argument("spec", help="path to the JSON experiment spec")
    run_p.add_argument("--mode", help="comma-separated subset of modes to run")
    run_p.add_argument("--points", help="comma-separated points-per-task sweep override")
    run_p.add_argument("--seed", help="comma-separated replicate seeds override")
    run_p.add_argument("--out-dir", default="treemaml-out", help="output directory")
    run_p.add_argument("--dump-tree", action="store_true",
                       help="write a tree_*.json partition dump per tree-mode cell")
    run_p.add_argument("--second-order", choices=("on", "off"),
                       help="override the meta-gradient order")

    dist_p = sub.add_parser("export-dist", help="write the task distribution to JSON")
    dist_p.add_argument("spec", help="path to the JSON experiment spec")
    dist_p.add_argument("--out", default="centers.json", help="output file")

    sub.add_parser("version", help="print the package version")

    args = parser.parse_args(argv)

    if args.command == "version":
        from treemaml import __version__

        print(__version__)
        return 0

    # An invalid spec or flag exits 2, including a ConfigError from set-up
    # (build_parameter_tree); run_experiment contains each cell's own errors.
    try:
        spec = load_spec(args.spec)
        if args.command == "export-dist":
            export_distribution(spec, args.out)
            print(f"wrote {args.out}")
            return 0
        spec = _apply_overrides(spec, args)
        outcome = run_experiment(spec, dump_tree=args.dump_tree, echo=lambda s: print(s, flush=True))
    except (OSError, ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    write_outputs(outcome, spec, args.out_dir)
    print(f"\n{render_table(outcome.results, outcome.failures, spec)}")
    print(f"outputs in {args.out_dir}")
    if outcome.failures:
        for f in outcome.failures:
            print(f"cell failed: {f.mode}/{f.points_per_task}/{f.seed}: {f.error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
