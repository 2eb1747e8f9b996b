"""treemaml benchmark: one grid cell of specs/benchmark.json per measurement.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tree_fixed-p128 --seed 3 --seconds 45 --trace 0

A workload is one (mode, points) cell of the spec, and --seed becomes the
cell's replicate seed. The cell is scaled to OUTER_ITERATIONS outer steps and
META_TEST_TASKS meta-test targets (the spec has 300 and 400). Each cell runs in
a fresh `perfbench/cell.py` process with BLAS pinned to one thread; cells are
repeated until --seconds have passed (at least MIN_CELLS). Times are medians
over the cells and rates are total work over total time; setup_s also pools
set-up-only processes started before each cell of an untraced run. With
--trace 1,
untraced and traced cells alternate and the per-layer metrics come from the
traced ones.

The correctness gate runs in the same command: no failed cell, finite
per-task MSE, identical mean_mse and partition counts in every cell of the
run, and agreement with perfbench/reference.json. The last line of stdout is
one JSON object {correct, attempted, failed, metrics}; the exit code is 0 only
when the gate passes, and 2 without a result when the checkout lacks the
program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

# name -> (mode, points). Why each was chosen is in perfbench/README.md.
WORKLOADS = {
    "maml-p5": ("maml", 5),
    "tree_learned-p5": ("tree_learned", 5),
    "tree_fixed-p128": ("tree_fixed", 128),
}
OUTER_ITERATIONS = 60
# Per-target MSE varies with a coefficient of variation near 0.37, so the
# spread of mean_mse across seeds shrinks only with more targets; 200 keeps it
# well inside mean_mse's bound.
META_TEST_TASKS = 200
MIN_CELLS = 3
# Set-up-only processes started before each cell of an untraced run. setup_s
# is the median over these and the cells' own set-up, spread through the run.
SETUP_PROBES_PER_CELL = 4
# Start no cell that could end past this many seconds into the run.
RUN_LIMIT_S = 150.0
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# Printed but left out of BENCHMARK.json: across runs the pooled median eval
# time jumps between the host's fast and slow states (perfbench/README.md).
UNLISTED_UNITS = {"eval_target_ms_p50": "ms"}


class MissingProgram(Exception):
    pass


def one_cell_spec(root: Path, workload: str, seed: int) -> dict:
    """specs/benchmark.json cut down to the workload's cell at benchmark scale."""
    mode, points = WORKLOADS[workload]
    spec = json.loads((root / "specs" / "benchmark.json").read_text())
    spec["modes"] = [mode]
    spec["points_sweep"] = [points]
    spec["replicate_seeds"] = [seed]
    spec["meta_test_tasks"] = META_TEST_TASKS
    spec["meta"]["outer_iterations"] = OUTER_ITERATIONS
    return spec


def git_sha(root: Path):
    """The checkout's commit; None when it is not a git checkout or git is missing.

    --git-dir keeps git from searching the directories above the checkout.
    """
    try:
        proc = subprocess.run(["git", "--git-dir", str(root / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def check_program(root: Path) -> None:
    for rel in ("src/treemaml/__init__.py", "specs/benchmark.json", "BENCHMARK.json"):
        if not (root / rel).is_file():
            raise MissingProgram(f"{rel} not found under {root}; run from a treemaml checkout")


def run_cell(root: Path, spec_path: Path, out_dir: Path, run_id: str, traced: bool,
             timeout: float, setup_only: bool = False) -> dict:
    """Run cell.py once; returns its JSON record, or {"crash": reason}."""
    cmd = [sys.executable, str(HERE / "cell.py"), str(spec_path), str(out_dir),
           "--run-id", run_id] + (["--trace"] if traced else [])
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=root, env={**os.environ, **CHILD_ENV},
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"crash": f"cell {run_id} timed out after {timeout:.0f}s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"crash": f"cell {run_id} exited {proc.returncode}: {' | '.join(tail)}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_cells(root: Path, spec_path: Path, out_dir: Path, seconds: float,
              trace: bool) -> tuple:
    """Repeat the cell until `seconds` have passed; alternate traced cells in.

    In an untraced run, SETUP_PROBES_PER_CELL set-up-only processes run before
    each cell; a crashed probe ends the run as a crashed cell. Returns the
    cells' records and the probes' records.
    """
    records, probes = [], []
    start = time.perf_counter()
    longest = 0.0
    while True:
        elapsed = time.perf_counter() - start
        if len(records) >= MIN_CELLS and elapsed >= seconds:
            break
        if records and elapsed + longest > RUN_LIMIT_S:
            break
        traced = trace and len(records) % 2 == 1
        if not trace:
            for _ in range(SETUP_PROBES_PER_CELL):
                probes.append(run_cell(root, spec_path, out_dir, f"s{len(probes)}", False,
                                       timeout=60.0, setup_only=True))
                if "crash" in probes[-1]:  # counts as a failed attempt
                    records.append({**probes[-1], "traced": False})
                    return records, probes
        t0 = time.perf_counter()
        rec = run_cell(root, spec_path, out_dir, f"c{len(records)}", traced,
                       timeout=max(RUN_LIMIT_S + 20.0 - elapsed, 1.0))
        longest = max(longest, time.perf_counter() - t0)
        rec["traced"] = traced
        records.append(rec)
        if "crash" in rec or rec["failures"]:
            break
    return records, probes


def quantile(values: list, q: int) -> float:
    """The q-th percentile of values (q in 1..99), as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end_metrics(cells: list, probes: list, attempted: int, failed: int) -> dict:
    """Times are medians over cells (setup_s also over probes); rates are total work
    over total time."""
    cell_s = [c["spans"]["cli.run_experiment"]["s"] for c in cells]
    train_s = [c["spans"]["meta.meta_train"]["s"] for c in cells]
    eval_ms = [1000.0 * s for c in cells for s in c["eval_call_s"]]
    med = statistics.median
    return {
        "setup_s": med(r["setup_s"] for r in cells + probes),
        "cell_s": med(cell_s),
        "train_iters_per_s": OUTER_ITERATIONS * len(cells) / sum(train_s),
        "eval_targets_per_s": META_TEST_TASKS * len(cells) / (sum(cell_s) - sum(train_s)),
        "eval_target_ms_p50": quantile(eval_ms, 50),
        "eval_target_ms_p90": quantile(eval_ms, 90),
        "peak_rss_mb": med(c["peak_rss_mb"] for c in cells),
        "mean_mse": cells[0]["mean_mse"],
        "ok_frac": (attempted - failed) / attempted,
    }


def per_layer_metrics(traced: list, untraced: list) -> dict:
    """Medians over the traced cells; counts are equal in all of them (gated)."""
    med = statistics.median

    def span(name, field):
        return med(c["spans"].get(name, {}).get(field, 0) for c in traced)

    counts = traced[0]["counts"]
    out = {}
    for name in ("models.gradient", "models.hvp", "models.loss",
                 "numerics.set_similarity", "tasks.sample_task_batch"):
        out[f"{name}.calls"] = span(name, "calls")
        out[f"{name}.s"] = span(name, "s")
    for name in ("meta.meta_train", "meta.adapt_tree", "meta.outer_update",
                 "meta.meta_validation_loss", "meta.adapt_and_evaluate",
                 "clustering.build_tree", "cli.run_experiment"):
        out[f"{name}.calls"] = span(name, "calls")
        out[f"{name}.self_s"] = span(name, "self_s")
    models_s = out["models.gradient.s"] + out["models.hvp.s"] + out["models.loss.s"]
    flops = counts.get("models.flops_computed", 0)
    items = counts.get("clustering.items_inserted", 0)
    out.update({
        "models.flops_computed": flops,
        "models.bytes_computed": counts.get("models.bytes_computed", 0),
        "models.gflops_per_s": flops / models_s / 1e9 if models_s else 0.0,
        "clustering.items_inserted": items,
        "clustering.clusters_out": counts.get("clustering.clusters_out", 0),
        "numerics.set_similarity_per_item":
            out["numerics.set_similarity.calls"] / items if items else 0.0,
        "tasks.tasks_sampled": counts.get("tasks.tasks_sampled", 0),
        "cli.load_spec.s": span("cli.load_spec", "s"),
        "cli.write_outputs.s": span("cli.write_outputs", "s"),
        "cli.output_bytes": med(c["output_bytes"] for c in traced),
        "trace.overhead_frac":
            span("cli.run_experiment", "s")
            / med(c["spans"]["cli.run_experiment"]["s"] for c in untraced) - 1.0,
    })
    for key, value in counts.items():
        if key.startswith("meta.partition_clusters."):
            out[key] = value
    return out


def partitions(cell: dict) -> dict:
    return {k: v for k, v in cell["counts"].items() if k.startswith("meta.partition_clusters.")}


def work(cell: dict) -> tuple:
    return cell["counts"], {name: s["calls"] for name, s in cell["spans"].items()}


def gate(records: list, workload: str, seed: int, mse_bound: float, trace: bool) -> list:
    """Every reason the run's outputs are wrong; empty when they are right."""
    problems = [r["crash"] for r in records if "crash" in r]
    cells = [r for r in records if "crash" not in r]
    for r in cells:
        problems += [f"cell failed: {e}" for e in r["failures"]]
        if r["mean_mse"] is not None and not all(map(math.isfinite, r["per_task_mse"])):
            problems.append("a per-task MSE is not finite")
    traced = [c for c in cells if c["traced"]]
    if trace and (not traced or len(traced) == len(cells)):
        problems.append("a traced run needs both a traced and an untraced cell")
    if problems or not cells:
        return problems or ["no cell ran"]

    first = cells[0]
    if any(c["mean_mse"] != first["mean_mse"] or partitions(c) != partitions(first)
           for c in cells):
        problems.append("cells of one seed disagree on mean_mse or partitions")
    if any(work(c) != work(traced[0]) for c in traced):
        problems.append("traced cells of one seed disagree on call or work counts")

    reference = json.loads((HERE / "reference.json").read_text())
    rtol = reference["mean_mse_rtol"]
    refs = reference["workloads"][workload]
    ref = refs.get(str(seed))
    mse = first["mean_mse"]
    if ref is not None:
        if abs(mse - ref["mean_mse"]) > rtol * ref["mean_mse"]:
            problems.append(f"mean_mse {mse!r} is not within {rtol} of "
                            f"the reference {ref['mean_mse']!r}")
        if partitions(first) != ref["partitions"]:
            problems.append(f"partition counts {partitions(first)} differ from "
                            f"the reference {ref['partitions']}")
    else:
        known = [r["mean_mse"] for r in refs.values()]
        low, high = min(known) * (1 - mse_bound), max(known) * (1 + mse_bound)
        if not low <= mse <= high:
            problems.append(f"mean_mse {mse!r} is outside [{low:.4g}, {high:.4g}], "
                            f"the range of the references widened by {mse_bound}")
    return problems


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="treemaml benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    try:
        check_program(root)
    except MissingProgram as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    group = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    out_dir = root / ".perfbench_out" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    spec_bytes = json.dumps(one_cell_spec(root, args.workload, args.seed),
                            indent=2, sort_keys=True).encode()
    spec_path = out_dir / "spec.json"
    spec_path.write_bytes(spec_bytes)

    records, probes = run_cells(root, spec_path, out_dir, args.seconds, bool(args.trace))
    problems = gate(records, args.workload, args.seed, bounds["mean_mse"], bool(args.trace))
    warnings = []
    if str(args.seed) not in json.loads((HERE / "reference.json").read_text())[
            "workloads"][args.workload]:
        warnings.append(f"seed {args.seed} has no reference in perfbench/reference.json: "
                        "mean_mse is only checked against the range of the recorded "
                        "seeds, and partition counts only within this run")
    cells = [r for r in records if "crash" not in r]
    failed = sum(1 for r in records if "crash" in r or r["failures"])
    metrics, values = {}, {}
    if not problems:
        untraced = [c for c in cells if not c["traced"]]
        if args.trace:
            values = per_layer_metrics([c for c in cells if c["traced"]], untraced)
        else:
            values = end_to_end_metrics(untraced, probes, len(records), failed)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in group}

    env = {
        "git_sha": git_sha(root),
        "spec_sha256": hashlib.sha256(spec_bytes).hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        **(cells[0]["env"] if cells else {}),
    }
    result = {"correct": not problems, "attempted": len(records), "failed": failed,
              "metrics": metrics}
    (out_dir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "env": env, "problems": problems,
         "warnings": warnings, "setup_probes": probes,
         "cells": [{k: v for k, v in r.items() if k not in ("per_task_mse", "eval_call_s")}
                   for r in records],
         "result": result}, indent=1))

    n_eval = sum(len(c["eval_call_s"]) for c in cells if not c["traced"])
    print(f"workload {args.workload} seed {args.seed}: {len(records)} cells, "
          f"{len(probes)} set-up probes, {n_eval} timed meta-test targets")
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    for name, unit in UNLISTED_UNITS.items():
        if name in values:
            print(f"  {name:40s} {values[name]:.6g} {unit} (not in BENCHMARK.json)")
    for w in warnings:
        print(f"WARNING: {w}")
        print(f"WARNING: {w}", file=sys.stderr)
    for p in problems:
        print(f"GATE FAILED: {p}")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
