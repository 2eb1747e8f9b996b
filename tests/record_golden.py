"""A reduced four-mode grid, run through `treemaml run --dump-tree`, and its
recorded outputs in tests/golden_grid.json.

test_golden_grid.py runs the grid and compares every cell with that file:
mean_mse and ci95 as repr, the tree dump, and each training record without
its wall time. One tree_fixed cell draws 64 points at dim 64, 4096 input
values per task, so meta-test sampling skips the support inputs that the
followed adaptation does not read.

When a change alters these outputs on purpose (say, a new float summation
order), re-record the file from the root of a checkout:

    PYTHONPATH=src python tests/record_golden.py

and list the old and new values in CHANGES.md. The file names the numpy and
BLAS versions it was recorded with: another BLAS may round differently.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "golden_grid.json"

SPEC = {
    "generator": {"dim": 64, "branching": [2, 2], "level_scales": [1.0, 1.0, 0.5],
                  "noise_std": 0.01, "seed": 3},
    "meta": {"inner_lr": 0.007, "outer_lr": 0.005, "inner_steps": 3, "tasks_per_batch": 12,
             "outer_iterations": 4, "second_order": True, "baseline_finetune": True, "xi": 1.0},
    "modes": ["baseline", "maml", "tree_fixed", "tree_learned"],
    "points_sweep": [5, 64],
    "meta_test_tasks": 6,
    "replicate_seeds": [1],
    "eval_test_points": 10,
}


def versions() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas}


def run_grid(out_dir: Path) -> dict:
    """Run SPEC with --dump-tree under out_dir; returns each cell's outputs by
    "mode/points/seed", and for a failed cell its error."""
    from treemaml.cli import main

    spec_path = out_dir / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    main(["run", str(spec_path), "--dump-tree", "--out-dir", str(out_dir)])
    cells = {}
    header, *rows = (out_dir / "results.csv").read_text().splitlines()
    assert header == "mode,points,seed,mean_mse,ci95"
    for row in rows:
        mode, points, seed, mean_mse, ci95 = row.split(",")
        tree = out_dir / f"tree_{mode}_{points}_{seed}.json"
        cells[f"{mode}/{points}/{seed}"] = {
            "mean_mse": mean_mse,
            "ci95": ci95,
            "tree": json.loads(tree.read_text()) if tree.exists() else None,
            "log": [],
        }
    for line in (out_dir / "log.jsonl").read_text().splitlines():
        rec = json.loads(line)
        del rec["wall_ms"]
        cell = cells[f"{rec.pop('mode')}/{rec.pop('points')}/{rec.pop('seed')}"]
        cell["log"].append(rec)
    for line in (out_dir / "table.txt").read_text().splitlines():
        if line.startswith("FAILED "):
            name, error = line[len("FAILED "):].split(": ", 1)
            cells[name] = {"failed": error}
    return cells


def first_difference(golden: dict, cells: dict):
    """None when cells equal golden, else a line naming the first cell and
    field that differ."""
    for name in sorted(golden.keys() | cells.keys()):
        want, got = golden.get(name), cells.get(name)
        if want is None or got is None:
            return f"{name}: {'not in the golden file' if want is None else 'missing from the run'}"
        if "failed" in got:
            return f"{name}: failed: {got['failed']}"
        for field in ("mean_mse", "ci95", "tree"):
            if want[field] != got[field]:
                return f"{name}: {field} differs: golden {want[field]!r}, run {got[field]!r}"
        if len(want["log"]) != len(got["log"]):
            return f"{name}: log has {len(got['log'])} records, golden {len(want['log'])}"
        for i, (a, b) in enumerate(zip(want["log"], got["log"])):
            for key in sorted(a.keys() | b.keys()):
                if a.get(key) != b.get(key):
                    return (f"{name}: log[{i}].{key} differs: golden {a.get(key)!r}, "
                            f"run {b.get(key)!r}")
    return None


def main() -> int:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        cells = run_grid(Path(tmp))
    failed = [name for name, cell in cells.items() if "failed" in cell]
    if failed:
        print(f"not recorded: cells {failed} failed", file=sys.stderr)
        return 1
    GOLDEN.write_text(json.dumps({"recorded_with": versions(), "spec": SPEC, "cells": cells},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
