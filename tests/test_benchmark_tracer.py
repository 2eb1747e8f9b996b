"""perfbench/cell.py --trace wraps package names by hand; they must all still resolve.

The traced cell patches module globals (meta.build_tree, meta.outer_update,
cli.sample_task_batch, ...), subclasses the model's loss, gradient and HVP,
and reads trace.partition_sizes. A renamed or removed name fails the cell or
silently zeroes a counter, so a tiny traced cell runs here per tree mode.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("mode", ["tree_learned", "tree_fixed"])
def test_traced_cell_finds_every_wrapped_name(tmp_path, mode):
    spec = json.loads((ROOT / "specs" / "benchmark.json").read_text())
    spec["generator"]["dim"] = 8
    spec["meta"].update(outer_iterations=3, tasks_per_batch=8)
    spec.update(modes=[mode], points_sweep=[5], replicate_seeds=[0], meta_test_tasks=3)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, "perfbench/cell.py", str(spec_path), str(tmp_path), "--run-id", "t", "--trace"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failures"] == []
    counts = result["counts"]
    assert counts["meta.partition_clusters.step1"] > 0
    assert counts["tasks.tasks_sampled"] > 0
    assert counts["models.flops_computed"] > 0  # the wrapped loss reads batch.x
    if mode == "tree_learned":
        assert counts["clustering.items_inserted"] > 0
        assert counts["clustering.clusters_out"] > 0
    for span in ("meta.outer_update", "meta.meta_validation_loss", "tasks.sample_task_batch"):
        assert result["spans"][span]["calls"] > 0
