"""Record perfbench/reference.json, the outputs the correctness gate expects.

For every workload and each seed in 0..SEEDS-1, runs one untraced cell and
keeps its mean_mse and per-step partition counts, with the tolerance of the
mean_mse match. Run it from the root of a checkout of the commit whose outputs
are the reference:

    python3 perfbench/record_reference.py
"""

import json
import shutil
import sys
from pathlib import Path

from run import HERE, WORKLOADS, check_program, one_cell_spec, partitions, run_cell

# Relative tolerance of the gate's mean_mse match. A change that only reorders
# float sums moves mean_mse by far less; a change to what is computed moves it
# by far more.
MEAN_MSE_RTOL = 1e-7
# Seeds 0..SEEDS-1 are recorded. run.py warns for a seed outside them, whose
# gate only checks mean_mse against the range of the recorded values.
SEEDS = 100


def main() -> int:
    root = Path.cwd()
    check_program(root)
    out_dir = root / ".perfbench_out" / "reference"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    refs = {}
    for workload in WORKLOADS:
        refs[workload] = {}
        for seed in range(SEEDS):
            spec_path = out_dir / "spec.json"
            spec_path.write_text(json.dumps(one_cell_spec(root, workload, seed)))
            rec = run_cell(root, spec_path, out_dir, f"{workload}-{seed}", False, timeout=600)
            if "crash" in rec or rec["failures"]:
                print(f"{workload} seed {seed}: {rec.get('crash') or rec['failures']}",
                      file=sys.stderr)
                return 1
            refs[workload][str(seed)] = {"mean_mse": rec["mean_mse"],
                                         "partitions": partitions(rec)}
            print(f"{workload} seed {seed}: mean_mse {rec['mean_mse']!r}", flush=True)
    reference = {"mean_mse_rtol": MEAN_MSE_RTOL, "workloads": refs}
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
