"""Run one treemaml grid cell in this process and print what it measured.

run.py starts this script once per measured cell, from the root of a
checkout, with the BLAS thread count pinned to 1 in its environment:

    python3 perfbench/cell.py SPEC OUT_DIR --run-id ID [--trace | --setup-only]

SPEC is a one-cell experiment spec. The cell goes through the public
`treemaml.cli` API: load_spec, run_experiment, write_outputs. Without
--trace only three coarse boundaries are timed (meta_train, each
adapt_and_evaluate call, and adapt_tree for its partition sizes); with
--trace every layer boundary is. With --setup-only the process stops after
set-up (imports, load_spec, build_parameter_tree) and reports only setup_s.
The last line of stdout is one JSON object.
"""

import time

_T0 = time.perf_counter()  # before any import, so set-up includes them

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path

from tracing import Tracer


def traced_model(base, tracer: Tracer):
    """Subclass of the model class whose loss, gradient and HVP are spans.

    Each call also adds its computed work from the batch shape (n, d): a
    gradient or HVP is two passes over X, 4nd flops and 16nd bytes of X read;
    a loss is one pass, 2nd flops and 8nd bytes. Vectors of length n or d are
    left out of the byte count.
    """

    def work(flops_per_nd, bytes_per_nd):
        def hook(args, _):
            nd = args[2].x.size  # args = (self, params, batch, ...)
            tracer.counts["models.flops_computed"] += flops_per_nd * nd
            tracer.counts["models.bytes_computed"] += bytes_per_nd * nd

        return hook

    return type(f"Traced{base.__name__}", (base,), {
        "loss": tracer.wrap(base.loss, "models.loss", work(2, 8)),
        "gradient": tracer.wrap(base.gradient, "models.gradient", work(4, 16)),
        "hessian_vector_product": tracer.wrap(
            base.hessian_vector_product, "models.hvp", work(4, 16)),
    })


def instrument(tracer: Tracer, full: bool) -> None:
    """Wrap the names treemaml's callers resolve at call time."""
    from treemaml import cli, clustering, meta, tasks

    counts = tracer.counts

    def partitions(args, trace):
        for k, size in enumerate(trace.partition_sizes, start=1):
            counts[f"meta.partition_clusters.step{k}"] += size

    tracer.patch(cli, "meta_train", "meta.meta_train")
    tracer.patch(cli, "adapt_and_evaluate", "meta.adapt_and_evaluate")
    tracer.patch(meta, "adapt_tree", "meta.adapt_tree", partitions)
    if not full:
        return

    def sampled(args, batch):
        counts["tasks.tasks_sampled"] += len(batch)

    def clustered(args, root):
        counts["clustering.items_inserted"] += len(args[0])
        counts["clustering.clusters_out"] += len(root.children)

    tracer.patch(cli, "sample_task_batch", "tasks.sample_task_batch", sampled)
    tracer.patch(tasks, "sample_task_batch", "tasks.sample_task_batch", sampled)
    tracer.patch(meta, "outer_update", "meta.outer_update")
    tracer.patch(meta, "meta_validation_loss", "meta.meta_validation_loss")
    tracer.patch(meta, "build_tree", "clustering.build_tree", clustered)
    tracer.patch(clustering, "set_similarity", "numerics.set_similarity")
    cli.LinearRegressionModel = traced_model(cli.LinearRegressionModel, tracer)


def blas_version(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spec")
    parser.add_argument("out_dir")
    parser.add_argument("--run-id", required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    import numpy as np
    import treemaml
    from treemaml import cli, tasks

    if Path(treemaml.__file__).resolve().parent != (src / "treemaml").resolve():
        print(f"error: treemaml imported from {treemaml.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = Tracer(args.run_id)
    spec = tracer.call("cli.load_spec", cli.load_spec, args.spec)
    tasks.build_parameter_tree(spec.generator)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    instrument(tracer, full=args.trace)
    outcome = tracer.call("cli.run_experiment", cli.run_experiment, spec)
    cli_out = Path(args.out_dir) / "cli-out"
    tracer.call("cli.write_outputs", cli.write_outputs, outcome, spec, cli_out)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        tracer.write(Path(args.out_dir) / f"spans-{args.run_id}.jsonl")
    result = outcome.results[0] if outcome.results else None
    print(json.dumps({
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "failures": [f.error for f in outcome.failures],
        "mean_mse": None if result is None else result.mean_mse,
        "per_task_mse": [] if result is None else list(result.per_task_mse),
        "eval_call_s": tracer.durations("meta.adapt_and_evaluate"),
        "spans": tracer.summary(),
        "counts": dict(tracer.counts),
        "output_bytes": sum(f.stat().st_size for f in cli_out.iterdir()),
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas_version(np),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
