"""Spec loading, grid execution, rendering, and the treemaml entry point."""

import json
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from treemaml import cli
from treemaml.cli import (
    ExperimentSpec,
    RunResult,
    cell_config,
    load_spec,
    main,
    render_csv,
    render_table,
    run_experiment,
    spec_from_dict,
    trace_tree_to_dict,
    write_outputs,
)
from treemaml.meta import MetaConfig, adapt_tree, generator_hierarchy_tree
from treemaml.models import LinearRegressionModel
from treemaml.numerics import confidence_halfwidth_95
from treemaml.tasks import (
    ConfigError,
    TaskGeneratorConfig,
    TaskSampler,
    build_parameter_tree,
)


def small_dict(**overrides):
    d = {
        "generator": {"dim": 6, "branching": [2, 2], "level_scales": [1.0, 1.0, 0.5],
                      "noise_std": 0.01, "seed": 2},
        "meta": {"inner_lr": 0.01, "outer_lr": 0.01, "inner_steps": 3,
                 "tasks_per_batch": 4, "outer_iterations": 3, "xi": 1.0},
        "modes": ["baseline", "maml", "tree_fixed", "tree_learned"],
        "points_sweep": [4],
        "meta_test_tasks": 5,
        "replicate_seeds": [0],
        "eval_test_points": 6,
    }
    d.update(overrides)
    return d


def small_spec(**overrides):
    return spec_from_dict(small_dict(**overrides))


def test_spec_from_dict_applies_sections():
    spec = small_spec()
    assert spec.generator.dim == 6
    assert spec.meta.inner_lr == 0.01
    assert spec.meta.xi == 1.0
    assert spec.modes == ("baseline", "maml", "tree_fixed", "tree_learned")
    assert spec.points_sweep == (4,)
    assert spec.replicate_seeds == (0,)
    assert spec.meta_test_tasks == 5
    assert spec.eval_test_points == 6


def test_spec_from_dict_defaults():
    spec = spec_from_dict({"generator": {"dim": 4}, "meta": {"inner_steps": 3}})
    assert spec.modes == ("baseline", "maml", "tree_fixed", "tree_learned")
    assert spec.points_sweep == (5, 10, 20)
    assert spec.meta_test_tasks == 400
    assert spec.replicate_seeds == (0, 1, 2)
    assert spec.eval_test_points == 20


def test_spec_validation_errors():
    gen = TaskGeneratorConfig(dim=4)
    meta = MetaConfig(inner_steps=3)
    with pytest.raises(ConfigError):
        ExperimentSpec(gen, meta, modes=("maml", "bogus"))
    with pytest.raises(ConfigError):
        ExperimentSpec(gen, meta, modes=())
    with pytest.raises(ConfigError):
        ExperimentSpec(gen, meta, points_sweep=(5, 0))
    with pytest.raises(ConfigError):
        ExperimentSpec(gen, meta, meta_test_tasks=1)
    with pytest.raises(ConfigError):
        ExperimentSpec(gen, meta, eval_test_points=0)
    for field, bad in (("meta_test_tasks", 2.5), ("eval_test_points", True)):
        with pytest.raises(ConfigError, match=f"^{field} must be an integer, not {bad!r}$"):
            ExperimentSpec(gen, meta, **{field: bad})
    # a library caller's grid key is checked too: no string read as its
    # characters, no number taken as a one-entry sweep
    for field, value in (("modes", "maml"), ("points_sweep", 5), ("replicate_seeds", 0),
                         ("replicate_seeds", range(3))):
        with pytest.raises(ConfigError, match=f"^{field} must be a non-empty list or tuple, not "):
            ExperimentSpec(gen, meta, **{field: value})


def test_eval_holds_one_target_at_a_time(monkeypatch):
    # each meta-test target's batches (its support too, in tree modes) must
    # be unreferenced before the next target draws
    finished, current, alive_at_draw = [], [], []
    sample, evaluate = cli.sample_task_batch, cli.adapt_and_evaluate

    def tracked_sample(*args, **kwargs):
        alive_at_draw.append(sum(ref() is not None for ref in finished))
        batch = sample(*args, **kwargs)
        current.append(weakref.ref(batch))
        current.extend(weakref.ref(a if a.base is None else a.base)
                       for s in (batch.train, batch.test) for b in s.blocks for a in b)
        return batch

    def tracked_evaluate(*args):
        mse = evaluate(*args)
        finished.extend(current)
        current.clear()
        return mse

    monkeypatch.setattr(cli, "sample_task_batch", tracked_sample)
    monkeypatch.setattr(cli, "adapt_and_evaluate", tracked_evaluate)
    outcome = run_experiment(small_spec(modes=["maml", "tree_fixed", "tree_learned"]))
    assert not outcome.failures
    # 5 targets per cell; tree modes draw a support batch for each as well
    assert alive_at_draw == [0] * (5 + 2 * 10)


def test_load_spec_round_trip(tmp_path):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(small_dict()))
    spec = load_spec(p)
    assert spec == small_spec()


def test_load_spec_rejects_bad_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_spec(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_spec(arr)
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps(small_dict(meta={"inner_steps": 3, "bogus_knob": 1})))
    with pytest.raises(ConfigError):
        load_spec(unknown)
    # cosine similarity and the argmax child are fixed, not clustering knobs
    for knob in ({"similarity": "cosine"}, {"most_similar": "argmax"}):
        unknown.write_text(json.dumps(small_dict(meta={"inner_steps": 3, **knob})))
        with pytest.raises(ConfigError):
            load_spec(unknown)


def test_cell_config_specializes_the_template():
    spec = small_spec()
    cfg = cell_config(spec, "tree_fixed", 7, 3)
    assert cfg.mode == "tree_fixed"
    assert cfg.points == 7
    assert cfg.seed == 3
    # nothing else: tree_fixed reads the generator paths, the default fixed_tree
    assert cfg == replace(spec.meta, mode="tree_fixed", points=7, seed=3)
    assert cfg.fixed_tree == generator_hierarchy_tree()


def test_run_experiment_covers_the_grid():
    spec = small_spec()
    out = run_experiment(spec)
    assert not out.failures
    assert {r.mode for r in out.results} == set(spec.modes)
    assert len(out.results) == 4
    for r in out.results:
        assert len(r.per_task_mse) == spec.meta_test_tasks
        assert r.mean_mse == pytest.approx(np.mean(r.per_task_mse))
        assert r.ci95 == confidence_halfwidth_95(r.per_task_mse)
        assert r.points_per_task == 4 and r.seed == 0
    tagged = {(rec["mode"], rec["points"], rec["seed"]) for rec in out.training_logs}
    assert tagged == {(m, 4, 0) for m in spec.modes}
    for rec in out.training_logs:
        assert {"iter", "meta_loss", "wall_ms", "partitions"} <= set(rec)


def test_run_experiment_is_deterministic():
    spec = small_spec()
    first = run_experiment(spec)
    second = run_experiment(spec)
    assert render_csv(first.results, spec) == render_csv(second.results, spec)


def test_csv_floats_round_trip_exactly():
    spec = small_spec(modes=["maml"])
    out = run_experiment(spec)
    text = render_csv(out.results, spec)
    header, row = text.strip().split("\n")
    assert header == "mode,points,seed,mean_mse,ci95"
    fields = row.split(",")
    assert fields[0] == "maml"
    assert float(fields[3]) == out.results[0].mean_mse
    assert float(fields[4]) == out.results[0].ci95


def test_render_csv_orders_rows_by_spec():
    gen = TaskGeneratorConfig(dim=4)
    meta = MetaConfig(inner_steps=3)
    spec = ExperimentSpec(gen, meta, modes=("maml", "baseline"),
                          points_sweep=(5, 10), replicate_seeds=(0, 1),
                          meta_test_tasks=2)

    def result(mode, points, seed):
        return RunResult(mode, points, (1.0, 2.0), 1.5, 0.2, seed, 0.1)

    rows = [result("baseline", 10, 1), result("maml", 10, 0), result("baseline", 5, 0),
            result("maml", 5, 1), result("maml", 5, 0), result("baseline", 10, 0)]
    lines = render_csv(rows, spec).strip().split("\n")[1:]
    keys = [tuple(line.split(",")[:3]) for line in lines]
    assert keys == [("maml", "5", "0"), ("maml", "5", "1"), ("maml", "10", "0"),
                    ("baseline", "5", "0"), ("baseline", "10", "0"), ("baseline", "10", "1")]


def test_render_table_contents():
    spec = small_spec()
    out = run_experiment(spec)
    table = render_table(out.results, out.failures, spec)
    for mode in spec.modes:
        assert mode in table
    assert "4 pts" in table
    assert "+/-" in table
    assert "cells: 4 ok, 0 failed" in table
    assert "wall:" in table


def test_render_table_blanks_missing_cells():
    gen = TaskGeneratorConfig(dim=4)
    meta = MetaConfig(inner_steps=3)
    spec = ExperimentSpec(gen, meta, modes=("maml", "baseline"), points_sweep=(5,),
                          replicate_seeds=(0,), meta_test_tasks=2)
    only = [RunResult("baseline", 5, (1.0, 2.0), 1.5, 0.2, 0, 0.1)]
    table = render_table(only, [], spec)
    maml_row = next(line for line in table.split("\n") if line.startswith("maml"))
    assert maml_row.split()[-1] == "-"


def test_trace_tree_to_dict_nests_partitions():
    gen = TaskGeneratorConfig(dim=6, branching=(2, 2), level_scales=(1.0, 1.0, 0.5), seed=2)
    tree = build_parameter_tree(gen)
    sampler = TaskSampler(tree, np.random.default_rng(0))
    tasks = sampler.sample_batch(8, 4, 4)
    model = LinearRegressionModel(gen.dim)
    cfg = MetaConfig(mode="tree_fixed", inner_steps=3, inner_lr=0.01, outer_lr=0.01,
                     fixed_tree=generator_hierarchy_tree())
    omega = np.random.default_rng(1).normal(0.0, 0.01, gen.dim)
    trace = adapt_tree(model, omega, tasks, cfg)
    dump = trace_tree_to_dict(trace)
    assert dump["depth"] == 0
    assert dump["member_tasks"] == sorted(tasks.ids.tolist())
    level1 = dump["children"]
    assert [c["depth"] for c in level1] == [1] * len(level1)
    assert sum(len(c["member_tasks"]) for c in level1) == 8
    leaves = [g for c in level1 for g in c["children"] for g in [g]]
    deepest = [h for g in leaves for h in g["children"]]
    assert all(len(h["member_tasks"]) == 1 for h in deepest)
    assert sum(len(h["member_tasks"]) for h in deepest) == 8


def test_write_outputs_produces_files(tmp_path):
    spec = small_spec(modes=["tree_fixed", "tree_learned"])
    out = run_experiment(spec, dump_tree=True)
    write_outputs(out, spec, tmp_path)
    assert (tmp_path / "results.csv").exists()
    assert (tmp_path / "table.txt").exists()
    assert (tmp_path / "log.jsonl").exists()
    assert (tmp_path / "tree_tree_fixed_4_0.json").exists()
    assert (tmp_path / "tree_tree_learned_4_0.json").exists()
    records = [json.loads(line) for line in (tmp_path / "log.jsonl").read_text().splitlines()]
    assert len(records) == 2 * spec.meta.outer_iterations
    dump = json.loads((tmp_path / "tree_tree_fixed_4_0.json").read_text())
    assert dump["node_id"] == 0 and dump["children"]


def test_main_version(capsys):
    import treemaml

    assert main(["version"]) == 0
    assert capsys.readouterr().out.strip() == treemaml.__version__


def test_main_run_writes_outputs(tmp_path, capsys):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(small_dict(modes=["maml", "tree_fixed"])))
    out_dir = tmp_path / "out"
    assert main(["run", str(p), "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "results.csv").exists()
    assert (out_dir / "table.txt").exists()
    captured = capsys.readouterr().out
    assert "outputs in" in captured
    assert "mean_mse" in captured


def test_main_mode_override_subsets_grid(tmp_path):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(small_dict()))
    out_dir = tmp_path / "out"
    assert main(["run", str(p), "--mode", "maml", "--out-dir", str(out_dir)]) == 0
    rows = (out_dir / "results.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == 1 and rows[0].startswith("maml,")


def test_main_second_order_override_changes_results(tmp_path):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(small_dict(modes=["maml"])))
    on_dir, off_dir = tmp_path / "on", tmp_path / "off"
    assert main(["run", str(p), "--out-dir", str(on_dir), "--second-order", "on"]) == 0
    assert main(["run", str(p), "--out-dir", str(off_dir), "--second-order", "off"]) == 0
    assert (on_dir / "results.csv").read_text() != (off_dir / "results.csv").read_text()


def test_main_missing_spec_is_a_config_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_main_bad_json_is_a_config_error(tmp_path, capsys):
    p = tmp_path / "spec.json"
    p.write_text("{broken")
    assert main(["run", str(p)]) == 2
    assert "error:" in capsys.readouterr().err


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("section, field, value, error", [
    ("generator", "level_scales", [1.0, 1.0, NAN], ConfigError),
    ("generator", "level_scales", [1.0, INF, 0.5], ConfigError),
    ("generator", "noise_std", NAN, ConfigError),
    ("generator", "noise_std", INF, ConfigError),
    ("generator", "task_jitter", NAN, ConfigError),
    ("generator", "task_jitter", INF, ConfigError),
    ("meta", "inner_lr", NAN, ConfigError),
    ("meta", "inner_lr", INF, ConfigError),
    ("meta", "outer_lr", NAN, ConfigError),
    ("meta", "outer_lr", INF, ConfigError),
    ("meta", "xi", NAN, ConfigError),
])
def test_non_finite_config_scalars_are_rejected(tmp_path, capsys, section, field, value, error):
    d = small_dict()
    d[section] = {**d[section], field: value}
    with pytest.raises(error) as err:
        spec_from_dict(d)
    assert type(err.value) is error
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(d))  # written as the NaN / Infinity literals
    assert main(["run", str(p), "--out-dir", str(tmp_path / "out")]) == 2
    assert "error:" in capsys.readouterr().err


def test_main_set_up_config_error_exits_2(tmp_path, capsys):
    # finite scales whose centers overflow: build_parameter_tree raises
    # ConfigError in set-up, before any cell runs
    d = small_dict()
    d["generator"]["level_scales"] = [1e308, 1e308, 1e308]
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(d))
    for argv in (["run", str(p), "--out-dir", str(tmp_path / "out")],
                 ["export-dist", str(p), "--out", str(tmp_path / "centers.json")]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "error: a level-" in captured.err and "center overflows" in captured.err
        assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "out").exists() and not (tmp_path / "centers.json").exists()


def test_negative_replicate_seed_is_a_spec_error(tmp_path, capsys):
    with pytest.raises(ConfigError, match="replicate_seeds"):
        small_spec(replicate_seeds=[0, -1])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(small_dict(replicate_seeds=[-1])))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(small_dict()))
    for argv in (["run", str(bad)], ["run", str(good), "--seed", "-1"]):
        assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert "error: replicate_seeds" in captured.err
        assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "out").exists()


def test_the_retired_clustering_section_fails_at_load(tmp_path, capsys):
    # meta.xi took its place, and the tree depth is inner_steps - 1; no cell
    # runs, also when --mode picks only modes that never cluster
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(small_dict(clustering={"max_depth": 2, "xi": 1.0})))
    for argv in (["run", str(bad)], ["run", str(bad), "--mode", "maml"]):
        assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert "error: clustering is not a spec key" in captured.err
        assert "mean_mse" not in captured.out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, field, value", [
    ("meta", "tasks_per_batch", 2.5),
    ("meta", "second_order", "no"),
    (None, "points_sweep", [2.5]),
    (None, "modes", ["maml", "maml"]),
    ("generator", "branching", "22"),
    ("generator", "branching", [2.5, 2]),
    ("generator", "branching", [True, 2]),
    ("generator", "level_scales", "111"),
    ("generator", "level_scales", [1, "1", 0.5]),
    ("generator", "task_jitter", True),
    ("generator", "task_jitter", "0.1"),
    ("generator", "seed", -1),
])
def test_mistyped_or_repeated_spec_values_exit_2(tmp_path, capsys, section, field, value):
    d = small_dict(modes=["maml"])
    if section:
        d[section] = {**d[section], field: value}
    else:
        d[field] = value
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(d))
    assert main(["run", str(p), "--out-dir", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert f"error: {section + '.' if section else ''}{field} " in captured.err
    assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, field, value, error", [
    (None, "points_swep", [99], "points_swep is not a spec key"),
    (None, "clustring", {"xi": -5}, "clustring is not a spec key"),
    (None, "modes", "maml", "modes must be tuple[str, ...], not 'maml'"),
    (None, "points_sweep", 5, "points_sweep must be tuple[int, ...], not 5"),
    (None, "replicate_seeds", 0, "replicate_seeds must be tuple[int, ...], not 0"),
    (None, "meta", 5, "meta must be a JSON object, not 5"),
    ("meta", "fixed_tree", "abc", "meta.fixed_tree must be FixedTreeSpec, not 'abc'"),
    ("meta", "fixed_tree", None, "meta.fixed_tree must be FixedTreeSpec, not None"),
    ("meta", "cluster", {"max_depth": 2}, "meta.cluster is not a spec key"),
    ("meta", "mode", "maml", "meta.mode is set per cell by the grid key modes"),
    ("meta", "points", 5, "meta.points is set per cell by the grid key points_sweep"),
    ("meta", "seed", 0, "meta.seed is set per cell by the grid key replicate_seeds"),
    ("meta", "points_train", 5, "meta.points_train is not a spec key"),
])
def test_unknown_or_misshaped_spec_keys_exit_2(tmp_path, capsys, section, field, value, error):
    # every key is a section, a section's field or a grid key, of its type
    d = small_dict(modes=["maml"])
    if section:
        d[section] = {**d[section], field: value}
    else:
        d[field] = value
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(d))
    assert main(["run", str(p), "--out-dir", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert f"error: {error}" in captured.err
    assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "out").exists()


def test_every_shipped_spec_loads():
    specs = sorted((Path(__file__).resolve().parents[1] / "specs").glob("*.json"))
    assert specs
    for path in specs:
        load_spec(path)


@pytest.mark.parametrize("flag, value", [("--points", "abc"), ("--seed", "1.5")])
def test_a_non_integer_sweep_flag_is_named(tmp_path, capsys, flag, value):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(small_dict(modes=["maml"])))
    assert main(["run", str(p), flag, value, "--out-dir", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert f"error: {flag} takes comma-separated integers, not '{value}'" in captured.err
    assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "out").exists()


def test_overflowing_task_jitter_fails_the_cell_as_a_config_error(tmp_path, capsys):
    # the spec passes its range checks, but every sampled task overflows
    d = small_dict(modes=["maml"])
    d["generator"]["task_jitter"] = 1e308
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(d))
    assert main(["run", str(p), "--out-dir", str(tmp_path / "out")]) == 1
    failure = "maml/4/0: ConfigError: sampled task weights or targets overflow; task_jitter 1e+308"
    assert failure in capsys.readouterr().err


def test_config_error_in_a_cell_is_reported_on_one_line(tmp_path, capsys):
    # a ConfigError names the spec fields at fault, as a DivergenceError names
    # its phase, so neither echoes a traceback; the exit code stays 1
    d = small_dict(modes=["maml", "baseline"])
    d["generator"]["task_jitter"] = 1e308
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(d))
    assert main(["run", str(p), "--out-dir", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    failed = [line for line in captured.out.splitlines() if "FAILED: ConfigError: " in line]
    assert [line.split("]")[0] for line in failed] == ["[maml points=4 seed=0", "[baseline points=4 seed=0"]


def test_main_divergent_cell_exits_nonzero(tmp_path, capsys):
    d = small_dict(modes=["maml"])
    d["meta"]["inner_lr"] = 5.0
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(d))
    out_dir = tmp_path / "out"
    assert main(["run", str(p), "--out-dir", str(out_dir)]) == 1
    assert "cell failed" in capsys.readouterr().err
    failed = [line for line in (out_dir / "table.txt").read_text().splitlines()
              if line.startswith("FAILED maml/4/0: diverged: ")]
    assert len(failed) == 1
    # the DivergenceError message names the iteration; nothing repeats it
    assert failed[0].count("at iteration") == 1
    assert "(iteration" not in failed[0]
    assert (out_dir / "results.csv").read_text().strip() == "mode,points,seed,mean_mse,ci95"


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_main_outer_step_overflow_fails_each_cell(tmp_path, capsys):
    # outer_lr=1e200 blows omega up to ~1e200 in the outer step of iteration
    # 1, so the meta-loss of iteration 2 overflows in both cells; each fails
    # alone as a divergence, and the grid still writes its (empty) results
    d = small_dict(modes=["maml", "baseline"])
    d["generator"]["dim"] = 8
    d["meta"]["outer_lr"] = 1e200
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(d))
    out_dir = tmp_path / "out"
    assert main(["run", str(p), "--out-dir", str(out_dir)]) == 1
    table = (out_dir / "table.txt").read_text()
    for mode in ("maml", "baseline"):
        assert f"FAILED {mode}/4/0: diverged: meta-loss inf in meta-validation at iteration 2" in table
    assert "Traceback" not in capsys.readouterr().out
    assert (out_dir / "results.csv").read_text() == "mode,points,seed,mean_mse,ci95\n"


def test_main_export_dist(tmp_path, capsys):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(small_dict()))
    target = tmp_path / "centers.json"
    assert main(["export-dist", str(p), "--out", str(target)]) == 0
    d = json.loads(target.read_text())
    assert TaskGeneratorConfig(**d["config"]).dim == 6
    assert len(d["centers"]) == 7
    assert all(len(c) == 6 for c in d["centers"])


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_main_cell_exception_is_contained(tmp_path, capsys):
    # inner_lr=1e80 keeps the maml cell's adapted parameters finite (near
    # 1e250) but overflows their meta-loss in iteration 1, a divergence; the
    # zero-shot baseline cell never uses inner_lr and must still run and be
    # written out
    d = small_dict(modes=["maml", "baseline"])
    d["generator"]["dim"] = 8
    d["meta"]["inner_lr"] = 1e80
    d["meta"]["baseline_finetune"] = False
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(d))
    out_dir = tmp_path / "out"
    assert main(["run", str(p), "--out-dir", str(out_dir)]) == 1
    failure = "maml/4/0: diverged: meta-loss inf in meta-validation at iteration 1"
    captured = capsys.readouterr()
    assert f"cell failed: {failure}" in captured.err
    assert "Traceback" not in captured.out
    assert f"FAILED {failure}" in (out_dir / "table.txt").read_text()
    rows = (out_dir / "results.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["baseline"]
