"""The benchmark's tracer wraps curlearn functions by name; keep those names."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

BENCH_TRACE = Path(__file__).resolve().parent.parent / "curbench" / "bench_trace.py"


def bench_trace():
    spec = importlib.util.spec_from_file_location("bench_trace_names", BENCH_TRACE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def traced_names():
    return [(layer, name) for layer, names in bench_trace().TRACED.items() for name in names]


@pytest.mark.parametrize("layer, name", traced_names(), ids=lambda v: str(v))
def test_traced_name_resolves(layer, name):
    owner = importlib.import_module(f"curlearn.{layer}")
    for part in name.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_feature_matrix_build_is_a_classmethod():
    from curlearn.toy_model import FeatureMatrix
    assert isinstance(FeatureMatrix.__dict__["build"], classmethod)


def test_feature_matrix_build_calls_featurize_once_per_row(monkeypatch):
    # toy_model.featurize_calls and featurize_us_per_example count these calls
    from curlearn import toy_model
    from curlearn.dataset_io import Dataset, Example
    rows = []
    real = toy_model.featurize

    def counting(example, *args):
        rows.append(example.id)
        return real(example, *args)

    monkeypatch.setattr(toy_model, "featurize", counting)
    examples = [Example(id=i, text=f"w{i % 3} shared", label=i % 2) for i in range(7)]
    toy_model.FeatureMatrix.build(Dataset(examples=examples, class_count=2), 64)
    assert rows == list(range(7))


def test_write_plan_jsonl_takes_the_plans_first():
    from curlearn.samplers import write_plan_jsonl
    assert list(inspect.signature(write_plan_jsonl).parameters)[:2] == ["plans", "path"]


def test_cmd_plan_passes_the_plans_positionally(tmp_path, monkeypatch):
    # samplers.write_us_per_position counts the positions in args[0]
    from curlearn import cli
    from curlearn.dataset_io import Dataset, Example, save_dataset
    calls = []
    real = cli.write_plan_jsonl

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "write_plan_jsonl", recording)
    dataset = tmp_path / "d.jsonl"
    save_dataset(Dataset([Example(id=i, text=f"w{i}", label=i % 2) for i in range(30)],
                         class_count=2), dataset)
    assert cli.main(["plan", "--dataset", str(dataset), "--strategy", "Random",
                     "--epochs", "2", "--out", str(tmp_path / "plan.jsonl")]) == 0
    [(args, kwargs)] = calls
    assert "plans" not in kwargs
    count = bench_trace().COUNTERS["samplers.write_plan_jsonl"]
    assert count(args, kwargs, None) == 60


@pytest.mark.parametrize("command", ["plan", "train"])
def test_make_plan_gets_the_strategy_first_on_plan_and_train(tmp_path, monkeypatch, command):
    # samplers.plan_ms.<strategy> is tagged from make_plan's args[0]; a tag that
    # is not a strategy name leaves every per-strategy metric at 0
    from curlearn import cli, trainer
    from curlearn.dataset_io import Dataset, Example, save_dataset
    from curlearn.samplers import Strategy
    tags = []
    real = trainer.make_plan

    def recording(*args, **kwargs):
        assert isinstance(args[0], Strategy)
        tags.append(args[0].value)
        return real(*args, **kwargs)

    monkeypatch.setattr(trainer, "make_plan", recording)
    dataset = tmp_path / "d.jsonl"
    save_dataset(Dataset([Example(id=i, text=f"w{i} x{i % 3}", label=i % 2) for i in range(30)],
                         class_count=2), dataset)
    data = (["--dataset", str(dataset)] if command == "plan"
            else ["--train", str(dataset), "--val", str(dataset), "--test", str(dataset)])
    assert cli.main([command, *data, "--strategy", "PMD", "--seed", "7", "--epochs", "2",
                     "--dim", "64", "--out", str(tmp_path / "out")]) == 0
    assert tags == ["PMD", "PMD"]
