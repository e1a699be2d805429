"""Command-line front end: score, plan, train, fewshot, analyze, compare.

Setting precedence is flag > config file > built-in default. The config
file is a flat JSON object keyed like ``{"train.epochs": 5}``; the full key
list lives in SETTINGS. Every run directory gets a manifest.json with
the resolved settings, input digests and timestamps; all other outputs are
byte-deterministic for identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import dataclasses
import datetime
import functools
import hashlib
import json
import os
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .dataset_io import (Dataset, load_dataset, open_atomic, read_predictions,
                         read_score_file, rows_of)
from .samplers import Strategy, write_plan_jsonl
from .scoring import score_histogram, score_table_from_probs, write_histogram_csv
from .trainer import (AGGREGATE_COLUMNS, FEWSHOT_STREAM, TrainConfig, aggregate_runs,
                      epoch_plans, featurize_splits, few_shot_select,
                      resolve_score_table, run_training,
                      write_aggregate_csv, write_aggregate_text, write_checkpoint_csv,
                      write_report_json)


class Setting(NamedTuple):
    dest: str | None        # argparse destination; None when no flag sets the key
    field: str | None       # TrainConfig field; None for the CLI-only keys
    type: type              # JSON type a config file must give
    default: object = None  # CLI-only keys only; TrainConfig holds the others


SETTINGS = {
    "train.epochs": Setting("epochs", "epochs", int),
    "train.batch_size": Setting("batch_size", "batch_size", int),
    "train.checkpoint_fraction": Setting("checkpoint_fraction", "checkpoint_fraction", float),
    "train.seeds": Setting("seed", "seeds", list),
    "train.strategy": Setting("strategy", "strategy", str),
    "train.max_tokens": Setting("max_tokens", "max_tokens", int),
    "train.rescore": Setting("rescore", "rescore", bool),
    "train.rescore_split": Setting("rescore_split", "rescore_split", str),
    "optimizer.kind": Setting("optimizer", "optimizer", str),
    "optimizer.lr": Setting("lr", "learning_rate", float),
    "optimizer.weight_decay": Setting(None, "weight_decay", float),
    "optimizer.beta1": Setting(None, "beta1", float),
    "optimizer.beta2": Setting(None, "beta2", float),
    "optimizer.epsilon": Setting(None, "epsilon", float),
    "model.dim": Setting("dim", "dim", int),
    "probe.fraction": Setting("probe_fraction", "probe_fraction", float),
    "probe.epochs": Setting("probe_epochs", "probe_epochs", int),
    "probe.seed": Setting("probe_seed", "probe_seed", int),
    "scores.path": Setting("scores", "scores_path", str),
    "analyze.bins": Setting("bins", "histogram_bins", int),
    "fewshot.k": Setting("k", None, int, 64),
    "data.classes": Setting("classes", None, int, 2),
    "data.format": Setting("format", None, str, "jsonl"),
    "compare.jobs": Setting("jobs", None, int, 1),
}


def _strategy_name(value: str) -> str:
    try:
        return Strategy.parse(value).value
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {n}")
    return n


def _bins_arg(value: str) -> int:
    n = int(value)
    if n < 2:
        raise argparse.ArgumentTypeError(f"bins must be >= 2, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curlearn",
        description="Difficulty-scored curriculum sampling and a desk-scale "
                    "training harness.")
    parser.add_argument("--version", action="version", version=f"curlearn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, datasets="single"):
        if datasets == "single":
            p.add_argument("--dataset", required=True, help="dataset file (jsonl or csv)")
        else:
            p.add_argument("--train", required=True, help="training split file")
            p.add_argument("--val", required=True, help="validation split file")
            p.add_argument("--test", required=True, help="test split file")
        p.add_argument("--format", choices=["jsonl", "csv"])
        p.add_argument("--classes", type=_positive_int,
                       help="number of classes (default 2)")
        p.add_argument("--config", help="flat JSON config file")
        p.add_argument("--out", required=True, help="output file or directory")
        p.add_argument("--force", action="store_true",
                       help="overwrite existing outputs")
        p.add_argument("--scores", help="external {id, probs} JSONL score file")
        p.add_argument("--probe-fraction", type=float)
        p.add_argument("--probe-epochs", type=int)
        p.add_argument("--probe-seed", type=int)
        p.add_argument("--dim", type=_positive_int)
        p.add_argument("--max-tokens", type=_positive_int)

    def train_like(p):
        p.add_argument("--seed", type=int, action="append",
                       help="random seed; repeat for several runs")
        p.add_argument("--epochs", type=_positive_int)
        p.add_argument("--batch-size", type=_positive_int)
        p.add_argument("--checkpoint-fraction", type=float)
        p.add_argument("--optimizer", choices=["sgd", "adamw"])
        p.add_argument("--lr", type=float)
        p.add_argument("--rescore", action=argparse.BooleanOptionalAction,
                       help="recompute score histograms after every epoch")
        p.add_argument("--rescore-split", choices=["train", "validation"])

    p_score = sub.add_parser("score", help="write per-example difficulty scores")
    common(p_score)
    p_score.set_defaults(func=cmd_score)

    p_plan = sub.add_parser("plan", help="dump epoch schedules (debug)")
    common(p_plan)
    p_plan.add_argument("--strategy", type=_strategy_name, required=True)
    p_plan.add_argument("--seed", type=int, action="append")
    p_plan.add_argument("--epochs", type=_positive_int,
                        help="number of epoch plans to dump (default 1)")
    p_plan.add_argument("--batch-size", type=_positive_int)
    p_plan.set_defaults(func=cmd_plan)

    p_train = sub.add_parser("train", help="run the fine-tuning protocol")
    common(p_train, datasets="splits")
    p_train.add_argument("--strategy", type=_strategy_name, required=True)
    train_like(p_train)
    p_train.set_defaults(func=cmd_train)

    p_few = sub.add_parser("fewshot", help="select k examples, then train on them")
    common(p_few, datasets="splits")
    p_few.add_argument("--strategy", type=_strategy_name, required=True)
    p_few.add_argument("--k", type=_positive_int,
                       help="number of examples to select (default 64)")
    train_like(p_few)
    p_few.set_defaults(func=cmd_fewshot)

    p_ana = sub.add_parser("analyze", help="score-distribution histograms")
    p_ana.add_argument("scores_files", nargs="+", help="scores JSONL file(s)")
    p_ana.add_argument("--predictions", help="JSONL of {id, predicted_label, gold_label}")
    p_ana.add_argument("--bins", type=_bins_arg)
    p_ana.add_argument("--config")
    p_ana.add_argument("--out", required=True)
    p_ana.add_argument("--force", action="store_true")
    p_ana.set_defaults(func=cmd_analyze)

    p_cmp = sub.add_parser("compare", help="strategy x seed grid with mean table")
    common(p_cmp, datasets="splits")
    p_cmp.add_argument("--strategies", type=_strategy_name, nargs="+", required=True)
    p_cmp.add_argument("--jobs", type=_positive_int,
                       help="parallel grid cells (default 1)")
    train_like(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except (OSError, ValueError, RuntimeError, KeyError, FloatingPointError) as err:
        print(f"curlearn: error: {err}", file=sys.stderr)
        return 1


# ---------------------------------------------------------------- settings


def load_config_file(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}: invalid JSON config: {err.msg}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    defaults = default_settings()
    problems = []
    for key, value in raw.items():
        if key not in SETTINGS:
            problems.append(f"unknown key {key!r}")
            continue
        want = SETTINGS[key].type
        # null keeps a key unset, so only a key unset by default takes it;
        # an int is a valid float; a bool is only a bool
        fits = isinstance(value, want) or (want is float and isinstance(value, int))
        if value is None:
            if defaults[key] is not None:
                problems.append(f"{key}: expected {want.__name__}, got null")
        elif not fits or (isinstance(value, bool) and want is not bool):
            problems.append(f"{key}: expected {want.__name__}, got {type(value).__name__}")
    if problems:
        raise ValueError(f"{path}: config schema violations: " + "; ".join(problems))
    return raw


def default_settings() -> dict:
    """Every key's built-in default: TrainConfig's for its fields, the table's otherwise."""
    fields = {f.name: f.default for f in dataclasses.fields(TrainConfig)}
    settings = {key: fields[s.field] if s.field else s.default for key, s in SETTINGS.items()}
    # JSON forms of the two defaults that are not JSON values
    settings["train.strategy"] = settings["train.strategy"].value
    settings["train.seeds"] = list(settings["train.seeds"])
    return settings


def resolve_settings(args, defaults=None) -> dict:
    """flag > config file > default, per key; ``defaults`` overrides built-in ones."""
    settings = default_settings()
    settings.update(defaults or {})
    if getattr(args, "config", None):
        settings.update(load_config_file(args.config))
    for key, s in SETTINGS.items():
        value = getattr(args, s.dest, None) if s.dest else None
        if value is not None:
            settings[key] = value
    return settings


def train_config(settings) -> TrainConfig:
    return TrainConfig(**{s.field: settings[key] for key, s in SETTINGS.items() if s.field})


def _load_split(path, settings, split_tag):
    return load_dataset(path, format=settings["data.format"],
                        class_count=settings["data.classes"], split_tag=split_tag)


# ---------------------------------------------------------------- outputs


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _check_out_file(path, force: bool) -> None:
    if os.path.exists(path) and not force:
        raise ValueError(f"output {path} exists; pass --force to overwrite")
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)


def _check_out_dir(path, force: bool) -> Path:
    out = Path(path)
    if out.exists() and any(out.iterdir()) and not force:
        raise ValueError(f"output directory {path} is not empty; pass --force to overwrite")
    out.mkdir(parents=True, exist_ok=True)
    return out


def write_manifest(path, settings, input_paths) -> None:
    manifest = {
        "schema_version": 1,
        "tool": "curlearn",
        "tool_version": __version__,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "command": list(sys.argv),
        "resolved_config": {k: settings[k] for k in sorted(settings)},
        "input_digests": {str(p): _sha256(p) for p in input_paths if p},
    }
    with open_atomic(path, encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_run_outputs(out_dir: Path, prefix: str, report) -> None:
    stem = f"{prefix}{report.strategy}_seed{report.seed}"
    write_report_json(report, out_dir / f"report_{stem}.json")
    write_checkpoint_csv(report, out_dir / f"checkpoints_{stem}.csv")
    if report.score_histograms:
        write_histogram_csv(report.score_histograms, out_dir / f"histograms_{stem}.csv")


# ---------------------------------------------------------------- grid runner


@dataclasses.dataclass
class Cell:
    """One (strategy, seed) training run and everything it reads."""

    config: TrainConfig
    seed: int
    splits: tuple[Dataset, Dataset, Dataset]  # train (or few-shot subset), val, test
    tables: tuple  # train and validation ScoreTable from one probe, None when unused
    features: tuple  # the splits' FeatureMatrix, in the same order


def _run_cell(cell: Cell, out_dir: Path, prefix: str):
    """Train one cell and write its outputs; a failure comes back as its message."""
    try:
        table, val_table = cell.tables
        report = run_training(*cell.splits, cell.config, seed=cell.seed, score_table=table,
                              features=cell.features, val_table=val_table).report
        _write_run_outputs(out_dir, prefix, report)
        return report, None
    except Exception as err:  # noqa: BLE001 - the grid marks the gap and keeps going
        return None, str(err)


def run_grid(cells, jobs: int, out_dir: Path, prefix: str = "") -> tuple[dict, bool]:
    """Run every cell, in ``jobs`` worker processes when jobs > 1.

    A failed cell is reported on stderr and the others still run. Returns
    the finished reports keyed by (strategy name, seed) and whether any
    cell failed.
    """
    run = functools.partial(_run_cell, out_dir=out_dir, prefix=prefix)
    reports, failed = {}, False
    with (concurrent.futures.ProcessPoolExecutor(max_workers=jobs) if jobs > 1
          else contextlib.nullcontext()) as pool:
        futures = [pool.submit(run, cell) if pool else None for cell in cells]
        for cell, future in zip(cells, futures):
            try:
                report, error = future.result() if future else run(cell)
            except concurrent.futures.BrokenExecutor as err:  # a worker process died
                report, error = None, str(err)
            name = cell.config.strategy.value
            if error is None:
                reports[(name, cell.seed)] = report
            else:
                failed = True
                print(f"curlearn: run failed: {name} seed {cell.seed}: {error}",
                      file=sys.stderr)
    return reports, failed


def _prepare_grid(args, strategies, few_shot: bool = False):
    """Settings, config, the three splits, the output directory, their FeatureMatrix
    and the (train, validation) score tables every cell shares, from one probe.

    The train table is None when no cell needs scores, the validation table
    unless the validation split is rescored."""
    settings = resolve_settings(args)
    config = train_config(settings)
    splits = (_load_split(args.train, settings, "train"),
              _load_split(args.val, settings, "validation"),
              _load_split(args.test, settings, "test"))
    k = settings["fewshot.k"]
    if few_shot and k > len(splits[0]):
        raise ValueError(f"k={k} exceeds training set size {len(splits[0])}")
    out_dir = _check_out_dir(args.out, args.force)
    features = featurize_splits(splits, config)
    tables = None, None
    if any(s.needs_scores for s in strategies) or config.rescore:
        tables = resolve_score_table(splits[0], config, features[0], (splits[1], features[1]))
    return settings, config, splits, out_dir, features, tables


def _finish_grid(args, settings, failed: bool) -> int:
    write_manifest(Path(args.out) / "manifest.json", settings,
                   [args.train, args.val, args.test, settings["scores.path"], args.config])
    return 1 if failed else 0


# ------------------------------------------------------------- subcommands


def cmd_score(args) -> int:
    settings = resolve_settings(args)
    dataset = _load_split(args.dataset, settings, "train")
    _check_out_file(args.out, args.force)
    table, _ = resolve_score_table(dataset, train_config(settings))
    order = np.argsort(table.ids, kind="stable")
    # json.dumps's bytes: it writes floats with float.__repr__, and every value
    # is finite (score_dataset and read_score_file check the rows)
    with open_atomic(args.out, encoding="utf-8") as fh:
        fh.writelines(
            f'{{"id": {rid}, "probs": [{", ".join(map(repr, probs))}], "score": {score!r}}}\n'
            for rid, probs, score in zip(table.ids[order].tolist(),
                                         table.distributions[order].tolist(),
                                         table.scores[order].tolist()))
    write_manifest(str(args.out) + ".manifest.json", settings,
                   [args.dataset, settings["scores.path"], args.config])
    return 0


def cmd_plan(args) -> int:
    settings = resolve_settings(args, defaults={"train.epochs": 1})
    config = train_config(settings)
    dataset = _load_split(args.dataset, settings, "train")
    _check_out_file(args.out, args.force)
    table = resolve_score_table(dataset, config)[0] if config.strategy.needs_scores else None
    write_plan_jsonl(list(epoch_plans(config, table, dataset, config.seeds[0])), args.out)
    write_manifest(str(args.out) + ".manifest.json", settings,
                   [args.dataset, settings["scores.path"], args.config])
    return 0


def cmd_train(args) -> int:
    settings, config, splits, out_dir, features, tables = _prepare_grid(
        args, [Strategy.parse(args.strategy)])
    cells = [Cell(config, seed, splits, tables, features) for seed in config.seeds]
    _, failed = run_grid(cells, 1, out_dir)
    return _finish_grid(args, settings, failed)


def cmd_fewshot(args) -> int:
    settings, config, (train_ds, val_ds, test_ds), out_dir, features, tables = _prepare_grid(
        args, [Strategy.parse(args.strategy)], few_shot=True)
    table, val_table = tables
    cells = []
    for seed in config.seeds:
        rng = np.random.default_rng((seed, FEWSHOT_STREAM))
        subset = few_shot_select(config.strategy, table, train_ds, k=settings["fewshot.k"],
                                 rng=rng, batch_size=config.batch_size,
                                 max_tokens=config.max_tokens)
        cells.append(Cell(config, seed, (subset, val_ds, test_ds),
                          (table.restrict(subset.ids) if table is not None else None,
                           val_table),
                          (features[0].take(rows_of(train_ds.ids, subset.ids)),
                           *features[1:])))
    _, failed = run_grid(cells, 1, out_dir, prefix="fewshot_")
    return _finish_grid(args, settings, failed)


def cmd_analyze(args) -> int:
    bins = resolve_settings(args)["analyze.bins"]
    _check_out_file(args.out, args.force)
    reports = []
    for index, path in enumerate(args.scores_files):
        ids, probs, tag = read_score_file(path, epoch_tags=True)
        table = score_table_from_probs(probs, ids)
        tag = index if tag is None else tag
        if not args.predictions:
            reports.append(score_histogram(table, bins=bins, epoch_tag=tag))
            continue
        # labels are checked against this file's class count
        predictions = read_predictions(args.predictions, probs.shape[1])
        labels = [predictions.get(int(i)) for i in table.ids]
        missing = [int(i) for i, pair in zip(table.ids, labels) if pair is None]
        if missing:
            raise ValueError(f"{path}: ids missing from predictions: {missing[:5]}")
        preds, gold = np.array(labels, dtype=np.int64).T
        reports.append(score_histogram(table, preds, gold, bins=bins, epoch_tag=tag))
    write_histogram_csv(reports, args.out)
    write_manifest(str(args.out) + ".manifest.json", {"analyze.bins": bins},
                   list(args.scores_files) + [args.predictions, args.config])
    return 0


def cmd_compare(args) -> int:
    strategies = [Strategy.parse(s) for s in args.strategies]
    settings, config, splits, out_dir, features, tables = _prepare_grid(args, strategies)
    cells = [Cell(dataclasses.replace(config, strategy=strategy), seed, splits, tables,
                  features)
             for strategy in strategies for seed in config.seeds]
    reports, failed = run_grid(cells, settings["compare.jobs"], out_dir)

    rows = []
    for strategy in strategies:
        done = [reports[(strategy.value, s)] for s in config.seeds
                if (strategy.value, s) in reports]
        missing = [s for s in config.seeds if (strategy.value, s) not in reports]
        if done:
            row = aggregate_runs({strategy.value: done})[0]
        else:
            row = {"strategy": strategy.value, "seeds": [],
                   **dict.fromkeys(AGGREGATE_COLUMNS[1:], float("nan"))}
        row["missing_seeds"] = missing
        rows.append(row)
    write_aggregate_csv(rows, out_dir / "aggregate.csv")
    write_aggregate_text(rows, out_dir / "aggregate.txt")
    return _finish_grid(args, settings, failed)


if __name__ == "__main__":
    sys.exit(main())
