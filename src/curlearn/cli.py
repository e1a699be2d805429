"""Command-line front end: score, plan, train, fewshot, analyze, compare.

Setting precedence is flag > config file > built-in default. The config
file is a flat JSON object keyed like ``{"train.epochs": 5}``; the full key
list lives in CONFIG_SCHEMA. Every run directory gets a manifest.json with
the resolved settings, input digests and timestamps; all other outputs are
byte-deterministic for identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import datetime
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dataset_io import load_dataset, load_external_scores, read_score_file
from .samplers import Strategy, make_plan, write_plan_jsonl
from .scoring import score_histogram, score_table_from_probs, write_histogram_csv
from .trainer import (FEWSHOT_STREAM, TrainConfig, aggregate_runs, featurize_splits,
                      few_shot_select, resolve_score_table, run_training,
                      write_aggregate_csv, write_aggregate_text, write_checkpoint_csv,
                      write_report_json)

CONFIG_SCHEMA = {
    "train.epochs": int,
    "train.batch_size": int,
    "train.checkpoint_fraction": float,
    "train.seeds": list,
    "train.strategy": str,
    "train.max_tokens": int,
    "train.rescore": bool,
    "train.rescore_split": str,
    "optimizer.kind": str,
    "optimizer.lr": float,
    "optimizer.weight_decay": float,
    "optimizer.beta1": float,
    "optimizer.beta2": float,
    "optimizer.epsilon": float,
    "model.dim": int,
    "probe.fraction": float,
    "probe.epochs": int,
    "probe.seed": int,
    "scores.path": str,
    "analyze.bins": int,
    "fewshot.k": int,
    "data.classes": int,
    "data.format": str,
    "compare.jobs": int,
}

DEFAULTS = {
    "train.epochs": 5,
    "train.batch_size": 16,
    "train.checkpoint_fraction": 0.1,
    "train.seeds": [66, 88, 99],
    "train.strategy": "Random",
    "train.max_tokens": None,
    "train.rescore": False,
    "train.rescore_split": "train",
    "optimizer.kind": "adamw",
    "optimizer.lr": None,
    "optimizer.weight_decay": 0.01,
    "optimizer.beta1": 0.9,
    "optimizer.beta2": 0.999,
    "optimizer.epsilon": 1e-8,
    "model.dim": 2 ** 16,
    "probe.fraction": 0.1,
    "probe.epochs": 1,
    "probe.seed": 0,
    "scores.path": None,
    "analyze.bins": 20,
    "fewshot.k": 64,
    "data.classes": 2,
    "data.format": "jsonl",
    "compare.jobs": 1,
}

# CLI flag destination -> flat config key
FLAG_KEYS = {
    "epochs": "train.epochs",
    "batch_size": "train.batch_size",
    "checkpoint_fraction": "train.checkpoint_fraction",
    "seed": "train.seeds",
    "strategy": "train.strategy",
    "max_tokens": "train.max_tokens",
    "rescore": "train.rescore",
    "rescore_split": "train.rescore_split",
    "optimizer": "optimizer.kind",
    "lr": "optimizer.lr",
    "dim": "model.dim",
    "probe_fraction": "probe.fraction",
    "probe_epochs": "probe.epochs",
    "probe_seed": "probe.seed",
    "scores": "scores.path",
    "bins": "analyze.bins",
    "k": "fewshot.k",
    "classes": "data.classes",
    "format": "data.format",
    "jobs": "compare.jobs",
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
        p.add_argument("--format", choices=["jsonl", "csv"], default=None)
        p.add_argument("--classes", type=_positive_int, default=None,
                       help="number of classes (default 2)")
        p.add_argument("--config", default=None, help="flat JSON config file")
        p.add_argument("--out", required=True, help="output file or directory")
        p.add_argument("--force", action="store_true",
                       help="overwrite existing outputs")
        p.add_argument("--scores", default=None,
                       help="external {id, probs} JSONL score file")
        p.add_argument("--probe-fraction", dest="probe_fraction", type=float, default=None)
        p.add_argument("--probe-epochs", dest="probe_epochs", type=int, default=None)
        p.add_argument("--probe-seed", dest="probe_seed", type=int, default=None)
        p.add_argument("--dim", type=_positive_int, default=None)
        p.add_argument("--max-tokens", dest="max_tokens", type=_positive_int, default=None)

    def train_like(p):
        p.add_argument("--seed", type=int, action="append", default=None,
                       help="random seed; repeat for several runs")
        p.add_argument("--epochs", type=_positive_int, default=None)
        p.add_argument("--batch-size", dest="batch_size", type=_positive_int, default=None)
        p.add_argument("--checkpoint-fraction", dest="checkpoint_fraction",
                       type=float, default=None)
        p.add_argument("--optimizer", choices=["sgd", "adamw"], default=None)
        p.add_argument("--lr", type=float, default=None)
        p.add_argument("--rescore", action=argparse.BooleanOptionalAction, default=None,
                       help="recompute score histograms after every epoch")
        p.add_argument("--rescore-split", dest="rescore_split",
                       choices=["train", "validation"], default=None)

    p_score = sub.add_parser("score", help="write per-example difficulty scores")
    common(p_score)
    p_score.set_defaults(func=cmd_score)

    p_plan = sub.add_parser("plan", help="dump epoch schedules (debug)")
    common(p_plan)
    p_plan.add_argument("--strategy", type=_strategy_name, required=True)
    p_plan.add_argument("--seed", type=int, action="append", default=None)
    p_plan.add_argument("--epochs", type=_positive_int, default=1,
                        help="number of epoch plans to dump")
    p_plan.add_argument("--batch-size", dest="batch_size", type=_positive_int, default=None)
    p_plan.set_defaults(func=cmd_plan)

    p_train = sub.add_parser("train", help="run the fine-tuning protocol")
    common(p_train, datasets="splits")
    p_train.add_argument("--strategy", type=_strategy_name, required=True)
    train_like(p_train)
    p_train.set_defaults(func=cmd_train)

    p_few = sub.add_parser("fewshot", help="select k examples, then train on them")
    common(p_few, datasets="splits")
    p_few.add_argument("--strategy", type=_strategy_name, required=True)
    p_few.add_argument("--k", type=_positive_int, default=None,
                       help="number of examples to select (default 64)")
    train_like(p_few)
    p_few.set_defaults(func=cmd_fewshot)

    p_ana = sub.add_parser("analyze", help="score-distribution histograms")
    p_ana.add_argument("scores_files", nargs="+", help="scores JSONL file(s)")
    p_ana.add_argument("--predictions", default=None,
                       help="JSONL of {id, predicted_label, gold_label}")
    p_ana.add_argument("--bins", type=_bins_arg, default=None)
    p_ana.add_argument("--config", default=None)
    p_ana.add_argument("--out", required=True)
    p_ana.add_argument("--force", action="store_true")
    p_ana.set_defaults(func=cmd_analyze)

    p_cmp = sub.add_parser("compare", help="strategy x seed grid with mean table")
    common(p_cmp, datasets="splits")
    p_cmp.add_argument("--strategies", type=_strategy_name, nargs="+", required=True)
    p_cmp.add_argument("--jobs", type=_positive_int, default=None,
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
    problems = []
    for key, value in raw.items():
        if key not in CONFIG_SCHEMA:
            problems.append(f"unknown key {key!r}")
            continue
        want = CONFIG_SCHEMA[key]
        if value is None:
            continue
        if want is float and isinstance(value, (int, float)) and not isinstance(value, bool):
            continue
        if want is int and isinstance(value, bool):
            problems.append(f"{key}: expected {want.__name__}, got bool")
        elif not isinstance(value, want):
            problems.append(f"{key}: expected {want.__name__}, got {type(value).__name__}")
    if problems:
        raise ValueError(f"{path}: config schema violations: " + "; ".join(problems))
    return raw


def resolve_settings(args) -> dict:
    """flag > config file > default, per key."""
    settings = dict(DEFAULTS)
    if getattr(args, "config", None):
        settings.update(load_config_file(args.config))
    for dest, key in FLAG_KEYS.items():
        value = getattr(args, dest, None)
        if value is not None:
            settings[key] = value
    return settings


def config_from_settings(settings, strategy: str | None = None) -> TrainConfig:
    return TrainConfig(
        epochs=settings["train.epochs"],
        batch_size=settings["train.batch_size"],
        checkpoint_fraction=settings["train.checkpoint_fraction"],
        seeds=tuple(settings["train.seeds"]),
        strategy=strategy or settings["train.strategy"],
        optimizer=settings["optimizer.kind"],
        learning_rate=settings["optimizer.lr"],
        weight_decay=settings["optimizer.weight_decay"],
        beta1=settings["optimizer.beta1"],
        beta2=settings["optimizer.beta2"],
        epsilon=settings["optimizer.epsilon"],
        dim=settings["model.dim"],
        scores_path=settings["scores.path"],
        probe_fraction=settings["probe.fraction"],
        probe_epochs=settings["probe.epochs"],
        probe_seed=settings["probe.seed"],
        max_tokens=settings["train.max_tokens"],
        rescore=bool(settings["train.rescore"]),
        rescore_split=settings["train.rescore_split"],
        histogram_bins=settings["analyze.bins"],
    )


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


def write_manifest(path, args, settings, input_paths) -> None:
    manifest = {
        "schema_version": 1,
        "tool": "curlearn",
        "tool_version": __version__,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "command": list(sys.argv),
        "resolved_config": {k: settings[k] for k in sorted(settings)},
        "input_digests": {str(p): _sha256(p) for p in input_paths if p},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ------------------------------------------------------------- subcommands


def cmd_score(args) -> int:
    settings = resolve_settings(args)
    dataset = _load_split(args.dataset, settings, "train")
    _check_out_file(args.out, args.force)
    if settings["scores.path"]:
        table = load_external_scores(settings["scores.path"], dataset)
    else:
        table = resolve_score_table(dataset, config_from_settings(settings))
    order = np.argsort(table.ids, kind="stable")
    with open(args.out, "w", encoding="utf-8") as fh:
        for row in order:
            fh.write(json.dumps({
                "id": int(table.ids[row]),
                "probs": [float(p) for p in table.distributions[row]],
                "score": float(table.scores[row]),
            }) + "\n")
    write_manifest(str(args.out) + ".manifest.json", args, settings,
                   [args.dataset, settings["scores.path"], args.config])
    return 0


def cmd_plan(args) -> int:
    settings = resolve_settings(args)
    dataset = _load_split(args.dataset, settings, "train")
    strategy = Strategy.parse(settings["train.strategy"])
    _check_out_file(args.out, args.force)
    table = None
    if strategy.needs_scores:
        if settings["scores.path"]:
            table = load_external_scores(settings["scores.path"], dataset)
        else:
            table = resolve_score_table(dataset, config_from_settings(settings))
    length_index = None
    if strategy is Strategy.LENGTH:
        from .dataset_io import token_lengths
        length_index = token_lengths(dataset, settings["train.max_tokens"])
    seed = int(settings["train.seeds"][0])
    plans = []
    for epoch in range(args.epochs):
        rng = np.random.default_rng((seed, epoch))
        plans.append(make_plan(strategy, table, dataset, rng=rng,
                               batch_size=settings["train.batch_size"],
                               length_index=length_index, seed=seed))
    write_plan_jsonl(plans, args.out)
    write_manifest(str(args.out) + ".manifest.json", args, settings,
                   [args.dataset, settings["scores.path"], args.config])
    return 0


def _load_three_splits(args, settings):
    return (_load_split(args.train, settings, "train"),
            _load_split(args.val, settings, "validation"),
            _load_split(args.test, settings, "test"))


def _write_run_outputs(out_dir: Path, prefix: str, outcome) -> None:
    report = outcome.report
    stem = f"{prefix}{report.strategy}_seed{report.seed}"
    write_report_json(report, out_dir / f"report_{stem}.json")
    write_checkpoint_csv(report, out_dir / f"checkpoints_{stem}.csv")
    if report.score_histograms:
        write_histogram_csv(report.score_histograms, out_dir / f"histograms_{stem}.csv")


def cmd_train(args) -> int:
    settings = resolve_settings(args)
    config = config_from_settings(settings, strategy=args.strategy)
    train_ds, val_ds, test_ds = _load_three_splits(args, settings)
    out_dir = _check_out_dir(args.out, args.force)
    table = None
    if config.strategy.needs_scores or config.rescore:
        table = resolve_score_table(train_ds, config)
    features = featurize_splits((train_ds, val_ds, test_ds), config)
    for seed in config.seeds:
        outcome = run_training(train_ds, val_ds, test_ds, config, seed=seed,
                               score_table=table, features=features)
        _write_run_outputs(out_dir, "", outcome)
    write_manifest(out_dir / "manifest.json", args, settings,
                   [args.train, args.val, args.test, settings["scores.path"], args.config])
    return 0


def cmd_fewshot(args) -> int:
    settings = resolve_settings(args)
    config = config_from_settings(settings, strategy=args.strategy)
    k = settings["fewshot.k"]
    train_ds, val_ds, test_ds = _load_three_splits(args, settings)
    if k > len(train_ds):
        raise ValueError(f"k={k} exceeds training set size {len(train_ds)}")
    out_dir = _check_out_dir(args.out, args.force)
    table = None
    if config.strategy.needs_scores or config.rescore:
        table = resolve_score_table(train_ds, config)
    feats_val_test = featurize_splits((val_ds, test_ds), config)
    for seed in config.seeds:
        rng = np.random.default_rng((seed, FEWSHOT_STREAM))
        subset = few_shot_select(config.strategy, table, train_ds, k=k, rng=rng,
                                 batch_size=config.batch_size,
                                 max_tokens=config.max_tokens)
        outcome = run_training(
            subset, val_ds, test_ds, config, seed=seed,
            score_table=table.restrict(subset.ids) if table is not None else None,
            features=featurize_splits((subset,), config) + feats_val_test)
        _write_run_outputs(out_dir, "fewshot_", outcome)
    write_manifest(out_dir / "manifest.json", args, settings,
                   [args.train, args.val, args.test, settings["scores.path"], args.config])
    return 0


def cmd_analyze(args) -> int:
    settings = resolve_settings(args) if args.config else dict(DEFAULTS)
    bins = args.bins if args.bins is not None else settings["analyze.bins"]
    _check_out_file(args.out, args.force)
    predictions = None
    if args.predictions:
        predictions = {}
        with open(args.predictions, encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                rec = json.loads(line)
                predictions[int(rec["id"])] = (int(rec["predicted_label"]),
                                               int(rec["gold_label"]))
    reports = []
    for index, path in enumerate(args.scores_files):
        ids, probs, tag = read_score_file(path, epoch_tags=True)
        table = score_table_from_probs(probs, ids, source="external")
        tag = index if tag is None else tag
        if predictions is None:
            reports.append(score_histogram(table, bins=bins, epoch_tag=tag))
        else:
            missing = [int(i) for i in table.ids if int(i) not in predictions]
            if missing:
                raise ValueError(f"{path}: ids missing from predictions: {missing[:5]}")
            preds = np.array([predictions[int(i)][0] for i in table.ids])
            gold = np.array([predictions[int(i)][1] for i in table.ids])
            reports.append(score_histogram(table, preds, gold, bins=bins, epoch_tag=tag))
    write_histogram_csv(reports, args.out)
    write_manifest(str(args.out) + ".manifest.json", args,
                   {"analyze.bins": bins},
                   list(args.scores_files) + [args.predictions, args.config])
    return 0


def _compare_cell(payload):
    train_ds, val_ds, test_ds, config, seed, table, features = payload
    return run_training(train_ds, val_ds, test_ds, config, seed=seed,
                        score_table=table, features=features)


def cmd_compare(args) -> int:
    settings = resolve_settings(args)
    strategies = [Strategy.parse(s) for s in args.strategies]
    train_ds, val_ds, test_ds = _load_three_splits(args, settings)
    out_dir = _check_out_dir(args.out, args.force)
    base_config = config_from_settings(settings)
    seeds = base_config.seeds
    jobs = settings["compare.jobs"]

    table = None
    if any(s.needs_scores for s in strategies) or base_config.rescore:
        table = resolve_score_table(train_ds, base_config)
    features = featurize_splits((train_ds, val_ds, test_ds), base_config)

    cells = []
    for strategy in strategies:
        config = config_from_settings(settings, strategy=strategy.value)
        for seed in seeds:
            cells.append((strategy, seed, config))

    results: dict[tuple[str, int], object] = {}
    failures: list[str] = []

    def record(strategy, seed, outcome, error):
        if error is None:
            results[(strategy.value, seed)] = outcome
            _write_run_outputs(out_dir, "", outcome)
        else:
            failures.append(f"{strategy.value} seed {seed}: {error}")

    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {
                pool.submit(_compare_cell,
                            (train_ds, val_ds, test_ds, config, seed,
                             table if config.strategy.needs_scores or config.rescore
                             else None, features)): (strategy, seed)
                for strategy, seed, config in cells}
            for future, (strategy, seed) in futures.items():
                try:
                    record(strategy, seed, future.result(), None)
                except Exception as err:  # noqa: BLE001 - gap marker, keep going
                    record(strategy, seed, None, err)
    else:
        for strategy, seed, config in cells:
            try:
                outcome = _compare_cell(
                    (train_ds, val_ds, test_ds, config, seed,
                     table if config.strategy.needs_scores or config.rescore else None,
                     features))
                record(strategy, seed, outcome, None)
            except Exception as err:  # noqa: BLE001
                record(strategy, seed, None, err)

    rows = []
    for strategy in strategies:
        done = [results[(strategy.value, s)].report for s in seeds
                if (strategy.value, s) in results]
        missing = [s for s in seeds if (strategy.value, s) not in results]
        if done:
            row = aggregate_runs({strategy.value: done})[0]
        else:
            row = {"strategy": strategy.value, "accuracy": float("nan"),
                   "macro_f1": float("nan"), "macro_precision": float("nan"),
                   "macro_recall": float("nan"), "seeds": []}
        row["missing_seeds"] = missing
        rows.append(row)
    write_aggregate_csv(rows, out_dir / "aggregate.csv")
    write_aggregate_text(rows, out_dir / "aggregate.txt")
    write_manifest(out_dir / "manifest.json", args, settings,
                   [args.train, args.val, args.test, settings["scores.path"], args.config])
    if failures:
        for failure in failures:
            print(f"curlearn: run failed: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
