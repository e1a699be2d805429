"""curlearn benchmark: one workload per process, untraced or traced.

Usage, from the root of a checkout:

    python3 curbench/run.py --workload compare_grid --seed 1 --seconds 35 --trace 0

The run generates its inputs from ``--seed`` (several times, to time set-up),
then repeats the workload's commands, always at least twice, until
``--seconds`` of command time would be exceeded. The first iteration's
outputs are checked; every output is digested, and a digest that differs
from the first iteration's fails that operation. The timed end-to-end
metrics are given at a reference machine speed (see bench_calibrate). With
``--trace 1`` every second iteration is traced and the run reports
per-layer metrics instead of end-to-end ones.

Human-readable lines (environment, per-iteration figures, digests) come
first; the last line of standard output is the JSON result. Outputs, the
result file and the trace go to ``.curbench_work/<workload>/`` in the
checkout.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# Compile curlearn afresh in every run, so set-up time does not depend on
# whether an earlier run left bytecode behind.
sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SETUP_REPEATS = 5
MIN_ITERATIONS = 2


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_curlearn():
    """Import curlearn from this checkout's ``src``; exit 2 when it is absent."""
    if not (SRC / "curlearn" / "__init__.py").is_file():
        print(f"curbench: no curlearn sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import curlearn
    import curlearn.cli

    if Path(curlearn.__file__).resolve().parent != SRC / "curlearn":
        print(f"curbench: imported curlearn from {curlearn.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_command(argv) -> int:
    """``curlearn <argv>`` in-process; any escape counts as a failed command."""
    import curlearn.cli

    try:
        return curlearn.cli.main(argv)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else 1
    except Exception as err:  # noqa: BLE001 - an escaping error is a failed operation
        print(f"curbench: curlearn {argv[0]} raised {type(err).__name__}: {err}",
              file=sys.stderr)
        return 1


def run_iteration(workload, inputs: Path, out: Path, reference: dict):
    """Run the commands once and judge every output file.

    ``reference`` maps each file to the (digest, problem) of its first
    iteration and is filled on that iteration. Later, a file whose digest
    differs fails; one with the same bytes shares the first verdict.
    Returns (seconds, {output file: (digest, problem or None)}).
    """
    commands = workload.commands(inputs, out)
    codes = []
    start = time.perf_counter()
    for argv, _ in commands:
        codes.append(run_command(argv))
    seconds = time.perf_counter() - start
    first = not reference
    verdicts = {}
    for code, (argv, files) in zip(codes, commands):
        for rel in files:
            path = out / rel
            digest = sha256(path) if path.is_file() else None
            if code != 0:
                problem = f"curlearn {argv[0]} exited with {code}"
            elif digest is None:
                problem = "missing"
            elif not first:
                want, problem = reference[rel]
                if digest != want:
                    problem = "digest differs from the first iteration"
            else:
                try:
                    problem = workload.check(inputs, out, rel)
                except Exception as err:  # noqa: BLE001 - a malformed file is a failed operation
                    problem = f"unreadable: {type(err).__name__}: {err}"
            verdicts[rel] = (digest, problem)
    if first:
        reference.update(verdicts)
    return seconds, verdicts


def environment() -> dict:
    import numpy

    return {"python": platform.python_implementation() + " " + platform.python_version(),
            "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_curlearn()
    import bench_trace
    from bench_calibrate import at_reference, kernel_seconds
    from bench_workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"curbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START

    work = ROOT / ".curbench_work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    # kernel[0] follows the import; kernel[k] follows the k-th timed phase
    kernel = [kernel_seconds()]
    setup_times, setup_ref = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup(args.seed, inputs)
        setup_times.append(time.perf_counter() - start)
        kernel.append(kernel_seconds())
        setup_ref.append(at_reference(setup_times[-1], kernel[-2], kernel[-1]))
    raw_setup_s = import_s + statistics.median(setup_times)
    setup_s = (at_reference(import_s, kernel[0], kernel[0])
               + statistics.median(setup_ref))

    tracer = bench_trace.Tracer() if args.trace else None
    iterations = []   # (traced, seconds, seconds at the reference speed, span slice)
    reference: dict[str, tuple] = {}
    attempted = failed = 0
    accuracy = None
    spent = 0.0
    while len(iterations) < MIN_ITERATIONS or (
            spent + statistics.median(it[1] for it in iterations) <= args.seconds):
        index = len(iterations)
        traced = tracer is not None and index % 2 == 1
        out = work / f"out{index}"
        first_span = len(tracer.spans) if tracer else 0
        if traced:
            tracer.run = f"{workload.name}/iter{index}"
            tracer.install()
        try:
            seconds, verdicts = run_iteration(workload, inputs, out, reference)
        finally:
            if traced:
                tracer.uninstall()
        spent += seconds
        kernel.append(kernel_seconds())
        iterations.append((traced, seconds, at_reference(seconds, kernel[-2], kernel[-1]),
                           slice(first_span, len(tracer.spans)) if traced else None))
        for rel, (_, problem) in verdicts.items():
            attempted += 1
            if problem is not None:
                failed += 1
                print(f"FAIL iter{index} {rel}: {problem}")
        if index == 0:
            if not any(problem for _, problem in verdicts.values()):
                accuracy = workload.accuracy(inputs, out)
        else:
            shutil.rmtree(out, ignore_errors=True)
        print(f"iter{index} {'traced' if traced else 'untraced'} {seconds:.4f} s, "
              f"{iterations[-1][2]:.4f} s at the reference speed")

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    for rel, (digest, _) in sorted(reference.items()):
        print(f"sha256 {digest} {rel}")
    print(f"fail_ratio {failed / attempted:.6f} ({failed}/{attempted} operations)")

    eps = statistics.median(workload.units() / ref for t, _, ref, _ in iterations if not t)
    raw_eps = statistics.median(workload.units() / s for t, s, _, _ in iterations if not t)
    print(f"uncorrected: setup_s {raw_setup_s:.6g}, examples_per_s {raw_eps:.6g}")
    result = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "unit": workload.unit, "environment": env, "import_s": import_s,
              "setup_times_s": setup_times, "raw_setup_s": raw_setup_s,
              "raw_examples_per_s": raw_eps, "kernel_s": kernel,
              "iterations": [{"traced": t, "seconds": s, "reference_seconds": ref}
                             for t, s, ref, _ in iterations],
              "digests": {rel: digest for rel, (digest, _) in reference.items()},
              "attempted": attempted, "failed": failed}
    if tracer is None:
        values = {
            "setup_s": setup_s,
            "examples_per_s": eps,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "test_accuracy": accuracy if accuracy is not None else 0.0,
        }
    else:
        traced_runs = [(s, ref, tracer.spans[sl]) for t, s, ref, sl in iterations if t]
        per_iteration = [bench_trace.layer_metrics(spans) for _, _, spans in traced_runs]
        wall = sum(s for s, _, _ in traced_runs)
        summary = bench_trace.summarize(tracer.spans, wall)
        traced_eps = statistics.median(workload.units() / ref for _, ref, _ in traced_runs)
        summary["overhead_ratio"] = 1.0 - traced_eps / eps
        values = {name: statistics.median(m[name] for m in per_iteration)
                  for name in per_iteration[0]}
        values["trace.coverage_ratio"] = summary["self_coverage"]
        values["trace.overhead_ratio"] = summary["overhead_ratio"]
        trace_dir = work / "trace"
        trace_dir.mkdir()
        tracer.write_jsonl(trace_dir / "spans.jsonl", origin=T_START)
        with open(trace_dir / "summary.json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        for layer, row in summary["layers"].items():
            print(f"layer {layer:<10} calls {row['calls']:>7} total {row['total_s']:9.4f} s "
                  f"self {row['self_s']:9.4f} s share {row['share_of_wall']:.4f}")
        print(f"trace: coverage {summary['self_coverage']:.4f}, "
              f"overhead {summary['overhead_ratio']:.4f}, spans in {trace_dir}")
    declared = {m["name"]: m["unit"] for m in
                SPEC["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(declared):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(declared))} are produced "
                           "or declared in BENCHMARK.json, not both")
    metrics = {name: {"value": values[name], "unit": declared[name]} for name in declared}
    result["metrics"] = metrics
    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
