"""augbench benchmark: one workload per process, metrics on the last line.

    python3 perfbench/run.py --workload grid-demo --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --compare before.json after.json

Run it from the root of a source tree; it imports augbench from ./src.
A run makes the workload's inputs from --seed, then alternates blocks of
set-up calls (``runner.load_resources``) with passes of the workload
until the next pass would end after --seconds, with two passes at least.
It checks every pass's output, writes a result file and prints the
metrics, the last line as one JSON object. A failed check exits 1 after
printing that line with ``"correct": false``.

--trace 0 measures with nothing wrapped and reports the end-to-end
metrics. Their times are rescaled by the yardstick (see yardstick.py),
which the run samples on a timer, to the machine's nominal speed; the
wall times are in the table and the result file. --trace 1 wraps the
program's public functions with timers (see layers.py), samples no
yardstick, and reports the per-layer metrics for one set-up plus one
average pass. --compare prints the per-layer deltas between two result
files.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import yardstick

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("grid-demo", "grid-large", "augment")

# End-to-end metrics printed with --trace 0: name -> unit.
END_TO_END = {"setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}

# A pass is repeated until the next one would end after --seconds, and
# at least twice; the passes are reported by their median.
MIN_PASSES = 2

# Set-up is timed in a block before each pass and one after the last,
# each repeated at least this often and until it has taken half a
# second, so that its samples spread over the whole run and each block
# holds enough yardstick samples to rescale it.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 40
SETUP_BLOCK_SECONDS = 0.5

BLAS_THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def environment() -> dict:
    """What a result depends on besides the code and the seed."""
    import importlib.util

    import numpy as np

    revision = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=False,
        )
        revision = done.stdout.strip() or "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "git_revision": revision,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARIABLES},
        "nproc": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    """ru_maxrss of this process, which runs the program in-process.

    The program starts no processes of its own (``workers`` are threads),
    so the benchmark's one child, ``git rev-parse``, is left out.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(runner, config, stick):
    """One block of load_resources calls.

    Returns their times, the same rescaled by the yardstick over the
    whole block, and the resources the last call loaded.
    """
    times: list[float] = []
    started = stick.read()
    while len(times) < SETUP_MIN_REPEATS or (
        sum(times) < SETUP_BLOCK_SECONDS and len(times) < SETUP_MAX_REPEATS
    ):
        gc.collect()
        call = stick.read()
        resources = runner.load_resources(config)
        times.append(stick.program_s(call, stick.read()))
    ended = stick.read()
    factor = stick.rescaled_s(started, ended) / stick.program_s(started, ended)
    return times, [t * factor for t in times], resources


def run_workload(args) -> int:
    import layers
    import workloads
    from augbench import runner

    work = os.path.join(HERE, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        env = environment()
        augment = None
        if args.workload == "augment":
            raw = workloads.augment_config(work, args.seed)
            augment = workloads.write_augment_configs(raw, work) + (
                workloads.read_csv(raw["datasets"][0]["path"]),)
        else:
            raw = workloads.grid_config(args.workload, work, args.seed)
        config = runner.config_from_dict(raw)
        with yardstick.Yardstick(enabled=not args.trace) as stick:
            result, problems = measure(args, env, runner, workloads, layers,
                                       config, stick, work, augment)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out = args.out or os.path.join(
        HERE, "work", f"result-{args.workload}-trace{args.trace}.json"
    )
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")

    for name, (value, unit) in result["table"].items():
        print(f"{args.workload:<11} {name:<38} {value:>16.6g} {unit}")
    for name in result["absent"]:
        print(f"{args.workload:<11} absent layer: {name}")
    for problem in problems:
        print(f"{args.workload:<11} CHECK FAILED: {problem}")
    print(f"{args.workload:<11} result file: {out}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if result["correct"] else 1


def measure(args, env, runner, workloads, layers, config, stick, work,
            augment):
    """Set-up blocks and passes, alternating, then the checks.

    ``augment`` is None on the grids, and on ``augment`` the two configs,
    the cache path and the source rows that augment_pass takes.
    """
    setup_wall: list[float] = []
    setup_rescaled: list[float] = []

    def setup_block():
        """The grids keep the last resources for the next pass; augment
        loads its own in every command, so it keeps none."""
        wall, rescaled, resources = measure_setup(runner, config, stick)
        setup_wall.extend(wall)
        setup_rescaled.extend(rescaled)
        return resources if augment is None else None

    resources = setup_block()
    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        tracer.install()
        loaded = runner.load_resources(config)  # the traced set-up
        if augment is None:
            resources = loaded

    def one_pass(resources):
        if tracer is not None:
            tracer.start_pass()
        if augment is not None:
            return workloads.augment_pass(*augment[:3], work, augment[3], stick)
        # Each pass gets the resources its set-up block loaded last, so
        # that none starts with the translation cache an earlier pass
        # filled.
        return workloads.grid_pass(config, resources, os.path.join(work, "out"),
                                   stick)

    passes = []
    started = time.perf_counter()
    try:
        while True:
            passes.append(one_pass(resources))
            if tracer is not None:
                tracer.phase = "reload"
            resources = setup_block()
            if len(passes) >= MIN_PASSES and (
                time.perf_counter() - started
                + statistics.median(p.seconds for p in passes) > args.seconds
            ):
                break
    finally:
        if tracer is not None:
            tracer.uninstall()

    problems = []
    for p in passes:
        problems += [x for x in p.problems if x not in problems]
    if len({p.digest for p in passes}) != 1:
        problems.append("passes with one seed produced different outputs")
    result = summarize(args, env, setup_wall, setup_rescaled, passes, tracer)
    result["problems"] = problems
    result["correct"] = not problems
    return result, problems


def summarize(args, env, setup_wall, setup_rescaled, passes, tracer) -> dict:
    pass_s = statistics.median(p.rescaled_s for p in passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    table = {
        "setup_s": (statistics.median(setup_rescaled), "s"),
        "pass_s": (pass_s, "s"),
        "setup_wall_s": (statistics.median(setup_wall), "s"),
        "pass_wall_s": (statistics.median(p.seconds for p in passes), "s"),
        "speed_factor": (statistics.median(
            p.rescaled_s / p.seconds for p in passes), "1"),
        "passes": (len(passes), "count"),
        "failed_frac": (failed / attempted if attempted else 1.0, "share"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    if args.workload == "augment":
        for name, phase in passes[0].phases.items():
            seconds = statistics.median(
                p.phases[name]["rescaled_s"] for p in passes)
            table[f"{name}_rows_per_s"] = (phase["rows"] / seconds, "rows/s")
        items_per_s = sum(ph["rows"] for ph in passes[0].phases.values()) / pass_s
    else:
        cells = passes[0].attempted
        items_per_s = cells / pass_s
        table["cells_per_s"] = (items_per_s, "cells/s")
        table["f1_mean"] = (passes[0].f1_mean or 0.0, "F1")
    table["items_per_s"] = (items_per_s, "1/s")

    if tracer is None:
        metrics = {
            name: {"value": table[name][0], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    else:
        import layers

        values = tracer.metrics(len(passes), sum(p.seconds for p in passes))
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, (unit, _) in layers.PER_LAYER.items()
        }
        table.update({name: (m["value"], m["unit"]) for name, m in metrics.items()})

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "table": table,
        "setup_wall_s": setup_wall,
        "setup_rescaled_s": setup_rescaled,
        "passes": [
            {"seconds": p.seconds, "rescaled_s": p.rescaled_s,
             "digest": p.digest, "phases": p.phases}
            for p in passes
        ],
        "output_sha256": passes[0].digest,
        "absent": list(tracer.absent) if tracer else [],
        "spans": tracer.spans() if tracer else {},
    }


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            last = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{workload}: no result (exit {done.returncode})", file=sys.stderr)
            return done.returncode or 1
        merged["correct"] &= last["correct"] and done.returncode == 0
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for name, metric in last["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def compare(before_path: str, after_path: str) -> int:
    """Per-layer metric and span deltas between two result files."""
    with open(before_path, encoding="utf-8") as fh:
        before = json.load(fh)
    with open(after_path, encoding="utf-8") as fh:
        after = json.load(fh)
    print(f"before: {before['workload']} seed {before['seed']} trace "
          f"{before['trace']} rev {before['environment']['git_revision']}")
    print(f"after:  {after['workload']} seed {after['seed']} trace "
          f"{after['trace']} rev {after['environment']['git_revision']}")
    if before["environment"] != after["environment"]:
        print("environments differ; see the result files")
    if before["seed"] == after["seed"] and before["workload"] == after["workload"]:
        same = before["output_sha256"] == after["output_sha256"]
        print(f"outputs identical: {same}")
    print(f"\n{'metric':<42}{'before':>14}{'after':>14}{'delta':>14}{'ratio':>9}")
    for name in sorted(set(before["table"]) | set(after["table"])):
        b = before["table"].get(name, [None])[0]
        a = after["table"].get(name, [None])[0]
        if b is None or a is None:
            print(f"{name:<42}{_num(b):>14}{_num(a):>14}")
            continue
        ratio = f"{a / b:.3f}" if b else "-"
        print(f"{name:<42}{b:>14.6g}{a:>14.6g}{a - b:>+14.6g}{ratio:>9}")
    spans = sorted(set(before["spans"]) | set(after["spans"]))
    if spans:
        print(f"\n{'span (phase:name)':<42}{'self_s before':>14}{'after':>14}"
              f"{'delta':>14}{'calls Δ':>9}")
        empty = {"self_s": 0.0, "calls": 0}
        rows = []
        for name in spans:
            b = before["spans"].get(name, empty)
            a = after["spans"].get(name, empty)
            rows.append((a["self_s"] - b["self_s"], name, b, a))
        for delta, name, b, a in sorted(rows, key=lambda r: r[0]):
            print(f"{name:<42}{b['self_s']:>14.4f}{a['self_s']:>14.4f}"
                  f"{delta:>+14.4f}{a['calls'] - b['calls']:>+9d}")
    for label, result in (("before", before), ("after", after)):
        for name in result["absent"]:
            print(f"absent in {label}: {name}")
    return 0


def _num(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result file (default: perfbench/work/)")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="print deltas between two result files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload or --compare is required")
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "augbench", "__init__.py")):
        print(f"no augbench sources under {src}; run from a source tree",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
