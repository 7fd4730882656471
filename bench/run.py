"""zeroext benchmark: one workload per process, metrics as one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --report [--seed N] [--seconds S]

Run from the repository root; the package is imported from `src/`.  With
`--trace 0` the last line of stdout holds the end-to-end metrics:

- wall_s: program time of one round of the workload's items, median over
  the rounds that fit in `--seconds` (output checks are not timed);
- item_p50_s: median item time (`attempted` gives the item count);
- setup_s: median over three fresh processes of imports, warm-up and the
  workload's input files;
- peak_rss_mb: peak resident set of this process, in MiB.

Failed items (an exception, a nonzero return code or a failed output check)
are reported as `failed` of `attempted`; error_rate, the output digest of the
first round and the environment go to `.bench_results/` and to stdout.

With `--trace 1` every public function in `TARGETS` is wrapped at each name
it is bound to, and the last line holds per-item calls and self times per
function, plus counters read from the program's outputs.  `--report` runs
every workload untraced and traced, each in its own process, and prints the
per-layer tables with the tracing overhead (traced minus untraced wall_s).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3

# Public functions traced per layer (module), as `module.function`.
TARGETS = [
    "graphs.random_regular",
    "graphs.girth",
    "graphs.expansion_estimate",
    "graphs.shortest_path_metric",
    "graphs.single_source_shortest_paths",
    "gf2.cycle_basis",
    "extension.sample_extension",
    "extension.flatten",
    "instance.default_gap_instance",
    "instance.build_gap_instance",
    "instance.load_instance",
    "relaxation.canonical_fractional",
    "relaxation.is_feasible",
    "solvers.ckr_round",
    "solvers.local_search",
    "solvers.all_to_one",
    "solvers.nearest_terminal",
    "solvers.integral_cost",
    "split.build_split_candidate",
    "split.verify_split",
    "split.check_cycle_homeomorphism",
    "certificate.transform_pipeline",
    "certificate.build_certificate",
    "certificate.reconstruct_r",
    "certificate.diagnostics",
    "certificate.certificate_to_json",
    "cli.main",
]

# Counters computed from a traced call's arguments or result.
METERS = {
    "graphs.shortest_path_metric": lambda args, res: {
        "graphs.shortest_path_metric.bytes": 8 * args[0].vertex_count ** 2
    },
    "instance.build_gap_instance": lambda args, res: {
        "instance.dx_bytes": 0 if res.origin.dx is None else res.origin.dx.nbytes
    },
}

# Per-item layer counters, beside `<target>.calls` and `<target>.self_s`:
# name -> unit.
LAYER_COUNTERS = {
    "instance.girth_attempts": "count/item",
    "instance.base_accept_ratio": "ratio",
    "instance.dx_bytes": "B/item",
    "graphs.shortest_path_metric.bytes": "B/item",
    "cli.cpu_util": "ratio",
    "certificate.r_vertices": "count/item",
    "certificate.r_edges": "count/item",
    "certificate.b1": "count/item",
}


def import_package():
    """Put the checkout's `src/` first on the path and import zeroext from it."""
    if not (SRC / "zeroext" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'zeroext'} not found; run from a zeroext checkout")
    sys.path.insert(0, str(SRC))
    import zeroext.cli  # noqa: F401  (loads every package module)

    import zeroext

    if Path(zeroext.__file__).resolve().parent != SRC / "zeroext":
        sys.exit(f"error: imported zeroext from {zeroext.__file__}, not {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    from zeroext import extension

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "rng_scheme": extension.RNG_SCHEME,
        "git_commit": commit,
    }


def make_workload(name: str, seed: int, workdir: str):
    from workloads import WORKLOADS

    return WORKLOADS[name](seed, workdir)


def setup_once(name: str, seed: int) -> None:
    """What a fresh process pays before the timed phase: imports, warm-up and
    the workload's inputs (written to a directory removed afterwards)."""
    import_package()
    from workloads import warm_up

    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"setup-{name}-", dir=WORK)
    try:
        warm_up()
        make_workload(name, seed, workdir).setup()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(name: str, seed: int) -> float:
    """Median wall time of SETUP_REPEATS fresh set-up processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--setup-only",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, check=True, timeout=170,
        )
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def timed_phase(workload, seconds: float) -> dict:
    """Run rounds of items until the next round would end past `seconds`.

    Item times cover the program calls only; each output is checked after
    its item's clock stops.  The digest covers round 0, which every run
    completes, so equal seeds give equal digests.
    """
    item_times: list[float] = []
    round_times: list[float] = []
    counters: dict[str, float] = {}
    errors: list[str] = []
    failed = 0
    digest = hashlib.sha256()
    started = time.perf_counter()
    while True:
        round_no = len(round_times)
        round_time = 0.0
        for spec in workload.items(round_no):
            # An item's failure is one of its results, so it must not end the run.
            error = None
            t0 = time.perf_counter()
            try:
                out = workload.call(spec)
            except (Exception, SystemExit):
                error = traceback.format_exc(limit=4)
            elapsed = time.perf_counter() - t0
            if error is None:
                try:
                    part, found = workload.check(spec, out)
                except Exception:
                    error = traceback.format_exc(limit=4)
            if error is not None:
                failed += 1
                errors.append(f"item {spec!r}: {error}")
                part, found = b"FAILED", {}
            item_times.append(elapsed)
            round_time += elapsed
            if round_no == 0:
                digest.update(hashlib.sha256(part).digest())
            for key, value in found.items():
                counters[key] = counters.get(key, 0) + value
        round_times.append(round_time)
        spent = time.perf_counter() - started
        more = spent + statistics.median(round_times) <= seconds
        if not (more or (len(round_times) < workload.min_rounds and spent < seconds)):
            break
    return {
        "item_times": item_times,
        "round_times": round_times,
        "attempted": len(item_times),
        "failed": failed,
        "errors": errors,
        "counters": counters,
        "digest": digest.hexdigest(),
    }


def layer_metrics(tracer, phase: dict) -> dict:
    """Per-item calls and self seconds of every target, and layer counters."""
    items = phase["attempted"]
    summary = tracer.summary()
    metrics = {}
    for target in TARGETS:
        row = summary.get(target, {"calls": 0, "self_s": 0.0})
        metrics[f"{target}.calls"] = {"value": row["calls"] / items, "unit": "count/item"}
        metrics[f"{target}.self_s"] = {"value": row["self_s"] / items, "unit": "s/item"}
    found = phase["counters"]
    cli_row = summary.get("cli.main")
    values = {
        "instance.girth_attempts": found.get("girth_attempts", 0) / items,
        "instance.base_accept_ratio": (
            found["instances"] / found["girth_attempts"] if found.get("girth_attempts") else 0.0
        ),
        "instance.dx_bytes": tracer.counters.get("instance.dx_bytes", 0) / items,
        "graphs.shortest_path_metric.bytes": (
            tracer.counters.get("graphs.shortest_path_metric.bytes", 0) / items
        ),
        "cli.cpu_util": cli_row["cpu_s"] / cli_row["total_s"] if cli_row else 0.0,
        "certificate.r_vertices": found.get("r_vertices", 0) / items,
        "certificate.r_edges": found.get("r_edges", 0) / items,
        "certificate.b1": found.get("b1", 0) / items,
    }
    for name, unit in LAYER_COUNTERS.items():
        metrics[name] = {"value": values[name], "unit": unit}
    return metrics


def layer_table(tracer, items: int) -> list[str]:
    summary = tracer.summary()
    total = sum(row["self_s"] for row in summary.values()) or 1.0
    lines = [
        "| function | calls/item | self s/item | total s/item | self share |",
        "|---|---:|---:|---:|---:|",
    ]
    for name, row in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(
            f"| {name} | {row['calls'] / items:.3g} | {row['self_s'] / items:.4g} | "
            f"{row['total_s'] / items:.4g} | {100 * row['self_s'] / total:.1f}% |"
        )
    return lines


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import_package()
    setup_s = measure_setup(name, seed)
    from spans import Tracer, patched
    from workloads import warm_up

    env = environment()
    WORK.mkdir(exist_ok=True)
    RESULTS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    tracer = Tracer(cpu_names={"cli.main"}) if trace else None
    try:
        warm_up()
        workload = make_workload(name, seed, workdir)
        workload.setup()
        if trace:
            with patched(tracer, TARGETS, meters=METERS):
                phase = timed_phase(workload, seconds)
        else:
            phase = timed_phase(workload, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed = phase["attempted"], phase["failed"]
    wall_s = statistics.median(phase["round_times"])
    if trace:
        metrics = layer_metrics(tracer, phase)
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "item_p50_s": {"value": statistics.median(phase["item_times"]), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": env,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "errors": phase["errors"][:10],
        "digest": phase["digest"],
        "rounds": len(phase["round_times"]),
        "wall_s": wall_s,
        "round_times": phase["round_times"],
        "item_times": phase["item_times"],
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "metrics": metrics,
    }
    if trace:
        record["layer_table"] = layer_table(tracer, attempted)
        with open(RESULTS / f"{stem}.spans.jsonl", "w") as fh:
            for index, span in enumerate(tracer.spans):
                fh.write(json.dumps(span.as_dict(index)) + "\n")
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=2)

    for error in phase["errors"][:3]:
        print(error, file=sys.stderr)
    print(f"# {name} seed={seed}: {attempted} items in {record['rounds']} rounds, "
          f"error_rate={record['error_rate']:.4g}, digest={phase['digest']}")
    print(f"# environment: {json.dumps(env, sort_keys=True)}")
    if trace:
        print("\n".join(record["layer_table"]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def report(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in its own process."""
    from workloads import WORKLOADS

    out = []
    for name in WORKLOADS:
        records = {}
        for trace in (0, 1):
            subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=600,
            )
            with open(RESULTS / f"{name}-seed{seed}-trace{trace}.json") as fh:
                records[trace] = json.load(fh)
        plain, traced = records[0], records[1]
        out.append(f"## {name} (seed {seed}, {seconds} s)\n")
        for key, metric in plain["metrics"].items():
            out.append(f"- {key}: {metric['value']:.4g} {metric['unit']}")
        out.append(f"- error_rate: {plain['error_rate']:.4g} of {plain['attempted']} items")
        out.append(f"- digest: {plain['digest']}")
        out.append(
            f"- tracing overhead: {traced['wall_s'] - plain['wall_s']:+.4g} s per round "
            f"(traced wall_s {traced['wall_s']:.4g} s)\n"
        )
        out.extend(traced["layer_table"])
        out.append("")
    text = "\n".join(out)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"report-seed{seed}.md").write_text(text + "\n")
    print(text)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("instances", "gap", "cert"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--report", action="store_true",
                        help="run every workload untraced and traced, print the tables")
    args = parser.parse_args(argv)
    if args.report:
        import_package()
        return report(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload or --report is required")
    if args.setup_only:
        setup_once(args.workload, args.seed)
        return 0
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
