"""Command-line experiment harness.

Subcommands: generate, frac, solve, split, cert, gap.  Every output file
embeds the resolved configuration and seeds needed to regenerate it
bit-identically.  Reported integral values come from heuristics, so measured
ratios UPPER-BOUND the true integrality gap.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .certificate import (
    assemble_certificate,
    certificate_from_json,
    certificate_to_json,
    diagnostics,
    reconstruct_r,
    require_split,
    transform_pipeline,
)
from .extension import check_dense_ceiling
from .instance import (
    GapSpec,
    ZeroExtInstance,
    default_gap_instance,
    load_instance,
    save_instance,
)
from .relaxation import canonical_fractional, is_feasible
from .solvers import (
    all_to_one,
    ckr_rounds,
    integral_cost,
    load_labeling,
    local_search,
    nearest_terminal,
    save_labeling,
)
from .split import build_split_candidate, per_cloud_labeling, verify_split

GAP_CAVEAT = (
    "heuristic integral values upper-bound the optimum, so reported ratios "
    "upper-bound the true integrality gap"
)

CSV_COLUMNS = ["n", "k", "seed", "frac_cost", "best_integral", "ratio", "solver"]
KNOWN_SOLVERS = ("all_to_one", "nearest_terminal", "ckr", "local_search")

class ConfigError(ValueError):
    """A bad flag or config-file value; `main` reports it with exit status 2."""


@dataclass
class ExperimentConfig:
    n_values: list[int] = field(default_factory=lambda: [8])
    d: int = 4
    seeds: list[int] = field(default_factory=lambda: [0])
    epsilon: float = 0.05
    alpha: float | None = None        # default: epsilon * (ln n)^(4/3), per n
    threshold: float | None = None    # default: 1 - 4 * epsilon
    solvers: list[str] = field(default_factory=lambda: list(KNOWN_SOLVERS))
    ckr_draws: int = 3
    local_rounds: int = 20
    jobs: int = 2
    out_dir: str = "."
    format: str = "csv"
    girth_floor: int | None = None
    labeling_fiber: int = 0
    force: bool = False

    def alpha_for(self, n: int) -> float:
        if self.alpha is not None:
            return self.alpha
        return self.epsilon * math.log(n) ** (4.0 / 3.0)

    def threshold_value(self) -> float:
        if self.threshold is not None:
            return self.threshold
        return 1.0 - 4.0 * self.epsilon

    def validate(self):
        if not self.n_values or not self.seeds:
            raise ConfigError("need at least one n and one seed")
        if min(self.seeds) < 0:
            raise ConfigError("seeds must be >= 0")
        if self.girth_floor is not None and self.girth_floor < 0:
            raise ConfigError("girth_floor must be >= 0")
        if self.alpha is not None and not self.alpha > 0:
            raise ConfigError("alpha must be > 0")
        for n in self.n_values:
            GapSpec(n, self.d, self.girth_floor)  # raises on a bad n, d or girth floor
        if not 0 < self.epsilon < 0.125:
            raise ConfigError("epsilon must lie in (0, 0.125)")
        if not 0.5 < self.threshold_value() <= 1.0:
            raise ConfigError("threshold must lie in (0.5, 1]")
        for s in self.solvers:
            if s not in KNOWN_SOLVERS:
                raise ConfigError(f"unknown solver {s!r}")
        if self.format not in ("csv", "json"):
            raise ConfigError("format must be csv or json")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.ckr_draws < 0:
            raise ConfigError("ckr_draws must be >= 0")
        if self.local_rounds < 0:
            raise ConfigError("local_rounds must be >= 0")

    def check_solvers_run(self, *, sampled: bool = True):
        """For the commands that run solvers, which build D_X: reject a list
        that runs none and, when the instances are sampled, an n over its
        ceiling before any sampling."""
        for n in self.n_values if sampled else ():
            check_dense_ceiling(n * n, f"n={n} gives k=n^2={n * n} terminals")
        idle = {"ckr": self.ckr_draws == 0, "local_search": self.local_rounds == 0}
        if all(idle.get(s, False) for s in self.solvers):
            raise ConfigError(
                f"solver list {self.solvers} runs nothing (ckr needs ckr_draws >= 1, "
                "local_search needs local_rounds >= 1)"
            )

    def as_dict(self) -> dict:
        doc = asdict(self)
        doc["version"] = __version__
        return doc


# -- configuration plumbing ------------------------------------------------------


def int_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..")
            out.extend(range(int(lo), int(hi) + 1))
        elif part:
            out.append(int(part))
    return out


class Option(NamedTuple):
    """Flag `--name` (`-` for `_`) plus `aliases`.  A valued option with a `field`
    sets that config attribute and is a config-file key; the rest are flags only."""

    field: str | None
    parse: Callable[[str], object] | None
    help: str
    aliases: tuple[str, ...] = ()


OPTIONS = {
    "n": Option("n_values", int_list, "comma list / a..b ranges of per-factor sizes"),
    "d": Option("d", int, "regular degree (default 4)"),
    "seeds": Option("seeds", int_list, "comma list / a..b ranges of seeds", ("--seed",)),
    "girth_floor": Option("girth_floor", int, "base girth floor (default ceil(log_{d-1} n))"),
    "epsilon": Option("epsilon", float, "split fraction parameter"),
    "alpha": Option("alpha", float, "representative distance bound"),
    "threshold": Option("threshold", float, "majority threshold (> 1/2)"),
    "solvers": Option("solvers", lambda s: [t.strip() for t in s.split(",") if t.strip()],
                      "comma list of heuristics to run"),
    "ckr_draws": Option("ckr_draws", int, "CKR roundings per instance"),
    "local_rounds": Option("local_rounds", int, "local search rounds"),
    "jobs": Option("jobs", int, "worker processes for the rows (about 55 MiB each at n=64)"),
    "out": Option("out_dir", str, "output directory (config `out` > --out > ZEROEXT_OUT)"),
    "format": Option("format", str, "stdout rows: csv (summary lines; the CSV is gap.csv) or json"),
    "labeling_fiber": Option("labeling_fiber", int, "fiber vertex of the per-cloud labeling"),
    "force": Option("force", None, "build diagnostics even if not a split"),
    "labeling": Option(None, str, "labeling file (default: per-cloud constant)"),
    "instance": Option(None, str, "load an instance JSON instead of generating"),
    "config": Option(None, str, "key = value file; values override flags"),
}
CONFIG_FILE_KEYS = {name for name, opt in OPTIONS.items() if opt.field and opt.parse}

# Option groups of the command table at the end of the module.  A command that
# takes --instance analyses one instance, built from BUILD or loaded from it.
BUILD = ("n", "d", "seeds", "girth_floor")
ONE_INSTANCE = BUILD + ("instance", "out", "config")
SOLVE = ("solvers", "ckr_draws", "local_rounds")
SPLIT = ONE_INSTANCE + ("epsilon", "alpha", "threshold", "labeling", "labeling_fiber")


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _read_config_file(path: str) -> dict[str, object]:
    """`key = value` lines, parsed; a key that is no config key is rejected."""
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_FILE_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = OPTIONS[key].parse(value)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from None
    return values


def _config_from_args(args) -> ExperimentConfig:
    """The command's own options; config-file values override flags, and file
    keys the command does not read are ignored.  `args.out` becomes the output
    directory named by config `out`, --out or ZEROEXT_OUT (first wins), or None."""
    names = COMMANDS[args.command][1]
    flags = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    read = set(names)
    if flags.get("instance"):
        clash = [_flag(name) for name in BUILD if name in flags]
        if clash:
            raise ConfigError(f"{', '.join(clash)} cannot be combined with --instance")
        read -= set(BUILD)
    from_file = {}
    if flags.get("config"):
        from_file = {k: v for k, v in _read_config_file(flags["config"]).items() if k in read}
    values = {**flags, **from_file}
    cfg = ExperimentConfig()
    for name, value in values.items():
        if OPTIONS[name].field:
            setattr(cfg, OPTIONS[name].field, value)
    args.out = values.get("out") or os.environ.get("ZEROEXT_OUT") or None
    cfg.out_dir = args.out or "."
    for name, got in (("n", cfg.n_values), ("seeds", cfg.seeds)):
        if "instance" in names and len(got) > 1:
            where = f"config key {name}" if name in from_file else _flag(name)
            raise ConfigError(f"{where}: {args.command} builds one instance, got {len(got)} values")
    cfg.validate()
    return cfg


def _out_path(cfg: ExperimentConfig, name: str) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


def _write_json(cfg: ExperimentConfig, name: str, doc: dict) -> str:
    path = _out_path(cfg, name)
    with open(path, "w") as fh:  # json.dump's text; writelines takes its chunks in C
        fh.writelines(json.JSONEncoder(indent=2).iterencode(doc))
    return path


def _config_doc(cfg: ExperimentConfig, args) -> dict:
    """The config embedded in a one-instance command's output, with the path
    of the instance file it loaded, if any."""
    doc = cfg.as_dict()
    if args.instance:
        doc["instance"] = args.instance
    return doc


def _build(cfg: ExperimentConfig, n: int, seed: int):
    return default_gap_instance(n, cfg.d, seed, girth_floor=cfg.girth_floor)


def _load_or_build(cfg: ExperimentConfig, args) -> tuple[ZeroExtInstance, object | None]:
    """The command's one instance.  A loaded file's provenance sets the build
    fields of `cfg` (None, or no n or seed, where the file records none), so
    the config embedded in the output describes the file."""
    if args.instance:
        inst = load_instance(args.instance)
        prov = inst.provenance if isinstance(inst.provenance, dict) else {}
        known = {key: value for key, value in prov.items() if type(value) is int}
        cfg.n_values = [known["n"]] if "n" in known else []
        cfg.seeds = [known["seed"]] if "seed" in known else []
        cfg.d, cfg.girth_floor = known.get("d"), known.get("girth_floor")
        for key in ("seed", "girth_floor"):  # validate() ran on the flags only
            if known.get(key, 0) < 0:
                raise ConfigError(f"{args.instance}: provenance {key} {known[key]} must be >= 0")
        return inst, inst.origin.extension if inst.is_gap else None
    build = _build(cfg, cfg.n_values[0], cfg.seeds[0])
    return build.instance, build.extension


# -- subcommands --------------------------------------------------------------------


def cmd_generate(cfg: ExperimentConfig, args) -> int:
    for n in cfg.n_values:
        for seed in cfg.seeds:
            build = _build(cfg, n, seed)
            stem = f"gap_n{n}_d{cfg.d}_s{seed}"
            inst_path = _out_path(cfg, stem + ".instance.json")
            save_instance(build.instance, inst_path)
            _write_json(cfg, stem + ".provenance.json", {**build.provenance, "config": cfg.as_dict()})
            print(f"wrote {inst_path} (k={build.instance.k})")
    return 0


def cmd_frac(cfg: ExperimentConfig, args) -> int:
    inst, _ = _load_or_build(cfg, args)
    lengths, cost = canonical_fractional(inst)
    violations = is_feasible(lengths, inst)
    feasible = not violations
    print(f"fractional cost: {cost!r}")
    print(f"edges: {inst.graph.edge_count}")
    print(f"feasible: {'true' if feasible else 'false'}")
    for v in violations[:10]:
        print(f"  violation: {v}")
    if args.out:
        doc = {
            "config": _config_doc(cfg, args),
            "frac_cost": cost,
            "edges": inst.graph.edge_count,
            "feasible": feasible,
            "violations": [str(v) for v in violations[:100]],
        }
        _write_json(cfg, "frac.json", doc)
    return 0 if feasible else 1


def analyse(cfg: ExperimentConfig, inst: ZeroExtInstance, seed: int) -> tuple[dict, np.ndarray]:
    """One instance's row and its best labeling: the canonical fractional cost
    (`frac_cost` and `ratio` are None on a generic instance, which has none),
    the cost of each configured heuristic in KNOWN_SOLVERS order, and the best
    of them, least cost with ties to the smaller name."""
    lengths, frac = canonical_fractional(inst) if inst.is_gap else (None, None)
    results: dict[str, tuple[np.ndarray, float]] = {}
    if "all_to_one" in cfg.solvers:
        f = all_to_one(inst)
        results["all_to_one"] = (f, integral_cost(f, inst))
    if "nearest_terminal" in cfg.solvers:
        f = nearest_terminal(inst)
        results["nearest_terminal"] = (f, integral_cost(f, inst))
    if "ckr" in cfg.solvers and lengths is not None:
        subs = [int(np.random.SeedSequence((seed, 777, i)).generate_state(1)[0]) for i in range(cfg.ckr_draws)]
        for i, f in enumerate(ckr_rounds(inst, lengths, subs)):
            results[f"ckr[{i}]"] = (f, integral_cost(f, inst))
    if "local_search" in cfg.solvers:
        start = min(results.values(), key=lambda fc: fc[1])[0] if results else nearest_terminal(inst)
        if cfg.local_rounds > 0:
            f = local_search(inst, start, max_rounds=cfg.local_rounds)
            results["local_search"] = (f, integral_cost(f, inst))
    if not results:
        raise ConfigError("no selected solver ran: ckr rounds the canonical fractional solution, "
                          "which only gap instances have")
    best_name, (best_f, best_cost) = min(results.items(), key=lambda kv: (kv[1][1], kv[0]))
    row = {
        "frac_cost": frac,
        "best_integral": best_cost,
        "ratio": None if frac is None else (best_cost / frac if frac > 0 else math.inf),
        "solver": best_name,
        "all_costs": {name: cost for name, (_, cost) in results.items()},
    }
    return row, best_f


def cmd_solve(cfg: ExperimentConfig, args) -> int:
    cfg.check_solvers_run(sampled=not args.instance)
    inst, _ = _load_or_build(cfg, args)
    if args.instance:
        check_dense_ceiling(inst.k, f"{args.instance}: k={inst.k} terminals")
    seed = cfg.seeds[0] if cfg.seeds else 0  # a loaded file may record no seed
    row, best_f = analyse(cfg, inst, seed)
    for name, cost in sorted(row["all_costs"].items()):
        print(f"{name}: {cost!r}")
    print(f"best: {row['solver']} ({row['best_integral']!r})")
    if args.out:
        save_labeling(best_f, _out_path(cfg, "best.labeling"))
        doc = {"config": _config_doc(cfg, args), "costs": row["all_costs"], "best": row["solver"]}
        _write_json(cfg, "solve.json", doc)
    return 0


def _candidate_for(cfg: ExperimentConfig, args, inst, x):
    n = x.cloud_count
    if args.labeling:
        f = load_labeling(args.labeling, inst)
    else:
        f = per_cloud_labeling(inst, x, cfg.labeling_fiber)
    return build_split_candidate(
        inst, x, f,
        alpha=cfg.alpha_for(n),
        epsilon=cfg.epsilon,
        threshold=cfg.threshold_value(),
    )


def cmd_split(cfg: ExperimentConfig, args) -> int:
    inst, x = _load_or_build(cfg, args)
    if x is None:
        raise ConfigError("split analysis needs a gap instance")
    cand = _candidate_for(cfg, args, inst, x)
    report = verify_split(cand, x)
    payload = report.as_dict()
    payload["config"] = _config_doc(cfg, args)
    payload["candidate"] = {
        "vertices": len(cand.vertices),
        "edges": len(cand.edge_ids),
        "alpha": cand.alpha,
        "epsilon": cand.epsilon,
        "threshold": cand.threshold,
    }
    text = json.dumps(payload, indent=2)
    print(text)
    if args.out:
        with open(_out_path(cfg, "split.json"), "w") as fh:
            fh.write(text + "\n")
    return 0


def cmd_cert(cfg: ExperimentConfig, args) -> int:
    inst, x = _load_or_build(cfg, args)
    if x is None:
        raise ConfigError("certificate analysis needs a gap instance")
    cand = _candidate_for(cfg, args, inst, x)
    if not cfg.force:
        require_split(x, cand)
    _, ft, icc = transform_pipeline(x, cand)
    cert_doc = certificate_to_json(assemble_certificate(x, cand, ft, icc))
    # R is rebuilt from a json.dumps/json.loads copy of the certificate section,
    # the same values `_write_json` encodes into the file.
    read_back = certificate_from_json(json.loads(json.dumps(cert_doc)), x.base, x.fiber)
    round_trip = reconstruct_r(read_back).canonical_form() == icc.canonical_form()
    d = 2 * x.base.edge_count // x.base.vertex_count  # the base is d-regular
    diag = diagnostics(icc, x.base, cfg.epsilon, d)
    doc = {
        "config": _config_doc(cfg, args),
        "round_trip_exact": bool(round_trip),
        "diagnostics": diag,
        "max_cloud_occupancy": ft.max_cloud_occupancy(),
        "certificate": cert_doc,
    }
    summary = {k: doc[k] for k in ("round_trip_exact", "diagnostics", "max_cloud_occupancy")}
    print(json.dumps(summary, indent=2))
    if args.out:
        _write_json(cfg, "certificate.json", doc)
    if not round_trip:
        raise SystemExit("error: certificate round trip failed")
    return 0


def _gap_row(cfg: ExperimentConfig, n: int, seed: int) -> dict:
    build = _build(cfg, n, seed)
    row, _ = analyse(cfg, build.instance, seed)
    return {"n": n, "k": build.instance.k, "seed": seed, **row, "provenance": build.provenance}


def _gap_rows(cfg: ExperimentConfig, tasks: list[tuple[int, int]]) -> list[dict]:
    """Rows of the (n, seed) tasks in task order, on min(jobs, tasks) worker
    processes.  A row is a pure function of (cfg, n, seed), so the worker
    count never changes a row.

    Workers are forked: `spawn` and `forkserver` re-import the caller's
    `__main__`, which breaks a script that calls `main` without an
    `if __name__ == "__main__"` guard.  Where fork is unavailable, rows run
    in this process.  Only the forking branch imports the pool, so no other
    command, nor a one-worker `gap`, loads `multiprocessing`.
    """
    workers = min(cfg.jobs, len(tasks))
    if workers >= 2:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            ns, seeds = zip(*tasks)
            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
                return list(pool.map(_gap_row, [cfg] * len(tasks), ns, seeds))
    return [_gap_row(cfg, n, seed) for n, seed in tasks]


def cmd_gap(cfg: ExperimentConfig, args) -> int:
    cfg.check_solvers_run()
    started = time.perf_counter()
    rows = _gap_rows(cfg, [(n, seed) for n in cfg.n_values for seed in cfg.seeds])
    rows.sort(key=lambda r: (r["n"], r["seed"]))
    elapsed = time.perf_counter() - started
    print(f"# caveat: {GAP_CAVEAT}")
    for row in rows:
        if cfg.format == "json":
            print(json.dumps({k: row[k] for k in CSV_COLUMNS}))
        else:
            print(
                f"n={row['n']} seed={row['seed']} frac={row['frac_cost']:.6g} "
                f"best={row['best_integral']:.6g} ratio={row['ratio']:.6g} ({row['solver']})"
            )
    csv_path = _out_path(cfg, "gap.csv")
    with open(csv_path, "w", newline="") as fh:
        fh.write("# config: " + json.dumps(cfg.as_dict(), sort_keys=True) + "\n")
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    prov_path = _write_json(cfg, "gap.provenance.json", {
        "config": cfg.as_dict(),
        "caveat": GAP_CAVEAT,
        "elapsed_seconds": elapsed,
        "rows": rows,
    })
    print(f"wrote {csv_path} and {prov_path} in {elapsed:.1f}s")
    return 0


# -- entry point ---------------------------------------------------------------------


# command -> (handler, the options it reads)
COMMANDS = {
    "generate": (cmd_generate, BUILD + ("out", "config")),
    "frac": (cmd_frac, ONE_INSTANCE),
    "solve": (cmd_solve, ONE_INSTANCE + SOLVE),
    "split": (cmd_split, SPLIT),
    "cert": (cmd_cert, SPLIT + ("force",)),
    "gap": (cmd_gap, BUILD + ("out", "config") + SOLVE + ("jobs", "format")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zeroext", description="0-Extension gap construction harness")
    parser.add_argument("--version", action="version", version=f"zeroext {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, names) in COMMANDS.items():
        p = sub.add_parser(name)
        for opt_name in names:
            opt = OPTIONS[opt_name]
            flags = (_flag(opt_name),) + opt.aliases
            kind = {"type": opt.parse} if opt.parse else {"action": "store_true", "default": None}
            p.add_argument(*flags, dest=opt_name, help=opt.help, **kind)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command][0](_config_from_args(args), args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
