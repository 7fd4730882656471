"""Command-line experiment harness.

Subcommands: generate, frac, solve, split, cert, export-lp, gap.  Every output
file embeds the resolved configuration and seeds needed to regenerate it
bit-identically.  Reported integral values come from heuristics, so measured
ratios UPPER-BOUND the true integrality gap; a verified gap requires an
external LP optimum attached via --lp-opt.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .certificate import (
    build_certificate,
    certificate_to_json,
    diagnostics,
    reconstruct_r,
    transform_pipeline,
)
from .instance import (
    GapParams,
    ZeroExtInstance,
    default_gap_instance,
    load_instance,
    save_instance,
)
from .relaxation import canonical_fractional, export_lp, is_feasible
from .solvers import (
    all_to_one,
    ckr_round,
    integral_cost,
    load_labeling,
    local_search,
    nearest_terminal,
    save_labeling,
)
from .split import build_split_candidate, per_cloud_labeling, verify_split

GAP_CAVEAT = (
    "heuristic integral values upper-bound the optimum, so reported ratios "
    "upper-bound the true integrality gap; attach an external LP optimum via "
    "--lp-opt for a verified gap"
)

CSV_COLUMNS = ["n", "k", "seed", "frac_cost", "best_integral", "ratio", "solver"]
KNOWN_SOLVERS = ("all_to_one", "nearest_terminal", "ckr", "local_search")

# Steepest-descent rounds are trimmed so a single instance stays within a
# fixed move-evaluation budget; full-strength local search remains available
# through the library API.
LOCAL_SEARCH_BUDGET = 2 * 10**9


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
    lp_opt: str | None = None
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
        for n in self.n_values:
            GapParams(n=n, d=self.d)  # raises InstanceError on a bad n or d
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

    def check_solvers_run(self):
        """For the commands that run solvers: reject a list that runs none."""
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


def _parse_int_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..")
            out.extend(range(int(lo), int(hi) + 1))
        elif part:
            out.append(int(part))
    return out


CONFIG_KEYS = {
    "n": ("n_values", _parse_int_list),
    "d": ("d", int),
    "seeds": ("seeds", _parse_int_list),
    "epsilon": ("epsilon", float),
    "alpha": ("alpha", float),
    "threshold": ("threshold", float),
    "solvers": ("solvers", lambda s: [t.strip() for t in s.split(",") if t.strip()]),
    "ckr_draws": ("ckr_draws", int),
    "local_rounds": ("local_rounds", int),
    "jobs": ("jobs", int),
    "out": ("out_dir", str),
    "format": ("format", str),
    "lp_opt": ("lp_opt", str),
    "girth_floor": ("girth_floor", int),
    "labeling_fiber": ("labeling_fiber", int),
}


def _apply_config_file(cfg: ExperimentConfig, path: str):
    """`key = value` lines; unknown keys are rejected; values override flags."""
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected `key = value`")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            attr, conv = CONFIG_KEYS[key]
            setattr(cfg, attr, conv(value.strip()))


def _config_from_args(args) -> ExperimentConfig:
    cfg = ExperimentConfig()
    cfg.out_dir = os.environ.get("ZEROEXT_OUT", ".")
    if getattr(args, "n", None):
        cfg.n_values = _parse_int_list(args.n)
    if getattr(args, "d", None) is not None:
        cfg.d = args.d
    if getattr(args, "seed", None) is not None:
        cfg.seeds = [args.seed]
    if getattr(args, "seeds", None):
        cfg.seeds = _parse_int_list(args.seeds)
    for name in ("epsilon", "alpha", "threshold", "ckr_draws", "local_rounds",
                 "jobs", "format", "lp_opt", "girth_floor", "labeling_fiber"):
        val = getattr(args, name, None)
        if val is not None:
            setattr(cfg, name, val)
    if getattr(args, "solvers", None):
        cfg.solvers = [t.strip() for t in args.solvers.split(",") if t.strip()]
    if getattr(args, "out", None):
        cfg.out_dir = args.out
    if getattr(args, "force", False):
        cfg.force = True
    if getattr(args, "config", None):
        _apply_config_file(cfg, args.config)
    cfg.validate()
    return cfg


def _out_path(cfg: ExperimentConfig, name: str) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


def _build(cfg: ExperimentConfig, n: int, seed: int):
    return default_gap_instance(n, cfg.d, seed, girth_floor=cfg.girth_floor)


def _load_or_build(cfg: ExperimentConfig, args) -> tuple[ZeroExtInstance, object | None]:
    if getattr(args, "instance", None):
        inst = load_instance(args.instance)
        x = inst.origin.extension if inst.is_gap else None
        return inst, x
    build = _build(cfg, cfg.n_values[0], cfg.seeds[0])
    return build.instance, build.extension


# -- subcommands --------------------------------------------------------------------


def cmd_generate(args) -> int:
    cfg = _config_from_args(args)
    for n in cfg.n_values:
        for seed in cfg.seeds:
            build = _build(cfg, n, seed)
            stem = f"gap_n{n}_d{cfg.d}_s{seed}"
            inst_path = _out_path(cfg, stem + ".instance.json")
            save_instance(build.instance, inst_path)
            prov = dict(build.provenance)
            prov["config"] = cfg.as_dict()
            with open(_out_path(cfg, stem + ".provenance.json"), "w") as fh:
                json.dump(prov, fh, indent=2)
            print(f"wrote {inst_path} (k={build.instance.k})")
    return 0


def cmd_frac(args) -> int:
    cfg = _config_from_args(args)
    inst, _ = _load_or_build(cfg, args)
    delta, cost = canonical_fractional(inst)
    violations = is_feasible(delta, inst)
    feasible = not violations
    print(f"fractional cost: {cost!r}")
    print(f"edges: {inst.graph.edge_count}")
    print(f"feasible: {'true' if feasible else 'false'}")
    if violations:
        for v in violations[:10]:
            print(f"  violation: {v}")
    if getattr(args, "out", None):
        doc = {
            "config": cfg.as_dict(),
            "frac_cost": cost,
            "edges": inst.graph.edge_count,
            "feasible": feasible,
            "violations": [str(v) for v in violations[:100]],
        }
        with open(_out_path(cfg, "frac.json"), "w") as fh:
            json.dump(doc, fh, indent=2)
    return 0 if feasible else 1


def _run_solvers(cfg: ExperimentConfig, inst: ZeroExtInstance, seed: int, delta):
    """All configured heuristics; returns {name: (labeling, cost)}.

    `delta` is the canonical fractional solution CKR rounds, or None for a
    generic instance, which has none.
    """
    results: dict[str, tuple[np.ndarray, float]] = {}
    if "all_to_one" in cfg.solvers:
        f = all_to_one(inst)
        results["all_to_one"] = (f, integral_cost(f, inst))
    if "nearest_terminal" in cfg.solvers:
        f = nearest_terminal(inst)
        results["nearest_terminal"] = (f, integral_cost(f, inst))
    if "ckr" in cfg.solvers and delta is not None:
        for i in range(cfg.ckr_draws):
            sub = int(np.random.SeedSequence((seed, 777, i)).generate_state(1)[0])
            f = ckr_round(inst, delta, sub)
            results[f"ckr[{i}]"] = (f, integral_cost(f, inst))
    if "local_search" in cfg.solvers:
        start = min(results.values(), key=lambda fc: fc[1])[0] if results else nearest_terminal(inst)
        budget_rounds = max(0, LOCAL_SEARCH_BUDGET // max(1, inst.vertex_count * inst.k * 4))
        rounds = min(cfg.local_rounds, budget_rounds)
        if rounds > 0:
            f = local_search(inst, start, max_rounds=rounds)
            results["local_search"] = (f, integral_cost(f, inst))
    return results


def cmd_solve(args) -> int:
    cfg = _config_from_args(args)
    cfg.check_solvers_run()
    inst, _ = _load_or_build(cfg, args)
    seed = cfg.seeds[0]
    delta = canonical_fractional(inst)[0] if inst.is_gap and "ckr" in cfg.solvers else None
    results = _run_solvers(cfg, inst, seed, delta)
    if not results:
        raise ConfigError("no solvers selected")
    best_name, (best_f, best_cost) = min(results.items(), key=lambda kv: (kv[1][1], kv[0]))
    for name, (_, cost) in sorted(results.items()):
        print(f"{name}: {cost!r}")
    print(f"best: {best_name} ({best_cost!r})")
    if getattr(args, "out", None):
        save_labeling(best_f, _out_path(cfg, "best.labeling"))
        doc = {
            "config": cfg.as_dict(),
            "costs": {name: cost for name, (_, cost) in results.items()},
            "best": best_name,
        }
        with open(_out_path(cfg, "solve.json"), "w") as fh:
            json.dump(doc, fh, indent=2)
    return 0


def _candidate_for(cfg: ExperimentConfig, args, inst, x):
    n = x.cloud_count
    if getattr(args, "labeling", None):
        f = load_labeling(args.labeling, inst)
    else:
        f = per_cloud_labeling(inst, x, cfg.labeling_fiber)
    return build_split_candidate(
        inst, x, f,
        alpha=cfg.alpha_for(n),
        epsilon=cfg.epsilon,
        threshold=cfg.threshold_value(),
    )


def cmd_split(args) -> int:
    cfg = _config_from_args(args)
    inst, x = _load_or_build(cfg, args)
    if x is None:
        raise ConfigError("split analysis needs a gap instance")
    cand = _candidate_for(cfg, args, inst, x)
    report = verify_split(cand, x)
    payload = json.loads(report.to_json())
    payload["config"] = cfg.as_dict()
    payload["candidate"] = {
        "vertices": len(cand.vertices),
        "edges": len(cand.edge_ids),
        "alpha": cand.alpha,
        "epsilon": cand.epsilon,
        "threshold": cand.threshold,
    }
    text = json.dumps(payload, indent=2)
    print(text)
    if getattr(args, "out", None):
        with open(_out_path(cfg, "split.json"), "w") as fh:
            fh.write(text + "\n")
    return 0


def cmd_cert(args) -> int:
    cfg = _config_from_args(args)
    inst, x = _load_or_build(cfg, args)
    if x is None:
        raise ConfigError("certificate analysis needs a gap instance")
    cand = _candidate_for(cfg, args, inst, x)
    cert = build_certificate(x, cand, force=cfg.force)
    _, ft, icc = transform_pipeline(x, cand)
    rebuilt = reconstruct_r(cert)
    round_trip = rebuilt.canonical_form() == icc.canonical_form()
    diag = diagnostics(icc, x.base, cfg.epsilon, cfg.d)
    doc = {
        "config": cfg.as_dict(),
        "round_trip_exact": bool(round_trip),
        "diagnostics": diag,
        "max_cloud_occupancy": ft.max_cloud_occupancy(),
        "certificate": certificate_to_json(cert),
    }
    print(
        json.dumps(
            {k: doc[k] for k in ("round_trip_exact", "diagnostics", "max_cloud_occupancy")},
            indent=2,
        )
    )
    if getattr(args, "out", None):
        with open(_out_path(cfg, "certificate.json"), "w") as fh:
            json.dump(doc, fh, indent=2)
    if not round_trip:
        raise SystemExit("error: certificate round trip failed")
    return 0


def cmd_export_lp(args) -> int:
    cfg = _config_from_args(args)
    inst, _ = _load_or_build(cfg, args)
    path = _out_path(cfg, getattr(args, "lp_name", None) or "relaxation.lp")
    export_lp(inst, path)
    print(f"wrote {path}")
    return 0


def _gap_row(cfg: ExperimentConfig, n: int, seed: int) -> dict:
    build = _build(cfg, n, seed)
    inst = build.instance
    delta, frac = canonical_fractional(inst)
    results = _run_solvers(cfg, inst, seed, delta)
    best_name, (_, best_cost) = min(results.items(), key=lambda kv: (kv[1][1], kv[0]))
    return {
        "n": n,
        "k": inst.k,
        "seed": seed,
        "frac_cost": frac,
        "best_integral": best_cost,
        "ratio": best_cost / frac if frac > 0 else math.inf,
        "solver": best_name,
        "all_costs": {name: cost for name, (_, cost) in results.items()},
        "provenance": build.provenance,
    }


def cmd_gap(args) -> int:
    cfg = _config_from_args(args)
    cfg.check_solvers_run()
    started = time.perf_counter()
    tasks = [(n, seed) for n in cfg.n_values for seed in cfg.seeds]
    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            rows = list(pool.map(lambda t: _gap_row(cfg, *t), tasks))
    else:
        rows = [_gap_row(cfg, *t) for t in tasks]
    rows.sort(key=lambda r: (r["n"], r["seed"]))

    lp_opts = {}
    if cfg.lp_opt:
        with open(cfg.lp_opt) as fh:
            lp_opts = json.load(fh)
        for row in rows:
            key = f"{row['n']},{row['seed']}"
            if key in lp_opts:
                row["lp_opt"] = lp_opts[key]
                row["verified_ratio"] = row["best_integral"] / lp_opts[key]

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
    prov_path = _out_path(cfg, "gap.provenance.json")
    with open(prov_path, "w") as fh:
        json.dump(
            {
                "config": cfg.as_dict(),
                "caveat": GAP_CAVEAT,
                "elapsed_seconds": elapsed,
                "rows": rows,
            },
            fh,
            indent=2,
        )
    print(f"wrote {csv_path} and {prov_path} in {elapsed:.1f}s")
    return 0


# -- entry point ---------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--n", help="comma list / a..b ranges of per-factor sizes")
    p.add_argument("--d", type=int, help="regular degree (default 4)")
    p.add_argument("--seed", type=int, help="single seed")
    p.add_argument("--seeds", help="comma list / a..b ranges of seeds")
    p.add_argument("--epsilon", type=float, help="split fraction parameter")
    p.add_argument("--alpha", type=float, help="representative distance bound")
    p.add_argument("--threshold", type=float, help="majority threshold (> 1/2)")
    p.add_argument("--solvers", help="comma list of heuristics to run")
    p.add_argument("--ckr-draws", dest="ckr_draws", type=int)
    p.add_argument("--local-rounds", dest="local_rounds", type=int)
    p.add_argument("--jobs", type=int, help="worker threads for seed fan-out")
    p.add_argument("--girth-floor", dest="girth_floor", type=int)
    p.add_argument("--out", help="output directory (or ZEROEXT_OUT)")
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--lp-opt", dest="lp_opt", help="JSON file of external LP optima")
    p.add_argument("--config", help="key = value file; values override flags")
    p.add_argument("--instance", help="load an instance JSON instead of generating")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="zeroext",
        description="0-Extension gap construction harness",
    )
    parser.add_argument("--version", action="version", version=f"zeroext {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    commands = {
        "generate": cmd_generate,
        "frac": cmd_frac,
        "solve": cmd_solve,
        "split": cmd_split,
        "cert": cmd_cert,
        "export-lp": cmd_export_lp,
        "gap": cmd_gap,
    }
    for name in commands:
        p = sub.add_parser(name)
        _add_common(p)
        if name in ("split", "cert"):
            p.add_argument("--labeling", help="labeling file (default: per-cloud constant)")
            p.add_argument("--labeling-fiber", dest="labeling_fiber", type=int)
            p.add_argument("--force", action="store_true", help="build diagnostics even if not a split")
        if name == "export-lp":
            p.add_argument("--lp-name", dest="lp_name", help="output file name")

    args = parser.parse_args(argv)
    try:
        return commands[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
