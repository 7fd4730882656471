"""The benchmark's workloads: inputs made from the seed, one item, its checks.

Each workload stresses one stage of the pipeline and leaves the others
nearly idle, so a change to one stage moves one workload:

- instances: sampling.  `default_gap_instance` -> `canonical_fractional` ->
  `is_feasible` at n = 8 and 16 with the default girth floor, the shape of
  acceptance criterion 1.  n = 32 is left out: its girth floor makes the
  number of sampled base graphs geometric in the seed (11 to 533 candidates,
  0.5 to 14 s per instance over seeds 0..20), so no run of a minute can give a
  steady figure for it.
- gap: the harness at the dense cap.  One in-process `zeroext gap` call with
  n = 64, two seeds and two jobs; girth floor 3 keeps the girth lottery out,
  so APSP and the solvers dominate.
- cert: analysis of fixed instances.  Set-up writes n = 24 instances and one
  labeling each; an item runs `zeroext split` and `zeroext cert` on one pair.
  Loading rebuilds flatten and APSP with no sampling; the rest is split
  verification and the certificate.

Library calls go through module attributes (`instance.default_gap_instance`)
so that the traced run's patched bindings are the ones called.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil

import numpy as np

from zeroext import cli, instance, relaxation, solvers, split

D = 4
SEED_STRIDE = 10_000  # instance seeds of workload seed s are s * SEED_STRIDE + j
SPLIT_CONDITIONS = {"size", "distance", "closeness", "cycle_homeomorphism"}


class CheckFailed(Exception):
    """An output of the program is not what the workload requires."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def gap_edge_count(n: int, d: int = D) -> int:
    """Edges of the gap instance: n * (nd/2) lifted base edges, as many fiber
    edges, and one pendant terminal edge per extension vertex."""
    return n * (n * d // 2) * 2 + n * n


def close(a: float, b: float, rtol: float = 1e-9) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


def without_config(doc: dict) -> bytes:
    """JSON without `config`, which embeds the temporary output directory."""
    return json.dumps({k: v for k, v in doc.items() if k != "config"}, sort_keys=True).encode()


def quiet_main(argv: list[str]) -> int:
    """`zeroext` CLI call in-process, its stdout discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def warm_up() -> None:
    """One small build so scipy's lazily imported modules are loaded."""
    build = instance.default_gap_instance(8, D, 0)
    delta, _ = relaxation.canonical_fractional(build.instance)
    relaxation.is_feasible(delta, build.instance)


class Workload:
    """Item specs per round, a timed `call`, and an untimed `check`.

    `check` raises CheckFailed on a wrong output and otherwise returns the
    bytes that enter the output digest and counters read from the outputs.
    """

    name = ""
    min_rounds = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = int(seed)
        self.workdir = workdir

    def setup(self) -> None:
        pass

    def items(self, round_no: int) -> list:
        raise NotImplementedError

    def call(self, spec):
        raise NotImplementedError

    def check(self, spec, out) -> tuple[bytes, dict[str, float]]:
        raise NotImplementedError


class Instances(Workload):
    name = "instances"
    sizes = (8, 16)
    per_round = 8

    def items(self, round_no):
        first = self.seed * SEED_STRIDE + round_no * self.per_round
        return list(range(first, first + self.per_round))

    def call(self, spec):
        out = []
        for n in self.sizes:
            build = instance.default_gap_instance(n, D, spec)
            delta, cost = relaxation.canonical_fractional(build.instance)
            out.append((n, build, cost, relaxation.is_feasible(delta, build.instance)))
        return out

    def check(self, spec, out):
        digest = hashlib.sha256()
        attempts = 0
        for n, build, cost, violations in out:
            inst = build.instance
            edges = gap_edge_count(n)
            require(inst.graph.edge_count == edges,
                    f"n={n} seed={spec}: {inst.graph.edge_count} edges, expected {edges}")
            require(close(cost, edges), f"n={n} seed={spec}: canonical cost {cost!r} != {edges}")
            require(violations == [], f"n={n} seed={spec}: {len(violations)} violations")
            prov = {k: v for k, v in build.provenance.items() if k != "version"}
            digest.update(json.dumps([n, spec, repr(cost), prov], sort_keys=True).encode())
            digest.update(np.asarray(inst.graph.edges, dtype=np.int64).tobytes())
            digest.update(inst.weights.tobytes())
            attempts += build.provenance["girth_attempts"]
        return digest.digest(), {"girth_attempts": attempts, "instances": len(out)}


class Gap(Workload):
    name = "gap"
    min_rounds = 2
    n = 64

    def items(self, round_no):
        return [self.seed * SEED_STRIDE + 2 * round_no]

    def call(self, spec):
        out_dir = os.path.join(self.workdir, f"gap_{spec}")
        rc = quiet_main([
            "gap", "--n", str(self.n), "--seeds", f"{spec},{spec + 1}",
            "--girth-floor", "3", "--jobs", "2", "--out", out_dir,
        ])
        return rc, out_dir

    def check(self, spec, out):
        rc, out_dir = out
        try:
            require(rc == 0, f"gap exited with {rc}")
            with open(os.path.join(out_dir, "gap.csv")) as fh:
                lines = fh.read().splitlines()
            require(bool(lines) and lines[0].startswith("# config:"), "gap.csv lacks its config line")
            rows = list(csv.DictReader(lines[1:]))
            require([int(r["seed"]) for r in rows] == [spec, spec + 1],
                    f"gap.csv rows {[r['seed'] for r in rows]}, expected seeds {spec},{spec + 1}")
            edges = gap_edge_count(self.n)
            for row in rows:
                frac, best, ratio = (float(row[k]) for k in ("frac_cost", "best_integral", "ratio"))
                require(close(frac, edges), f"seed {row['seed']}: frac_cost {frac!r} != {edges}")
                require(math.isfinite(ratio) and ratio >= 0, f"seed {row['seed']}: ratio {ratio!r}")
                require(close(ratio, best / frac, 1e-12),
                        f"seed {row['seed']}: ratio {ratio!r} != {best!r} / {frac!r}")
            with open(os.path.join(out_dir, "gap.provenance.json")) as fh:
                prov = json.load(fh)
            attempts = sum(r["provenance"]["girth_attempts"] for r in prov["rows"])
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        digest = "\n".join(lines[1:]).encode()
        return digest, {"girth_attempts": attempts, "instances": len(rows)}


class Cert(Workload):
    name = "cert"
    n = 24
    instance_count = 6
    flags = ["--epsilon", "0.1", "--alpha", "1e9", "--threshold", "0.9"]

    def paths(self, j: int) -> tuple[str, str]:
        stem = os.path.join(self.workdir, f"cert_{j}")
        return stem + ".instance.json", stem + ".labeling"

    def setup(self):
        """Instance files, and a labeling sending each cloud to a seeded
        random fiber vertex of that cloud."""
        for j in range(self.instance_count):
            build = instance.default_gap_instance(self.n, D, self.seed * SEED_STRIDE + j)
            x = build.extension
            rng = np.random.default_rng((self.seed, j))
            targets = {
                g: g * x.fiber_size + int(rng.integers(0, x.fiber_size))
                for g in range(x.cloud_count)
            }
            f = split.per_cloud_labeling(build.instance, x, targets)
            inst_path, lab_path = self.paths(j)
            instance.save_instance(build.instance, inst_path)
            solvers.save_labeling(f, lab_path)

    def items(self, round_no):
        return list(range(self.instance_count))

    def call(self, spec):
        inst_path, lab_path = self.paths(spec)
        out_dir = os.path.join(self.workdir, f"out_{spec}")
        args = ["--instance", inst_path, "--labeling", lab_path, *self.flags, "--out", out_dir]
        rc_split = quiet_main(["split", *args])
        rc_cert = quiet_main(["cert", *args, "--force"])
        return rc_split, rc_cert, out_dir

    def check(self, spec, out):
        rc_split, rc_cert, out_dir = out
        try:
            require(rc_split == 0 and rc_cert == 0, f"split/cert exited with {rc_split}/{rc_cert}")
            with open(os.path.join(out_dir, "split.json")) as fh:
                split_doc = json.load(fh)
            with open(os.path.join(out_dir, "certificate.json")) as fh:
                cert_doc = json.load(fh)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        require(set(split_doc["conditions"]) == SPLIT_CONDITIONS,
                f"split conditions {sorted(split_doc['conditions'])}")
        require(cert_doc["round_trip_exact"] is True, "certificate round trip is not exact")
        diag = cert_doc["diagnostics"]
        b1, s_tot = diag["b1"], diag["s_tot"]
        require(diag["beta_total"] == b1, f"beta_total {diag['beta_total']} != b1 {b1}")
        require(2 * b1 <= s_tot <= 6 * b1 + 2 * self.n,
                f"criterion 9 bounds fail: b1={b1} s_tot={s_tot} n={self.n}")
        counters = {"r_vertices": diag["r_vertices"], "r_edges": diag["r_edges"], "b1": b1}
        return without_config(split_doc) + without_config(cert_doc), counters


WORKLOADS = {w.name: w for w in (Instances, Gap, Cert)}
