from __future__ import annotations

import argparse
import csv
import json
import os
import re
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from zeroext import cli, extension, graphs, instance, relaxation
from zeroext.graphs import Graph
from zeroext.instance import (
    InstanceError,
    build_generic_instance,
    default_gap_instance,
    load_instance,
    save_instance,
)
from zeroext.relaxation import canonical_fractional, is_feasible


def run(argv):
    return cli.main(argv)


def test_gap_writes_csv_and_provenance(tmp_path, capsys):
    out = tmp_path / "run1"
    rc = run(["gap", "--n", "6", "--seeds", "0..1", "--jobs", "1", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "caveat" in text
    csv_path = out / "gap.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("# config:")
    rows = list(csv.DictReader(lines[1:]))
    assert [r["seed"] for r in rows] == ["0", "1"]
    assert set(rows[0]) == {"n", "k", "seed", "frac_cost", "best_integral", "ratio", "solver"}
    for r in rows:
        assert float(r["ratio"]) >= 0
        assert r["k"] == "36"
    prov = json.loads((out / "gap.provenance.json").read_text())
    assert prov["caveat"] == cli.GAP_CAVEAT
    assert prov["config"]["seeds"] == [0, 1]


def test_gap_csv_deterministic(tmp_path):
    # Rows in worker processes must equal rows run in-process: identical data
    # rows either way (the leading comment embeds the run's own config, so it
    # may differ).
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run(["gap", "--n", "6", "--seeds", "3..4", "--jobs", "2", "--out", str(out1)])
    run(["gap", "--n", "6", "--seeds", "3..4", "--jobs", "1", "--out", str(out2)])
    rows1 = (out1 / "gap.csv").read_text().splitlines()[1:]
    rows2 = (out2 / "gap.csv").read_text().splitlines()[1:]
    assert rows1 == rows2


def test_gap_jobs_from_a_script_without_a_main_guard(tmp_path):
    # Workers are forked; a spawned worker would re-import this unguarded
    # script and run `main` again, which breaks the pool.
    script = tmp_path / "unguarded.py"
    script.write_text(textwrap.dedent(f"""\
        from zeroext import cli
        raise SystemExit(cli.main(["gap", "--n", "5", "--seeds", "0,1", "--jobs", "2",
                                   "--solvers", "all_to_one", "--out", {str(tmp_path / "o")!r}]))
    """))
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    rows = (tmp_path / "o" / "gap.csv").read_text().splitlines()[2:]
    assert [row.split(",")[2] for row in rows] == ["0", "1"]


def test_frac_and_a_gap_row_import_no_scipy(tmp_path):
    # The level search answers is_feasible and the label screen settles the
    # all_to_one start, so neither command, nor a forked gap worker, pays
    # for the scipy import.  Only a gap that forks loads the worker pool.
    script = tmp_path / "imports.py"
    script.write_text(textwrap.dedent(f"""\
        import sys
        from zeroext import cli
        def loaded(after):
            for name in ("scipy", "multiprocessing", "concurrent.futures"):
                print(name, "after", after + ":", name in sys.modules)
        assert cli.main(["frac", "--n", "8", "--out", {str(tmp_path / "f")!r}]) == 0
        loaded("frac")
        assert cli.main(["gap", "--n", "8", "--seeds", "0", "--jobs", "1", "--out", {str(tmp_path / "g")!r}]) == 0
        loaded("gap")
        assert cli.main(["gap", "--n", "8", "--seeds", "0,1", "--jobs", "2", "--out", {str(tmp_path / "j")!r}]) == 0
        loaded("forked gap")
    """))
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    for name in ("scipy", "multiprocessing", "concurrent.futures"):
        assert f"{name} after frac: False" in lines and f"{name} after gap: False" in lines
    assert "multiprocessing after forked gap: True" in lines
    assert "concurrent.futures after forked gap: True" in lines
    assert (tmp_path / "g" / "gap.csv").read_text().count("\n") == 3  # config, header, one row
    assert (tmp_path / "j" / "gap.csv").read_text().count("\n") == 4  # and two rows


def test_written_json_files_are_json_dump_with_indent_2(tmp_path, monkeypatch):
    written = {}
    write_json = cli._write_json

    def recorded(cfg, name, doc):
        written[name] = doc
        return write_json(cfg, name, doc)

    monkeypatch.setattr(cli, "_write_json", recorded)
    kept = ["--epsilon", "0.1", "--alpha", "1e9", "--threshold", "0.9"]
    assert cli.main(["cert", "--n", "8", "--seed", "0", *kept, "--force", "--out", str(tmp_path)]) == 0
    doc = written["certificate.json"]
    assert doc["certificate"] and (tmp_path / "certificate.json").read_text() == json.dumps(doc, indent=2)


def hook_dx_build(monkeypatch, hook) -> None:
    """Call hook(k) on each D_X build: the one `LevelCodes.from_blocks`
    call, in `extension.extension_metric`."""

    class Hooked(graphs.LevelCodes):
        @classmethod
        def from_blocks(cls, shape, blocks):
            hook(shape[0])
            return graphs.LevelCodes.from_blocks(shape, blocks)

    monkeypatch.setattr(extension, "LevelCodes", Hooked)


def refuse_dx(k):
    raise AssertionError("built the dense D_X")


def test_generate_split_and_cert_build_no_dense_extension_metric(tmp_path, monkeypatch):
    # n = 24 (k = 576): split and cert search only the representatives' rows,
    # on the built instance and on the loaded file alike.
    hook_dx_build(monkeypatch, refuse_dx)
    kept = ["--epsilon", "0.1", "--alpha", "1e9", "--threshold", "0.9"]
    assert cli.main(["generate", "--n", "24", "--seed", "0", "--out", str(tmp_path)]) == 0
    for source in (["--n", "24", "--seed", "0"], ["--instance", str(tmp_path / "gap_n24_d4_s0.instance.json")]):
        assert cli.main(["split", *source, *kept, "--out", str(tmp_path)]) == 0
        assert cli.main(["cert", *source, *kept, "--force", "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "split.json").read_text())["candidate"]["edges"] > 0
        assert json.loads((tmp_path / "certificate.json").read_text())["diagnostics"]["b1"] > 0


def test_a_gap_row_builds_the_extension_metric_once(tmp_path, monkeypatch):
    # Shared by the row sums of all_to_one, the CKR draws and local_search.
    calls = []
    hook_dx_build(monkeypatch, calls.append)
    assert cli.main(["gap", "--n", "8", "--seeds", "0", "--jobs", "1", "--out", str(tmp_path)]) == 0
    assert calls == [64]


def test_an_n64_row_and_frac_build_no_edge_list_of_the_flat_or_instance_graph(tmp_path, monkeypatch):
    # Both graphs are searched through their endpoint arrays; a (u, v) tuple
    # per edge would be about 36 K objects at n = 64 (k = 4096).
    read = []
    real = graphs.Graph.edges

    def spy(g):
        read.append(g.vertex_count)
        return real.fget(g)

    monkeypatch.setattr(graphs.Graph, "edges", property(spy))
    k = 64 * 64
    cfg = cli._config_from_args(cli.build_parser().parse_args(["gap", "--n", "64", "--seeds", "0"]))
    assert cli._gap_row(cfg, 64, 0)["n"] == 64
    assert cli.main(["frac", "--n", "64", "--out", str(tmp_path)]) == 0
    inst = default_gap_instance(64, 4, 1).instance
    assert inst.vertex_count == 2 * k and is_feasible(canonical_fractional(inst)[0], inst) == []
    assert read and k not in read and 2 * k not in read
    extension.flatten(inst.origin.extension).graph.edges  # the spy sees a read
    assert read[-1] == k


def _own_peak_kib(tmp_path, argv) -> int:
    """The peak resident set of a fresh process that runs `zeroext argv`,
    read by the process itself as VmHWM: on Linux its ru_maxrss also
    carries the peak of the process that started it."""
    script = tmp_path / "peak.py"
    script.write_text(textwrap.dedent(f"""\
        import re
        from zeroext import cli
        assert cli.main({argv!r}) == 0
        with open("/proc/self/status") as fh:
            print("peak_kib", re.search(r"VmHWM:\\s*(\\d+) kB", fh.read()).group(1))
    """))
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, capture_output=True,
                          text=True, timeout=300, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    return int(done.stdout.split("peak_kib")[-1])


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_an_n64_gap_row_peaks_below_110_mib(tmp_path):
    # D_X is held as one-byte level codes (16 MiB at k = 4096) and no reader
    # forms the k x k float matrix, which alone would take 128 MiB.
    peak_kib = _own_peak_kib(tmp_path, ["gap", "--n", "64", "--seeds", "0", "--jobs", "1", "--out", str(tmp_path)])
    assert peak_kib < 110 * 1024, peak_kib


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_an_n64_generate_peaks_below_51_mib(tmp_path):
    # The file holds only the instance's origin (40 KB at n = 64), so
    # encoding it costs little beside the build.
    peak_kib = _own_peak_kib(tmp_path, ["generate", "--n", "64", "--seed", "0", "--out", str(tmp_path)])
    assert peak_kib < 51 * 1024, peak_kib


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_an_n64_frac_peaks_below_80_mib(tmp_path):
    # The feasibility check streams D_X and the search in row blocks and
    # decodes 64 rows at a time: it holds neither D_X's 16 MiB of codes nor
    # a (256, k) float slab (8 MiB each at k = 4096), with which it peaked
    # at 113 MiB.
    peak_kib = _own_peak_kib(tmp_path, ["frac", "--n", "64", "--out", str(tmp_path)])
    assert peak_kib < 80 * 1024, peak_kib


def test_frac_and_the_feasibility_check_stream_an_unbuilt_extension_metric(tmp_path, monkeypatch):
    hook_dx_build(monkeypatch, refuse_dx)
    assert cli.main(["generate", "--n", "24", "--seed", "0", "--out", str(tmp_path)]) == 0
    for source in (["--n", "24", "--seed", "0"], ["--instance", str(tmp_path / "gap_n24_d4_s0.instance.json")]):
        assert cli.main(["frac", *source, "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "frac.json").read_text())["feasible"] is True
    inst = default_gap_instance(24, 4, 0).instance
    assert is_feasible(canonical_fractional(inst)[0], inst) == []
    assert inst.origin.dx is None


def test_a_row_that_raises_in_a_worker_exits_2_naming_the_error(monkeypatch, tmp_path, capsys):
    parent = os.getpid()
    build = cli._build

    def failing(cfg, n, seed):
        if seed == 1:
            raise InstanceError(f"row failed in process {os.getpid()}")
        return build(cfg, n, seed)

    monkeypatch.setattr(cli, "_build", failing)  # forked workers inherit the patch
    argv = ["gap", "--n", "5", "--seeds", "0,1", "--jobs", "2", "--solvers", "all_to_one",
            "--out", str(tmp_path)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    worker = int(re.fullmatch(r"error: row failed in process (\d+)\n", err).group(1))
    assert worker != parent
    assert not (tmp_path / "gap.csv").exists()


def test_frac_reports_cost_and_feasibility(capsys):
    rc = run(["frac", "--n", "6", "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fractional cost: 180.0" in out  # 6*12 + 12*6 + 36
    assert "edges: 180" in out
    assert "feasible: true" in out


def test_generate_round_trip(tmp_path):
    out = tmp_path / "gen"
    rc = run(["generate", "--n", "6", "--seed", "5", "--out", str(out)])
    assert rc == 0
    inst_path = out / "gap_n6_d4_s5.instance.json"
    inst = load_instance(inst_path)
    assert inst.k == 36
    prov = json.loads((out / "gap_n6_d4_s5.provenance.json").read_text())
    assert prov["seed"] == 5
    assert "config" in prov


def test_solve_outputs(tmp_path, capsys):
    out = tmp_path / "solve"
    rc = run(["solve", "--n", "6", "--seed", "1", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "best:" in text
    doc = json.loads((out / "solve.json").read_text())
    assert set(doc["costs"]) >= {"all_to_one", "nearest_terminal"}
    assert (out / "best.labeling").exists()


def test_split_reports_conditions(tmp_path, capsys):
    out = tmp_path / "split"
    rc = run(
        ["split", "--n", "6", "--seed", "0", "--epsilon", "0.1", "--alpha", "1e9",
         "--threshold", "0.9", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads((out / "split.json").read_text())
    assert set(doc["conditions"]) == {"size", "distance", "closeness", "cycle_homeomorphism"}
    assert doc["config"]["epsilon"] == 0.1


def test_split_rejects_labeling_vertex_out_of_range(tmp_path, capsys):
    # n=8 gives 64 terminals and 128 vertices; vertex 133 does not exist.
    path = tmp_path / "bad.labeling"
    path.write_text("".join(f"{v} {64 + v % 64}\n" for v in range(128)) + "133 64\n")
    rc = run(["split", "--n", "8", "--seed", "0", "--labeling", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "vertex 133 outside [0, 128)" in err


@pytest.mark.parametrize("fiber", ["-1", "9"])
def test_split_rejects_labeling_fiber_outside_fiber(fiber, capsys):
    # n=8 gives fibers of 8 vertices: -1 and 9 name no fiber vertex.
    rc = run(["split", "--n", "8", "--seed", "0", "--labeling-fiber", fiber])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"fiber vertex {fiber} outside [0, 8)" in err


@pytest.mark.parametrize("argv", [
    ["solve", "--n", "65"], ["gap", "--n", "8,65", "--jobs", "1"], ["gap", "--n", "96"], ["solve", "--n", "96"],
])
def test_n_over_dense_ceiling_rejected_before_sampling(argv, tmp_path, capsys, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled a graph")

    monkeypatch.setattr(instance, "random_regular", no_sampling)
    started = time.perf_counter()
    rc = run(argv + ["--out", str(tmp_path)])
    elapsed = time.perf_counter() - started
    assert rc == 2
    err = capsys.readouterr().err
    k = int(argv[2].split(",")[-1]) ** 2
    assert err.startswith("error:") and f"k=n^2={k}" in err and "ceiling k <= 4096" in err
    assert elapsed < 1.0, f"rejecting k={k} took {elapsed:.2f}s"
    assert list(tmp_path.iterdir()) == []


def test_solve_of_a_file_over_dense_ceiling_rejected_before_any_solution(tmp_path, capsys, monkeypatch):
    # The file's k is checked, not the --n default, and the message names the file.
    assert run(["generate", "--n", "8", "--out", str(tmp_path)]) == 0
    path = tmp_path / "gap_n8_d4_s0.instance.json"
    capsys.readouterr()

    def no_solution(*args, **kwargs):
        raise AssertionError("computed the canonical fractional solution")

    monkeypatch.setattr(extension, "DENSE_METRIC_CAP", 63)
    for module in (relaxation, cli):
        monkeypatch.setattr(module, "canonical_fractional", no_solution)
    assert run(["solve", "--instance", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: k=64 terminals") and "ceiling k <= 63" in err


def test_n96_generate_and_split_stream_d_x(tmp_path, capsys):
    assert run(["generate", "--n", "96", "--out", str(tmp_path)]) == 0
    kept = ["--epsilon", "0.1", "--alpha", "1e9", "--threshold", "0.9"]
    assert run(["split", "--n", "96", *kept, "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "split.json").read_text())["candidate"]["edges"] == 192


@pytest.mark.parametrize("command", ["generate", "frac", "solve", "split", "cert", "gap"])
def test_n_over_streamed_ceiling_rejected_by_every_build_command(command, tmp_path, capsys):
    assert run([command, "--n", "129", "--out", str(tmp_path)]) == 2
    assert "streamed ceiling n <= 128" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_girth_floor_over_the_moore_bound_rejected_before_any_row(tmp_path, capsys, monkeypatch):
    def no_rows(*args):
        raise AssertionError("entered the rows")

    monkeypatch.setattr(cli, "_gap_rows", no_rows)
    argv = ["gap", "--n", "8", "--girth-floor", "30", "--jobs", "2", "--out", str(tmp_path)]
    assert run(argv) == 2
    assert "girth floor 30 is above the Moore bound" in capsys.readouterr().err


def test_cert_round_trip_via_cli(tmp_path):
    out = tmp_path / "cert"
    rc = run(
        ["cert", "--n", "6", "--seed", "0", "--epsilon", "0.1", "--alpha", "1e9",
         "--threshold", "0.9", "--force", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads((out / "certificate.json").read_text())
    assert doc["round_trip_exact"] is True
    assert doc["diagnostics"]["stot_upper_ok"] and doc["diagnostics"]["stot_lower_ok"]
    assert doc["certificate"]["format"] == "zeroext-certificate"


def test_cert_round_trip_reads_the_certificate_json_text(tmp_path, monkeypatch, capsys):
    # A relative position missing from the document fails the run by name,
    # although the certificate in memory is whole.
    to_json = cli.certificate_to_json

    def drop_a_diff(cert):
        doc = to_json(cert)
        del next(r for r in doc["representations"] if r["diffs"])["diffs"][0]
        return doc

    monkeypatch.setattr(cli, "certificate_to_json", drop_a_diff)
    argv = ["cert", "--n", "6", "--seed", "0", "--epsilon", "0.1", "--alpha", "1e9",
            "--threshold", "0.9", "--force", "--out", str(tmp_path)]
    assert run(argv) == 2
    assert "relative positions for" in capsys.readouterr().err


def test_config_file_overrides_flags(tmp_path, capsys):
    cfg = tmp_path / "conf.txt"
    cfg.write_text("seeds = 7\nn = 6\n")
    out = tmp_path / "o"
    rc = run(["gap", "--n", "8", "--seeds", "0..3", "--jobs", "1",
              "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    rows = list(csv.DictReader((out / "gap.csv").read_text().splitlines()[1:]))
    assert [(r["n"], r["seed"]) for r in rows] == [("6", "7")]


def assert_flag_error(capsys, argv, pattern):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and re.search(pattern, err), err


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "conf.txt"
    for line, key in (("frobnicate = 3", "frobnicate"), ("lp_opt = f.json", "lp_opt")):
        cfg.write_text(line + "\n")
        assert_flag_error(capsys, ["gap", "--config", str(cfg)], f"unknown config key '{key}'")


def test_invalid_parameters_rejected(capsys):
    assert_flag_error(capsys, ["split", "--n", "6", "--threshold", "0.4"], "threshold")
    assert_flag_error(capsys, ["split", "--n", "6", "--epsilon", "0.5"], "epsilon")
    assert_flag_error(capsys, ["gap", "--n", ",", "--d", "2"], "at least one n")
    assert_flag_error(capsys, ["frac", "--n", "6", "--seeds", ","], "one seed")
    assert_flag_error(capsys, ["gap", "--n", "6", "--jobs", "0"], "jobs must be >= 1")
    assert_flag_error(capsys, ["solve", "--n", "6", "--ckr-draws", "-2"], "ckr_draws must be >= 0")
    assert_flag_error(capsys, ["solve", "--n", "6", "--local-rounds", "-1"], "local_rounds must be >= 0")
    assert_flag_error(capsys, ["gap", "--n", "6", "--seeds=-1"], "seeds must be >= 0")
    assert_flag_error(capsys, ["generate", "--n", "6", "--girth-floor=-5"], "girth_floor must be >= 0")
    for alpha in ("-1", "0", "nan"):
        assert_flag_error(capsys, ["split", "--n", "6", f"--alpha={alpha}"], "alpha must be > 0")
    assert run(["split", "--n", "6", "--alpha", "inf"]) == 0


@pytest.mark.parametrize(
    "flags",
    [
        ["--solvers", ","],
        ["--solvers", "ckr", "--ckr-draws", "0"],
        ["--solvers", "local_search", "--local-rounds", "0"],
        ["--solvers", "ckr,local_search", "--ckr-draws", "0", "--local-rounds", "0"],
    ],
)
def test_solver_list_that_runs_nothing_rejected_before_sampling(flags, tmp_path, capsys):
    started = time.perf_counter()
    assert_flag_error(capsys, ["gap", "--n", "8", "--out", str(tmp_path)] + flags, "runs nothing")
    assert time.perf_counter() - started < 1.0
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["split", "cert", "frac"])
def test_idle_solver_list_in_a_shared_config_ignored_by_commands_without_solvers(
    command, tmp_path, capsys
):
    conf = tmp_path / "conf.txt"
    conf.write_text("solvers = ckr\nckr_draws = 0\n")
    argv = [command, "--n", "6", "--seed", "0", "--config", str(conf), "--out", str(tmp_path)]
    if command != "frac":
        argv += ["--epsilon", "0.1", "--alpha", "1e9", "--threshold", "0.9"]
    if command == "cert":
        argv += ["--force"]
    assert run(argv) == 0
    assert_flag_error(capsys, ["solve", "--n", "6", "--seed", "0", "--config", str(conf)], "runs nothing")


@pytest.fixture
def saved_generic(tmp_path):
    """A generic instance file: a path with terminals at both ends, no provenance."""
    g = Graph(vertex_count=3, edges=[(0, 1), (1, 2)])
    path = tmp_path / "generic.json"
    save_instance(
        build_generic_instance(g, np.array([1.0, 1.0]), np.array([0, 2]), np.array([[0.0, 1.0], [1.0, 0.0]])),
        path,
    )
    return str(path)


def test_split_of_a_generic_instance_is_a_flag_error(saved_generic, capsys):
    for command in ("split", "cert"):
        assert_flag_error(capsys, [command, "--instance", saved_generic], "needs a gap instance")


def test_ckr_alone_on_a_generic_instance_says_why_nothing_ran(saved_generic, capsys):
    argv = ["solve", "--instance", saved_generic, "--solvers", "ckr"]
    assert_flag_error(capsys, argv, "ckr rounds the canonical fractional solution, which only gap instances have")


def test_solve_reports_the_gap_row_of_the_same_instance(tmp_path):
    assert run(["solve", "--n", "6", "--seed", "0", "--out", str(tmp_path / "s")]) == 0
    assert run(["gap", "--n", "6", "--seed", "0", "--out", str(tmp_path / "g")]) == 0
    solved = json.loads((tmp_path / "s" / "solve.json").read_text())
    row = json.loads((tmp_path / "g" / "gap.provenance.json").read_text())["rows"][0]
    assert solved["costs"] == row["all_costs"] and solved["best"] == row["solver"]


def test_local_rounds_reach_local_search_uncapped(small_gap, monkeypatch):
    seen = []
    real = cli.local_search

    def spy(inst, f, max_rounds):
        seen.append(max_rounds)
        return real(inst, f, max_rounds=max_rounds)

    monkeypatch.setattr(cli, "local_search", spy)
    cli.analyse(cli.ExperimentConfig(local_rounds=10**6), small_gap.instance, 0)
    assert seen == [10**6]


def test_out_dir_env_variable(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ZEROEXT_OUT", str(tmp_path / "envout"))
    rc = run(["gap", "--n", "6", "--seed", "0", "--jobs", "1"])
    assert rc == 0
    assert (tmp_path / "envout" / "gap.csv").exists()


def test_gap_json_format_rows(tmp_path, capsys):
    out = tmp_path / "j"
    rc = run(["gap", "--n", "6", "--seed", "0", "--jobs", "1",
              "--format", "json", "--out", str(out)])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("{")]
    row = json.loads(lines[0])
    assert row["n"] == 6 and row["seed"] == 0


# -- the option table ---------------------------------------------------------------

GENERATE = {"--n", "--d", "--seeds", "--seed", "--girth-floor", "--out", "--config"}
FRAC = GENERATE | {"--instance"}
SPLIT = FRAC | {"--epsilon", "--alpha", "--threshold", "--labeling", "--labeling-fiber"}
SOLVERS = {"--solvers", "--ckr-draws", "--local-rounds"}
COMMAND_FLAGS = {
    "generate": GENERATE,
    "frac": FRAC,
    "solve": FRAC | SOLVERS,
    "split": SPLIT,
    "cert": SPLIT | {"--force"},
    "gap": GENERATE | SOLVERS | {"--jobs", "--format"},
}


def test_each_command_registers_exactly_the_options_it_reads():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == set(COMMAND_FLAGS)
    registrations = 0
    for name, sub in commands.items():
        actions = [a for a in sub._actions if not isinstance(a, argparse._HelpAction)]
        registrations += len(actions)
        assert {s for a in actions for s in a.option_strings} == COMMAND_FLAGS[name], name
        seeds = next(a for a in actions if "--seeds" in a.option_strings)
        assert seeds.option_strings == ["--seeds", "--seed"]  # two spellings, one option
    assert registrations == 59


def test_the_readme_options_table_names_every_command():
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| command ")) + 2  # past the rule
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append(line.split("|")[1].strip().strip("`"))
    assert sorted(rows) == sorted(cli.COMMANDS)


def test_config_file_keys_are_the_valued_config_options():
    assert cli.CONFIG_FILE_KEYS == {
        "n", "d", "seeds", "epsilon", "alpha", "threshold", "solvers", "ckr_draws",
        "local_rounds", "jobs", "out", "format", "girth_floor", "labeling_fiber",
    }


@pytest.fixture
def saved_d3(tmp_path):
    """An n=4, d=3 gap instance file."""
    assert run(["generate", "--n", "4", "--d", "3", "--seed", "0", "--out", str(tmp_path)]) == 0
    return str(tmp_path / "gap_n4_d3_s0.instance.json")


@pytest.mark.parametrize("key,value", [("seed", -1), ("girth_floor", -5)])
def test_negative_provenance_field_of_a_loaded_file_rejected(saved_d3, tmp_path, capsys, key, value):
    doc = json.loads(open(saved_d3).read())
    doc["provenance"][key] = value
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    for command in ("solve", "frac"):
        assert_flag_error(
            capsys, [command, "--instance", str(path)], re.escape(f"{path}: provenance {key} {value} must be >= 0")
        )


def assert_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err, err


USAGE_ERRORS = [
    (["gap", "--instance", "{file}"], "unrecognized arguments: --instance"),
    (["frac", "--jobs", "2"], "unrecognized arguments: --jobs"),
    (["generate", "--epsilon", "0.1"], "unrecognized arguments: --epsilon"),
    (["split", "--solvers", "ckr"], "unrecognized arguments: --solvers"),
    (["solve", "--force"], "unrecognized arguments: --force"),
    (["gap", "--lp-opt", "{file}"], "unrecognized arguments: --lp-opt"),
    (["export-lp", "--n", "4"], "invalid choice: 'export-lp'"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS, ids=[argv[0] + argv[1] for argv, _ in USAGE_ERRORS])
def test_an_option_the_command_does_not_read_is_a_usage_error(argv, message, saved_d3, capsys):
    assert_usage_error(capsys, [a.format(file=saved_d3) for a in argv], message)


@pytest.mark.parametrize("command", ["frac", "solve", "split", "cert"])
@pytest.mark.parametrize(
    "flags, pattern",
    [
        (["--n", "5,6"], r"--n: \S+ builds one instance, got 2 values"),
        (["--seeds", "0..3"], r"--seeds: \S+ builds one instance, got 4 values"),
        (["--seed", "1,2"], r"--seeds: \S+ builds one instance, got 2 values"),
    ],
    ids=["n", "seeds", "seed"],
)
def test_one_instance_commands_reject_many_n_or_seeds(command, flags, pattern, tmp_path, capsys):
    assert_flag_error(capsys, [command, *flags, "--out", str(tmp_path)], pattern)
    assert list(tmp_path.iterdir()) == []


def test_one_instance_commands_reject_many_n_or_seeds_from_the_config_file(tmp_path, capsys):
    for key in ("n = 5,6", "seeds = 0..1"):
        conf = tmp_path / "conf.txt"
        conf.write_text(key + "\n")
        name = key.split()[0]
        assert_flag_error(capsys, ["frac", "--config", str(conf)], f"config key {name}: frac builds one")


@pytest.mark.parametrize("flag", ["--n", "--d", "--seed", "--seeds", "--girth-floor"])
def test_build_flags_with_an_instance_file_are_a_flag_error(flag, saved_d3, capsys):
    named = "--seeds" if flag == "--seed" else flag
    assert_flag_error(capsys, ["frac", "--instance", saved_d3, flag, "3"], f"{named} cannot be combined")


def test_shared_config_keys_a_command_does_not_read_are_ignored(saved_d3, tmp_path, capsys):
    # jobs = 0 and epsilon = 0.5 would fail validation in a command that reads them;
    # the build keys are not read when the instance comes from a file.
    conf = tmp_path / "conf.txt"
    conf.write_text("n = 5,6\nseeds = 0..3\nd = 4\njobs = 0\nepsilon = 0.5\nsolvers = ckr\n")
    out = tmp_path / "o"
    assert run(["frac", "--instance", saved_d3, "--config", str(conf), "--out", str(out)]) == 0
    doc = json.loads((out / "frac.json").read_text())
    assert doc["frac_cost"] == 64.0 and doc["config"]["jobs"] == 2 and doc["config"]["epsilon"] == 0.05
    conf.write_text("n = 5\njobs = 0\nepsilon = 0.5\nlabeling_fiber = 3\n")
    assert run(["generate", "--config", str(conf), "--out", str(out)]) == 0
    prov = json.loads((out / "gap_n5_d4_s0.provenance.json").read_text())
    assert prov["config"]["n_values"] == [5]
    assert (prov["config"]["jobs"], prov["config"]["epsilon"], prov["config"]["labeling_fiber"]) == (2, 0.05, 0)


def test_a_bad_config_value_names_its_key(tmp_path, capsys):
    conf = tmp_path / "conf.txt"
    conf.write_text("# shared\n\nd = three\n")
    assert_flag_error(capsys, ["frac", "--config", str(conf)], r"conf.txt:3: bad value for d: 'three'")


def test_a_config_file_that_is_not_utf8_is_named(tmp_path, capsys):
    conf = tmp_path / "conf.txt"
    conf.write_bytes(b"n = 6\n\xff\n")
    assert_flag_error(capsys, ["frac", "--config", str(conf)], re.escape(f"{conf}: not UTF-8 text"))


OUTPUT_FILES = {
    "frac": "frac.json",
    "solve": "solve.json",
    "split": "split.json",
    "cert": "certificate.json",
}


@pytest.mark.parametrize("source", ["env", "config"])
@pytest.mark.parametrize("command", sorted(OUTPUT_FILES))
def test_optional_output_is_written_wherever_the_directory_is_named(
    command, source, saved_d3, tmp_path, monkeypatch, capsys
):
    out = tmp_path / "named"
    argv = [command, "--instance", saved_d3]
    if command in ("split", "cert"):
        argv += ["--epsilon", "0.1", "--alpha", "1e9", "--threshold", "0.9"]
    if command == "cert":
        argv += ["--force"]
    if source == "env":
        monkeypatch.setenv("ZEROEXT_OUT", str(out))
    else:
        monkeypatch.delenv("ZEROEXT_OUT", raising=False)
        conf = tmp_path / "conf.txt"
        conf.write_text(f"out = {out}\n")
        argv += ["--config", str(conf)]
    assert run(argv) == 0
    doc = json.loads((out / OUTPUT_FILES[command]).read_text())
    assert doc["config"]["out_dir"] == str(out)


def test_optional_output_is_not_written_when_no_directory_is_named(saved_d3, tmp_path, monkeypatch):
    monkeypatch.delenv("ZEROEXT_OUT", raising=False)
    monkeypatch.chdir(tmp_path)
    assert run(["frac", "--instance", saved_d3]) == 0
    assert not (tmp_path / "frac.json").exists()


def test_output_directory_precedence_config_then_flag_then_env(tmp_path, monkeypatch):
    monkeypatch.setenv("ZEROEXT_OUT", str(tmp_path / "env"))
    conf = tmp_path / "conf.txt"
    conf.write_text(f"out = {tmp_path / 'conf'}\n")
    common = ["gap", "--n", "5", "--jobs", "1", "--solvers", "all_to_one"]
    assert run(common + ["--out", str(tmp_path / "flag"), "--config", str(conf)]) == 0
    assert run(common + ["--out", str(tmp_path / "flag2")]) == 0
    assert sorted(p.name for p in tmp_path.iterdir() if p.is_dir()) == ["conf", "flag2"]


def test_cert_diagnostics_use_the_degree_of_a_loaded_instance(saved_d3, tmp_path, capsys):
    # n=4, d=3, epsilon=0.1: (1 - 4 * 0.1) * (3/2 - 1) * 4 = 1.2 (the default d=4 gave 2.4).
    out = tmp_path / "c"
    argv = ["cert", "--instance", saved_d3, "--epsilon", "0.1", "--alpha", "1e9",
            "--threshold", "0.9", "--force", "--out", str(out)]
    assert run(argv) == 0
    diag = json.loads((out / "certificate.json").read_text())["diagnostics"]
    assert diag["betti_floor"] == pytest.approx(1.2)


SPLIT_FLAGS = ["--epsilon", "0.1", "--alpha", "1e9", "--threshold", "0.9"]


@pytest.mark.parametrize("command", sorted(OUTPUT_FILES))
def test_outputs_of_a_loaded_instance_describe_the_file(command, tmp_path):
    # The embedded config of a loaded n=4, d=3, seed-2 file names the file and
    # equals that of the same build from flags.
    build = ["--n", "4", "--d", "3", "--seed", "2", "--girth-floor", "3"]
    assert run(["generate", *build, "--out", str(tmp_path)]) == 0
    path = str(tmp_path / "gap_n4_d3_s2.instance.json")
    extra = {"split": SPLIT_FLAGS, "cert": SPLIT_FLAGS + ["--force"]}.get(command, [])
    docs = {}
    for name, source in (("loaded", ["--instance", path]), ("built", build)):
        assert run([command, *source, *extra, "--out", str(tmp_path / name)]) == 0
        docs[name] = json.loads((tmp_path / name / OUTPUT_FILES[command]).read_text())
    loaded, built = docs["loaded"]["config"], docs["built"]["config"]
    assert loaded.pop("instance") == path and "instance" not in built
    assert (loaded["n_values"], loaded["d"], loaded["seeds"], loaded["girth_floor"]) == ([4], 3, [2], 3)
    assert {**loaded, "out_dir": None} == {**built, "out_dir": None}
    if command == "solve":  # CKR draws from the file's seed, as from a build's
        assert docs["loaded"]["costs"] == docs["built"]["costs"]


def test_outputs_of_a_file_without_build_settings_record_none(saved_generic, tmp_path):
    assert run(["solve", "--instance", saved_generic, "--out", str(tmp_path)]) == 0
    config = json.loads((tmp_path / "solve.json").read_text())["config"]
    assert (config["n_values"], config["d"], config["seeds"], config["girth_floor"]) == ([], None, [], None)
    assert config["instance"] == saved_generic
