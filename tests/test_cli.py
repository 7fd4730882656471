from __future__ import annotations

import csv
import json
import time

import pytest

from zeroext import cli
from zeroext.instance import load_instance


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
    # Thread fan-out must not change results: identical data rows either way
    # (the leading comment embeds the run's own config, so it may differ).
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run(["gap", "--n", "6", "--seeds", "3..4", "--jobs", "2", "--out", str(out1)])
    run(["gap", "--n", "6", "--seeds", "3..4", "--jobs", "1", "--out", str(out2)])
    rows1 = (out1 / "gap.csv").read_text().splitlines()[1:]
    rows2 = (out2 / "gap.csv").read_text().splitlines()[1:]
    assert rows1 == rows2


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


@pytest.mark.parametrize("argv", [["frac", "--n", "65"], ["gap", "--n", "8,65", "--jobs", "1"]])
def test_n_over_dense_ceiling_rejected_before_sampling(argv, tmp_path, capsys):
    started = time.perf_counter()
    rc = run(argv + ["--out", str(tmp_path)])
    elapsed = time.perf_counter() - started
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "k=n^2=4225" in err and "ceiling k <= 4096" in err
    assert elapsed < 1.0, f"rejecting n=65 took {elapsed:.2f}s"
    assert list(tmp_path.iterdir()) == []


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


def test_export_lp(tmp_path):
    out = tmp_path / "lp"
    rc = run(["export-lp", "--n", "4", "--d", "3", "--seed", "0", "--out", str(out)])
    assert rc == 0
    text = (out / "relaxation.lp").read_text()
    assert text.startswith("\\ zeroext")
    assert "Minimize" in text and "Subject To" in text


def test_config_file_overrides_flags(tmp_path, capsys):
    cfg = tmp_path / "conf.txt"
    cfg.write_text("seeds = 7\nn = 6\n")
    out = tmp_path / "o"
    rc = run(["gap", "--n", "8", "--seeds", "0..3", "--jobs", "1",
              "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    rows = list(csv.DictReader((out / "gap.csv").read_text().splitlines()[1:]))
    assert [(r["n"], r["seed"]) for r in rows] == [("6", "7")]


def test_config_file_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "conf.txt"
    cfg.write_text("frobnicate = 3\n")
    with pytest.raises(SystemExit, match="unknown config key"):
        run(["gap", "--config", str(cfg)])


def test_invalid_parameters_rejected():
    with pytest.raises(SystemExit, match="threshold"):
        run(["gap", "--n", "6", "--threshold", "0.4"])
    with pytest.raises(SystemExit, match="epsilon"):
        run(["gap", "--n", "6", "--epsilon", "0.5"])
    with pytest.raises(SystemExit, match="at least one n"):
        run(["gap", "--n", ",", "--d", "2"])
    with pytest.raises(SystemExit, match="one seed"):
        run(["frac", "--n", "6", "--seeds", ","])
    with pytest.raises(SystemExit, match="jobs must be >= 1"):
        run(["gap", "--n", "6", "--jobs", "0"])
    with pytest.raises(SystemExit, match="ckr_draws must be >= 0"):
        run(["solve", "--n", "6", "--ckr-draws", "-2"])
    with pytest.raises(SystemExit, match="local_rounds must be >= 0"):
        run(["solve", "--n", "6", "--local-rounds", "-1"])


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


def test_gap_lp_opt_attaches_verified_ratio(tmp_path):
    lp_file = tmp_path / "lp.json"
    lp_file.write_text(json.dumps({"6,0": 100.0}))
    out = tmp_path / "v"
    rc = run(["gap", "--n", "6", "--seed", "0", "--jobs", "1",
              "--lp-opt", str(lp_file), "--out", str(out)])
    assert rc == 0
    prov = json.loads((out / "gap.provenance.json").read_text())
    row = prov["rows"][0]
    assert row["lp_opt"] == 100.0
    assert abs(row["verified_ratio"] - row["best_integral"] / 100.0) < 1e-12
