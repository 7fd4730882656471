"""Golden digests of the command-line output.

Each test runs commands through `cli.main` and pins the sha256 of the
bytes it writes, less the parts that name the run rather than the result:
the embedded config (it holds the output directory) and, in an instance
file, the package version and the two second eigenvalues `lambda2_base` and
`lambda2_fiber`, which come from a LAPACK singular value solve whose last
bits may depend on the LAPACK build.

A change that alters output on purpose updates the digest here and records
the old value, the new value and the reason in CHANGES.md.  On a mismatch
the assertion message prints the new digest.
"""
from __future__ import annotations

import hashlib
import json

from zeroext import cli

GOLDEN = {
    "gap": "cd5a9df6d7a37dc7636d6eb6aaa32908bef3ee5de0c9f02da337e9f777328340",
    "generate": "bf2947bb11c9ca6d6cb8d38d561cf2bd169b98bf62b3bcdbb7a64694e133cff4",
    "cert": "b135ef067b6c4a99e25783cf3744596bf613d689cfb26b66f7e40083fd9a5903",
    "solve.labeling": "b7dbf5039c3dbacb636c4f0088e57d4f98f8cfc40a93a1f5b8b6a9ca3542d07e",
    "solve.json": "3664c333cd0ab6618791c4e6aa87e7093c210e4a601b8e9c6329ccc309769ef5",
    "frac": "1f914c323c80b5aecd1126ae15f0369387e831b85ef51bf06b3aa8db81158d18",
    "split": "13ec0f9938e0265dc021a6e4a8404d1d721e55e42568dc5b17149d6fbfadfbcb",
    "split.kept": "a6d6b998575aa1619f03965990825e4f76faf34236ad73e9fc40cfefe93a85ec",
    "cert.kept": "9b0a7a9cb957c9fe2ffa6935a159a8fedc713e10a56dcc7f7dece1b1828e578f",
    "split.alpha": "b81a45730f5b6b9df4b8b878ce1b89e8be21b3bdfb4e32492c6b5512e3e2cd53",
}

# At n = 8, seed 0 the default flags keep no base edge, so `split` and `cert`
# above check an empty candidate.  These flags keep all 16 base edges
# (cert b1 = 9); with alpha = 2 instead of 1e9, 3 of the 16 stay.
KEPT = ["--epsilon", "0.1", "--alpha", "1e9", "--threshold", "0.9"]
FINITE_ALPHA = ["--epsilon", "0.1", "--alpha", "2", "--threshold", "0.9"]


def assert_digest(name: str, data: bytes):
    got = hashlib.sha256(data).hexdigest()
    assert got == GOLDEN[name], f"{name} output changed: new digest {got}, pinned {GOLDEN[name]}"


def assert_json_digest(name: str, doc: dict, sort_keys: bool = False):
    assert_digest(name, json.dumps(doc, indent=2, sort_keys=sort_keys).encode())


def without_config(path) -> dict:
    doc = json.loads(path.read_text())
    del doc["config"]
    return doc


def test_gap_rows(tmp_path):
    assert cli.main(["gap", "--n", "8,16", "--seeds", "0..2", "--jobs", "2", "--out", str(tmp_path)]) == 0
    head, _, rows = (tmp_path / "gap.csv").read_bytes().partition(b"\n")
    assert head.startswith(b"# config:")
    assert_digest("gap", rows)


def test_generate_instance_file(tmp_path):
    assert cli.main(["generate", "--n", "8", "--seed", "0", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "gap_n8_d4_s0.instance.json").read_text())
    prov = doc["provenance"]
    for key in ("version", "lambda2_base", "lambda2_fiber"):
        del prov[key]
    assert_json_digest("generate", doc, sort_keys=True)


def test_cert_document(tmp_path):
    assert cli.main(["cert", "--n", "8", "--seed", "0", "--force", "--out", str(tmp_path)]) == 0
    assert_json_digest("cert", without_config(tmp_path / "certificate.json"))


def test_solve_labeling_and_document(tmp_path):
    assert cli.main(["solve", "--n", "8", "--seed", "0", "--out", str(tmp_path)]) == 0
    assert_digest("solve.labeling", (tmp_path / "best.labeling").read_bytes())
    assert_json_digest("solve.json", without_config(tmp_path / "solve.json"))


def test_frac_document(tmp_path):
    assert cli.main(["frac", "--n", "8", "--seed", "0", "--out", str(tmp_path)]) == 0
    assert_json_digest("frac", without_config(tmp_path / "frac.json"))


def test_split_document(tmp_path):
    assert cli.main(["split", "--n", "8", "--seed", "0", "--out", str(tmp_path)]) == 0
    assert_json_digest("split", without_config(tmp_path / "split.json"))


def test_split_and_cert_of_a_loaded_instance_match_the_built_one(tmp_path):
    # The file holds only the origin; loading rebuilds flatten and the instance graph from it.
    assert cli.main(["generate", "--n", "8", "--seed", "0", "--out", str(tmp_path)]) == 0
    path = str(tmp_path / "gap_n8_d4_s0.instance.json")
    out = tmp_path / "loaded"
    assert cli.main(["split", "--instance", path, "--out", str(out)]) == 0
    assert cli.main(["cert", "--instance", path, "--force", "--out", str(out)]) == 0
    assert_json_digest("split", without_config(out / "split.json"))
    assert_json_digest("cert", without_config(out / "certificate.json"))


def check_kept_edge_documents(source: list[str], out):
    """Pin split and cert --force at KEPT and split at FINITE_ALPHA, on the
    instance that `source` (build or --instance flags) names."""
    assert cli.main(["split", *source, *KEPT, "--out", str(out / "kept")]) == 0
    assert cli.main(["cert", *source, *KEPT, "--force", "--out", str(out / "kept")]) == 0
    assert cli.main(["split", *source, *FINITE_ALPHA, "--out", str(out / "alpha")]) == 0
    split = without_config(out / "kept" / "split.json")
    cert = without_config(out / "kept" / "certificate.json")
    alpha = without_config(out / "alpha" / "split.json")
    assert split["is_split"] and split["candidate"]["edges"] == 16
    assert cert["round_trip_exact"] and cert["diagnostics"]["b1"] == 9
    assert not alpha["is_split"] and alpha["candidate"]["edges"] == 3
    assert_json_digest("split.kept", split)
    assert_json_digest("cert.kept", cert)
    assert_json_digest("split.alpha", alpha)


def test_split_and_cert_documents_with_kept_edges(tmp_path):
    check_kept_edge_documents(["--n", "8", "--seed", "0"], tmp_path)


def test_split_and_cert_with_kept_edges_of_a_loaded_instance_match_the_built_ones(tmp_path):
    assert cli.main(["generate", "--n", "8", "--seed", "0", "--out", str(tmp_path)]) == 0
    check_kept_edge_documents(["--instance", str(tmp_path / "gap_n8_d4_s0.instance.json")], tmp_path)
