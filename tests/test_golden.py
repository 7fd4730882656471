"""Golden digests of the command-line output.

Each test runs commands through `cli.main` and pins the sha256 of the
bytes it writes, less the parts that name the run rather than the result:
the embedded config (it holds the output directory) and, in an instance
file, the package version and the two expansion estimates, which are numpy
reductions whose last bits may depend on the numpy build.

A change that alters output on purpose updates the digest here and records
the old value, the new value and the reason in CHANGES.md.  On a mismatch
the assertion message prints the new digest.
"""
from __future__ import annotations

import hashlib
import json

from zeroext import cli

GOLDEN = {
    "gap": "588156e676f04fc0e9d677414e9269c49c5fa13d4fd36508ffad8dc36441e109",
    "generate": "c0d059b28888d96996659420c61a230ba42112a78401ad4f60671a7deea5ebf2",
    "cert": "28accde313b8115f73adf906bd997c39ffca8384a27633b3301cd8becde6982a",
    "solve.labeling": "41c7b8be2e64702a44bce972d951272891c75c13c7434722bcab9f22b1e59aa9",
    "solve.json": "5c8b32663a57287f0e5409d342b1ead1cb6db59562bb674527c1062bbf795009",
    "frac": "1f914c323c80b5aecd1126ae15f0369387e831b85ef51bf06b3aa8db81158d18",
    "split": "13ec0f9938e0265dc021a6e4a8404d1d721e55e42568dc5b17149d6fbfadfbcb",
}


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
    # The load path rebuilds flatten and the instance graph from the file.
    assert cli.main(["generate", "--n", "8", "--seed", "0", "--out", str(tmp_path)]) == 0
    path = str(tmp_path / "gap_n8_d4_s0.instance.json")
    out = tmp_path / "loaded"
    assert cli.main(["split", "--instance", path, "--out", str(out)]) == 0
    assert cli.main(["cert", "--instance", path, "--force", "--out", str(out)]) == 0
    assert_json_digest("split", without_config(out / "split.json"))
    assert_json_digest("cert", without_config(out / "certificate.json"))
