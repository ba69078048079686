"""Golden CLI outputs: every listed invocation must reproduce its file byte
for byte.

The files under ``tests/golden/`` were recorded from the library before the
linear-algebra core was consolidated (the two ``*_raise.json`` outputs
before the named recipes became one construction, ``poset_e4_q2.json``
before the witness search reused levels across tries, ``poset_e4_q3.json``
before the 2x2 matrices over K[u]/(u^e) became one type and the orbit
generating set shrank, ``fibers_e4_q2,3.csv`` before the endpoint fibers
were read off the census walk, ``verify_all_e4_q2.json`` before the witness
search labelled its candidates by the walk rules); a refactor that changes
any output byte fails here.  ``chain_e3_q2.json`` (chain 4 of ``enumerate_chains(3,
F_2)``, label ((2,1), {2})) and ``witness_m2_c1_q2.json`` (the output of
``witness --m 2 --c 1 --q 2``) and ``raise_input_e4_q2.json`` (chain 4 of
``enumerate_chains(4, F_2)``, label ((2,2), {3}) with m1 = 0, and the
witness model) are inputs, not outputs.  The
``DIGEST_CASES`` have no golden file: their sha256 must equal the one
recorded in ``perfbench/expected.json``.

To re-record after an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from latmodel.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"
EXPECTED = Path(__file__).parent.parent / "perfbench" / "expected.json"
CHAIN = str(GOLDEN / "chain_e3_q2.json")
WITNESS = str(GOLDEN / "witness_m2_c1_q2.json")
RAISE = str(GOLDEN / "raise_input_e4_q2.json")

CASES = {
    "census_e4_q2,3.csv": ["census", "--e", "4", "--q", "2,3"],
    "census_e4_q2,3.json": ["census", "--e", "4", "--q", "2,3", "--format", "json"],
    "fibers_e4_q2,3.csv": ["fibers", "--e", "4", "--q", "2,3"],
    "poset_e3_q2.json": ["poset", "--e", "3", "--q", "2"],
    "poset_e3_q2.dot": ["poset", "--e", "3", "--q", "2", "--format", "dot"],
    "poset_e4_q2.json": ["poset", "--e", "4", "--q", "2"],
    "poset_e4_q3.json": ["poset", "--e", "4", "--q", "3"],
    "verify_hasse_e3_q2.json": ["verify", "--suite", "hasse", "--e", "3", "--q", "2"],
    "verify_all_e4_q2.json": ["verify", "--suite", "all", "--e", "4", "--q", "2"],
    "orbits_e3_q2.json": ["orbits", "--e", "3", "--q", "2"],
    "deform_hodge-raise_e3.json": [
        "deform", "--chain", CHAIN, "--recipe", "hodge-raise",
    ],
    "deform_search_e3.json": [
        "deform", "--chain", CHAIN, "--recipe", "search",
        "--target", "lambda=(3,0);T={}",
    ],
    "deform_731-1_witness.json": ["deform", "--chain", WITNESS, "--recipe", "731-1"],
    "deform_731-2_raise.json": ["deform", "--chain", RAISE, "--recipe", "731-2"],
    "deform_732-1_witness.json": [
        "deform", "--chain", WITNESS, "--model", WITNESS, "--recipe", "732-1",
    ],
    "deform_732-2_raise.json": [
        "deform", "--chain", RAISE, "--model", RAISE, "--recipe", "732-2",
    ],
    "deform_invert-m1_witness.json": [
        "deform", "--chain", WITNESS, "--model", WITNESS, "--recipe", "invert-m1",
    ],
}

# golden files that the benchmark's recorded digests also pin
BENCHMARK_KEYS = {
    "poset_e3_q2.json": "poset --e 3 --q 2 --format json",
    "poset_e4_q2.json": "poset --e 4 --q 2 --format json",
    "verify_hasse_e3_q2.json": "verify --suite hasse --e 3 --q 2",
}


def _run(argv, dest):
    code = main(argv + ["--jobs", "1", "--out", str(dest)])
    assert code == EXIT_OK, argv
    return dest.read_bytes()


# invocations pinned only by their benchmark digest (no golden file)
DIGEST_CASES = (
    "verify --suite hodge --e 4 --q 2",
    "verify --suite hasse --e 4 --q 2",
    "verify --suite flatness --e 4 --q 2",
)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output_bytes(name, tmp_path):
    assert _run(CASES[name], tmp_path / name) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(BENCHMARK_KEYS))
def test_golden_matches_benchmark_digest(name):
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))["outputs"]
    digest = hashlib.sha256((GOLDEN / name).read_bytes()).hexdigest()
    assert digest == expected[BENCHMARK_KEYS[name]]["sha256"]


@pytest.mark.parametrize("key", DIGEST_CASES)
def test_output_matches_benchmark_digest(key, tmp_path):
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))["outputs"]
    digest = hashlib.sha256(_run(key.split(), tmp_path / "out")).hexdigest()
    assert digest == expected[key]["sha256"]


if __name__ == "__main__":
    for name, argv in sorted(CASES.items()):
        _run(argv, GOLDEN / name)
        print(f"recorded {name}", file=sys.stderr)
