"""Byte-for-byte `feec decompose --format json` output against stored files.

Each `<mesh>.<family>-r<r>-k<k>.json` under `golden/` is the exact stdout of
`feec decompose --mesh golden/<mesh>.mesh --family <family> -r <r> -k <k>
--format json`.
"""

from pathlib import Path

import pytest

from feec.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = sorted(p.name for p in GOLDEN.glob("*.json"))


def test_golden_cases_present():
    assert len(CASES) == 5


@pytest.mark.parametrize("name", CASES)
def test_decompose_json_matches_golden(name, capsys):
    mesh, spec, _ = name.split(".")
    family, r, k = spec.split("-")
    code = main([
        "decompose", "--mesh", str(GOLDEN / f"{mesh}.mesh"), "--family", family,
        "-r", r[1:], "-k", k[1:], "--format", "json",
    ])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()
