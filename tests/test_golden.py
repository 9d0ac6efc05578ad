"""Byte-for-byte CLI output against stored files.

Each `<mesh>.<family>-r<r>-k<k>.json` under `golden/` is the exact stdout of
`feec decompose --mesh golden/<mesh>.mesh --family <family> -r <r> -k <k>
--format json`.

Under `golden/cli/`:

* `dim.txt` holds every `feec dim` call of `DIM_CASES`, each as one
  `$ feec dim ...` line followed by its exact stdout;
* `basis-<family>-n<n>-r<r>-k<k>.<format>` is the stdout of `feec basis
  --family <family> -n <n> -r <r> -k <k> --format <format>`;
* `verify-n2-r2.json` is the stdout of `feec verify -n 2 -r 2 --format json`
  with every suite but `consistency` selected;
* `verify-whitney-homotopy-n2-r1.plain` is the plain stdout of `feec verify
  --suite whitney --suite homotopy -n 2 -r 1`;
* `verify-consistency-n1-r1.json` is the stdout of `feec verify --suite
  consistency -n 1 -r 1 --format json`, compared in `test_cli.py` by the
  test that already makes that run;
* `verify-consistency.json` is the stdout of `feec verify --suite
  consistency --format json` at the default bounds, and `verify-default.json`
  the stdout of `feec verify --format json` at the default bounds (every
  suite, n = 3, r = 3).
"""

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from feec.cli import FORMATS, main
from feec.verify import SUITES

GOLDEN = Path(__file__).resolve().parent / "golden"
CLI_GOLDEN = GOLDEN / "cli"
CASES = sorted(p.name for p in GOLDEN.glob("*.json"))
BASIS_CASES = sorted(p.name for p in CLI_GOLDEN.glob("basis-*"))
VERIFY_ARGV = ["verify", "-n", "2", "-r", "2", "--format", "json"] + [
    arg for name in SUITES if name != "consistency" for arg in ("--suite", name)
]


def cli_stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def dim_cases() -> list[list[str]]:
    """Both families, with and without --zero-trace, n <= 4, r <= 4, all k, every format."""
    return [
        ["dim", "--family", family, "-n", str(n), "-r", str(r), "-k", str(k), "--format", fmt]
        + zero
        for family in ("full", "minus")
        for zero in ([], ["--zero-trace"])
        for n in range(5)
        for r in range(5)
        for k in range(n + 1)
        for fmt in FORMATS
    ]


def dim_document() -> str:
    return "".join(f"$ feec {' '.join(argv)}\n{cli_stdout(argv)}" for argv in dim_cases())


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


def test_dim_matches_golden():
    assert len(dim_cases()) == 900
    assert dim_document() == (CLI_GOLDEN / "dim.txt").read_text()


def test_basis_golden_cases_present():
    assert BASIS_CASES == [
        "basis-full-n3-r2-k2.latex",
        "basis-minus-n2-r2-k1.json",
        "basis-minus-n3-r2-k1.plain",
    ]


@pytest.mark.parametrize("name", BASIS_CASES)
def test_basis_matches_golden(name):
    spec, fmt = name.split(".")
    _, family, n, r, k = spec.split("-")
    argv = ["basis", "--family", family, "-n", n[1:], "-r", r[1:], "-k", k[1:], "--format", fmt]
    assert cli_stdout(argv) == (CLI_GOLDEN / name).read_text()


def test_verify_json_matches_golden():
    assert cli_stdout(VERIFY_ARGV) == (CLI_GOLDEN / "verify-n2-r2.json").read_text()


def test_verify_plain_matches_golden():
    argv = ["verify", "--suite", "whitney", "--suite", "homotopy", "-n", "2", "-r", "1"]
    assert cli_stdout(argv) == (CLI_GOLDEN / "verify-whitney-homotopy-n2-r1.plain").read_text()


@pytest.mark.parametrize(
    "argv, name",
    [
        (["verify", "--format", "json"], "verify-default.json"),
        (["verify", "--suite", "consistency", "--format", "json"], "verify-consistency.json"),
    ],
)
def test_verify_at_default_bounds_matches_golden(argv, name):
    assert cli_stdout(argv) == (CLI_GOLDEN / name).read_text()
