"""The direct parse of `feec` argv agrees with argparse, and well-formed argv never builds argparse.

`cli._direct_parse` reads the exact spellings of the option table and
returns None for anything else, which `main` then hands to argparse.  Each
argv below is either declined or parsed to exactly the namespace
`build_parser().parse_args` gives; the command lines the project documents
and runs are never declined.
"""

import contextlib
import io
import random
import re
import shlex
from pathlib import Path

import pytest

from feec import cli

ROOT = Path(__file__).resolve().parents[1]
MESH = str(ROOT / "tests" / "golden" / "two-triangles.mesh")

# argv that tests/test_cli.py and tests/test_golden.py pass to main and argparse accepts,
# plus the benchmark's two CLI requests
TESTED = [
    "dim --family full -n 3 -r 1 -k 1",
    "dim --family minus -n 3 -r 1 -k 2",
    "dim --family full -n 2 -r 0 -k 1 --zero-trace",
    "dim --family full -n 3 -r 1 -k 1 --format json",
    "dim --family minus -n 3 -r 1 -k 1 --format latex",
    "dim --family full -n 2 -r 1 -k 5",
    "dim --family full -n 10000 -r 10000 -k 0 --format latex",
    "dim --family minus -n 2 -k 1 -r 1",
    "basis --family full -n 9 -r 1 -k 1",
    "basis --family full -n 2 -r 0 -k 1",
    "basis --family minus -n 2 -r 1 -k 1",
    "basis --family full -n 3 -r 2 -k 2 --format json",
    "basis --family minus -n 2 -r 2 -k 1 --format json",
    "decompose --mesh two.mesh --family minus -r 1 -k 1",
    "decompose --mesh two.mesh --family full -r 2 -k 1 --format json",
    "decompose --mesh none.mesh --family minus -r 1 -k 1",
    "verify --suite dims -r 13",
    "verify --suite whitney -n 2 -r 2",
    "verify --suite bernstein --format json -n 2 -r 2",
    "verify --suite dims -n 1 -r 0",
    "verify --suite dims -n 1 -r 1000000",
    "verify --suite dims -n 1 -r 12",
    "verify --suite consistency -n 1 -r 1 --format json",
    "verify --suite whitney -n 2 -r 1 --format json",
    "verify --suite whitney --suite homotopy -n 2 -r 1",
    "verify --format json -n 2 -r 2",
    "verify -n 2 -r 2 --format json --suite dims --suite ranks --suite identities --suite homotopy "
    "--suite whitney --suite decomposition --suite dof --suite characterization --suite bernstein",
    f"decompose --mesh {MESH} --family full -r 2 -k 1 --format json",
]


def _readme_argv() -> list[str]:
    text = (ROOT / "README.md").read_text()
    return re.findall(r"^feec ((?:dim|basis|decompose|verify) [^#\n]*?)\s*(?:#.*)?$", text, re.M)


def _ci_argv() -> list[str]:
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    suites = re.search(r'suites="([^"]*)"', text).group(1)
    text = text.replace("$(printf -- '--suite %s ' $suites)", " ".join(f"--suite {s}" for s in suites.split()))
    found = []
    for line in re.findall(r"PYTHONPATH=src (?:timeout \d+ )?python -m feec (.*)", text):
        tokens = shlex.split(line)
        cut = next((i for i, t in enumerate(tokens) if t in ("|", "||") or t.startswith((">", "2>"))), len(tokens))
        found.append(" ".join(shlex.quote(t) for t in tokens[:cut]))
    return found


def argparse_result(argv: list[str]) -> dict | None:
    """vars() of argparse's namespace for argv, None when argparse exits (help or an error)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


def documented_argv() -> list[list[str]]:
    lines = TESTED + _readme_argv() + _ci_argv()
    return [argv for argv in map(shlex.split, lines) if argparse_result(argv) is not None]


def test_the_corpus_reads_the_readme_and_ci_lines():
    assert len(_readme_argv()) == 7
    ci = _ci_argv()
    assert "verify --format json" in ci and any(line.count("--suite") == 10 for line in ci)
    assert len(documented_argv()) >= len(TESTED) + 12


def _options(argv: list[str]) -> list[list[str]]:
    """The option groups of a documented argv: each flag with its value, if it takes one."""
    groups, i = [], 1
    while i < len(argv):
        takes_value = argv[i] != "--zero-trace"
        groups.append(argv[i:i + 1 + takes_value])
        i += 1 + takes_value
    return groups


def variants(argv: list[str], rng: random.Random) -> list[list[str]]:
    """argv respelled, broken or extended in the ways argparse accepts or reports and the direct parse need not."""
    command, groups = argv[0], _options(argv)
    out = []
    for i, group in enumerate(groups):
        rest = [t for g in groups[:i] + groups[i + 1:] for t in g]
        flag = group[0]
        if len(group) == 2:
            value = group[1]
            out.append([command, *rest, f"{flag}={value}"])
            out.append([command, *rest, flag])  # missing value at the end
            out.append([command, flag, *rest])  # the next flag read as its value
            out.append([command, *rest, flag, value, flag, value])  # repeated
            out.append([command, *rest, flag, "-3"])
            out.append([command, *rest, flag, "-" + value])
            out.append([command, *rest, flag, "abc"])
            out.append([command, *rest, flag, "2.5"])
            out.append([command, *rest, flag, ""])
            if flag.startswith("--"):
                out.append([command, *rest, flag[:4], value])  # abbreviation
            else:
                out.append([command, *rest, flag + value])  # -n3
        else:
            out.append([command, *rest, "--zero", "--zero-trace"])
        out.append([command, *rest])  # option dropped
    for bad in (["--family", "bogus"], ["--format", "xml"], ["--format", "latex"], ["--suite", "nope"],
                ["--zero-trace"], ["-h"], ["--help"], ["extra"], ["-x", "1"], ["--", "1"]):
        at = rng.randrange(1, len(argv) + 1)
        out.append(argv[:at] + bad + argv[at:])
    out.append(argv[:-1])
    out.append(argv + ["extra"])
    return out


def test_documented_argv_parse_directly_in_any_option_order():
    rng = random.Random(11)
    for argv in documented_argv():
        orders = [_options(argv)] + [rng.sample(_options(argv), len(_options(argv))) for _ in range(4)]
        for groups in orders:
            shuffled = [argv[0], *(t for g in groups for t in g)]
            direct = cli._direct_parse(shuffled)
            assert direct is not None, shuffled
            assert vars(direct) == argparse_result(shuffled), shuffled


def test_direct_parse_declines_or_matches_argparse_on_variants():
    rng = random.Random(12)
    cases = [[], [""], ["-h"], ["--help"], ["dimm"], ["--family", "full"], ["dim"], ["verify"], ["dim", "-h"]]
    for argv in documented_argv():
        cases.extend(variants(argv, rng))
    declined = 0
    for argv in cases:
        direct, want = cli._direct_parse(argv), argparse_result(argv)
        if direct is None:
            declined += 1
        else:
            assert want is not None and vars(direct) == want, argv
    assert declined > len(cases) // 2  # the variants are mostly spellings only argparse reads


@pytest.mark.parametrize(
    "argv",
    [
        ["dim", "--family", "full", "-n", "3", "-r", "1", "-k", "1", "--zero-trace"],
        ["basis", "--family", "minus", "-n", "2", "-r", "1", "-k", "1", "--format", "json"],
        ["decompose", "--mesh", MESH, "--family", "minus", "-r", "1", "-k", "1"],
        ["verify", "--suite", "dims", "--suite", "ranks", "-n", "1", "-r", "1"],
    ],
    ids=["dim", "basis", "decompose", "verify"],
)
def test_well_formed_argv_leave_argparse_unbuilt(argv, capsys):
    cli.build_parser.cache_clear()
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""
    assert cli.build_parser.cache_info().currsize == 0


def test_usage_errors_after_a_direct_parse_build_the_parser(capsys):
    cli.build_parser.cache_clear()
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "--suite", "dims", "-n", "5", "-r", "1"])
    assert err.value.code == 2 and cli.build_parser.cache_info().currsize == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.splitlines() == [
        "usage: feec [-h] {dim,basis,decompose,verify} ...",
        "feec: error: verification sweeps support 1 <= n <= 4 and r >= 1",
    ]
