import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from feec import cli, verify
from feec.assemble import SingleValuedWitness
from feec.cli import basis_payload, main, render_json
from feec.forms import PolyForm
from feec.spaces import Family
from feec.verify import CheckResult

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"
CLI_GOLDEN = GOLDEN / "cli"

TWO_TRIANGLES = """\
simplicial-mesh v1 dim=2 vertices=4 cells=2
0 1 2
1 2 3
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_dim_command(capsys):
    code, out, _ = run_cli(capsys, "dim", "--family", "full", "-n", "3", "-r", "1", "-k", "1")
    assert code == 0
    assert "= 12" in out
    code, out, _ = run_cli(capsys, "dim", "--family", "minus", "-n", "3", "-r", "1", "-k", "2")
    assert code == 0
    assert "= 4" in out
    code, out, _ = run_cli(
        capsys, "dim", "--family", "full", "-n", "2", "-r", "0", "-k", "1", "--zero-trace"
    )
    assert code == 0
    assert "= 0" in out


def test_dim_json_and_latex(capsys):
    code, out, _ = run_cli(
        capsys, "dim", "--family", "full", "-n", "3", "-r", "1", "-k", "1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 12 and payload["formula"] == "C(4,3)*C(3,1)"
    code, out, _ = run_cli(
        capsys, "dim", "--family", "minus", "-n", "3", "-r", "1", "-k", "1", "--format", "latex"
    )
    assert code == 0
    assert "\\Lambda" in out


def test_bad_arguments_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["dim", "--family", "bogus", "-n", "2", "-r", "1", "-k", "1"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["dim", "--family", "full", "-n", "2", "-r", "1", "-k", "5"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["basis", "--family", "full", "-n", "9", "-r", "1", "-k", "1"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["basis", "--family", "full", "-n", "2", "-r", "0", "-k", "1"])
    assert err.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(["dim", "--family", "minus", "-n", "2", "-r", "-3", "-k", "1"])
    assert err.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.splitlines()[-1] == "feec: error: need r >= 0, got r=-3"
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "dims", "-r", "13"])
    assert err.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.splitlines()[-1] == (
        "feec: error: verification sweeps support r <= 12, got r=13"
    )
    # a dimension with more digits than Python converts to a string; at n = r =
    # 300000 a bound on its digits refuses it before math.comb spends seconds
    for n, fmt in product(("10000", "300000"), ("plain", "json", "latex")):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "dim", "--family", "full", "-n", n, "-r", n, "-k", "0", "--format", fmt)
        assert time.perf_counter() - start < 2
        assert code == 2 and out == ""
        assert err == "invalid request: the dimension has too many digits to print\n"


def test_python_m_feec_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
    argv = [sys.executable, "-m", "feec", "dim", "--family", "minus", "-n", "2", "-k", "1"]
    bad = subprocess.run(argv + ["-r", "-1"], env=env, capture_output=True, text=True)
    assert bad.returncode == 2 and bad.stdout == ""
    assert "need r >= 0" in bad.stderr
    good = subprocess.run(argv + ["-r", "1"], env=env, capture_output=True, text=True)
    assert good.returncode == 0 and good.stdout.startswith("dim P1-Lambda1 on a 2-simplex = 3")


WRITE_FAILURE_ARGV = {
    "dim": ["dim", "--family", "full", "-n", "3", "-r", "1", "-k", "1"],
    "verify-json": ["verify", "--suite", "dims", "-n", "1", "-r", "1", "--format", "json"],
    "decompose-json": [
        "decompose", "--mesh", str(GOLDEN / "two-triangles.mesh"), "--family", "minus", "-r", "1", "-k", "1",
        "--format", "json",
    ],
}


def run_into(stdout, argv: list[str], **kwargs) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
    return subprocess.run(
        [sys.executable, "-m", "feec", *argv], stdout=stdout, stderr=subprocess.PIPE, env=env, text=True, **kwargs
    )


@pytest.mark.parametrize("argv", WRITE_FAILURE_ARGV.values(), ids=WRITE_FAILURE_ARGV)
def test_output_to_a_closed_pipe_exits_2(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = run_into(write_end, argv)
    finally:
        os.close(write_end)
    assert run.returncode == 2 and "Traceback" not in run.stderr
    assert run.stderr.startswith("cannot write output: ") and run.stderr.count("\n") == 1


def test_a_closed_stdout_descriptor_is_not_a_crash():
    # with descriptor 1 closed at start-up Python's sys.stdout is None, and print would write nothing
    run = run_into(None, WRITE_FAILURE_ARGV["dim"], preexec_fn=lambda: os.close(1))
    assert run.returncode == 2 and run.stderr == "cannot write output: standard output is closed\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("argv", WRITE_FAILURE_ARGV.values(), ids=WRITE_FAILURE_ARGV)
def test_output_to_a_full_device_exits_2(argv):
    with open("/dev/full", "w") as full:
        run = run_into(full, argv)
    assert run.returncode == 2 and "Traceback" not in run.stderr
    assert run.stderr.startswith("cannot write output: ") and run.stderr.count("\n") == 1


def test_basis_command_plain(capsys):
    code, out, _ = run_cli(capsys, "basis", "--family", "minus", "-n", "2", "-r", "1", "-k", "1")
    assert code == 0
    assert "phi_01" in out and "phi_12" in out
    assert "(3 elements)" in out


def test_basis_counts_match_table_rows(capsys):
    code, out, _ = run_cli(
        capsys, "basis", "--family", "full", "-n", "3", "-r", "2", "-k", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    groups = {tuple(g["face"]): len(g["generators"]) for g in payload["groups"]}
    # the r=2 table row lists 6 entries per 2-face and 6 interior entries
    assert sum(c for f, c in groups.items() if len(f) == 3) == 4 * 6
    assert groups[(0, 1, 2, 3)] == 6
    assert payload["total"] == 30


def test_basis_json_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys, "basis", "--family", "minus", "-n", "2", "-r", "2", "-k", "1", "--format", "json"
    )
    assert code == 0
    parsed = json.loads(out)
    assert render_json(parsed) == out.strip()
    assert parsed == basis_payload(Family.MINUS, 2, 2, 1)


# quotes, backslashes, control characters, non-ASCII and astral characters,
# lone surrogates and plain ASCII
JSON_CHARS = '"\\/\x00\x01\x08\t\n\x0c\r\x1f\x7f é中\u2028\U0001f600\ud800\udfffaZ09_'
JSON_SCALARS = (True, False, 0, 1, -1, None, -(2**64) - 1, 2**64, 2**64 + 1, 10**40, -7)


def random_document(rng: random.Random, depth: int):
    def text() -> str:
        return "".join(rng.choice(JSON_CHARS) for _ in range(rng.randrange(6)))

    roll = rng.random()
    if depth == 0 or roll < 0.35:
        return rng.choice(JSON_SCALARS + (rng.randint(-(10**6), 10**6), text()))
    size = rng.randrange(5)  # empty containers included
    if roll < 0.55:  # all-int lists, repeated so the writer's memo is hit
        return rng.choice(([1, 0, 2], [2**70, -3], [0], [1, 2, 3, 4]))
    if roll < 0.8:
        return [random_document(rng, depth - 1) for _ in range(size)]
    return {text(): random_document(rng, depth - 1) for _ in range(size)}


def test_render_json_matches_json_dumps_on_random_documents():
    rng = random.Random(20250)
    for _ in range(600):
        doc = {"doc": random_document(rng, 5), "twin": [[True, 1], [False, 0], [1, True]]}
        assert render_json(doc) == json.dumps(doc, indent=2, sort_keys=True)
    assert render_json({}) == "{}" and render_json({"a": [[], {}, [[]]]}) == json.dumps(
        {"a": [[], {}, [[]]]}, indent=2, sort_keys=True
    )


@pytest.mark.parametrize(
    "doc", [{"x": 0.5}, {"x": [1, Fraction(1, 2)]}, {"x": (1, 2)}, {1: "one"}, {"a": {2: 0, "b": 1}}],
    ids=["float", "fraction", "tuple", "int-key", "mixed-keys"],
)
def test_render_json_refuses_what_is_not_a_payload(doc):
    with pytest.raises(TypeError):
        render_json(doc)


def test_decompose_command(tmp_path, capsys):
    mesh = tmp_path / "two.mesh"
    mesh.write_text(TWO_TRIANGLES)
    code, out, _ = run_cli(
        capsys, "decompose", "--mesh", str(mesh), "--family", "minus", "-r", "1", "-k", "1"
    )
    assert code == 0
    assert "5 basis elements" in out
    code, out, _ = run_cli(
        capsys,
        "decompose", "--mesh", str(mesh), "--family", "full", "-r", "2", "-k", "1",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] == {"single_valued": True, "direct_sum": True}
    assert payload["total"] == payload["expected"]
    by_dim = payload["counts_by_dim"]
    assert sum(by_dim.values()) == payload["total"]


def test_decompose_labels_generators_with_large_vertex_ids(tmp_path, capsys):
    # generator labels come from the face's vertex ids, not from a list as
    # long as the largest id
    big = 10**20
    mesh = tmp_path / "big.mesh"
    mesh.write_text(
        f"simplicial-mesh v1 dim=2 vertices={big + 2} cells=2\n0 1 {big}\n1 {big} {big + 1}\n"
    )
    code, out, err = run_cli(
        capsys, "decompose", "--mesh", str(mesh), "--family", "full", "-r", "2", "-k", "1",
        "--format", "json",
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["verified"] == {"single_valued": True, "direct_sum": True}
    edge = next(g for g in payload["groups"] if g["face"] == [1, big])
    assert [gen["generator"] for gen in edge["generators"]] == [
        f"l{big}^2 dl1", f"l1^2 dl{big}", f"l1*l{big} dl{big}",
    ]


def test_decompose_error_paths(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "decompose", "--mesh", str(tmp_path / "none.mesh"), "--family", "minus",
        "-r", "1", "-k", "1",
    )
    assert code == 2 and "cannot read" in err
    bad = tmp_path / "bad.mesh"
    bad.write_text("simplicial-mesh v1 dim=2 vertices=3 cells=1\n0 1\n")
    code, _, err = run_cli(
        capsys, "decompose", "--mesh", str(bad), "--family", "minus", "-r", "1", "-k", "1"
    )
    assert code == 2 and "line 2" in err
    # decompose lists generators in plain text or JSON only
    bad.write_text(TWO_TRIANGLES)
    with pytest.raises(SystemExit) as exit_:
        main(["decompose", "--mesh", str(bad), "--family", "minus", "-r", "1", "-k", "1", "--format", "latex"])
    assert exit_.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.splitlines()[-1].startswith("feec decompose: error: argument --format: invalid choice")


def test_verify_selected_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "whitney", "-n", "2", "-r", "2")
    assert code == 0
    assert "PASS whitney" in out
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "bernstein", "--format", "json", "-n", "2", "-r", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == 0
    assert all(r["passed"] for r in payload["results"])


def test_verify_runs_a_repeated_suite_once(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "whitney", "--suite", "whitney", "-n", "2")
    assert code == 0
    assert out.count("PASS whitney          n=2\n") == 1
    assert out.endswith("2/2 checks passed\n")


@pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5", "", "13", "1000000"])
def test_verify_rejects_bad_max_degree(capsys, value):
    with pytest.raises(SystemExit) as exit_:
        main(["verify", "--suite", "dims", "-n", "1", "-r", value])
    assert exit_.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.splitlines()[-1].startswith(("feec: error: ", "feec verify: error: "))


def test_verify_ignores_the_environment(monkeypatch, capsys):
    argv = ("verify", "--suite", "dims", "-n", "1", "-r", "1")
    clean = run_cli(capsys, *argv)
    monkeypatch.setenv("FEEC_MAX_DEGREE", "abc")
    assert run_cli(capsys, *argv) == clean
    assert clean[0] == 0 and "n=1 r=6" in clean[1] and "n=1 r=7" not in clean[1]


def test_verify_accepts_max_degree_cap(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "dims", "-n", "1", "-r", "12")
    assert code == 0
    assert "n=1 r=12" in out and "n=1 r=13" not in out


def test_verify_consistency_honors_r(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "consistency", "-n", "1", "-r", "1", "--format", "json"
    )
    assert code == 0
    labels = [res["case"] for res in json.loads(out)["results"]]
    assert "dual-full r=1 k=0" in labels and "naive control fails" in labels
    assert not any("r=2" in label for label in labels)
    assert out == (CLI_GOLDEN / "verify-consistency-n1-r1.json").read_text()


def test_verify_output_is_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--suite", "dims", "-n", "2", "-r", "2")
    code2, out2, _ = run_cli(capsys, "verify", "--suite", "dims", "-n", "2", "-r", "2")
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("detail", ["traces differ on [0,1]", ""], ids=["detail", "no-detail"])
def test_verify_failure_exits_1_with_the_first_failure_on_stderr(monkeypatch, capsys, detail):
    def failing_suite(**bounds):
        yield CheckResult("whitney", "n=1 passes", True)
        yield CheckResult("whitney", "n=2 fails", False, detail)
        yield CheckResult("whitney", "n=3 fails too", False, "second")

    monkeypatch.setitem(verify.SUITES, "whitney", failing_suite)
    argv = ("verify", "--suite", "whitney", "-n", "2", "-r", "1")
    tail = f"  ({detail})" if detail else ""
    assert run_cli(capsys, *argv) == (
        1,
        "PASS whitney          n=1 passes\n"
        f"FAIL whitney          n=2 fails{tail}\n"
        "FAIL whitney          n=3 fails too  (second)\n"
        "1/3 checks passed\n",
        f"first failure: whitney n=2 fails: {detail}\n",
    )
    results = [
        ("n=1 passes", "true", ""), ("n=2 fails", "false", detail), ("n=3 fails too", "false", "second")
    ]
    doc = ",\n".join(
        f'    {{\n      "case": "{case}",\n      "detail": "{text}",\n'
        f'      "passed": {passed},\n      "suite": "whitney"\n    }}'
        for case, passed, text in results
    )
    assert run_cli(capsys, *argv, "--format", "json") == (
        1,
        f'{{\n  "command": "verify",\n  "failed": 2,\n  "results": [\n{doc}\n  ]\n}}\n',
        f"first failure: whitney n=2 fails: {detail}\n",
    )


DECOMPOSE_PLAIN = """\
5 basis elements on 2 cells (expected 5)
  dimension 1: 5
face (0, 1): phi_01
face (0, 2): phi_02
face (1, 2): phi_12
face (1, 3): phi_13
face (2, 3): phi_23
single-valued: {}; direct sum: {}
"""


def test_decompose_failures_exit_1_with_the_failing_check_on_stderr(monkeypatch, capsys):
    mesh = GOLDEN / "two-triangles.mesh"
    passing = (GOLDEN / "two-triangles.minus-r1-k1.json").read_text()
    argv = ("decompose", "--mesh", str(mesh), "--family", "minus", "-r", "1", "-k", "1")
    real_single_valued, real_direct_sum = cli.verify_single_valued, cli.verify_direct_sum

    def multivalued(t, elements, k):
        assert real_single_valued(t, elements, k) is None
        edge = next(f for f in t.faces(1) if f.vertices == (1, 2))
        return SingleValuedWitness(elements[2], edge, (elements[2].restrictions[0], PolyForm.zero(1, 1)))

    def short_direct_sum(t, elements, family, r, k):
        report = real_direct_sum(t, elements, family, r, k)
        return report._replace(constrained_dimension=report.constrained_dimension + 1)

    monkeypatch.setattr(cli, "verify_single_valued", multivalued)
    assert run_cli(capsys, *argv) == (
        1, DECOMPOSE_PLAIN.format("NO", "yes"), "multivalued trace on face (1, 2)\n"
    )
    assert run_cli(capsys, *argv, "--format", "json") == (
        1, passing.replace('"single_valued": true', '"single_valued": false'), "multivalued trace on face (1, 2)\n"
    )
    monkeypatch.setattr(cli, "verify_single_valued", real_single_valued)
    monkeypatch.setattr(cli, "verify_direct_sum", short_direct_sum)
    failed = "direct sum failed: 5 elements, expected 5, constrained dimension 6\n"
    assert run_cli(capsys, *argv) == (1, DECOMPOSE_PLAIN.format("yes", "NO"), failed)
    assert run_cli(capsys, *argv, "--format", "json") == (
        1, passing.replace('"direct_sum": true', '"direct_sum": false'), failed
    )
