"""Seeded fuzzing of the mesh parser through `feec decompose`.

Each golden mesh is mutated by dropping, duplicating or swapping tokens,
editing header fields, inserting non-digit and non-ASCII bytes and
truncating.  Every mutant must either decompose (exit 0) or be refused with
exit 2 and exactly one stderr line: never a traceback, never exit 1, which
means a verification failed.
"""

import random
from pathlib import Path

import pytest

from feec.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
MESHES = sorted(p.name for p in GOLDEN.glob("*.mesh"))
MUTANTS_PER_MESH = 60

HEADER_VALUES = ["0", "1", "2", "3", "4", "7", "-1", "+2", "2.0", "x", "", "99999999999", "٣"]
JUNK = [b"x", b"-", b"+", b".", b"=", b"#", b"\t", b"\r", b"\x00", b"\x0b", b"0x1",
        b"\xc3\xa9", b"\xd9\xa3", b"\xe2\x80\xa8", b"\xc2\x85", b"\xff", b"\xfe\xfe"]


def _tokens(data: bytes) -> list[bytes]:
    """Whitespace-separated tokens, keeping the separators as tokens."""
    out: list[bytes] = []
    for line in data.split(b"\n"):
        out.extend(tok for part in line.split(b" ") for tok in (part, b" ") if tok)
        out.append(b"\n")
    return out


def _words(toks: list[bytes]) -> list[int]:
    return [i for i, t in enumerate(toks) if t not in (b" ", b"\n")]


def mutate(data: bytes, rng: random.Random) -> bytes:
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(["drop", "duplicate", "swap", "header", "junk", "truncate"])
        toks = _tokens(data)
        words = _words(toks)
        if op == "drop" and words:
            del toks[rng.choice(words)]
        elif op == "duplicate" and words:
            i = rng.choice(words)
            toks[i:i] = [toks[i], b" "]
        elif op == "swap" and len(words) > 1:
            i, j = rng.sample(words, 2)
            toks[i], toks[j] = toks[j], toks[i]
        elif op == "header":
            fields = [i for i in words if b"=" in toks[i]]
            if fields:
                i = rng.choice(fields)
                key = rng.choice([b"dim", b"vertices", b"cells", b"dims", b""])
                toks[i] = key + b"=" + rng.choice(HEADER_VALUES).encode()
        elif op == "junk":
            at = rng.randrange(len(data) + 1)
            data = data[:at] + rng.choice(JUNK) + data[at:]
            continue
        elif op == "truncate":
            data = data[: rng.randrange(len(data) + 1)]
            continue
        data = b"".join(toks)
    return data


@pytest.mark.parametrize("name", MESHES)
def test_mutated_meshes_exit_0_or_2_with_one_line(name, tmp_path, capsys):
    rng = random.Random(f"mesh-fuzz:{name}")
    original = (GOLDEN / name).read_bytes()
    path = tmp_path / "mutant.mesh"
    argv = ["decompose", "--mesh", str(path), "--family", "minus", "-r", "1", "-k", "1"]
    codes = set()
    for _ in range(MUTANTS_PER_MESH):
        data = mutate(original, rng)
        path.write_bytes(data)
        try:
            code = main(argv)
        except Exception as err:  # report the mutant, not just the traceback
            pytest.fail(f"mutant {data!r} raised {err!r}")
        err = capsys.readouterr().err
        if code == 0:
            assert err == "", data
        else:
            assert code == 2, data
            assert err.endswith("\n") and err.count("\n") == 1, (data, err)
        codes.add(code)
    assert codes == {0, 2}
