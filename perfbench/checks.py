"""Output gates.  Every check runs after the timed region has ended.

A gate returns the number of operations that failed; the caller adds the
number attempted.  An operation is a verify case, a decompose request or a
peel task.
"""

from __future__ import annotations

import hashlib
import json

# sha256 of each verify document (the CLI's stdout, or the same rendering of
# a suite called through the library), recorded at the commit that
# introduced the benchmark, with the number of cases in each document.
VERIFY_GOLDEN = {
    "verify -n 2 -r 2 --format json --suite dims --suite ranks --suite identities"
    " --suite homotopy --suite whitney --suite decomposition --suite dof"
    " --suite characterization --suite bernstein": (
        "69e229a4310593b3c78b2b7111b2c48d618f5b824bcaeacc16e34b3ed984af8c", 82),
    "suite consistency dual_r=1 max_k=1 max_r=1": (
        "d3d0284e96ae609f3e1e2ac10f865a7b8be34476b351154647ccb4eab223924b", 9),
    "verify -n 1 -r 1 --format json --suite dims --suite whitney": (
        "7f9534ea3da11f6e610e9665ba2e6959dacacb13fd9ff0d000951920fc0ca67c", 7),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def render_verify(results: list[dict]) -> str:
    """The verify document `feec verify --format json` prints for these results."""
    payload = {
        "command": "verify",
        "results": results,
        "failed": sum(1 for r in results if not r["passed"]),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def check_verify(golden: str, exit_code: int, stdout: str) -> int:
    """Failed cases: all of them unless the document is byte-identical to the golden one."""
    digest, cases = VERIFY_GOLDEN[golden]
    if exit_code != 0 or sha256(stdout) != digest:
        return cases
    return sum(1 for r in json.loads(stdout)["results"] if not r["passed"])


def check_decompose(exit_code: int, stdout: str, expected: int) -> int:
    """1 unless both verdicts hold and the count matches the face-count formula."""
    if exit_code != 0:
        return 1
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return 1
    verified = payload.get("verified", {})
    ok = (
        verified.get("single_valued") is True
        and verified.get("direct_sum") is True
        and payload.get("total") == payload.get("expected") == expected
        and sum(len(g["generators"]) for g in payload.get("groups", [])) == expected
    )
    return 0 if ok else 1


def check_peel(elements, coefficients: list[int], components: dict) -> int:
    """1 unless every face component is the coefficient sum of that face's generators.

    Faces whose coefficients are all zero must have no component.  Needs the
    program's `realize`, so it runs in the child that did the peeling.
    """
    from feec.spaces import realize

    if len(elements) != len(coefficients):
        return 1
    by_face: dict[tuple[int, ...], list] = {}
    for el, c in zip(elements, coefficients):
        by_face.setdefault(el.face.vertices, []).append((c, el.descriptor))
    expected = {}
    for face, terms in by_face.items():
        live = [(c, d) for c, d in terms if c]
        if not live:
            continue
        total = None
        for c, d in live:
            piece = c * realize(d)
            total = piece if total is None else total + piece
        expected[face] = total
    if set(components) != set(expected):
        return 1
    return 0 if all(components[f] == w for f, w in expected.items()) else 1
