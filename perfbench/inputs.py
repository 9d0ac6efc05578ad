"""Seeded inputs for the benchmark workloads.

Everything here is plain Python and does not import feec, so the expected
assembled dimension is worked out independently of the program under test:
face counts come from the generated cells and the zero-trace dimension from
the binomial formulas.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import comb

SUITE_ORDER = (
    "dims", "ranks", "identities", "homotopy", "whitney",
    "consistency", "decomposition", "dof", "characterization", "bernstein",
)


@dataclass(frozen=True)
class MeshSpec:
    """A structured grid mesh plus the space assembled on it."""

    label: str
    dim: int
    m: int
    family: str
    r: int
    k: int


def grid_cells(dim: int, m: int) -> tuple[int, list[tuple[int, ...]]]:
    """Freudenthal (2-D) or Kuhn (3-D) triangulation of an m^dim grid of cubes."""
    side = m + 1

    def vid(p: tuple[int, ...]) -> int:
        out = 0
        for x in p:
            out = out * side + x
        return out

    cells = []
    for corner in itertools.product(range(m), repeat=dim):
        for order in itertools.permutations(range(dim)):
            p = list(corner)
            path = [vid(tuple(p))]
            for axis in order:
                p[axis] += 1
                path.append(vid(tuple(p)))
            cells.append(tuple(path))
    return side ** dim, cells


def relabelled_mesh(spec: MeshSpec, seed: int) -> tuple[int, list[tuple[int, ...]]]:
    """The grid with vertex ids permuted and cell lines shuffled by the seed."""
    rng = random.Random(f"{seed}:{spec.label}:mesh")
    nv, cells = grid_cells(spec.dim, spec.m)
    perm = list(range(nv))
    rng.shuffle(perm)
    out = []
    for cell in cells:
        ids = [perm[v] for v in cell]
        rng.shuffle(ids)
        out.append(tuple(ids))
    rng.shuffle(out)
    return nv, out


def mesh_text(dim: int, nv: int, cells: list[tuple[int, ...]]) -> str:
    lines = [f"simplicial-mesh v1 dim={dim} vertices={nv} cells={len(cells)}"]
    lines.extend(" ".join(map(str, c)) for c in cells)
    return "\n".join(lines) + "\n"


def face_counts(dim: int, cells: list[tuple[int, ...]]) -> list[int]:
    """Number of distinct j-faces for j = 0..dim."""
    return [
        len({tuple(sorted(f)) for c in cells for f in itertools.combinations(c, j + 1)})
        for j in range(dim + 1)
    ]


def _binom(a: int, b: int) -> int:
    return comb(a, b) if 0 <= b <= a else 0


def zero_trace_dim(family: str, d: int, r: int, k: int) -> int:
    """Dimension of the zero-trace space on a d-face (r >= 1)."""
    if k > d:
        return 0
    if family == "full":
        return _binom(r - 1, d - k) * _binom(r + k, r)
    return _binom(d, k) * _binom(r + k - 1, d)


def expected_elements(spec: MeshSpec, cells: list[tuple[int, ...]]) -> int:
    return sum(
        count * zero_trace_dim(spec.family, j, spec.r, spec.k)
        for j, count in enumerate(face_counts(spec.dim, cells))
    )


def peel_coefficients(spec: MeshSpec, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{seed}:{spec.label}:coefficients")
    return [rng.randint(-3, 3) for _ in range(count)]


@dataclass
class WorkloadInputs:
    """Generated inputs plus the properties recorded with each result."""

    requests: list[dict]
    files: dict[str, str]
    properties: list[dict]


def mesh_inputs(kind: str, specs: tuple[MeshSpec, ...], seed: int) -> WorkloadInputs:
    requests, files, props = [], {}, []
    for spec in specs:
        nv, cells = relabelled_mesh(spec, seed)
        expected = expected_elements(spec, cells)
        mesh_file = f"{spec.label}.mesh"
        files[mesh_file] = mesh_text(spec.dim, nv, cells)
        req = {
            "name": spec.label, "kind": kind, "mesh": mesh_file,
            "family": spec.family, "r": spec.r, "k": spec.k, "expected": expected,
        }
        if kind == "peel":
            coeff_file = f"{spec.label}.coefficients"
            files[coeff_file] = " ".join(map(str, peel_coefficients(spec, seed, expected))) + "\n"
            req["coefficients"] = coeff_file
        requests.append(req)
        props.append({
            "mesh": spec.label, "dim": spec.dim, "m": spec.m, "cells": len(cells),
            "vertices": nv, "elements": expected,
            "family": spec.family, "r": spec.r, "k": spec.k,
        })
    return WorkloadInputs(requests, files, props)


# Sizes keep one sample (both requests) at 2 to 3 s, so that a run takes
# several samples and reports their median on a noisy shared machine.
CERTIFY_MESHES = (
    MeshSpec("tri", 2, 5, "full", 2, 1),
    MeshSpec("tet", 3, 2, "minus", 1, 1),
)
PEEL_MESHES = (
    MeshSpec("tri", 2, 16, "minus", 2, 1),
    MeshSpec("tet", 3, 2, "full", 2, 2),
)
# The default sweep (`feec verify -n 3 -r 3`, about 30 s) is too long to
# sample repeatedly: the CLI runs the nine other suites at n, r <= 2, and the
# consistency suite, whose moment-extension part the CLI always runs at
# r = 2 on the tetrahedron, is called through the library at r = 1.
SWEEP_ARGV = ["verify", "-n", "2", "-r", "2", "--format", "json"] + [
    arg for suite in SUITE_ORDER if suite != "consistency" for arg in ("--suite", suite)]
CONSISTENCY_ARGS = {"max_r": 1, "max_k": 1, "dual_r": 1}


def workload_inputs(workload: str, seed: int) -> WorkloadInputs:
    """The requests of one benchmark sample, in the order they run."""
    if workload == "verify-sweep":
        requests = [
            {"name": "cli", "kind": "verify", "argv": SWEEP_ARGV, "golden": " ".join(SWEEP_ARGV)},
            {"name": "consistency", "kind": "suite", "suite": "consistency",
             "kwargs": CONSISTENCY_ARGS, "golden": suite_key("consistency", CONSISTENCY_ARGS)},
        ]
        return WorkloadInputs(requests, {}, [{"request": r["golden"]} for r in requests])
    if workload == "mesh-certify":
        return mesh_inputs("decompose", CERTIFY_MESHES, seed)
    if workload == "mesh-peel":
        return mesh_inputs("peel", PEEL_MESHES, seed)
    raise ValueError(f"unknown workload {workload!r}")


def suite_key(suite: str, kwargs: dict) -> str:
    return f"suite {suite} " + " ".join(f"{k}={v}" for k, v in sorted(kwargs.items()))


WORKLOADS = ("verify-sweep", "mesh-certify", "mesh-peel")
