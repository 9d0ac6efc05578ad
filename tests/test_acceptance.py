"""Acceptance criteria: one test per criterion, each printing a PASS/FAIL line.

Everything here is exact arithmetic; the only tolerances are wall-clock
budgets on the swept criteria.
"""

import time
from fractions import Fraction
from math import comb

from feec.assemble import assemble_basis, verify_direct_sum, verify_single_valued
from feec.extension import (
    ExtensionFamily,
    FamilyKind,
    check_consistency,
    extend_full_generator,
    extend_minus_generator,
    naive_representative_discrepancy,
)
from feec.forms import FaceRef, PolyForm, bary_monomial, canonicalize, dlambda, whitney
from feec.spaces import (
    Family,
    SpaceKind,
    dim_space,
    enumerate_basis,
    enumerate_spanning,
    rank_of,
    realize,
)
from feec.verify import (
    builtin_meshes,
    suite_bernstein,
    suite_characterization,
    suite_dof,
    suite_homotopy,
    suite_identities,
    suite_whitney,
)

Q = Fraction

ALL_KINDS = (
    SpaceKind(Family.FULL),
    SpaceKind(Family.MINUS),
    SpaceKind(Family.FULL, True),
    SpaceKind(Family.MINUS, True),
)


def _report(num: int, name: str, fn) -> None:
    try:
        fn()
    except BaseException:
        print(f"criterion {num:2d} ({name}): FAIL")
        raise
    print(f"criterion {num:2d} ({name}): PASS")


def test_criterion_01_dimension_formulas():
    def run():
        start = time.monotonic()
        for n in range(1, 5):
            T = FaceRef.full(n)
            for r in range(1, 7):
                for k in range(n + 1):
                    full = dim_space(SpaceKind(Family.FULL), n, r, k)
                    minus = dim_space(SpaceKind(Family.MINUS), n, r, k)
                    assert full == comb(r + n, n) * comb(n, k)
                    assert minus == comb(r + k - 1, k) * comb(n + r, n - k)
                    for kind in ALL_KINDS:
                        got = len(enumerate_basis(kind, T, r, k))
                        assert got == dim_space(kind, n, r, k), (kind, n, r, k)
        elapsed = time.monotonic() - start
        assert elapsed < 10, f"took {elapsed:.1f}s"

    _report(1, "dimension formulas", run)


def test_criterion_02_rank_checks():
    def run():
        start = time.monotonic()
        for n in (2, 3):
            T = FaceRef.full(n)
            for r in range(1, 5):
                for k in range(n + 1):
                    for kind in ALL_KINDS:
                        dim = dim_space(kind, n, r, k)
                        basis = [realize(g) for g in enumerate_basis(kind, T, r, k)]
                        spanning = [realize(g) for g in enumerate_spanning(kind, T, r, k)]
                        assert len(basis) == dim
                        assert rank_of(basis) == dim
                        assert rank_of(spanning) == dim
        elapsed = time.monotonic() - start
        assert elapsed < 120, f"took {elapsed:.1f}s"

    _report(2, "spanning and basis ranks", run)


def test_criterion_03_algebraic_identities():
    def run():
        results = list(suite_identities(max_n=3, max_r=3))
        results += list(suite_homotopy(max_n=3, max_r=3))
        bad = [res for res in results if not res.passed]
        assert not bad, bad

    _report(3, "differential and contraction identities", run)


def test_criterion_04_whitney_identities():
    def run():
        results = list(suite_whitney(max_n=4))
        bad = [res for res in results if not res.passed]
        assert not bad, bad

    _report(4, "Whitney form identities", run)


def test_criterion_05_extension_consistency():
    def run():
        tet = FaceRef.full(3)
        for kind in (FamilyKind.MINUS_BARYCENTRIC, FamilyKind.FULL_PSI):
            for r in (1, 2, 3):
                for k in (0, 1, 2):
                    res = check_consistency(ExtensionFamily(kind, r, k), tet)
                    assert res.ok, (kind, r, k, res.witness)
        res = check_consistency(ExtensionFamily(FamilyKind.NAIVE_FULL, 2, 1), FaceRef.full(2))
        assert not res.ok
        witness = naive_representative_discrepancy()
        expected = canonicalize(2, 1, [((0, 1, 1), (1,), 1), ((0, 1, 1), (2,), 1)])
        assert witness == expected

    _report(5, "extension family compatibility", run)


def test_criterion_06_geometric_decompositions():
    def run():
        start = time.monotonic()
        for mesh in builtin_meshes().values():
            for family in (Family.MINUS, Family.FULL):
                for r in (1, 2, 3):
                    for k in range(mesh.n + 1):
                        elements = assemble_basis(mesh, family, r, k)
                        assert verify_single_valued(mesh, elements, k) is None
                        report = verify_direct_sum(mesh, elements, family, r, k)
                        assert report.ok, (family, r, k, report)
        elapsed = time.monotonic() - start
        assert elapsed < 300, f"took {elapsed:.1f}s"

    _report(6, "assembled decompositions", run)


# -- table data -----------------------------------------------------------------
# One entry is (monomial letters, phi letters) for the reduced family or
# (monomial letters, differential factors) for the full family, where a
# factor is either a single letter or a letter->coefficient combination.
# Letters name the face's vertices in increasing order.

TABLE_MINUS = {
    (2, 1): {
        1: {1: [("", "ij")]},
        2: {1: [("i", "ij"), ("j", "ij")], 2: [("k", "ij"), ("j", "ik")]},
        3: {
            1: [("ii", "ij"), ("jj", "ij"), ("ij", "ij")],
            2: [
                ("ik", "ij"), ("jk", "ij"), ("kk", "ij"),
                ("ij", "ik"), ("jj", "ik"), ("jk", "ik"),
            ],
        },
    },
    (3, 1): {
        1: {1: [("", "ij")]},
        2: {1: [("i", "ij"), ("j", "ij")], 2: [("k", "ij"), ("j", "ik")]},
        3: {
            1: [("ii", "ij"), ("jj", "ij"), ("ij", "ij")],
            2: [
                ("ik", "ij"), ("jk", "ij"), ("kk", "ij"),
                ("ij", "ik"), ("jj", "ik"), ("jk", "ik"),
            ],
            3: [("kl", "ij"), ("jl", "ik"), ("jk", "il")],
        },
    },
    (3, 2): {
        1: {2: [("", "ijk")]},
        2: {
            2: [("i", "ijk"), ("j", "ijk"), ("k", "ijk")],
            3: [("l", "ijk"), ("k", "ijl"), ("j", "ikl")],
        },
        3: {
            2: [
                ("ii", "ijk"), ("jj", "ijk"), ("kk", "ijk"),
                ("ij", "ijk"), ("ik", "ijk"), ("jk", "ijk"),
            ],
            3: [
                ("il", "ijk"), ("jl", "ijk"), ("kl", "ijk"), ("ll", "ijk"),
                ("ik", "ijl"), ("jk", "ijl"), ("kk", "ijl"), ("kl", "ijl"),
                ("ij", "ikl"), ("jj", "ikl"), ("jk", "ikl"), ("jl", "ikl"),
            ],
        },
    },
}

TABLE_FULL = {
    (2, 1): {
        1: {1: [("i", ["j"]), ("j", ["i"])]},
        2: {
            1: [("ii", ["j"]), ("jj", ["i"]), ("ij", [{"j": 1, "i": -1}])],
            2: [("ij", ["k"]), ("ik", ["j"]), ("jk", ["i"])],
        },
        3: {
            1: [
                ("iii", ["j"]), ("jjj", ["i"]),
                ("iij", [{"j": 2, "i": -1}]), ("ijj", [{"j": 1, "i": -2}]),
            ],
            2: [
                ("iij", ["k"]), ("ijj", ["k"]), ("ijk", ["k"]),
                ("iik", ["j"]), ("ijk", ["j"]), ("ikk", ["j"]),
                ("jjk", ["i"]), ("jkk", ["i"]),
            ],
        },
    },
    (3, 1): {
        1: {1: [("i", ["j"]), ("j", ["i"])]},
        2: {
            1: [("ii", ["j"]), ("jj", ["i"]), ("ij", [{"j": 1, "i": -1}])],
            2: [("ij", ["k"]), ("ik", ["j"]), ("jk", ["i"])],
        },
        3: {
            1: [
                ("iii", ["j"]), ("iij", [{"j": 2, "i": -1}]),
                ("jjj", ["i"]), ("ijj", [{"j": 1, "i": -2}]),
            ],
            2: [
                ("iij", ["k"]), ("ijj", ["k"]),
                ("ijk", [{"k": 2, "i": -1, "j": -1}]),
                ("iik", ["j"]), ("ikk", ["j"]),
                ("ijk", [{"j": 2, "i": -1, "k": -1}]),
                ("jjk", ["i"]), ("jkk", ["i"]),
            ],
            3: [
                ("ijk", ["l"]), ("ijl", ["k"]), ("ikl", ["j"]), ("jkl", ["i"]),
            ],
        },
    },
    (3, 2): {
        1: {2: [("k", ["i", "j"]), ("j", ["i", "k"]), ("i", ["j", "k"])]},
        2: {
            2: [
                ("kk", ["i", "j"]), ("jk", ["i", {"k": 1, "j": -1}]),
                ("jj", ["i", "k"]), ("ij", [{"j": 1, "i": -1}, "k"]),
                ("ii", ["j", "k"]), ("ik", ["j", {"k": 1, "i": -1}]),
            ],
            3: [
                ("kl", ["i", "j"]), ("jl", ["i", "k"]), ("jk", ["i", "l"]),
                ("il", ["j", "k"]), ("ik", ["j", "l"]), ("ij", ["k", "l"]),
            ],
        },
        3: {
            2: [
                ("kkk", ["i", "j"]), ("jjj", ["i", "k"]), ("iii", ["j", "k"]),
                ("jjk", ["i", {"k": 2, "j": -1}]), ("jkk", ["i", {"k": 1, "j": -2}]),
                ("iij", [{"j": 2, "i": -1}, "k"]), ("iik", ["j", {"k": 2, "i": -1}]),
                ("ijj", [{"j": 1, "i": -2}, "k"]), ("ikk", ["j", {"k": 1, "i": -2}]),
                ("ijk", [{"j": 2, "i": -1, "k": -1}, {"k": 2, "i": -1, "j": -1}]),
            ],
            3: [
                ("kkl", ["i", "j"]), ("kll", ["i", "j"]),
                ("jjl", ["i", "k"]), ("jkl", ["i", "k"]), ("jll", ["i", "k"]),
                ("jjk", ["i", "l"]), ("jkk", ["i", "l"]), ("jkl", ["i", "l"]),
                ("iil", ["j", "k"]), ("ijl", ["j", "k"]), ("ikl", ["j", "k"]), ("ill", ["j", "k"]),
                ("iik", ["j", "l"]), ("ijk", ["j", "l"]), ("ikk", ["j", "l"]), ("ikl", ["j", "l"]),
                ("iij", ["k", "l"]), ("ijj", ["k", "l"]), ("ijk", ["k", "l"]), ("ijl", ["k", "l"]),
            ],
        },
    },
}


def _table_form(n, verts, mono, tail, family):
    pos = dict(zip("ijkl", verts))
    alpha = [0] * (n + 1)
    for ch in mono:
        alpha[pos[ch]] += 1
    w = bary_monomial(n, tuple(alpha))
    if family is Family.MINUS:
        sigma = tuple(sorted(pos[ch] for ch in tail))
        return w.wedge(whitney(n, sigma))
    for factor in tail:
        if isinstance(factor, str):
            one = dlambda(n, (pos[factor],))
        else:
            one = PolyForm.zero(n, 1)
            for ch, c in factor.items():
                one = one + c * dlambda(n, (pos[ch],))
        w = w.wedge(one)
    return w


def test_criterion_07_table_reproduction():
    from feec.cli import basis_payload

    def run():
        for family, table in ((Family.MINUS, TABLE_MINUS), (Family.FULL, TABLE_FULL)):
            for (n, k), per_r in table.items():
                T = FaceRef.full(n)
                for r, groups in per_r.items():
                    payload = basis_payload(family, n, r, k)
                    emitted = {tuple(g["face"]): g["generators"] for g in payload["groups"]}
                    for face in T.all_subfaces():
                        if face.dim < k:
                            continue
                        gens = emitted.get(face.indices, [])
                        entries = groups.get(face.dim, [])
                        assert len(gens) == len(entries), (family, n, k, r, face)
                        if not entries:
                            continue
                        # rebuild the emitted basis forms from the payload data
                        ours = []
                        for gen in gens:
                            alpha = tuple(gen["alpha"])
                            sigma = tuple(gen["sigma"])
                            if family is Family.MINUS:
                                ours.append(extend_minus_generator(alpha, sigma, T))
                            else:
                                ours.append(extend_full_generator(alpha, sigma, face, T))
                        printed = [
                            _table_form(n, face.indices, mono, tail, family)
                            for mono, tail in entries
                        ]
                        m = len(entries)
                        assert rank_of(ours) == m
                        assert rank_of(printed) == m
                        assert rank_of(ours + printed) == m, (family, n, k, r, face)

    _report(7, "table reproduction", run)


def test_criterion_08_dof_unisolvence():
    def run():
        results = list(suite_dof(max_n=3, max_r=3))
        bad = [res for res in results if not res.passed]
        assert not bad, bad

    _report(8, "degree-of-freedom unisolvence", run)


def test_criterion_09_vanishing_characterizations():
    def run():
        results = list(suite_characterization(max_n=3, max_r=3))
        bad = [res for res in results if not res.passed]
        assert not bad, bad

    _report(9, "vanishing-order characterizations", run)


def test_criterion_10_bernstein_degeneration():
    def run():
        results = list(suite_bernstein(max_r=4))
        bad = [res for res in results if not res.passed]
        assert not bad, bad

    _report(10, "Bernstein degeneration at order zero", run)
