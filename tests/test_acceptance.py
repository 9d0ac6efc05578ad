"""Acceptance criteria: one test per criterion, each printing a PASS/FAIL line.

Criteria that a `feec.verify` suite proves run that suite over the
criterion's range.  Everything here is exact arithmetic; the only
tolerances are wall-clock budgets on the swept criteria.
"""

import time

from feec.extension import extend_full_generator, extend_minus_generator
from feec.forms import FaceRef, PolyForm, bary_monomial, dlambda, whitney
from feec.spaces import Family, rank_of
from feec.verify import (
    suite_bernstein,
    suite_characterization,
    suite_consistency,
    suite_decomposition,
    suite_dims,
    suite_dof,
    suite_homotopy,
    suite_identities,
    suite_ranks,
    suite_whitney,
)


def _report(num: int, name: str, fn) -> None:
    try:
        fn()
    except BaseException:
        print(f"criterion {num:2d} ({name}): FAIL")
        raise
    print(f"criterion {num:2d} ({name}): PASS")


def _all_pass(*suites, budget: float | None = None) -> None:
    """Run the suites; every result must pass, within `budget` seconds if given."""
    start = time.monotonic()
    bad = [res for suite in suites for res in suite if not res.passed]
    assert not bad, bad
    elapsed = time.monotonic() - start
    assert budget is None or elapsed < budget, f"took {elapsed:.1f}s"


def test_criterion_01_dimension_formulas():
    _report(1, "dimension formulas", lambda: _all_pass(suite_dims(max_n=4, max_r=6), budget=10))


def test_criterion_02_rank_checks():
    _report(2, "spanning and basis ranks", lambda: _all_pass(suite_ranks(max_n=3, max_r=4), budget=120))


def test_criterion_03_algebraic_identities():
    _report(
        3, "differential and contraction identities",
        lambda: _all_pass(suite_identities(max_n=3, max_r=3), suite_homotopy(max_n=3, max_r=3)),
    )


def test_criterion_04_whitney_identities():
    _report(4, "Whitney form identities", lambda: _all_pass(suite_whitney(max_n=4)))


def test_criterion_05_extension_consistency():
    _report(5, "extension family compatibility", lambda: _all_pass(suite_consistency()))


def test_criterion_06_geometric_decompositions():
    _report(6, "assembled decompositions", lambda: _all_pass(suite_decomposition(max_r=3), budget=300))


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
    _report(8, "degree-of-freedom unisolvence", lambda: _all_pass(suite_dof(max_n=3, max_r=3)))


def test_criterion_09_vanishing_characterizations():
    _report(9, "vanishing-order characterizations", lambda: _all_pass(suite_characterization(max_n=3, max_r=3)))


def test_criterion_10_bernstein_degeneration():
    _report(10, "Bernstein degeneration at order zero", lambda: _all_pass(suite_bernstein(max_r=4)))
