import random
from fractions import Fraction
from itertools import combinations

import pytest

from feec import dof, linalg, spaces
from feec.combinat import binom, multiindices
from feec.forms import FaceRef, PolyForm, bary_monomial, canonicalize, combination, dlambda, whitney
from feec.spaces import (
    FULL,
    FULL_ZERO,
    MINUS,
    MINUS_ZERO,
    Family,
    SpaceKind,
    basis_forms,
    coordinates,
    dim_space,
    enumerate_basis,
    enumerate_spanning,
    membership,
    rank_of,
    realize,
)
from feec.extension import cell_table
from helpers import (
    FRACTION_COEFFS,
    INTEGER_COEFFS,
    dense_echelon,
    from_polyform,
    oracle_pivot_inverse,
    oracle_rank,
    random_polyform,
    rebuild_coordinates,
    table_inverse,
)

Q = Fraction

ALL_KINDS = (FULL, MINUS, FULL_ZERO, MINUS_ZERO)


def test_dim_examples():
    assert dim_space(FULL, 3, 1, 1) == 12
    assert dim_space(MINUS, 3, 1, 1) == 6
    assert dim_space(FULL_ZERO, 2, 2, 1) == 3
    assert dim_space(MINUS, 3, 1, 2) == 4
    assert dim_space(FULL, 2, 0, 1) == 2
    assert dim_space(FULL_ZERO, 2, 0, 1) == 0
    assert dim_space(MINUS, 2, 0, 1) == 0
    # kinds are values: built twice, equal and hash-equal
    assert SpaceKind(Family.FULL, zero_trace=True) == FULL_ZERO != FULL
    assert hash(SpaceKind(Family.FULL, True)) == hash(FULL_ZERO)


def test_dim_formula_symmetry():
    # the two closed forms of the full-space dimension agree
    for n in range(1, 5):
        for r in range(0, 7):
            for k in range(n + 1):
                assert dim_space(FULL, n, r, k) == binom(r + k, r) * binom(n + r, n - k)


def test_dim_point_spaces():
    for r in range(4):
        assert dim_space(FULL, 0, r, 0) == 1
    assert dim_space(MINUS, 0, 2, 0) == 1
    assert dim_space(MINUS, 0, 0, 0) == 0


def test_zero_trace_iso_dims():
    # trace-free spaces pair with whole spaces of complementary order
    for n in (1, 2, 3, 4):
        for r in range(1, 7):
            for k in range(n + 1):
                assert dim_space(FULL_ZERO, n, r, k) == dim_space(
                    MINUS, n, r - n + k, n - k
                )
                assert dim_space(MINUS_ZERO, n, r, k) == dim_space(
                    FULL, n, r - n + k - 1, n - k
                )


def test_enumerate_spanning_examples():
    T = FaceRef.full(2)
    assert len(enumerate_spanning(MINUS, T, 1, 1)) == 3
    assert len(enumerate_spanning(FULL, T, 2, 1)) == 18
    assert enumerate_spanning(FULL_ZERO, T, 1, 1) == []


def test_enumerate_basis_edge_cases():
    edge = FaceRef(2, (0, 1))
    basis = enumerate_basis(MINUS, edge, 2, 1)
    assert [(d.alpha, d.sigma) for d in basis] == [
        ((1, 0, 0), (0, 1)),
        ((0, 1, 0), (0, 1)),
    ]
    basis = enumerate_basis(FULL, edge, 1, 1)
    assert len(basis) == 2
    # span agrees with the textbook pair on the edge
    lam0, lam1 = bary_monomial(1, (1, 0)), bary_monomial(1, (0, 1))
    d0, d1 = dlambda(1, (0,)), dlambda(1, (1,))
    table = [lam0.wedge(d1), lam1.wedge(d0)]
    ours = [realize(d) for d in basis]
    assert rank_of(ours + table) == rank_of(ours) == 2


def test_enumerate_basis_zero_trace_tet_example():
    T = FaceRef.full(3)
    basis = enumerate_basis(MINUS_ZERO, T, 2, 2)
    got = {(d.alpha, d.sigma) for d in basis}
    assert got == {
        ((0, 0, 0, 1), (0, 1, 2)),
        ((0, 0, 1, 0), (0, 1, 3)),
        ((0, 1, 0, 0), (0, 2, 3)),
    }


def test_realize_examples():
    T = FaceRef.full(2)
    d = enumerate_basis(MINUS, T, 1, 1)[0]
    assert realize(d) == whitney(2, d.sigma)
    full = enumerate_basis(FULL, T, 2, 1)
    forms = {(g.alpha, g.sigma): realize(g) for g in full}
    target = bary_monomial(2, (1, 1, 0)).wedge(dlambda(2, (2,)))
    assert forms[((1, 1, 0), (2,))] == target


def test_rank_examples():
    T = FaceRef.full(2)
    assert rank_of(basis_forms(MINUS, T, 1, 1)) == 3
    spanning = [realize(g) for g in enumerate_spanning(FULL, T, 2, 1)]
    assert len(spanning) == 18 and rank_of(spanning) == 12
    d1 = dlambda(2, (1,))
    assert rank_of([d1, d1]) == 1
    assert rank_of([]) == 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_basis_and_spanning_ranks(n):
    T = FaceRef.full(n)
    for kind in ALL_KINDS:
        for r in range(0, 4):
            for k in range(n + 1):
                dim = dim_space(kind, n, r, k)
                basis = enumerate_basis(kind, T, r, k)
                assert len(basis) == dim
                assert rank_of([realize(g) for g in basis]) == dim
                spanning = enumerate_spanning(kind, T, r, k)
                assert rank_of([realize(g) for g in spanning]) == dim


def test_basis_ranks_dimension_four_smoke():
    T = FaceRef.full(4)
    for kind in ALL_KINDS:
        for r, k in [(1, 1), (2, 2), (1, 3)]:
            dim = dim_space(kind, 4, r, k)
            basis = [realize(g) for g in enumerate_basis(kind, T, r, k)]
            assert len(basis) == dim
            assert rank_of(basis) == dim


def test_faces_inherit_dimensions():
    T = FaceRef.full(3)
    for face in T.all_subfaces():
        for kind in ALL_KINDS:
            for r in range(1, 4):
                for k in range(face.dim + 1):
                    assert len(enumerate_basis(kind, face, r, k)) == dim_space(
                        kind, face.dim, r, k
                    )


def test_zero_trace_basis_has_zero_boundary_trace():
    for n in (2, 3):
        T = FaceRef.full(n)
        for kind in (FULL_ZERO, MINUS_ZERO):
            for r in (1, 2, 3):
                for k in range(n + 1):
                    for g in enumerate_basis(kind, T, r, k):
                        w = realize(g)
                        for facet in T.subfaces(n - 1):
                            assert w.trace(facet).is_zero


def test_membership_examples():
    T = FaceRef.full(2)
    w = bary_monomial(2, (0, 1, 0)).wedge(dlambda(2, (1, 2))).koszul()
    coords = membership(w, MINUS, T, 2, 1)
    assert coords is not None
    # reassemble to double-check the coordinates
    basis = basis_forms(MINUS, T, 2, 1)
    back = PolyForm.zero(2, 1)
    for c, b in zip(coords, basis):
        back = back + c * b
    assert back == w
    outside = bary_monomial(2, (0, 2, 0)).wedge(dlambda(2, (2,)))
    assert membership(outside, MINUS, T, 2, 1) is None
    zero_coords = membership(PolyForm.zero(2, 1), MINUS, T, 2, 1)
    assert zero_coords is not None and not any(zero_coords)


def test_space_inclusions_strict():
    T = FaceRef.full(2)
    r, k = 2, 1
    for g in enumerate_basis(FULL, T, r - 1, k):
        w = realize(g)
        assert membership(w, MINUS, T, r, k) is not None
    for g in enumerate_basis(MINUS, T, r, k):
        assert membership(realize(g), FULL, T, r, k) is not None
    assert dim_space(FULL, 2, 1, 1) < dim_space(MINUS, 2, 2, 1) < dim_space(FULL, 2, 2, 1)


def test_wedge_closure_of_reduced_spaces():
    T = FaceRef.full(3)
    rng = random.Random(31)
    cases = [((1, 1), (1, 1)), ((2, 1), (1, 1)), ((2, 1), (2, 1)), ((1, 0), (3, 1))]
    for (r1, k1), (r2, k2) in cases:
        b1 = basis_forms(MINUS, T, r1, k1)
        b2 = basis_forms(MINUS, T, r2, k2)
        for _ in range(4):
            a = rng.choice(b1)
            b = rng.choice(b2)
            w = a.wedge(b)
            assert membership(w, MINUS, T, r1 + r2, k1 + k2) is not None


def test_whitney_multiples_independent():
    # polynomial multiples of the Whitney forms at subsimplices through a
    # common vertex stay independent
    for n in (2, 3):
        for k in range(1, n + 1):
            stars = [s for s in combinations(range(n + 1), k + 1) if s[0] == 0]
            for s in (1, 2):
                prods = [
                    bary_monomial(n, alpha).wedge(whitney(n, sigma))
                    for sigma in stars
                    for alpha in multiindices(n, s)
                ]
                assert rank_of(prods) == len(prods)


def test_traces_stay_inside_the_face_spaces():
    # restriction maps each family onto the matching family of the face
    rng = random.Random(43)
    for n in (2, 3):
        T = FaceRef.full(n)
        for kind in (FULL, MINUS):
            for r in (1, 2):
                for k in range(n):
                    basis = basis_forms(kind, T, r, k)
                    for face in T.all_subfaces():
                        if face.dim < k or face.dim == n:
                            continue
                        for _ in range(3):
                            w = sum(
                                (Q(rng.randint(-2, 2)) * b for b in basis),
                                PolyForm.zero(n, k),
                            )
                            tr = w.trace(face)
                            assert membership(tr, kind, face, r, k) is not None


def test_koszul_image_space_is_origin_independent():
    # individual contraction values move with the origin, the sum space not
    n, r, k = 2, 2, 1
    T = FaceRef.full(n)
    low = basis_forms(FULL, T, r - 1, k)
    high = basis_forms(FULL, T, r - 1, k + 1)
    ranks = []
    for origin in range(n + 1):
        forms = list(low) + [w.koszul(origin) for w in high]
        ranks.append(rank_of(forms))
    assert len(set(ranks)) == 1
    assert ranks[0] == dim_space(MINUS, n, r, k)


def test_rank_of_mixed_shapes_rejected():
    with pytest.raises(ValueError):
        rank_of([dlambda(2, (1,)), dlambda(2, (1, 2))])
    # zero forms carry no shape of their own
    assert rank_of([dlambda(2, (1,)), PolyForm.zero(2, 2)]) == 1


def test_rank_of_matches_dense_oracle():
    rng = random.Random(23)
    for n in range(1, 4):
        for k in range(n + 1):
            for _ in range(6):
                # storage degrees 0..2 mixed in one list, with zero forms among them
                forms = [
                    random_polyform(rng, n, k, rng.randint(0, 2), rng.randint(1, 3))
                    for _ in range(rng.randint(1, 6))
                ]
                forms += [PolyForm.zero(n, k)] * rng.randint(0, 2)
                forms.append(rng.choice(forms).lift(3) * 2)
                rng.shuffle(forms)
                vectors = [from_polyform(w) for w in forms]
                keys = sorted(set().union(*vectors))
                rows = [[v.get(key, Q(0)) for key in keys] for v in vectors]
                assert rank_of(forms) == oracle_rank(rows)


def test_membership_shape_checks():
    T = FaceRef.full(2)
    with pytest.raises(ValueError):
        membership(dlambda(1, (1,)), FULL, T, 1, 1)


def _oracle_coordinates(basis):
    """A solver for coordinates in the basis, by one dense elimination in the oracle's normal form.

    The basis matrix, one row per key, is reduced next to an identity block,
    which records the row operations E with E A = R.  A target b is in the
    span iff (E b) vanishes past the rank and b has no key outside the
    basis; then (E b) on the pivot rows gives the coordinates, free
    variables zero.  The solver returns None for a non-member.
    """
    vectors = [from_polyform(b) for b in basis]
    known = set().union(*vectors)
    keys = sorted(known)
    eye = [[Q(int(i == j)) for j in range(len(keys))] for i in range(len(keys))]
    rows = [[v.get(key, Q(0)) for v in vectors] + e for key, e in zip(keys, eye)]
    m, pivots = dense_echelon(rows, len(basis))
    ops = [{key: a for key, a in zip(keys, row[len(basis):]) if a} for row in m]

    def solve(w):
        target = from_polyform(w)
        if any(c for key, c in target.items() if key not in known):
            return None
        y = [sum(a * target[key] for key, a in op.items() if key in target) for op in ops]
        if any(y[len(pivots):]):
            return None
        x = [Q(0)] * len(basis)
        for i, c in enumerate(pivots):
            x[c] = y[i]
        return x

    return solve


def test_membership_matches_dense_oracle():
    rng = random.Random(59)
    empty_bases = 0
    for kind in ALL_KINDS:
        for m in range(4):
            for r in range(4):
                for k in range(m + 1):
                    # any m-face of a simplex of dimension m..3 carries the same basis
                    face = rng.choice(FaceRef.full(rng.randint(m, 3)).subfaces(m))
                    basis = basis_forms(kind, face, r, k)
                    oracle = _oracle_coordinates(basis)
                    assert membership(PolyForm.zero(m, k), kind, face, r, k) == [0] * len(basis)
                    if not basis:
                        empty_bases += 1
                        assert membership(dlambda(m, tuple(range(1, k + 1))), kind, face, r, k) is None
                        continue
                    outside = None
                    for _ in range(20):
                        extra = random_polyform(rng, m, k, r + 1)
                        if oracle(extra) is None:
                            outside = extra
                            break
                    assert outside is not None or m == 0
                    for scalars in (range(-3, 4), FRACTION_COEFFS):
                        coeffs = [rng.choice(scalars) for _ in basis]
                        w = sum((c * b for c, b in zip(coeffs, basis)), PolyForm.zero(m, k))
                        assert oracle(w) == coeffs
                        assert membership(w, kind, face, r, k) == coeffs
                        assert membership(w.lift(r + 1), kind, face, r, k) == coeffs
                        if outside is not None:
                            assert oracle(w + outside) is None
                            assert membership(w + outside, kind, face, r, k) is None
    assert empty_bases > 0


def test_coordinates_check_the_off_pivot_keys_exactly():
    # the off-pivot check gives the rebuild's verdicts and coordinates, for both families
    rng = random.Random(97)
    off_pivot_seen = 0
    for kind in ALL_KINDS:
        for n in range(4):
            T = FaceRef.full(n)
            for r in range(4):
                for k in range(n + 1):
                    table = spaces._basis_table(kind, n, r, k, r)
                    basis = [b.lift(r) for b in basis_forms(kind, T, r, k)]
                    keys = set().union(*(b.coeffs for b in basis))
                    assert len(basis) == len(table.columns)
                    assert keys == set(table.columns) | set(table.off_pivot)
                    assert not set(table.columns) & set(table.off_pivot)
                    if kind == FULL:
                        # square on the canonical keys: dim P_r Lambda^k = C(r + n, n) C(n, k)
                        assert not table.off_pivot and len(keys) == binom(r + n, n) * binom(n, k)
                    off_pivot_seen += len(table.off_pivot)

                    coeffs = [rng.choice(FRACTION_COEFFS) for _ in basis]
                    w = combination(n, k, zip(coeffs, basis))
                    assert coordinates(w, n, k, table) == rebuild_coordinates(w, basis, table) == coeffs
                    assert membership(w.lift(r + 1), kind, T, r, k) == coeffs
                    for key in table.off_pivot:
                        bumped = w + canonicalize(n, k, [(*key, 1)], degree=r)
                        assert set(bumped.coeffs) ^ set(w.coeffs) <= {key}
                        assert coordinates(bumped, n, k, table) is None
                        assert rebuild_coordinates(bumped, basis, table) is None
                    stray = [(a, s) for a in multiindices(n, r) for s in combinations(range(1, n + 1), k)]
                    stray = [key for key in stray if key not in keys]
                    assert bool(stray) == (len(keys) < binom(r + n, n) * binom(n, k))
                    for key in stray[:3]:
                        outside = w + canonicalize(n, k, [(*key, Q(1, 3))], degree=r)
                        assert coordinates(outside, n, k, table) is None
                        assert rebuild_coordinates(outside, basis, table) is None
                    other = random_polyform(rng, n, k, r, coeffs=FRACTION_COEFFS)
                    got = coordinates(other, n, k, table)
                    assert got == rebuild_coordinates(other, basis, table)
                    assert got is None or combination(n, k, zip(got, basis)) == other
    assert off_pivot_seen > 0


def _same_coordinates(got, want):
    """Equal coordinate lists whose entries also agree in type, int or Fraction."""
    return got == want and (got is None or [type(c) for c in got] == [type(c) for c in want])


def test_coordinates_match_the_rebuild_oracle_on_cell_tables():
    # the geometric cell tables of both families, at degree r and one degree above it
    rng = random.Random(211)
    seen = {"fraction": 0, "integral": 0, "off_pivot": 0, "outside": 0}
    for zero_kind in (FULL_ZERO, MINUS_ZERO):
        for n, max_r in ((1, 3), (2, 3), (3, 2), (4, 2)):
            for r in range(1, max_r + 1):
                for k in range(n + 1):
                    # one degree above r only where the oracle's dense inverse stays small
                    for degree in (r, r + 1) if n + r < 6 else (r,):
                        forms, _, table = cell_table(zero_kind, n, r, k, degree)
                        for scalars in (INTEGER_COEFFS, FRACTION_COEFFS):
                            coeffs = [rng.choice(scalars) for _ in forms]
                            w = combination(n, k, zip(coeffs, forms))
                            got = coordinates(w, n, k, table)
                            assert _same_coordinates(got, rebuild_coordinates(w, forms, table))
                            assert _same_coordinates(got, coeffs)
                            seen["fraction"] += any(type(c) is Q for c in got)
                            seen["integral"] += all(type(c) is int for c in got)
                            for key in rng.sample(sorted(table.off_pivot), min(2, len(table.off_pivot))):
                                seen["off_pivot"] += 1
                                bumped = w.lift(degree) + canonicalize(n, k, [(*key, Q(1, 3))], degree=degree)
                                assert coordinates(bumped, n, k, table) is None
                                assert rebuild_coordinates(bumped, forms, table) is None
                            other = random_polyform(rng, n, k, degree, coeffs=FRACTION_COEFFS)
                            got = coordinates(other, n, k, table)
                            assert _same_coordinates(got, rebuild_coordinates(other, forms, table))
                            seen["outside"] += got is None
                        # a member stored above degree r is read at the table's degree
                        if degree > r:
                            w = combination(n, k, zip([rng.choice(FRACTION_COEFFS) for _ in forms], forms))
                            low = cell_table(zero_kind, n, r, k, r)
                            assert w.r == degree and low[0][0].r == r
                            got = coordinates(w, n, k, table)
                            assert _same_coordinates(got, rebuild_coordinates(w, forms, table))
    assert all(seen.values()), seen


def test_coordinates_refuse_a_key_outside_both_columns():
    # the pass over w's keys is the only place a key the basis lacks is refused
    rng = random.Random(103)
    stray_seen = 0
    for kind in ALL_KINDS:
        for m in range(4):
            T = FaceRef.full(m)
            for r in range(3):
                for k in range(m + 1):
                    for degree in (r, r + 1):
                        table = spaces._basis_table(kind, m, r, k, degree)
                        basis = [b.lift(degree) for b in basis_forms(kind, T, r, k)]
                        keys = [key for b in basis for key in b.coeffs]
                        assert all((key in table.columns) != (key in table.off_pivot) for key in keys)
                        member = combination(m, k, zip([rng.choice(FRACTION_COEFFS) for _ in basis], basis))
                        canonical = [(a, s) for a in multiindices(m, degree) for s in combinations(range(1, m + 1), k)]
                        for key in canonical:
                            if key in table.columns or key in table.off_pivot:
                                continue
                            stray_seen += 1
                            outside = member + canonicalize(m, k, [(*key, Q(2, 7))], degree=degree)
                            assert coordinates(outside, m, k, table) is None
                            assert membership(outside, kind, T, r, k) is None
    assert stray_seen > 0


def test_realized_basis_depends_only_on_face_dimension():
    for n in range(5):
        for face in FaceRef.full(n).all_subfaces():
            reference = FaceRef.full(face.dim)
            for kind in ALL_KINDS:
                for r in range(3):
                    for k in range(face.dim + 1):
                        assert basis_forms(kind, face, r, k) == basis_forms(kind, reference, r, k)


def test_membership_refuses_a_dependent_basis(monkeypatch):
    T = FaceRef.full(2)
    w = whitney(2, (0, 1))
    assert membership(w, MINUS, T, 1, 1) is not None

    def doubled(kind, face, r, k):
        return 2 * basis_forms(kind, face, r, k)

    monkeypatch.setattr(spaces, "basis_forms", doubled)
    spaces._basis_table.cache_clear()
    try:
        with pytest.raises(ArithmeticError):
            membership(w, MINUS, T, 1, 1)
    finally:
        spaces._basis_table.cache_clear()


def test_table_pivot_keys_are_the_dense_oracles_pivots():
    # the rebuild oracle reads its pivots from the table, so they are checked here on their own
    def check(vectors, table):
        want = oracle_pivot_inverse(vectors)
        assert sorted(table.columns) == list(want)
        assert table_inverse(table, len(vectors)) == want

    for n in range(4):
        for r in range(4):
            for k in range(n + 1):
                for kind in (FULL, MINUS):
                    for degree in (r, r + 1):
                        basis = [b.lift(degree).coeffs for b in basis_forms(kind, FaceRef.full(n), r, k)]
                        check(basis, spaces._basis_table(kind, n, r, k, degree))
                if r == 0:
                    continue
                for zero_kind in (FULL_ZERO, MINUS_ZERO):
                    forms, _, table = cell_table(zero_kind, n, r, k, r)
                    check([w.coeffs for w in forms], table)
                for family in Family:
                    check(list(dof.moment_table(family, n, r, k).columns), dof._dual_basis(family, n, r, k))


def test_each_table_is_one_elimination_of_the_sparse_vectors(monkeypatch):
    echelon, invert = linalg._echelon, linalg.inverse
    seen = []

    def counted(rows):
        seen.append("echelon")
        return echelon(rows)

    def sparse_only(rows):
        seen.append(rows)
        return invert(rows)

    monkeypatch.setattr(linalg, "_echelon", counted)
    monkeypatch.setattr(linalg, "inverse", sparse_only)
    cases = [([b.coeffs for b in basis_forms(kind, FaceRef.full(3), 2, 1)], True) for kind in ALL_KINDS]
    cases.append(([w.coeffs for w in cell_table(FULL_ZERO, 2, 2, 1, 3)[0]], True))
    cases.append(([{(0, 1): 1, (2, 0): 2}, {(0, 1): 2, (2, 0): 4}], False))
    for vectors, independent in cases:
        seen.clear()
        if independent:
            spaces.inverse_columns(vectors, "a test basis")
        else:
            with pytest.raises(ArithmeticError, match="dependent basis for a test basis"):
                spaces.inverse_columns(vectors, "a test basis")
        # the vectors reach the kernel as they are, and are eliminated once
        assert len(seen) == 2 and seen[0] is vectors and seen[1] == "echelon"


def test_membership_results_are_not_shared_between_calls():
    T = FaceRef.full(2)
    w = whitney(2, (0, 1)) + 3 * whitney(2, (1, 2))
    first = membership(w, MINUS, T, 1, 1)
    expected = list(first)
    first[0] += 7
    first.append(Q(1))
    assert membership(w, MINUS, T, 1, 1) == expected


def test_the_basis_enumeration_is_one_table_per_argument_tuple():
    for n in range(4):
        for face in FaceRef.full(n).all_subfaces():
            for kind in ALL_KINDS:
                for r in range(4):
                    for k in range(face.dim + 1):
                        got = enumerate_basis(kind, face, r, k)
                        assert type(got) is tuple
                        assert enumerate_basis(kind, face, r, k) is got
                        assert list(got) == spaces._enumerate(kind, face, r, k, basis_only=True)


def test_trace_coordinates_are_the_traced_basis_coordinates():
    # one entry per (kind, r, k, local face), built once and shared
    for n in range(4):
        for kind in (FULL, MINUS):
            for r in range(3):
                for k in range(n + 1):
                    basis = basis_forms(kind, FaceRef.full(n), r, k)
                    for fr in FaceRef.full(n).all_subfaces():
                        table = spaces.trace_coordinates(kind, r, k, fr)
                        want = tuple(membership(w.trace(fr), kind, FaceRef.full(fr.dim), r, k) for w in basis)
                        assert None not in want and table == want
                        assert spaces.trace_coordinates(kind, r, k, fr) is table
