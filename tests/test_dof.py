import random
import sys
from collections import Counter

import pytest

from feec import dof, extension, linalg
from feec.dof import (
    DofFunctional,
    apply_dof,
    build_dofs,
    dual_extend,
    dual_images,
    pairing_matrix,
    weight_space,
)
from feec.extension import ExtensionFamily, FamilyKind, extend_form, placed_basis
from feec.forms import FaceRef, PolyForm, bary_monomial, combination, whitney
from feec.spaces import (
    Family,
    SpaceKind,
    basis_forms,
    dim_space,
    enumerate_basis,
    integer_coordinates,
)
from feec.verify import run_suites
from helpers import oracle_dual_images, oracle_rank


def dof_counts(family, n, r, k):
    return Counter(d.face.dim for d in build_dofs(family, n, r, k))


def test_build_dofs_counts_low_order():
    dofs = build_dofs(Family.FULL, 2, 1, 1)
    assert dof_counts(Family.FULL, 2, 1, 1) == {1: 6}
    assert len(dofs) == dim_space(SpaceKind(Family.FULL), 2, 1, 1) == 6
    assert dof_counts(Family.MINUS, 2, 1, 1) == {1: 3}


def test_build_dofs_top_order_is_interior():
    assert set(dof_counts(Family.FULL, 2, 2, 2)) == {2}
    assert set(dof_counts(Family.MINUS, 3, 2, 3)) == {3}


def test_dof_totals_and_group_sizes():
    for n in (1, 2, 3):
        for family in (Family.FULL, Family.MINUS):
            for r in (1, 2, 3):
                for k in range(n + 1):
                    dofs = build_dofs(family, n, r, k)
                    assert len(dofs) == dim_space(SpaceKind(family), n, r, k)
                    for face in FaceRef.full(n).all_subfaces():
                        if face.dim < k:
                            continue
                        kind, deg, order = weight_space(family, face.dim, r, k)
                        expected = dim_space(kind, face.dim, deg, order)
                        got = sum(1 for d in dofs if d.face == face)
                        assert got == expected


@pytest.mark.parametrize("family", [Family.FULL, Family.MINUS])
def test_unisolvence_sweep(family):
    # the table's columns are the pairing's, zeros left out, so their sparse
    # rank is the dense pairing's rank and full rank proves unisolvence
    for n in (1, 2, 3):
        for r in (1, 2, 3):
            for k in range(n + 1):
                dofs, columns = dof.moment_table(family, n, r, k)
                assert dofs == build_dofs(family, n, r, k)
                dense = pairing_matrix(dofs, basis_forms(SpaceKind(family), FaceRef.full(n), r, k))
                assert len(columns) == len(dofs) == dim_space(SpaceKind(family), n, r, k)
                for j, column in enumerate(columns):
                    assert 0 not in column.values()
                    assert [column.get(i, 0) for i in range(len(dofs))] == [row[j] for row in dense]
                assert linalg.rank(list(columns)) == oracle_rank(dense) == len(dofs), (family, n, r, k)


def test_pairing_zero_column():
    dofs = build_dofs(Family.MINUS, 2, 1, 1)
    col = [apply_dof(d, PolyForm.zero(2, 1)) for d in dofs]
    assert not any(col)


def test_pairing_matrix_shape_check():
    dofs = build_dofs(Family.MINUS, 2, 1, 1)
    with pytest.raises(ValueError):
        pairing_matrix(dofs, basis_forms(SpaceKind(Family.MINUS), FaceRef.full(2), 2, 1))
    forms = [*basis_forms(SpaceKind(Family.MINUS), FaceRef.full(2), 1, 1)[:-1], whitney(3, (0, 1))]
    with pytest.raises(ValueError, match="dimension 3"):
        pairing_matrix(dofs, forms)
    with pytest.raises(ValueError, match="dimension 3"):
        apply_dof(dofs[0], forms[-1])


def test_dual_extension_refuses_a_face_outside_h():
    mu = whitney(1, (0, 1))
    for f, h in [(FaceRef(3, (0, 1)), FaceRef(3, (1, 2, 3))), (FaceRef(2, (0, 1)), FaceRef.full(3))]:
        with pytest.raises(ValueError, match="is not a subface of"):
            dual_extend(Family.MINUS, mu, f, h, 1, 1)


def test_dual_extension_of_hat_is_barycentric():
    T = FaceRef.full(2)
    vertex = FaceRef(2, (1,))
    hat = bary_monomial(0, (1,))
    via_dof = dual_extend(Family.FULL, hat, vertex, T, 1, 0)
    assert via_dof == extend_form(ExtensionFamily(FamilyKind.FULL_PSI, 1, 0), hat, vertex, T)
    assert via_dof == bary_monomial(2, (0, 1, 0))


def test_dual_extension_of_edge_whitney_matches_barycentric():
    T = FaceRef.full(2)
    edge = FaceRef(2, (1, 2))
    mu = whitney(1, (0, 1))
    whitney_family = ExtensionFamily(FamilyKind.MINUS_BARYCENTRIC, 1, 1)
    assert dual_extend(Family.MINUS, mu, edge, T, 1, 1) == extend_form(whitney_family, mu, edge, T)


def test_dual_extension_is_a_right_inverse():
    T = FaceRef.full(3)
    face = FaceRef(3, (0, 2, 3))
    for desc in enumerate_basis(SpaceKind(Family.FULL), FaceRef.full(2), 2, 1)[:4]:
        from feec.spaces import realize

        mu = realize(desc)
        w = dual_extend(Family.FULL, mu, face, T, 2, 1)
        assert w.trace(face) == mu


@pytest.mark.parametrize("family", [Family.FULL, Family.MINUS])
def test_dual_extension_moments_match_inside_f_and_vanish_elsewhere(family):
    rng = random.Random(f"dual-moments:{family.value}")
    for n in (2, 3):
        T = FaceRef.full(n)
        for r in (1, 2):
            for k in range(n + 1):
                dofs = build_dofs(family, n, r, k)
                for f in T.all_subfaces():
                    basis = basis_forms(SpaceKind(family), FaceRef.full(f.dim), r, k)
                    mu = combination(f.dim, k, ((rng.choice([-2, -1, 1, 2]), b) for b in basis))
                    w = dual_extend(family, mu, f, T, r, k)
                    for dof in dofs:
                        expected = 0
                        if f.contains(dof.face):
                            expected = apply_dof(DofFunctional(f.to_local(dof.face), dof.weight), mu)
                        assert apply_dof(dof, w) == expected, (family, n, r, k, f, dof.face)


@pytest.mark.parametrize("family", [Family.FULL, Family.MINUS])
def test_dual_images_match_the_fraction_oracle(family):
    # every local face of the tetrahedron at r <= 2 and of the 4-simplex at r = 1, every k
    fractions = 0
    for n, max_r in ((3, 2), (4, 1)):
        for r in range(1, max_r + 1):
            for k in range(n + 1):
                for fr in FaceRef.full(n).all_subfaces():
                    if fr.dim < k:
                        continue
                    got = dual_images(family, fr, r, k)
                    want = oracle_dual_images(family, fr, r, k)
                    assert len(got) == len(want) == len(basis_forms(SpaceKind(family), fr, r, k))
                    for a, b in zip(got, want):
                        assert (a.n, a.k, a.r) == (b.n, b.k, b.r) and a.coeffs == b.coeffs
                        assert {key: type(c) for key, c in a.coeffs.items()} == {
                            key: type(c) for key, c in b.coeffs.items()
                        }
                        fractions += any(type(c) is not int for c in a.coeffs.values())
    assert fractions > 0


@pytest.mark.parametrize("family", list(Family))
def test_dual_images_of_the_whole_simplex_are_its_basis_forms(family):
    # each basis form's moments are its own column, so its image is that very table form
    for m in range(1, 4):
        for r in (1, 2):
            for k in range(m + 1):
                basis = basis_forms(SpaceKind(family), FaceRef.full(m), r, k)
                images = dual_images(family, FaceRef.full(m), r, k)
                assert [(w.r, w.coeffs) for w in images] == [(b.r, b.coeffs) for b in basis]
                assert all(w is b for w, b in zip(images, basis))


def _moment_cases():
    for family in (Family.FULL, Family.MINUS):
        for n in (1, 2, 3):
            for r in (1, 2):
                for k in range(n + 1):
                    yield family, n, r, k


def test_block_triangularity():
    # moments on faces not containing the owner annihilate extended
    # zero-trace generators
    for family, n, r, k in _moment_cases():
        dofs = build_dofs(family, n, r, k)
        for face in FaceRef.full(n).all_subfaces():
            if face.dim < k:
                continue
            for w in placed_basis(SpaceKind(family, zero_trace=True), r, k, face):
                for d in dofs:
                    if not d.face.contains(face):
                        assert apply_dof(d, w) == 0, (family, n, r, k, face, d.face)


def test_moment_table_solves_each_basis_form_to_its_unit_vector():
    # column j of the pairing is basis form j's moment vector, so its integer
    # coordinates are S times the j-th unit vector; a table built over the
    # pairing's rows solves the transpose instead and fails here
    dof._solver_cache.clear()
    for family, n, r, k in _moment_cases():
        table, columns = dof._dual_basis(family, n, r, k), dof.moment_table(family, n, r, k).columns
        size = len(columns)
        for j, column in enumerate(columns):
            coords, scale = integer_coordinates(column, table)
            assert scale > 0 and coords == [scale if i == j else 0 for i in range(size)], (family, n, r, k, j)


def test_singular_pairing_raises_and_caches_nothing(monkeypatch):
    real = dof.pairing_matrix

    def repeated_row(dofs, forms):
        rows = real(dofs, forms)
        return [rows[0], rows[0], *rows[2:]]

    dof._solver_cache.clear()
    dof.moment_table.cache_clear()
    monkeypatch.setattr(dof, "pairing_matrix", repeated_row)
    family, m, r, k = Family.MINUS, 2, 2, 1
    try:
        with pytest.raises(ArithmeticError) as err:
            dof._dual_basis(family, m, r, k)
    finally:
        # the table now holds the repeated row, which no later reader may see
        dof.moment_table.cache_clear()
    message = str(err.value)
    assert all(part in message for part in (family.value, f"r={r}", f"k={k}", f"dim {m}")), message
    assert (family, m, r, k) not in dof._solver_cache


def test_consistency_and_dof_suites_build_each_moment_table_once(monkeypatch):
    # every pairing comes from the one table, which each (family, m, r, k) fills once
    real, keys = dof.pairing_matrix, []

    def spy(dofs, forms):
        frame = sys._getframe(1)
        assert frame.f_code.co_name == "moment_table"
        keys.append(tuple(frame.f_locals[name] for name in ("family", "m", "r", "k")))
        return real(dofs, forms)

    monkeypatch.setattr(dof, "pairing_matrix", spy)
    dof.moment_table.cache_clear()
    dof._solver_cache.clear()
    extension._images.cache_clear()
    assert all(res.passed for res in run_suites(["consistency", "dof"]))
    assert len(keys) == len(set(keys)) == dof.moment_table.cache_info().currsize
    # the dof suite's cases, n <= 3 and r <= 3, and the moment families' faces of the tetrahedron
    assert {(family, n, r, k) for family in Family for n in (1, 2, 3) for r in (1, 2, 3) for k in range(n + 1)} < set(keys)


def test_pairing_matrix_matches_one_functional_at_a_time():
    for family, n, r, k in _moment_cases():
        dofs = build_dofs(family, n, r, k)
        basis = basis_forms(SpaceKind(family), FaceRef.full(n), r, k)
        got = pairing_matrix(dofs, basis)
        want = [[apply_dof(d, w) for w in basis] for d in dofs]
        assert got == want, (family, n, r, k)
        assert [list(map(type, row)) for row in got] == [list(map(type, row)) for row in want]


def test_dual_space_dimension_identities():
    for n in (1, 2, 3):
        for r in range(1, 4):
            for k in range(n + 1):
                assert dim_space(SpaceKind(Family.FULL, True), n, r, k) == dim_space(
                    SpaceKind(Family.MINUS), n, r + k - n, n - k
                )
                assert dim_space(SpaceKind(Family.MINUS, True), n, r, k) == dim_space(
                    SpaceKind(Family.FULL), n, r + k - n - 1, n - k
                )


def test_weight_space_recipe():
    # edge weights for degree-1 1-forms: two moments per edge for the full
    # family, one for the reduced family, none interior to the triangle
    kind, deg, order = weight_space(Family.FULL, 1, 1, 1)
    assert kind.family is Family.MINUS and (deg, order) == (1, 0)
    assert dim_space(kind, 1, deg, order) == 2
    kind, deg, order = weight_space(Family.MINUS, 1, 1, 1)
    assert kind.family is Family.FULL and (deg, order) == (0, 0)
    assert dim_space(kind, 1, deg, order) == 1
    kind, deg, order = weight_space(Family.FULL, 2, 1, 1)
    assert dim_space(kind, 2, deg, order) == 0
