import random
from collections import Counter

import pytest

from feec import linalg
from feec.dof import (
    DofFunctional,
    apply_dof,
    build_dofs,
    dual_extend,
    dual_images,
    pairing_matrix,
    weight_space,
)
from feec.extension import ExtensionFamily, FamilyKind, extend_form, extend_minus_generator
from feec.forms import FaceRef, PolyForm, bary_monomial, combination, whitney
from feec.spaces import (
    Family,
    SpaceKind,
    basis_forms,
    dim_space,
    enumerate_basis,
)
from helpers import oracle_dual_images


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
    for n in (1, 2, 3):
        for r in (1, 2, 3):
            for k in range(n + 1):
                basis = basis_forms(SpaceKind(family), FaceRef.full(n), r, k)
                if not basis:
                    continue
                dofs = build_dofs(family, n, r, k)
                m = pairing_matrix(dofs, basis)
                assert linalg.nonsingular(m), (family, n, r, k)


def test_pairing_zero_column():
    dofs = build_dofs(Family.MINUS, 2, 1, 1)
    col = [apply_dof(d, PolyForm.zero(2, 1)) for d in dofs]
    assert not any(col)


def test_pairing_matrix_shape_check():
    dofs = build_dofs(Family.MINUS, 2, 1, 1)
    with pytest.raises(ValueError):
        pairing_matrix(dofs, basis_forms(SpaceKind(Family.MINUS), FaceRef.full(2), 2, 1))


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


def test_block_triangularity():
    # moments on faces not containing the owner annihilate extended
    # zero-trace generators
    T = FaceRef.full(2)
    r, k, family = 2, 1, Family.MINUS
    dofs = build_dofs(family, 2, r, k)
    zero_kind = SpaceKind(family, zero_trace=True)
    for face in T.all_subfaces():
        if face.dim < k:
            continue
        for desc in enumerate_basis(zero_kind, face, r, k):
            w = extend_minus_generator(desc.alpha, desc.sigma, T)
            for dof in dofs:
                if not dof.face.contains(face):
                    assert apply_dof(dof, w) == 0


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
