import random
import re
from fractions import Fraction

import pytest

from feec import extension
from feec.dof import dual_extend
from feec.forms import FaceRef, PolyForm, bary_monomial, canonicalize, dlambda, one, whitney
from feec.extension import (
    ExtensionFamily,
    FamilyKind,
    VanishingOrder,
    characterization_equality,
    check_consistency,
    extend_form,
    extend_full_generator,
    extend_generator,
    extend_minus_generator,
    extend_naive,
    naive_representative_discrepancy,
    placed_basis,
    vanishing_order_check,
)
from feec.spaces import FULL, FULL_ZERO, MINUS, MINUS_ZERO, Family, SpaceKind, basis_forms, enumerate_basis, realize
from feec.verify import suite_consistency
from helpers import from_polyform, oracle_directional_derivative, oracle_trace

Q = Fraction


def bernstein(r):
    # the Bernstein map is the corrected-differential family on 0-forms
    return ExtensionFamily(FamilyKind.FULL_PSI, r, 0)


def test_extend_minus_whitney_example():
    edge = FaceRef(2, (1, 2))
    T = FaceRef.full(2)
    mu = whitney(1, (0, 1))  # the edge Whitney form in edge coordinates
    w = extend_form(ExtensionFamily(FamilyKind.MINUS_BARYCENTRIC, 1, 1), mu, edge, T)
    assert w == whitney(2, (1, 2))
    assert w.trace(edge) == mu


def test_extend_minus_is_identity_on_same_face():
    T = FaceRef.full(2)
    rng = random.Random(3)
    basis = basis_forms(MINUS, T, 2, 1)
    mu = basis[0] + 2 * basis[3] - basis[1]
    assert extend_form(ExtensionFamily(FamilyKind.MINUS_BARYCENTRIC, 2, 1), mu, T, T) == mu


def test_extend_minus_monomial_multiple():
    edge = FaceRef(2, (1, 2))
    T = FaceRef.full(2)
    mu = bary_monomial(1, (1, 0)).wedge(whitney(1, (0, 1)))
    w = extend_form(ExtensionFamily(FamilyKind.MINUS_BARYCENTRIC, 2, 1), mu, edge, T)
    expected = bary_monomial(2, (0, 1, 0)).wedge(whitney(2, (1, 2)))
    assert w == expected
    assert w.trace(edge) == mu


def test_extend_minus_rejects_non_members():
    edge = FaceRef(2, (1, 2))
    T = FaceRef.full(2)
    outside = bary_monomial(1, (2, 0)).wedge(dlambda(1, (1,)))
    with pytest.raises(ValueError):
        extend_form(ExtensionFamily(FamilyKind.MINUS_BARYCENTRIC, 2, 1), outside, edge, T)


def test_extend_full_counterexample_resolution():
    # the input that breaks the uncorrected map extends cleanly here
    edge = FaceRef(2, (1, 2))
    T = FaceRef.full(2)
    mu = bary_monomial(1, (1, 1)).wedge(dlambda(1, (0,)))
    w = extend_form(ExtensionFamily(FamilyKind.FULL_PSI, 2, 1), mu, edge, T)
    expected = canonicalize(
        2, 1, [((0, 1, 1), (1,), Q(1, 2)), ((0, 1, 1), (2,), Q(-1, 2))]
    )
    assert w == expected
    assert w.trace(edge) == mu


def test_extend_full_identity_and_representative_independence():
    T = FaceRef.full(2)
    edge = FaceRef(2, (1, 2))
    rng = random.Random(5)
    basis = basis_forms(FULL, T, 2, 1)
    mu = basis[0] - 3 * basis[4]
    fam = ExtensionFamily(FamilyKind.FULL_PSI, 2, 1)
    assert extend_form(fam, mu, T, T) == mu
    # the zero form on the edge written through dependent generators
    zero = bary_monomial(1, (1, 1)).wedge(dlambda(1, (0,))) + bary_monomial(1, (1, 1)).wedge(
        dlambda(1, (1,))
    )
    assert zero.is_zero
    assert extend_form(fam, zero, edge, T).is_zero


@pytest.mark.parametrize("label", ["minus", "full", "dual-minus", "dual-full"])
def test_form_extension_is_the_generator_sum_on_the_tetrahedron(label):
    # the dual family's oracle is dual_extend applied to the member directly
    dual = label.startswith("dual-")
    family = Family(label.removeprefix("dual-"))
    kind = FamilyKind(label)
    rng = random.Random(f"extend:{label}")
    T = FaceRef.full(3)
    for g in T.all_subfaces():
        for f in g.all_subfaces():
            for r in (1, 2):
                for k in range(f.dim + 1):
                    mu = PolyForm.zero(f.dim, k)
                    expected = PolyForm.zero(g.dim, k)
                    for desc in enumerate_basis(SpaceKind(family), f, r, k):
                        c = rng.randint(-2, 2)
                        mu = mu + c * realize(desc)
                        generator = extend_generator(family, desc.alpha, desc.sigma, f, g)
                        expected = expected + c * generator
                    if dual:
                        expected = dual_extend(family, mu, f, g, r, k)
                    assert extend_form(ExtensionFamily(kind, r, k), mu, f, g) == expected


def test_full_extension_of_forms_needs_positive_degree():
    edge = FaceRef(2, (0, 1))
    T = FaceRef.full(2)
    message = "the corrected-differential extension needs r >= 1 for k >= 1"
    with pytest.raises(ValueError, match=message):
        ExtensionFamily(FamilyKind.FULL_PSI, 0, 1)
    # constants are the degree-0 members of the 0-form space and still extend
    assert extend_form(ExtensionFamily(FamilyKind.FULL_PSI, 0, 0), one(1), edge, T) == one(2)


def test_each_kind_names_its_space():
    expected = {
        FamilyKind.MINUS_BARYCENTRIC: MINUS,
        FamilyKind.FULL_PSI: FULL,
        FamilyKind.DUAL_FULL: FULL,
        FamilyKind.DUAL_MINUS: MINUS,
        FamilyKind.NAIVE_FULL: FULL,
    }
    assert {kind: ExtensionFamily(kind, 1, 1).space_kind for kind in FamilyKind} == expected


def test_a_family_takes_no_space_override():
    with pytest.raises(TypeError):
        ExtensionFamily(FamilyKind.MINUS_BARYCENTRIC, 1, 1, family=Family.FULL)
    # lambda_0 d lambda_1 is in P1 Lambda1 of the edge but not in P1- Lambda1
    mu = bary_monomial(1, (1, 0)).wedge(dlambda(1, (1,)))
    with pytest.raises(ValueError, match=r"form is not a member of the degree-1 space on \(1, 2\)"):
        extend_form(ExtensionFamily(FamilyKind.MINUS_BARYCENTRIC, 1, 1), mu, FaceRef(2, (1, 2)), FaceRef.full(2))


def test_placed_basis_is_the_extended_face_basis():
    for n in range(4):
        T = FaceRef.full(n)
        for f in T.all_subfaces():
            for kind in (FULL, MINUS, FULL_ZERO, MINUS_ZERO):
                for r in (1, 2):
                    for k in range(n + 1):
                        expected = [
                            extend_generator(d.family, d.alpha, d.sigma, f, T)
                            for d in enumerate_basis(kind, f, r, k)
                        ]
                        assert list(placed_basis(kind, r, k, f)) == expected


def test_extension_trace_roundtrip_sweep():
    for n in (2, 3):
        T = FaceRef.full(n)
        for face in T.all_subfaces():
            for r in (1, 2):
                for k in range(0, face.dim + 1):
                    for desc in enumerate_basis(SpaceKind(Family.MINUS), face, r, k):
                        w = extend_minus_generator(desc.alpha, desc.sigma, T)
                        assert w.trace(face) == realize(desc)
                    for desc in enumerate_basis(SpaceKind(Family.FULL), face, r, k):
                        w = extend_full_generator(
                            desc.alpha, desc.sigma, face, T
                        )
                        assert w.trace(face) == realize(desc)


def test_extended_zero_trace_forms_vanish_on_unrelated_faces():
    # extensions of boundary-vanishing generators have zero trace on every
    # face that does not contain the source face
    T = FaceRef.full(3)
    for family, kind in ((Family.MINUS, SpaceKind(Family.MINUS, True)), (Family.FULL, SpaceKind(Family.FULL, True))):
        for f in T.all_subfaces():
            for k in range(1, f.dim + 1):
                for desc in enumerate_basis(kind, f, 2, k):
                    w = extend_generator(family, desc.alpha, desc.sigma, f, T)
                    for g in T.all_subfaces():
                        if not g.contains(f):
                            assert w.trace(g).is_zero


def test_extend_bernstein_examples():
    edge = FaceRef(2, (1, 2))
    T = FaceRef.full(2)
    p = bary_monomial(1, (2, 0))
    assert extend_form(bernstein(2), p, edge, T) == bary_monomial(2, (0, 2, 0))
    assert extend_form(bernstein(0), one(1), edge, T) == one(2)
    # the map is taken at the family's degree: on the edge 1 = (l1 + l2)^2
    edge_sum = bary_monomial(2, (0, 1, 0)) + bary_monomial(2, (0, 0, 1))
    assert extend_form(bernstein(2), one(1), edge, T) == edge_sum.wedge(edge_sum)
    with pytest.raises(ValueError, match="does not match k=0"):
        extend_form(bernstein(1), dlambda(1, (1,)), edge, T)


def test_extend_bernstein_vanishes_to_order_r_opposite():
    # every derivative up to order r-1 of the extension vanishes on the
    # opposite face, checked by tracing the derivatives onto it
    edge = FaceRef(2, (1, 2))
    T = FaceRef.full(2)
    p = bary_monomial(1, (1, 1))
    w = extend_form(bernstein(2), p, edge, T)
    opposite = FaceRef(2, (0,))
    assert w.trace(opposite).is_zero
    expanded = from_polyform(w)
    for j, l in [(1, 0), (2, 0), (1, 2)]:
        assert not oracle_trace(oracle_directional_derivative(expanded, j, l), 2, opposite.indices)
    assert vanishing_order_check(w, edge, 2) is not VanishingOrder.NEITHER


def test_extensions_agree_with_bernstein_for_0forms():
    T = FaceRef.full(2)
    edge = FaceRef(2, (0, 2))
    p = bary_monomial(1, (1, 1))
    expected = bary_monomial(2, (1, 0, 1))
    assert extend_form(bernstein(2), p, edge, T) == expected
    assert extend_form(ExtensionFamily(FamilyKind.MINUS_BARYCENTRIC, 2, 0), p, edge, T) == expected


@pytest.mark.parametrize("kind", [FamilyKind.MINUS_BARYCENTRIC, FamilyKind.FULL_PSI])
def test_consistency_triangle(kind):
    for r in (1, 2, 3):
        for k in (0, 1, 2):
            fam = ExtensionFamily(kind, r, k)
            assert check_consistency(fam, FaceRef.full(2)).ok


def test_consistency_on_a_proper_face():
    face = FaceRef(3, (0, 2, 3))
    fam = ExtensionFamily(FamilyKind.MINUS_BARYCENTRIC, 2, 1)
    assert check_consistency(fam, face).ok


def test_naive_family_fails_consistency():
    fam = ExtensionFamily(FamilyKind.NAIVE_FULL, 2, 1)
    res = check_consistency(fam, FaceRef.full(2))
    assert not res.ok
    assert res.witness is not None
    assert res.witness.lhs != res.witness.rhs
    # the first failure in visiting order (f, then g, then basis member)
    assert (res.witness.f, res.witness.g) == (FaceRef(2, (0, 1)), FaceRef(2, (1, 2)))
    assert res.witness.mu == bary_monomial(1, (0, 2)).wedge(dlambda(1, (1,)))
    assert res.witness.lhs == -bary_monomial(1, (2, 0)).wedge(dlambda(1, (1,)))
    assert res.witness.rhs.is_zero
    # yet the naive map is a right inverse of the trace on its own face
    edge = FaceRef(2, (1, 2))
    mu = bary_monomial(1, (1, 1)).wedge(dlambda(1, (1,)))
    assert extend_naive(mu, edge, FaceRef.full(2)).trace(edge) == mu


@pytest.mark.parametrize("kind", [FamilyKind.MINUS_BARYCENTRIC, FamilyKind.FULL_PSI, FamilyKind.DUAL_FULL])
def test_a_patched_image_fails_consistency_where_it_is_used(monkeypatch, kind):
    # the right side is extended to each g through g's own images: doubling
    # one image of an edge placed in a triangle must show at that f cap g
    fam = ExtensionFamily(kind, 1, 1)
    patched = FaceRef(2, (0, 2))
    original = extension._images

    def images(family, fr):
        out = original(family, fr)
        return (2 * out[0],) + out[1:] if (family, fr) == (fam, patched) else out

    original.cache_clear()
    monkeypatch.setattr(extension, "_images", images)
    try:
        res = check_consistency(fam, FaceRef.full(3))
    finally:
        original.cache_clear()
    assert not res.ok
    w = res.witness
    assert w.g.to_local(w.f.intersect(w.g)) == patched
    assert w.lhs != w.rhs


def test_a_patched_moment_image_fails_its_consistency_case_with_its_faces(monkeypatch):
    fam = ExtensionFamily(FamilyKind.DUAL_FULL, 1, 1)
    patched = FaceRef(2, (0, 2))
    original = extension._images

    def images(family, fr):
        out = original(family, fr)
        return (2 * out[0],) + out[1:] if (family, fr) == (fam, patched) else out

    original.cache_clear()
    monkeypatch.setattr(extension, "_images", images)
    try:
        results = list(suite_consistency(max_r=1, max_k=1, dual_r=1))
    finally:
        original.cache_clear()
    failed = [(res.label, res.detail) for res in results if not res.passed]
    assert [label for label, _ in failed] == ["dual-full r=1 k=1"]
    assert re.fullmatch(r"faces \([\d, ]+\) vs \([\d, ]+\)", failed[0][1])


def test_the_naive_control_extends_through_extend_naive(monkeypatch):
    calls = []

    def spy(mu, f, g):
        calls.append((f, g))
        return extend_naive(mu, f, g)

    def no_membership(*args):
        raise AssertionError("the naive control has no basis coordinates")

    monkeypatch.setattr(extension, "extend_naive", spy)
    monkeypatch.setattr(extension, "membership", no_membership)
    res = check_consistency(ExtensionFamily(FamilyKind.NAIVE_FULL, 2, 1), FaceRef.full(2))
    assert not res.ok
    assert (res.witness.f, res.witness.g) == (FaceRef(2, (0, 1)), FaceRef(2, (1, 2)))
    assert res.witness.rhs == extend_naive(res.witness.mu.trace(FaceRef(1, (1,))), FaceRef(2, (1,)), res.witness.g)
    assert (FaceRef(2, (1,)), FaceRef(2, (1, 2))) in calls


def test_naive_extension_rejects_a_form_off_the_face():
    # lambda_0 lambda_1 d lambda_1 lives on the triangle, not on the edge
    mu = bary_monomial(2, (1, 1, 0)).wedge(dlambda(2, (1,)))
    edge, T = FaceRef(2, (1, 2)), FaceRef.full(2)
    for kind in (FamilyKind.NAIVE_FULL, FamilyKind.FULL_PSI):
        with pytest.raises(ValueError, match="form lives on dimension 2, face has dimension 1"):
            extend_form(ExtensionFamily(kind, 2, 1), mu, edge, T)


def test_naive_discrepancy_is_the_bubble_form():
    bad = naive_representative_discrepancy()
    expected = canonicalize(2, 1, [((0, 1, 1), (0,), -1)])
    assert bad == expected
    assert not bad.is_zero


def test_vanishing_order_of_the_counterexample():
    # the bubble-like form vanishes to second order at the opposite vertex
    # but its trace on the edge vanishes too, so the stronger grade fails
    edge = FaceRef(2, (1, 2))
    w = canonicalize(2, 1, [((0, 1, 1), (1,), 1), ((0, 1, 1), (2,), 1)])
    assert vanishing_order_check(w, edge, 2) is VanishingOrder.ORDER_R
    mu = bary_monomial(1, (1, 1)).wedge(dlambda(1, (1,)))
    good = extend_form(ExtensionFamily(FamilyKind.FULL_PSI, 2, 1), mu, edge, FaceRef.full(2))
    assert vanishing_order_check(good, edge, 2) is VanishingOrder.ORDER_R_PLUS
    off_support = bary_monomial(2, (1, 1, 0)).wedge(dlambda(2, (1,)))
    assert vanishing_order_check(off_support, edge, 2) is VanishingOrder.NEITHER


def _literal_vanishing_order(w, face, r):
    """The grade from the iterated-derivative definition, through the oracle.

    Order r: every derivative of order below r of each coefficient vanishes
    on the opposite face.  Order r+: in addition, for each opposite vertex l
    and each alpha of degree r on the face, the derivative along the x_j - x_l
    (alpha_j times each) contracted with x_alpha - x_l vanishes.
    """
    from itertools import combinations_with_replacement

    from feec.combinat import multiindices

    opposite = face.complement_indices
    # with the directions along the opposite face, which keep a function that
    # vanishes there at zero, the x_j - x_l0 span every direction
    l0 = opposite[0]
    for m in range(r):
        for js in combinations_with_replacement(face.indices, m):
            u = from_polyform(w)
            for j in js:
                u = oracle_directional_derivative(u, j, l0)
            for sigma in {sigma for _, sigma in u}:
                coefficient = {(expo, ()): c for (expo, s), c in u.items() if s == sigma}
                if oracle_trace(coefficient, w.n, opposite):
                    return VanishingOrder.NEITHER
    for l in opposite:
        for alpha_local in multiindices(face.dim, r):
            u = from_polyform(w)
            for j, reps in zip(face.indices, alpha_local):
                for _ in range(reps):
                    u = oracle_directional_derivative(u, j, l)
            # back from the oracle's coordinates lambda_1..lambda_n to a package form
            u = canonicalize(w.n, w.k, [((0,) + expo, sigma, c) for (expo, sigma), c in u.items()])
            if not u.contract(face.place(alpha_local), l).is_zero:
                return VanishingOrder.ORDER_R
    return VanishingOrder.ORDER_R_PLUS


def test_vanishing_order_agrees_with_derivative_definition():
    # the one-pass slice contractions against the literal iterated directional
    # derivative definition, on every full basis form of the triangle and every
    # edge image, opposite each edge and each vertex
    T = FaceRef.full(2)
    r = 2
    samples = [
        canonicalize(2, 1, [((0, 1, 1), (1,), 1), ((0, 1, 1), (2,), 1)]),
        extend_full_generator((0, 1, 1), (1,), FaceRef(2, (1, 2)), T),
        extend_full_generator((0, 2, 0), (2,), FaceRef(2, (1, 2)), T),
        *basis_forms(FULL, T, r, 1),
        *(w for edge in T.subfaces(1) for w in placed_basis(FULL, r, 1, edge)),
    ]
    grades = set()
    for w in samples:
        for face in T.subfaces(0) + T.subfaces(1):
            grade = vanishing_order_check(w, face, r)
            assert grade is _literal_vanishing_order(w, face, r), (w, face)
            grades.add(grade)
    assert grades == set(VanishingOrder)


def test_placed_bases_vanish_to_their_order_opposite_the_face():
    for n in (1, 2, 3):
        T = FaceRef.full(n)
        for face in T.all_subfaces()[:-1]:
            for r in (1, 2):
                for k in range(1, n + 1):
                    for w in placed_basis(FULL, r, k, face):
                        assert vanishing_order_check(w, face, r) is VanishingOrder.ORDER_R_PLUS
                    for w in placed_basis(MINUS, r, k, face):
                        assert vanishing_order_check(w, face, r) is not VanishingOrder.NEITHER


def test_vanishing_order_errors():
    edge = FaceRef(2, (1, 2))
    w = bary_monomial(2, (0, 1, 1)).wedge(dlambda(2, (1,)))
    with pytest.raises(ValueError, match="form has degree 2 > 1"):
        vanishing_order_check(w, edge, 1)
    with pytest.raises(ValueError, match="does not match the form's simplex"):
        vanishing_order_check(w, FaceRef(3, (1, 2)), 2)
    # at r = 0 the only exponent is zero, so the contraction has no direction
    with pytest.raises(ValueError, match="alpha must have positive degree"):
        vanishing_order_check(dlambda(2, (1,)), edge, 0)


@pytest.mark.parametrize("family", [Family.MINUS, Family.FULL])
def test_characterization_triangle(family):
    T = FaceRef.full(2)
    for face in T.all_subfaces():
        for r in (1, 2, 3):
            for k in range(3):
                assert characterization_equality(family, face, r, k)


def test_characterization_trivial_on_whole_simplex():
    assert characterization_equality(Family.FULL, FaceRef.full(2), 2, 1)
    assert characterization_equality(Family.MINUS, FaceRef.full(2), 2, 1)


def test_characterization_rejects_uncorrected_images(monkeypatch):
    # the naive images vanish to order r opposite the edge, but not to order r+
    edge = FaceRef(2, (1, 2))
    assert characterization_equality(Family.FULL, edge, 2, 1)

    def naive_basis(kind, r, k, fr):
        basis = basis_forms(kind, FaceRef.full(fr.dim), r, k)
        return tuple(extend_naive(b, fr, FaceRef.full(fr.n)) for b in basis)

    monkeypatch.setattr("feec.extension.placed_basis", naive_basis)
    assert not characterization_equality(Family.FULL, edge, 2, 1)


@pytest.mark.parametrize("family", [Family.MINUS, Family.FULL])
def test_characterization_rejects_a_dependent_basis(monkeypatch, family):
    # every image vanishes to the right order, but the span is one short
    edge = FaceRef(2, (1, 2))
    placed = placed_basis

    def repeated_first(kind, r, k, fr):
        basis = placed(kind, r, k, fr)
        return (basis[0],) + basis[:-1]

    monkeypatch.setattr("feec.extension.placed_basis", repeated_first)
    assert not characterization_equality(family, edge, 2, 1)
