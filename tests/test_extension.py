import io
import random
import re
import sys
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from feec import assemble, cli, extension, spaces
from feec.dof import dual_extend
from feec.forms import FaceRef, PolyForm, bary_monomial, canonicalize, combination, dlambda, one, whitney
from feec.extension import (
    ExtensionFamily,
    FamilyKind,
    VanishingOrder,
    cell_table,
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
from feec.spaces import (
    FULL,
    FULL_ZERO,
    MINUS,
    MINUS_ZERO,
    Family,
    SpaceKind,
    basis_forms,
    dim_space,
    enumerate_basis,
    membership,
    realize,
)
from feec.verify import run_suites, suite_consistency
from helpers import all_pairs_consistency, from_polyform, oracle_directional_derivative, oracle_trace

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
    # families are values: the image tables are keyed by them
    for kind in FamilyKind:
        twin = ExtensionFamily(kind=kind, r=2, k=1)
        assert twin == ExtensionFamily(kind, 2, 1) and hash(twin) == hash(ExtensionFamily(kind, 2, 1))
        assert twin != ExtensionFamily(kind, 2, 0)


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


def test_placed_bases_of_all_faces_are_one_basis_of_the_cell_space():
    # the geometric decomposition P(T) = sum over f of E_{f,T} P0(f), for both families
    for family in Family:
        zero_kind = SpaceKind(family, zero_trace=True)
        for n, max_r in ((0, 3), (1, 3), (2, 3), (3, 3), (4, 2)):
            for r in range(1, max_r + 1):
                for k in range(n + 1):
                    forms, slots, table = cell_table(zero_kind, n, r, k, r)
                    assert len(forms) == dim_space(SpaceKind(family), n, r, k)
                    assert len(table.columns) == len(forms)
                    for fr, slot in slots.items():
                        placed = placed_basis(zero_kind, r, k, fr)
                        assert forms[slot] == placed
                        # the right-inverse property the components are rebuilt from
                        face_basis = basis_forms(zero_kind, FaceRef.full(fr.dim), r, k)
                        assert [w.trace(fr) for w in placed] == list(face_basis)


def test_cell_table_refuses_forms_that_are_not_a_basis(monkeypatch):
    placed = placed_basis

    def one_extra(kind, r, k, fr):
        basis = placed(kind, r, k, fr)
        return basis + basis[:1] if fr.dim == 2 else basis

    def repeated_first(kind, r, k, fr):
        basis = placed(kind, r, k, fr)
        return basis[:1] + basis[:-1] if fr.dim == 2 else basis

    cell_table.cache_clear()
    try:
        for fake, message in ((one_extra, "not a basis"), (repeated_first, "dependent basis")):
            monkeypatch.setattr("feec.extension.placed_basis", fake)
            with pytest.raises(ArithmeticError, match=message):
                cell_table(MINUS_ZERO, 2, 2, 1, 2)
    finally:
        cell_table.cache_clear()


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
            res = check_consistency(fam, FaceRef.full(2))
            assert res.ok and bool(res)


def test_consistency_on_a_proper_face():
    face = FaceRef(3, (0, 2, 3))
    fam = ExtensionFamily(FamilyKind.MINUS_BARYCENTRIC, 2, 1)
    assert check_consistency(fam, face).ok


def test_naive_family_fails_consistency():
    fam = ExtensionFamily(FamilyKind.NAIVE_FULL, 2, 1)
    res = check_consistency(fam, FaceRef.full(2))
    assert not res.ok
    # a failed certificate is falsy, although it is a non-empty tuple
    assert bool(res) is False
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
    key = r"\(\([\d, ]+\), \([\d, ]*\)\)"
    assert re.fullmatch(rf"faces \([\d, ]+\) vs \([\d, ]+\) at \(alpha, sigma\) = {key}: lhs -?[\d/]+, rhs -?[\d/]+", failed[0][1])


def test_a_disjoint_pair_needs_a_vanishing_left_side(monkeypatch):
    # lambda_1 lambda_2 lambda_3 vanishes on every facet through vertex 0, so
    # adding it to the image of vertex 0 first shows on the opposite facet
    fam = ExtensionFamily(FamilyKind.MINUS_BARYCENTRIC, 3, 0)
    vertex = FaceRef(3, (0,))
    original = extension._images

    def images(family, fr):
        out = original(family, fr)
        return (out[0] + bary_monomial(3, (0, 1, 1, 1)),) if (family, fr) == (fam, vertex) else out

    original.cache_clear()
    monkeypatch.setattr(extension, "_images", images)
    try:
        res = check_consistency(fam, FaceRef.full(3))
    finally:
        original.cache_clear()
    assert not res.ok
    w = res.witness
    assert (w.f, w.g) == (vertex, FaceRef(3, (1, 2, 3)))
    assert not w.lhs.is_zero and w.rhs.is_zero


def test_the_naive_control_extends_through_extend_naive(monkeypatch):
    calls = []

    def spy(mu, f, g):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_name != "_images":
            frame = frame.f_back
        calls.append((frame is not None, f, g, mu))
        return extend_naive(mu, f, g)

    monkeypatch.setattr(extension, "extend_naive", spy)
    extension._images.cache_clear()
    try:
        res = check_consistency(ExtensionFamily(FamilyKind.NAIVE_FULL, 2, 1), FaceRef.full(2))
    finally:
        extension._images.cache_clear()
    assert not res.ok
    assert (res.witness.f, res.witness.g) == (FaceRef(2, (0, 1)), FaceRef(2, (1, 2)))
    assert res.witness.rhs == extend_naive(res.witness.mu.trace(FaceRef(1, (1,))), FaceRef(2, (1,)), res.witness.g)
    # extend_naive only builds the image tables: once per (local face, basis form)
    assert all(building for building, *_ in calls)
    tables = {}
    for _, fr, top, mu in calls:
        assert top == FaceRef.full(fr.n)
        tables.setdefault(fr, []).append(mu)
    assert FaceRef(2, (0, 1)) in tables
    for fr, mus in tables.items():
        assert mus == list(basis_forms(FULL, fr, 2, 1))


def test_naive_extension_rejects_a_form_off_the_face():
    # lambda_0 lambda_1 d lambda_1 lives on the triangle, not on the edge
    mu = bary_monomial(2, (1, 1, 0)).wedge(dlambda(2, (1,)))
    edge, T = FaceRef(2, (1, 2)), FaceRef.full(2)
    for kind in (FamilyKind.NAIVE_FULL, FamilyKind.FULL_PSI):
        with pytest.raises(ValueError, match="form lives on dimension 2, face has dimension 1"):
            extend_form(ExtensionFamily(kind, 2, 1), mu, edge, T)


def test_naive_extension_refuses_a_face_outside_g():
    mu = whitney(1, (0, 1))
    for f, g in [(FaceRef(3, (0, 1)), FaceRef(3, (1, 2, 3))), (FaceRef(2, (0, 1)), FaceRef.full(3))]:
        with pytest.raises(ValueError, match="is not a subface of"):
            extend_naive(mu, f, g)


def test_naive_extension_does_not_depend_on_the_storage_degree():
    # lambda_1 lambda_2 d lambda_1 on the edge [x1, x2] of the triangle
    mu = bary_monomial(1, (1, 1)).wedge(dlambda(1, (0,)))
    fam = ExtensionFamily(FamilyKind.NAIVE_FULL, 2, 1)
    edge, T = FaceRef(2, (1, 2)), FaceRef.full(2)
    assert extend_form(fam, mu.lift(3), edge, T) == extend_form(fam, mu, edge, T)
    face, tet = FaceRef(3, (0, 2, 3)), FaceRef.full(3)
    for b in basis_forms(FULL, face, 2, 1):
        assert extend_form(fam, b.lift(3), face, tet) == extend_form(fam, b, face, tet)


def test_naive_extension_rejects_a_non_member():
    # lambda_1^3 d lambda_2 has degree 3, outside P2 Lambda1 of the edge
    mu = bary_monomial(1, (3, 0)).wedge(dlambda(1, (1,)))
    edge, T = FaceRef(2, (1, 2)), FaceRef.full(2)
    for kind in (FamilyKind.NAIVE_FULL, FamilyKind.FULL_PSI):
        with pytest.raises(ValueError, match=r"^form is not a member of the degree-2 space on \(1, 2\)$"):
            extend_form(ExtensionFamily(kind, 2, 1), mu, edge, T)


def test_consistency_suite_builds_each_trace_table_entry_once(monkeypatch):
    # FULL_PSI, DUAL_FULL and NAIVE_FULL read the full space's entries, and
    # MINUS_BARYCENTRIC and DUAL_MINUS the reduced space's: one table serves them
    calls = Counter()
    real = spaces.membership

    def spy(w, kind, face, r, k):
        calls[kind, r, k, face] += 1
        return real(w, kind, face, r, k)

    monkeypatch.setattr(spaces, "membership", spy)
    spaces.trace_coordinates.cache_clear()
    try:
        assert all(res.passed for res in suite_consistency())
        built = calls.copy()
        # the table outlives the suite: a second proof takes no coordinates
        calls.clear()
        assert check_consistency(ExtensionFamily(FamilyKind.DUAL_FULL, 2, 1), FaceRef.full(3)).ok
        assert not calls
    finally:
        spaces.trace_coordinates.cache_clear()
    families = [(ExtensionFamily(kind, r, k), FaceRef.full(3))
                for kind, top_r in ((FamilyKind.MINUS_BARYCENTRIC, 3), (FamilyKind.FULL_PSI, 3),
                                    (FamilyKind.DUAL_FULL, 2), (FamilyKind.DUAL_MINUS, 2))
                for r in range(1, top_r + 1) for k in range(3)]
    families.append((ExtensionFamily(FamilyKind.NAIVE_FULL, 2, 1), FaceRef.full(2)))
    read = set()  # (family, table entry) pairs the proofs read
    for fam, h in families:
        for d in range(h.dim, 0, -1):
            faces = FaceRef.full(d).all_subfaces()
            for f in faces:
                for g in faces:
                    fg = f.intersect(g)
                    if g.dim == d - 1 and fg is not None:
                        read.add((fam, (fam.space_kind, fam.r, fam.k, f.to_local(fg))))
    entries = {entry for _, entry in read}
    assert len(entries) < len(read)
    # a local face of f names both f.dim (its n) and f cap g placed in f
    assert built == Counter({
        (kind, r, k, fr): len(basis_forms(kind, FaceRef.full(fr.n), r, k)) for kind, r, k, fr in entries
    })


def test_facet_pairs_give_the_all_pairs_verdict():
    # every family of the default sweep on the tetrahedron, and the naive control
    for kind, top_r in ((FamilyKind.MINUS_BARYCENTRIC, 3), (FamilyKind.FULL_PSI, 3),
                        (FamilyKind.DUAL_FULL, 2), (FamilyKind.DUAL_MINUS, 2)):
        for r in range(1, top_r + 1):
            for k in range(3):
                fam = ExtensionFamily(kind, r, k)
                assert check_consistency(fam, FaceRef.full(3)).ok == all_pairs_consistency(fam, FaceRef.full(3)).ok
    naive = ExtensionFamily(FamilyKind.NAIVE_FULL, 2, 1)
    assert check_consistency(naive, FaceRef.full(2)).ok is all_pairs_consistency(naive, FaceRef.full(2)).ok is False


def test_facet_pairs_catch_every_perturbed_image_table(monkeypatch):
    # lambda_0^r d lambda_1..k added to image 0 of one local-face table at a
    # time, for every table the tetrahedron's proof reads
    original = extension._images
    cases = 0
    for kind in (FamilyKind.MINUS_BARYCENTRIC, FamilyKind.FULL_PSI, FamilyKind.DUAL_FULL, FamilyKind.DUAL_MINUS):
        for r in (1, 2):
            for k in range(3):
                fam = ExtensionFamily(kind, r, k)
                for d in range(k, 4):
                    bump = canonicalize(d, k, [((r,) + (0,) * d, tuple(range(1, k + 1)), 1)])
                    for patched in FaceRef.full(d).all_subfaces():
                        if patched.dim < k:
                            continue

                        def images(family, fr, fam=fam, patched=patched, bump=bump):
                            out = original(family, fr)
                            return (out[0] + bump,) + out[1:] if (family, fr) == (fam, patched) else out

                        monkeypatch.setattr(extension, "_images", images)
                        facets = check_consistency(fam, FaceRef.full(3))
                        pairs = all_pairs_consistency(fam, FaceRef.full(3))
                        assert facets.ok is pairs.ok is False, (fam, patched)
                        assert _law_sides(fam, facets.witness) == (facets.witness.lhs, facets.witness.rhs)
                        cases += 1
    assert cases == 384


def _law_sides(fam, witness):
    """Both sides of the law for the witness's member at its faces of the tetrahedron."""
    f, g = witness.f, witness.g
    assert f.n == g.n == 3
    i = basis_forms(fam.space_kind, f, fam.r, fam.k).index(witness.mu)
    lhs = extension._images(fam, f)[i].trace(g)
    fg = f.intersect(g)
    if fg is None:
        return lhs, PolyForm.zero(g.dim, fam.k)
    coords = membership(witness.mu.trace(f.to_local(fg)), fam.space_kind, fg, fam.r, fam.k)
    return lhs, combination(g.dim, fam.k, zip(coords, extension._images(fam, g.to_local(fg))))


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


def test_shared_tables_stay_unmutated(monkeypatch):
    # combination and the moment images hand out table forms as they are, so
    # no caller may change one: snapshot each table entry when it is first
    # handed out and compare after a sweep, a consistency run and a decompose
    snapshots = {}

    def recording(table, fn):
        def spy(*args):
            out = fn(*args)
            snapshots.setdefault(id(out), (table, out, [(w.r, dict(w.coeffs)) for w in out]))
            return out

        return spy

    monkeypatch.setattr(spaces, "_reference_basis", recording("basis_forms", spaces._reference_basis))
    placed = recording("placed_basis", extension.placed_basis)
    for module in (extension, assemble, cli):
        monkeypatch.setattr(module, "placed_basis", placed)
    monkeypatch.setattr(extension, "_images", recording("_images", extension._images))

    assert all(res.passed for res in run_suites(max_n=2, max_r=2))
    assert all(res.passed for res in suite_consistency(max_r=1, max_k=1, dual_r=1))
    golden = Path(__file__).resolve().parent / "golden"
    out = io.StringIO()
    argv = ["decompose", "--mesh", str(golden / "two-triangles.mesh"), "--family", "full", "-r", "2", "-k", "1"]
    with redirect_stdout(out):
        assert cli.main(argv + ["--format", "json"]) == 0
    assert out.getvalue() == (golden / "two-triangles.full-r2-k1.json").read_text()

    assert {table for table, _, _ in snapshots.values()} == {"basis_forms", "placed_basis", "_images"}
    for table, forms, snapshot in snapshots.values():
        assert [(w.r, dict(w.coeffs)) for w in forms] == snapshot, table
