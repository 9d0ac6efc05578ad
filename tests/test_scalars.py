"""The scalar contract: exact rationals, int or Fraction, never float.

Forms built from integer data keep int coefficients through every kernel
operation, so the int fast path cannot silently fall back to Fraction
arithmetic; values that may carry a denominator are int or Fraction; an
inexact scalar is refused where coefficients enter.
"""

import random
from decimal import Decimal
from fractions import Fraction
from itertools import combinations

import pytest

from feec import linalg
from feec.combinat import multiindices
from feec.dof import DofFunctional, apply_dof, build_dofs
from feec.forms import (
    FaceRef,
    PolyForm,
    bary_monomial,
    canonicalize,
    combination,
    dlambda,
    integral_over_face,
    psi_form,
    whitney,
)
from feec.spaces import FULL, FULL_ZERO, MINUS, MINUS_ZERO, Family, basis_forms, membership

INEXACT = (0.25, Decimal("0.25"), 0.25 + 0j)


def only_int(w: PolyForm) -> bool:
    return all(type(c) is int for c in w.coeffs.values())


def exact(x) -> bool:
    return type(x) is int or type(x) is Fraction


def integer_forms(n: int) -> list[PolyForm]:
    """Whitney forms, Bernstein monomials and d lambda_sigma on the n-simplex."""
    out = [whitney(n, s) for j in range(n + 1) for s in combinations(range(n + 1), j + 1)]
    out += [bary_monomial(n, a) for r in range(3) for a in multiindices(n, r)]
    out += [dlambda(n, s) for j in range(1, n + 1) for s in combinations(range(n + 1), j)]
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_forms_from_integer_data_hold_only_int(n):
    forms = integer_forms(n)
    assert all(only_int(w) for w in forms)
    faces = FaceRef.full(n).all_subfaces()
    for i, a in enumerate(forms):
        derived = [a.d(), a.lift(a.r + 2), -a, a * 3]
        derived += [a.koszul(v) for v in range(n + 1)]
        derived += [a.trace(f) for f in faces]
        for b in forms[i::7]:
            if a.k + b.k <= n:
                derived.append(a.wedge(b))
            if a.k == b.k:
                derived += [a + b, a - b]
        assert all(only_int(w) for w in derived), a
    for k in range(n + 1):
        same_order = [w for w in forms if w.k == k]
        mix = combination(n, k, ((j - 2, w) for j, w in enumerate(same_order)))
        assert only_int(mix)
        assert only_int(combination(n, k, [(Fraction(4, 2), w) for w in same_order]))


def settled(w: PolyForm) -> bool:
    """Every coefficient is an int or a Fraction with a denominator, never an integral Fraction."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in w.coeffs.values())


def fraction_forms(n: int) -> list[PolyForm]:
    """Half-scaled Whitney forms and psi forms, whose coefficients carry denominators."""
    out = [whitney(n, s) * Fraction(1, 2) for j in range(n + 1) for s in combinations(range(n + 1), j + 1)]
    for face in FaceRef.full(n).all_subfaces()[n + 1 :]:
        sigmas = [s for j in range(1, min(face.dim, 2) + 1) for s in combinations(face.indices, j)]
        out += [psi_form(face.place(a), face, s) for a in multiindices(face.dim, 2) for s in sigmas]
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_integral_sums_of_fractions_are_int(n):
    # 1/2 + 1/2 made inside an operator must come out as the int 1
    half = canonicalize(1, 0, [((1, 0), (), Fraction(1, 2)), ((0, 1), (), Fraction(1, 2))])
    assert type(half.lift(2).coeffs[((1, 1), ())]) is int
    forms = fraction_forms(n)
    assert all(settled(w) for w in forms)
    assert any(type(c) is Fraction for w in forms for c in w.coeffs.values())
    faces = FaceRef.full(n).all_subfaces()
    for i, a in enumerate(forms):
        derived = [a.d(), a.lift(a.r + 2), a * 2]
        derived += [a.koszul(v) for v in range(n + 1)]
        derived += [a.trace(f) for f in faces]
        if a.k:
            derived += [a.contract(tuple((i + 1) * (i != l) for i in range(n + 1)), l) for l in (0, n)]
        for b in forms[i::11]:
            if a.k + b.k <= n:
                derived.append(a.wedge(b * 2))
            if a.k == b.k:
                derived += [a + b, a + a, combination(n, a.k, [(2, a), (Fraction(1, 3), b)])]
                derived.append(combination(n, a.k, [(Fraction(1, 2), a), (Fraction(3, 2), a)]))
        assert all(settled(w) for w in derived), a


@pytest.mark.parametrize(
    "kind", [FULL, MINUS, FULL_ZERO, MINUS_ZERO], ids=["full", "minus", "full-zero", "minus-zero"]
)
def test_membership_of_a_basis_member_is_int(kind):
    for m in range(1, 4):
        for r in range(4):
            for k in range(m + 1):
                basis = basis_forms(kind, FaceRef.full(m), r, k)
                for i, b in enumerate(basis):
                    coords = membership(b, kind, FaceRef.full(m), r, k)
                    assert coords == [int(j == i) for j in range(len(basis))]
                    assert all(type(c) is int for c in coords)


def test_membership_settles_integral_coordinates_to_int():
    T = FaceRef.full(2)
    B = basis_forms(FULL, T, 1, 1)
    w = combination(2, 1, [(Fraction(1, 2), B[0]), (Fraction(1, 2), B[1]), (1, B[2])])
    coords = membership(w, FULL, T, 1, 1)
    assert coords == [Fraction(1, 2), Fraction(1, 2), 1, 0, 0, 0]
    assert [type(c) for c in coords] == [Fraction, Fraction, int, int, int, int]
    rng = random.Random(5)
    for kind in (FULL, MINUS, FULL_ZERO, MINUS_ZERO):
        for m in range(1, 4):
            for r in range(3):
                for k in range(m + 1):
                    basis = basis_forms(kind, FaceRef.full(m), r, k)
                    weights = [rng.choice((Fraction(1, 2), Fraction(-1, 2), 1, 0)) for _ in basis]
                    coords = membership(combination(m, k, zip(weights, basis)), kind, FaceRef.full(m), r, k)
                    assert coords == weights
                    assert all(type(c) is int or c.denominator != 1 for c in coords)


def test_values_with_denominators_are_exact():
    # psi forms carry the alpha_i / |alpha| weights, so Fractions appear
    psi = psi_form((1, 2, 0), FaceRef(2, (0, 1)), (0,))
    assert any(type(c) is Fraction for c in psi.coeffs.values())
    assert all(exact(c) for c in psi.coeffs.values())
    for n in (1, 2, 3):
        for w in integer_forms(n):
            top = w.wedge(dlambda(n, tuple(range(1, n - w.k + 1))))
            assert exact(integral_over_face(top))
    for family in Family:
        for k in range(3):
            dofs = build_dofs(family, 2, 2, k)
            for b in basis_forms(FULL if family is Family.FULL else MINUS, FaceRef.full(2), 2, k):
                assert all(exact(apply_dof(dof, b)) for dof in dofs)
    rows = [[2, 1, 0], [1, 3, Fraction(1, 2)], [0, 1, 4]]
    x = linalg.solve(rows, [1, 2, 3])
    inv = linalg.inverse([dict(enumerate(row)) for row in rows])
    assert x is not None and inv is not None
    assert all(exact(v) for v in x) and all(type(v) is int for col in inv[0].values() for v in col)
    assert type(inv[1]) is int and inv[1] > 1
    unimodular = linalg.inverse([{0: 1, 1: 2}, {1: 1}])
    assert unimodular == ({0: [1, -2], 1: [0, 1]}, 1)
    assert all(type(v) is int for col in unimodular[0].values() for v in col)


def test_integral_of_an_integral_form_is_int():
    # 2 d lambda_1 ^ d lambda_2 integrates to 2 * 1/2! = 1 on the unit-volume triangle
    top = dlambda(2, (1, 2)) * 2
    assert integral_over_face(top) == 1 and type(integral_over_face(top)) is int
    moment = DofFunctional(FaceRef.full(2), bary_monomial(2, (0, 0, 0)))
    assert apply_dof(moment, top) == 1 and type(apply_dof(moment, top)) is int
    assert integral_over_face(dlambda(2, (1, 2))) == Fraction(1, 2)


@pytest.mark.parametrize("c", INEXACT, ids=lambda c: type(c).__name__)
def test_scaling_by_an_inexact_scalar_is_refused(c):
    w = dlambda(2, (1,))
    with pytest.raises(TypeError):
        w * c
    with pytest.raises(TypeError):
        c * w
    assert (w * Fraction(1, 10)).coeffs == {((0, 0, 0), (1,)): Fraction(1, 10)}
    assert (w * True).coeffs == {((0, 0, 0), (1,)): 1}


@pytest.mark.parametrize("c", INEXACT + (0.0,), ids=lambda c: type(c).__name__)
def test_canonicalize_refuses_an_inexact_coefficient(c):
    with pytest.raises(TypeError):
        canonicalize(2, 1, [((0, 0, 0), (1,), 1), ((0, 1, 0), (2,), c)])
    w = canonicalize(2, 1, [((0, 0, 0), (1,), Fraction(6, 3))])
    assert w.coeffs == {((0, 0, 0), (1,)): 2} and only_int(w)


@pytest.mark.parametrize("c", INEXACT + (0.0,), ids=lambda c: type(c).__name__)
def test_combination_refuses_an_inexact_coefficient(c):
    w = dlambda(2, (1,))
    with pytest.raises(TypeError):
        combination(2, 1, [(1, w), (c, w)])
    # checked even when the form contributes nothing
    with pytest.raises(TypeError):
        combination(2, 1, [(c, PolyForm.zero(2, 1))])
