import copy
import pickle
import random
from fractions import Fraction
from itertools import combinations, product
from math import factorial

import pytest

from feec.combinat import multiindices
from feec.forms import (
    FaceRef,
    PolyForm,
    _face,
    bary_monomial,
    canonicalize,
    combination,
    dlambda,
    integral_over_face,
    one,
    psi_form,
    whitney,
)
from feec.spaces import FULL, FULL_ZERO, MINUS, MINUS_ZERO, basis_forms
from helpers import (
    FRACTION_COEFFS,
    INTEGER_COEFFS,
    expand,
    from_polyform,
    oracle_d,
    oracle_equal,
    oracle_bary_monomial,
    oracle_koszul,
    oracle_psi_form,
    oracle_psi_one_form,
    oracle_trace,
    oracle_wedge,
    random_polyform,
)

Q = Fraction


def test_canonicalize_partition_of_unity():
    w = canonicalize(2, 0, [((1, 0, 0), (), 1), ((0, 1, 0), (), 1), ((0, 0, 1), (), 1)])
    assert w.r == 1
    assert w.coeffs == {((1, 0, 0), ()): Q(1), ((0, 1, 0), ()): Q(1), ((0, 0, 1), ()): Q(1)}
    assert w == one(2)


def test_canonicalize_kills_sum_of_differentials():
    zero = (0, 0, 0)
    w = canonicalize(2, 1, [(zero, (0,), 1), (zero, (1,), 1), (zero, (2,), 1)])
    assert w.is_zero


def test_canonicalize_identifies_representations():
    # lambda_1 lambda_2 (dl1 + dl2) and -lambda_1 lambda_2 dl0 are the same form
    a = canonicalize(2, 1, [((0, 1, 1), (1,), 1), ((0, 1, 1), (2,), 1)])
    b = canonicalize(2, 1, [((0, 1, 1), (0,), -1)])
    assert a.coeffs == b.coeffs
    assert a == b


def test_canonicalize_idempotent_and_homogenizes():
    raw = [((0, 1, 0), (2,), 1), ((0, 0, 0), (1,), 2)]
    w = canonicalize(2, 1, raw, degree=2)
    again = canonicalize(2, 1, [(a, s, c) for a, s, c in w.terms()], degree=2)
    assert w.coeffs == again.coeffs
    assert all(sum(alpha) == 2 for alpha, _ in w.coeffs)
    assert oracle_equal(w, canonicalize(2, 1, raw))


def test_canonicalize_sorts_every_index_sequence_like_the_oracle():
    # every differential sequence of length <= min(n, 3) over 0..n, repeats and
    # the index 0 included, against the oracle's insertion sort
    repeated = vanished = False
    for n in range(5):
        alpha = tuple(range(n + 1))
        for k in range(min(n, 3) + 1):
            for sigma in product(range(n + 1), repeat=k):
                want = expand(n, [(alpha, sigma, 3)])
                assert from_polyform(canonicalize(n, k, [(alpha, sigma, 3)])) == want, (n, sigma)
                repeated = repeated or len(set(sigma)) < k
                vanished = vanished or not want
    assert repeated and vanished


def test_canonicalize_rejects_bad_input():
    with pytest.raises(ValueError):
        canonicalize(2, 1, [((0, 1), (1,), 1)])
    with pytest.raises(ValueError):
        canonicalize(2, 1, [((0, 0, 1), (3,), 1)])
    with pytest.raises(ValueError):
        PolyForm(2, 3, 0, {((0, 0, 0), (1, 2, 3)): Q(1)})


def test_equality_lifts_degrees():
    a = one(2)
    b = canonicalize(2, 0, [((2, 0, 0), (), 1)], degree=2) + canonicalize(
        2, 0, [((0, 0, 0), (), 1)], degree=0
    ) - canonicalize(2, 0, [((2, 0, 0), (), 1)], degree=2)
    assert a == b


def test_wedge_alternation_and_generator():
    d1 = dlambda(2, (1,))
    assert d1.wedge(d1).is_zero
    w = d1.wedge(dlambda(2, (2,)))
    assert w.coeffs == {((0, 0, 0), (1, 2)): Q(1)}


def test_wedge_whitney_example():
    w = whitney(2, (0, 1)).wedge(dlambda(2, (2,)))
    expected = canonicalize(2, 2, [((1, 0, 0), (1, 2), 1), ((0, 1, 0), (0, 2), -1)])
    assert w == expected
    assert oracle_equal(w, expected)


def test_wedge_graded_commutativity_and_associativity():
    rng = random.Random(7)
    for n, ka, kb in [(2, 1, 1), (3, 1, 2), (3, 1, 1), (4, 2, 2)]:
        a = random_polyform(rng, n, ka, 2)
        b = random_polyform(rng, n, kb, 1)
        sign = (-1) ** (ka * kb)
        assert a.wedge(b) == sign * b.wedge(a)
    a = random_polyform(rng, 3, 1, 1)
    b = random_polyform(rng, 3, 1, 2)
    c = random_polyform(rng, 3, 1, 1)
    assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


def test_wedge_order_overflow_rejected():
    with pytest.raises(ValueError):
        dlambda(2, (1, 2)).wedge(dlambda(2, (1,)))


def test_exterior_derivative_examples():
    w = bary_monomial(2, (0, 1, 0)).wedge(dlambda(2, (2,)))
    assert w.d() == dlambda(2, (1, 2))
    f = bary_monomial(2, (0, 2, 1))
    assert f.d().d().is_zero
    assert whitney(3, (0, 1, 2)).d() == canonicalize(
        3, 3, [((0, 0, 0, 0), (0, 1, 2), 3)], degree=0
    )
    # on a triangle the same derivative saturates the dimension and vanishes
    assert whitney(2, (0, 1, 2)).d().is_zero


def test_d_leibniz_randomized():
    rng = random.Random(11)
    for n in (2, 3):
        for k in range(n):
            f = random_polyform(rng, n, 0, 2)
            w = random_polyform(rng, n, k, 2)
            assert f.wedge(w).d() == f.d().wedge(w) + f.wedge(w.d())


def test_koszul_base_cases():
    assert dlambda(2, (1,)).koszul() == bary_monomial(2, (0, 1, 0))
    # with the origin at vertex 1 the base case picks up the constant shift
    shifted = dlambda(2, (1,)).koszul(origin=1)
    assert shifted == bary_monomial(2, (0, 1, 0)) - one(2)
    assert dlambda(2, (1, 2)).koszul().koszul().is_zero
    assert one(2).koszul().is_zero


def test_koszul_rejects_bad_origin():
    with pytest.raises(ValueError):
        dlambda(2, (1,)).koszul(origin=5)


def test_homotopy_example():
    w = bary_monomial(2, (0, 1, 0)).wedge(dlambda(2, (2,)))
    assert w.d().koszul() + w.koszul().d() == 2 * w


def test_homotopy_randomized_monomials():
    rng = random.Random(13)
    for n in (2, 3):
        for r in (1, 2, 3):
            for k in range(n + 1):
                for _ in range(10):
                    alpha = [0] * (n + 1)
                    for _ in range(r):
                        alpha[rng.randint(1, n)] += 1
                    sigma = tuple(sorted(rng.sample(range(1, n + 1), k)))
                    w = canonicalize(n, k, [(tuple(alpha), sigma, 1)], degree=r)
                    assert w.d().koszul() + w.koszul().d() == (r + k) * w


def test_koszul_leibniz_randomized():
    rng = random.Random(17)
    for n, ka, kb in [(2, 1, 1), (3, 1, 2), (3, 2, 1), (3, 1, 1)]:
        a = random_polyform(rng, n, ka, 2)
        b = random_polyform(rng, n, kb, 1)
        lhs = a.wedge(b).koszul()
        rhs = a.koszul().wedge(b) + (-1) ** ka * a.wedge(b.koszul())
        assert lhs == rhs


def test_trace_examples():
    edge = FaceRef(2, (1, 2))
    w = bary_monomial(2, (1, 0, 0)).wedge(dlambda(2, (1,)))
    assert w.trace(edge).is_zero
    rng = random.Random(19)
    v = random_polyform(rng, 2, 1, 2)
    assert v.trace(FaceRef.full(2)) == v
    assert whitney(2, (1, 2)).trace(edge) == whitney(1, (0, 1))


def test_trace_functoriality():
    rng = random.Random(23)
    T = FaceRef.full(3)
    g = FaceRef(3, (0, 2, 3))
    f = FaceRef(3, (0, 3))
    w = random_polyform(rng, 3, 1, 2)
    via_g = w.trace(g).trace(g.to_local(f))
    assert via_g == w.trace(f)


def test_trace_of_high_order_form_is_zero():
    w = dlambda(2, (1, 2))
    assert w.trace(FaceRef(2, (0, 1))).is_zero


def test_face_hash_agrees_with_equality():
    # one object per value: equality is identity, and the hash is the object's own
    faces = [f for n in (1, 2, 3) for f in FaceRef.full(n).all_subfaces()]
    for f in faces:
        assert FaceRef(f.n, f.indices) is f and hash(FaceRef(f.n, f.indices)) == hash(f)
        assert repr(f) == f"FaceRef(n={f.n}, indices={f.indices})"
        assert f.subfaces(0) == [FaceRef(f.n, (i,)) for i in f.indices]
        assert all(s is FaceRef(f.n, s.indices) for j in range(f.dim + 1) for s in f.subfaces(j))
        for g in faces:
            if g.n == f.n:
                common = tuple(i for i in f.indices if i in g.indices)
                assert f.intersect(g) is (FaceRef(f.n, common) if common else None)
                if set(g.indices) <= set(f.indices):
                    assert f.to_local(g) is FaceRef(f.dim, tuple(f.indices.index(i) for i in g.indices))
    assert len(set(faces)) == len(faces)
    assert FaceRef(2, (0, 1)) != FaceRef(3, (0, 1))
    # a face is not a tuple, and does not compare equal to one
    assert FaceRef(2, (0, 1)) != (2, (0, 1)) and not isinstance(FaceRef(2, (0, 1)), tuple)
    # a refused face raises on every call and is never kept
    kept = _face.cache_info().currsize
    for n, indices in [(2, ()), (2, (1, 0)), (2, (0, 3)), (-1, (0,))]:
        for _ in range(2):
            with pytest.raises(ValueError):
                FaceRef(n, indices)
    assert _face.cache_info().currsize == kept
    # a copy or a round trip through pickle is the interned face
    f = FaceRef(3, (1, 2))
    assert copy.copy(f) is f and copy.deepcopy(f) is f and pickle.loads(pickle.dumps(f)) is f


def test_whitney_examples():
    assert whitney(2, (2,)) == bary_monomial(2, (0, 0, 1))
    w = whitney(2, (0, 1))
    expected = canonicalize(2, 1, [((1, 0, 0), (1,), 1), ((0, 1, 0), (0,), -1)])
    assert w == expected


def test_whitney_trace_characterization():
    for n in (2, 3):
        for k in range(n + 1):
            for sigma in combinations(range(n + 1), k + 1):
                w = whitney(n, sigma)
                for face in FaceRef.full(n).subfaces(k):
                    tr = w.trace(face)
                    if face.indices == sigma:
                        assert tr == dlambda(k, tuple(range(1, k + 1)))
                    else:
                        assert tr.is_zero


def test_whitney_identity_and_partition():
    # alternating-sum identity over subsimplex boundaries
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            for vals in combinations(range(n + 1), k + 1):
                total = PolyForm.zero(n, k - 1)
                for j in range(k + 1):
                    rest = vals[:j] + vals[j + 1 :]
                    term = bary_monomial(n, tuple(1 if i == vals[j] else 0 for i in range(n + 1)))
                    total = total + (-1) ** j * term.wedge(whitney(n, rest))
                assert total.is_zero


def test_partition_identity_sums_to_differential():
    for n in (2, 3, 4):
        for k in range(0, n):
            for vals in combinations(range(n + 1), k + 1):
                dls = dlambda(n, vals)
                total = PolyForm.zero(n, k + 1)
                for j in range(n + 1):
                    if j in vals:
                        continue
                    lam_j = bary_monomial(n, tuple(1 if i == j else 0 for i in range(n + 1)))
                    phi_j = lam_j.wedge(dls) - dlambda(n, (j,)).wedge(whitney(n, vals))
                    total = total + phi_j
                assert total == dls


def test_koszul_whitney_identity():
    # contraction of the top differential reproduces the Whitney form up to
    # its constant part at the origin vertex
    for n in (2, 3, 4):
        for k in range(0, n):
            for sigma in combinations(range(n + 1), k + 1):
                dls = dlambda(n, sigma)
                w = whitney(n, sigma)
                assert dls.koszul() == w - w.eval_at_vertex(0)


def test_psi_one_form_examples():
    T = FaceRef.full(2)
    alpha = (1, 1, 0)
    assert psi_form(alpha, T, (1,)) == dlambda(2, (1,))
    edge = FaceRef(2, (1, 2))
    w = psi_form((0, 1, 1), edge, (1,))
    assert w == canonicalize(2, 1, [((0, 0, 0), (1,), Q(1, 2)), ((0, 0, 0), (2,), Q(-1, 2))], degree=0)
    # zero exponent leaves the differential untouched
    assert psi_form((0, 0, 2), edge, (1,)) == dlambda(2, (1,))


def test_psi_one_forms_sum_to_zero():
    edge = FaceRef(2, (1, 2))
    total = psi_form((0, 1, 1), edge, (1,)) + psi_form((0, 1, 1), edge, (2,))
    assert total.is_zero


def test_psi_form_examples():
    edge = FaceRef(2, (1, 2))
    alpha = (0, 1, 1)
    w = bary_monomial(2, (0, 1, 1)).wedge(psi_form(alpha, edge, (1,)))
    expected = canonicalize(
        2, 1, [((0, 1, 1), (1,), Q(1, 2)), ((0, 1, 1), (2,), Q(-1, 2))]
    )
    assert w == expected


def test_psi_trace_recovers_face_differential():
    for n in (2, 3):
        T = FaceRef.full(n)
        for face in T.all_subfaces():
            if face.dim == 0:
                continue
            for r in (1, 2, 3):
                for alpha_local in multiindices(face.dim, r):
                    alpha = [0] * (n + 1)
                    for p, e in zip(face.indices, alpha_local):
                        alpha[p] = e
                    for k in range(1, face.dim + 1):
                        for sigma in combinations(face.indices, k):
                            w = psi_form(tuple(alpha), face, sigma)
                            local = tuple(face.position(s) for s in sigma)
                            assert w.trace(face) == dlambda(face.dim, local)


def test_psi_requires_positive_degree():
    with pytest.raises(ValueError):
        psi_form((0, 0, 0), FaceRef(2, (1, 2)), (1,))


def same_form(got, want):
    """Equal shape and coefficients, and the same type for every coefficient."""
    settled = all(type(c) is int or c.denominator != 1 for c in got.coeffs.values())
    types = {key: type(c) for key, c in got.coeffs.items()} == {key: type(c) for key, c in want.coeffs.items()}
    return settled and types and (got.n, got.k, got.r, got.coeffs) == (want.n, want.k, want.r, want.coeffs)


def test_direct_generators_match_the_canonicalize_oracle():
    # every face of the n-simplex, n <= 4, |alpha| <= 3, every sigma on the face; faces with
    # vertex 0 exercise the d lambda_0 elimination, and alpha_i / |alpha| is often not an integer
    fractions = 0
    for n in range(5):
        for face in FaceRef.full(n).all_subfaces():
            for deg in range(4):
                for local in multiindices(face.dim, deg):
                    alpha = face.place(local)
                    assert same_form(bary_monomial(n, alpha), oracle_bary_monomial(n, alpha))
                    if deg == 0:
                        continue
                    for i in face.indices:
                        got = psi_form(alpha, face, (i,))
                        assert same_form(got, oracle_psi_one_form(alpha, face, i))
                        fractions += any(type(c) is Fraction for c in got.coeffs.values())
                    for k in range(1, min(face.dim + 1, n) + 1):
                        for sigma in combinations(face.indices, k):
                            assert same_form(psi_form(alpha, face, sigma), oracle_psi_form(alpha, face, sigma))
    assert fractions


def test_memoized_constructors_still_validate():
    edge = FaceRef(3, (1, 2))
    assert psi_form((0, 1, 1, 0), edge, (1,)) == oracle_psi_one_form((0, 1, 1, 0), edge, 1)
    assert psi_form((0, 1, 1, 0), edge, (1, 2)).is_zero
    with pytest.raises(ValueError, match="leaves face"):
        psi_form((1, 1, 1, 0), edge, (1,))
    with pytest.raises(ValueError, match="not on face"):
        psi_form((0, 1, 1, 0), edge, (3,))
    with pytest.raises(ValueError, match="leaves face"):
        psi_form((0, 1, 1, 1), edge, (1, 2))
    with pytest.raises(ValueError, match="not on face"):
        psi_form((0, 1, 1, 0), edge, (1, 3))
    assert bary_monomial(3, (0, 1, 1, 0)) == oracle_bary_monomial(3, (0, 1, 1, 0))
    with pytest.raises(ValueError):
        bary_monomial(3, (0, 1, -1, 2))
    with pytest.raises(ValueError):
        bary_monomial(3, (0, 1, 1))


def test_contract_examples():
    alpha = (0, 1, 1)
    w = dlambda(2, (1,)).contract(alpha, 0)
    assert w == Q(1, 2) * one(2)
    edge = FaceRef(2, (1, 2))
    psi = psi_form(alpha, edge, (1,))
    assert psi.contract(alpha, 0).is_zero
    two = dlambda(2, (1, 2)).contract(alpha, 0)
    expected = Q(1, 2) * dlambda(2, (2,)) - Q(1, 2) * dlambda(2, (1,))
    assert two == expected


def test_contract_preconditions():
    with pytest.raises(ValueError):
        one(2).contract((0, 1, 0), 0)
    with pytest.raises(ValueError):
        dlambda(2, (1,)).contract((1, 1, 0), 0)


def univariate_integral(coeffs):
    """Exact integral over [0, 1] of sum coeffs[i] x^i."""
    return sum(Q(c, i + 1) for i, c in enumerate(coeffs))


def test_integral_examples():
    w = bary_monomial(1, (1, 1)).wedge(dlambda(1, (1,)))
    assert integral_over_face(w) == univariate_integral([0, 1, -1])
    assert integral_over_face(w) == Q(1, 6)
    assert integral_over_face(dlambda(1, (1,))) == Q(1)
    assert integral_over_face(dlambda(2, (1, 2))) == Q(1, 2)


def test_integral_requires_top_order():
    with pytest.raises(ValueError):
        integral_over_face(dlambda(2, (1,)))


def test_integral_monomial_formula_against_iterated_oracle():
    # iterate the unit-triangle integral of x^a y^b (1-x-y)^c by expanding
    # the bracket and integrating x, then y, one power at a time
    def triangle_integral(a, b, c):
        total = Q(0)
        for j in range(c + 1):
            for i in range(c - j + 1):
                coeff = Q(
                    (-1) ** (i + j) * factorial(c),
                    factorial(i) * factorial(j) * factorial(c - i - j),
                )
                # integral of x^(a+i) y^(b+j) over the triangle x,y>=0, x+y<=1
                p, q = a + i, b + j
                # int_0^1 x^p (1-x)^(q+1)/(q+1) dx via the Beta function
                inner = Q(factorial(p) * factorial(q + 1), factorial(p + q + 2)) / (q + 1)
                total += coeff * inner
        return total

    for a, b, c in [(0, 0, 0), (1, 0, 0), (1, 1, 1), (2, 1, 0), (2, 2, 2)]:
        w = bary_monomial(2, (c, a, b)).wedge(dlambda(2, (1, 2)))
        assert integral_over_face(w) == triangle_integral(a, b, c)


def test_eval_at_vertex():
    w = whitney(2, (0, 1))
    at0 = w.eval_at_vertex(0)
    assert at0 == dlambda(2, (1,))
    assert w.eval_at_vertex(2).is_zero


def test_chain_identities_dimension_four():
    rng = random.Random(43)
    for k in range(5):
        for r in (1, 4):
            for _ in range(5):
                w = random_polyform(rng, 4, k, r)
                assert w.d().d().is_zero
                assert w.koszul().koszul().is_zero


def test_oracle_agreement_randomized():
    rng = random.Random(29)
    for n in (1, 2, 3):
        for k in range(n + 1):
            for _ in range(5):
                a = random_polyform(rng, n, k, 2)
                b = random_polyform(rng, n, k, 2)
                assert from_polyform(a + b) == from_polyform(
                    canonicalize(n, k, list(a.terms()) + list(b.terms()), degree=2)
                )
                assert oracle_equal(a - a, PolyForm.zero(n, k))


def test_wedge_against_oracle_product():
    rng = random.Random(47)
    for n, ka, kb in [(2, 0, 1), (2, 1, 1), (3, 1, 2), (3, 0, 3), (4, 2, 1)]:
        for _ in range(8):
            a = random_polyform(rng, n, ka, rng.randint(0, 2))
            b = random_polyform(rng, n, kb, rng.randint(0, 2))
            assert from_polyform(a.wedge(b)) == oracle_wedge(from_polyform(a), from_polyform(b))


def test_derivative_against_oracle_derivative():
    for coeffs in (INTEGER_COEFFS, FRACTION_COEFFS):
        rng = random.Random(53)
        for n in (1, 2, 3, 4):
            for k in range(n):
                for _ in range(8):
                    w = random_polyform(rng, n, k, rng.randint(1, 3), coeffs=coeffs)
                    assert from_polyform(w.d()) == oracle_d(from_polyform(w))


def test_koszul_against_oracle_contraction():
    for coeffs in (INTEGER_COEFFS, FRACTION_COEFFS):
        rng = random.Random(59)
        for n in (1, 2, 3):
            for k in range(n + 1):
                for r in range(4):
                    for _ in range(2):
                        w = random_polyform(rng, n, k, r, coeffs=coeffs)
                        for origin in range(n + 1):
                            got = from_polyform(w.koszul(origin))
                            assert got == oracle_koszul(from_polyform(w), origin), (n, k, r, origin)


def test_trace_against_oracle_pullback():
    # a face whose first vertex lies in sigma meets its own d lambda_0, which
    # the trace eliminates; every subface of every simplex up to n = 4 is swept
    for coeffs in (INTEGER_COEFFS, FRACTION_COEFFS):
        rng = random.Random(67)
        for n in (1, 2, 3, 4):
            for k in range(n + 1):
                for r in range(4):
                    for _ in range(2):
                        w = random_polyform(rng, n, k, r, coeffs=coeffs)
                        expanded = from_polyform(w)
                        for face in FaceRef.full(n).all_subfaces():
                            t = w.trace(face)
                            assert all(type(c) is int or c.denominator != 1 for c in t.coeffs.values())
                            assert all(t.coeffs.values())
                            got = from_polyform(t)
                            assert got == oracle_trace(expanded, n, face.indices), (n, k, r, face)


def test_trace_cancels_through_the_eliminated_d_lambda_0():
    # on the edge [x1, x2] the face's own d lambda_0 is d lambda_1 = -d mu_1
    edge = FaceRef(2, (1, 2))
    flat = canonicalize(2, 1, [((0, 1, 0), (1,), 1), ((0, 1, 0), (2,), 1)])
    assert flat.trace(edge).coeffs == {}
    # on the triangle [x1, x2, x3]: d mu_0 ^ d mu_1 + d mu_0 ^ d mu_2 = 0
    side = FaceRef(3, (1, 2, 3))
    pair = canonicalize(3, 2, [((0, 0, 0, 0), (1, 2), Fraction(1, 3)), ((0, 0, 0, 0), (1, 3), Fraction(1, 3))])
    assert pair.trace(side).coeffs == {}
    # two halves sum to a whole, stored as an int
    halves = canonicalize(2, 1, [((0, 1, 0), (1,), Fraction(1, 2)), ((0, 1, 0), (2,), Fraction(-1, 2))])
    assert halves.trace(edge).coeffs == {((1, 0), (1,)): -1}
    assert type(halves.trace(edge).coeffs[(1, 0), (1,)]) is int
    assert halves.trace(edge).r == 1


def test_lift_against_oracle():
    for coeffs in (INTEGER_COEFFS, FRACTION_COEFFS):
        rng = random.Random(71)
        for n in (1, 2, 3):
            for k in range(n + 1):
                for r in range(4):
                    w = random_polyform(rng, n, k, r, coeffs=coeffs)
                    expanded = from_polyform(w)
                    for extra in (1, 2):
                        lifted = w.lift(w.r + extra)
                        assert from_polyform(lifted) == expanded
                        assert lifted.is_zero or all(sum(a) == w.r + extra for a, _ in lifted.coeffs)


def _chained(n, k, terms):
    """The oracle for `combination`: the terms scaled and added one at a time."""
    out = PolyForm.zero(n, k)
    for c, w in terms:
        out = out + c * w
    return out


def test_combination_matches_chained_addition():
    rng = random.Random(61)
    for n in (1, 2, 3):
        for k in range(n + 1):
            for _ in range(10):
                terms = [(1, PolyForm.zero(n, k))]
                for _ in range(rng.randint(0, 5)):
                    c = Q(rng.randint(-3, 3), rng.randint(1, 3))
                    w = random_polyform(rng, n, k, rng.randint(0, 3))
                    terms.append((c, w))
                    if rng.random() < 0.3:
                        # the same term again at a higher storage degree, cancelling it
                        terms.append((-c, w.lift(w.r + 1)))
                rng.shuffle(terms)
                oracle = _chained(n, k, terms)
                got = combination(n, k, terms)
                assert got == oracle
                assert from_polyform(got) == from_polyform(oracle)
                live = [w.r for c, w in terms if c and not w.is_zero]
                assert got.is_zero or got.r == max(live)
    assert combination(2, 1, []) == PolyForm.zero(2, 1)
    assert combination(2, 1, [(3, PolyForm.zero(2, 2))]).is_zero
    with pytest.raises(ValueError):
        combination(2, 1, [(1, dlambda(3, (1,)))])
    with pytest.raises(ValueError):
        combination(2, 1, [(1, dlambda(2, (1, 2)))])


def test_combination_hands_back_a_lone_unit_term_and_matches_chained_addition_otherwise():
    rng = random.Random(67)
    for n in (1, 2, 3):
        for k in range(n + 1):
            for _ in range(6):
                w = random_polyform(rng, n, k, rng.randint(0, 3), coeffs=FRACTION_COEFFS)
                if w.is_zero:
                    continue
                for unit in (1, Q(2, 2), True):
                    assert combination(n, k, [(unit, w)]) is w
                # one non-unit term is scaled into a fresh form
                for c in (2, -1, Q(1, 2), Q(-3, 2)):
                    got = combination(n, k, [(c, w)])
                    assert got is not w
                    _same_form(got, _chained(n, k, [(c, w)]))
                # a unit term among zero coefficients and zero forms, of any order
                other = random_polyform(rng, n, k, rng.randint(0, 3))
                dead = [(0, other), (Q(0), w.lift(w.r + 1)), (3, PolyForm.zero(n, k)), (-1, PolyForm.zero(n, n))]
                terms = dead + [(1, w)]
                rng.shuffle(terms)
                got = combination(n, k, terms)
                assert got is w
                _same_form(got, _chained(n, k, terms))


def _same_form(got, want):
    """Equal coefficient dicts at one storage degree, with equal coefficient types."""
    assert (got.n, got.k, got.r) == (want.n, want.k, want.r)
    assert got.coeffs == want.coeffs
    assert {key: type(c) for key, c in got.coeffs.items()} == {key: type(c) for key, c in want.coeffs.items()}


def test_scaling_and_adding_match_combination():
    rng = random.Random(89)
    scalars = (0, 1, -2, 3, True, False, Q(1, 2), Q(-3, 2), Q(4, 2), Q(0))
    for n in (1, 2, 3):
        for k in range(n + 1):
            for _ in range(4):
                w = random_polyform(rng, n, k, rng.randint(0, 2), coeffs=FRACTION_COEFFS)
                v = random_polyform(rng, n, k, rng.randint(0, 3), coeffs=INTEGER_COEFFS)
                for c in scalars:
                    want = combination(n, k, [(c, w)])
                    _same_form(c * w, want)
                    _same_form(w * c, want)
                _same_form(w + v, combination(n, k, [(1, w), (1, v)]))
                _same_form(v + w, combination(n, k, [(1, v), (1, w)]))
                _same_form(w - w.lift(w.r + 1), PolyForm.zero(n, k))
                # a partial cancellation drops exactly the cancelled keys
                part = canonicalize(n, k, [(*key, c) for key, c in list(w.coeffs.items())[:1]], degree=w.r)
                _same_form(w - part, combination(n, k, [(1, w), (-1, part)]))
                assert not set(part.coeffs) & set((w - part).coeffs)


def test_scaling_settles_integral_products_and_adding_lifts():
    half = Q(1, 2) * dlambda(2, (1,)) + bary_monomial(2, (0, 1, 0)).wedge(dlambda(2, (2,)))
    assert {type(c) for c in half.coeffs.values()} == {int, Q}
    doubled = 2 * half
    assert all(type(c) is int for c in doubled.coeffs.values())
    assert all(type(c) is int for c in (Q(4, 2) * half).coeffs.values())
    assert all(type(c) is int for c in (half * Q(-2)).coeffs.values())
    assert (True * half).coeffs == half.coeffs and (False * half).is_zero
    mixed = dlambda(2, (1,)) + whitney(2, (0, 2)).lift(2)
    assert mixed.r == 2
    _same_form(mixed, combination(2, 1, [(1, dlambda(2, (1,))), (1, whitney(2, (0, 2)).lift(2))]))
    sum_of_halves = Q(1, 2) * dlambda(2, (1,)) + Q(1, 2) * dlambda(2, (1,))
    _same_form(sum_of_halves, dlambda(2, (1,)))


def test_form_arithmetic_refuses_inexact_scalars_and_non_forms():
    w = whitney(2, (0, 1))
    for bad in (0.5, 0.0, 2.0):
        with pytest.raises(TypeError):
            w * bad
        with pytest.raises(TypeError):
            bad * w
    assert w.__add__(3) is NotImplemented
    assert w.__add__(Q(1)) is NotImplemented
    with pytest.raises(TypeError):
        w + 3
    with pytest.raises(TypeError):
        3 + w
    with pytest.raises(ValueError, match="different shape"):
        w + dlambda(2, (1, 2))


def test_full_face_is_one_object_per_dimension():
    for n in range(5):
        T = FaceRef.full(n)
        assert T is FaceRef.full(n)
        assert T == FaceRef(n, tuple(range(n + 1))) and T.dim == n
    for n in (-1, -3):
        with pytest.raises(ValueError):
            FaceRef.full(n)


def test_whitney_forms_and_subface_lists_are_tables():
    assert whitney(2, [0, 1]) == whitney(2, (0, 1))
    assert whitney(2, iter((0, 1))) is whitney(2, (0, 1))
    with pytest.raises(ValueError, match="strictly increasing"):
        whitney(2, [1, 0])
    T = FaceRef.full(3)
    assert type(T.all_subfaces()) is tuple and T.all_subfaces() is T.all_subfaces()
    assert T.intersect(FaceRef(3, (1, 2))) is T.intersect(FaceRef(3, (1, 2)))


def test_intersect_returns_the_face_from_the_subface_table():
    # equal faces are one object, so tables keyed by faces match on identity
    tables = [{f.indices: f for f in FaceRef.full(n).all_subfaces()} for n in range(5)]
    for n, table in enumerate(tables):
        assert table[tuple(range(n + 1))] is FaceRef.full(n)
        for f in FaceRef.full(n).all_subfaces():
            for g in FaceRef.full(n).all_subfaces():
                common = tuple(i for i in f.indices if i in g.indices)
                expected = table[common] if common else None
                assert f.intersect(g) is expected
                assert FaceRef(n, f.indices).intersect(FaceRef(n, g.indices)) is expected
                if common == f.indices:
                    assert g.to_local(f) is tables[g.dim][tuple(g.indices.index(i) for i in f.indices)]


def test_traces_compose_through_a_facet():
    # the kernel fact behind proving the consistency law on facet pairs
    for n in range(1, 5):
        T = FaceRef.full(n)
        for kind in (FULL, MINUS, FULL_ZERO, MINUS_ZERO):
            for r in (1, 2):
                for k in range(n + 1):
                    for w in basis_forms(kind, T, r, k):
                        for g1 in T.subfaces(n - 1):
                            on_g1 = w.trace(g1)
                            for g in g1.all_subfaces():
                                assert on_g1.trace(g1.to_local(g)) == w.trace(g)


def test_intersect_refuses_faces_of_different_simplices():
    # as `contains` and `to_local` do: the two faces share no parent
    edge, other = FaceRef(2, (0, 1)), FaceRef(3, (1, 2))
    assert not edge.contains(other) and not other.contains(edge)
    for a, b in ((edge, other), (other, edge)):
        with pytest.raises(ValueError, match="are faces of different simplices"):
            a.intersect(b)
    assert edge.intersect(FaceRef(2, (1, 2))) == FaceRef(2, (1,))
