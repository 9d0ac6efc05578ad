from fractions import Fraction
from itertools import combinations

import pytest

from feec import verify
from feec.combinat import multiindices
from feec.extension import ConsistencyWitness
from feec.forms import FaceRef, PolyForm, canonicalize
from feec.spaces import FULL, FULL_ZERO
from feec.verify import CheckResult, SUITE_BOUNDS, SUITES, builtin_meshes, run_suites


def test_builtin_meshes_shapes():
    meshes = builtin_meshes()
    assert set(meshes) == {"triangle", "two-triangles", "fan", "tet", "two-tets"}
    assert meshes["fan"].n == 2 and len(meshes["fan"].cells) == 3
    assert meshes["two-tets"].n == 3


def test_suite_names_are_selectable():
    results = run_suites(["dims"], max_n=2, max_r=2)
    assert results and all(r.suite == "dims" for r in results)
    with pytest.raises(KeyError):
        run_suites(["made-up"], max_n=2, max_r=2)


def test_repeated_suite_names_run_once_in_first_mention_order():
    results = run_suites(["whitney", "dims", "whitney"], max_n=1, max_r=1)
    once = run_suites(["whitney"], max_n=1, max_r=1) + run_suites(["dims"], max_n=1, max_r=1)
    assert results == once and {r.suite for r in results} == {"whitney", "dims"}


def test_homotopy_suite_at_dimension_four():
    results = run_suites(["homotopy"], max_n=4, max_r=2)
    assert any(r.label.startswith("n=4") for r in results)
    assert all(r.passed for r in results)


def test_a_koszul_sign_flip_on_one_monomial_fails_a_case(monkeypatch):
    # kappa with its sign flipped on the single stored monomial `key`, linear elsewhere
    original = PolyForm.koszul

    def flipped(self, origin=0):
        out = original(self, origin)
        c = self.coeffs.get(key)
        return out if c is None else out - 2 * original(PolyForm(self.n, self.k, self.r, {key: c}), origin)

    monkeypatch.setattr(PolyForm, "koszul", flipped)
    keys = [
        (alpha, sigma)
        for n in (1, 2)
        for k in range(1, n + 1)
        for degree in range(3)
        for alpha in multiindices(n, degree)
        for sigma in combinations(range(1, n + 1), k)
    ]
    assert len(keys) == 36
    for key in keys:
        results = run_suites(["identities", "homotopy"], 2, 2)
        assert any(not r.passed for r in results), key


def test_small_full_sweep_passes():
    results = run_suites(["whitney", "bernstein", "dof"], max_n=2, max_r=2)
    assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_dims_degree_bound():
    # degrees run to max(max_r, 6)
    results = run_suites(["dims"], max_n=1, max_r=7)
    assert any(r.label == "n=1 r=7" for r in results)
    results = run_suites(["dims"], max_n=1, max_r=2)
    assert any(r.label == "n=1 r=6" for r in results)
    assert not any(r.label == "n=1 r=7" for r in results)


def test_suite_caps_live_only_in_suite_bounds():
    # the ranks and characterization bodies sweep every n up to max_n; their
    # n <= 3 cap is SUITE_BOUNDS's clamp, so -n 4 runs exactly the -n 3 cases
    names = ["ranks", "characterization"]
    results = run_suites(names, 4, 1)
    assert results == run_suites(names, 3, 1)
    assert len(results) == 13
    assert not any("n=4" in res.label for res in results)


def test_all_suites_registered():
    assert set(SUITES) == {
        "dims",
        "ranks",
        "identities",
        "homotopy",
        "whitney",
        "consistency",
        "decomposition",
        "dof",
        "characterization",
        "bernstein",
    }
    assert set(SUITE_BOUNDS) == set(SUITES)
    r = CheckResult("x", "y", True)
    assert r.passed and r.detail == ""


def test_suites_that_keep_sweeping_name_their_first_failure(monkeypatch):
    dim_space, whitney = verify.dim_space, verify.whitney
    # off by one for the full space at k = 0 and k = 1 on the segment, r = 1
    monkeypatch.setattr(verify, "dim_space", lambda kind, n, r, k: dim_space(kind, n, r, k) + (kind == FULL and (n, r) == (1, 1)))
    (dims,) = [res for res in verify.suite_dims(max_n=1, max_r=1) if not res.passed]
    assert dims.detail == "full dimension off at k=0"
    # off by one for the full zero-trace space at two (n, r, k)
    bumped = {(1, 1, 0), (3, 3, 3)}
    monkeypatch.setattr(verify, "dim_space", lambda kind, n, r, k: dim_space(kind, n, r, k) + (kind == FULL_ZERO and (n, r, k) in bumped))
    duality = [res for res in verify.suite_dof(max_n=3, max_r=3) if res.label == "duality dimensions"]
    assert [res.detail for res in duality] == ["full/reduced duality dims n=1 r=1 k=0"]
    # the doubled Whitney form of vertex 1 breaks two alternating sums, then the partition and contraction identities
    monkeypatch.setattr(verify, "dim_space", dim_space)
    monkeypatch.setattr(verify, "whitney", lambda n, vals: (2 if tuple(vals) == (1,) else 1) * whitney(n, vals))
    (tri,) = [res for res in verify.suite_whitney(max_n=2) if not res.passed]
    assert tri.detail == "alternating sum nonzero for (0, 1)"


def test_a_decomposition_failure_names_the_first_key_where_the_traces_differ(monkeypatch):
    assemble_basis = verify.assemble_basis

    def doubled_on_one_cell(mesh, family, r, k):
        # on two-triangles at k = 1, the first element on the shared edge is doubled on its second cell
        elements = assemble_basis(mesh, family, r, k)
        if mesh == builtin_meshes()["two-triangles"] and k == 1:
            i, el = next((i, el) for i, el in enumerate(elements) if len(el.restrictions) == 2)
            elements[i] = el._replace(restrictions={**el.restrictions, 1: 2 * el.restrictions[1]})
        return elements

    monkeypatch.setattr(verify, "assemble_basis", doubled_on_one_cell)
    failed = {res.label: res.detail for res in verify.suite_decomposition(max_r=1) if not res.passed}
    # the minus element traces to d lambda_1 in the edge's own coordinates, (lambda_0 + lambda_1) d lambda_1 at degree 1
    assert failed == {
        "two-triangles minus r=1": "multivalued trace on (1, 2) at k=1, at (alpha, sigma) = ((0, 1), (1,)): one trace 1, the other 2",
        "two-triangles full r=1": "multivalued trace on (1, 2) at k=1, at (alpha, sigma) = ((0, 1), (1,)): one trace -1, the other -2",
    }


def test_a_consistency_failure_names_the_first_key_where_its_sides_differ():
    f, g = FaceRef(2, (0, 1)), FaceRef(2, (1, 2))
    lhs = canonicalize(1, 1, [((1, 0), (1,), 2), ((0, 1), (1,), Fraction(1, 2))])
    rhs = canonicalize(1, 1, [((0, 0), (1,), 1)])  # lambda_0 + lambda_1 at degree 1
    detail = verify._consistency_detail(ConsistencyWitness(f, g, lhs, lhs, rhs))
    assert detail == "faces (0, 1) vs (1, 2) at (alpha, sigma) = ((0, 1), (1,)): lhs 1/2, rhs 1"
    zero = PolyForm.zero(1, 1)
    # a zero side is compared at the other side's degree: rhs = d lambda_1 at degree 0
    assert verify._consistency_detail(ConsistencyWitness(f, g, lhs, zero, rhs)).endswith("((0, 0), (1,)): lhs 0, rhs 1")
