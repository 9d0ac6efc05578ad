from itertools import combinations

import pytest

from feec.combinat import multiindices
from feec.forms import PolyForm
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
