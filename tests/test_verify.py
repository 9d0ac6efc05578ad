import pytest

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


def test_homotopy_suite_at_dimension_four():
    results = run_suites(["homotopy"], max_n=4, max_r=2, samples=20)
    assert any(r.label.startswith("n=4") for r in results)
    assert all(r.passed for r in results)


def test_small_full_sweep_passes():
    results = run_suites(["whitney", "bernstein", "dof"], max_n=2, max_r=2)
    assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_dims_degree_bound_env(monkeypatch):
    monkeypatch.setenv("FEEC_MAX_DEGREE", "7")
    results = run_suites(["dims"], max_n=1, max_r=1)
    assert any(r.label == "n=1 r=7" for r in results)
    monkeypatch.setenv("FEEC_MAX_DEGREE", "2")
    results = run_suites(["dims"], max_n=1, max_r=1)
    assert not any(r.label == "n=1 r=3" for r in results)


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
