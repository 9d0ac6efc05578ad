"""Executable property suites over the whole package.

Each suite yields one result per swept case; everything is exact, so a
suite either establishes its claim on the swept range or hands back a
witness.  No suite samples: the differential and contraction identities
are linear in each argument, so they are checked on every stored monomial
of the swept range, which proves them there.  The command line front end
selects suites by name and renders the matrix.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Callable, Iterable, Iterator

from . import linalg
from .assemble import assemble_basis, verify_direct_sum, verify_single_valued
from .combinat import binom, multiindices
from .dof import build_dofs, pairing_matrix, weight_space
from .extension import (
    ExtensionFamily,
    FamilyKind,
    VanishingOrder,
    characterization_equality,
    check_consistency,
    naive_representative_discrepancy,
    vanishing_order_check,
)
from .forms import FaceRef, PolyForm, bary_monomial, canonicalize, dlambda, one, whitney
from .mesh import Triangulation, from_cells
from .spaces import (
    FULL,
    FULL_ZERO,
    MINUS,
    MINUS_ZERO,
    Family,
    SpaceKind,
    basis_forms,
    dim_space,
    enumerate_basis,
    enumerate_spanning,
    rank_of,
    realize,
)

ALL_KINDS = (FULL, MINUS, FULL_ZERO, MINUS_ZERO)


@dataclass
class CheckResult:
    suite: str
    label: str
    passed: bool
    detail: str = ""


def builtin_meshes() -> dict[str, Triangulation]:
    return {
        "triangle": from_cells(2, [(0, 1, 2)]),
        "two-triangles": from_cells(2, [(0, 1, 2), (1, 2, 3)]),
        "fan": from_cells(2, [(0, 1, 2), (0, 2, 3), (0, 3, 4)]),
        "tet": from_cells(3, [(0, 1, 2, 3)]),
        "two-tets": from_cells(3, [(0, 1, 2, 3), (1, 2, 3, 4)]),
    }


def _kind_name(kind: SpaceKind) -> str:
    return kind.family.value + ("*0" if kind.zero_trace else "")


# -- individual suites ---------------------------------------------------------


def max_degree() -> int:
    """The dimension suite's degree bound: FEEC_MAX_DEGREE, or 6 when unset.

    Raises ValueError unless the setting is an integer from 1 to 12; the
    suite's cost grows steeply with the bound.
    """
    raw = os.environ.get("FEEC_MAX_DEGREE", "6")
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if not 1 <= value <= 12:
        raise ValueError(f"FEEC_MAX_DEGREE must be an integer from 1 to 12, got {raw!r}")
    return value


def suite_dims(max_n: int = 4, max_r: int = 3) -> Iterator[CheckResult]:
    """Dimension formulas and basis cardinalities, all four kinds."""
    r_top = max(max_r, max_degree())
    for n in range(1, max_n + 1):
        T = FaceRef.full(n)
        for r in range(1, r_top + 1):
            bad = ""
            for k in range(n + 1):
                full = dim_space(FULL, n, r, k)
                minus = dim_space(MINUS, n, r, k)
                if full != binom(r + n, n) * binom(n, k):
                    bad = f"full dimension off at k={k}"
                if minus != binom(r + k - 1, k) * binom(n + r, n - k):
                    bad = f"reduced dimension off at k={k}"
                for kind in ALL_KINDS:
                    got = len(enumerate_basis(kind, T, r, k))
                    if got != dim_space(kind, n, r, k):
                        bad = f"{_kind_name(kind)} basis count {got} at k={k}"
            yield CheckResult("dims", f"n={n} r={r}", not bad, bad)


def suite_ranks(max_n: int = 3, max_r: int = 4) -> Iterator[CheckResult]:
    """Spanning and basis ranks equal the dimension, exactly."""
    for n in (2, 3):
        if n > max_n:
            continue
        T = FaceRef.full(n)
        for r in range(1, max_r + 1):
            for kind in ALL_KINDS:
                bad = ""
                for k in range(n + 1):
                    dim = dim_space(kind, n, r, k)
                    basis = basis_forms(kind, T, r, k)
                    if len(basis) != dim or rank_of(basis) != dim:
                        bad = f"basis rank off at k={k}"
                        break
                    spanning = [realize(g) for g in enumerate_spanning(kind, T, r, k)]
                    if rank_of(spanning) != dim:
                        bad = f"spanning rank off at k={k}"
                        break
                yield CheckResult("ranks", f"{_kind_name(kind)} n={n} r={r}", not bad, bad)


def _monomials(n: int, k: int, degree: int, homogeneous: bool = False) -> list[PolyForm]:
    """The stored monomials lambda^alpha d lambda_sigma, |alpha| = degree (alpha_0 = 0 if homogeneous)."""
    alphas = [(0,) + beta for beta in multiindices(n - 1, degree)] if homogeneous else multiindices(n, degree)
    sigmas = list(combinations(range(1, n + 1), k))
    return [PolyForm(n, k, degree, {(alpha, sigma): 1}) for alpha in alphas for sigma in sigmas]


def _product_rule_on_generators(n: int, degree: int) -> bool:
    """Whether kappa(u ^ g) = kappa u ^ g + (-1)^k u ^ kappa g for every stored monomial u of
    the degree and any order k, and every generator g: 1, lambda_0..lambda_n, d lambda_1..d lambda_n."""
    generators = [one(n)] + [whitney(n, (i,)) for i in range(n + 1)] + [dlambda(n, (i,)) for i in range(1, n + 1)]
    pairs = [(g, g.koszul()) for g in generators]
    for k in range(n + 1):
        for u in _monomials(n, k, degree):
            ku = u.koszul()
            for g, kg in pairs:
                if k + g.k <= n and u.wedge(g).koszul() != ku.wedge(g) + (-1) ** k * u.wedge(kg):
                    return False
    return True


def suite_identities(max_n: int = 3, max_r: int = 3) -> Iterator[CheckResult]:
    """d d = 0, kappa kappa = 0 and the product rule for kappa, proved on a monomial basis.

    Case (n, r, k) covers every k-form w stored at degree r and, for
    kappa(w ^ eta) = kappa w ^ eta + (-1)^k w ^ kappa eta, every eta of order
    at most n - k and degree at most max_r.  d, kappa and the wedge act term
    by term, so w and eta may be monomials, and the wedge builds eta as the
    product of its generators, the d lambda factors first.  Induction on
    their number proves the rule: eta = 1 is the check on the generator 1,
    and for eta = eta' ^ g, with eta' of order l', the rule for (w ^ eta', g),
    (w, eta') and (eta', g) in turn gives kappa(w ^ eta' ^ g) =
    kappa(w ^ eta') ^ g + (-1)^(k+l') w ^ eta' ^ kappa g = kappa w ^ eta
    + (-1)^k w ^ (kappa eta' ^ g + (-1)^l' eta' ^ kappa g).  w ^ eta' and eta'
    are stored below degree r + max_r, so checking each monomial of every
    order and storage degree 0..r+max_r-1 against each generator proves the
    case, without assuming that kappa commutes with `lift`.
    """
    product_rule = cache(_product_rule_on_generators)
    for n in range(1, max_n + 1):
        for r in range(1, max_r + 1):
            for k in range(n + 1):
                bad = ""
                for w in _monomials(n, k, r):
                    if not w.d().d().is_zero:
                        bad = "second derivative survived"
                        break
                    if not w.koszul().koszul().is_zero:
                        bad = "double contraction survived"
                        break
                if not bad and not all(product_rule(n, degree) for degree in range(r + max_r)):
                    bad = "product rule for the contraction failed"
                yield CheckResult("identities", f"n={n} r={r} k={k}", not bad, bad)


def suite_homotopy(max_n: int = 3, max_r: int = 3) -> Iterator[CheckResult]:
    """(d kappa + kappa d) w = (r + k) w, proved on a basis of the homogeneous forms.

    The monomials lambda^alpha d lambda_sigma with alpha_0 = 0 and sigma
    within 1..n are a basis of the k-forms with coefficients homogeneous of
    degree r in the coordinates based at vertex 0, and the identity is
    linear in w.
    """
    for n in range(1, max_n + 1):
        for r in range(1, max_r + 1):
            for k in range(n + 1):
                ok = all(
                    w.d().koszul() + w.koszul().d() == (r + k) * w
                    for w in _monomials(n, k, r, homogeneous=True)
                )
                detail = "" if ok else "homotopy identity failed"
                yield CheckResult("homotopy", f"n={n} r={r} k={k}", ok, detail)


def suite_whitney(max_n: int = 4) -> Iterator[CheckResult]:
    """Boundary alternating sums, the partition identity, the contraction identity."""
    for n in range(2, max_n + 1):
        bad = ""
        for k in range(1, n + 1):
            for vals in combinations(range(n + 1), k + 1):
                total = PolyForm.zero(n, k - 1)
                for j in range(k + 1):
                    lam = bary_monomial(n, tuple(1 if i == vals[j] else 0 for i in range(n + 1)))
                    total = total + (-1) ** j * lam.wedge(whitney(n, vals[:j] + vals[j + 1 :]))
                if not total.is_zero:
                    bad = f"alternating sum nonzero for {vals}"
        for k in range(0, n):
            for vals in combinations(range(n + 1), k + 1):
                dls = dlambda(n, vals)
                total = PolyForm.zero(n, k + 1)
                for j in range(n + 1):
                    if j in vals:
                        continue
                    lam = bary_monomial(n, tuple(1 if i == j else 0 for i in range(n + 1)))
                    total = total + lam.wedge(dls) - dlambda(n, (j,)).wedge(whitney(n, vals))
                if total != dls:
                    bad = f"partition identity failed for {vals}"
                w = whitney(n, vals)
                if dls.koszul() != w - w.eval_at_vertex(0):
                    bad = f"contraction identity failed for {vals}"
        yield CheckResult("whitney", f"n={n}", not bad, bad)


def suite_consistency(max_r: int = 3, max_k: int = 2, dual_r: int = 2) -> Iterator[CheckResult]:
    """Compatibility of the extension families over the tetrahedron."""
    sweep = ((FamilyKind.MINUS_BARYCENTRIC, max_r), (FamilyKind.FULL_PSI, max_r),
             (FamilyKind.DUAL_FULL, dual_r), (FamilyKind.DUAL_MINUS, dual_r))
    for kind, top_r in sweep:
        for r in range(1, top_r + 1):
            for k in range(0, max_k + 1):
                res = check_consistency(ExtensionFamily(kind, r, k), FaceRef.full(3))
                detail = "" if res.ok else f"faces {res.witness.f.indices} vs {res.witness.g.indices}"
                yield CheckResult("consistency", f"{kind.value} r={r} k={k}", res.ok, detail)
    res = check_consistency(ExtensionFamily(FamilyKind.NAIVE_FULL, 2, 1), FaceRef.full(2))
    bad = naive_representative_discrepancy()
    expected = canonicalize(2, 1, [((0, 1, 1), (1,), 1), ((0, 1, 1), (2,), 1)])
    ok = (not res.ok) and bad == expected
    yield CheckResult(
        "consistency",
        "naive control fails",
        ok,
        "" if ok else "the uncorrected family unexpectedly passed",
    )


def suite_decomposition(max_r: int = 3) -> Iterator[CheckResult]:
    """Assembled bases on the built-in meshes: continuity and direct sum."""
    for name, mesh in builtin_meshes().items():
        for r in range(1, max_r + 1):
            for family in (Family.MINUS, Family.FULL):
                bad = ""
                for k in range(mesh.n + 1):
                    elements = assemble_basis(mesh, family, r, k)
                    witness = verify_single_valued(mesh, elements, k)
                    if witness is not None:
                        bad = f"multivalued trace on {witness.face.vertices} at k={k}"
                        break
                    report = verify_direct_sum(mesh, elements, family, r, k)
                    if not report.ok:
                        bad = (
                            f"k={k}: count {report.count} expected {report.expected} "
                            f"constrained {report.constrained_dimension}"
                        )
                        break
                yield CheckResult(
                    "decomposition", f"{name} {family.value} r={r}", not bad, bad
                )


def suite_dof(max_n: int = 3, max_r: int = 3) -> Iterator[CheckResult]:
    """Moment counts and unisolvence for both families."""
    for n in range(1, max_n + 1):
        T = FaceRef.full(n)
        for family in (Family.FULL, Family.MINUS):
            for r in range(1, max_r + 1):
                bad = ""
                for k in range(n + 1):
                    dofs = build_dofs(family, n, r, k)
                    if len(dofs) != dim_space(SpaceKind(family), n, r, k):
                        bad = f"moment count at k={k}"
                        break
                    for face in T.all_subfaces():
                        if face.dim < k:
                            continue
                        kind, deg, order = weight_space(family, face.dim, r, k)
                        got = sum(1 for d in dofs if d.face == face)
                        if got != dim_space(kind, face.dim, deg, order):
                            bad = f"face group size on {face.indices} at k={k}"
                            break
                    if bad:
                        break
                    forms = basis_forms(SpaceKind(family), T, r, k)
                    if forms and not linalg.nonsingular(pairing_matrix(dofs, forms)):
                        bad = f"singular pairing at k={k}"
                        break
                yield CheckResult("dof", f"{family.value} n={n} r={r}", not bad, bad)
    bad = ""
    for n in range(1, max_n + 1):
        for r in range(1, max_r + 1):
            for k in range(n + 1):
                if dim_space(FULL_ZERO, n, r, k) != dim_space(MINUS, n, r + k - n, n - k):
                    bad = f"full/reduced duality dims n={n} r={r} k={k}"
                if dim_space(MINUS_ZERO, n, r, k) != dim_space(FULL, n, r + k - n - 1, n - k):
                    bad = f"reduced/full duality dims n={n} r={r} k={k}"
    yield CheckResult("dof", "duality dimensions", not bad, bad)


def suite_characterization(max_n: int = 3, max_r: int = 3) -> Iterator[CheckResult]:
    """Vanishing-order descriptions of the extended subspaces."""
    for n in (2, 3):
        if n > max_n:
            continue
        T = FaceRef.full(n)
        for family in (Family.FULL, Family.MINUS):
            for r in range(1, max_r + 1):
                bad = ""
                for face in T.all_subfaces():
                    for k in range(n + 1):
                        if not characterization_equality(family, face, r, k):
                            bad = f"face {face.indices} k={k}"
                            break
                    if bad:
                        break
                yield CheckResult(
                    "characterization", f"{family.value} n={n} r={r}", not bad, bad
                )
    w = canonicalize(2, 1, [((0, 1, 1), (1,), 1), ((0, 1, 1), (2,), 1)])
    level = vanishing_order_check(w, FaceRef(2, (1, 2)), 2)
    ok = level is VanishingOrder.ORDER_R
    yield CheckResult(
        "characterization",
        "bubble counterexample grade",
        ok,
        "" if ok else f"classified {level.value}",
    )


def suite_bernstein(max_r: int = 4) -> Iterator[CheckResult]:
    """For 0-forms the assembled decomposition is the monomial one, element for element."""
    for name, mesh in (("triangle", from_cells(2, [(0, 1, 2)])), ("tet", from_cells(3, [(0, 1, 2, 3)]))):
        n = mesh.n
        for r in range(1, max_r + 1):
            elements = assemble_basis(mesh, Family.FULL, r, 0)
            expected: dict[tuple[int, ...], list[PolyForm]] = {}
            for alpha in multiindices(n, r):
                support = tuple(i for i, e in enumerate(alpha) if e)
                expected.setdefault(support, []).append(bary_monomial(n, alpha))
            bad = ""
            seen: dict[tuple[int, ...], list[PolyForm]] = {}
            for el in elements:
                seen.setdefault(el.face.vertices, []).append(el.restrictions[0])
            if set(seen) != set(expected):
                bad = "face support sets differ"
            else:
                for verts, forms in expected.items():
                    got = seen[verts]
                    if len(got) != len(forms) or any(
                        not any(a == b for b in got) for a in forms
                    ):
                        bad = f"monomials at face {verts} differ"
                        break
            yield CheckResult("bernstein", f"{name} r={r}", not bad, bad)


SUITES: dict[str, Callable[..., Iterable[CheckResult]]] = {
    "dims": suite_dims,
    "ranks": suite_ranks,
    "identities": suite_identities,
    "homotopy": suite_homotopy,
    "whitney": suite_whitney,
    "consistency": suite_consistency,
    "decomposition": suite_decomposition,
    "dof": suite_dof,
    "characterization": suite_characterization,
    "bernstein": suite_bernstein,
}

# Each suite's keyword arguments from the sweep bounds (max_n, max_r),
# clamped to the suite's documented limits.
SUITE_BOUNDS: dict[str, Callable[[int, int], dict[str, int]]] = {
    "dims": lambda n, r: dict(max_n=min(n, 4), max_r=r),
    "ranks": lambda n, r: dict(max_n=min(n, 3), max_r=min(r, 4)),
    "identities": lambda n, r: dict(max_n=min(n, 4), max_r=min(r, 4)),
    "homotopy": lambda n, r: dict(max_n=min(n, 4), max_r=min(r, 4)),
    "whitney": lambda n, r: dict(max_n=min(n + 1, 4)),
    "consistency": lambda n, r: dict(max_r=min(r, 3), dual_r=min(r, 2)),
    "decomposition": lambda n, r: dict(max_r=min(r, 3)),
    "dof": lambda n, r: dict(max_n=min(n, 3), max_r=min(r, 3)),
    "characterization": lambda n, r: dict(max_n=min(n, 3), max_r=min(r, 3)),
    "bernstein": lambda n, r: dict(max_r=min(r + 1, 4)),
}


def run_suites(names: list[str] | None = None, max_n: int = 3, max_r: int = 3) -> list[CheckResult]:
    """Run the selected suites (all by default) with the given sweep bounds.

    Bounds are clamped per suite by SUITE_BOUNDS; the dimension suite
    additionally honors FEEC_MAX_DEGREE.  An unknown name raises KeyError.
    """
    return [res for name in names or list(SUITES) for res in SUITES[name](**SUITE_BOUNDS[name](max_n, max_r))]
