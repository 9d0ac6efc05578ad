import random
import sys
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction

import pytest

from feec.assemble import (
    DirectSumReport,
    GlobalBasisElement,
    assemble_basis,
    assembled_dimension,
    decompose,
    verify_direct_sum,
    verify_single_valued,
)
from feec import assemble, linalg, spaces
from feec.extension import (
    ExtensionFamily,
    FamilyKind,
    cell_table,
    characterization_equality,
    check_consistency,
    placed_basis,
)
from feec.forms import FaceRef, PolyForm, bary_monomial, canonicalize, dlambda, whitney
from feec.mesh import from_cells
from feec.spaces import Family, SpaceKind, basis_forms, coordinates, dim_space, membership, realize
from feec.verify import builtin_meshes, suite_dof
from helpers import (
    all_pairs_constrained_dimension,
    grid_cells,
    non_manifold_meshes,
    oracle_rank,
    peel_oracle,
    pivot_key_constrained_dimension,
    rebuild_coordinates,
    seeded_member,
    shuffled_grid,
)

TRI1 = from_cells(2, [(0, 1, 2)])
TRI2 = from_cells(2, [(0, 1, 2), (1, 2, 3)])
FAN3 = from_cells(2, [(0, 1, 2), (0, 2, 3), (0, 3, 4)])
TET1 = from_cells(3, [(0, 1, 2, 3)])
TET2 = from_cells(3, [(0, 1, 2, 3), (1, 2, 3, 4)])
NON_MANIFOLD = TRI_ON_VERTEX, TET3_ON_TRIANGLE, TET_ON_EDGE, PENT_ON_VERTEX = non_manifold_meshes()


def test_lowest_order_edge_elements():
    els = assemble_basis(TRI1, Family.MINUS, 1, 1)
    assert len(els) == 3
    forms = {el.face.vertices: el.restrictions[0] for el in els}
    assert forms[(0, 1)] == whitney(2, (0, 1))
    assert forms[(1, 2)] == whitney(2, (1, 2))


def test_two_triangle_edge_count():
    els = assemble_basis(TRI2, Family.MINUS, 1, 1)
    assert len(els) == 5
    assert assembled_dimension(TRI2, Family.MINUS, 1, 1) == 5
    shared = next(el for el in els if el.face.vertices == (1, 2))
    assert set(shared.restrictions) == {0, 1}


def test_hat_functions_lowest_order():
    els = assemble_basis(TRI1, Family.FULL, 1, 0)
    assert len(els) == 3
    for el in els:
        (v,) = el.face.vertices
        alpha = tuple(1 if i == v else 0 for i in range(3))
        assert el.restrictions[0] == bary_monomial(2, alpha)
    assert assembled_dimension(TRI2, Family.FULL, 1, 0) == 4


def test_assembled_dimension_on_single_cell_matches_space():
    assert assembled_dimension(TRI1, Family.FULL, 2, 1) == dim_space(
        SpaceKind(Family.FULL), 2, 2, 1
    )


def test_assembled_dimension_outside_the_orders_is_zero_and_builds_no_level():
    for k in (-2, -1, 4, 5):
        t = from_cells(3, TET2.cells)
        for family in Family:
            assert assembled_dimension(t, family, 2, k) == 0
        assert t._levels == {}


def test_a_mesh_without_cells_assembles_no_placed_basis():
    # 4004 local faces of the 12-simplex, those of dimension 2 to 5, carry a zero-trace basis at r = 4, k = 2
    built = placed_basis.cache_info().currsize
    assert assemble_basis(from_cells(12, []), Family.FULL, 4, 2) == []
    assert placed_basis.cache_info().currsize == built


def test_order_k_work_builds_no_level_below_k():
    # the assembled space has generators only on faces of dimension >= k
    rng = random.Random(43)
    for dim, m in ((2, 2), (3, 1)):
        cells = shuffled_grid(rng, dim, m).cells
        for family, r in ((Family.MINUS, 1), (Family.FULL, 2)):
            for k in range(dim + 1):
                t = from_cells(dim, cells)
                elements = assemble_basis(t, family, r, k)
                member, _ = seeded_member(elements, rng)
                for run in (
                    lambda t: assemble_basis(t, family, r, k),
                    lambda t: verify_single_valued(t, elements, k),
                    lambda t: verify_direct_sum(t, elements, family, r, k),
                    lambda t: decompose(t, family, r, k, member),
                ):
                    fresh = from_cells(dim, cells)
                    run(fresh)
                    assert min(fresh._levels, default=k) >= k


def test_single_valuedness_of_assembled_bases():
    for family in (Family.MINUS, Family.FULL):
        for r in (1, 2, 3):
            for k in (0, 1):
                els = assemble_basis(TRI2, family, r, k)
                assert verify_single_valued(TRI2, els, k) is None


def test_hand_built_discontinuity_is_caught():
    els = assemble_basis(TRI2, Family.MINUS, 1, 1)
    broken = GlobalBasisElement(
        els[2].face,
        els[2].descriptor,
        {ci: (2 if ci else 1) * w for ci, w in els[2].restrictions.items()},
    )
    witness = verify_single_valued(TRI2, [broken], 1)
    if broken.face.vertices == (1, 2):
        assert witness is not None
    # an element owned by a non-shared face is untouched on the other cell
    not_shared = next(el for el in els if el.face.vertices == (0, 1))
    assert verify_single_valued(TRI2, [not_shared], 1) is None


def _exhaustive_witness(t, elements, k):
    """The first (element, face) with disagreeing traces, every trace taken afresh."""
    for el in elements:
        for j in range(k, t.n):
            for face in t.faces(j):
                traces = [
                    el.restrictions.get(ci, PolyForm.zero(t.n, k)).trace(fr)
                    for ci, fr in face.incidence
                ]
                if any(tr != traces[0] for tr in traces[1:]):
                    return el, face
    return None


def test_first_witness_matches_exhaustive_scan():
    rng = random.Random(23)
    for mesh, family, r, k in [
        (FAN3, Family.FULL, 2, 1),
        (TET2, Family.MINUS, 2, 1),
        (TRI_ON_VERTEX, Family.FULL, 2, 0),
        (TET3_ON_TRIANGLE, Family.MINUS, 2, 1),
        (TET_ON_EDGE, Family.FULL, 2, 0),
        (TET_ON_EDGE, Family.MINUS, 1, 1),
        (PENT_ON_VERTEX, Family.FULL, 1, 0),
    ]:
        els = assemble_basis(mesh, family, r, k)
        for _ in range(6):
            scaled = [
                GlobalBasisElement(el.face, el.descriptor, {
                    ci: (rng.choice((1, 1, 1, 2)) * w) for ci, w in el.restrictions.items()
                })
                for el in els
            ]
            witness = verify_single_valued(mesh, scaled, k)
            expected = _exhaustive_witness(mesh, scaled, k)
            if expected is None:
                assert witness is None
            else:
                assert (witness.element, witness.face) == expected

    # one element scaled on its last cell disagrees only on faces of that cell
    # it shares; the class scan sees the failure on `linked`, a face of two
    # classes, and the witness is the first failing face in lattice order
    for mesh, family, r, k, owner, linked, first in [
        (TRI_ON_VERTEX, Family.FULL, 1, 0, (0,), (0,), (0,)),
        (TET_ON_EDGE, Family.MINUS, 1, 1, (0, 1), (0, 1), (0, 1)),
        (TET_ON_EDGE, Family.FULL, 2, 0, (0,), (0, 1), (0,)),
        (PENT_ON_VERTEX, Family.FULL, 2, 0, (0,), (0,), (0,)),
    ]:
        els = assemble_basis(mesh, family, r, k)
        i = next(i for i, el in enumerate(els) if el.face.vertices == owner)
        last = max(els[i].restrictions)
        scaled = [
            GlobalBasisElement(el.face, el.descriptor, {
                ci: 2 * w if (j, ci) == (i, last) else w for ci, w in el.restrictions.items()
            })
            for j, el in enumerate(els)
        ]
        face = next(f for f in mesh.all_faces() if f.vertices == linked)
        assert len(mesh.classes(face)) == 2 and face.dim < mesh.n - 1
        witness = verify_single_valued(mesh, scaled, k)
        assert (witness.element, witness.face) == _exhaustive_witness(mesh, scaled, k)
        assert witness.element is scaled[i] and witness.face.vertices == first


def test_first_witness_matches_exhaustive_scan_with_shared_restrictions():
    # the shared placed_basis objects stay, so the trace and comparison tables hit;
    # a few restrictions become a scaled form or an equal fresh copy, which the
    # tables must keep apart from the shared object they came from
    rng = random.Random(29)
    outcomes = set()
    for mesh, family, r, k in [
        (FAN3, Family.FULL, 2, 1),
        (TET2, Family.MINUS, 2, 1),
        (shuffled_grid(random.Random(5), 2, 2), Family.FULL, 2, 0),
        (TRI_ON_VERTEX, Family.FULL, 2, 0),
        (TET3_ON_TRIANGLE, Family.MINUS, 1, 1),
        (TET_ON_EDGE, Family.FULL, 2, 0),
        (PENT_ON_VERTEX, Family.FULL, 2, 0),
    ]:
        els = assemble_basis(mesh, family, r, k)
        slots = [(i, ci) for i, el in enumerate(els) if len(el.restrictions) >= 2
                 for ci in el.restrictions]
        for _ in range(8):
            factors = {slot: rng.choice((1, 2)) for slot in rng.sample(slots, min(3, len(slots)))}
            altered = [
                GlobalBasisElement(el.face, el.descriptor, {
                    ci: factors[i, ci] * w if (i, ci) in factors else w
                    for ci, w in el.restrictions.items()
                })
                for i, el in enumerate(els)
            ]
            witness = verify_single_valued(mesh, altered, k)
            expected = _exhaustive_witness(mesh, altered, k)
            outcomes.add(expected is None)
            if expected is None:
                assert witness is None
            else:
                assert (witness.element, witness.face) == expected
                assert witness.traces[0] != witness.traces[1]
    assert outcomes == {True, False}


def test_group_pass_matches_the_per_element_scan():
    # the certificate checks runs of elements with one face object and one set
    # of cells at once; each change below splits, merges or alters those runs,
    # and the verdict and witness must stay those of the element-by-element scan
    rng = random.Random(59)
    outcomes = Counter()
    for mesh, family, r, k in [
        (FAN3, Family.FULL, 2, 1),
        (TET2, Family.FULL, 3, 1),
        (shuffled_grid(random.Random(7), 2, 2), Family.FULL, 4, 0),
        (TRI_ON_VERTEX, Family.FULL, 4, 0),
        (TET3_ON_TRIANGLE, Family.FULL, 3, 1),
        (TET_ON_EDGE, Family.MINUS, 3, 1),
        (PENT_ON_VERTEX, Family.FULL, 2, 0),
    ]:
        els = assemble_basis(mesh, family, r, k)
        # members inside a run over two or more cells; a mesh sharing only a
        # vertex of one generator has none, and any shared element stands in
        middles = [
            i for i in range(1, len(els) - 1)
            if els[i - 1].face is els[i].face is els[i + 1].face and len(els[i].restrictions) >= 2
        ] or [i for i, el in enumerate(els) if len(el.restrictions) >= 2]
        for change in ("shuffle", "duplicate", "scale", "copy", "reorder"):
            for _ in range(4):
                altered = list(els)
                if change in ("shuffle", "duplicate") and rng.random() < 0.5:
                    # a fault anywhere, so the changed order meets failing elements too
                    i = rng.choice(middles)
                    last = max(els[i].restrictions)
                    altered[i] = els[i]._replace(restrictions={
                        ci: 2 * w if ci == last else w for ci, w in els[i].restrictions.items()
                    })
                if change == "shuffle":
                    rng.shuffle(altered)
                elif change == "duplicate":
                    i = rng.randrange(len(altered))
                    altered.insert(rng.choice((i, i + 1, rng.randrange(len(altered)))), altered[i])
                else:
                    i = rng.choice(middles)
                    el = els[i]
                    cell = rng.choice(list(el.restrictions))
                    if change == "scale":
                        restrictions = {ci: 2 * w if ci == cell else w for ci, w in el.restrictions.items()}
                    elif change == "copy":
                        restrictions = {ci: 1 * w if ci == cell else w for ci, w in el.restrictions.items()}
                        assert restrictions[cell] is not el.restrictions[cell]
                    else:
                        restrictions = dict(reversed(el.restrictions.items()))
                    altered[i] = el._replace(restrictions=restrictions)
                witness = verify_single_valued(mesh, altered, k)
                expected = _exhaustive_witness(mesh, altered, k)
                outcomes[change, expected is None] += 1
                if expected is None:
                    assert witness is None
                else:
                    assert (witness.element, witness.face) == expected
                    assert witness.traces[0] != witness.traces[1]
    # every change meets passing lists, and the ones that can fault meet failing lists
    assert {key for key, _ in outcomes} == {"shuffle", "duplicate", "scale", "copy", "reorder"}
    assert all(outcomes[change, False] for change in ("shuffle", "duplicate", "scale"))
    assert all(outcomes[change, True] for change in ("shuffle", "duplicate", "copy", "reorder"))


def test_first_witness_matches_exhaustive_scan_on_a_large_lattice():
    # the witness scan walks the shared faces of the 384-cell 4-D Kuhn grid in
    # lattice order, thousands of them.  The first element on a shared face is
    # altered on its last cell: scaled, it fails on its own face; plus the
    # restriction there of a later element on a shared tetrahedron, whose
    # traces vanish off that tetrahedron, it fails only there, far down the walk
    mesh = from_cells(4, grid_cells(4, 2))
    els = assemble_basis(mesh, Family.FULL, 2, 2)
    i = next(i for i, el in enumerate(els) if len(el.face.incidence) >= 2)
    last = max(els[i].restrictions)
    later = [
        el for el in els if el.face.dim == 3 and len(el.restrictions) >= 2 and last in el.restrictions
    ][-1]
    for change, face in [(lambda w: 2 * w, els[i].face), (lambda w: w + later.restrictions[last], later.face)]:
        altered = list(els)
        altered[i] = els[i]._replace(restrictions={
            ci: change(w) if ci == last else w for ci, w in els[i].restrictions.items()
        })
        witness = verify_single_valued(mesh, altered, 2)
        assert witness is not None and witness.element is altered[i] and witness.face is face
        assert (witness.element, witness.face) == _exhaustive_witness(mesh, altered, 2)


def test_single_valued_work_does_not_grow_with_the_mesh(monkeypatch):
    # one trace tuple per (column, local face) and one comparison per distinct
    # pair of tuples: on the Kuhn grids every size repeats the same columns
    counts = Counter()
    real_eq, real_trace = PolyForm.__eq__, PolyForm.trace

    def eq_spy(self, other):
        counts["__eq__"] += 1
        return real_eq(self, other)

    def trace_spy(self, face):
        counts["trace"] += 1
        return real_trace(self, face)

    monkeypatch.setattr(PolyForm, "__eq__", eq_spy)
    monkeypatch.setattr(PolyForm, "trace", trace_spy)
    seen = []
    for m in (2, 3, 4):
        mesh = from_cells(3, grid_cells(3, m))
        els = assemble_basis(mesh, Family.FULL, 2, 1)
        counts.clear()
        assert verify_single_valued(mesh, els, 1) is None
        seen.append((counts["__eq__"], counts["trace"]))
    assert seen[0][0] > 0 and seen[0][1] > 0 and seen == [seen[0]] * 3


def test_zero_trace_on_faces_not_containing_owner():
    els = assemble_basis(TRI2, Family.FULL, 2, 1)
    for el in els:
        owner = set(el.face.vertices)
        for j in range(1, 2):
            for face in TRI2.faces(j):
                if owner <= set(face.vertices):
                    continue
                for ci, fr in face.incidence:
                    w = el.restrictions.get(ci)
                    if w is not None:
                        assert w.trace(fr).is_zero


@pytest.mark.parametrize(
    "mesh,family,r,k",
    [
        (TRI1, Family.MINUS, 2, 1),
        (TRI2, Family.MINUS, 2, 1),
        (TRI2, Family.FULL, 2, 1),
        (FAN3, Family.MINUS, 1, 1),
        (FAN3, Family.FULL, 2, 0),
        (TET1, Family.FULL, 3, 2),
        (TET2, Family.MINUS, 2, 2),
        (TET2, Family.FULL, 1, 1),
    ],
)
def test_direct_sum_cases(mesh, family, r, k):
    report = verify_direct_sum(mesh, assemble_basis(mesh, family, r, k), family, r, k)
    assert report.ok, report


def _globally_independent(elements, r):
    """Independence by the dense oracle on the elements stacked over all cells."""
    keys = sorted({(ci, key) for el in elements for ci, w in el.restrictions.items()
                   for key in w.lift(r).coeffs})
    rows = [[el.restrictions[ci].lift(r).coeffs.get(key, 0) if ci in el.restrictions else 0
             for ci, key in keys] for el in elements]
    return oracle_rank(rows) == len(elements)


def test_local_independence_certificate_falls_back_to_global_rank():
    els = assemble_basis(TRI2, Family.FULL, 2, 1)
    base = verify_direct_sum(TRI2, els, Family.FULL, 2, 1)
    assert base.ok and bool(base) and _globally_independent(els, 2)

    dup = verify_direct_sum(TRI2, els + [els[0]], Family.FULL, 2, 1)
    assert not dup.independent and not _globally_independent(els + [els[0]], 2)
    # a failed report is falsy, although it is a non-empty tuple
    assert bool(dup) is False
    assert dup == DirectSumReport(
        base.count + 1, base.expected, False, base.constrained_dimension, True
    )

    # agrees with a two-cell element on one cell only: dependent there, not globally
    shared = next(el for el in els if len(el.restrictions) == 2)
    ci = min(shared.restrictions)
    half = GlobalBasisElement(shared.face, shared.descriptor, {ci: shared.restrictions[ci]})
    report = verify_direct_sum(TRI2, els + [half], Family.FULL, 2, 1)
    assert report.independent and _globally_independent(els + [half], 2)
    assert not report.ok

    # an element touching no cell is the zero form
    empty = GlobalBasisElement(shared.face, shared.descriptor, {})
    assert not verify_direct_sum(TRI2, els + [empty], Family.FULL, 2, 1).independent


def test_stacked_fallback_reads_restrictions_stored_above_degree_r():
    els = [
        GlobalBasisElement(el.face, el.descriptor, {ci: w.lift(3) for ci, w in el.restrictions.items()})
        for el in assemble_basis(TRI2, Family.MINUS, 1, 1)
    ]
    assert verify_direct_sum(TRI2, els, Family.MINUS, 1, 1).ok
    dup = verify_direct_sum(TRI2, els + [els[0]], Family.MINUS, 1, 1)
    assert not dup.independent and dup.cells_spanned and not dup.ok
    # the degree-3 rows are those of the degree-1 restrictions
    mixed = els[:1] + assemble_basis(TRI2, Family.MINUS, 1, 1)[1:]
    assert verify_direct_sum(TRI2, mixed, Family.MINUS, 1, 1).ok
    assert not verify_direct_sum(TRI2, mixed + [els[0]], Family.MINUS, 1, 1).independent


def test_every_rank_call_passes_a_list_of_sparse_rows(monkeypatch):
    # the benchmark's tracer reads len(rows) and rows[0]; an iterator would be spent by it
    calls = []
    real = linalg.rank

    def spy(rows):
        calls.append((sys._getframe(1).f_code.co_name, rows))
        return real(rows)

    monkeypatch.setattr(linalg, "rank", spy)
    els = assemble_basis(TRI2, Family.FULL, 2, 1)
    shared = next(el for el in els if len(el.restrictions) == 2)
    ci = min(shared.restrictions)
    # the duplicate, one-cell and empty elements each reach the stacked fallback
    for extra in (
        els[0],
        GlobalBasisElement(shared.face, shared.descriptor, {ci: shared.restrictions[ci]}),
        GlobalBasisElement(shared.face, shared.descriptor, {}),
    ):
        assert not verify_direct_sum(TRI2, els + [extra], Family.FULL, 2, 1).ok
    assert characterization_equality(Family.FULL, FaceRef(2, (0, 1)), 2, 1)
    # one unisolvence rank per (family, k) over the moment table's columns
    assert all(res.passed for res in suite_dof(max_n=1, max_r=1))
    callers = Counter(name for name, _ in calls)
    # per verify_direct_sum: the stacked fallback and the constraint rows
    assert callers["verify_direct_sum"] == 6
    assert callers["characterization_equality"] == 1 and callers["suite_dof"] == 4
    assert callers["rank_of"] > 0 and set(callers) == {
        "rank_of", "verify_direct_sum", "characterization_equality", "suite_dof"
    }
    for _, rows in calls:
        assert type(rows) is list and all(isinstance(row, Mapping) for row in rows)


def test_certificates_share_work_between_identical_restrictions(monkeypatch):
    traced, ranked = [], []
    real_trace, real_rank_of = PolyForm.trace, assemble.rank_of

    def trace_spy(self, face):
        traced.append((self, face))  # holds the form, so its id stays its own
        return real_trace(self, face)

    def rank_spy(forms):
        ranked.append(frozenset(map(id, forms)))
        return real_rank_of(forms)

    monkeypatch.setattr(PolyForm, "trace", trace_spy)
    monkeypatch.setattr(assemble, "rank_of", rank_spy)
    mesh = shuffled_grid(random.Random(31), 3, 2)
    for family, r, k in [(Family.MINUS, 1, 1), (Family.FULL, 2, 1)]:
        els = assemble_basis(mesh, family, r, k)
        traced.clear()
        assert verify_single_valued(mesh, els, k) is None
        pairs = Counter((id(w), fr) for w, fr in traced)
        assert pairs and max(pairs.values()) == 1

        ranked.clear()
        assert verify_direct_sum(mesh, els, family, r, k).ok
        touching = {
            frozenset(id(w) for el in els for c, w in el.restrictions.items() if c == ci)
            for ci in range(len(mesh.cells))
        }
        # every cell of the grid holds every local face, so all cells read one set
        assert len(touching) == 1
        assert len(ranked) == len(set(ranked)) and set(ranked) == touching

    els = assemble_basis(mesh, Family.MINUS, 1, 1)
    dup = verify_direct_sum(mesh, els + [els[0]], Family.MINUS, 1, 1)
    assert not dup.independent and dup.cells_spanned and not dup.ok


def test_top_order_decomposition_is_cellwise():
    els = assemble_basis(TRI2, Family.MINUS, 2, 2)
    assert all(el.face.dim == 2 for el in els)
    assert len(els) == 2 * dim_space(SpaceKind(Family.MINUS), 2, 2, 2)


def test_decompose_roundtrip():
    rng = random.Random(41)
    els = assemble_basis(TRI2, Family.FULL, 2, 1)
    coeffs = [Fraction(rng.randint(-3, 3)) for _ in els]
    piecewise = {}
    for c, el in zip(coeffs, els):
        for ci, w in el.restrictions.items():
            piecewise[ci] = piecewise.get(ci, PolyForm.zero(2, 1)) + c * w
    parts = decompose(TRI2, Family.FULL, 2, 1, piecewise)
    # reassemble the named components and compare with the direct sums
    by_face = {}
    for c, el in zip(coeffs, els):
        if c:
            by_face.setdefault(el.face.vertices, []).append((c, el))
    for verts, contributions in by_face.items():
        got = parts.get(verts)
        expected = PolyForm.zero(contributions[0][1].face.dim, 1)
        ci, fr = contributions[0][1].face.incidence[0]
        for c, el in contributions:
            expected = expected + c * el.restrictions[ci].trace(fr)
        if expected.is_zero:
            assert got is None
        else:
            assert got == expected


def test_decompose_rejects_discontinuous_input():
    w0 = whitney(2, (1, 2))
    broken = {0: w0, 1: 2 * whitney(2, (0, 1))}
    with pytest.raises(ValueError):
        decompose(TRI2, Family.MINUS, 1, 1, broken)


def test_lagrange_node_counts():
    # continuous degree-r scalar elements: C(r-1, d) interior nodes per d-face
    from math import comb

    for mesh in (TRI2, FAN3, TET2):
        for r in (1, 2, 3, 4):
            expected = sum(
                comb(r - 1, f.dim) for j in range(mesh.n + 1) for f in mesh.faces(j)
            )
            assert assembled_dimension(mesh, Family.FULL, r, 0) == expected


def test_one_whitney_form_per_face_at_lowest_order():
    for mesh in (TRI2, TET1, TET2):
        for k in range(mesh.n + 1):
            assert assembled_dimension(mesh, Family.MINUS, 1, k) == len(mesh.faces(k))


def test_discontinuous_top_forms_count_per_cell():
    from math import comb

    for mesh in (TRI2, TET2):
        n = mesh.n
        for r in (1, 2, 3):
            assert assembled_dimension(mesh, Family.MINUS, r, n) == len(mesh.cells) * comb(
                r - 1 + n, n
            )
            assert assembled_dimension(mesh, Family.FULL, r, n) == len(mesh.cells) * comb(
                r + n, n
            )


def test_assemble_validates_arguments():
    with pytest.raises(ValueError):
        assemble_basis(TRI1, Family.MINUS, 0, 1)
    with pytest.raises(ValueError):
        assemble_basis(TRI1, Family.MINUS, 1, 5)
    # decompose refuses the same degrees and orders, even for the zero member
    for family in Family:
        for r, k in ((0, 0), (0, 1), (1, -1), (1, 3)):
            with pytest.raises(ValueError, match="r >= 1|outside 0..2"):
                decompose(TRI2, family, r, k, {})


def _member(elements, coeffs, n, k):
    piecewise = {}
    for c, el in zip(coeffs, elements):
        for ci, w in el.restrictions.items():
            piecewise[ci] = piecewise.get(ci, PolyForm.zero(n, k)) + c * w
    return piecewise


def _outside_forms(family, n, r, k):
    """Cell forms that are not in the family's degree-r k-form space on the n-simplex.

    One is off by its degree (a power of lambda_0 above r), one from the
    other family when it has a form outside this space, one of another
    order and one on another dimension.
    """
    yield bary_monomial(n, (r + 1,) + (0,) * n).wedge(dlambda(n, tuple(range(1, k + 1))))
    other = Family.FULL if family is Family.MINUS else Family.MINUS
    for degree in (r, r + 1):
        w = next(
            (b for b in basis_forms(SpaceKind(other), FaceRef.full(n), degree, k)
             if membership(b, SpaceKind(family), FaceRef.full(n), r, k) is None),
            None,
        )
        if w is not None:
            yield w
            break
    yield dlambda(n, tuple(range(1, k + 2)) if k < n else tuple(range(1, k)))
    yield dlambda(n + 1, tuple(range(1, k + 1)))


def test_peel_roundtrip_on_random_meshes():
    # decompose against the realized generators and against the face-by-face peel
    rng = random.Random(67)
    meshes = [shuffled_grid(rng, 2, 2), shuffled_grid(rng, 3, 1)]
    for mesh in meshes:
        n = mesh.n
        for family in (Family.MINUS, Family.FULL):
            for r in (1, 2):
                for k in range(n + 1):
                    els = assemble_basis(mesh, family, r, k)
                    coeffs = [rng.choice((0, 0, -2, -1, 1, 3)) for _ in els]
                    member = _member(els, coeffs, n, k)
                    parts = decompose(mesh, family, r, k, member)
                    expected = {}
                    for c, el in zip(coeffs, els):
                        if c:
                            piece = c * realize(el.descriptor)
                            face = el.face.vertices
                            expected[face] = expected[face] + piece if face in expected else piece
                    assert set(parts) == set(expected)
                    assert all(parts[f] == w for f, w in expected.items())
                    peeled = peel_oracle(mesh, family, r, k, member)
                    assert list(parts) == list(peeled)
                    assert all(parts[f].coeffs == w.coeffs and parts[f].r == w.r for f, w in peeled.items())

                    ci = rng.randrange(len(mesh.cells))
                    above_r, *foreign = _outside_forms(family, n, r, k)
                    broken = [{**member, ci: member[ci] + above_r}, *({**member, ci: w} for w in foreign)]
                    if k < n:  # top-order forms have no traces to disagree
                        shared = next(el for el in els if len(el.face.incidence) >= 2)
                        ci = shared.face.incidence[0][0]
                        broken.append({**member, ci: member[ci] + shared.restrictions[ci]})
                    for piecewise in broken:
                        with pytest.raises(ValueError):
                            decompose(mesh, family, r, k, piecewise)
                        with pytest.raises(ValueError):
                            peel_oracle(mesh, family, r, k, piecewise)


def test_decompose_splits_a_seeded_member_of_a_grid():
    # the member builder the CI grid steps share, on a small grid of each dimension
    for n, m, family, r, k in [(2, 4, Family.MINUS, 2, 1), (3, 1, Family.FULL, 2, 2)]:
        mesh = from_cells(n, grid_cells(n, m))
        member, expected = seeded_member(assemble_basis(mesh, family, r, k), random.Random(0))
        assert member and expected
        parts = decompose(mesh, family, r, k, member)
        assert set(parts) == set(expected)
        assert all(parts[f] == w for f, w in expected.items())


def test_decompose_accepts_a_member_stored_above_degree_r():
    rng = random.Random(71)
    for mesh in (FAN3, shuffled_grid(rng, 3, 1)):
        n = mesh.n
        for family in Family:
            for r in (1, 2):
                for k in range(n + 1):
                    els = assemble_basis(mesh, family, r, k)
                    member = _member(els, [rng.randint(-2, 2) for _ in els], n, k)
                    lifted = {ci: w.lift(r + 2) for ci, w in member.items()}
                    parts = decompose(mesh, family, r, k, member)
                    high = decompose(mesh, family, r, k, lifted)
                    assert list(high) == list(parts)
                    assert all(high[f] == w and high[f].r == r + 2 for f, w in parts.items())
                    peeled = peel_oracle(mesh, family, r, k, lifted)
                    assert list(peeled) == list(high)
                    assert all(high[f].coeffs == w.coeffs for f, w in peeled.items())


def test_decompose_refuses_a_cell_perturbed_off_pivot():
    # the cell solve reads only the pivot keys; a change on any other key is still caught
    rng = random.Random(101)
    for mesh in (FAN3, TET2):
        n = mesh.n
        for family in Family:
            zero_kind = SpaceKind(family, zero_trace=True)
            for r in (1, 2, 3):
                for k in range(n + 1):
                    forms, _, table = cell_table(zero_kind, n, r, k, r)
                    if family is Family.FULL:
                        # the geometric basis of P_r Lambda^k is square on the canonical keys
                        assert not table.off_pivot and len(table.columns) == len(forms)
                        continue
                    # P_r^- Lambda^0 = P_r Lambda^0; for k >= 1 the reduced family is smaller
                    assert bool(table.off_pivot) == (k > 0)
                    els = assemble_basis(mesh, family, r, k)
                    member = _member(els, [rng.randint(-2, 2) for _ in els], n, k)
                    ci = rng.randrange(len(mesh.cells))
                    for key in rng.sample(sorted(table.off_pivot), min(2, len(table.off_pivot))):
                        bumped = member[ci] + canonicalize(n, k, [(*key, rng.choice((-1, 2)))], degree=r)
                        assert coordinates(bumped, n, k, table) is None
                        assert rebuild_coordinates(bumped, forms, table) is None
                        message = f"form on cell {ci} is not in the {family.value} space of degree {r}"
                        with pytest.raises(ValueError, match=message):
                            decompose(mesh, family, r, k, {**member, ci: bumped})


def test_decompose_rejects_keys_that_are_not_cells():
    w0, w1 = whitney(2, (1, 2)), whitney(2, (0, 1))
    assert decompose(TRI2, Family.MINUS, 1, 1, {0: w0, 1: w1})
    # False, 0.0, True and 1.0 equal a cell index without being one; the key goes
    # first, because a dict keeps the first of equal keys
    for key in (7, -1, 2, "0", False, 0.0, True, 1.0):
        with pytest.raises(ValueError, match=f"piecewise key {key!r} is not a cell index"):
            decompose(TRI2, Family.MINUS, 1, 1, {key: w0, 0: w0, 1: w1})


def test_cached_restrictions_are_not_mutated():
    mesh = from_cells(2, [(0, 2, 4), (1, 2, 4), (1, 3, 4)])
    for family, r, k in [(Family.MINUS, 2, 1), (Family.FULL, 2, 0)]:
        els = assemble_basis(mesh, family, r, k)
        before = [{ci: dict(w.coeffs) for ci, w in el.restrictions.items()} for el in els]
        coeffs = [(i % 5) - 2 for i in range(len(els))]
        decompose(mesh, family, r, k, _member(els, coeffs, 2, k))
        assert [{ci: dict(w.coeffs) for ci, w in el.restrictions.items()} for el in els] == before
        again = assemble_basis(mesh, family, r, k)
        assert [el.restrictions for el in again] == [el.restrictions for el in els]


def test_restrictions_are_the_placed_basis_table():
    # every mesh face reads one shared table per local face, not copies of it
    for mesh in (FAN3, TET2):
        for family in Family:
            zero_kind = SpaceKind(family, zero_trace=True)
            for r in (1, 2):
                for k in range(mesh.n + 1):
                    by_face = {}
                    for el in assemble_basis(mesh, family, r, k):
                        by_face.setdefault(el.face.vertices, []).append(el)
                    for face in mesh.all_faces():
                        els = by_face.get(face.vertices, [])
                        for ci, fr in face.incidence:
                            table = placed_basis(zero_kind, r, k, fr)
                            assert len(els) == len(table)
                            assert all(el.restrictions[ci] is w for el, w in zip(els, table))


def test_assembly_enumerates_each_face_basis_once_per_process(monkeypatch):
    calls = Counter()
    real = spaces._enumerate

    def spy(kind, face, r, k, basis_only):
        calls[kind, face, r, k, basis_only] += 1
        return real(kind, face, r, k, basis_only)

    monkeypatch.setattr(spaces, "_enumerate", spy)
    spaces.enumerate_basis.cache_clear()
    try:
        for _ in range(2):
            assert len(assemble_basis(TET2, Family.FULL, 2, 1)) == assembled_dimension(TET2, Family.FULL, 2, 1)
    finally:
        spaces.enumerate_basis.cache_clear()
    zero_kind = SpaceKind(Family.FULL, zero_trace=True)
    assert {(zero_kind, FaceRef.full(j), 2, 1, True) for j in (1, 2, 3)} <= set(calls)
    assert set(calls.values()) == {1}


def test_a_trace_outside_the_face_space_is_refused(monkeypatch):
    # coordinates in the face basis stand for a trace only when it is a member
    # of the face space; the shared table refuses one that is not, for the
    # direct-sum count and the consistency proof alike
    real = PolyForm.trace
    member = basis_forms(SpaceKind(Family.MINUS), FaceRef.full(3), 1, 1)[0]
    facet = FaceRef(3, (1, 2, 3))
    outside = bary_monomial(2, (1, 0, 0)).wedge(dlambda(2, (1,)))  # degree 1, not a Whitney form
    assert membership(outside, SpaceKind(Family.MINUS), FaceRef.full(2), 1, 1) is None

    def bent(self, face):
        tr = real(self, face)
        return tr + outside if self is member and face == facet else tr

    els = assemble_basis(TET2, Family.MINUS, 1, 1)
    fam = ExtensionFamily(FamilyKind.MINUS_BARYCENTRIC, 1, 1)
    assert verify_direct_sum(TET2, els, Family.MINUS, 1, 1).ok
    assert check_consistency(fam, FaceRef.full(3)).ok
    monkeypatch.setattr(PolyForm, "trace", bent)
    spaces.trace_coordinates.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="leaves the face space"):
            verify_direct_sum(TET2, els, Family.MINUS, 1, 1)
        spaces.trace_coordinates.cache_clear()
        with pytest.raises(ArithmeticError, match="leaves the face space"):
            check_consistency(fam, FaceRef.full(3))
    finally:
        spaces.trace_coordinates.cache_clear()


def test_single_valued_takes_no_trace_onto_a_face_of_one_class(monkeypatch):
    traced = []
    real = PolyForm.trace

    def spy(self, face):
        traced.append(face)
        return real(self, face)

    mesh = shuffled_grid(random.Random(43), 3, 2)
    # in the grid every shared edge is one class and every shared triangle two
    shared = [f for j in (1, 2) for f in mesh.faces(j) if len(f.incidence) >= 2]
    assert {(f.dim, len(mesh.classes(f))) for f in shared} == {(1, 1), (2, 2)}
    monkeypatch.setattr(PolyForm, "trace", spy)
    for family, r in [(Family.MINUS, 1), (Family.FULL, 2)]:
        els = assemble_basis(mesh, family, r, 1)
        traced.clear()
        assert verify_single_valued(mesh, els, 1) is None
        assert traced and {fr.dim for fr in traced} == {2}


def test_constrained_dimension_matches_all_pairs_oracle():
    rng = random.Random(47)
    meshes = [
        *builtin_meshes().values(),
        shuffled_grid(rng, 2, 2),
        shuffled_grid(rng, 3, 2),
        *NON_MANIFOLD,
    ]
    for mesh in meshes:
        for family in Family:
            for r in (1, 2):
                for k in range(mesh.n + 1):
                    report = verify_direct_sum(mesh, assemble_basis(mesh, family, r, k), family, r, k)
                    assert report.ok
                    assert report.constrained_dimension == all_pairs_constrained_dimension(mesh, family, r, k)


def test_constrained_dimension_matches_the_pivot_key_rows_on_the_builtin_meshes():
    # the count's rows compare the traces' coordinates in the face basis; the
    # oracle's compare the traces themselves at the face basis's pivot keys
    for mesh in builtin_meshes().values():
        for family in Family:
            for r in (1, 2, 3):
                for k in range(mesh.n + 1):
                    report = verify_direct_sum(mesh, assemble_basis(mesh, family, r, k), family, r, k)
                    assert report.constrained_dimension == pivot_key_constrained_dimension(mesh, family, r, k)


def test_constraint_rows_keep_their_count_and_rank_on_the_grids():
    # a 50-triangle Freudenthal grid and a 48-tet Kuhn grid: one row per face
    # coordinate gives as many rows, of the same rank, as one per pivot key
    rng = random.Random(53)
    for dim, m, family, r, k, count, rank in [
        (2, 5, Family.FULL, 2, 1, 195, 195),
        (3, 2, Family.MINUS, 1, 1, 216, 190),
    ]:
        mesh = shuffled_grid(rng, dim, m)
        per_cell = len(basis_forms(SpaceKind(family), FaceRef.full(dim), r, k))
        rows = list(assemble._constraint_rows(mesh, family, r, k, per_cell))
        assert (len(rows), linalg.rank(rows)) == (count, rank)
        report = verify_direct_sum(mesh, assemble_basis(mesh, family, r, k), family, r, k)
        assert report.ok
        constrained = per_cell * len(mesh.cells) - rank
        assert report.constrained_dimension == constrained == pivot_key_constrained_dimension(mesh, family, r, k)
