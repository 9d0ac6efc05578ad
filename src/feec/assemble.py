"""Assembled bases over a triangulation and their verification.

Every face of the mesh carries the zero-boundary-trace subspace of its form
space; extending each of its basis generators into every incident cell (and
by zero elsewhere) produces one global basis element per generator.  The
checks below establish the two halves of the direct-sum property: the
assembled elements are linearly independent, and their count equals the
dimension of the space of piecewise forms with single-valued traces,
computed independently by imposing the trace-matching constraints on the
product of the cell spaces.  Both rest on one rule: traces compose, so cells
whose traces agree on an immediate coface of a face (the face plus one
vertex) agree on the face.  Going down from the facets, a face's cells need
comparing only across the classes that chains of shared immediate cofaces
leave apart, one representative each (`Triangulation.classes`, walked once
per face and mesh); a facet's cells are each their own class.  Both checks
work per face, not per element: an element's trace on a shared face depends
only on its restriction there, so single-valuedness takes one tuple of
traces per (column of a group's restrictions, local face) and compares each
distinct pair of tuples once, and the count builds its rows from one
per-coordinate table per local face.  The count matches traces by their
coordinates in the face space's basis, from the table
`spaces.trace_coordinates` that the consistency proof reads too.  A
member of the assembled space is split into its per-face components by one
exact coordinate solve per cell against the placed zero-trace bases of all
the cell's faces, which together are one basis of the cell space.  The
solve reads the form only on the basis's pivot keys, so its coordinates are
accepted when the form has no key outside the basis and they agree with it
on every key that is not a pivot; the cells that share a face must give it
the same coordinates.
"""

from __future__ import annotations

from itertools import groupby
from typing import Iterator, NamedTuple

from . import linalg
from .extension import cell_table, placed_basis
from .forms import FaceRef, PolyForm, Scalar, combination
from .mesh import GlobalFace, Triangulation
from .spaces import (
    Family,
    GeneratorDescriptor,
    SpaceKind,
    basis_forms,
    coordinates,
    dim_space,
    enumerate_basis,
    rank_of,
    trace_coordinates,
)


class GlobalBasisElement(NamedTuple):
    """One assembled basis form: a face generator extended into its cells."""

    face: GlobalFace
    descriptor: GeneratorDescriptor
    restrictions: dict[int, PolyForm]


def _check_degree_and_order(t: Triangulation, r: int, k: int) -> None:
    if r < 1:
        raise ValueError("assembly needs polynomial degree r >= 1")
    if k < 0 or k > t.n:
        raise ValueError(f"form order {k} outside 0..{t.n}")


def assemble_basis(t: Triangulation, family: Family, r: int, k: int) -> list[GlobalBasisElement]:
    """The assembled basis, one element per zero-trace generator per face."""
    _check_degree_and_order(t, r, k)
    zero_kind = SpaceKind(family, zero_trace=True)
    out: list[GlobalBasisElement] = []
    for j in range(k, t.n + 1):
        faces = t.faces(j)
        if not faces:  # a mesh without cells builds no table
            continue
        descriptors = enumerate_basis(zero_kind, FaceRef.full(j), r, k)
        placed = {fr: placed_basis(zero_kind, r, k, fr) for fr in FaceRef.full(t.n).subfaces(j)}
        for face in faces:
            for i, desc in enumerate(descriptors):
                out.append(GlobalBasisElement(face, desc, {ci: placed[fr][i] for ci, fr in face.incidence}))
    return out


def assembled_dimension(t: Triangulation, family: Family, r: int, k: int) -> int:
    """Sum of zero-trace dimensions over the faces of dimension >= k; 0 for an order outside 0..n."""
    zero_kind = SpaceKind(family, zero_trace=True)
    dims = ((j, dim_space(zero_kind, j, r, k)) for j in range(max(k, 0), t.n + 1))
    return sum(d * len(t.faces(j)) for j, d in dims if d)


class SingleValuedWitness(NamedTuple):
    element: GlobalBasisElement
    face: GlobalFace
    traces: tuple[PolyForm, PolyForm]


def verify_single_valued(
    t: Triangulation, elements: list[GlobalBasisElement], k: int
) -> SingleValuedWitness | None:
    """Check trace agreement on every shared face; None means all good.

    Cells agreeing on a shared immediate coface of a face agree on the face,
    so, down from the facets, an element is single-valued exactly when its
    traces agree across the class representatives (:meth:`Triangulation.classes`)
    of every face of two or more classes.  The check runs on groups: runs of
    consecutive elements with the same face object and the same cells.  A
    group's restrictions at a cell form one column, interned by their ids;
    one tuple of traces is taken per (column, local face), a cell outside the
    group giving a tuple of zeros, and each distinct pair of tuples is
    compared once.  A group passes exactly when each of its elements does.
    Only the first failing group is scanned element by element, in
    face-lattice order, and its first failing element is scanned again over
    every shared face and full incidence for the witness (faces away from
    its cells compare equal zero tuples).
    """
    shared = [f for j in range(k, t.n) for f in t.faces(j) if len(f.incidence) >= 2]
    linked = [reps if len(reps := t.classes(f)) >= 2 else () for f in shared]
    # by cell, the positions of its shared faces of two or more classes
    faces_of_cell: dict[int, list[int]] = {}
    for pos, face in enumerate(shared):
        if linked[pos]:
            for ci, _ in face.incidence:
                faces_of_cell.setdefault(ci, []).append(pos)
    # every table lives for this one call and holds what it keys by id
    columns: dict[tuple[int, ...], tuple[PolyForm | None, ...]] = {}
    traces: dict[tuple[int, FaceRef], tuple[PolyForm, ...]] = {}
    agree: dict[tuple[int, int], bool] = {}

    def scan(group: list[GlobalBasisElement], full: bool) -> tuple[int, tuple, tuple] | None:
        """A shared face where the group's trace tuples differ, with two of them; when full, the first in lattice order."""
        cols = {}
        for ci in (*group[0].restrictions, None):  # None: any cell outside the group
            col = tuple(el.restrictions.get(ci) for el in group)
            cols[ci] = columns.setdefault(tuple(map(id, col)), col)
        near = range(len(shared)) if full else {pos for ci in cols for pos in faces_of_cell.get(ci, ())}
        for pos in near:
            first = None
            for ci, fr in shared[pos].incidence if full else linked[pos]:
                col = cols.get(ci, cols[None])
                tr = traces.get((id(col), fr))
                if tr is None:
                    tr = traces[id(col), fr] = tuple(
                        PolyForm.zero(fr.dim, k) if w is None else w.trace(fr) for w in col
                    )
                if first is None:
                    first = tr
                elif tr is not first:
                    same = agree.get((id(first), id(tr)))
                    if same is None:
                        same = agree[id(first), id(tr)] = tr == first
                    if not same:
                        return pos, first, tr
        return None

    groups = (list(g) for _, g in groupby(elements, key=lambda el: (id(el.face), el.restrictions.keys())))
    failing = next((group for group in groups if scan(group, full=False)), None)
    if failing is None:
        return None
    el = next(el for el in failing if scan([el], full=False))
    pos, first, tr = scan([el], full=True)
    return SingleValuedWitness(el, shared[pos], (first[0], tr[0]))


class DirectSumReport(NamedTuple):
    count: int
    expected: int
    independent: bool
    constrained_dimension: int
    cells_spanned: bool

    @property
    def ok(self) -> bool:
        return (
            self.count == self.expected
            and self.independent
            and self.constrained_dimension == self.count
            and self.cells_spanned
        )

    def __bool__(self) -> bool:
        return self.ok


def _stacked_rows(elements: list[GlobalBasisElement]) -> Iterator[linalg.Row]:
    """Each element as one sparse row over (cell, canonical term) columns, at one storage degree."""
    degree = max((w.r for el in elements for w in el.restrictions.values()), default=0)
    for el in elements:
        yield {
            (ci, key): c
            for ci, w in el.restrictions.items()
            for key, c in w.lift(degree).coeffs.items()
        }


def _constraint_rows(
    t: Triangulation, family: Family, r: int, k: int, per_cell: int
) -> Iterator[dict[int, Scalar]]:
    """Trace matching between each face's class representatives, one sparse row per face coordinate and pair.

    Column `cell * per_cell + b` is the coefficient of the whole space's basis
    form b on that cell, and row i compares the traces' coordinates i in the
    face space's basis (:func:`spaces.trace_coordinates`).  By the module's
    coface rule these rows cut out the space all cell pairs on all keys do.
    Each local face's table is transposed once per call into the (b, c)
    entries of each coordinate i, so a row is two of those lists offset by
    their cells.
    """
    entries: dict[FaceRef, dict[int, list[tuple[int, Scalar]]]] = {}
    for j in range(k, t.n):
        for face in t.faces(j):
            (c0, fr0), *others = t.classes(face)
            for ci, fri in others:
                for fr in (fr0, fri):
                    if fr not in entries:
                        entries[fr] = {}
                        for b, coords in enumerate(trace_coordinates(SpaceKind(family), r, k, fr)):
                            for i, c in enumerate(coords):
                                if c:
                                    entries[fr].setdefault(i, []).append((b, c))
                first, other = entries[fr0], entries[fri]
                for i in {**first, **other}:  # first's coordinates, then the rest of other's
                    row = {c0 * per_cell + b: c for b, c in first.get(i, ())}
                    row.update((ci * per_cell + b, -c) for b, c in other.get(i, ()))
                    yield row


def verify_direct_sum(
    t: Triangulation, elements: list[GlobalBasisElement], family: Family, r: int, k: int
) -> DirectSumReport:
    """Independence plus dimension match against the constrained product space.

    `elements` is the assembled basis of the family at degree r and order k.
    Independence is proved cell by cell when it can be: if every element
    touches a cell, and on every cell the restrictions of the elements
    touching it are independent, a vanishing combination vanishes on each
    cell and so has zero coefficients.  Otherwise the exact rank of the
    elements stacked over all cells decides.  A cell's rank depends only on
    the set of restriction objects touching it, so it is computed once per
    distinct set within this one call; `got == len(forms)` still sees a
    repeated object.  The constrained space matches traces only between each
    face's class representatives (:meth:`Triangulation.classes`), in the face
    space's basis: cells agreeing on a shared immediate coface agree on the face.
    """
    count = len(elements)
    whole = SpaceKind(family)
    want = dim_space(whole, t.n, r, k)
    touching: list[list[PolyForm]] = [[] for _ in t.cells]
    for el in elements:
        for ci, w in el.restrictions.items():
            touching[ci].append(w)
    cells_spanned = True
    local = all(el.restrictions for el in elements)
    ranks: dict[frozenset[int], int] = {}
    for forms in touching:
        ids = frozenset(map(id, forms))
        if ids not in ranks:
            ranks[ids] = rank_of(forms)
        got = ranks[ids]
        if got != want:
            cells_spanned = local = False
            break
        local = local and got == len(forms)
    independent = local or linalg.rank(list(_stacked_rows(elements))) == count

    constrained = want * len(t.cells) - linalg.rank(list(_constraint_rows(t, family, r, k, want)))
    expected = assembled_dimension(t, family, r, k)
    return DirectSumReport(count, expected, independent, constrained, cells_spanned)


def decompose(
    t: Triangulation, family: Family, r: int, k: int, piecewise: dict[int, PolyForm]
) -> dict[tuple[int, ...], PolyForm]:
    """Split a member of the assembled space into its per-face components.

    `piecewise` maps cell indices to cell forms; a missing cell holds zero.
    Each cell form is solved once against the geometric basis of its cell,
    the placed zero-trace bases of all its local faces together
    (:func:`extension.cell_table`), and its coordinates are accepted only if
    the form has no key outside that basis and the coordinates agree with it
    on every off-pivot key (:func:`spaces.coordinates`).  The traces are
    single-valued exactly when, on every face, all incident cells give that
    face's slot the same coordinates; faces are compared in lattice order.
    The result maps each face's vertex tuple to its component, the
    combination of those coordinates with the face's zero-trace basis in its
    own coordinates, stored at degree max(r, w.r) of the first incident
    cell's form w; faces whose coordinates all vanish are left out.
    """
    _check_degree_and_order(t, r, k)
    n = t.n
    extra = [key for key in piecewise if type(key) is not int or key not in range(len(t.cells))]
    if extra:
        raise ValueError(f"piecewise key {extra[0]!r} is not a cell index (0..{len(t.cells) - 1})")
    zero_kind = SpaceKind(family, zero_trace=True)
    split: list[dict[FaceRef, list[Scalar]]] = []
    degrees: list[int] = []
    zero = PolyForm.zero(n, k)
    tables: dict[int, tuple] = {}  # the cell table of each storage degree met
    for ci in range(len(t.cells)):
        w = piecewise.get(ci, zero)
        degree = max(r, w.r)
        if degree not in tables:
            tables[degree] = cell_table(zero_kind, n, r, k, degree)
        _, slots, table = tables[degree]
        coords = coordinates(w.lift(degree), n, k, table)
        if coords is None:
            raise ValueError(f"form on cell {ci} is not in the {family.value} space of degree {r}")
        split.append({fr: coords[slot] for fr, slot in slots.items()})
        degrees.append(degree)
    components: dict[tuple[int, ...], PolyForm] = {}
    for j in range(k, n + 1):
        basis = basis_forms(zero_kind, FaceRef.full(j), r, k)
        for face in t.faces(j):
            (c0, fr0), *others = face.incidence
            part = split[c0][fr0]
            if any(split[ci][fr] != part for ci, fr in others):
                raise ValueError(f"traces on face {face.vertices} are not single-valued")
            if any(part):
                components[face.vertices] = combination(j, k, zip(part, basis)).lift(degrees[c0])
    return components
