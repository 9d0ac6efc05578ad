"""Extension operators from a face to a containing face, and their laws.

Every family is fixed by a cached table of its images of a face basis,
which a member's basis coordinates on the face weight.  The families are
the Whitney-generator map for the reduced family; the corrected-differential
map for the full family, which is the Bernstein monomial map on 0-forms and
otherwise replaces each face differential d lambda_i by

    psi_i = d lambda_i - (alpha_i / |alpha|) * sum_{j in I(f)} d lambda_j

so that the image depends only on the form and not on its barycentric
representation; the moment map, which extends by matching degrees of
freedom, for either family (DUAL_FULL, DUAL_MINUS); and, as a negative
control, the naive map, whose table relabels the degree-r basis forms
without the correction (linear on degree-r coefficients; its dependence on
the representation is shown by `naive_representative_discrepancy`).  The
kind alone names the space a family extends.  The placed zero-trace bases
of all faces of a simplex together form one basis of its whole space, the
geometric decomposition, kept with its inverse as one cached table per
cell space.  The naive control is a right inverse of the trace but fails
the compatibility law for a family E, which is checked on the image tables
and the traced-basis table `spaces.trace_coordinates` alone:

    tr_{h,g} E_{f,h} = E_{f \\cap g, g} tr_{f, f \\cap g}   for f, g inside h,

with the convention that an empty intersection contributes zero.  As traces
compose, facet pairs suffice: g = h is the identity, and the law for (f, g')
on h with g' a facet and for (f \\cap g', g) on g' gives it for g inside g'.
So it is checked on facets for d = h.dim down to 1; a failure below h.dim
is reported under its vertex indices on h, where the law fails too.
"""

from __future__ import annotations

from enum import Enum
from functools import cache
from typing import NamedTuple

from . import linalg
from .dof import dual_images
from .forms import FaceRef, Key, PolyForm, Scalar, bary_monomial, canonicalize, combination, psi_form, whitney
from .spaces import (
    CoordinateTable,
    Family,
    SpaceKind,
    basis_forms,
    dim_space,
    enumerate_basis,
    inverse_columns,
    membership,
    rank_of,
    trace_coordinates,
)


class FamilyKind(Enum):
    MINUS_BARYCENTRIC = "minus"
    FULL_PSI = "full"
    DUAL_FULL = "dual-full"
    DUAL_MINUS = "dual-minus"
    NAIVE_FULL = "naive"

    @property
    def family(self) -> Family:
        """The primal family whose space the kind extends."""
        return Family.MINUS if self in (FamilyKind.MINUS_BARYCENTRIC, FamilyKind.DUAL_MINUS) else Family.FULL


class ExtensionFamily(NamedTuple("ExtensionFamily", [("kind", FamilyKind), ("r", int), ("k", int)])):
    """A family of extension operators E_{f,g} for one space kind."""

    __slots__ = ()

    def __new__(cls, kind: FamilyKind, r: int, k: int) -> ExtensionFamily:
        if kind is FamilyKind.FULL_PSI and r == 0 and k >= 1:
            raise ValueError("the corrected-differential extension needs r >= 1 for k >= 1")
        return super().__new__(cls, kind, r, k)

    @property
    def space_kind(self) -> SpaceKind:
        return SpaceKind(self.kind.family)


class VanishingOrder(Enum):
    NEITHER = "neither"
    ORDER_R = "order_r"
    ORDER_R_PLUS = "order_r_plus"


# -- generator-level extension (exact on every spanning generator) -------------


def extend_minus_generator(alpha: tuple[int, ...], sigma: tuple[int, ...], g: FaceRef) -> PolyForm:
    """lambda^alpha phi_sigma realized on g; indices are global."""
    a, s = g.localize(alpha, sigma)
    return bary_monomial(g.dim, a).wedge(whitney(g.dim, s))


def extend_full_generator(
    alpha: tuple[int, ...], sigma: tuple[int, ...], f: FaceRef, g: FaceRef
) -> PolyForm:
    """lambda^alpha psi^{alpha,f,g}_sigma realized on g; indices are global."""
    a, s = g.localize(alpha, sigma)
    mono = bary_monomial(g.dim, a)
    if not s:
        return mono
    f_in_g = g.to_local(f)
    return mono.wedge(psi_form(a, f_in_g, s))


def extend_generator(
    family: Family, alpha: tuple[int, ...], sigma: tuple[int, ...], f: FaceRef, g: FaceRef
) -> PolyForm:
    """The family's generator on f with global indices alpha, sigma, extended to g.

    For 0-forms of the full family this is the Bernstein monomial map.
    """
    if family is Family.MINUS:
        return extend_minus_generator(alpha, sigma, g)
    return extend_full_generator(alpha, sigma, f, g)


@cache
def placed_basis(kind: SpaceKind, r: int, k: int, fr: FaceRef) -> tuple[PolyForm, ...]:
    """A face basis extended into the simplex that holds the face at fr.

    The basis is that of the reference fr.dim-face, in enumeration order.  It
    depends only on the space and the local face, so it is built once per
    process and shared by every caller; callers must not mutate it.
    """
    top = FaceRef.full(fr.n)
    return tuple(
        extend_generator(d.family, fr.place(d.alpha), tuple(fr.indices[s] for s in d.sigma), fr, top)
        for d in enumerate_basis(kind, FaceRef.full(fr.dim), r, k)
    )


@cache
def cell_table(
    kind: SpaceKind, n: int, r: int, k: int, degree: int
) -> tuple[tuple[PolyForm, ...], dict[FaceRef, slice], CoordinateTable]:
    """The geometric basis of the whole space on the n-simplex, stored at `degree`.

    `kind` is a zero-trace space.  The whole space of its family on the cell
    is the direct sum, over the local faces f, of the zero-trace space on f
    extended into the cell, so the :func:`placed_basis` forms of every local
    face of dimension >= k, in lattice order, form one basis of it.
    Returned are those forms, the slot
    of each local face's forms in that list, and their coordinate table
    (:func:`spaces.inverse_columns`).  Building the table proves
    the decomposition: it raises ArithmeticError unless the forms are
    independent and as many as the dimension of the cell space.  Built once
    per process for each argument tuple; callers must not mutate it.
    """
    forms: list[PolyForm] = []
    slots: dict[FaceRef, slice] = {}
    for fr in FaceRef.full(n).all_subfaces():
        if fr.dim >= k:
            placed = placed_basis(kind, r, k, fr)
            slots[fr] = slice(len(forms), len(forms) + len(placed))
            forms.extend(w.lift(degree) for w in placed)
    what = f"the placed {kind} r={r} k={k} on dim {n}"
    if len(forms) != dim_space(SpaceKind(kind.family), n, r, k):
        raise ArithmeticError(f"{what} has {len(forms)} forms, not a basis")
    return tuple(forms), slots, inverse_columns([w.coeffs for w in forms], what)


# -- form-level extension -------------------------------------------------------


def extend_naive(mu: PolyForm, f: FaceRef, g: FaceRef) -> PolyForm:
    """Reinterpret the f-local form mu on g by vertex correspondence (negative control)."""
    if mu.n != f.dim:
        raise ValueError(f"form lives on dimension {mu.n}, face has dimension {f.dim}")
    fl = g.to_local(f)
    raw = [(fl.place(alpha), tuple(fl.indices[s] for s in sigma), c) for alpha, sigma, c in mu.terms()]
    return canonicalize(g.dim, mu.k, raw, degree=mu.r)


@cache
def _images(fam: ExtensionFamily, fr: FaceRef) -> tuple[PolyForm, ...]:
    """The family's images of the reference basis on an fr.dim-face placed at fr.

    Every family is fixed by these images.  The naive control's are the
    basis forms relabelled by :func:`extend_naive`; each is stored at degree
    r, where the relabelling is linear.  Built once per process for each
    family and local face; callers must not mutate them.
    """
    if fam.kind is FamilyKind.NAIVE_FULL:
        top = FaceRef.full(fr.n)
        return tuple(extend_naive(b, fr, top) for b in basis_forms(fam.space_kind, fr, fam.r, fam.k))
    if fam.kind in (FamilyKind.DUAL_FULL, FamilyKind.DUAL_MINUS):
        return dual_images(fam.kind.family, fr, fam.r, fam.k)
    return placed_basis(fam.space_kind, fam.r, fam.k, fr)


def extend_form(fam: ExtensionFamily, mu: PolyForm, f: FaceRef, g: FaceRef) -> PolyForm:
    """The family's extension of a space member on f to g.

    mu's coordinates in the basis on f weight the images of that basis;
    raises ValueError when mu is not a member of that space.
    """
    coords = membership(mu, fam.space_kind, f, fam.r, fam.k)
    if coords is None:
        raise ValueError(f"form is not a member of the degree-{fam.r} space on {f.indices}")
    return combination(g.dim, fam.k, zip(coords, _images(fam, g.to_local(f))))


# -- the compatibility law ------------------------------------------------------


class ConsistencyWitness(NamedTuple):
    f: FaceRef
    g: FaceRef
    mu: PolyForm
    lhs: PolyForm
    rhs: PolyForm


class ConsistencyResult(NamedTuple):
    ok: bool
    witness: ConsistencyWitness | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_consistency(fam: ExtensionFamily, h: FaceRef) -> ConsistencyResult:
    """Verify the compatibility law on every basis element, all face pairs in h.

    Works in the local coordinates of h, so h may itself be a proper face of
    a larger simplex, and reads the image tables only.  By the facet lemma
    above it checks, for d = h.dim down to 1, each face f of the reference
    d-simplex in lattice order against its facets g in order: the trace onto
    g of a member's image on f must equal the images of f \\cap g in g weighted
    by the coordinates of the member's trace on f \\cap g (zero if disjoint),
    which every family of the space reads from :func:`spaces.trace_coordinates`;
    a unit row's right side is its image itself, uncopied (see `combination`).
    The first failure is the witness, under its vertex indices on h.
    """
    kind, r, k = fam.space_kind, fam.r, fam.k
    for d in range(h.dim, 0, -1):
        faces = FaceRef.full(d).all_subfaces()
        facets = [g for g in faces if g.dim == d - 1]
        for f in faces:
            members, extended = basis_forms(kind, f, r, k), _images(fam, f)
            for g in facets:
                fg = f.intersect(g)
                if fg is None:
                    rows, images = [()] * len(members), ()
                else:
                    rows = trace_coordinates(kind, r, k, f.to_local(fg))
                    images = _images(fam, g.to_local(fg))
                for mu, ext, row in zip(members, extended, rows):
                    lhs, rhs = ext.trace(g), combination(g.dim, k, zip(row, images))
                    if lhs != rhs:
                        w = ConsistencyWitness(FaceRef(h.dim, f.indices), FaceRef(h.dim, g.indices), mu, lhs, rhs)
                        return ConsistencyResult(False, w)
    return ConsistencyResult(True)


def naive_representative_discrepancy() -> PolyForm:
    """How the uncorrected map fails to be well defined on a triangle.

    On the edge [x1, x2] the generators lambda_1 lambda_2 d lambda_1 and
    -lambda_1 lambda_2 d lambda_2 are the same form, but their uncorrected
    images on the triangle differ; the difference is returned.
    """
    img_a = canonicalize(2, 1, [((0, 1, 1), (1,), 1)])
    img_b = canonicalize(2, 1, [((0, 1, 1), (2,), -1)])
    return img_a - img_b


# -- vanishing order ------------------------------------------------------------


# Off-face coefficients sit under the pseudo-vertex -1: `linalg` orders column labels.
_OFF = -1


def _off_face_values(w: PolyForm, face: FaceRef) -> dict[tuple, Scalar]:
    """(_OFF, alpha, sigma) -> c for each coefficient of w with an exponent off the face (order r)."""
    opposite = face.complement_indices
    return {(_OFF, alpha, sigma): c for (alpha, sigma), c in w.coeffs.items() if any(alpha[i] for i in opposite)}


def _contraction_values(w: PolyForm, face: FaceRef) -> dict[tuple, Scalar]:
    """(l, alpha, tau) -> v for each on-face alpha-slice of w, k >= 1, contracted with
    the vector from each opposite vertex x_l to the weighted point of alpha (order r+).
    """
    if not w.k:
        return {}
    opposite = face.complement_indices
    slices: dict[tuple[int, ...], dict[Key, Scalar]] = {}
    zero = (0,) * (w.n + 1)
    for (alpha, sigma), c in w.coeffs.items():
        if not any(alpha[i] for i in opposite):
            slices.setdefault(alpha, {})[zero, sigma] = c
    values: dict[tuple, Scalar] = {}
    for alpha, coeffs in slices.items():
        alpha_slice = PolyForm(w.n, w.k, 0, coeffs)
        for l in opposite:
            for (_, tau), v in alpha_slice.contract(alpha, l).coeffs.items():
                values[l, alpha, tau] = v
    return values


def vanishing_order_check(w: PolyForm, face: FaceRef, r: int) -> VanishingOrder:
    """Classify how strongly w vanishes on the face opposite to `face`.

    Reads the sparse functional values that `characterization_equality`
    ranks: an off-face coefficient fails order r, and a nonzero contraction
    of an on-face alpha-slice, the directional-derivative condition once the
    support criterion holds, fails order r+.
    """
    if w.is_zero:
        return VanishingOrder.ORDER_R_PLUS
    if w.r > r:
        raise ValueError(f"form has degree {w.r} > {r}")
    w = w.lift(r)
    if face.n != w.n:
        raise ValueError("face does not match the form's simplex")
    if _off_face_values(w, face):
        return VanishingOrder.NEITHER
    return VanishingOrder.ORDER_R if _contraction_values(w, face) else VanishingOrder.ORDER_R_PLUS


def characterization_equality(family: Family, face: FaceRef, r: int, k: int) -> bool:
    """Extended forms are exactly those vanishing to the right order opposite the face.

    Ranks the sparse functional values that `vanishing_order_check` reads,
    on the whole space over the full simplex: all of them for the full
    family, the off-face ones alone for the reduced one.  The extended face
    basis must zero each of them and span the solution space's dimension.
    """
    kind = SpaceKind(family)

    def functionals(w: PolyForm) -> dict[tuple, Scalar]:
        w = w.lift(r)
        values = _off_face_values(w, face)
        if family is Family.FULL:
            values |= _contraction_values(w, face)
        return values

    basis = basis_forms(kind, FaceRef.full(face.n), r, k)
    expected = dim_space(kind, face.dim, r, k)
    if len(basis) - linalg.rank([functionals(b) for b in basis]) != expected:
        return False
    extended = placed_basis(kind, r, k, face)
    return not any(map(functionals, extended)) and rank_of(extended) == expected
