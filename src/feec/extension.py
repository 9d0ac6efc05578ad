"""Extension operators from a face to a containing face, and their laws.

Three linear families are provided: the Whitney-generator map for the
reduced family; the corrected-differential map for the full family, which
is the Bernstein monomial map on 0-forms and otherwise replaces each face
differential d lambda_i by

    psi_i = d lambda_i - (alpha_i / |alpha|) * sum_{j in I(f)} d lambda_j

so that the image depends only on the form and not on its barycentric
representation; and the moment map, which extends by matching degrees of
freedom, for either family (DUAL_FULL, DUAL_MINUS).  The kind alone names
the space a family extends.  Each extends a member through its basis
coordinates on the face and a cached table of the images of that basis.
A deliberately naive map, which takes d lambda_sigma to itself without the
correction, is kept as a negative control: it is a right inverse of the
trace but fails the compatibility law checked here.

The compatibility law for a family E is

    tr_{h,g} E_{f,h} = E_{f \\cap g, g} tr_{f, f \\cap g}   for f, g inside h,

with the convention that an empty intersection contributes zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache

from . import linalg
from .dof import dual_extend
from .forms import FaceRef, Key, PolyForm, Scalar, bary_monomial, canonicalize, combination, psi_form, whitney
from .spaces import (
    Family,
    SpaceKind,
    basis_forms,
    dim_space,
    enumerate_basis,
    membership,
    rank_of,
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


@dataclass(frozen=True)
class ExtensionFamily:
    """A family of extension operators E_{f,g} for one space kind."""

    kind: FamilyKind
    r: int
    k: int

    def __post_init__(self) -> None:
        if self.kind is FamilyKind.FULL_PSI and self.r == 0 and self.k >= 1:
            raise ValueError("the corrected-differential extension needs r >= 1 for k >= 1")

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


# -- form-level extension -------------------------------------------------------


def extend_naive(mu: PolyForm, f: FaceRef, g: FaceRef) -> PolyForm:
    """Reinterpret the f-local form mu on g by vertex correspondence (negative control)."""
    if not g.contains(f):
        raise ValueError(f"{f.indices} is not a subface of {g.indices}")
    if mu.n != f.dim:
        raise ValueError(f"form lives on dimension {mu.n}, face has dimension {f.dim}")
    fl = g.to_local(f)
    raw = [(fl.place(alpha), tuple(fl.indices[s] for s in sigma), c) for alpha, sigma, c in mu.terms()]
    return canonicalize(g.dim, mu.k, raw, degree=mu.r)


@cache
def _images(fam: ExtensionFamily, fr: FaceRef) -> tuple[PolyForm, ...]:
    """The family's images of the reference basis on an fr.dim-face placed at fr.

    A linear extension is fixed by these images.  Built once per process for
    each family and local face; callers must not mutate them.
    """
    kind, r, k = fam.space_kind, fam.r, fam.k
    if fam.kind in (FamilyKind.DUAL_FULL, FamilyKind.DUAL_MINUS):
        top = FaceRef.full(fr.n)
        basis = basis_forms(kind, FaceRef.full(fr.dim), r, k)
        return tuple(dual_extend(fam.kind.family, b, fr, top, r, k) for b in basis)
    return placed_basis(kind, r, k, fr)


def _input(fam: ExtensionFamily, mu: PolyForm, f: FaceRef) -> PolyForm | list[Scalar]:
    """What the family extends from f: mu itself for the naive control, else mu's basis coordinates.

    Raises ValueError when a linear family's mu is not a member of the space on f.
    """
    if fam.kind is FamilyKind.NAIVE_FULL:
        return mu
    coords = membership(mu, fam.space_kind, f, fam.r, fam.k)
    if coords is None:
        raise ValueError(f"form is not a member of the degree-{fam.r} space on {f.indices}")
    return coords


def _extend_input(fam: ExtensionFamily, x: PolyForm | list[Scalar], f: FaceRef, g: FaceRef) -> PolyForm:
    """The extension to g of what `_input` returned on f."""
    if fam.kind is FamilyKind.NAIVE_FULL:
        return extend_naive(x, f, g)
    return combination(g.dim, fam.k, zip(x, _images(fam, g.to_local(f))))


def extend_form(fam: ExtensionFamily, mu: PolyForm, f: FaceRef, g: FaceRef) -> PolyForm:
    """The family's extension of a space member on f to g.

    Every family but the naive control is linear, so mu's coordinates in the
    basis on f weight the images of that basis.
    """
    return _extend_input(fam, _input(fam, mu, f), f, g)


# -- the compatibility law ------------------------------------------------------


@dataclass
class ConsistencyWitness:
    f: FaceRef
    g: FaceRef
    mu: PolyForm
    lhs: PolyForm
    rhs: PolyForm


@dataclass
class ConsistencyResult:
    ok: bool
    witness: ConsistencyWitness | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_consistency(fam: ExtensionFamily, h: FaceRef) -> ConsistencyResult:
    """Verify the compatibility law on every basis element, all face pairs in h.

    Works in the local coordinates of h, so h may itself be a proper face of
    a larger simplex.  Each basis member of f is extended to h once; only its
    trace depends on g.  The right side's input, the trace of a member onto
    f \\cap g and (for a linear family) its coordinates there, is computed
    once per (f, f \\cap g) and extended to each g.
    """
    top = FaceRef.full(h.dim)
    faces = top.all_subfaces()
    for f in faces:
        members = basis_forms(fam.space_kind, f, fam.r, fam.k)
        extended = [extend_form(fam, mu, f, top) for mu in members]
        restricted: dict[tuple[FaceRef, int], PolyForm | list[Scalar]] = {}
        for g in faces:
            fg = f.intersect(g)
            for i, (mu, ext) in enumerate(zip(members, extended)):
                lhs = ext.trace(g)
                if fg is None:
                    rhs = PolyForm.zero(g.dim, fam.k)
                else:
                    rest = restricted.get((fg, i))
                    if rest is None:
                        rest = restricted[fg, i] = _input(fam, mu.trace(f.to_local(fg)), fg)
                    rhs = _extend_input(fam, rest, fg, g)
                if lhs != rhs:
                    return ConsistencyResult(False, ConsistencyWitness(f, g, mu, lhs, rhs))
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
    if len(basis) - linalg.rank_sparse(map(functionals, basis)) != expected:
        return False
    extended = placed_basis(kind, r, k, face)
    return not any(map(functionals, extended)) and rank_of(extended) == expected
