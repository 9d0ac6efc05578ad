"""Face moments, unisolvence, and the degree-of-freedom extension.

A functional attaches to a face f of the reference simplex a weight form
eta living on f; evaluation is

    psi(omega) = integral over f of  tr omega ^ eta.

For the full family the weights run over a basis of the reduced space of
complementary order and degree r + k - dim f on f; for the reduced family
they run over the full space of degree r + k - dim f - 1.  Collecting the
functionals over all faces yields a dual basis (the pairing matrix with the
primal basis is nonsingular), and requiring a form on a larger face to match
given moments on the subfaces of f and have vanishing moments elsewhere
defines one more family of extension operators.  One moment table per
simplex holds the pairing: unisolvence is its rank, and the extension runs
in integers on the coordinate table of `feec.spaces` over its columns.

Integrals are normalized to a unit-volume reference face oriented by
increasing vertex order; only the exact rational values matter here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Iterable, Mapping, NamedTuple, Sequence

from .forms import FaceRef, PolyForm, Scalar, combination, integral_over_face
from .spaces import CoordinateTable, Family, SpaceKind, basis_forms, integer_coordinates, inverse_columns


class DofFunctional(NamedTuple):
    """A face moment: integrate the trace against the weight on the face."""

    face: FaceRef
    weight: PolyForm


def weight_space(family: Family, d: int, r: int, k: int) -> tuple[SpaceKind, int, int]:
    """(kind, degree, order) of the weights attached to a d-face."""
    if family is Family.FULL:
        return SpaceKind(Family.MINUS), r + k - d, d - k
    return SpaceKind(Family.FULL), r + k - d - 1, d - k


def build_dofs(family: Family, n: int, r: int, k: int) -> list[DofFunctional]:
    """All functionals of the family on the reference n-simplex, face by face."""
    if r < 1:
        raise ValueError("degrees of freedom need polynomial degree r >= 1")
    out: list[DofFunctional] = []
    for face in FaceRef.full(n).all_subfaces():
        if face.dim < k:
            continue
        kind, deg, order = weight_space(family, face.dim, r, k)
        out.extend(DofFunctional(face, w) for w in basis_forms(kind, FaceRef.full(face.dim), deg, order))
    return out


def _moment(tr: PolyForm, weight: PolyForm) -> Scalar:
    return 0 if tr.is_zero else integral_over_face(tr.wedge(weight))


def apply_dof(dof: DofFunctional, w: PolyForm) -> Scalar:
    """Evaluate the functional on a form over the dof's parent simplex."""
    return _moment(w.trace(dof.face), dof.weight)


def pairing_matrix(dofs: list[DofFunctional], forms: Sequence[PolyForm]) -> list[list[Scalar]]:
    """Matrix of functional values, one row per functional; each form is traced once per face."""
    if len(dofs) != len(forms):
        raise ValueError(f"{len(dofs)} functionals against {len(forms)} forms")
    traces = {face: [w.trace(face) for w in forms] for face in dict.fromkeys(d.face for d in dofs)}
    return [[_moment(tr, d.weight) for tr in traces[d.face]] for d in dofs]


class MomentTable(NamedTuple):
    """A simplex's functionals and each basis form's moment column: pairing column j by functional index, no zeros."""

    dofs: list[DofFunctional]
    columns: tuple[dict[int, Scalar], ...]


@cache
def moment_table(family: Family, m: int, r: int, k: int) -> MomentTable:
    """The pairing of the functionals with the basis forms on the m-simplex, built once per process."""
    dofs = build_dofs(family, m, r, k)
    pairing = pairing_matrix(dofs, basis_forms(SpaceKind(family), FaceRef.full(m), r, k))
    return MomentTable(dofs, tuple({i: row[j] for i, row in enumerate(pairing) if row[j]} for j in range(len(dofs))))


_solver_cache: dict[tuple[Family, int, int, int], CoordinateTable] = {}


def _dual_basis(family: Family, m: int, r: int, k: int) -> CoordinateTable:
    """The coordinate table of the m-simplex's moment columns, which inverts
    the pairing, built once per process; a singular one raises ArithmeticError."""
    key = (family, m, r, k)
    if key not in _solver_cache:
        _solver_cache[key] = inverse_columns(moment_table(*key).columns, f"the {family.value} pairing r={r} k={k} on dim {m}")
    return _solver_cache[key]


def _moment_forms(
    family: Family, fr: FaceRef, r: int, k: int, moments: Iterable[Mapping[int, Scalar]]
) -> tuple[PolyForm, ...]:
    """For each sparse moment vector, keyed by index among the functionals inside fr, the form on
    the fr.n-simplex with those moments there and 0 at every other functional: the integer basis
    combination C / S of its integer coordinates, or the basis form itself if C / S is a unit vector."""
    table = _dual_basis(family, fr.n, r, k)
    inside = [i for i, dof in enumerate(moment_table(family, fr.n, r, k).dofs) if fr.contains(dof.face)]
    basis = basis_forms(SpaceKind(family), FaceRef.full(fr.n), r, k)
    out = []
    for mu in moments:
        coords, scale = integer_coordinates({inside[i]: x for i, x in mu.items() if x}, table)
        if coords.count(0) == len(coords) - 1 and scale in coords:
            coords, scale = [c // scale for c in coords], 1
        w = combination(fr.n, k, zip(coords, basis))
        out.append(w if scale == 1 else w * Fraction(1, scale))
    return tuple(out)


def dual_extend(family: Family, mu: PolyForm, f: FaceRef, h: FaceRef, r: int, k: int) -> PolyForm:
    """The unique form on h matching mu's moments inside f and zero elsewhere."""
    # h's functionals inside f are f's own, in order (see dual_images)
    moments = dict(enumerate(apply_dof(d, mu) for d in moment_table(family, f.dim, r, k).dofs))
    return _moment_forms(family, h.to_local(f), r, k, [moments])[0]


def dual_images(family: Family, fr: FaceRef, r: int, k: int) -> tuple[PolyForm, ...]:
    """`dual_extend` of each basis form of the reference fr.dim-face, placed at fr.

    The functionals of the fr.n-simplex inside fr are fr's own, in the same
    order: faces and weights go by dimension and then vertex order, which
    to_local keeps.  So the moments of the j-th basis form are the face's
    moment column j, and nothing is integrated again.
    """
    return _moment_forms(family, fr, r, k, moment_table(family, fr.dim, r, k).columns)
