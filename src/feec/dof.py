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
defines one more family of extension operators.

Integrals are normalized to a unit-volume reference face oriented by
increasing vertex order; only the exact rational values matter here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import linalg
from .forms import FaceRef, PolyForm, Scalar, combination, integral_over_face
from .spaces import Family, SpaceKind, basis_forms


@dataclass(frozen=True)
class DofFunctional:
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


def apply_dof(dof: DofFunctional, w: PolyForm) -> Scalar:
    """Evaluate the functional on a form over the dof's parent simplex."""
    if w.n != dof.face.n:
        raise ValueError(f"form lives on dimension {w.n}, functional on {dof.face.n}")
    tr = w.trace(dof.face)
    if tr.is_zero:
        return 0
    return integral_over_face(tr.wedge(dof.weight))


def pairing_matrix(dofs: list[DofFunctional], forms: Sequence[PolyForm]) -> list[list[Scalar]]:
    """Matrix of functional values, one row per functional."""
    if len(dofs) != len(forms):
        raise ValueError(f"{len(dofs)} functionals against {len(forms)} forms")
    return [[apply_dof(d, w) for w in forms] for d in dofs]


_solver_cache: dict[tuple[Family, int, int, int], tuple[list[DofFunctional], list[PolyForm]]] = {}


def _dual_basis(family: Family, m: int, r: int, k: int) -> tuple[list[DofFunctional], list[PolyForm]]:
    """The functionals on the m-simplex and the forms dual to them, built once per process.

    dual[i] = sum_j inverse[j][i] * basis[j] has moment 1 against functional
    i and 0 against every other one.
    """
    key = (family, m, r, k)
    got = _solver_cache.get(key)
    if got is None:
        dofs = build_dofs(family, m, r, k)
        basis = basis_forms(SpaceKind(family), FaceRef.full(m), r, k)
        inverse = linalg.inverse(pairing_matrix(dofs, basis))
        if inverse is None:
            raise ArithmeticError(f"singular pairing for {family} r={r} k={k} on dim {m}")
        dual = [combination(m, k, zip((row[i] for row in inverse), basis)) for i in range(len(dofs))]
        got = _solver_cache[key] = (dofs, dual)
    return got


def dual_extend(
    family: Family, mu: PolyForm, f: FaceRef, h: FaceRef, r: int, k: int
) -> PolyForm:
    """The unique form on h matching mu's moments inside f and zero elsewhere."""
    if not h.contains(f):
        raise ValueError(f"{f.indices} is not a subface of {h.indices}")
    f_in_h = h.to_local(f)
    dofs, dual = _dual_basis(family, h.dim, r, k)
    # moments on faces outside f are zero and drop out
    moments = (
        (apply_dof(DofFunctional(f_in_h.to_local(dof.face), dof.weight), mu), w)
        for dof, w in zip(dofs, dual)
        if f_in_h.contains(dof.face)
    )
    return combination(h.dim, k, moments)
