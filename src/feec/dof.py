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
defines one more family of extension operators.  It runs in integers, on
the pairing matrix's inverse kept as integer columns over one denominator.

Integrals are normalized to a unit-volume reference face oriented by
increasing vertex order; only the exact rational values matter here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from . import linalg
from .forms import FaceRef, PolyForm, Scalar, combination, integral_over_face
from .spaces import Family, SpaceKind, basis_forms


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


_Dual = tuple[list[DofFunctional], list[tuple[tuple[int, int], ...]], int, list[list[Scalar]]]
_solver_cache: dict[tuple[Family, int, int, int], _Dual] = {}


def _dual_basis(family: Family, m: int, r: int, k: int) -> _Dual:
    """The functionals on the m-simplex, the integer inverse X / D of their
    pairing matrix with the basis, and that pairing, built once per process.

    X is kept as its sparse columns, one per functional: column i holds the
    nonzero (j, X[j][i]).  The form sum_j X[j][i] / D * basis[j] has moment 1
    against functional i and 0 against every other one.
    """
    key = (family, m, r, k)
    got = _solver_cache.get(key)
    if got is None:
        dofs = build_dofs(family, m, r, k)
        basis = basis_forms(SpaceKind(family), FaceRef.full(m), r, k)
        pairing = pairing_matrix(dofs, basis)
        inverse = linalg.inverse(pairing)
        if inverse is None:
            raise ArithmeticError(f"singular pairing for {family} r={r} k={k} on dim {m}")
        rows, den = inverse
        columns = [tuple((j, row[i]) for j, row in enumerate(rows) if row[i]) for i in range(len(dofs))]
        got = _solver_cache[key] = (dofs, columns, den, pairing)
    return got


def _moment_forms(
    family: Family, m: int, r: int, k: int, inside: Sequence[int], moments: Iterable[Sequence[Scalar]]
) -> tuple[PolyForm, ...]:
    """For each moment vector, the form on the m-simplex with those moments at
    the functionals `inside` (by index, in order) and 0 at every other one:
    sum_j C_j * basis[j] / (D * E), with the moments scaled to ints by the lcm
    E of their denominators and C_j = sum_i X[j][i] * E * moment_i in ints.
    """
    _, columns, den, _ = _dual_basis(family, m, r, k)
    basis = basis_forms(SpaceKind(family), FaceRef.full(m), r, k)
    out = []
    for mu in moments:
        ints, scale = linalg.clear_denominators(dict(zip(inside, mu)))
        coords = [0] * len(basis)
        for i, x in ints.items():
            if x:
                for j, a in columns[i]:
                    coords[j] += a * x
        w = combination(m, k, zip(coords, basis))
        out.append(w if scale * den == 1 else w * Fraction(1, scale * den))
    return tuple(out)


def dual_extend(
    family: Family, mu: PolyForm, f: FaceRef, h: FaceRef, r: int, k: int
) -> PolyForm:
    """The unique form on h matching mu's moments inside f and zero elsewhere."""
    if not h.contains(f):
        raise ValueError(f"{f.indices} is not a subface of {h.indices}")
    f_in_h = h.to_local(f)
    dofs = _dual_basis(family, h.dim, r, k)[0]
    # moments on faces outside f are zero and drop out
    inside = [i for i, dof in enumerate(dofs) if f_in_h.contains(dof.face)]
    moments = [apply_dof(DofFunctional(f_in_h.to_local(dofs[i].face), dofs[i].weight), mu) for i in inside]
    return _moment_forms(family, h.dim, r, k, inside, [moments])[0]


def dual_images(family: Family, fr: FaceRef, r: int, k: int) -> tuple[PolyForm, ...]:
    """`dual_extend` of each basis form of the reference fr.dim-face, placed at fr.

    The functionals of the fr.n-simplex inside fr are fr's own, in the same
    order: faces and weights go by dimension and then vertex order, which
    to_local keeps.  So the moments of the j-th basis form are column j of
    the face's pairing matrix, and nothing is integrated again.
    """
    dofs = _dual_basis(family, fr.n, r, k)[0]
    inside = [i for i, dof in enumerate(dofs) if fr.contains(dof.face)]
    pairing = _dual_basis(family, fr.dim, r, k)[3]
    return _moment_forms(family, fr.n, r, k, inside, zip(*pairing))
