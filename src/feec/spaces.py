"""The polynomial form spaces on a face: dimensions, spanning sets, bases.

The two families are the full space of polynomial k-forms of degree at most
r and the reduced ("trimmed") space spanned by monomial multiples of Whitney
forms; each comes in a whole-space and a zero-boundary-trace flavor.  The
spanning sets and the basis side conditions below pick out the standard
barycentric generators; all independence and membership questions are
settled by exact rational elimination over canonical coefficients.  The
realized basis is built once per process for each space and face dimension,
and its exact inverse on its pivot keys is kept as sparse columns keyed by
pivot key, so a membership test reads only the columns of the keys the form
has before it rebuilds the form to check the answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from itertools import combinations
from typing import Iterable

from .combinat import binom, multiindices
from . import linalg
from .forms import FaceRef, Key, PolyForm, Scalar, bary_monomial, combination, dlambda, whitney


class Family(str, Enum):
    FULL = "full"
    MINUS = "minus"


@dataclass(frozen=True)
class SpaceKind:
    """One of the four space flavors: family crossed with boundary condition."""

    family: Family
    zero_trace: bool = False


FULL = SpaceKind(Family.FULL)
MINUS = SpaceKind(Family.MINUS)
FULL_ZERO = SpaceKind(Family.FULL, zero_trace=True)
MINUS_ZERO = SpaceKind(Family.MINUS, zero_trace=True)


@dataclass(frozen=True)
class GeneratorDescriptor:
    """A basis/spanning generator lambda^alpha d lambda_sigma or lambda^alpha phi_sigma.

    `alpha` is the exponent tuple over all vertices of the parent simplex of
    `face` and `sigma` the increasing tuple of vertex indices, both global;
    the realized form lives in the face's own coordinates.
    """

    alpha: tuple[int, ...]
    sigma: tuple[int, ...]
    family: Family
    face: FaceRef


def dim_factors(kind: SpaceKind, n: int, r: int, k: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The binomial pairs (a, b), (c, d) of the dimension formula C(a, b) * C(c, d)."""
    if kind.family is Family.FULL:
        return ((r - 1, n - k), (r + k, r)) if kind.zero_trace else ((r + n, n), (n, k))
    return ((n, k), (r + k - 1, n)) if kind.zero_trace else ((r + k - 1, k), (n + r, n - k))


def dim_space(kind: SpaceKind, n: int, r: int, k: int) -> int:
    """Dimension of the space on an n-simplex; out-of-range degrees give 0."""
    if k < 0 or k > n or n < 0:
        return 0
    if kind == FULL_ZERO and r == 0:
        # constants: only the volume form has (vacuously) vanishing trace
        return 1 if k == n else 0
    (a, b), (c, d) = dim_factors(kind, n, r, k)
    return binom(a, b) * binom(c, d)


def enumerate_spanning(kind: SpaceKind, face: FaceRef, r: int, k: int) -> list[GeneratorDescriptor]:
    """The spanning generators of the space on the given face."""
    return _enumerate(kind, face, r, k, basis_only=False)


def enumerate_basis(kind: SpaceKind, face: FaceRef, r: int, k: int) -> list[GeneratorDescriptor]:
    """The subset of spanning generators satisfying the basis side condition."""
    return _enumerate(kind, face, r, k, basis_only=True)


def _enumerate(
    kind: SpaceKind, face: FaceRef, r: int, k: int, basis_only: bool
) -> list[GeneratorDescriptor]:
    n = face.n
    if k < 0 or k > face.dim:
        return []
    if kind == FULL_ZERO and r == 0:
        # constants: only the volume form has (vacuously) vanishing trace
        volume = GeneratorDescriptor((0,) * (n + 1), face.indices[1:], Family.FULL, face)
        return [volume] if k == face.dim else []
    mono_deg = r - 1 if kind.family is Family.MINUS else r
    if mono_deg < 0:
        return []
    iface = set(face.indices)
    out: list[GeneratorDescriptor] = []
    for sigma in combinations(face.indices, k + 1 if kind.family is Family.MINUS else k):
        for local_alpha in multiindices(face.dim, mono_deg):
            alpha = face.place(local_alpha)
            if kind.zero_trace and {i for i, e in enumerate(alpha) if e}.union(sigma) != iface:
                continue
            if basis_only and not _basis_condition(kind, face, alpha, sigma):
                continue
            out.append(GeneratorDescriptor(alpha, sigma, kind.family, face))
    return out


def _basis_condition(
    kind: SpaceKind, face: FaceRef, alpha: tuple[int, ...], sigma: tuple[int, ...]
) -> bool:
    if kind.family is Family.MINUS:
        # no exponent below the first vertex of sigma
        lim = sigma[0]
        return all(alpha[i] == 0 for i in range(lim))
    if not kind.zero_trace:
        # sigma must avoid the first vertex of the face
        return not sigma or sigma[0] > face.indices[0]
    free = [i for i in face.indices if i not in set(sigma)]
    lim = min(free)
    return all(alpha[i] == 0 for i in range(lim))


def realize(g: GeneratorDescriptor) -> PolyForm:
    """The generator as a canonical form in its face's own coordinates."""
    face = g.face
    m = face.dim
    local_alpha, local_sigma = face.localize(g.alpha, g.sigma)
    mono = bary_monomial(m, local_alpha)
    if g.family is Family.MINUS:
        return mono.wedge(whitney(m, local_sigma))
    if not local_sigma:
        return mono
    return mono.wedge(dlambda(m, local_sigma))


def basis_forms(kind: SpaceKind, face: FaceRef, r: int, k: int) -> tuple[PolyForm, ...]:
    """Realized basis of the space, in enumeration order; callers must not mutate it."""
    return _reference_basis(kind, face.dim, r, k)


@cache
def _reference_basis(kind: SpaceKind, m: int, r: int, k: int) -> tuple[PolyForm, ...]:
    """The realized basis on the reference m-simplex, built once per process.

    It serves every m-face: generators and the basis condition are stated in
    vertex order, which the face's own coordinates keep.
    """
    return tuple(realize(g) for g in enumerate_basis(kind, FaceRef.full(m), r, k))


def rank_of(forms: Iterable[PolyForm]) -> int:
    """Rank of a list of forms as vectors of canonical coefficients.

    The forms are homogenized to one common degree, so that equal keys
    name the same coefficient.
    """
    live = [w for w in forms if not w.is_zero]
    shapes = {(w.n, w.k) for w in live}
    if len(shapes) > 1:
        raise ValueError(f"forms of mixed shape: {shapes}")
    r = max((w.r for w in live), default=0)
    lifted = [w.lift(r).coeffs for w in live]
    keys = sorted(set().union(*lifted))
    return linalg.rank([[c.get(key, 0) for key in keys] for c in lifted])


@cache
def _basis_table(
    kind: SpaceKind, m: int, r: int, k: int, degree: int
) -> tuple[tuple[PolyForm, ...], dict[Key, tuple[tuple[int, Scalar], ...]]]:
    """The basis on an m-face stored at `degree`, and its inverse there as sparse columns.

    The pivot keys are the least independent key columns in key order, so the
    basis restricted to them is square and nonsingular.  The inverse of that
    square matrix is kept column by column, keyed by pivot key, with only its
    nonzero (basis index, entry) pairs.  Built once per process for each
    argument tuple.
    """
    basis = tuple(b.lift(degree) for b in basis_forms(kind, FaceRef.full(m), r, k))
    pivot_keys = linalg.pivot_columns(b.coeffs for b in basis)
    inverse = None
    if len(pivot_keys) == len(basis):
        inverse = linalg.inverse([[b.coeffs.get(key, 0) for b in basis] for key in pivot_keys])
    if inverse is None:
        raise ArithmeticError(f"dependent basis for {kind} r={r} k={k} on dim {m}")
    columns = {
        key: tuple((i, row[j]) for i, row in enumerate(inverse) if row[j]) for j, key in enumerate(pivot_keys)
    }
    return basis, columns


def membership(
    w: PolyForm, kind: SpaceKind, face: FaceRef, r: int, k: int
) -> list[Scalar] | None:
    """Coordinates of w in the basis of the space, or None when outside it.

    The form must be expressed in the face's own coordinates.  Candidate
    coordinates come from w's coefficients on the pivot keys, through the
    sparse inverse columns of those keys that w has; they are accepted only
    if the basis combination rebuilds w exactly.
    """
    if w.n != face.dim:
        raise ValueError(f"form lives on dimension {w.n}, face has dimension {face.dim}")
    if not w.is_zero and w.k != k:
        raise ValueError(f"form order {w.k} does not match k={k}")
    degree = max(r, w.r)
    basis, columns = _basis_table(kind, face.dim, r, k, degree)
    target = w.lift(degree).coeffs
    coords: list[Scalar] = [0] * len(basis)
    for key, v in target.items():
        for i, a in columns.get(key, ()):
            coords[i] += a * v
    coords = [c if type(c) is int or c.denominator != 1 else c.numerator for c in coords]
    if combination(face.dim, k, zip(coords, basis)).coeffs != target:
        return None
    return coords
