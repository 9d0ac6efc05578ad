"""The polynomial form spaces on a face: dimensions, spanning sets, bases.

The two families are the full space of polynomial k-forms of degree at most
r and the reduced ("trimmed") space spanned by monomial multiples of Whitney
forms; each comes in a whole-space and a zero-boundary-trace flavor.  The
spanning sets and the basis side conditions below pick out the standard
barycentric generators; all independence and membership questions are
settled by exact rational elimination over canonical coefficients.  The
basis generators are enumerated once per process for each space and face,
and the realized basis is built once for each space and face dimension; one
elimination finds its pivot keys and its exact inverse on them, kept as
sparse integer columns over one denominator, so a membership test runs in
integers, reads only the columns of the keys the form has, and then checks
the answer on the other keys, where alone the combination could differ from
the form.  The same table, over the basis forms' moments, serves the moment
extension of `feec.dof`.  The coordinates of a simplex's basis traced onto
each of its faces are tabled once per process too.
"""

from __future__ import annotations

from enum import Enum
from functools import cache
from itertools import combinations
from typing import Iterable, Mapping, NamedTuple, Sequence

from .combinat import binom, multiindices
from . import linalg
from .forms import FaceRef, Key, PolyForm, Scalar, bary_monomial, dlambda, whitney


class Family(str, Enum):
    FULL = "full"
    MINUS = "minus"


class SpaceKind(NamedTuple):
    """One of the four space flavors: family crossed with boundary condition."""

    family: Family
    zero_trace: bool = False


FULL = SpaceKind(Family.FULL)
MINUS = SpaceKind(Family.MINUS)
FULL_ZERO = SpaceKind(Family.FULL, zero_trace=True)
MINUS_ZERO = SpaceKind(Family.MINUS, zero_trace=True)


class GeneratorDescriptor(NamedTuple):
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


@cache
def enumerate_basis(kind: SpaceKind, face: FaceRef, r: int, k: int) -> tuple[GeneratorDescriptor, ...]:
    """The spanning generators satisfying the basis side condition, built once per process."""
    return tuple(_enumerate(kind, face, r, k, basis_only=True))


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
    # each exponent is placed once, with its support, for all sigmas
    placed = [(a, {i for i, e in enumerate(a) if e}) for a in map(face.place, multiindices(face.dim, mono_deg))]
    out: list[GeneratorDescriptor] = []
    for sigma in combinations(face.indices, k + 1 if kind.family is Family.MINUS else k):
        for alpha, support in placed:
            if kind.zero_trace and support.union(sigma) != iface:
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
    return linalg.rank([w.lift(r).coeffs for w in live])


Columns = dict[Key, tuple[tuple[int, Scalar], ...]]


class CoordinateTable(NamedTuple):
    """What an exact coordinate solve in a fixed list of independent sparse vectors reads.

    `columns` holds the sparse integer columns of X by pivot key, where X / D
    is the inverse on the pivot keys and D the `denominator`, and `off_pivot`
    the vectors' own sparse (vector index, entry) column at each other key
    of theirs, so every key of the vectors is in exactly one of them.
    """

    columns: Columns
    off_pivot: Columns
    denominator: int


def inverse_columns(vectors: Sequence[Mapping[Key, Scalar]], what: str) -> CoordinateTable:
    """The exact inverse of sparse vectors (such as forms' coefficients) on
    their pivot keys, and their off-pivot columns, from one elimination.

    :func:`linalg.inverse` picks the pivot keys, the least independent key
    columns in key order, and inverts the vectors restricted to them in the
    same pass.  Its X / D is kept as D and X column by column, keyed by pivot
    key, with only its nonzero (vector index, entry) pairs; every other key
    keeps the vectors' own column.  Together the two key sets are the
    vectors' keys, and they are all that :func:`integer_coordinates` reads.
    A full-family basis at its own degree r has no off-pivot column.
    Dependent vectors raise ArithmeticError naming `what`.
    """
    inv = linalg.inverse(vectors)
    if inv is None:
        raise ArithmeticError(f"dependent basis for {what}")
    x, denominator = inv
    columns = {key: tuple((i, a) for i, a in enumerate(col) if a) for key, col in x.items()}
    off_pivot: dict[Key, list[tuple[int, Scalar]]] = {}
    for i, v in enumerate(vectors):
        for key, c in v.items():
            if key not in columns:
                off_pivot.setdefault(key, []).append((i, c))
    return CoordinateTable(columns, {key: tuple(col) for key, col in off_pivot.items()}, denominator)


def integer_coordinates(target: Mapping[Key, Scalar], table: CoordinateTable) -> tuple[list[int], int] | None:
    """Coordinates C / S of the target in the vectors of `table`, or None outside their span.

    `table` is the vectors' :func:`inverse_columns`, with inverse X / D.  With
    the target scaled to ints by the lcm E of its denominators, C = D * E
    times the candidate coordinates comes from its pivot keys through X's
    columns, so the combination agrees with it there by construction.  It is
    accepted exactly when every key of the target is a key of the vectors,
    which the same pass checks, and the combination agrees with it on every
    off-pivot key, compared in ints.  S is D * E.
    """
    columns, off_pivot, den = table
    scale = 1
    if any(type(v) is not int for v in target.values()):
        target, scale = linalg.clear_denominators(target)
    coords = [0] * len(columns)
    for key, v in target.items():
        col = columns.get(key)
        if col is None:
            if key not in off_pivot:
                return None
            continue
        for i, a in col:
            coords[i] += a * v
    for key, col in off_pivot.items():
        if sum(coords[i] * c for i, c in col) != den * target.get(key, 0):
            return None
    return coords, scale * den


def coordinates(w: PolyForm, n: int, k: int, table: CoordinateTable) -> list[Scalar] | None:
    """Coordinates of w in independent forms, or None when w is not in their span.

    The forms and w live on dimension n at one degree, and `table` is the
    forms' :func:`inverse_columns`; w's :func:`integer_coordinates` C are
    divided once by S.
    """
    if w.n != n:
        raise ValueError(f"form lives on dimension {w.n}, face has dimension {n}")
    if not w.is_zero and w.k != k:
        raise ValueError(f"form order {w.k} does not match k={k}")
    got = integer_coordinates(w.coeffs, table)
    if got is None:
        return None
    coords, scale = got
    return coords if scale == 1 else [linalg.quotient(c, scale) for c in coords]


@cache
def _basis_table(kind: SpaceKind, m: int, r: int, k: int, degree: int) -> CoordinateTable:
    """The :func:`inverse_columns` of the basis on an m-face stored at `degree`.

    Built once per process for each argument tuple.
    """
    basis = [b.lift(degree).coeffs for b in basis_forms(kind, FaceRef.full(m), r, k)]
    return inverse_columns(basis, f"{kind} r={r} k={k} on dim {m}")


def membership(
    w: PolyForm, kind: SpaceKind, face: FaceRef, r: int, k: int
) -> list[Scalar] | None:
    """Coordinates of w in the basis of the space, or None when outside it.

    The form must be expressed in the face's own coordinates; it is read at
    the storage degree max(r, w.r) through :func:`coordinates`.
    """
    degree = max(r, w.r)
    return coordinates(w.lift(degree), face.dim, k, _basis_table(kind, face.dim, r, k, degree))


@cache
def trace_coordinates(kind: SpaceKind, r: int, k: int, fr: FaceRef) -> tuple[list[Scalar], ...]:
    """Coordinates on fr of the trace of each basis member of the reference fr.n-simplex.

    A trace outside the space on the face raises ArithmeticError.  Built once
    per process for each argument tuple; callers must not mutate it.
    """
    coords = tuple(membership(w.trace(fr), kind, fr, r, k) for w in _reference_basis(kind, fr.n, r, k))
    if None in coords:
        raise ArithmeticError(f"a {kind.family.value} basis trace onto {fr} leaves the face space")
    return coords
