"""Polynomial differential forms in barycentric coordinates, exactly.

A form of order k on an n-dimensional face is stored in a canonical shape:
every monomial coefficient is homogenized to one common degree r using the
partition of unity lambda_0 + ... + lambda_n = 1, and the differential
d lambda_0 is eliminated through d lambda_0 = -(d lambda_1 + ... +
d lambda_n).  The surviving generators lambda^alpha d lambda_sigma with
|alpha| = r and sigma a strictly increasing sequence in {1..n} are linearly
independent, so two forms are equal exactly when their stored coefficient
dictionaries agree (after homogenizing to a common degree).

`canonicalize` is the entry for external terms: it validates them, sorts each
sigma one index at a time by the signed merge of increasing runs that orders
every sigma here, and eliminates d lambda_0.  The operators here build such
terms themselves and send them straight to one collector, which homogenizes
through a cached Bernstein degree-raising table; the signs of d lambda_i ^
d lambda_sigma, d lambda_0 eliminated, are one table memoized per process.
The trace keeps its degree and needs no collector: each face caches two
maps, filled on first use, from an exponent to its face-local exponent and
from a canonical sigma to its signed face-local sigmas with the face's own
d lambda_0 eliminated.  The local-basis generators are built directly in
canonical form: a Bernstein monomial is its one key, and corrected
differentials are validated on every call, then read from a memoized table.

Coefficients are exact rationals, `int` or `Fraction`, never float: an
integral value is an `int`, so forms built from integer data stay integer
under every operation here.  Denominators come only from integrals, from the
alpha_i / |alpha| weights of the corrected differentials, and from inverses;
an inexact scalar (float, Decimal, complex) raises TypeError.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations
from math import factorial, prod
from numbers import Rational
from operator import add
from typing import Iterable, Iterator

from .combinat import multiindices

# An exact rational: int when integral, Fraction only when a denominator appears.
Scalar = int | Fraction

# A raw term: (exponent tuple over 0..n, differential index sequence, coefficient).
RawTerm = tuple[tuple[int, ...], tuple[int, ...], Scalar]
Key = tuple[tuple[int, ...], tuple[int, ...]]
# The pullback of one d lambda_sigma: (local sigma, sign) pairs.
SignedSigmas = tuple[tuple[tuple[int, ...], int], ...]


class FaceRef:
    """A subsimplex of the reference n-simplex, named by its vertex indices; immutable by convention.

    ``FaceRef(n, indices)`` returns the one checked object for its value, built
    on first use, so equal faces are one object: equality is identity and the
    hash is the object's own, and every table keyed by faces matches on that.
    """

    __slots__ = ("n", "indices", "dim")

    def __new__(cls, n: int, indices: tuple[int, ...]) -> FaceRef:
        return _face(n, indices)

    def __reduce__(self) -> tuple:
        return FaceRef, (self.n, self.indices)

    def __repr__(self) -> str:
        return f"FaceRef(n={self.n!r}, indices={self.indices!r})"

    @staticmethod
    def full(n: int) -> FaceRef:
        """The whole reference n-simplex as a face of itself, one object per n per process."""
        return _full_face(n)

    @property
    def complement_indices(self) -> tuple[int, ...]:
        """Vertex indices of the opposite face."""
        mine = set(self.indices)
        return tuple(i for i in range(self.n + 1) if i not in mine)

    def contains(self, other: FaceRef) -> bool:
        return self.n == other.n and set(other.indices) <= set(self.indices)

    def position(self, i: int) -> int:
        """Local index of global vertex i within this face."""
        return self.indices.index(i)

    @cache
    def to_local(self, sub: FaceRef) -> FaceRef:
        """A subface with this face as the parent, from `FaceRef.full(self.dim).all_subfaces()`."""
        if not self.contains(sub):
            raise ValueError(f"{sub} is not a subface of {self}")
        return FaceRef(self.dim, tuple(self.position(i) for i in sub.indices))

    def place(self, alpha: Iterable[int]) -> tuple[int, ...]:
        """A face-local exponent tuple as one over the parent's n + 1 vertices."""
        out = [0] * (self.n + 1)
        for i, e in zip(self.indices, alpha):
            out[i] = e
        return tuple(out)

    def localize(self, alpha: tuple[int, ...], sigma: Iterable[int]) -> Key:
        """Parent exponents and differential indices in this face's coordinates; inverts `place`."""
        return tuple(alpha[i] for i in self.indices), tuple(self.position(i) for i in sigma)

    def subfaces(self, j: int) -> list[FaceRef]:
        """All j-dimensional subfaces, in lexicographic vertex order."""
        return [FaceRef(self.n, c) for c in combinations(self.indices, j + 1)]

    @cache
    def all_subfaces(self) -> tuple[FaceRef, ...]:
        """All subfaces by increasing dimension, ending with this face itself."""
        return tuple(f for j in range(self.dim) for f in self.subfaces(j)) + (self,)

    @cache
    def intersect(self, other: FaceRef) -> FaceRef | None:
        """Common subface, from `FaceRef.full(n).all_subfaces()`; None when disjoint."""
        if self.n != other.n:
            raise ValueError(f"{other} and {self} are faces of different simplices")
        common = tuple(i for i in self.indices if i in set(other.indices))
        return FaceRef(self.n, common) if common else None


@cache
def _face(n: int, indices: tuple[int, ...]) -> FaceRef:
    """The :class:`FaceRef` of a value, checked and built once; a refused face raises and is not kept."""
    if not indices:
        raise ValueError("a face needs at least one vertex")
    if any(a >= b for a, b in zip(indices, indices[1:])):
        raise ValueError(f"face indices must be sorted and distinct: {indices}")
    if indices[0] < 0 or indices[-1] > n:
        raise ValueError(f"face indices {indices} not within 0..{n}")
    face = object.__new__(FaceRef)
    face.n, face.indices, face.dim = n, indices, len(indices) - 1
    return face


@cache
def _full_face(n: int) -> FaceRef:
    """:meth:`FaceRef.full`, built on first use; a negative n raises and is not kept."""
    return FaceRef(n, tuple(range(n + 1)))


def _merge_sign(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple[int, ...], int] | None:
    """Merge two increasing index sequences; None when they intersect."""
    out: list[int] = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            # b[j] jumps over the remaining entries of a
            if (len(a) - i) % 2:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out), sign


def _exact(c: object) -> Scalar:
    """c as an int when integral, else as a Fraction; TypeError when c is not rational."""
    if not isinstance(c, Rational):
        raise TypeError(f"coefficients must be exact rationals (int or Fraction), got {c!r}")
    return c.numerator if c.denominator == 1 else Fraction(c)


def _settle(coeffs: dict[Key, Scalar]) -> dict[Key, Scalar]:
    """coeffs without its zero entries and with every integral Fraction as an int."""
    return {key: v if type(v) is int or v.denominator != 1 else v.numerator for key, v in coeffs.items() if v}


def _emit(n: int, alpha: tuple[int, ...], sig: tuple[int, ...], c: Scalar, out: list[RawTerm]) -> None:
    """Append c lambda^alpha d lambda_sig, sig increasing, to out with d lambda_0 eliminated."""
    if not sig or sig[0]:
        out.append((alpha, sig, c))
        return
    out.extend((alpha, s, c if sign > 0 else -c) for s, sign in _d_signs(n, sig[1:])[0])


@cache
def _d_signs(n: int, sigma: tuple[int, ...]) -> tuple[SignedSigmas, ...]:
    """For each vertex i, the signed canonical sigmas of d lambda_i ^ d lambda_sigma, sigma canonical."""
    rest = [() if i in sigma else (_merge_sign((i,), sigma),) for i in range(1, n + 1)]
    # d lambda_0 = -(d lambda_1 + ... + d lambda_n)
    return (tuple((s, -sign) for terms in rest for s, sign in terms), *rest)


@cache
def _raising(n: int, deficit: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(beta, multinomial weight) over |beta| = deficit: (lambda_0 + ... + lambda_n)^deficit."""
    return tuple((beta, factorial(deficit) // prod(map(factorial, beta))) for beta in multiindices(n, deficit))


def _collect(n: int, k: int, degree: int, terms: Iterable[RawTerm]) -> PolyForm:
    """Sum terms whose sigma is increasing and free of 0, homogenized to degree."""
    coeffs: dict[Key, Scalar] = {}
    for alpha, sig, c in terms:
        deficit = degree - sum(alpha)
        if deficit == 0:
            key = (alpha, sig)
            coeffs[key] = coeffs.get(key, 0) + c
            continue
        if deficit < 0:
            raise ValueError(f"monomial degree {sum(alpha)} exceeds target {degree}")
        for beta, w in _raising(n, deficit):
            key = (tuple(map(add, alpha, beta)), sig)
            coeffs[key] = coeffs.get(key, 0) + c * w
    return PolyForm(n, k, degree, _settle(coeffs))


@cache
def _trace_maps(
    face: FaceRef,
) -> tuple[dict[tuple[int, ...], tuple[int, ...]], dict[tuple[int, ...], SignedSigmas]]:
    """The exponent and differential maps of the trace onto face, filled on a miss.

    Exponents map to face-local exponents, or to () when they leave the face;
    canonical sigmas map to the signed local sigmas of the pullback, with the
    face's own d lambda_0 eliminated, or to () when they leave the face.  The
    maps are factored so that they grow with the number of exponents plus the
    number of sigmas seen, not with their product.
    """
    return {}, {}


def _local_alpha(face: FaceRef, alpha: tuple[int, ...]) -> tuple[int, ...]:
    """alpha in face coordinates, or () when it has an exponent off the face."""
    if sum(alpha[i] for i in face.indices) != sum(alpha):
        return ()
    return tuple(alpha[i] for i in face.indices)


def _local_sigma(face: FaceRef, sigma: tuple[int, ...]) -> SignedSigmas:
    """The signed canonical local sigmas whose sum is the pullback of d lambda_sigma."""
    if not set(sigma) <= set(face.indices):
        return ()
    local = tuple(face.position(s) for s in sigma)
    return _d_signs(face.dim, local[1:])[0] if local and not local[0] else ((local, 1),)


def canonicalize(n: int, k: int, terms: Iterable[RawTerm], degree: int | None = None) -> PolyForm:
    """Build the canonical form of a raw sum of lambda^alpha d lambda_sigma terms.

    The entry for terms from outside the form kernel: validates each term,
    accepts differential sequences in any order and containing the index 0,
    and monomials of any degree at most `degree`; homogenizes and eliminates
    d lambda_0.  `degree` defaults to the largest monomial degree present.
    """
    flat: list[RawTerm] = []
    max_deg = 0
    for alpha, sigma, c in terms:
        if type(c) is not int:
            c = _exact(c)
        if not c:
            continue
        if len(alpha) != n + 1 or any(e < 0 for e in alpha):
            raise ValueError(f"bad exponent tuple {alpha} for n={n}")
        if len(sigma) != k:
            raise ValueError(f"expected {k} differential indices, got {sigma}")
        if sigma and (min(sigma) < 0 or max(sigma) > n):
            raise ValueError(f"differential indices {sigma} not within 0..{n}")
        sig: tuple[int, ...] = ()
        for s in sigma:  # insert each index into the sorted run; a repeat drops the term
            merged = _merge_sign(sig, (s,))
            if merged is None:
                break
            sig, sign = merged
            c *= sign
        else:
            max_deg = max(max_deg, sum(alpha))
            _emit(n, alpha, sig, c, flat)
    if degree is None:
        degree = max_deg
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    return _collect(n, k, degree, flat)


class PolyForm:
    """A polynomial differential k-form on the reference n-simplex.

    Instances are immutable by convention; every operation returns a new
    form.  Equality and `assemble.decompose` rely on one invariant of the
    stored coefficients: every key (alpha, sigma) has |alpha| = r and sigma
    strictly increasing within 1..n.  The constructor does not check it, and
    a form holding another key compares unequal to its canonical equal, so
    construct forms through :func:`canonicalize` or the helper constructors
    below rather than passing coefficient dictionaries.
    """

    __slots__ = ("n", "k", "r", "coeffs")

    def __init__(self, n: int, k: int, r: int, coeffs: dict[Key, Scalar]):
        if n < 0 or k < 0 or r < 0:
            raise ValueError(f"bad shape n={n} k={k} r={r}")
        if coeffs and k > n:
            raise ValueError(f"nonzero {k}-form on a {n}-dimensional face")
        if not coeffs:
            r = 0
        self.n = n
        self.k = k
        self.r = r
        self.coeffs = coeffs

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zero(cls, n: int, k: int) -> PolyForm:
        return cls(n, k, 0, {})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def terms(self) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], Scalar]]:
        """Canonical terms in a fixed deterministic order."""
        for alpha, sigma in sorted(self.coeffs):
            yield alpha, sigma, self.coeffs[(alpha, sigma)]

    def lift(self, degree: int) -> PolyForm:
        """The same form re-homogenized at a (higher) storage degree."""
        if self.is_zero:
            return PolyForm(self.n, self.k, 0, {})
        if degree == self.r:
            return self
        if degree < self.r:
            raise ValueError(f"cannot lower storage degree {self.r} to {degree}")
        return _collect(self.n, self.k, degree, ((a, s, c) for (a, s), c in self.coeffs.items()))

    # -- ring structure ------------------------------------------------------

    def __add__(self, other: PolyForm) -> PolyForm:
        if not isinstance(other, PolyForm):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if self.n != other.n or (self.k != other.k and a and b):
            raise ValueError("cannot add forms of different shape")
        if not a:
            return other
        if not b:
            return self
        r = self.r
        if other.r != r:
            r = max(r, other.r)
            a, b = self.lift(r).coeffs, other.lift(r).coeffs
        coeffs = dict(a)
        for key, c in b.items():
            v = coeffs.get(key, 0) + c
            if v:
                coeffs[key] = v if type(v) is int or v.denominator != 1 else v.numerator
            else:
                # stored coefficients are nonzero, so a zero sum had a summand here
                del coeffs[key]
        return PolyForm(self.n, self.k, r, coeffs)

    def __neg__(self) -> PolyForm:
        return PolyForm(self.n, self.k, self.r, {key: -c for key, c in self.coeffs.items()})

    def __sub__(self, other: PolyForm) -> PolyForm:
        return self + (-other)

    def __mul__(self, scalar: Scalar) -> PolyForm:
        c = scalar if type(scalar) is int else _exact(scalar)
        if not c:
            return PolyForm.zero(self.n, self.k)
        # a product of nonzero scalars is nonzero; only an integral Fraction needs settling
        coeffs: dict[Key, Scalar] = {}
        for key, v in self.coeffs.items():
            v *= c
            coeffs[key] = v if type(v) is int or v.denominator != 1 else v.numerator
        return PolyForm(self.n, self.k, self.r, coeffs)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyForm):
            return NotImplemented
        if self.n != other.n:
            return False
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        if self.k != other.k:
            return False
        r = max(self.r, other.r)
        return self.lift(r).coeffs == other.lift(r).coeffs

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        from .render import format_form

        body = format_form(self)
        return f"<{self.k}-form deg {self.r} on dim {self.n}: {body}>"

    # -- exterior calculus ---------------------------------------------------

    def wedge(self, other: PolyForm) -> PolyForm:
        """Exterior product.  Raises when the order would exceed the dimension."""
        if self.n != other.n:
            raise ValueError("wedge of forms on different faces")
        k = self.k + other.k
        if k > self.n:
            raise ValueError(f"wedge would have order {k} > dimension {self.n}")
        coeffs: dict[Key, Scalar] = {}
        for (a1, s1), c1 in self.coeffs.items():
            for (a2, s2), c2 in other.coeffs.items():
                merged = _merge_sign(s1, s2)
                if merged is None:
                    continue
                sig, sign = merged
                key = (tuple(map(add, a1, a2)), sig)
                v = coeffs.get(key, 0) + c1 * c2 * sign
                if v:
                    coeffs[key] = v if type(v) is int or v.denominator != 1 else v.numerator
                else:
                    coeffs.pop(key, None)
        return PolyForm(self.n, k, self.r + other.r, coeffs)

    def d(self) -> PolyForm:
        """Exterior derivative."""
        if self.k >= self.n:
            return PolyForm.zero(self.n, self.k + 1)
        out: list[RawTerm] = []
        for (alpha, sigma), c in self.coeffs.items():
            signs = _d_signs(self.n, sigma)
            for i, e in enumerate(alpha):
                if e and signs[i]:
                    beta, ce = alpha[:i] + (e - 1,) + alpha[i + 1 :], c * e
                    out.extend((beta, sig, ce if sign > 0 else -ce) for sig, sign in signs[i])
        return _collect(self.n, self.k + 1, max(self.r - 1, 0), out)

    def koszul(self, origin: int = 0) -> PolyForm:
        """Contraction with the position field based at the given vertex.

        Acts on each d lambda_j factor via lambda_j minus its value at the
        origin vertex, with alternating signs from the wedge slots.
        """
        if origin < 0 or origin > self.n:
            raise ValueError(f"origin vertex {origin} not within 0..{self.n}")
        if self.k == 0:
            return PolyForm.zero(self.n, 0)
        raw: list[RawTerm] = []
        for (alpha, sigma), c in self.coeffs.items():
            for pos, s in enumerate(sigma):
                sign = -1 if pos % 2 else 1
                rest = sigma[:pos] + sigma[pos + 1 :]
                raw.append((alpha[:s] + (alpha[s] + 1,) + alpha[s + 1 :], rest, c * sign))
                if s == origin:
                    raw.append((alpha, rest, -c * sign))
        return _collect(self.n, self.k - 1, self.r + 1, raw)

    def trace(self, face: FaceRef) -> PolyForm:
        """Pullback onto a subsimplex, in the face's own coordinates, at the same storage degree."""
        if face.n != self.n:
            raise ValueError(f"face {face} does not live on dimension {self.n}")
        m = face.dim
        if self.k > m:
            return PolyForm.zero(m, self.k)
        alphas, sigmas = _trace_maps(face)
        coeffs: dict[Key, Scalar] = {}
        for (alpha, sigma), c in self.coeffs.items():
            a = alphas.get(alpha)
            if a is None:
                a = alphas[alpha] = _local_alpha(face, alpha)
            if not a:
                continue
            terms = sigmas.get(sigma)
            if terms is None:
                terms = sigmas[sigma] = _local_sigma(face, sigma)
            for sig, sign in terms:
                key = (a, sig)
                coeffs[key] = coeffs.get(key, 0) + (c if sign > 0 else -c)
        return PolyForm(m, self.k, self.r, _settle(coeffs))

    def contract(self, alpha: tuple[int, ...], l: int) -> PolyForm:
        """Contraction with the vector from vertex l to the weighted point of alpha.

        The differential d lambda_i evaluates on that vector to
        alpha_i / |alpha| - delta_{il}.
        """
        if self.k == 0:
            raise ValueError("cannot contract a 0-form")
        deg = sum(alpha)
        if deg < 1:
            raise ValueError("alpha must have positive degree")
        if l < 0 or l > self.n or alpha[l] != 0:
            raise ValueError(f"vertex {l} must lie outside the support of {alpha}")
        vals = [_exact(Fraction(a, deg) - (1 if s == l else 0)) for s, a in enumerate(alpha)]
        raw: list[RawTerm] = []
        for (beta, sigma), c in self.coeffs.items():
            for pos, s in enumerate(sigma):
                if not vals[s]:
                    continue
                sign = -1 if pos % 2 else 1
                rest = sigma[:pos] + sigma[pos + 1 :]
                raw.append((beta, rest, c * vals[s] * sign))
        return _collect(self.n, self.k - 1, self.r, raw)

    def eval_at_vertex(self, m: int) -> PolyForm:
        """Constant form whose coefficients are this form's, evaluated at vertex m."""
        if m < 0 or m > self.n:
            raise ValueError(f"vertex {m} not within 0..{self.n}")
        coeffs: dict[Key, Scalar] = {}
        zero_alpha = (0,) * (self.n + 1)
        for (alpha, sigma), c in self.coeffs.items():
            if alpha[m] == self.r:
                coeffs[(zero_alpha, sigma)] = c
        return PolyForm(self.n, self.k, 0, coeffs)


def combination(n: int, k: int, terms: Iterable[tuple[Scalar, PolyForm]]) -> PolyForm:
    """The k-form sum of c * w over the (c, w) terms, built in one coefficient dict.

    Every term is lifted to the largest storage degree among the live ones;
    zero coefficients and zero forms contribute nothing, and a lone live term
    with coefficient 1 is returned itself, uncopied.  Raises ValueError when
    a form has another shape and TypeError for an inexact coefficient.
    """
    live: list[tuple[Scalar, PolyForm]] = []
    r = 0
    for c, w in terms:
        if type(c) is not int:
            c = _exact(c)
        if w.n != n or (w.k != k and w.coeffs):
            raise ValueError(f"cannot combine a {w.k}-form on dim {w.n} into a {k}-form on dim {n}")
        if c and w.coeffs:
            live.append((c, w))
            if w.r > r:
                r = w.r
    if not live:
        return PolyForm.zero(n, k)
    if len(live) == 1 and live[0][0] == 1:
        return live[0][1]
    coeffs: dict[Key, Scalar] = {}
    for c, w in live:
        for key, v in (w.coeffs if w.r == r else w.lift(r).coeffs).items():
            coeffs[key] = coeffs.get(key, 0) + c * v
    return PolyForm(n, k, r, _settle(coeffs))


# -- named constructors -------------------------------------------------------


def one(n: int) -> PolyForm:
    """The constant 0-form 1."""
    return PolyForm(n, 0, 0, {((0,) * (n + 1), ()): 1})


def bary_monomial(n: int, alpha: tuple[int, ...]) -> PolyForm:
    """The Bernstein monomial lambda^alpha as a 0-form."""
    alpha = tuple(alpha)
    if len(alpha) != n + 1 or any(e < 0 for e in alpha):
        raise ValueError(f"bad exponent tuple {alpha} for n={n}")
    return PolyForm(n, 0, sum(alpha), {(alpha, ()): 1})


def dlambda(n: int, sigma: tuple[int, ...]) -> PolyForm:
    """The constant form d lambda_{sigma(1)} ^ ... ^ d lambda_{sigma(k)}."""
    return canonicalize(n, len(sigma), [((0,) * (n + 1), tuple(sigma), 1)], degree=0)


def whitney(n: int, sigma: Iterable[int]) -> PolyForm:
    """The Whitney form of the subsimplex with the given k+1 vertex indices."""
    return _whitney(n, tuple(sigma))


@cache
def _whitney(n: int, sigma: tuple[int, ...]) -> PolyForm:
    """:func:`whitney` on a tuple, built once per process; callers must not mutate it."""
    if any(a >= b for a, b in zip(sigma, sigma[1:])):
        raise ValueError(f"vertex indices must be strictly increasing: {sigma}")
    k = len(sigma) - 1
    raw: list[RawTerm] = []
    for i, s in enumerate(sigma):
        a = [0] * (n + 1)
        a[s] = 1
        rest = sigma[:i] + sigma[i + 1 :]
        raw.append((tuple(a), rest, -1 if i % 2 else 1))
    return canonicalize(n, k, raw, degree=1)


def psi_form(alpha: tuple[int, ...], face: FaceRef, sigma: tuple[int, ...]) -> PolyForm:
    """Wedge of corrected differentials over the indices of sigma, read from a table after validation."""
    sigma = tuple(sigma)
    if not sigma:
        return one(face.n)
    deg = sum(alpha)
    if deg < 1:
        raise ValueError("alpha must have positive degree")
    for s in sigma:
        if s not in face.indices:
            raise ValueError(f"vertex {s} not on face {face.indices}")
    if any(alpha[m] and m not in face.indices for m in range(face.n + 1)):
        raise ValueError(f"support of {alpha} leaves face {face.indices}")
    return _psi(face, sigma, tuple(alpha[s] for s in sigma), deg)


@cache
def _psi(face: FaceRef, sigma: tuple[int, ...], weights: tuple[int, ...], deg: int) -> PolyForm:
    """psi_sigma of every alpha with alpha_s = weights[j] at s = sigma[j] and |alpha| = deg.

    Built once per process for each key; callers must not mutate it.  With
    a_m = [m = i] - (alpha_i / |alpha|) [m on the face], psi_i is the sum of
    a_m d lambda_m, so eliminating d lambda_0 leaves a_m - a_0 at each m >= 1.
    """
    if len(sigma) > 1:
        return _psi(face, sigma[:-1], weights[:-1], deg).wedge(_psi(face, sigma[-1:], weights[-1:], deg))
    n, w = face.n, Fraction(weights[0], deg)
    a = [(1 if m == sigma[0] else 0) - (w if m in face.indices else 0) for m in range(n + 1)]
    return PolyForm(n, 1, 0, _settle({((0,) * (n + 1), (m,)): a[m] - a[0] for m in range(1, n + 1)}))


def integral_over_face(w: PolyForm) -> Scalar:
    """Exact integral of a top-order form over its unit-volume reference face.

    Each monomial lambda^beta d lambda_1 ^ ... ^ d lambda_d contributes
    beta! / (|beta| + d)! with the orientation of increasing vertex order.
    """
    d = w.n
    if w.k != d:
        raise ValueError(f"integrand must have order {d}, got {w.k}")
    total: Scalar = 0
    top = tuple(range(1, d + 1))
    for (beta, sigma), c in w.coeffs.items():
        assert sigma == top
        total += c * prod(map(factorial, beta))
    # every stored beta has |beta| = w.r, so the terms share one denominator
    return _exact(Fraction(total, factorial(w.r + d)))
