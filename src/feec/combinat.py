"""Binomial coefficients and multi-index enumeration.

Every enumeration in the package (alternating-form components, subsimplices,
Bernstein monomials) is labelled by plain integer tuples: an increasing index
sequence sigma, drawn with `itertools.combinations` in lexicographic order,
and a multi-index alpha in N_0^{0:n}, the exponent vector of a barycentric
monomial lambda^alpha, enumerated here.

Enumeration orders fixed here are canonical for the whole package so that
basis listings and table output are reproducible.  Each multi-index
enumeration is built once per process and handed out as a fresh list.
"""

from __future__ import annotations

from functools import cache
from math import comb


def binom(a: int, b: int) -> int:
    """Binomial coefficient C(a, b), zero outside 0 <= b <= a."""
    return comb(a, b) if 0 <= b <= a else 0


def multiindices(n: int, r: int) -> list[tuple[int, ...]]:
    """Raw exponent tuples of length n+1 with total degree r, as a fresh list.

    Ordered with the leading exponent descending, recursively; this is the
    canonical monomial order for the package.  Negative r yields no tuples.
    """
    return list(_multiindices(n, r))


@cache
def _multiindices(n: int, r: int) -> tuple[tuple[int, ...], ...]:
    """:func:`multiindices` as a tuple, built once per process for each (n, r)."""
    if r < 0 or n < 0:
        return ()
    if n == 0:
        return ((r,),)
    return tuple((e,) + rest for e in range(r, -1, -1) for rest in _multiindices(n - 1, r - e))
