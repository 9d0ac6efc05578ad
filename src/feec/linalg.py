"""Exact linear algebra over the rationals.

Every operation runs on one kernel: a fraction-free row echelon form over
sparse integer rows (dicts from column label to nonzero int).  Labels may
be any comparable hashables, such as the canonical keys of a form; "lowest"
means least label.  Each input row has its denominators cleared and is
divided by its content once on entry; each elimination step keeps rows
primitive, so entries stay small and zero entries are never stored.
:func:`rank` and :func:`pivot_columns` take sparse rows as they are; the
dense matrices of :func:`solve`, :func:`inverse` and :func:`nonsingular`
are converted row by row, labelled by column index.  Solutions come from
one fraction-free Gauss-Jordan pass over the same pivot rows, which stays
in integers: :func:`solve` divides once per unknown, giving an int when it
is integral and a Fraction only otherwise, and :func:`inverse` returns
integer rows over one common denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Any, Iterable, Mapping, Sequence

Scalar = int | Fraction
Row = Mapping[Any, Scalar]


def clear_denominators(row: Row) -> tuple[dict[Any, int], int]:
    """The row times the lcm E of its denominators, as ints, and E."""
    scale = lcm(*(x.denominator for x in row.values()))
    return {c: x.numerator * (scale // x.denominator) for c, x in row.items()}, scale


def _primitive(row: Row) -> dict[Any, int]:
    """The row scaled to coprime integers, with its zero entries dropped."""
    ints = {c: x for c, x in row.items() if x}
    if not all(type(x) is int for x in ints.values()):
        ints = clear_denominators(ints)[0]
    g = gcd(*ints.values())
    return {c: x // g for c, x in ints.items()} if g > 1 else ints


def _eliminate(row: dict[Any, int], piv: dict[Any, int], col: Any) -> dict[Any, int]:
    """The primitive integer combination of row and pivot row piv that clears column col."""
    p, f = piv[col], row[col]
    g = gcd(p, f)
    p, f = p // g, f // g
    new = {c: p * x for c, x in row.items()}
    for c, x in piv.items():
        y = new.get(c, 0) - f * x
        if y:
            new[c] = y
        else:
            del new[c]
    g = gcd(*new.values())
    return {c: x // g for c, x in new.items()} if g > 1 else new


def _echelon(rows: Iterable[Row]) -> dict[Any, dict[Any, int]]:
    """Row echelon form: pivot column -> the primitive row whose lowest column it is.

    Rows are inserted one at a time; each is reduced by the pivot rows at its
    lowest column until it vanishes or opens a new pivot.  The set of pivot
    columns is the first (lowest-label) independent set of columns.
    """
    pivots: dict[Any, dict[Any, int]] = {}
    for raw in rows:
        row = _primitive(raw)
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = row
                break
            row = _eliminate(row, piv, lead)
    return pivots


def _gauss_jordan(
    pivots: dict[int, dict[int, int]], nvars: int, rhs_cols: Sequence[int]
) -> tuple[list[list[int]], int]:
    """Solutions x[var][j] = X[var][j] / D for the right-hand sides in rhs_cols, free variables zero.

    From the highest pivot down, each pivot row has the other pivot columns
    cleared by the rows already reduced, which carry none but their own, and
    stays primitive; row c then reads p x_c = b.  D is the lcm of the p, so it
    is coprime to X as a whole when every variable is a pivot.
    """
    for col in sorted(pivots, reverse=True):
        for c in [c for c in pivots[col] if c != col and c in pivots]:
            pivots[col] = _eliminate(pivots[col], pivots[c], c)
    den = lcm(*(row[col] for col, row in pivots.items()))
    x = [[0] * len(rhs_cols) for _ in range(nvars)]
    for col, row in pivots.items():
        x[col] = [row.get(b, 0) * (den // row[col]) for b in rhs_cols]
    return x, den


def quotient(num: Scalar, den: int) -> Scalar:
    """num / den, as an int when it divides exactly."""
    q, rem = divmod(num, den)
    return q if not rem else Fraction(num, den)


def _sparse(row: Sequence[Scalar]) -> dict[int, Scalar]:
    return {c: x for c, x in enumerate(row) if x}


def rank(rows: Sequence[Row]) -> int:
    """Rank of the matrix given as a list of sparse rows (column label -> entry)."""
    return len(_echelon(rows))


def pivot_columns(rows: Iterable[Row]) -> list[Any]:
    """The lowest-label independent set of columns of the sparse rows, ascending."""
    return sorted(_echelon(rows))


def solve(rows: Sequence[Sequence[Scalar]], rhs: Sequence[Scalar]) -> list[Scalar] | None:
    """Solve A x = b exactly; returns None if inconsistent.

    Underdetermined systems get free variables set to zero, so when the
    columns of A are linearly independent the solution is the unique one.
    """
    ncols = len(rows[0]) if rows else 0
    pivots = _echelon({**_sparse(row), ncols: b} for row, b in zip(rows, rhs))
    if ncols in pivots:
        return None
    x, den = _gauss_jordan(pivots, ncols, [ncols])
    return [quotient(xs[0], den) for xs in x]


def nonsingular(rows: Sequence[Sequence[Scalar]]) -> bool:
    """Whether a square matrix has full rank."""
    n = len(rows)
    return all(len(r) == n for r in rows) and rank([_sparse(row) for row in rows]) == n


def inverse(rows: Sequence[Sequence[Scalar]]) -> tuple[list[list[int]], int] | None:
    """Exact inverse of a square matrix as (X, D), or None when singular.

    X is a list of integer rows and D a positive int coprime to X's entries
    as a whole; the inverse is X / D.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    pivots = _echelon({**_sparse(row), n + i: 1} for i, row in enumerate(rows))
    if any(col >= n for col in pivots):
        return None
    return _gauss_jordan(pivots, n, range(n, 2 * n))
