"""Exact linear algebra over the rationals.

Every operation runs on one kernel: a fraction-free row echelon form over
sparse integer rows (dicts from column label to nonzero int).  Labels may
be any comparable hashables, such as the canonical keys of a form; "lowest"
means least label.  Each input row has its denominators cleared and is
divided by its content once on entry; each elimination step keeps rows
primitive, so entries stay small and zero entries are never stored.
:func:`rank` and :func:`inverse` take sparse rows as they are; only
:func:`solve` takes a dense matrix, converted row by row and labelled by
column index.  Solutions come from one fraction-free Gauss-Jordan pass over
the same pivot rows, in integers: :func:`solve` divides once per unknown,
giving an int when it is integral and a Fraction only otherwise, and
:func:`inverse` returns integer columns over one common denominator from the
elimination that picks its pivot labels.
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


def _gauss_jordan(pivots: dict[int, dict[int, int]], rhs_cols: Sequence[int]) -> tuple[dict[int, list[int]], int]:
    """Solutions x[pivot][j] = X[pivot][j] / D for the right-hand sides in rhs_cols, free variables zero.

    Each pivot row is cut to the pivot and right-hand-side columns, as free
    variables never feed a pivot, and made primitive.  From the highest pivot
    down, each has the other pivot columns cleared by the rows already reduced
    and stays primitive; row c then reads p x_c = b.  D is the lcm of the p,
    so it is coprime to X as a whole, and X is keyed in ascending order.
    """
    rows = {col: _primitive({c: x for c, x in row.items() if c in pivots or c in rhs_cols}) for col, row in pivots.items()}
    order = sorted(rows)
    for col in reversed(order):
        for c in [c for c in rows[col] if c != col and c in rows]:
            rows[col] = _eliminate(rows[col], rows[c], c)
    den = lcm(*(row[col] for col, row in rows.items()))
    return {col: [rows[col].get(b, 0) * (den // rows[col][col]) for b in rhs_cols] for col in order}, den


def quotient(num: Scalar, den: int) -> Scalar:
    """num / den, as an int when it divides exactly."""
    q, rem = divmod(num, den)
    return q if not rem else Fraction(num, den)


def _sparse(row: Sequence[Scalar]) -> dict[int, Scalar]:
    return {c: x for c, x in enumerate(row) if x}


def rank(rows: Sequence[Row]) -> int:
    """Rank of the matrix given as a list of sparse rows (column label -> entry)."""
    return len(_echelon(rows))


def solve(rows: Sequence[Sequence[Scalar]], rhs: Sequence[Scalar]) -> list[Scalar] | None:
    """Solve A x = b exactly; returns None if inconsistent, and raises ValueError on a ragged system.

    Underdetermined systems get free variables set to zero, so when the
    columns of A are linearly independent the solution is the unique one.
    """
    ncols = len(rows[0]) if rows else 0
    if len(rhs) != len(rows) or any(len(row) != ncols for row in rows):
        raise ValueError("ragged system")
    pivots = _echelon({**_sparse(row), ncols: b} for row, b in zip(rows, rhs))
    if ncols in pivots:
        return None
    x, den = _gauss_jordan(pivots, [ncols])
    return [quotient(x[c][0], den) if c in x else 0 for c in range(ncols)]


def inverse(rows: Sequence[Row]) -> tuple[dict[Any, list[int]], int] | None:
    """Exact inverse of sparse rows on their pivot labels as (X, D), or None when dependent.

    The labels are numbered in sorted order and row i gets identity column
    m + i past them, so one elimination picks the pivot labels, the lowest
    independent set, and records the row operations; a pivot at an identity
    column shows dependent rows.  X maps each pivot label, ascending, to one
    int per input row, and D > 0 is coprime to X as a whole: X / D inverts
    the rows restricted to the pivot labels.
    """
    labels = sorted({c for row in rows for c in row})
    index, m = {c: j for j, c in enumerate(labels)}, len(labels)
    pivots = _echelon({**{index[c]: x for c, x in row.items()}, m + i: 1} for i, row in enumerate(rows))
    if any(col >= m for col in pivots):
        return None
    x, den = _gauss_jordan(pivots, range(m, m + len(rows)))
    return {labels[col]: xs for col, xs in x.items()}, den
