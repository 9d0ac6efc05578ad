import random
from fractions import Fraction
from math import gcd

import pytest

from feec.linalg import (
    inverse,
    rank,
    solve,
)
from helpers import dense_echelon, oracle_inverse, oracle_rank, oracle_solve

Q = Fraction


def _int_when_integral(values) -> bool:
    """Solution entries are int when integral and Fraction otherwise."""
    return all(type(x) is (int if x.denominator == 1 else Q) for x in values)


def _rows(m):
    """A dense matrix as the sparse rows `rank` takes, labelled by column index."""
    return [dict(enumerate(row)) for row in m]


def test_rank_basic():
    assert rank(_rows([[1, 2], [2, 4]])) == 1
    assert rank(_rows([[1, 0], [0, 1]])) == 2
    assert rank([]) == 0
    assert rank(_rows([[0, 0, 0]])) == 0
    assert rank(_rows([[Q(1, 2), Q(1, 3)], [Q(3, 2), Q(1)]])) == 1
    assert rank(_rows([[Q(1, 2), Q(1, 3)], [Q(1, 4), Q(1)]])) == 2
    # tuple and string labels, as the canonical keys of forms and functionals are
    assert rank([{(0, (1,)): 2, (1, ()): 1}, {(0, (1,)): 4, (1, ()): 2}, {(1, ()): Q(1, 3)}]) == 2
    assert rank([{"a": 1, "b": -1}, {"b": 1, "c": -1}, {"a": 1, "c": -1}]) == 2


def test_rank_matches_row_reduction_oracle():
    rng = random.Random(5)
    for _ in range(30):
        rows = [
            [Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(5)] for _ in range(4)
        ]
        assert rank(_rows(rows)) == oracle_rank(rows)


def test_solve():
    x = solve([[2, 0], [0, 4]], [6, 8])
    assert x == [Q(3), Q(2)]
    assert solve([[1, 1], [1, 1]], [1, 2]) is None
    x = solve([[1, 1], [1, 1]], [2, 2])
    assert x is not None and x[0] + x[1] == 2


def test_solve_refuses_a_ragged_system():
    # a long row would put its last entry at the right-hand side's column; a short rhs would drop a row
    for rows, rhs in [
        ([[1, 0], [0, 1, 5]], [1, 2]),
        ([[1, 0], [0]], [1, 2]),
        ([[1, 0], [0, 1]], [1]),
        ([[1, 0], [0, 1]], [1, 2, 3]),
        ([], [1]),
    ]:
        with pytest.raises(ValueError):
            solve(rows, rhs)
    assert solve([], []) == []


def _over(inv, nrows):
    """The inverse X / D that `inverse` returns as (X, D), as Fraction columns by pivot label; None stays None.

    Checks the shape on the way: X's labels ascend and each holds nrows ints,
    D is a positive int, and D is coprime to X's entries as a whole.
    """
    if inv is None:
        return None
    x, den = inv
    assert type(den) is int and den > 0
    assert list(x) == sorted(x)
    assert all(len(col) == nrows and all(type(a) is int for a in col) for col in x.values())
    assert gcd(den, *(a for col in x.values() for a in col)) == 1
    return {label: [Q(a, den) for a in col] for label, col in x.items()}


def _check_inverse(m, labels):
    """`inverse` of the rows of m, column c labelled labels[c], against the dense oracle.

    The pivot labels are `dense_echelon`'s pivots over the columns in label
    order, X / D is the `oracle_inverse` of the rows restricted to them, and
    the result is None exactly when the rank is below the row count.
    Returns X / D as `_over` gives it.
    """
    order = sorted(range(len(labels)), key=labels.__getitem__)
    dense = [[row[c] for c in order] for row in m]
    pivots = dense_echelon(dense, len(order))[1]
    got = _over(inverse([{labels[c]: x for c, x in enumerate(row) if x} for row in m]), len(m))
    if len(pivots) < len(m):
        assert got is None
        return None
    assert list(got) == [labels[order[p]] for p in pivots]
    assert list(got.values()) == oracle_inverse([[row[p] for p in pivots] for row in dense])
    return got


def test_inverse():
    assert inverse([{0: 2, 1: 1}, {0: 1, 1: 1}]) == ({0: [1, -1], 1: [-1, 2]}, 1)
    assert inverse([{0: 1, 1: 2}, {1: 1}]) == ({0: [1, -2], 1: [0, 1]}, 1)
    assert inverse([{0: 2}, {1: 4}]) == ({0: [2, 0], 1: [0, 1]}, 4)
    assert inverse([]) == ({}, 1)
    assert inverse([{0: 1, 1: 2}, {0: 2, 1: 4}]) is None
    assert inverse([{}]) is None
    # wide rows: only the lowest independent labels are inverted
    assert inverse([{"a": 1, "b": 2, "c": 1}, {"b": 1}]) == ({"a": [1, -2], "b": [0, 1]}, 1)
    # an off-pivot Fraction entry must not leave a common factor between X and D
    assert inverse([{"a": 2, "b": Q(1, 2)}]) == ({"a": [1]}, 2)
    # a square matrix is nonsingular exactly when its sparse rows have full rank
    assert rank(_rows([[2, 1], [1, 1]])) == 2
    assert rank(_rows([[1, 2], [2, 4]])) == 1


def test_inverse_roundtrip_randomized():
    rng = random.Random(9)
    for _ in range(10):
        m = [[Q(rng.randint(-3, 3)) for _ in range(4)] for _ in range(4)]
        inv = _over(inverse(_rows(m)), 4)
        if inv is None:
            assert rank(_rows(m)) < 4
            continue
        for i in range(4):
            for j in range(4):
                s = sum(m[i][t] * inv[t][j] for t in range(4))
                assert s == (1 if i == j else 0)


def test_inverse_is_integer_rows_over_one_denominator():
    # X / D is the oracle's inverse on the pivot block, singular and wide matrices included
    rng = random.Random(23)
    singular = off_pivot = 0
    for size in range(1, 7):
        for _ in range(8):
            m = _matrix(rng, size, size, inner=size - 1 if size > 1 and rng.random() < 0.3 else None)
            singular += _check_inverse(m, list(range(size))) is None
            wide = _matrix(rng, size, size + 2)
            got = _check_inverse(wide, list(range(size + 2)))
            off_pivot += got is not None and len(got) < size + 2
    assert singular > 0 and off_pivot > 0


def _entry(rng):
    return Q(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.6 else Q(0)


def _matrix(rng, nrows, ncols, inner=None, zero_rows=0):
    """A random matrix; with `inner` it is a product through that many columns,
    so its rank is at most `inner`.  `zero_rows` all-zero rows are mixed in."""
    if inner is None:
        m = [[_entry(rng) for _ in range(ncols)] for _ in range(nrows)]
    else:
        left = [[_entry(rng) for _ in range(inner)] for _ in range(nrows)]
        right = [[_entry(rng) for _ in range(ncols)] for _ in range(inner)]
        m = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
    for _ in range(zero_rows):
        m.insert(rng.randint(0, len(m)), [Q(0)] * ncols)
    return m


# (rows, columns, inner rank bound, all-zero rows)
SHAPES = {
    "empty": (0, 0, None, 0),
    "one": (1, 1, None, 0),
    "zero-rows": (2, 4, None, 3),
    "all-zero": (0, 3, None, 4),
    "deficient": (6, 6, 2, 0),
    "wide": (3, 7, None, 0),
    "tall": (7, 3, None, 0),
    "tall-deficient": (8, 5, 3, 1),
    "square": (5, 5, None, 0),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_kernel_matches_dense_oracle(shape):
    nrows, ncols, inner, zero_rows = SHAPES[shape]
    rng = random.Random(f"linalg:{shape}")
    for _ in range(12):
        m = _matrix(rng, nrows, ncols, inner, zero_rows)
        rk = oracle_rank(m)
        assert rank(_rows(m)) == rk
        # sparse rows with scattered column labels: rank ignores column order
        labels = rng.sample(range(10 * ncols + 1), ncols)
        assert rank([{labels[c]: x for c, x in enumerate(row) if x} for row in m]) == rk
        # tuple labels, and string labels, which sort unlike the ints they name
        keys = rng.sample([(c, (b,)) for c in range(ncols) for b in range(3)], ncols)
        assert rank([{keys[c]: x for c, x in enumerate(row) if x} for row in m]) == rk
        names = [f"c{c}" for c in labels]
        assert rank([{names[c]: x for c, x in enumerate(row) if x} for row in m]) == rk
        # inverse on the pivot labels, which are the oracle's pivots in label order
        for cols in (list(range(ncols)), labels, keys, names):
            inv = _check_inverse(m, cols)
            assert (inv is None) == (rk < len(m))

        x0 = [Q(rng.randint(-3, 3)) for _ in range(ncols)]
        consistent = [sum(a * b for a, b in zip(row, x0)) for row in m]
        got = solve(m, consistent)
        assert got == oracle_solve(m, consistent)
        assert got is not None and _int_when_integral(got)
        assert [sum(a * b for a, b in zip(row, got)) for row in m] == consistent
        arbitrary = [_entry(rng) for _ in m]
        got = solve(m, arbitrary)
        assert got == oracle_solve(m, arbitrary)
        assert got is None or _int_when_integral(got)

        if len(m) == ncols:
            assert (rank(_rows(m)) == ncols) == (oracle_inverse(m) is not None)


def test_inconsistent_and_singular_cases():
    rng = random.Random(17)
    for _ in range(10):
        m = _matrix(rng, 6, 4, inner=2)
        b = [Q(rng.randint(1, 5)) for _ in m]
        if oracle_rank(m) < oracle_rank([row + [c] for row, c in zip(m, b)]):
            assert solve(m, b) is None and oracle_solve(m, b) is None
        sq = _matrix(rng, 4, 4, inner=3)
        assert inverse(_rows(sq)) is None and rank(_rows(sq)) == oracle_rank(sq) < 4
    assert solve([[0, 0]], [1]) is None
    assert inverse([{0: 0}]) is None
    assert rank([]) == 0
    assert rank([{}, {5: 0}, {3: Q(1, 2)}, {3: 2}]) == 1


def test_int_rows_and_their_fraction_copies_reduce_alike():
    # integer rows skip clearing denominators but still drop zeros and divide by their content
    rng = random.Random(31)
    for size in range(1, 7):
        for _ in range(12):
            for ncols in (size, size + 2):
                m = [[rng.choice((0, 0, 1, -1, 2, -6, 9, 12)) * rng.choice((1, 3)) for _ in range(ncols)]
                     for _ in range(size)]
                as_fractions = [[Q(x) for x in row] for row in m]
                assert rank(_rows(m)) == rank(_rows(as_fractions))
                inv = inverse(_rows(m))
                assert inv == inverse(_rows(as_fractions))
                assert inv is None or all(type(x) is int for col in inv[0].values() for x in col)
    labelled = [{(0, (1,)): 4, (1, ()): -6, (2, ()): 0}, {(1, ()): 3, (2, ()): 9}]
    inv = inverse(labelled)
    assert inv == inverse([{c: Q(x) for c, x in row.items()} for row in labelled])
    assert list(inv[0]) == [(0, (1,)), (1, ())]
    # halving the rows doubles their inverse on the same pivot labels
    halved = _over(inverse([{c: Q(x, 2) for c, x in row.items()} for row in labelled]), 2)
    assert halved == {label: [2 * v for v in col] for label, col in _over(inv, 2).items()}
