from itertools import combinations

from feec.combinat import binom, multiindices


def brute_multiindices(n, r):
    """Recursive enumeration oracle."""
    if r < 0:
        return []
    if n == 0:
        return [(r,)]
    return [(e,) + rest for e in range(r + 1) for rest in brute_multiindices(n - 1, r - e)]


def test_cardinalities_sweep():
    # binom counts the increasing index tuples and vanishes outside 0 <= b <= a
    for span in range(7):
        for length in range(-1, span + 3):
            got = len(list(combinations(range(span), length))) if length >= 0 else 0
            assert binom(span, length) == got
    assert binom(-1, 0) == binom(3, -1) == binom(2, 3) == 0


def test_multiindices_examples():
    assert multiindices(1, 2) == [(2, 0), (1, 1), (0, 2)]
    assert multiindices(2, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert len(multiindices(2, 2)) == 6
    assert len(multiindices(3, 4)) == 35
    assert multiindices(2, -1) == []
    assert multiindices(0, 3) == [(3,)]


def test_multiindices_hands_out_a_fresh_list():
    first = multiindices(2, 2)
    first.append((9, 9, 9))
    first[0] = (0, 0, 0)
    first.sort()
    assert multiindices(2, 2) == [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]


def test_multiindices_against_oracle():
    for n in range(4):
        for r in range(5):
            got = multiindices(n, r)
            assert len(set(got)) == len(got)
            assert set(got) == set(brute_multiindices(n, r))
            assert len(got) == binom(r + n, n)
