"""Property tests: the field row kernels against per-scalar references.

Each reference below works one scalar at a time with Python ints or
Fractions and reduces mod p itself, so it shares no code with the kernels
it checks.
"""

import itertools
from fractions import Fraction

from hypothesis import given, strategies as st

from toytheory.algebra import (
    GF, QQ, coset_intersection, dot, enumerate_coset, make_coset,
    reduce_mod_subspace, rref, subspace_intersection,
)
from toytheory.phase_space import bracket_vectors

FIELDS = [GF(2), GF(3), GF(5), GF(7), QQ]


def _canon(field, x):
    return Fraction(x) if field is QQ else x % field.p


def _inv(field, x):
    return 1 / Fraction(x) if field is QQ else pow(x, field.p - 2, field.p)


def _entries(field):
    """Raw entries, deliberately not reduced: the kernels reduce them."""
    if field is QQ:
        return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
    return st.integers(-2 * field.p, 2 * field.p)


@st.composite
def _field_rows(draw, sets=1, max_rows=4, small=False):
    """A field, an ambient dimension n, and `sets` pairs of (rows, vector)
    of raw entries in that space."""
    field = draw(st.sampled_from(FIELDS[:2] if small else FIELDS))
    n = draw(st.sampled_from((2, 4) if small else (2, 4, 6)))
    row = st.lists(_entries(field), min_size=n, max_size=n)
    out = [field, n]
    for _ in range(sets):
        out += [draw(st.lists(row, max_size=max_rows)), draw(row)]
    return tuple(out)


def ref_dot(field, a, b):
    acc = _canon(field, 0)
    for x, y in zip(a, b):
        acc = _canon(field, acc + x * y)
    return acc


def ref_rref(field, n, rows):
    """Textbook Gauss-Jordan, one scalar at a time."""
    rows = [[_canon(field, x) for x in r] for r in rows]
    out = []
    for c in range(n):
        piv = next((r for r in rows if r[c] != 0), None)
        if piv is None:
            continue
        rows.remove(piv)
        inv = _inv(field, piv[c])
        piv = [_canon(field, inv * x) for x in piv]
        for r in rows + out:
            f = r[c]
            for j in range(n):
                r[j] = _canon(field, r[j] - f * piv[j])
        out.append(piv)
    return tuple(tuple(r) for r in out)


def ref_reduce(field, basis, x):
    x = [_canon(field, v) for v in x]
    for row in basis:
        piv = next(j for j, v in enumerate(row) if v != 0)
        f = x[piv]
        for j in range(len(x)):
            x[j] = _canon(field, x[j] - f * row[j])
    return tuple(x)


def assert_canonical(field, basis):
    pivots = []
    for row in basis:
        for x in row:
            if field is QQ:
                assert type(x) is Fraction
            else:
                assert type(x) is int and 0 <= x < field.p
        piv = next(j for j, v in enumerate(row) if v != 0)
        assert row[piv] == 1
        pivots.append(piv)
    assert pivots == sorted(set(pivots))
    for row, piv in zip(basis, pivots):
        assert sum(1 for other in basis if other[piv] != 0) == 1


@given(_field_rows(max_rows=2))
def test_dot_and_bracket_match_reference(case):
    field, n, rows, x = case
    a = tuple(_canon(field, v) for v in x)
    for r in rows:
        b = tuple(_canon(field, v) for v in r)
        assert dot(field, a, b) == ref_dot(field, a, b)
        want = _canon(field, sum(a[i] * b[i + 1] - a[i + 1] * b[i]
                                 for i in range(0, n, 2)))
        assert bracket_vectors(field, a, b) == want
        assert bracket_vectors(field, b, a) == _canon(field, -want)


@given(_field_rows())
def test_rref_matches_reference(case):
    field, n, rows, _ = case
    got = rref(field, n, rows).basis
    assert got == ref_rref(field, n, rows)
    assert_canonical(field, got)
    # canonical: the same span from another generating set, its own basis
    assert rref(field, n, list(got) + list(reversed(got))).basis == got


@given(_field_rows())
def test_reduce_mod_subspace_matches_reference(case):
    field, n, rows, x = case
    s = rref(field, n, rows)
    got = reduce_mod_subspace(s, x)
    assert got == ref_reduce(field, s.basis, x)
    assert all(got[next(j for j, v in enumerate(row) if v)] == 0
               for row in s.basis)
    diff = tuple(_canon(field, a - b) for a, b in zip(x, got))
    assert not any(ref_reduce(field, s.basis, diff))


def _members(field, basis, shift):
    """Every point of span(basis) + shift, one scalar at a time."""
    out = set()
    for coeffs in itertools.product(range(field.p), repeat=len(basis)):
        out.add(tuple(_canon(field, shift[j] + sum(
            c * row[j] for c, row in zip(coeffs, basis)))
            for j in range(len(shift))))
    return out


@given(_field_rows(sets=2, max_rows=3, small=True))
def test_coset_intersection_matches_enumeration(case):
    field, n, rows1, u1, rows2, u2 = case
    c1 = make_coset(rref(field, n, rows1), u1)
    c2 = make_coset(rref(field, n, rows2), u2)
    want = _members(field, c1.subspace.basis, c1.shift) & \
        _members(field, c2.subspace.basis, c2.shift)
    got = coset_intersection(c1, c2)
    if not want:
        assert got is None
    else:
        assert set(enumerate_coset(got)) == want


@given(_field_rows(sets=2, max_rows=3))
def test_coset_intersection_over_any_field(case):
    """Where enumeration is out of reach (QQ, p = 5, 7): through a common
    point the meet is the complement-route intersection plus a point of
    both cosets; shifted off S1 + S2 it is empty."""
    field, n, rows1, u1, rows2, _ = case
    c1 = make_coset(rref(field, n, rows1), u1)
    s2 = rref(field, n, rows2)
    c2 = make_coset(s2, c1.shift)
    got = coset_intersection(c1, c2)
    assert got is not None
    assert got.subspace == subspace_intersection(c1.subspace, s2)
    assert c1.contains(got.shift) and c2.contains(got.shift)
    total = rref(field, n, list(c1.subspace.basis) + list(s2.basis))
    free = [j for j in range(n) if not any(
        row[j] and not any(row[:j]) for row in total.basis)]
    if free:
        off = list(c1.shift)
        off[free[0]] = _canon(field, off[free[0]] + 1)
        assert coset_intersection(c1, make_coset(s2, off)) is None
