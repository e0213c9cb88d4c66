"""Property tests: the field row kernels against per-scalar references.

Each reference below works one scalar at a time with Python ints or
Fractions and reduces mod p itself, so it shares no code with the kernels
it checks.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from toytheory.algebra import (
    GF, QQ, _solve_augmented, coset_intersection, dot, enumerate_coset,
    make_coset, mat_inverse, reduce_mod_subspace, rref, solve_linear,
    subspace_intersection,
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


# Wide rational entries: numerators up to 10^6 and denominators up to 10^3,
# so the elimination over Q works on large ints and its content reduction
# has something to divide out.

_WIDE = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                  st.integers(1, 10 ** 3))
_WIDE_OR_ZERO = st.one_of(st.just(Fraction(0)), _WIDE)


def _all_fractions(rows) -> bool:
    return all(type(x) is Fraction for row in rows for x in row)


@st.composite
def _wide_stack(draw, n=None, max_rows=5):
    """Up to 8 rows of wide entries: up to `max_rows` drawn ones plus up to
    3 copies or combinations of them, shuffled, so rank-deficient stacks
    and negative pivots occur."""
    if n is None:
        n = draw(st.integers(1, 7))
    row = st.lists(_WIDE_OR_ZERO, min_size=n, max_size=n)
    rows = draw(st.lists(row, max_size=max_rows))
    if rows:
        for _ in range(draw(st.integers(0, 3))):
            a = draw(st.sampled_from(rows))
            b = draw(st.sampled_from(rows))
            c = draw(_WIDE_OR_ZERO)
            rows.append([x + c * y for x, y in zip(a, b)])
    return n, draw(st.permutations(rows))


@given(_wide_stack())
def test_wide_rref_matches_reference(case):
    n, rows = case
    got = rref(QQ, n, rows).basis
    assert got == ref_rref(QQ, n, rows)
    assert _all_fractions(got)
    assert_canonical(QQ, got)


@given(_wide_stack(), st.data())
def test_wide_dot_and_reduce_match_reference(case, data):
    n, rows = case
    x = data.draw(st.lists(_WIDE_OR_ZERO, min_size=n, max_size=n))
    for r in rows:
        got = dot(QQ, tuple(x), tuple(r))
        assert got == ref_dot(QQ, x, r)
        assert type(got) is Fraction
    s = rref(QQ, n, rows)
    got = reduce_mod_subspace(s, x)
    assert got == ref_reduce(QQ, s.basis, x)
    assert _all_fractions([got])


def _ref_solution(n, rows, rhs):
    """The reference elimination of [rows | rhs]: None when a pivot falls
    in the last column, else the left block and the solution with the free
    variables zero."""
    reduced = ref_rref(QQ, n + 1, [list(r) + [b] for r, b in zip(rows, rhs)])
    x = [Fraction(0)] * n
    for row in reduced:
        piv = next(j for j, v in enumerate(row) if v != 0)
        if piv == n:
            return None
        x[piv] = row[n]
    return tuple(row[:n] for row in reduced), tuple(x)


@given(_wide_stack(), st.data())
def test_wide_solve_and_meet_match_reference(case, data):
    n, rows = case
    # consistent right-hand sides half the time (the values at a point),
    # so both None and a point occur
    if data.draw(st.booleans()):
        point = data.draw(st.lists(_WIDE_OR_ZERO, min_size=n, max_size=n))
        rhs = [ref_dot(QQ, r, point) for r in rows]
    else:
        rhs = data.draw(st.lists(_WIDE_OR_ZERO, min_size=len(rows),
                                 max_size=len(rows)))
    want = _ref_solution(n, rows, rhs)
    got = solve_linear(QQ, n, rows, rhs)
    assert got == (None if want is None else want[1])
    met = _solve_augmented(QQ, n, [QQ.vector(r) for r in rows], rhs)
    assert met == want
    if met is not None:
        basis, x = met
        assert _all_fractions(basis) and _all_fractions([x])
        assert all(ref_dot(QQ, r, x) == b for r, b in zip(rows, rhs))


@st.composite
def _wide_square(draw):
    """n rows of n wide entries: a `_wide_stack` of at most n drawn rows,
    padded with drawn rows, so singular matrices occur."""
    n = draw(st.integers(1, 5))
    _, rows = draw(_wide_stack(n=n, max_rows=n))
    row = st.lists(_WIDE_OR_ZERO, min_size=n, max_size=n)
    return n, (rows + draw(st.lists(row, min_size=n, max_size=n)))[:n]


@given(_wide_square())
def test_wide_mat_inverse_matches_reference(case):
    n, rows = case
    identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    reduced = ref_rref(QQ, 2 * n,
                       [list(r) + e for r, e in zip(rows, identity)])
    left = [list(r[:n]) for r in reduced]
    m = tuple(QQ.vector(r) for r in rows)
    if left != identity:
        with pytest.raises(ZeroDivisionError):
            mat_inverse(QQ, m)
        return
    inv = mat_inverse(QQ, m)
    assert inv == tuple(tuple(r[n:]) for r in reduced)
    assert _all_fractions(inv)
    assert all(ref_dot(QQ, r, col) == identity[i][j]
               for i, r in enumerate(m) for j, col in enumerate(zip(*inv)))
