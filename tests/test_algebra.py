import itertools
import re
from fractions import Fraction

import pytest

from toytheory.algebra import (
    GF, QQ, coset_intersection, contains, enumerate_coset,
    enumerate_subspace, make_coset, mat_inverse, mat_mul,
    orthogonal_complement, rref, solve_linear, subspace_intersection,
    subspace_sum, zero_subspace,
)
from toytheory.errors import DimensionMismatch, NotPrimeError

from conftest import random_subspace, random_vector

F2 = GF(2)
F3 = GF(3)

# Strings other than "a" and "a/b" (optional sign on a, b nonzero), which
# `Fraction` alone would accept or fail on with ZeroDivisionError.
BAD_ENTRY_STRINGS = ("1/0", "-3/00", "0.5", "1e3", "1_000", " 1", "1/-2",
                     "--1", "1/", "", "x")


def test_prime_field_rejects_composites():
    with pytest.raises(NotPrimeError):
        GF(4)
    with pytest.raises(NotPrimeError):
        GF(6)
    GF(2), GF(3), GF(5), GF(7)


@pytest.mark.parametrize("field", [F3, GF(7)])
def test_prime_coerce_contract(field):
    p = field.p
    assert field.coerce(-1) == p - 1 and field.coerce(2 * p + 1) == 1
    assert field.coerce(Fraction(1, 2)) == (p + 1) // 2
    assert field.coerce(Fraction(-3, 1)) == field.coerce(-3)
    assert field.coerce("1/2") == field.coerce(Fraction(1, 2))
    assert field.coerce("-4") == field.coerce(-4)
    got = field.vector([-1, Fraction(1, 2), "2/5", True, p])
    assert got == (p - 1, field.coerce(Fraction(1, 2)),
                   field.coerce(Fraction(2, 5)), 1, 0)
    assert all(type(x) is int and 0 <= x < p for x in got)
    for bad in (0.1, 1.0, float("nan")):
        with pytest.raises(TypeError):
            field.coerce(bad)
        with pytest.raises(TypeError):
            field.vector([0, bad])
    with pytest.raises(ValueError):
        field.coerce(Fraction(1, p))
    assert field.coerce("+3") == 3 % p and field.coerce("4/2") == 2
    for bad in BAD_ENTRY_STRINGS:
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            field.coerce(bad)


def test_rational_coerce_contract():
    half = Fraction(1, 2)
    assert QQ.coerce(half) is half
    assert QQ.coerce(-3) == Fraction(-3) and QQ.coerce("-1/2") == -half
    got = QQ.vector([1, half, "3/4", -2])
    assert got == (1, half, Fraction(3, 4), -2)
    assert all(type(x) is Fraction for x in got)
    for bad in (0.1, 0.5, 1.0):
        with pytest.raises(TypeError):
            QQ.coerce(bad)
        with pytest.raises(TypeError):
            QQ.vector([bad])
    assert QQ.coerce("+4/6") == Fraction(2, 3) and QQ.coerce("007") == 7
    for bad in BAD_ENTRY_STRINGS:
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            QQ.coerce(bad)
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            QQ.vector([0, bad])


def test_rref_scaling_collapses_over_q():
    s = rref(QQ, 2, [(2, 0), (4, 0)])
    assert s.basis == ((Fraction(1), Fraction(0)),)


def test_rref_dependent_rows_over_gf2():
    s = rref(F2, 4, [(1, 0, 1, 0), (0, 1, 0, 1), (1, 1, 1, 1)])
    assert s.basis == ((1, 0, 1, 0), (0, 1, 0, 1))


def test_rref_empty_span():
    s = rref(F2, 4, [])
    assert s.dim == 0 and s.ambient_dim == 4


def test_rref_rejects_mismatched_rows():
    with pytest.raises(DimensionMismatch):
        rref(F2, 4, [(1, 0, 1)])


def test_rref_canonical_across_generating_sets(rng):
    for _ in range(200):
        s = random_subspace(F3, 4, rng)
        # rebuild from random combinations of the basis
        rows = []
        for _ in range(6):
            row = (0,) * 4
            for b in s.basis:
                c = rng.randrange(3)
                row = tuple((x + c * y) % 3 for x, y in zip(row, b))
            rows.append(row)
        rebuilt = rref(F3, 4, rows)
        if rebuilt.dim == s.dim:  # random combos may not span all of s
            assert rebuilt == s


def test_contains():
    s = rref(F2, 4, [(1, 0, 1, 0)])
    assert contains(s, (1, 0, 1, 0))
    assert not contains(s, (0, 1, 0, 0))
    assert contains(zero_subspace(F2, 4), (0, 0, 0, 0))
    with pytest.raises(DimensionMismatch):
        contains(s, (1, 0))


def test_subspace_sum_basics():
    a = rref(F2, 2, [(1, 0)])
    b = rref(F2, 2, [(0, 1)])
    assert subspace_sum(a, b).dim == 2
    z = zero_subspace(F2, 2)
    assert subspace_sum(a, z) == a


def test_subspace_sum_bell_update_over_q():
    a = rref(QQ, 4, [(0, 0, 0, 1)])
    b = rref(QQ, 4, [(0, 1, 0, -1)])
    got = subspace_sum(a, b)
    want = rref(QQ, 4, [(0, 1, 0, 0), (0, 0, 0, 1)])
    assert got == want


def test_subspace_intersection_against_enumeration():
    s = rref(F2, 4, [(1, 0, 1, 0), (0, 1, 0, 1)])
    t = rref(F2, 4, [(1, 0, 1, 0), (1, 1, 1, 1)])
    got = subspace_intersection(s, t)
    expected = set(enumerate_subspace(s)) & set(enumerate_subspace(t))
    assert set(enumerate_subspace(got)) == expected
    assert subspace_intersection(s, s) == s
    a = rref(F2, 2, [(1, 0)])
    b = rref(F2, 2, [(0, 1)])
    assert subspace_intersection(a, b).dim == 0


@pytest.mark.parametrize("field", [F2, F3, GF(5), QQ], ids=repr)
def test_subspace_intersection_is_the_complement_of_the_complements_sum(
        field, rng):
    # the reference is the complement formula S ∩ T = (S^⊥ + T^⊥)^⊥; half
    # the draws give T some of S's rows, so the intersections are not all 0
    for _ in range(150):
        n = rng.randint(1, 5)
        s = random_subspace(field, n, rng)
        t = random_subspace(field, n, rng)
        if rng.random() < 0.5:
            t = subspace_sum(t, rref(field, n, s.basis[:rng.randint(0, s.dim)]))
        want = orthogonal_complement(subspace_sum(orthogonal_complement(s),
                                                  orthogonal_complement(t)))
        assert subspace_intersection(s, t) == want
        assert subspace_intersection(t, s) == want


def test_orthogonal_complement_examples():
    z = zero_subspace(F2, 4)
    assert orthogonal_complement(z).dim == 4
    s = rref(QQ, 2, [(2, 0)])
    assert orthogonal_complement(s).basis == ((Fraction(0), Fraction(1)),)


def test_double_complement_random_z3(rng):
    for _ in range(100):
        s = random_subspace(F3, 6, rng)
        assert orthogonal_complement(orthogonal_complement(s)) == s
        assert s.dim + orthogonal_complement(s).dim == 6


def test_coset_canonicalization_and_intersection():
    s = rref(F2, 2, [(0, 1)])
    c = make_coset(s, (0, 0))
    assert coset_intersection(c, c) == c
    c2 = make_coset(s, (1, 0))
    assert coset_intersection(c, c2) is None  # parallel lines
    h = make_coset(rref(F2, 2, [(1, 0)]), (0, 1))
    got = coset_intersection(c, h)
    assert got is not None
    assert set(enumerate_coset(got)) == {(0, 1)}


def test_coset_representative_independence(rng):
    # any member of the coset canonicalizes to the same shift
    for _ in range(200):
        s = random_subspace(F2, 6, rng, max_rows=4)
        w = random_vector(F2, 6, rng)
        c = make_coset(s, w)
        members = list(enumerate_coset(c))
        a = members[rng.randrange(len(members))]
        assert make_coset(s, a) == c


def _nested_enumeration(field, basis, shift):
    """Every combination of the rows grown from zero, row by row with
    c = 0..p-1 innermost, and only then shifted."""
    p = field.p
    elems = [(0,) * len(shift)]
    for row in basis:
        scaled = [tuple(c * x % p for x in row) for c in range(p)]
        elems = [tuple((x + y) % p for x, y in zip(e, sv))
                 for e in elems for sv in scaled]
    return [tuple((x + y) % p for x, y in zip(v, shift)) for v in elems]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_enumerations_keep_the_nested_order(p, rng):
    field = GF(p)
    zero = (0,) * 4
    for _ in range(40):
        s = random_subspace(field, 4, rng)
        c = make_coset(s, random_vector(field, 4, rng))
        assert list(enumerate_subspace(s)) == \
            _nested_enumeration(field, s.basis, zero)
        assert list(enumerate_coset(c)) == \
            _nested_enumeration(field, s.basis, c.shift)


def test_enumerations_refuse_the_rationals():
    s = rref(QQ, 2, [(1, 0)])
    with pytest.raises(TypeError):
        enumerate_subspace(s)
    with pytest.raises(TypeError):
        enumerate_coset(make_coset(s, (0, 1)))


def test_solve_linear_consistency():
    sol = solve_linear(F2, 3, [(1, 1, 0), (0, 1, 1)], [1, 0])
    assert sol is not None
    assert (sol[0] + sol[1]) % 2 == 1 and (sol[1] + sol[2]) % 2 == 0
    assert solve_linear(F2, 2, [(1, 0), (1, 0)], [0, 1]) is None
    assert solve_linear(F3, 2, [], []) == (0, 0)


@pytest.mark.parametrize("p", [3, 5])
def test_solve_linear_reduces_noncanonical_ints(p):
    field = GF(p)
    # p * x = 1 is 0 * x = 1: inconsistent, not a division by zero
    assert solve_linear(field, 1, [(p,)], [1]) is None
    assert solve_linear(field, 2, [(p, 0), (0, 1)], [p + 1, 0]) is None
    # the same system as canonical rows and as rows shifted by multiples of p
    canonical = solve_linear(field, 2, [(1, 0), (0, 2)], [p - 1, 1])
    shifted = solve_linear(field, 2, [(p + 1, -p), (p, 2 - p)],
                           [-1, 1 + 3 * p])
    assert canonical is not None
    assert shifted == canonical


@pytest.mark.parametrize("field,ambient", [(F2, 6), (F3, 4), (GF(5), 4)])
def test_lemma_sweeps_finite(field, ambient, rng):
    """Representative-independence, intersection form, complement-of-sum and
    double complement on random instances (the full 1000-instance suites run
    in the acceptance tests)."""
    for _ in range(200):
        v = random_subspace(field, ambient, rng, max_rows=3)
        w = random_subspace(field, ambient, rng, max_rows=3)
        # complement of a sum
        assert orthogonal_complement(subspace_sum(v, w)) == \
            subspace_intersection(orthogonal_complement(v),
                                  orthogonal_complement(w))
        # double complement
        assert orthogonal_complement(orthogonal_complement(v)) == v
        # coset intersection form vs brute force
        cv = make_coset(v, random_vector(field, ambient, rng))
        cw = make_coset(w, random_vector(field, ambient, rng))
        got = coset_intersection(cv, cw)
        brute = set(enumerate_coset(cv)) & set(enumerate_coset(cw))
        if got is None:
            assert not brute
        else:
            assert set(enumerate_coset(got)) == brute
            assert got.subspace == subspace_intersection(v, w)


def test_lemma_sweeps_rational(rng):
    for _ in range(100):
        v = random_subspace(QQ, 4, rng, max_rows=2)
        w = random_subspace(QQ, 4, rng, max_rows=2)
        assert orthogonal_complement(subspace_sum(v, w)) == \
            subspace_intersection(orthogonal_complement(v),
                                  orthogonal_complement(w))
        assert orthogonal_complement(orthogonal_complement(v)) == v
        cv = make_coset(v, random_vector(QQ, 4, rng))
        cw = make_coset(w, random_vector(QQ, 4, rng))
        got = coset_intersection(cv, cw)
        if got is not None:
            assert cv.contains(got.shift) and cw.contains(got.shift)
            assert got.subspace == subspace_intersection(v, w)


def test_mat_inverse_roundtrip():
    """Over all 81 2x2 matrices on GF(3), exactly the |GL(2,3)| = 48
    invertible ones invert, with a roundtrip to I; the other 33 raise."""
    ident = ((1, 0), (0, 1))
    inverted = singular = 0
    for a, b, c, d in itertools.product(range(3), repeat=4):
        m = ((a, b), (c, d))
        try:
            inv = mat_inverse(F3, m)
        except ZeroDivisionError:
            assert (a * d - b * c) % 3 == 0
            singular += 1
            continue
        assert mat_mul(F3, m, inv) == ident == mat_mul(F3, inv, m)
        inverted += 1
    assert (inverted, singular) == (48, 33)
    with pytest.raises(ZeroDivisionError):
        mat_inverse(QQ, ((Fraction(1), Fraction(2)),
                         (Fraction(3, 2), Fraction(3))))
    half = Fraction(1, 2)
    assert mat_inverse(QQ, ((Fraction(2), Fraction(0)),
                            (Fraction(0), half))) == \
        ((half, Fraction(0)), (Fraction(0), Fraction(2)))
