"""The Z_2^m isotropic-subspace table, checked against closed-form counts
and, at m <= 6, against a brute-force enumeration written here."""

import itertools

import pytest

from toytheory import _gf2, scenarios
from toytheory.algebra import GF, rref
from toytheory.phase_space import all_isotropic_subspaces, discrete_space


def gaussian_binomial(n: int, k: int) -> int:
    num = den = 1
    for i in range(k):
        num *= 2 ** (n - i) - 1
        den *= 2 ** (i + 1) - 1
    return num // den


def isotropic_count(n: int, k: int) -> int:
    """k-dimensional isotropic subspaces of Z_2^(2n)."""
    count = gaussian_binomial(n, k)
    for i in range(k):
        count *= 2 ** (n - i) + 1
    return count


def span(vectors) -> frozenset:
    elems = {0}
    for v in vectors:
        elems |= {e ^ v for e in elems}
    return frozenset(elems)


def brute_force_spans(m: int, k: int) -> set:
    """Spans of all pairwise-commuting, independent k-sets of vectors."""
    out = set()
    for vs in itertools.combinations(range(1, 1 << m), k):
        if any(_gf2.bracket2(a, b, m) for a, b in itertools.combinations(vs, 2)):
            continue
        elems = span(vs)
        if len(elems) == 1 << k:
            out.add(elems)
    return out


def is_canonical(basis) -> bool:
    """Fully reduced, pivot at the lowest set bit, pivots ascending."""
    pivots = [b & -b for b in basis if b]
    if len(pivots) != len(basis) or pivots != sorted(set(pivots)):
        return False
    return all(not (b & piv) for piv in pivots for b in basis if b & -b != piv)


def test_closed_form_counts():
    assert [isotropic_count(4, k) for k in range(5)] == [1, 255, 5355, 11475, 2295]


@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_isotropic_bases_table(m):
    table = _gf2.isotropic_bases(m)
    n = m // 2
    assert [len(per_dim) for per_dim in table] == [
        isotropic_count(n, k) for k in range(n + 1)]
    masks = set()
    for k, per_dim in enumerate(table):
        assert list(per_dim) == sorted(per_dim)
        for basis in per_dim:
            assert len(basis) == k
            assert is_canonical(basis)
            assert all(_gf2.bracket2(a, b, m) == 0
                       for a, b in itertools.combinations(basis, 2))
            masks.add(_gf2.span_mask(basis))
    assert len(masks) == sum(len(per_dim) for per_dim in table)


@pytest.mark.parametrize("m", [2, 4, 6])
def test_isotropic_bases_match_brute_force(m):
    table = _gf2.isotropic_bases(m)
    for k, per_dim in enumerate(table):
        assert {span(basis) for basis in per_dim} == brute_force_spans(m, k)


def test_one_table_per_ambient_dimension():
    scenarios._fr_tables()
    misses = _gf2.isotropic_bases.cache_info().misses
    subs = all_isotropic_subspaces(discrete_space(2, 4))
    assert _gf2.isotropic_bases.cache_info().misses == misses
    assert len(subs) == 1 + 255 + 5355 + 11475 + 2295


@pytest.mark.parametrize("m", [2, 4, 6])
def test_direct_subspaces_equal_rref_route(m):
    field = GF(2)
    want = []
    for per_dim in _gf2.isotropic_bases(m):
        subs = [rref(field, m, [_gf2.int_to_vector(b, m) for b in basis])
                for basis in per_dim]
        want.extend(sorted(subs, key=lambda s: s.basis))
    assert all_isotropic_subspaces(discrete_space(2, m // 2)) == want
