"""The isotropic-subspace enumerators: the packed Z_2^m table and the
generic list for every prime.  Both are grown by the one walk,
`phase_space._orderly_walk`, each from its own "may follow" masks, so they
are checked against closed-form counts and against brute-force enumerations
written here, which do not use the walk; a broken walk must fail both."""

import itertools

import pytest

from toytheory import _gf2, phase_space
from toytheory.algebra import GF, rref
from toytheory.phase_space import (
    _all_vectors, all_isotropic_subspaces, bracket_vectors, discrete_space,
)


def gaussian_binomial(n: int, k: int, p: int = 2) -> int:
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def isotropic_count(n: int, k: int, p: int = 2) -> int:
    """k-dimensional isotropic subspaces of Z_p^(2n)."""
    count = gaussian_binomial(n, k, p)
    for i in range(k):
        count *= p ** (n - i) + 1
    return count


def bracket(a: int, b: int, m: int) -> int:
    """Symplectic product of packed vectors, coordinate by coordinate."""
    return sum(((a >> 2 * i) & 1) * ((b >> 2 * i + 1) & 1)
               + ((a >> 2 * i + 1) & 1) * ((b >> 2 * i) & 1)
               for i in range(m // 2)) % 2


def span(vectors) -> frozenset:
    elems = {0}
    for v in vectors:
        elems |= {e ^ v for e in elems}
    return frozenset(elems)


def brute_force_spans(m: int, k: int) -> set:
    """Spans of all pairwise-commuting, independent k-sets of vectors."""
    out = set()
    for vs in itertools.combinations(range(1, 1 << m), k):
        if any(bracket(a, b, m) for a, b in itertools.combinations(vs, 2)):
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


@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_ortho_table_matches_the_dot_product(m):
    table = _gf2.ortho_table(m)
    assert len(table) == 1 << m
    for v in range(1 << m):
        assert table[v] == sum(1 << x for x in range(1 << m)
                               if not _gf2.dot2(x, v))


def test_closed_form_counts():
    assert [isotropic_count(4, k) for k in range(5)] == [1, 255, 5355, 11475, 2295]


@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_isotropic_bases_table(m):
    table = _gf2.isotropic_bases(m)
    n = m // 2
    assert [len(per_dim) for per_dim in table] == [
        isotropic_count(n, k) for k in range(n + 1)]
    spans = set()
    for k, per_dim in enumerate(table):
        assert list(per_dim) == sorted(per_dim)
        for basis in per_dim:
            assert len(basis) == k
            assert is_canonical(basis)
            assert all(bracket(a, b, m) == 0
                       for a, b in itertools.combinations(basis, 2))
            spans.add(span(basis))
    assert len(spans) == sum(len(per_dim) for per_dim in table)


@pytest.mark.parametrize("m", [2, 4, 6])
def test_isotropic_bases_match_brute_force(m):
    table = _gf2.isotropic_bases(m)
    for k, per_dim in enumerate(table):
        assert {span(basis) for basis in per_dim} == brute_force_spans(m, k)


def test_one_table_per_ambient_dimension():
    subs = all_isotropic_subspaces(discrete_space(2, 4))
    assert len(subs) == 1 + 255 + 5355 + 11475 + 2295


@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_direct_subspaces_equal_rref_route(m):
    field = GF(2)
    want = []
    for per_dim in _gf2.isotropic_bases(m):
        subs = [rref(field, m, [_gf2.int_to_vector(b, m) for b in basis])
                for basis in per_dim]
        want.extend(sorted(subs, key=lambda s: s.basis))
    assert all_isotropic_subspaces(discrete_space(2, m // 2)) == want


def brute_force_subspaces(p: int, n: int) -> list:
    """Spans of all pairwise-commuting, independent k-sets of vectors of
    Z_p^(2n), through `rref`, sorted by dimension and then by basis."""
    field = GF(p)
    m = 2 * n
    nonzero = [v for v in _all_vectors(field, m) if any(v)]
    out = []
    for k in range(n + 1):
        spans = set()
        for vs in itertools.combinations(nonzero, k):
            if any(bracket_vectors(field, a, b)
                   for a, b in itertools.combinations(vs, 2)):
                continue
            sub = rref(field, m, vs)
            if sub.dim == k:
                spans.add(sub)
        out.extend(sorted(spans, key=lambda s: s.basis))
    return out


def is_canonical_rref(basis) -> bool:
    """Each row's first nonzero entry is 1, pivots ascend, and every other
    row is zero in each pivot column."""
    pivots = [next((j for j, x in enumerate(row) if x), None) for row in basis]
    if None in pivots or pivots != sorted(set(pivots)):
        return False
    return all(row[c] == (i == r)
               for r, c in enumerate(pivots) for i, row in enumerate(basis))


@pytest.mark.parametrize("p,n", [(3, 3), (5, 2), (7, 2)])
def test_generic_closed_form_counts(p, n):
    subs = all_isotropic_subspaces(discrete_space(p, n))
    dims = [s.dim for s in subs]
    assert dims == sorted(dims)
    assert [dims.count(k) for k in range(n + 1)] == [
        isotropic_count(n, k, p) for k in range(n + 1)]
    assert len(set(subs)) == len(subs)
    for k in range(n + 1):
        bases = [s.basis for s in subs if s.dim == k]
        assert bases == sorted(bases)
    field = GF(p)
    for s in subs:
        assert is_canonical_rref(s.basis)
        assert all(bracket_vectors(field, a, b) == 0
                   for a, b in itertools.combinations(s.basis, 2))


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1), (7, 1)])
def test_generic_subspaces_match_brute_force(p, n):
    assert all_isotropic_subspaces(discrete_space(p, n)) == \
        brute_force_subspaces(p, n)


def rest_walk(follows, allowed, top):
    """`_orderly_walk` with one mistake: a child's allowed set is the
    parent's candidates after the new one (``rest``), not all of them."""
    out = [[] for _ in range(top + 1)]

    def grow(path, mask):
        out[len(path)].append(path)
        rest = mask if len(path) < top else 0
        while rest:
            j = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            grow(path + (j,), rest & follows[j])

    grow((), allowed)
    return out


@pytest.mark.parametrize("walk, packed, generic", [
    (phase_space._orderly_walk,
     [1, 255, 5355, 11475, 2295], [1, 40, 40]),
    (rest_walk, [1, 255, 2934, 2829, 318], [1, 40, 0]),
], ids=["library", "rest"])
def test_a_broken_walk_fails_both_encodings(monkeypatch, walk, packed,
                                            generic):
    # A pivot above v's need not come after v among either encoding's
    # candidates, so the rest walk loses subspaces in both.
    monkeypatch.setattr(_gf2, "_orderly_walk", walk)
    monkeypatch.setattr(phase_space, "_orderly_walk", walk)
    # the uncached build, so the table of the wrong walk is not kept
    table = _gf2.isotropic_bases.__wrapped__(8)
    dims = [s.dim for s in all_isotropic_subspaces(discrete_space(3, 2))]
    got = ([len(per_dim) for per_dim in table],
           [dims.count(k) for k in range(3)])
    assert got == (packed, generic)
    closed = ([isotropic_count(4, k) for k in range(5)],
              [isotropic_count(2, k, 3) for k in range(3)])
    assert (got == closed) == (walk is not rest_walk)
