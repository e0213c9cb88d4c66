import itertools
from fractions import Fraction

import pytest

from toytheory.algebra import GF, orthogonal_complement, rref
from toytheory.errors import DimensionMismatch, NotIsotropic
from toytheory.phase_space import (
    all_isotropic_subspaces, discrete_space, is_isotropic, rational_space,
    _all_vectors,
)
from toytheory.states import (
    all_valid_states, bell_pair, box_number, is_valid_support, knowledge_bits,
    make_state, marginal, maximally_mixed, mixture_support, ontic_support,
    OnticSupport, render_grid, states_equal, tensor, tensor_all, toy_bit,
)

F2 = GF(2)
SP1 = discrete_space(2, 1)
SP2 = discrete_space(2, 2)


def test_toy_zero_state():
    s = toy_bit("0")
    assert knowledge_bits(s) == 1
    sup = ontic_support(s)
    assert sup.members == {(0, 0), (0, 1)}
    assert {box_number(q, p) for q, p in sup.members} == {1, 2}


def test_toy_bit_box_sets():
    boxes = {"0": {1, 2}, "1": {3, 4}, "+": {1, 3}, "-": {2, 4},
             "i": {1, 4}, "-i": {2, 3}}
    for name, want in boxes.items():
        sup = ontic_support(toy_bit(name))
        assert {box_number(q, p) for q, p in sup.members} == want


def test_joint_knowledge_rejected():
    with pytest.raises(NotIsotropic):
        make_state(SP1, [(1, 0), (0, 1)], (0, 0))


def test_continuous_state_and_canonical_generator():
    sp = rational_space(1)
    s = make_state(sp, [(2, -1)], (3, 1))
    assert s.known.basis == ((Fraction(1), Fraction(-1, 2)),)
    assert s.value_of((2, -1)) == 5


def test_knowledge_bits_and_support_sizes():
    assert knowledge_bits(maximally_mixed(SP1)) == 0
    assert len(ontic_support(maximally_mixed(SP1))) == 4
    assert knowledge_bits(toy_bit("0")) == 1
    assert len(ontic_support(toy_bit("0"))) == 2
    bell = bell_pair(2)
    assert knowledge_bits(bell) == 2
    assert len(ontic_support(bell)) == 4


def test_bell_support():
    assert ontic_support(bell_pair(2)).members == {
        (0, 0, 0, 0), (0, 1, 0, 1), (1, 0, 1, 0), (1, 1, 1, 1)}


def test_tensor_examples():
    s = tensor(toy_bit("1"), toy_bit("0"))
    assert s.value_of((1, 0, 0, 0)) == 1
    assert s.value_of((0, 0, 1, 0)) == 0
    # composing with full ignorance embeds the known set unchanged
    s2 = tensor(toy_bit("0"), maximally_mixed(SP1))
    assert s2.known == rref(F2, 4, [(1, 0, 0, 0)])


def test_tensor_rational_product_state():
    sp = rational_space(1)
    a = make_state(sp, [(2, -1)], (3, 1))
    b = make_state(sp, [(1, 0)], (10, 0))
    joint = tensor(a, b)
    want = make_state(rational_space(2), [(2, -1, 0, 0), (0, 0, 1, 0)],
                      (3, 1, 10, 0))
    assert states_equal(joint, want)


def test_marginal_examples():
    s = tensor(toy_bit("+"), toy_bit("0"))
    assert states_equal(marginal(s, [1]), toy_bit("0"))
    assert states_equal(marginal(s, [0]), toy_bit("+"))
    bell = bell_pair(2)
    for i in (0, 1):
        assert states_equal(marginal(bell, [i]), maximally_mixed(SP1))
    with pytest.raises(DimensionMismatch):
        marginal(s, [2])


def test_marginal_commutes_with_projection():
    for s in all_valid_states(SP2):
        for keep in ([0], [1]):
            m = marginal(s, keep)
            projected = {tuple(v[2 * keep[0]:2 * keep[0] + 2])
                         for v in ontic_support(s).members}
            assert ontic_support(m).members == projected


def test_marginal_of_pure_dichotomy():
    mixed = maximally_mixed(SP1)
    for s in all_valid_states(SP2):
        if knowledge_bits(s) != 2:
            continue
        for i in (0, 1):
            m = marginal(s, [i])
            assert knowledge_bits(m) == 1 or states_equal(m, mixed)


def test_states_equal_representative_independence():
    s = toy_bit("0")
    other = make_state(SP1, [(1, 0)], (0, 1))  # other support member
    assert states_equal(s, other)
    assert not states_equal(toy_bit("0"), toy_bit("1"))
    assert not states_equal(toy_bit("+"), toy_bit("0"))


def test_mixture_supports():
    full = mixture_support([toy_bit("0"), toy_bit("1")])
    assert len(full) == 4
    same = mixture_support([toy_bit("0"), toy_bit("0")])
    assert same.members == ontic_support(toy_bit("0")).members
    union = mixture_support([
        tensor(toy_bit("0"), toy_bit("0")),
        tensor(toy_bit("1"), toy_bit("0")),
        tensor(toy_bit("1"), toy_bit("1"))])
    assert len(union) == 12


def test_is_valid_support():
    three = OnticSupport(SP1, frozenset({(0, 0), (0, 1), (1, 0)}))
    assert is_valid_support(three) is None
    union = mixture_support([
        tensor(toy_bit("0"), toy_bit("0")),
        tensor(toy_bit("1"), toy_bit("0")),
        tensor(toy_bit("1"), toy_bit("1"))])
    assert is_valid_support(union) is None
    full = OnticSupport(SP2, frozenset(_all_vectors(F2, 4)))
    got = is_valid_support(full)
    assert got is not None and states_equal(got, maximally_mixed(SP2))


@pytest.mark.parametrize("d, n, members, spanned", [
    # 4 = 2^2 points whose differences span 3 dimensions
    (2, 2, [(0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 1)], 8),
    # 3 = 3^1 points whose differences span the plane
    (3, 1, [(0, 0), (1, 0), (0, 1)], 9),
])
def test_support_that_is_not_a_coset_is_not_a_state(d, n, members, spanned):
    # the size is a power of d in the knowledge balance, and the differences
    # span a subspace with an isotropic annihilator, so only the coset test
    # (d^dim of the span == size) rejects the set: without it the "state"
    # would have a support of ``spanned`` points
    field = GF(d)
    direction = rref(field, 2 * n, members)  # the differences from 0
    assert d ** direction.dim == spanned
    assert is_isotropic(orthogonal_complement(direction))
    sup = OnticSupport(discrete_space(d, n), frozenset(members))
    assert is_valid_support(sup) is None


def test_empty_support_is_not_a_state():
    # no power of d is 0: the size test must not loop dividing 0 by d
    assert is_valid_support(OnticSupport(SP1, frozenset())) is None


def test_empty_products_and_mixtures_are_dimension_errors():
    with pytest.raises(DimensionMismatch, match="empty tensor product"):
        tensor_all([])
    with pytest.raises(DimensionMismatch, match="empty mixture"):
        mixture_support([])


def test_validity_matches_support_oracle_exhaustive_n1():
    # every subspace + valuation of Z_2^2: construction succeeds iff the
    # explicit coset is a valid support, and the two states agree
    from toytheory.algebra import enumerate_coset, orthogonal_complement, Coset
    all_subs = set()
    for rows in itertools.product(_all_vectors(F2, 2), repeat=2):
        all_subs.add(rref(F2, 2, rows))
    for sub in all_subs:
        for val in _all_vectors(F2, 2):
            coset = Coset(orthogonal_complement(sub), val)
            sup = OnticSupport(SP1, frozenset(enumerate_coset(coset)))
            from_support = is_valid_support(sup)
            try:
                direct = make_state(SP1, sub.basis, val)
            except NotIsotropic:
                direct = None
            if direct is None:
                assert from_support is None
            else:
                assert from_support is not None
                assert states_equal(direct, from_support)


def _all_subspaces(field, ambient):
    """Every subspace (not only isotropic), canonical, by BFS."""
    from toytheory.algebra import zero_subspace
    seen = {zero_subspace(field, ambient)}
    frontier = list(seen)
    while frontier:
        grown = []
        for sub in frontier:
            for v in _all_vectors(field, ambient):
                if any(v) and not sub.contains(v):
                    bigger = rref(field, ambient, list(sub.basis) + [v])
                    if bigger not in seen:
                        seen.add(bigger)
                        grown.append(bigger)
        frontier = grown
    return seen


def test_validity_matches_support_oracle_exhaustive_n2():
    from toytheory.algebra import enumerate_coset, orthogonal_complement, Coset
    subs = _all_subspaces(F2, 4)
    assert len(subs) == 67
    for sub in subs:
        comp = orthogonal_complement(sub)
        for val in _all_vectors(F2, 4):
            sup = OnticSupport(SP2, frozenset(enumerate_coset(Coset(comp, val))))
            from_support = is_valid_support(sup)
            try:
                direct = make_state(SP2, sub.basis, val)
            except NotIsotropic:
                direct = None
            if direct is None:
                assert from_support is None
            else:
                assert from_support is not None
                assert states_equal(direct, from_support)


def test_knowledge_balance_exhaustive_d2():
    for space in (SP1, SP2):
        d = 2
        n2 = space.ambient_dim
        for s in all_valid_states(space):
            assert len(ontic_support(s)) == d ** (n2 - knowledge_bits(s))


def test_knowledge_balance_sampled_d3_d5(rng):
    for d in (3, 5):
        sp = discrete_space(d, 1)
        for sub in all_isotropic_subspaces(sp):
            val = tuple(rng.randrange(d) for _ in range(2))
            s = make_state(sp, sub.basis, val)
            assert len(ontic_support(s)) == d ** (2 - knowledge_bits(s))


def test_render_grid():
    assert render_grid(toy_bit("+")).to_ascii() == "#.#."
    assert render_grid(maximally_mixed(SP1)).to_ascii() == "####"
    bell = bell_pair(2)
    cells = set()
    grid = render_grid(bell)
    for r in range(4):
        for c in range(4):
            if grid.filled[r][c]:
                cells.add((4 - r, c + 1))  # back to (box_A, box_B)
    assert cells == {(1, 1), (2, 2), (3, 3), (4, 4)}
    with pytest.raises(DimensionMismatch):
        render_grid(maximally_mixed(discrete_space(3, 1)))


def test_state_counts_d2():
    assert len(all_valid_states(SP1)) == 7
    assert len(all_valid_states(SP2)) == 91
