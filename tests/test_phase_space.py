from fractions import Fraction

import pytest

from toytheory.algebra import (
    GF, QQ, orthogonal_complement, rref, subspace_intersection, zero_subspace,
)
from toytheory.dynamics import gate_library
from toytheory.errors import DimensionMismatch
from toytheory.phase_space import (
    all_isotropic_subspaces, bracket_vectors, commutant_within,
    compose, discrete_space, is_isotropic, j_matrix, observable,
    p_observable, poisson_bracket, q_observable, rational_space,
    symplectic_dual,
)

from conftest import random_subspace, random_vector

F2 = GF(2)
F5 = GF(5)


def test_bracket_canonical_pair():
    sp = discrete_space(2, 1)
    assert poisson_bracket(q_observable(sp, 0), p_observable(sp, 0)) == 1


def test_bracket_antisymmetry_on_self():
    sp = discrete_space(5, 2)
    f = observable(sp, (1, 2, 3, 4))
    assert poisson_bracket(f, f) == 0


def test_bracket_bell_generators_commute():
    f = (1, 0, 1, 0)
    g = (0, 1, 0, 1)
    assert bracket_vectors(F2, f, g) == 0


def test_bracket_antisymmetric_bilinear_random(rng):
    sp = discrete_space(5, 2)
    for _ in range(100):
        f = random_vector(F5, 4, rng)
        g = random_vector(F5, 4, rng)
        h = random_vector(F5, 4, rng)
        assert bracket_vectors(F5, f, g) == (-bracket_vectors(F5, g, f)) % 5
        fg = tuple((a + b) % 5 for a, b in zip(f, g))
        assert bracket_vectors(F5, fg, h) == \
            (bracket_vectors(F5, f, h) + bracket_vectors(F5, g, h)) % 5


def test_j_matrix_single_system():
    sp = rational_space(1)
    j = j_matrix(sp)
    assert j == ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0)))
    # J . J = -I
    from toytheory.algebra import mat_mul
    jj = mat_mul(QQ, j, j)
    assert jj == ((Fraction(-1), Fraction(0)), (Fraction(0), Fraction(-1)))


def test_j_matrix_matches_bracket(rng):
    sp = discrete_space(5, 2)
    j = j_matrix(sp)
    from toytheory.algebra import dot, mat_vec
    for _ in range(200):
        f = random_vector(F5, 4, rng)
        g = random_vector(F5, 4, rng)
        assert dot(F5, f, mat_vec(F5, j, g)) == bracket_vectors(F5, f, g)


def test_is_isotropic_examples():
    assert is_isotropic(rref(F2, 4, [(1, 0, 1, 0), (0, 1, 0, 1)]))
    assert not is_isotropic(rref(F2, 2, [(1, 0), (0, 1)]))
    assert is_isotropic(zero_subspace(F2, 4))
    with pytest.raises(DimensionMismatch):
        is_isotropic(rref(F2, 3, [(1, 0, 0)]))


def test_commutant_examples():
    # V_pi inside isotropic V stays inside the commutant
    v = rref(F2, 4, [(1, 0, 1, 0), (0, 1, 0, 1)])
    v_pi = rref(F2, 4, [(1, 0, 1, 0)])
    c = commutant_within(v, v_pi)
    assert all(c.contains(g) for g in v_pi.basis)
    # p known, q measured: nothing commutes
    v = rref(F2, 2, [(0, 1)])
    v_pi = rref(F2, 2, [(1, 0)])
    assert commutant_within(v, v_pi).dim == 0
    # Bell state, local momentum measurement
    v = rref(F2, 4, [(1, 0, 1, 0), (0, 1, 0, 1)])
    v_pi = rref(F2, 4, [(0, 0, 0, 1)])
    assert commutant_within(v, v_pi) == rref(F2, 4, [(0, 1, 0, 1)])


def test_commutant_is_isotropic_subspace_of_v(rng):
    sp = discrete_space(3, 2)
    f3 = GF(3)
    for _ in range(100):
        rows = []
        while True:
            cand = random_vector(f3, 4, rng)
            trial = rref(f3, 4, rows + [list(cand)])
            if is_isotropic(trial):
                rows = [list(r) for r in trial.basis]
            if len(rows) >= 2 or rng.random() < 0.3:
                break
        v = rref(f3, 4, rows)
        v_pi = random_subspace(f3, 4, rng, max_rows=2)
        c = commutant_within(v, v_pi)
        assert all(v.contains(g) for g in c.basis)
        assert is_isotropic(c)


@pytest.mark.parametrize("field", [F2, GF(3), F5, QQ])
def test_commutant_matches_complement_route(field, rng):
    """The one-elimination commutant equals V ∩ (J V_pi)^⊥ taken through
    complements, on random V and V_pi, isotropic or not."""
    for ambient in (2, 4, 6):
        for _ in range(60):
            v = random_subspace(field, ambient, rng)
            v_pi = random_subspace(field, ambient, rng, max_rows=ambient // 2)
            dual = rref(field, ambient,
                        [symplectic_dual(field, g) for g in v_pi.basis])
            want = subspace_intersection(v, orthogonal_complement(dual))
            assert commutant_within(v, v_pi) == want


def test_maximal_isotropic_dimension_exhaustive_d2():
    for n in (1, 2):
        sp = discrete_space(2, n)
        subs = all_isotropic_subspaces(sp)
        assert max(s.dim for s in subs) == n


def test_maximal_isotropic_dimension_sampled_d3(rng):
    sp = discrete_space(3, 2)
    f3 = GF(3)
    lagr = all_isotropic_subspaces(sp)
    top = [s for s in lagr if s.dim == 2]
    # no isotropic extension of a maximal isotropic subspace exists
    for s in top[:20]:
        for _ in range(50):
            v = random_vector(f3, 4, rng)
            if s.contains(v):
                continue
            grown = rref(f3, 4, list(s.basis) + [v])
            assert not is_isotropic(grown)


def test_isotropic_counts_d2():
    by_dim = {}
    for s in all_isotropic_subspaces(discrete_space(2, 2)):
        by_dim[s.dim] = by_dim.get(s.dim, 0) + 1
    assert by_dim == {0: 1, 1: 15, 2: 15}
    by_dim = {}
    for s in all_isotropic_subspaces(discrete_space(2, 4)):
        by_dim[s.dim] = by_dim.get(s.dim, 0) + 1
    assert by_dim == {0: 1, 1: 255, 2: 5355, 3: 11475, 4: 2295}


def test_isotropic_counts_d3():
    by_dim = {}
    for s in all_isotropic_subspaces(discrete_space(3, 2)):
        by_dim[s.dim] = by_dim.get(s.dim, 0) + 1
    # lines: (3^4-1)/(3-1) = 40; Lagrangians: (3+1)(9+1) = 40
    assert by_dim == {0: 1, 1: 40, 2: 40}


def test_compose_spaces():
    a = discrete_space(2, 1)
    b = discrete_space(2, 2)
    assert compose(a, b).n_systems == 3
    with pytest.raises(DimensionMismatch):
        compose(a, rational_space(1))


def test_system_coords_reject_indices_outside_the_space():
    sp = discrete_space(2, 2)
    assert [sp.system_coords(i) for i in range(2)] == [(0, 1), (2, 3)]
    for bad in (-1, 2, 5):
        with pytest.raises(DimensionMismatch):
            sp.system_coords(bad)
    with pytest.raises(DimensionMismatch):
        q_observable(sp, 2)
    with pytest.raises(DimensionMismatch):
        p_observable(sp, -1)
    for spec in ("cnot:-1,1", "swap:0,4", "qp_swap:-1"):
        with pytest.raises(DimensionMismatch):
            gate_library(sp, spec)
