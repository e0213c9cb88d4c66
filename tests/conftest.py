import random
import sys

import pytest
from hypothesis import Phase, settings

from toytheory.algebra import QQ, mat_vec, rref
from toytheory.dynamics import SymplecticTransform, apply_to_ontic
from toytheory.phase_space import _all_vectors, bracket_vectors
from toytheory.states import all_valid_states, ontic_support
from fractions import Fraction

# Property tests draw the same examples on every run and have no deadline,
# so a slow or busy machine cannot fail them and every failure reproduces.
# The explain phase is left out: it only annotates a shrunk failure, and
# replaying it made a failing property test take several times as long.
settings.register_profile(
    "toytheory", deadline=None, derandomize=True, database=None,
    max_examples=100,
    phases=[ph for ph in Phase if ph is not Phase.explain])
settings.load_profile("toytheory")


@pytest.fixture
def rng():
    return random.Random(20240901)


def random_subspace(field, ambient, rng, max_rows=None):
    if max_rows is None:
        max_rows = ambient
    n_rows = rng.randint(0, max_rows)
    if field is QQ:
        rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                 for _ in range(ambient)] for _ in range(n_rows)]
    else:
        rows = [[rng.randrange(field.p) for _ in range(ambient)]
                for _ in range(n_rows)]
    return rref(field, ambient, rows)


def random_vector(field, ambient, rng):
    if field is QQ:
        return tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                     for _ in range(ambient))
    return tuple(rng.randrange(field.p) for _ in range(ambient))


def isotropic_rows(space, rng, k):
    """k q-coordinate units pushed through transvections x -> x + c[x,w]w,
    which keep every bracket: k commuting rows over any field."""
    field, n = space.field, space.ambient_dim
    rows = [tuple(field.one if j == 2 * i else field.zero for j in range(n))
            for i in range(k)]
    for _ in range(3):
        w = random_vector(field, n, rng)
        c = field.coerce(rng.choice([-2, -1, 1, 2, 3]) if field is QQ
                         else rng.randrange(1, field.p))
        rows = [field.add_rows(x, field.scale_row(
            field.mul(c, bracket_vectors(field, x, w)), w)) for x in rows]
    return rows


def every_shift(space, group):
    """Each U of `group` with each shift a, as (transform, every valid
    state) pairs for `pushforward_mismatches`."""
    states = all_valid_states(space)
    shifts = _all_vectors(space.field, space.ambient_dim)
    for u in group:
        for a in shifts:
            yield SymplecticTransform(space, u, a), states


def pushforward_mismatches(apply, pairs):
    """Apply ``apply(t, s)`` to every state s of every (t, states) in
    `pairs` and count the results whose support is not U(V^⊥ + v + a), the
    image of s's support under the ontic map o -> U(o + a).  Returns
    (applications, mismatches).

    Two tests decide it for a result r.  Directions: U·V^⊥ ⊆ r.known^⊥ and
    dim r.known = dim V, so r.known^⊥ = U·V^⊥.  V^⊥ is read off the
    differences of the enumerated support, never off the (Uᵀ)⁻¹ map that
    `apply_to_state` uses; the unique passing r.known is kept per (U, V),
    and later applications compare with it.  Point: y = U(v + a), through
    `apply_to_ontic`, lies in r's support, so g·y = g·r.valuation for every
    g in r.known.
    """
    directions = {}  # V -> basis of V^⊥, from the support's differences
    images = {}      # U -> {V: the r.known that passed the direction test}
    applied = mismatched = 0
    for t, states in pairs:
        field, u = t.space.field, t.matrix
        passed = images.setdefault(u, {})
        pushed_points = {}  # v -> U(v + a); many states share a v
        for s in states:
            r = apply(t, s)
            applied += 1
            known = r.known
            if passed.get(s.known) != known:
                if s.known not in directions:
                    support = sorted(ontic_support(s).members)
                    directions[s.known] = rref(field, len(u), [
                        field.sub_rows(x, support[0]) for x in support]).basis
                pushed = [mat_vec(field, u, w) for w in directions[s.known]]
                if known.dim != s.known.dim or any(
                        field.dot(g, w) for g in known.basis for w in pushed):
                    mismatched += 1
                    continue
                passed[s.known] = known
            y = pushed_points.get(s.valuation)
            if y is None:
                y = pushed_points[s.valuation] = apply_to_ontic(
                    t, s.valuation)
            if any(field.dot(g, y) != field.dot(g, r.valuation)
                   for g in known.basis):
                mismatched += 1
    return applied, mismatched


def count_calls(monkeypatch, module, name, calls):
    """Count the calls of module.name in ``calls[name]``, through every
    toytheory module that binds it."""
    real = getattr(module, name)

    def counted(*args):
        calls[name] = calls.get(name, 0) + 1
        return real(*args)

    for key, mod in list(sys.modules.items()):
        if key.startswith("toytheory") and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counted)
