import random
import sys

import pytest
from hypothesis import Phase, settings

from toytheory.algebra import QQ, rref
from toytheory.phase_space import bracket_vectors
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
