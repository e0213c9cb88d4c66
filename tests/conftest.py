import random

import pytest
from hypothesis import Phase, settings

from toytheory.algebra import QQ, rref
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
