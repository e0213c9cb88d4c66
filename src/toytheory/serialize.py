"""JSON wire formats for states, transforms and measurements.

State:        {"field": "prime"|"rational", "d": int (prime case), "n": int,
               "generators": [[entry, ...], ...], "valuation": [entry, ...]}
              (both keys required; "generators": [] is the mixed state)
Transform:    {"U": [[entry, ...], ...], "shift": [entry, ...]}  (+ field/d/n)
Measurement:  {"observables": [[entry, ...], ...]}               (+ field/d/n)
Support:      {"support": [[entry, ...], ...]}                   (+ field/d/n)

Entries are ints; rationals are encoded as "a/b" strings (plain ints also
accepted).  Floats raise TypeError: they have no exact value.  Every value
round-trips to a structurally equal object.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any

from .algebra import PrimeField
from .dynamics import SymplecticTransform, make_transform
from .errors import DimensionMismatch
from .measurement import Measurement, make_measurement
from .phase_space import PhaseSpace, discrete_space, rational_space
from .states import EpistemicState, OnticSupport, make_state


def _entry_out(x) -> Any:
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else str(x)
    return int(x)


def _vec_out(v) -> list:
    return [_entry_out(x) for x in v]


def space_to_json(space: PhaseSpace) -> dict:
    if isinstance(space.field, PrimeField):
        return {"field": "prime", "d": space.field.p, "n": space.n_systems}
    return {"field": "rational", "n": space.n_systems}


def _size(doc: dict, key: str) -> int:
    """`d` or `n`: an int or a string of one; int() would truncate a float."""
    x = doc[key]
    if not isinstance(x, (int, str)):
        raise TypeError(f"{key} must be an integer, got {x!r}")
    return int(x)


def space_from_json(doc: dict) -> PhaseSpace:
    kind = doc.get("field", "prime")
    n = _size(doc, "n")
    if kind == "prime":
        return discrete_space(_size(doc, "d"), n)
    if kind == "rational":
        return rational_space(n)
    raise DimensionMismatch(f"unknown field kind {kind!r}")


def state_to_json(s: EpistemicState) -> dict:
    doc = space_to_json(s.space)
    doc["generators"] = [_vec_out(g) for g in s.known.basis]
    doc["valuation"] = _vec_out(s.valuation)
    return doc


def state_from_json(doc: dict) -> EpistemicState:
    space = space_from_json(doc)
    return make_state(space, doc["generators"], doc["valuation"])


def transform_to_json(t: SymplecticTransform) -> dict:
    doc = space_to_json(t.space)
    doc["U"] = [_vec_out(r) for r in t.matrix]
    doc["shift"] = _vec_out(t.shift)
    return doc


def transform_from_json(doc: dict) -> SymplecticTransform:
    space = space_from_json(doc)
    return make_transform(space, doc["U"], doc.get("shift"))


def measurement_to_json(m: Measurement) -> dict:
    doc = space_to_json(m.space)
    doc["observables"] = [_vec_out(g) for g in m.observables.basis]
    return doc


def measurement_from_json(doc: dict) -> Measurement:
    space = space_from_json(doc)
    return make_measurement(space, doc["observables"])


def support_to_json(sup: OnticSupport) -> dict:
    doc = space_to_json(sup.space)
    doc["support"] = sorted(_vec_out(v) for v in sup.members)
    return doc


def support_from_json(doc: dict) -> OnticSupport:
    space = space_from_json(doc)
    f = space.field
    members = frozenset(f.vector(v) for v in doc["support"])
    if any(len(v) != space.ambient_dim for v in members):
        raise DimensionMismatch("support vector of wrong length")
    return OnticSupport(space, members)
