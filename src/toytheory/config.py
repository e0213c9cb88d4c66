"""Runtime limits for explicit enumerations and searches."""

from __future__ import annotations

import os

# Explicit ontic enumerations are refused above this many points unless the
# caller passes a larger cap.  Overridable via the TOY_ENUM_CAP env variable.
DEFAULT_ENUM_CAP = 65536

# Exhaustive enumerations are refused above this size unless the caller opts
# in: the order of a symplectic group (|Sp(4,2)| = 720 fits, |Sp(6,2)| =
# 1451520 does not) and the number of target frames of a conditional-
# preparation search (2016 with one pointer ancilla fits, 32640 with two
# does not).
DEFAULT_GROUP_CAP = 12000


def enumeration_cap(explicit: int | None = None) -> int:
    if explicit is not None:
        return int(explicit)
    env = os.environ.get("TOY_ENUM_CAP")
    if env is not None:
        return int(env)
    return DEFAULT_ENUM_CAP
