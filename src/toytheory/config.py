"""Runtime limits for explicit enumerations and searches."""

from __future__ import annotations

import os

# Explicit ontic enumerations are refused above this many points; the
# TOY_ENUM_CAP environment variable is the one way to set another limit.
DEFAULT_ENUM_CAP = 65536

# Exhaustive enumerations are refused above this size unless the caller opts
# in: the order of a symplectic group (|Sp(4,2)| = 720 fits, |Sp(6,2)| =
# 1451520 does not) and the number of target frames of a conditional-
# preparation search (2016 with one pointer ancilla fits, 32640 with two
# does not).
DEFAULT_GROUP_CAP = 12000


def enumeration_cap() -> int:
    """TOY_ENUM_CAP if it is set, else DEFAULT_ENUM_CAP.  A value that is
    not an integer of at least 1 is a ValueError naming the variable."""
    env = os.environ.get("TOY_ENUM_CAP")
    if env is None:
        return DEFAULT_ENUM_CAP
    if not env.strip().isdecimal() or int(env) < 1:
        raise ValueError(
            f"TOY_ENUM_CAP must be an integer of at least 1, got {env!r}")
    return int(env)
