"""Spans around calls into toytheory, recorded from outside the package.

`Tracer.install` replaces each listed function in every toytheory module
namespace that bound it with a wrapper that opens a span; `uninstall` puts
the originals back.  A span records name, start, end and parent.  Self time
is a span's duration minus the time its child spans cover.  Aggregates are
kept per name, and per name plus the current tag (a grid point of the
measurement sweep), for the names whose module is in TAGGED_MODULES.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, function, span name); the span name is "<module>.<function>",
# without the leading underscore of `_gf2` (metric names start with a
# letter), unless a phase name is given.
TRACED = (
    ("algebra", "rref", None),
    ("algebra", "orthogonal_complement", None),
    ("algebra", "coset_intersection", None),
    ("algebra", "subspace_sum", None),
    ("algebra", "subspace_intersection", None),
    ("phase_space", "is_isotropic", None),
    ("phase_space", "commutant_within", None),
    ("states", "make_state", None),
    ("states", "tensor", None),
    ("states", "marginal", None),
    ("states", "states_equal", None),
    ("dynamics", "apply_to_state", None),
    ("dynamics", "symplectic_group", None),
    ("dynamics", "classify_conditional_marginals", None),
    ("dynamics", "find_conditional_transform", None),
    ("measurement", "outcome_probability", None),
    ("measurement", "update_state", None),
    ("measurement", "infers", None),
    ("measurement", "is_certain", None),
    ("oracle", "oracle_conditional", None),
    ("_gf2", "isotropic_bases", None),
    ("scenarios", "_fr_tables", "scenarios.fr_tables"),
    ("scenarios", "search_fr_paradox", "scenarios.fr_scan"),
    ("scenarios", "_fr_spot_checks", "scenarios.fr_spot_checks"),
)

# Raw spans beyond this many are counted but not kept; the aggregates still
# see every span.
MAX_KEPT_SPANS = 50_000


def span_name(module: str, function: str, name: str | None = None) -> str:
    return name or f"{module.lstrip('_')}.{function}"


class Stat:
    __slots__ = ("calls", "self_s", "total_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0


PACKAGE = "toytheory"
TAGGED_MODULES = ("measurement",)


class Tracer:
    def __init__(self):
        self.tag: str | None = None
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []   # (id, parent id, name, start, end)
        self.dropped = 0
        self.top_level_s = 0.0         # time in parentless spans
        self._stack: list[list] = []   # [id, name, start, child time]
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- wrapping ---------------------------------------------------------

    def install(self):
        if self._patches:
            return
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == PACKAGE
                                         or k.startswith(PACKAGE + "."))]
        for mod, fn, name in TRACED:
            original = getattr(sys.modules[f"{PACKAGE}.{mod}"], fn)
            wrapper = self._wrap(original, span_name(mod, fn, name),
                                 mod in TAGGED_MODULES)
            for m in modules:
                bound = [a for a, v in vars(m).items() if v is original]
                for attr in bound:
                    self._patches.append((m, attr, original))
                    setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches = []

    def _wrap(self, fn, name: str, tagged: bool):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._close(frame, end, tagged)

        return wrapper

    def _close(self, frame, end: float, tagged: bool):
        span_id, name, start, child = frame
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        else:
            self.top_level_s += dur
        names = [name]
        if tagged and self.tag is not None:
            names.append(f"{name}.{self.tag}")
        for key in names:
            st = self.stats.get(key)
            if st is None:
                st = self.stats[key] = Stat()
            st.calls += 1
            st.self_s += dur - child
            st.total_s += dur
        if len(self.spans) < MAX_KEPT_SPANS:
            self.spans.append((span_id, parent[0] if parent else None,
                               name, start, end))
        else:
            self.dropped += 1

    # -- results ----------------------------------------------------------

    def take_stats(self) -> tuple[dict[str, Stat], float]:
        """Aggregates and parentless-span time since the last call; resets."""
        out = (self.stats, self.top_level_s)
        self.stats, self.top_level_s = {}, 0.0
        return out

    def write(self, path) -> None:
        doc = {"dropped_spans": self.dropped,
               "fields": ["id", "parent", "name", "start", "end"],
               "spans": self.spans}
        with open(path, "w") as fh:
            json.dump(doc, fh)
