"""The docs name only private helpers that exist.

README.md and docs/formats.md refer to some private names in backticks
(`_FR_CHAIN`, `scenarios._fr_systems`).  When a helper is deleted or
renamed, a doc that still names it misleads the reader, so every such name
must be defined in some `toytheory` module.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import toytheory

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", ROOT / "docs" / "formats.md"]

# a backticked name, possibly dotted and called, whose last part is private
_PRIVATE = re.compile(r"`(?:[A-Za-z_]\w*\.)*(_\w+)(?:\(\))?`")


def _modules():
    return [importlib.import_module(f"toytheory.{info.name}")
            for info in pkgutil.iter_modules(toytheory.__path__)]


def _private_names(text: str) -> set:
    return set(_PRIVATE.findall(text))


def _missing(names: set) -> set:
    modules = _modules()
    return {name for name in names
            if not any(hasattr(mod, name) for mod in modules)}


def test_docs_name_only_existing_private_helpers():
    names = set().union(*(_private_names(doc.read_text()) for doc in DOCS))
    assert names
    assert _missing(names) == set()


def test_a_deleted_helper_in_the_docs_is_caught():
    names = _private_names("stacked by `_meet`, read by "
                           "`measurement._commuting_meet()`")
    assert names == {"_meet", "_commuting_meet"}
    assert _missing(names) == {"_meet"}
