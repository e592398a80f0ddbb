"""Bundled example data: presentations, cohomology tables, family files.

Everything lives as JSON under ``rht/corpus`` and is read through
:mod:`importlib.resources`, so it works from a wheel as well as a checkout.
The manifest carries frozen expected values (weights, Betti numbers,
exponents) computed once with this toolkit and kept as regression anchors.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import TYPE_CHECKING, NamedTuple

from ..errors import SchemaError
from ..model import GradedAlgebraTable, SullivanPresentation, parse_presentation, parse_table

if TYPE_CHECKING:
    from ..families import ModelMap, OneParameterFamily

_PKG = "rht.corpus"


def _read_text(filename: str) -> str:
    ref = resources.files(_PKG).joinpath(filename)
    try:
        return ref.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise SchemaError(f"no corpus file named {filename!r}", filename)


def load_manifest() -> dict:
    """Parsed manifest.json: file names, notes, and frozen expected values."""
    return json.loads(_read_text("manifest.json"))


class CorpusEntry(NamedTuple):
    """One presentation in the corpus plus its manifest record."""

    key: str
    filename: str
    note: str
    expected: dict

    def load(self) -> SullivanPresentation:
        return parse_presentation(_read_text(self.filename))


def entries() -> list[CorpusEntry]:
    """All corpus presentations, in manifest order."""
    manifest = load_manifest()
    out = []
    for key, rec in manifest["presentations"].items():
        out.append(CorpusEntry(key, rec["file"], rec["note"], rec["expected"]))
    return out


def _record(section: str, key: str, kind: str) -> dict:
    """The manifest record `key` of `section`, checked to hold a `kind`."""
    records = load_manifest()[section]
    if key not in records:
        known = ", ".join(sorted(records))
        raise SchemaError(f"unknown {kind} {key!r}; corpus has: {known}", key)
    rec = records[key]
    if rec.get("kind", kind) != kind:
        raise SchemaError(f"{key!r} is {_a(rec['kind'])}, not {_a(kind)}", key)
    return rec


def _a(noun: str) -> str:
    return f"{'an' if noun[0] in 'aeiou' else 'a'} {noun}"


def load_presentation(key: str) -> SullivanPresentation:
    """Load a corpus presentation by manifest key (for example ``"s2xs3"``)."""
    return parse_presentation(_read_text(_record("presentations", key, "presentation")["file"]))


def table_keys() -> list[str]:
    return list(load_manifest()["tables"])


def load_table(key: str) -> GradedAlgebraTable:
    """Load a corpus cohomology table by manifest key (for example ``"h-cp2"``)."""
    return parse_table(_read_text(_record("tables", key, "table")["file"]))


def family_keys() -> list[str]:
    return list(load_manifest()["families"])


def load_corpus_family(key: str) -> OneParameterFamily:
    """Load a bundled one-parameter family; its presentation comes along for free."""
    from ..families import parse_family

    rec = _record("families", key, "family")
    return parse_family(load_presentation(rec["presentation"]), _read_text(rec["file"]))


def load_corpus_automorphism(key: str) -> ModelMap:
    """Load a bundled automorphism (parameter-free, exact coefficients)."""
    from ..families import parse_automorphism

    rec = _record("families", key, "automorphism")
    return parse_automorphism(load_presentation(rec["presentation"]), _read_text(rec["file"]))
