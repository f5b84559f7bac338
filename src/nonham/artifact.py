"""The JSON document format shared by tree and dag proof artifacts.

A document is one object:

    {"kind": "tree" | "dag", "formulas": [...], "nodes": [...], ...}

`formulas` is a hash-consed formula table (`formulas.formulas_to_table`),
and every formula a node names is an integer id into it, so each distinct
formula is written and parsed once however often nodes repeat it. `nodes`
is an array of node records whose `id` equals their position. Each kind
adds its own node fields and top-level fields: `prooftree` and `dagproof`
build and read those, and share everything here: the canonical text, the
parser, the table and the checks on ids.

Ids, levels and references must be JSON integers: `true` and `false` are
rejected even though Python counts them as ints. Every malformed document
raises ProofFormatError; no other exception escapes.
"""

from __future__ import annotations

import json

from .errors import ProofFormatError
from .formulas import Formula, formulas_from_table

KINDS = ("tree", "dag")


def dumps_document(doc: dict) -> str:
    """Canonical JSON text: sorted keys, no whitespace, trailing newline."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def loads_document(text: str) -> dict:
    """Parse a document of either kind; its `kind` says which."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise ProofFormatError("bad JSON: nested too deeply") from None
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise ProofFormatError(f"bad JSON: {exc}") from None
    if not isinstance(data, dict) or data.get("kind") not in KINDS:
        raise ProofFormatError('document must be an object with "kind" "tree" or "dag"')
    return data


def open_document(data, kind: str, fields: frozenset[str]) -> tuple[list[Formula], list[dict]]:
    """Check a parsed document of one kind down to its node records.

    Returns the interned formula table and the node array. Each record is
    an object with all of `fields` and an `id` equal to its position; the
    other field values are the caller's to check.
    """
    if not isinstance(data, dict) or data.get("kind") != kind:
        raise ProofFormatError(f'{kind} document must be an object with "kind" "{kind}"')
    table = formulas_from_table(data.get("formulas"))
    records = data.get("nodes")
    if not isinstance(records, list) or not records:
        raise ProofFormatError(f"{kind} document must hold a nonempty node array")
    for pos, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise ProofFormatError(f"node {pos}: not an object")
        missing = fields - rec.keys()
        if missing:
            raise ProofFormatError(f"node {pos}: missing fields {sorted(missing)}")
        if type(rec["id"]) is not int or rec["id"] != pos:
            raise ProofFormatError(f"node {pos}: id must be the integer {pos}")
    return table, records


def formula_at(table: list[Formula], ref, pos: int) -> Formula:
    """The table entry a node's formula reference names."""
    if type(ref) is not int or not 0 <= ref < len(table):
        raise ProofFormatError(f"node {pos}: formula reference must be a table id")
    return table[ref]
