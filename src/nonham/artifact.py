"""The JSON document format shared by tree and dag proof artifacts.

A document is one object:

    {"kind": "tree" | "dag", "formulas": [...], "nodes": [...], ...}

`formulas` is a hash-consed formula table (`formulas.table_id`), and
every formula a node names is an integer id into it, so each distinct
formula is written and parsed once however often nodes repeat it. `nodes`
is an array of node records whose `id` equals their position. Each kind
adds its own node fields and top-level fields: `prooftree` and `dagproof`
write and read those, and share everything here: the canonical encoding,
the parser, the header checks and the record errors.

Writers format each record straight into text; the text is what
`json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\\n"` gives for
the document, byte for byte. Readers check and build each record in one
loop over the node array. Ids, levels and references must be JSON
integers: `true` and `false` are rejected even though Python counts them
as ints. Every malformed document raises ProofFormatError; no other
exception escapes.

Reading a document makes no reference cycles, so the readers pause the
cyclic collector (`collector_paused`): the parsed document holds a few
containers per record, and the collector's runs would traverse and
promote them only to find nothing. Compression pauses it the same way.
"""

from __future__ import annotations

import functools
import gc
import json

from .errors import ProofFormatError
from .formulas import Formula, formulas_from_table

KINDS = ("tree", "dag")

# The canonical encoding of one JSON value, for the values a writer does not
# format itself (rule names and the dag's top-level fields).
encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def collector_paused(fn):
    """Decorate `fn` to run with the cyclic collector paused and to leave
    the collector as it was found, also when `fn` raises. For passes that
    make no reference cycles, which reference counting alone frees."""
    @functools.wraps(fn)
    def paused(*args):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args)
        finally:
            if enabled:
                gc.enable()
    return paused


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


def open_document(data, kind: str) -> tuple[list[Formula], list]:
    """Check a parsed document's header: its kind, its formula table and a
    nonempty node array. Returns the interned table and the node array;
    the records are the caller's to check."""
    if not isinstance(data, dict) or data.get("kind") != kind:
        raise ProofFormatError(f'{kind} document must be an object with "kind" "{kind}"')
    table = formulas_from_table(data.get("formulas"))
    records = data.get("nodes")
    if not isinstance(records, list) or not records:
        raise ProofFormatError(f"{kind} document must hold a nonempty node array")
    return table, records


def record_error(rec, pos: int, fields: frozenset[str]) -> ProofFormatError:
    """The error for node record `pos` when reading `fields` from it failed:
    it is not an object, or it lacks some of them."""
    if not isinstance(rec, dict):
        return ProofFormatError(f"node {pos}: not an object")
    return ProofFormatError(f"node {pos}: missing fields {sorted(fields - rec.keys())}")


def id_error(pos: int) -> ProofFormatError:
    return ProofFormatError(f"node {pos}: id must be the integer {pos}")


def reference_error(pos: int) -> ProofFormatError:
    return ProofFormatError(f"node {pos}: formula reference must be a table id")
