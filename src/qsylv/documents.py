"""JSON document formats for instances, solutions and reports.

A matrix is stored as {"rows": m, "cols": n, "entries": [[[w,x,y,z],
...], ...]} with row-major nested arrays of 4-component reals.  An
instance document carries the matrices under their coefficient names
(or the other labels of the variant's ``aliases`` in ``VARIANT_TABLE``)
at the top level plus "variant" (and "eta" for eta variants); absent
optional blocks mean zero matrices, sized by the instance type's
``with_empty`` from its ``SHAPES`` table: each named dimension takes its
value from the present blocks that carry it, and is 0 when none does;
present blocks that disagree raise ParseError.  A document whose blocks
and unknowns would hold more than ``MAX_ENTRIES`` quaternion entries is
refused before any block is allocated.  Serialization uses plain
floats, so documents re-parse to bit-identical matrices.
"""

from __future__ import annotations

import json
import math
from itertools import chain

import numpy as np

from .harness import VARIANT_TABLE, VARIANTS
from .qcore import ETAS
from .qmatrix import DimensionError, QMatrix, named_dims


class ParseError(ValueError):
    """A document is malformed; the message names the offending key."""


_RESERVED = ("variant", "eta", "format", "_notes", "seed")

# the most quaternion entries the blocks and unknowns of a document may
# imply: master at cube 64 implies 126,619 and two-term at size 128
# 118,043, while a few bytes of JSON can name a dimension of 10^8
MAX_ENTRIES = 2 ** 24


def matrix_to_doc(m: QMatrix) -> dict:
    entries = np.stack(m.components(), axis=-1).tolist()
    return {"rows": m.rows, "cols": m.cols, "entries": entries}


def _is_number(v) -> bool:
    """A JSON number: an int or a float, but not a bool."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def matrix_from_doc(doc, key: str) -> QMatrix:
    if not isinstance(doc, dict):
        raise ParseError(f"matrix {key!r} must be an object")
    try:
        rows, cols, entries = doc["rows"], doc["cols"], doc["entries"]
    except KeyError as exc:
        raise ParseError(f"matrix {key!r} needs rows, cols, entries") from exc
    for name, n in (("rows", rows), ("cols", cols)):
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise ParseError(f"matrix {key!r}: {name} must be a "
                             "non-negative integer")
    if not isinstance(entries, list) or len(entries) != rows:
        raise ParseError(f"matrix {key!r}: entries must be a list of "
                         f"{rows} rows")
    flat = []
    for p, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"matrix {key!r}: row {p} must be a list of "
                             f"{cols} entries")
        # one pass over the row's entries and one over its components;
        # the entry loop below runs only on a row it cannot vouch for,
        # to name the first bad entry or accept list, int and float
        # subclasses
        if {list} >= set(map(type, row)) and {4} >= set(map(len, row)):
            components = list(chain.from_iterable(row))
            if {int, float} >= set(map(type, components)):
                flat += components
                continue
        for q, val in enumerate(row):
            if not isinstance(val, list) or len(val) != 4:
                raise ParseError(f"matrix {key!r}: entry ({p},{q}) must be a "
                                 "list of 4 components")
            if not all(map(_is_number, val)):
                raise ParseError(f"matrix {key!r}: entry ({p},{q}) is not "
                                 "numeric")
            flat += val
    planes = np.array(flat, dtype=float).reshape(rows, cols, 4)
    return QMatrix(*np.moveaxis(planes, -1, 0))


def _load_matrices(doc: dict, variant: str) -> dict:
    v = VARIANT_TABLE[variant]
    keys = v.instance_type.block_names()
    present, given_as = {}, {}
    for key, value in doc.items():
        if key in _RESERVED:
            continue
        name = v.aliases.get(key, key)
        if name not in keys:
            raise ParseError(f"unknown matrix key {key!r} for variant "
                             f"{variant!r}")
        if name in present:
            alias = key if key != name else given_as[name]
            raise ParseError(f"matrix {name!r} given twice (alias {alias!r})")
        present[name], given_as[name] = matrix_from_doc(value, key), key
    shapes = v.instance_type.SHAPES
    try:
        dims = named_dims(shapes, present)
    except DimensionError as exc:
        raise ParseError(str(exc)) from exc
    entries = sum(math.prod(dims.get(n, 0) for n in pair)
                  for pair in shapes.values())
    if entries > MAX_ENTRIES:
        largest = max(dims, key=dims.get)
        raise ParseError(f"dimension {largest} = {dims[largest]} implies "
                         f"{entries} entries, more than {MAX_ENTRIES}")
    return v.instance_type.with_empty(present)


def _doc_eta(doc: dict, default: str = "i") -> str:
    eta = doc.get("eta", default)
    if eta not in ETAS:
        raise ParseError(f"eta must be one of {ETAS}, got {eta!r}")
    return eta


def instance_from_doc(doc: dict, variant: str | None = None,
                      eta_default: str = "i"):
    """Build the variant's instance object from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ParseError("instance document must be a JSON object")
    variant = variant or doc.get("variant")
    if variant not in VARIANTS:
        raise ParseError(f"variant must be one of {VARIANTS}, got {variant!r}")
    inst_type = VARIANT_TABLE[variant].instance_type
    mats = _load_matrices(doc, variant)
    if "eta" in inst_type.__dataclass_fields__:
        mats["eta"] = _doc_eta(doc, eta_default)
    return inst_type(**mats)


def variant_of(inst) -> str:
    for name, v in VARIANT_TABLE.items():
        if type(inst) is v.instance_type:
            return name
    raise ParseError(f"unsupported instance type {type(inst).__name__}")


def instance_to_doc(inst, notes=None) -> dict:
    variant = variant_of(inst)
    doc = {"format": "qsylv-instance", "variant": variant}
    if hasattr(inst, "eta"):
        doc["eta"] = inst.eta
    if notes:
        doc["_notes"] = list(notes)
    # matrix keys in document order: the block fields
    for key in inst.block_names():
        doc[key] = matrix_to_doc(getattr(inst, key))
    return doc


def solution_to_doc(variant: str, sol) -> dict:
    keys = VARIANT_TABLE[variant].unknowns
    if len(sol) != len(keys):
        raise ParseError(f"variant {variant!r} solutions have {len(keys)} "
                         f"blocks, got {len(sol)}")
    doc = {"format": "qsylv-solution", "variant": variant}
    for key, m in zip(keys, sol):
        doc[key] = matrix_to_doc(m)
    return doc


def solution_from_doc(doc: dict, variant: str | None = None) -> tuple:
    if not isinstance(doc, dict):
        raise ParseError("solution document must be a JSON object")
    variant = variant or doc.get("variant")
    if variant not in VARIANT_TABLE:
        raise ParseError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if doc.get("variant", variant) != variant:
        raise ParseError(f"solution is for variant {doc['variant']!r}, "
                         f"not {variant!r}")
    keys = VARIANT_TABLE[variant].unknowns
    for key in doc:
        if key not in keys and key not in _RESERVED:
            raise ParseError(f"unknown matrix key {key!r} for variant "
                             f"{variant!r}")
    out = []
    for key in keys:
        if key not in doc:
            raise ParseError(f"solution is missing matrix {key!r}")
        out.append(matrix_from_doc(doc[key], key))
    return tuple(out)


def params_from_doc(doc: dict, family) -> dict:
    """Free-parameter matrices keyed by name, validated against a family;
    a nan or infinite entry is refused, naming the parameter."""
    if not isinstance(doc, dict):
        raise ParseError("parameter document must be a JSON object")
    known = {p.name for p in family.free_params}
    out = {}
    for key, value in doc.items():
        if key in _RESERVED:
            continue
        if key not in known:
            raise ParseError(f"unknown free parameter {key!r}")
        m = matrix_from_doc(value, key)
        if not (np.isfinite(m.a1).all() and np.isfinite(m.a2).all()):
            raise ParseError(f"parameter {key} has a non-finite entry")
        out[key] = m
    return out


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def dump_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
