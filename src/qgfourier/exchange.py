"""Exchange formats (JSON, exact scalars only; no floats in files)."""

from __future__ import annotations

import json
from fractions import Fraction

from .core import Element, FiniteQuantumGroup, Functional
from .padic import MAX_EXPONENT, PAdicError, SchwartzFunction, format_padic, parse_padic
from .scalars import EXACT, scalar_from_obj, scalar_to_obj


def qgroup_to_obj(A: FiniteQuantumGroup) -> dict:
    d = A.dim
    be = A.backend
    if not be.exact:
        raise ValueError("only the exact backend serializes")
    mult = [
        [i, j, k, scalar_to_obj(A.mult[i][j][k])]
        for i in range(d)
        for j in range(d)
        for k in range(d)
        if not be.is_zero(A.mult[i][j][k])
    ]
    comult = [[i, j, k, scalar_to_obj(c)] for i in range(d) for j, k, c in A.comult[i]]
    return {
        "dim": d,
        "labels": list(A.basis_labels),
        "mult": mult,
        "comult": comult,
        "counit": [scalar_to_obj(x) for x in A.counit],
        "antipode": [[scalar_to_obj(x) for x in row] for row in A.antipode],
        "star": [[scalar_to_obj(x) for x in row] for row in A.star] if A.star is not None else None,
        "unit": [scalar_to_obj(x) for x in A.unit] if A.unit is not None else None,
        "phi": [scalar_to_obj(x) for x in A.left_integral],
        "psi": [scalar_to_obj(x) for x in A.right_integral],
        "name": A.name,
    }


def _check_shape(name, value, d, depth):
    """Raise ValueError unless value is a list of d lists of ... (depth deep)."""
    if not isinstance(value, list) or len(value) != d:
        raise ValueError("%s must have length %d" % (name, d))
    if depth > 1:
        for row in value:
            _check_shape(name + " row", row, d, depth - 1)


def _check_triples(name, entries, d):
    """Raise ValueError unless entries are [i, j, k, scalar] with indices in range(d)."""
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 4):
            raise ValueError("%s entries must be [i, j, k, scalar]" % name)
        if not all(type(t) is int and 0 <= t < d for t in entry[:3]):
            raise ValueError("%s index out of range(%d): %r" % (name, d, entry[:3]))


def qgroup_from_obj(obj: dict) -> FiniteQuantumGroup:
    d = obj["dim"]
    if type(d) is not int or d < 1:
        raise ValueError("dim must be a positive integer")
    _check_triples("mult", obj["mult"], d)
    _check_triples("comult", obj["comult"], d)
    for key, depth in (("counit", 1), ("phi", 1), ("psi", 1), ("antipode", 2)):
        _check_shape(key, obj[key], d, depth)
    for key, depth in (("unit", 1), ("star", 2)):
        if obj.get(key):
            _check_shape(key, obj[key], d, depth)
    if not isinstance(obj.get("name", "A"), str):
        raise ValueError("name must be a string")
    mult = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for i, j, k, s in obj["mult"]:
        mult[i][j][k] = scalar_from_obj(s)
    comult = [[] for _ in range(d)]
    for i, j, k, s in obj["comult"]:
        comult[i].append((j, k, scalar_from_obj(s)))
    return FiniteQuantumGroup(
        dim=d,
        basis_labels=list(obj["labels"]),
        mult=mult,
        comult=comult,
        counit=[scalar_from_obj(x) for x in obj["counit"]],
        antipode=[[scalar_from_obj(x) for x in row] for row in obj["antipode"]],
        star=[[scalar_from_obj(x) for x in row] for row in obj["star"]] if obj.get("star") else None,
        unit=[scalar_from_obj(x) for x in obj["unit"]] if obj.get("unit") else None,
        left_integral=[scalar_from_obj(x) for x in obj["phi"]],
        right_integral=[scalar_from_obj(x) for x in obj["psi"]],
        backend=EXACT,
        name=obj.get("name", "A"),
    )


def element_to_obj(a: Element) -> dict:
    return {"owner": a.owner.name, "coords": [scalar_to_obj(c) for c in a.coords]}


def element_from_obj(A: FiniteQuantumGroup, obj: dict) -> Element:
    return Element(A, [scalar_from_obj(c) for c in obj["coords"]])


def functional_to_obj(w: Functional) -> dict:
    return {"owner": w.owner.name, "values": [scalar_to_obj(v) for v in w.values]}


def schwartz_to_obj(f: SchwartzFunction) -> dict:
    cells = [
        {"center": format_padic(c, f.p), "value": scalar_to_obj(v)}
        for c, v in sorted(f.cells.items())
    ]
    return {"p": f.p, "level": f.level, "cells": cells}


def schwartz_from_obj(obj: dict) -> SchwartzFunction:
    p, level = obj["p"], obj["level"]
    if abs(level) > MAX_EXPONENT:
        raise PAdicError("level %d beyond +-%d (padic.MAX_EXPONENT)" % (level, MAX_EXPONENT))
    cells = {parse_padic(c["center"], p): scalar_from_obj(c["value"]) for c in obj["cells"]}
    return SchwartzFunction(p, level, cells)


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True)
