"""Versioned JSON reports and a structural validator.

Reports are deterministic: keys are sorted, rationals are numerator/denominator
strings, and no timestamps or machine data are embedded, so identical run
manifests produce identical bytes.
"""

import json
from fractions import Fraction

SCHEMA_VERSION = "1"

# kind -> {field: type spec}; "?" marks optional fields.  A type spec is a
# python type, a list [elem spec], or a dict for nested objects.
SCHEMA = {
    "cohomology": {
        "version": str, "kind": str, "manifest": dict,
        "degrees": [dict], "products?": [dict], "stable?": dict,
    },
    "massey": {
        "version": str, "kind": str, "manifest": dict,
        "degree": int, "representative": [str], "indeterminacy": [[str]],
        "defining_system": dict, "vanishes": bool, "verdict?": str,
        "sq_route?": dict,
    },
    "verify": {
        "version": str, "kind": str, "manifest": dict,
        "suites": [dict], "passed": bool,
    },
    "space": {
        "version": str, "kind": str, "manifest": dict,
        "name": str, "cells": [int], "euler_characteristic": int,
        "text": str,
    },
}


def rat(x):
    """Canonical string form of an integer or Fraction."""
    if type(x) is int:
        return str(x)
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def vec(values):
    return [str(x) if type(x) is int else rat(x) for x in values]


def group_payload(report):
    """JSON shape of an AbelianGroupReport."""
    return {
        "free_rank": report.free_rank,
        "torsion": list(report.torsion),
        "prime_to_p_torsion": list(report.prime_to_p_torsion),
        "generators": [vec(g) for g in report.generators],
    }


def cohomology_report(manifest, reports, products=None, stable=None):
    degrees = []
    for q in sorted(reports):
        payload = group_payload(reports[q])
        payload["degree"] = q
        degrees.append(payload)
    out = {
        "version": SCHEMA_VERSION,
        "kind": "cohomology",
        "manifest": manifest,
        "degrees": degrees,
    }
    if products is not None:
        # one shared list per generator and coordinate vector: dump_json encodes each once
        sides, coords, out["products"] = {}, {None: None}, []
        for k, v in sorted(products.items()):
            c = v if v is None else tuple(v)
            if c not in coords:
                coords[c] = vec(c)
            out["products"].append({"left": sides.setdefault(k[:2], list(k[:2])),
                                    "right": sides.setdefault(k[2:], list(k[2:])),
                                    "coordinates": coords[c]})
    if stable is not None:
        out["stable"] = {str(q): bool(v) for q, v in sorted(stable.items())}
    return out


def massey_report(manifest, result, extra=None):
    out = {
        "version": SCHEMA_VERSION,
        "kind": "massey",
        "manifest": manifest,
        "degree": result.degree,
        "representative": vec(result.representative),
        "indeterminacy": [vec(g) for g in result.indeterminacy],
        "defining_system": {k: vec(v) for k, v in result.defining_system.items()},
        "vanishes": result.vanishes,
    }
    if extra:
        out.update(extra)
    return out


def verify_report(manifest, suites):
    return {
        "version": SCHEMA_VERSION,
        "kind": "verify",
        "manifest": manifest,
        "suites": suites,
        "passed": all(s.get("passed") for s in suites),
    }


def space_report(manifest, space):
    return {
        "version": SCHEMA_VERSION,
        "kind": "space",
        "manifest": manifest,
        "name": space.name,
        "cells": [len(level) for level in space.simplices],
        "euler_characteristic": space.euler_characteristic(),
        "text": space.dump(),
    }


def validate_report(obj):
    """Structural check against the shipped schema; returns a list of errors."""
    errors = []
    kind = obj.get("kind")
    if kind not in SCHEMA:
        return [f"unknown report kind {kind!r}"]
    if obj.get("version") != SCHEMA_VERSION:
        errors.append(f"version {obj.get('version')!r} != {SCHEMA_VERSION!r}")
    spec = SCHEMA[kind]
    required = {k.rstrip("?"): v for k, v in spec.items() if not k.endswith("?")}
    optional = {k.rstrip("?"): v for k, v in spec.items() if k.endswith("?")}
    for key, want in required.items():
        if key not in obj:
            errors.append(f"missing field {key!r}")
            continue
        errors.extend(_check_type(obj[key], want, key))
    for key, want in optional.items():
        if key in obj:
            errors.extend(_check_type(obj[key], want, key))
    for key in obj:
        if key not in required and key not in optional:
            errors.append(f"unexpected field {key!r}")
    return errors


def _check_type(value, want, path):
    if isinstance(want, list):
        if not isinstance(value, list):
            return [f"{path}: expected a list"]
        out = []
        for i, item in enumerate(value):
            if _check_type(item, want[0], path):  # the item's path only on an error
                out.extend(_check_type(item, want[0], f"{path}[{i}]"))
        return out
    if isinstance(want, dict):
        if not isinstance(value, dict):
            return [f"{path}: expected an object"]
        return []
    if want is int and isinstance(value, bool):
        return [f"{path}: expected an integer"]
    if not isinstance(value, want):
        return [f"{path}: expected {want.__name__}"]
    return []


def dump_json(obj):
    """obj as JSON text, byte for byte json.dumps(obj, sort_keys=True,
    indent=1) plus a newline.  With an indent the standard library encodes in
    pure Python, so the common shapes are written here directly, and a list
    of records such as a product table one template per entry."""
    out = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


_encode_str = json.encoder.encode_basestring_ascii
_STR, _INT, _DICT = frozenset({str}), frozenset({int}), frozenset({dict})


def _write_records(x, nl, out):
    """Append the JSON of x, a list of dicts, and return True if all share the
    first one's str keys and each value is an int, a str, None or a flat list
    of ints or of strs; else append nothing and return False.  Each entry
    fills one template, and a value object held by several is encoded once."""
    first = x[0].keys()
    if not first or set(map(type, first)) != _STR:
        return False
    keys, inner, field = sorted(first), nl + " ", nl + "  "
    template = "{" + field + ("," + field).join(
        _encode_str(k).replace("%", "%%") + ": %s" for k in keys) + inner + "}"
    texts = {}   # id of a value -> its JSON; x keeps every value alive
    parts = []
    for d in x:
        if type(d) is not dict or d.keys() != first:
            return False
        for v in d.values():
            if id(v) in texts:
                continue
            t = type(v)
            if not (t is str or t is int or v is None or t is list and (
                    not v or set(map(type, v)) in (_STR, _INT))):
                return False
            text = []
            _write(v, field, text)
            texts[id(v)] = text[0]
        parts.append(template % tuple([texts[id(d[k])] for k in keys]))
    out.append("[" + inner + ("," + inner).join(parts) + nl + "]")
    return True


def _write(x, nl, out):
    """Append the JSON of x to out; nl is a newline plus x's indent."""
    t = type(x)
    if t is str:
        out.append(_encode_str(x))
    elif t is int:
        out.append(repr(x))
    elif x is None or x is True or x is False:
        out.append("null" if x is None else "true" if x else "false")
    elif t is list:
        if not x:
            out.append("[]")
            return
        inner = nl + " "
        kinds = set(map(type, x))
        if kinds == _STR or kinds == _INT:
            out.append("[" + inner + ("," + inner).join(
                map(_encode_str if kinds == _STR else repr, x)) + nl + "]")
            return
        if kinds == _DICT and _write_records(x, nl, out):
            return
        sep = "[" + inner
        for v in x:
            out.append(sep)
            _write(v, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif t is dict and set(map(type, x)) <= _STR:
        if not x:
            out.append("{}")
            return
        inner = nl + " "
        sep = "{" + inner
        for k in sorted(x):
            out.append(sep + _encode_str(k) + ": ")
            _write(x[k], inner, out)
            sep = "," + inner
        out.append(nl + "}")
    else:
        # floats, tuples, non-str keys, subclasses: the standard library,
        # re-indented (an encoded string never holds a raw newline)
        out.append(json.dumps(x, sort_keys=True, indent=1).replace("\n", nl))
