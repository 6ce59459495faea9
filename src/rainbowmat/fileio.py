"""JSON instance and result documents.

Element names are strings in files and dense integers internally; results
carry the name list so the mapping is explicit.  Serialization is canonical
(sorted keys, fixed indentation) so identical inputs give byte-identical
documents.

The fields of each matroid species belong to ``matroids``: a document is
read into the species' ``describe()`` form and built by ``build_matroid``,
and written from ``describe()``.  This module owns only the names: which
document key holds a per-element field, the partition block labels, and a
lift's value names.
"""

from __future__ import annotations

import json
from collections.abc import Hashable

from .matroids import (
    MAX_LIFT_DEPTH,
    SPEC_FIELDS,
    MatroidSpecError,
    build_matroid,
)
from .solver import RainbowInstance


class InstanceFormatError(ValueError):
    """Raised with a path-to-field location when a document is malformed."""


def _require(doc, key, where):
    if key not in doc:
        raise InstanceFormatError(f"{where}: missing '{key}'")
    return doc[key]


def _integer(value, where):
    if isinstance(value, bool) or not isinstance(value, int):
        raise InstanceFormatError(
            f"{where}: expected an integer, got {value!r}")
    return value


def _of_type(value, kinds, what, where):
    if not isinstance(value, kinds):
        raise InstanceFormatError(f"{where}: expected {what}, got {value!r}")
    return value


def _object(doc, key, where):
    return _of_type(_require(doc, key, where), dict, "an object",
                    f"{where}.{key}")


def _list(value, what, where):
    return _of_type(value, (list, tuple), f"a list of {what}", where)


def _names(value, where):
    names = _list(value, "element names", where)
    for k, name in enumerate(names):
        _of_type(name, Hashable, "an element name", f"{where}[{k}]")
    if len(set(names)) != len(names):
        raise InstanceFormatError(f"{where}: duplicate element names")
    return names


#: Each per-element ``describe()`` field is an object keyed by element name
#: under its own document key: (document key, what one entry gives).
_ELEMENT_KEYS = {"block_of": ("block_of", "block"),
                 "edges": ("edge", "endpoints"),
                 "columns": ("column", "column"),
                 "value_of": ("value", "value")}


def _element_field(doc, key, names, labels, where):
    """One entry per element; block and value entries name a label."""
    file_key, noun = _ELEMENT_KEYS[key]
    entries = _object(doc, file_key, where)
    label_id = {lab: i for i, lab in enumerate(labels or ())}
    field = []
    for name in names:
        if name not in entries:
            raise InstanceFormatError(
                f"{where}.{file_key}: no {noun} for element '{name}'")
        at = f"{where}.{file_key}['{name}']"
        entry = entries[name]
        if labels is not None:
            if not isinstance(entry, Hashable) or entry not in label_id:
                raise InstanceFormatError(f"{at}: unknown {noun} '{entry}'")
            field.append(label_id[entry])
            continue
        entry = _list(entry, "two endpoints" if key == "edges" else "integers",
                      at)
        if key == "edges" and len(entry) != 2:
            raise InstanceFormatError(
                f"{at}: expected two endpoints, got {len(entry)}")
        field.append([_integer(v, at) for v in entry])
    return field


def _spec_from_doc(doc, names, where, lifts):
    """The ``describe()`` form of a matroid document over named elements,
    inside ``lifts`` enclosing lifts."""
    if not isinstance(doc, dict):
        raise InstanceFormatError(f"{where}: expected an object")
    kind = _require(doc, "type", where)
    if not isinstance(kind, str) or kind not in SPEC_FIELDS:
        raise InstanceFormatError(
            f"{where}.type: unknown matroid type '{kind}'")
    spec = {"type": kind}
    labels = None
    # Per-element fields last: block and value entries name labels that
    # the capacity object or the values list introduce.
    for key in sorted(SPEC_FIELDS[kind], key=_ELEMENT_KEYS.__contains__):
        if key in _ELEMENT_KEYS:
            spec[key] = _element_field(doc, key, names, labels, where)
        elif key == "capacity":
            cap_doc = _object(doc, key, where)
            labels = sorted(cap_doc)
            spec[key] = [_integer(cap_doc[lab], f"{where}.capacity['{lab}']")
                         for lab in labels]
        elif key == "base":
            if lifts == MAX_LIFT_DEPTH:
                raise InstanceFormatError(
                    f"{where}: lifts nest more than {MAX_LIFT_DEPTH} deep")
            labels = _names(_require(doc, "values", where), f"{where}.values")
            spec[key] = _spec_from_doc(_require(doc, key, where), labels,
                                       f"{where}.base", lifts + 1)
        elif key == "ground_size":
            spec[key] = len(names)
        else:
            spec[key] = _integer(_require(doc, key, where), f"{where}.{key}")
    return spec


def _matroid_from_doc(doc, names, where):
    spec = _spec_from_doc(doc, names, where, 0)
    try:
        return build_matroid(spec, len(names))
    except MatroidSpecError as exc:
        raise InstanceFormatError(f"{where}: {exc}") from exc


def parse_instance_doc(doc):
    """Validate a parsed document and return (RainbowInstance, names).

    The family is checked here, as a located format error, and ``solve``
    does not check the returned instance again."""
    if not isinstance(doc, dict):
        raise InstanceFormatError("document: expected an object")
    names = _names(_require(doc, "ground", "document"), "ground")
    ids = {name: i for i, name in enumerate(names)}
    m_oracle = _matroid_from_doc(_require(doc, "matroid_M", "document"),
                                 names, "matroid_M")
    n_oracle = _matroid_from_doc(_require(doc, "matroid_N", "document"),
                                 names, "matroid_N")
    n = _integer(_require(doc, "n", "document"), "n")
    family_doc = _list(_require(doc, "family", "document"), "sets", "family")
    family = []
    for idx, row in enumerate(family_doc):
        members = set()
        for name in _list(row, "element names", f"family[{idx}]"):
            if not isinstance(name, Hashable) or name not in ids:
                raise InstanceFormatError(
                    f"family[{idx}]: unknown element '{name}'")
            members.add(ids[name])
        if len(members) != len(row):
            raise InstanceFormatError(f"family[{idx}]: repeated element")
        family.append(frozenset(members))
    instance = RainbowInstance(m_oracle, n_oracle, tuple(family), n)
    try:
        instance._validate_once()
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc
    return instance, list(names)


def parse_rows(doc):
    """The rows of an array: a non-empty list of lists of integers."""
    rows = _list(doc, "rows", "rows")
    if not rows:
        raise InstanceFormatError("rows: expected at least one row")
    return [[_integer(v, f"rows[{i}][{j}]")
             for j, v in enumerate(_list(row, "integers", f"rows[{i}]"))]
            for i, row in enumerate(rows)]


def loads_doc(text, what):
    """text decoded as JSON; an InstanceFormatError that begins with what
    when it is not JSON or nests too deeply to decode."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InstanceFormatError(f"{what} ({exc})") from exc


def parse_instance(text):
    return parse_instance_doc(loads_doc(text, "document: invalid JSON"))


def _spec_to_doc(spec, names):
    """A ``describe()`` form as a document over the named elements."""
    if spec["type"] not in SPEC_FIELDS:
        raise InstanceFormatError(
            f"matroid of type '{spec['type']}' has no document form")
    doc = {"type": spec["type"]}
    labels = None
    if "capacity" in spec:
        # Zero-padded so that the labels sort in block order when read.
        width = len(str(len(spec["capacity"]) - 1))
        labels = [f"b{b:0{width}d}" for b in range(len(spec["capacity"]))]
        doc["capacity"] = dict(zip(labels, spec["capacity"]))
    if "base" in spec:
        base = spec["base"]
        # A uniform base states its size; the others have a per-element field.
        sizes = [len(v) for k, v in base.items() if k in _ELEMENT_KEYS]
        labels = [f"v{i}" for i in range(
            sizes[0] if sizes else base["ground_size"])]
        doc["values"] = labels
        doc["base"] = _spec_to_doc(base, labels)
    for key, value in spec.items():
        if key in _ELEMENT_KEYS:
            doc[_ELEMENT_KEYS[key][0]] = {
                names[i]: entry if labels is None else labels[entry]
                for i, entry in enumerate(value)}
        elif key not in doc and key != "ground_size":
            doc[key] = value
    return doc


def default_names(ground_size):
    return [f"e{i}" for i in range(ground_size)]


def instance_to_doc(instance, names=None):
    names = names if names is not None else default_names(
        instance.m_oracle.ground_size)
    return {
        "ground": list(names),
        "matroid_M": _spec_to_doc(instance.m_oracle.describe(), names),
        "matroid_N": _spec_to_doc(instance.n_oracle.describe(), names),
        "n": instance.n,
        "family": [[names[x] for x in sorted(a)] for a in instance.family],
    }


def result_to_doc(result, names):
    """Result document; status 'solved' implies size equals the target."""
    return {
        "status": result.status,
        "n": result.n,
        "size": result.assignment.size(),
        "assignment": {str(idx): names[x]
                       for idx, x in sorted(result.assignment.choices.items())},
        "fallback_used": result.stats.fallback_used,
        "oracle_calls": {"M": result.stats.oracle_calls_m,
                         "N": result.stats.oracle_calls_n},
        "ground": list(names),
    }


def dumps_doc(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
