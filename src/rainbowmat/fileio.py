"""JSON instance and result documents.

Element names are strings in files and dense integers internally; results
carry the name list so the mapping is explicit.  Serialization is canonical
(sorted keys, fixed indentation) so identical inputs give byte-identical
documents.
"""

from __future__ import annotations

import json
from collections.abc import Hashable

from .matroids import (
    GraphicMatroid,
    LinearMatroid,
    MatroidSpecError,
    PartitionMatroid,
    UniformMatroid,
)
from .solver import RainbowInstance


class InstanceFormatError(ValueError):
    """Raised with a path-to-field location when a document is malformed."""


def _require(doc, key, where):
    if key not in doc:
        raise InstanceFormatError(f"{where}: missing '{key}'")
    return doc[key]


def _integer(value, where):
    try:
        return int(value)
    except (TypeError, ValueError):
        raise InstanceFormatError(
            f"{where}: expected an integer, got {value!r}") from None


def _of_type(value, kinds, what, where):
    if not isinstance(value, kinds):
        raise InstanceFormatError(f"{where}: expected {what}, got {value!r}")
    return value


def _object(doc, key, where):
    return _of_type(_require(doc, key, where), dict, "an object",
                    f"{where}.{key}")


def _list(value, what, where):
    return _of_type(value, (list, tuple), f"a list of {what}", where)


def _matroid_from_doc(doc, names, where):
    if not isinstance(doc, dict):
        raise InstanceFormatError(f"{where}: expected an object")
    kind = _require(doc, "type", where)
    try:
        if kind == "uniform":
            return UniformMatroid(
                _integer(_require(doc, "rank", where), f"{where}.rank"),
                len(names))
        if kind == "partition":
            block_doc = _object(doc, "block_of", where)
            cap_doc = _object(doc, "capacity", where)
            labels = sorted(cap_doc)
            label_id = {lab: i for i, lab in enumerate(labels)}
            block_of = []
            for name in names:
                if name not in block_doc:
                    raise InstanceFormatError(
                        f"{where}.block_of: no block for element '{name}'")
                lab = block_doc[name]
                if not isinstance(lab, Hashable) or lab not in label_id:
                    raise InstanceFormatError(
                        f"{where}.block_of['{name}']: unknown block '{lab}'")
                block_of.append(label_id[lab])
            return PartitionMatroid(
                block_of, [_integer(cap_doc[lab], f"{where}.capacity['{lab}']")
                           for lab in labels])
        if kind == "graphic":
            vertices = _integer(_require(doc, "vertices", where),
                                f"{where}.vertices")
            edge_doc = _object(doc, "edge", where)
            edges = []
            for name in names:
                if name not in edge_doc:
                    raise InstanceFormatError(
                        f"{where}.edge: no endpoints for element '{name}'")
                at = f"{where}.edge['{name}']"
                edge = _list(edge_doc[name], "two endpoints", at)
                if len(edge) != 2:
                    raise InstanceFormatError(
                        f"{at}: expected two endpoints, got {len(edge)}")
                edges.append(tuple(_integer(v, at) for v in edge))
            return GraphicMatroid(vertices, edges)
        if kind == "linear":
            prime = _integer(_require(doc, "prime", where), f"{where}.prime")
            col_doc = _object(doc, "column", where)
            columns = []
            for name in names:
                if name not in col_doc:
                    raise InstanceFormatError(
                        f"{where}.column: no column for element '{name}'")
                at = f"{where}.column['{name}']"
                columns.append([_integer(v, at) for v in
                                _list(col_doc[name], "integers", at)])
            return LinearMatroid(prime, columns)
    except MatroidSpecError as exc:
        raise InstanceFormatError(f"{where}: {exc}") from exc
    raise InstanceFormatError(f"{where}.type: unknown matroid type '{kind}'")


def parse_instance_doc(doc):
    """Validate a parsed document and return (RainbowInstance, names)."""
    if not isinstance(doc, dict):
        raise InstanceFormatError("document: expected an object")
    names = _list(_require(doc, "ground", "document"), "element names",
                  "ground")
    for k, name in enumerate(names):
        _of_type(name, Hashable, "an element name", f"ground[{k}]")
    if len(set(names)) != len(names):
        raise InstanceFormatError("ground: duplicate element names")
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
        instance.validate()
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc
    return instance, list(names)


def parse_instance(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"document: invalid JSON ({exc})") from exc
    return parse_instance_doc(doc)


def _matroid_to_doc(oracle, names):
    desc = oracle.describe()
    kind = desc["type"]
    if kind == "uniform":
        return {"type": "uniform", "rank": desc["rank"]}
    if kind == "partition":
        return {
            "type": "partition",
            "block_of": {names[i]: f"b{b}"
                         for i, b in enumerate(desc["block_of"])},
            "capacity": {f"b{b}": cap
                         for b, cap in enumerate(desc["capacity"])},
        }
    if kind == "graphic":
        return {"type": "graphic", "vertices": desc["vertices"],
                "edge": {names[i]: e for i, e in enumerate(desc["edges"])}}
    if kind == "linear":
        return {"type": "linear", "prime": desc["prime"],
                "column": {names[i]: c for i, c in enumerate(desc["columns"])}}
    raise InstanceFormatError(
        f"matroid of type '{kind}' has no document form")


def default_names(ground_size):
    return [f"e{i}" for i in range(ground_size)]


def instance_to_doc(instance, names=None):
    names = names if names is not None else default_names(
        instance.m_oracle.ground_size)
    return {
        "ground": list(names),
        "matroid_M": _matroid_to_doc(instance.m_oracle, names),
        "matroid_N": _matroid_to_doc(instance.n_oracle, names),
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
