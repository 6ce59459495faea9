"""The matroid spec codec: ``build_matroid`` inverts ``describe()`` for every
species, and instance documents round-trip through files, lift included.

The Hypothesis tests are derandomized with a bounded example count, so they
run the same cases on every run."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowmat import (
    GraphicMatroid,
    InstanceFormatError,
    LinearMatroid,
    MatroidOracle,
    MatroidSpecError,
    ParallelLiftMatroid,
    PartitionMatroid,
    RainbowInstance,
    UniformMatroid,
    build_matroid,
    dumps_doc,
    encode_array,
    instance_to_doc,
    parse_instance_doc,
)
from rainbowmat.cli import main
from rainbowmat.lab import random_row_latin

SPECIES = ("uniform", "partition", "graphic", "linear", "lift")

deterministic = settings(derandomize=True, database=None, deadline=None,
                         max_examples=150)


@st.composite
def oracles(draw, ground_size, lift_depth=2):
    """An oracle of any species on the given ground size; a lift's base is
    drawn the same way, so lifts of lifts occur."""
    kinds = SPECIES if lift_depth else SPECIES[:-1]
    kind = draw(st.sampled_from(kinds))
    g = ground_size
    if kind == "uniform":
        return UniformMatroid(draw(st.integers(0, g + 1)), g)
    if kind == "partition":
        # Up to 12 blocks, so that block labels reach two digits.
        blocks = draw(st.integers(1, 12))
        return PartitionMatroid(
            draw(st.lists(st.integers(0, blocks - 1), min_size=g,
                          max_size=g)),
            draw(st.lists(st.integers(0, 2), min_size=blocks,
                          max_size=blocks)))
    if kind == "graphic":
        vertices = draw(st.integers(1, 5))
        end = st.integers(0, vertices - 1)
        return GraphicMatroid(vertices, draw(st.lists(
            st.tuples(end, end), min_size=g, max_size=g)))
    if kind == "linear":
        prime = draw(st.sampled_from([2, 3, 5, 7]))
        dim = draw(st.integers(0, 3))
        column = st.lists(st.integers(0, prime - 1), min_size=dim,
                          max_size=dim)
        return LinearMatroid(prime, draw(st.lists(column, min_size=g,
                                                  max_size=g)))
    base_size = draw(st.integers(1, 6))
    base = draw(oracles(base_size, lift_depth - 1))
    return ParallelLiftMatroid(draw(st.lists(
        st.integers(0, base_size - 1), min_size=g, max_size=g)), base)


@st.composite
def instances(draw):
    """Two oracles on one ground set and a family of common independent
    n-sets, each the greedy common independent prefix of a drawn order."""
    g = draw(st.integers(0, 7))
    m_oracle = draw(oracles(g))
    n_oracle = draw(oracles(g))
    sets = []
    for order in draw(st.lists(st.permutations(range(g)), max_size=4)):
        chosen = []
        for x in order:
            if m_oracle.is_independent(chosen + [x]) \
                    and n_oracle.is_independent(chosen + [x]):
                chosen.append(x)
        sets.append(chosen)
    n = draw(st.integers(0, min((len(s) for s in sets), default=0)))
    return RainbowInstance(m_oracle, n_oracle,
                           tuple(frozenset(s[:n]) for s in sets), n)


def file_round_trip(instance):
    doc = instance_to_doc(instance)
    again, names = parse_instance_doc(json.loads(dumps_doc(doc)))
    return doc, again, names


@deterministic
@given(st.integers(0, 7).flatmap(oracles))
def test_build_matroid_inverts_describe(oracle):
    spec = oracle.describe()
    built = build_matroid(spec, oracle.ground_size)
    assert type(built) is type(oracle)
    assert built.describe() == spec


@deterministic
@given(instances())
def test_document_round_trip(instance):
    doc, again, names = file_round_trip(instance)
    assert again.digest() == instance.digest()
    assert instance_to_doc(again, names) == doc


def leaves(node):
    if isinstance(node, dict):
        return [v for child in node.values() for v in leaves(child)]
    if isinstance(node, list):
        return [v for child in node for v in leaves(child)]
    return [node]


def paths(node, at=()):
    """Every node of a JSON document as a key path, the root included."""
    yield at
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from paths(child, at + (key,))


def replaced(doc, path, value):
    if not path:
        return value
    node = json.loads(json.dumps(doc))
    parent = node
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return node


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner,
                                     max_size=4)),
    max_leaves=8)


@deterministic
@given(st.data())
def test_any_one_node_replaced_parses_or_is_located(data):
    instance = data.draw(instances())
    doc = json.loads(dumps_doc(instance_to_doc(instance)))
    path = data.draw(st.sampled_from(list(paths(doc))))
    # Values already in the document reach the checks past the type ones.
    value = data.draw(json_values | st.sampled_from(leaves(doc) or [None]))
    try:
        parse_instance_doc(replaced(doc, path, value))
    except InstanceFormatError:
        pass


def forest_instance():
    forest = GraphicMatroid(3, [(0, 1), (1, 2), (2, 0), (0, 1)])
    return encode_array([[0, 1], [1, 2], [2, 3]], forest)


def test_lift_document_round_trip():
    instance = forest_instance()
    doc, again, names = file_round_trip(instance)
    lift = doc["matroid_N"]
    assert lift["type"] == "lift"
    assert lift["values"] == ["v0", "v1", "v2", "v3"]
    assert lift["value"] == {"e0": "v0", "e1": "v1", "e2": "v1",
                             "e3": "v2", "e4": "v2", "e5": "v3"}
    assert lift["base"]["edge"] == {"v0": [0, 1], "v1": [1, 2],
                                    "v2": [2, 0], "v3": [0, 1]}
    assert again.digest() == instance.digest()
    assert instance_to_doc(again, names) == doc


def test_cli_solves_a_lift_document(tmp_path):
    src = tmp_path / "lift.json"
    out = tmp_path / "res.json"
    src.write_text(dumps_doc(instance_to_doc(forest_instance())))
    assert main(["solve", "--in", str(src), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["size"] == 2


def test_many_blocks_keep_their_order():
    # Eleven columns give eleven blocks; labels b0..b10 would read back in
    # the order b0, b1, b10, b2, ... and relabel the blocks.
    instance = encode_array(random_row_latin(11, 2, random.Random(0)))
    doc, again, names = file_round_trip(instance)
    assert sorted(doc["matroid_M"]["capacity"])[:3] == ["b00", "b01", "b02"]
    assert again.digest() == instance.digest()
    assert instance_to_doc(again, names) == doc


def test_build_matroid_names_a_missing_or_short_field():
    with pytest.raises(MatroidSpecError,
                       match="graphic matroid: missing 'edges'"):
        build_matroid({"type": "graphic", "vertices": 2}, 1)
    with pytest.raises(MatroidSpecError, match="partition matroid: "
                       "'block_of' has 1 entries, expected 2"):
        build_matroid({"type": "partition", "block_of": [0],
                       "capacity": [1]}, 2)
    with pytest.raises(MatroidSpecError,
                       match="base: uniform matroid: missing 'ground_size'"):
        build_matroid({"type": "lift", "value_of": [0],
                       "base": {"type": "uniform", "rank": 1}}, 1)


@pytest.mark.parametrize("spec, where", [
    ({"type": "graphic", "vertices": 3, "edges": [[0, 2.9]]},
     r"edges\[0\]\[1\]: expected an integer, got 2\.9"),
    ({"type": "graphic", "vertices": 3.0, "edges": [[0, 2]]},
     "vertices: expected an integer, got 3.0"),
    ({"type": "graphic", "vertices": 3, "edges": [[True, 2]]},
     r"edges\[0\]\[0\]: expected an integer, got True"),
    ({"type": "linear", "prime": 3, "columns": [[1.7, 2]]},
     r"columns\[0\]\[0\]: expected an integer, got 1\.7"),
    ({"type": "linear", "prime": 3.0, "columns": [[1, 2]]},
     "prime: expected an integer, got 3.0"),
    ({"type": "uniform", "rank": 1.5}, "rank: expected an integer, got 1.5"),
    ({"type": "uniform", "rank": False}, "rank: expected an integer"),
    ({"type": "partition", "block_of": [0.0], "capacity": [1]},
     r"block_of\[0\]: expected an integer, got 0\.0"),
    ({"type": "partition", "block_of": [0], "capacity": [1.5]},
     r"capacity\[0\]: expected an integer, got 1\.5"),
    ({"type": "lift", "value_of": [0.0],
      "base": {"type": "uniform", "rank": 1, "ground_size": 1}},
     r"value_of\[0\]: expected an integer, got 0\.0"),
    ({"type": "lift", "value_of": [0],
      "base": {"type": "uniform", "rank": 1, "ground_size": "1"}},
     "base: ground_size: expected an integer, got '1'"),
], ids=["endpoint", "vertices", "bool_endpoint", "column_entry", "prime",
        "rank", "bool_rank", "block_label", "capacity", "lift_value",
        "base_ground_size"])
def test_build_matroid_rejects_non_integers(spec, where):
    # Library callers get the integer rule documents have: no truncation of
    # 2.9 to 2, no fractional rank kept, no float label failing later.
    with pytest.raises(MatroidSpecError, match=f"^{where}"):
        build_matroid(spec, 1)


@pytest.mark.parametrize("spec, ground_size, where", [
    ({"type": "graphic", "vertices": 3, "edges": 5}, 1,
     "edges: expected a list, got 5"),
    ({"type": "graphic", "vertices": 3, "edges": 5}, None,
     "edges: expected a list, got 5"),
    ({"type": "graphic", "vertices": 3, "edges": [[0, 1, 2]]}, 1,
     r"edges\[0\]: expected two endpoints, got \[0, 1, 2\]"),
    ({"type": "graphic", "vertices": 3, "edges": [[0]]}, 1,
     r"edges\[0\]: expected two endpoints, got \[0\]"),
    ({"type": "graphic", "vertices": 3, "edges": [7]}, 1,
     r"edges\[0\]: expected a list, got 7"),
    ({"type": "partition", "block_of": [0], "capacity": 5}, 1,
     "capacity: expected a list, got 5"),
    ({"type": "partition", "block_of": None, "capacity": [1]}, 1,
     "block_of: expected a list, got None"),
    ({"type": "partition", "block_of": None, "capacity": [1]}, None,
     "block_of: expected a list, got None"),
    ({"type": "linear", "prime": 3, "columns": [5]}, 1,
     r"columns\[0\]: expected a list, got 5"),
    ({"type": "linear", "prime": 3, "columns": 5}, None,
     "columns: expected a list, got 5"),
    ({"type": "lift", "value_of": 0,
      "base": {"type": "uniform", "rank": 1, "ground_size": 1}}, None,
     "value_of: expected a list, got 0"),
    ({"type": "lift", "value_of": [0],
      "base": {"type": "partition", "block_of": None, "capacity": [1]}}, 1,
     "base: block_of: expected a list, got None"),
], ids=["edges_int", "edges_int_no_size", "edge_three_ends", "edge_one_end",
        "edge_int", "capacity_int", "block_of_none", "block_of_none_no_size",
        "column_int", "columns_int_no_size", "value_of_int", "base_block_of"])
def test_build_matroid_rejects_malformed_shapes(spec, ground_size, where):
    # A field of the wrong shape is named like a wrongly typed entry,
    # never a bare TypeError or ValueError from unpacking or len().
    with pytest.raises(MatroidSpecError, match=f"^{where}$"):
        build_matroid(spec, ground_size)


def test_lift_base_must_be_an_oracle():
    with pytest.raises(MatroidSpecError, match="^base: expected an oracle"):
        ParallelLiftMatroid([0], {"type": "uniform", "rank": 1})


def test_unknown_species_has_no_document_form():
    class Free(MatroidOracle):
        species = "free"

        def _independent(self, s):
            return True

        def describe(self):
            return {"type": "free", "ground_size": self.ground_size}

    instance = RainbowInstance(Free(1), Free(1), (frozenset({0}),), 1)
    with pytest.raises(InstanceFormatError, match="'free' has no document"):
        instance_to_doc(instance)
