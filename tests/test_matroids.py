"""Oracle species, derived operations, and their preconditions."""

import itertools

import pytest

from rainbowmat import (
    GraphicMatroid,
    LinearMatroid,
    MatroidSpecError,
    ParallelLiftMatroid,
    PartitionMatroid,
    PreconditionError,
    UniformMatroid,
    build_matroid,
)
from rainbowmat import matroids


def brute_circuits(oracle, pool):
    """Independent oracle for circuit questions: exhaustive subset scan."""
    out = []
    pool = sorted(pool)
    for size in range(1, len(pool) + 1):
        for combo in itertools.combinations(pool, size):
            if oracle.is_circuit(frozenset(combo)):
                out.append(frozenset(combo))
    return out


@pytest.fixture
def triangle():
    # edges 0=ab, 1=bc, 2=ca on 3 vertices
    return GraphicMatroid(3, [(0, 1), (1, 2), (2, 0)])


class TestBuild:
    def test_uniform(self):
        m = build_matroid({"type": "uniform", "rank": 2}, 3)
        assert m.is_independent({0, 1})
        assert not m.is_independent({0, 1, 2})

    def test_graphic_triangle(self):
        m = build_matroid(
            {"type": "graphic", "vertices": 3,
             "edges": [(0, 1), (1, 2), (2, 0)]}, 3)
        assert m.is_independent({0, 1})
        assert not m.is_independent({0, 1, 2})

    def test_linear_gf2(self):
        m = build_matroid(
            {"type": "linear", "prime": 2,
             "columns": [(1, 0), (0, 1), (1, 1)]}, 3)
        assert not m.is_independent({0, 1, 2})
        assert m.is_independent({0, 1})

    def test_rejects_non_prime(self):
        with pytest.raises(MatroidSpecError, match="prime"):
            build_matroid({"type": "linear", "prime": 4, "columns": [(1,)]}, 1)

    def test_rejects_dangling_endpoint(self):
        with pytest.raises(MatroidSpecError, match="endpoint"):
            GraphicMatroid(2, [(0, 5)])

    def test_rejects_bad_block_label(self):
        with pytest.raises(MatroidSpecError, match="block label"):
            PartitionMatroid([0, 3], [1, 1])

    def test_rejects_negative_capacity(self):
        with pytest.raises(MatroidSpecError, match="capacity"):
            PartitionMatroid([0], [-1])

    def test_rejects_unknown_type(self):
        with pytest.raises(MatroidSpecError, match="unknown"):
            build_matroid({"type": "transversal"}, 1)


class TestIndependence:
    def test_empty_set_always_independent(self, triangle):
        for oracle in (triangle, UniformMatroid(0, 2),
                       PartitionMatroid([0, 0], [1]),
                       LinearMatroid(3, [(1,), (2,)])):
            assert oracle.is_independent(frozenset())

    def test_partition_capacity_exceeded(self):
        m = PartitionMatroid([0, 0, 1], [1, 1])
        assert not m.is_independent({0, 1})
        assert m.is_independent({0, 2})

    def test_two_triangle_edges_independent(self, triangle):
        assert triangle.is_independent({0, 2})

    def test_out_of_range_rejected(self, triangle):
        with pytest.raises(PreconditionError, match="outside ground set"):
            triangle.is_independent({7})


class TestRankSpan:
    def test_uniform_rank_capped(self):
        assert UniformMatroid(2, 3).rank({0, 1, 2}) == 2

    def test_triangle_rank(self, triangle):
        assert triangle.rank({0, 1, 2}) == 2

    def test_empty_rank(self, triangle):
        assert triangle.rank(frozenset()) == 0

    def test_triangle_span_closes_cycle(self, triangle):
        assert triangle.span({0, 1}) == frozenset({0, 1, 2})

    def test_uniform_below_rank_spans_nothing(self):
        assert UniformMatroid(2, 3).span({0}) == frozenset({0})

    def test_linear_span(self):
        m = LinearMatroid(2, [(1, 0), (0, 1), (1, 1)])
        assert m.span({0, 2}) == frozenset({0, 1, 2})

    def test_span_extensive_monotone_idempotent(self, triangle):
        for s in ({0}, {1, 2}, {0, 1, 2}):
            sp = triangle.span(s)
            assert frozenset(s) <= sp
            assert triangle.span(sp) == sp
            assert triangle.rank(sp) == triangle.rank(s)
        assert triangle.span({0}) <= triangle.span({0, 1})


class TestFundamentalCircuit:
    def test_uniform_full_base(self):
        m = UniformMatroid(2, 3)
        assert m.fundamental_circuit({0, 1}, 2) == frozenset({0, 1})

    def test_triangle(self, triangle):
        assert triangle.fundamental_circuit({0, 1}, 2) == frozenset({0, 1})

    def test_parallel_columns(self):
        m = LinearMatroid(2, [(1, 0), (0, 1), (1, 0)])
        assert m.fundamental_circuit({0, 1}, 2) == frozenset({0})

    def test_rejects_dependent_base(self):
        m = UniformMatroid(2, 4)
        with pytest.raises(PreconditionError, match="dependent"):
            m.fundamental_circuit({0, 1, 2}, 3)

    def test_rejects_independent_extension(self, triangle):
        with pytest.raises(PreconditionError, match="independent"):
            triangle.fundamental_circuit({0}, 1)

    def test_rejects_member(self, triangle):
        with pytest.raises(PreconditionError, match="outside"):
            triangle.fundamental_circuit({0, 1}, 0)

    def test_unique_circuit_by_enumeration(self, triangle):
        c = triangle.fundamental_circuit({0, 1}, 2)
        assert brute_circuits(triangle, {0, 1, 2}) == [c | {2}]

    def test_verify_facts_rejects_bad_circuit(self, triangle, monkeypatch):
        # The verification block raises explicitly, so it also runs under -O.
        monkeypatch.setattr(matroids, "VERIFY_FACTS", True)
        assert triangle.fundamental_circuit({0, 1}, 2) == {0, 1}
        monkeypatch.setattr(triangle, "_circuit", lambda i, x: frozenset({0}))
        with pytest.raises(AssertionError, match="not a circuit"):
            triangle.fundamental_circuit({0, 1}, 2)


class TestAugmentFrom:
    def test_uniform_lowest_ids(self):
        m = UniformMatroid(3, 4)
        assert m.augment_from({0}, {1, 2, 3}) == frozenset({1, 2})

    def test_triangle_single(self, triangle):
        assert triangle.augment_from({0}, {1, 2}) == frozenset({1})

    def test_empty_base_returns_j(self, triangle):
        assert triangle.augment_from(frozenset(), {0, 2}) == frozenset({0, 2})

    def test_rejects_equal_sizes(self, triangle):
        with pytest.raises(PreconditionError, match="smaller"):
            triangle.augment_from({0}, {1})


class TestCircuits:
    def test_triangle_is_circuit(self, triangle):
        assert triangle.is_circuit({0, 1, 2})
        assert not triangle.is_circuit({0, 1})

    def test_partition_pair_is_circuit(self):
        m = PartitionMatroid([0, 0], [1])
        assert m.is_circuit({0, 1})

    def test_eliminate_graphic_four_cycle(self):
        # vertices 0..3; 0=ab, 1=bc, 2=ca, 3=cd, 4=da
        m = GraphicMatroid(4, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)])
        c1 = frozenset({0, 1, 2})  # triangle abc
        c2 = frozenset({2, 3, 4})  # triangle acd
        out = m.eliminate_circuit(c1, c2, e=2, f=0)
        witnesses = [c for c in brute_circuits(m, (c1 | c2) - {2})
                     if 0 in c]
        assert out in witnesses
        assert out == frozenset({0, 1, 3, 4})

    def test_eliminate_uniform(self):
        m = UniformMatroid(2, 4)
        out = m.eliminate_circuit({0, 1, 2}, {1, 2, 3}, e=1, f=0)
        assert out == frozenset({0, 2, 3})

    def test_eliminate_linear_parallel(self):
        m = LinearMatroid(2, [(1, 0), (0, 1), (1, 0), (1, 1)])
        out = m.eliminate_circuit({0, 2}, {0, 1, 3}, e=0, f=2)
        witnesses = [c for c in brute_circuits(m, {1, 2, 3}) if 2 in c]
        assert out in witnesses
        assert out == frozenset({1, 2, 3})

    def test_eliminate_rejects_bad_inputs(self, triangle):
        with pytest.raises(PreconditionError, match="not a circuit"):
            triangle.eliminate_circuit({0, 1}, {0, 1, 2}, e=0, f=1)


class TestParallelLift:
    def test_parallel_copies_dependent(self):
        base = UniformMatroid(2, 2)
        lift = ParallelLiftMatroid([0, 0, 1], base)
        assert not lift.is_independent({0, 1})
        assert lift.is_independent({0, 2})

    def test_base_dependence_inherited(self):
        base = PartitionMatroid([0, 0], [1])
        lift = ParallelLiftMatroid([0, 1], base)
        assert not lift.is_independent({0, 1})

    def test_rejects_bad_value(self):
        with pytest.raises(MatroidSpecError, match="base ground set"):
            ParallelLiftMatroid([5], UniformMatroid(1, 2))
