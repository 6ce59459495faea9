"""Oracle species, derived operations, and their preconditions."""

import itertools
import random
import tracemalloc

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
from rainbowmat.lab import SPECIES, random_oracle


def brute_circuits(oracle, pool):
    """Independent oracle for circuit questions: exhaustive subset scan."""
    out = []
    pool = sorted(pool)
    for size in range(1, len(pool) + 1):
        for combo in itertools.combinations(pool, size):
            if oracle.is_circuit(frozenset(combo)):
                out.append(frozenset(combo))
    return out


def reference_graphic_independent(oracle, s):
    """Reference graphic predicate: a union-find that seeds each endpoint
    with ``setdefault`` and finds roots with a nested function."""
    parent = {}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for x in s:
        u, v = oracle.edges[x]
        if u == v:
            return False  # loop edge
        parent.setdefault(u, u)
        parent.setdefault(v, v)
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def reference_linear_independent(oracle, s):
    """Reference linear predicate: a full Gauss-Jordan pass on copies of
    every column of s, then a rank comparison."""
    cols = [list(oracle.columns[x]) for x in s]
    return matroids.gfp_reduce(cols, oracle.prime) == len(cols)


PRIMES = (2, 3, 5, 7, matroids.MAX_PRIME)


def random_graphic(rng):
    """Up to 8 edges on 1..5 vertices; loops and parallel edges are common."""
    vertices = rng.randint(1, 5)
    return GraphicMatroid(vertices, [
        (rng.randrange(vertices), rng.randrange(vertices))
        for _ in range(rng.randint(0, 8))])


def random_linear(rng):
    """Up to 8 columns of dimension 0..4, each a random combination of a few
    random vectors (so dependences occur over every prime), or zero."""
    prime = rng.choice(PRIMES)
    dim = rng.randint(0, 4)
    gens = [[rng.randrange(prime) for _ in range(dim)]
            for _ in range(rng.randint(0, dim))]
    columns = []
    for _ in range(rng.randint(0, 8)):
        coeffs = [rng.randrange(prime) for _ in gens]
        if rng.random() < 0.15:
            coeffs = [0] * len(gens)
        columns.append([sum(c * g[r] for c, g in zip(coeffs, gens)) % prime
                        for r in range(dim)])
    return LinearMatroid(prime, columns)


def all_subsets(ground_size):
    return (frozenset(combo) for size in range(ground_size + 1)
            for combo in itertools.combinations(range(ground_size), size))


def random_oracles(rng):
    """Random oracles of the four drawn species on 7 elements, 50 each."""
    for species in SPECIES:
        for _ in range(50):
            yield random_oracle(species, 7, 1, rng)


def reference_augment_from(oracle, i, j):
    """Reference augmentation: each round rescans J from the lowest id."""
    current, added = set(i), set()
    for _ in range(len(j) - len(i)):
        x = next(x for x in sorted(j - current)
                 if oracle.is_independent(current | {x}))
        current.add(x)
        added.add(x)
    return frozenset(added)


def reference_eliminate_circuit(oracle, c1, c2, e, f):
    """Reference elimination: shrink around f until a whole pass removes
    nothing."""
    pool = set((c1 | c2) - {e})
    changed = True
    while changed:
        changed = False
        for g in sorted(pool - {f}):
            if oracle._lies_on_circuit(pool - {g}, f):
                pool.discard(g)
                changed = True
    return frozenset(pool)


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

    @pytest.mark.parametrize("oracle, i, j, added, bound", [
        # bowtie, triangles 012 and 234: edge 2 closes the first on I
        (GraphicMatroid(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]),
         {0, 1}, {0, 2, 3, 4}, {3, 4}, 5),
        # element 1 shares the full block of element 0
        (PartitionMatroid([0, 0, 1, 2], [1, 1, 1]), {0}, {1, 2, 3}, {2, 3},
         5),
    ], ids=["graphic-bowtie", "partition"])
    def test_one_pass_predicate_calls(self, oracle, i, j, added, bound):
        # Two precondition calls, then one per element of J \ I: a rejected
        # element stays dependent on every larger set and is not asked
        # again.  Rescanning from the lowest id every round asks 6.
        assert oracle.augment_from(i, j) == frozenset(added)
        assert oracle.independence_calls <= bound

    def test_matches_the_rescanning_reference(self):
        rng = random.Random(20150)
        cases = 0
        for oracle in random_oracles(rng):
            independent = [s for s in all_subsets(oracle.ground_size)
                           if oracle.is_independent(s)]
            for _ in range(6):
                j = rng.choice(independent)
                smaller = [i for i in independent if len(i) < len(j)]
                if smaller:
                    i = rng.choice(smaller)
                    assert oracle.augment_from(i, j) == \
                        reference_augment_from(oracle, i, j)
                    cases += 1
        assert cases > 1000


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

    @pytest.mark.parametrize("oracle, c1, c2, e, f, circuit, bound", [
        # the four-cycle 0134 with chord 2: edge 1 is not needed for the
        # triangle 234 through 3
        (GraphicMatroid(4, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)]),
         {0, 1, 3, 4}, {0, 1, 2}, 0, 3, {2, 3, 4}, 16),
        (UniformMatroid(2, 5), {0, 1, 2}, {1, 3, 4}, 1, 0, {0, 3, 4}, 15),
    ], ids=["graphic-four-cycle", "uniform"])
    def test_eliminate_one_pass_predicate_calls(self, oracle, c1, c2, e, f,
                                                circuit, bound):
        # One pass drops the extra element; a second pass, which the
        # shrinking loop made after every removal, would ask 4 more.
        assert oracle.eliminate_circuit(c1, c2, e, f) == frozenset(circuit)
        assert oracle.independence_calls <= bound

    def test_eliminate_matches_the_fixpoint_reference(self):
        rng = random.Random(20151)
        cases = 0
        for oracle in random_oracles(rng):
            circuits = brute_circuits(oracle, range(oracle.ground_size))
            for _ in range(6):
                c1, c2 = rng.choice(circuits), rng.choice(circuits)
                if not c1 & c2 or not c1 - c2:
                    continue
                e = rng.choice(sorted(c1 & c2))
                f = rng.choice(sorted(c1 - c2))
                assert oracle.eliminate_circuit(c1, c2, e, f) == \
                    reference_eliminate_circuit(oracle, c1, c2, e, f)
                cases += 1
        assert cases > 300

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

    def test_nesting_bounded_when_built(self):
        # Asking a lift recurses once per level, so a chain too deep to
        # solve is refused by the constructor, not by the stack.
        oracle = UniformMatroid(1, 2)
        for depth in range(1, matroids.MAX_LIFT_DEPTH + 1):
            oracle = ParallelLiftMatroid([1, 0], oracle)
            assert oracle.depth == depth
        assert oracle.is_independent({0})
        with pytest.raises(MatroidSpecError, match=(
                f"base: lifts nest more than {matroids.MAX_LIFT_DEPTH} "
                f"deep")):
            ParallelLiftMatroid([0, 1], oracle)
        with pytest.raises(MatroidSpecError, match="lifts nest more than"):
            build_matroid({"type": "lift", "value_of": [0, 1],
                           "base": oracle.describe()}, 2)


class TestKernels:
    """The graphic and linear predicates are kernels below the call counter;
    each must agree with the reference it replaced on every subset."""

    GRAPHIC_CASES = [
        GraphicMatroid(0, []),
        GraphicMatroid(1, [(0, 0)]),
        GraphicMatroid(2, [(0, 1), (1, 0), (0, 1), (1, 1)]),
        GraphicMatroid(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (2, 2)]),
    ]
    LINEAR_CASES = [
        LinearMatroid(2, []),
        LinearMatroid(3, [(), (), ()]),
        LinearMatroid(5, [(0, 0), (1, 2), (2, 4), (0, 3), (0, 0)]),
        LinearMatroid(7, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (6, 6, 0),
                          (0, 0, 3), (2, 5, 1)]),
        LinearMatroid(matroids.MAX_PRIME,
                      [(1, 2), (2, 4), (matroids.MAX_PRIME - 1, 5), (0, 0)]),
    ]

    @staticmethod
    def assert_agrees(oracle, reference):
        for s in all_subsets(oracle.ground_size):
            assert oracle._independent(s) == reference(oracle, s), (
                oracle.describe(), sorted(s))

    @pytest.mark.parametrize("oracle", GRAPHIC_CASES,
                             ids=lambda m: str(m.edges))
    def test_graphic_named_cases(self, oracle):
        self.assert_agrees(oracle, reference_graphic_independent)

    @pytest.mark.parametrize("oracle", LINEAR_CASES,
                             ids=lambda m: f"p{m.prime}-d{m.dimension}")
    def test_linear_named_cases(self, oracle):
        self.assert_agrees(oracle, reference_linear_independent)

    def test_graphic_random_oracles(self):
        rng = random.Random(20140)
        for _ in range(150):
            self.assert_agrees(random_graphic(rng),
                               reference_graphic_independent)

    def test_linear_random_oracles(self):
        rng = random.Random(20141)
        seen = set()
        for _ in range(150):
            oracle = random_linear(rng)
            seen.add(oracle.prime)
            self.assert_agrees(oracle, reference_linear_independent)
        assert seen == set(PRIMES)

    def test_graphic_allocates_nothing_per_vertex(self):
        # A per-vertex table (a ``list(range(V))`` union-find) would take
        # megabytes here; a call touching three edges must stay small.
        big = 10**6
        oracle = GraphicMatroid(big, [(0, big - 1), (big - 1, big // 2),
                                      (big // 2, 0)])
        sets = [frozenset(c) for k in (2, 3)
                for c in itertools.combinations(range(3), k)]
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            answers = [oracle._independent(s) for s in sets]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert answers == [True, True, True, False]
        assert peak < 64 * 1024


def counters(oracle):
    """The call counters of oracle and of every lift base below it."""
    out = [oracle.independence_calls]
    while isinstance(oracle, ParallelLiftMatroid):
        oracle = oracle.base
        out.append(oracle.independence_calls)
    return out


def random_lift(oracle, rng):
    """A lift of oracle onto up to 8 elements; values repeat often, so
    parallel copies are common."""
    size = rng.randint(0, 8) if oracle.ground_size else 0
    return ParallelLiftMatroid(
        [rng.randrange(oracle.ground_size) for _ in range(size)], oracle)


class TestExtenders:
    """Each species' extension tester must answer every (base, x) pair as
    ``is_independent(base | {x})`` does and move every counter, a lift
    base's included, as that call does; bases run over every subset, so
    dependent bases and x in the base are covered."""

    UNIFORM_CASES = [UniformMatroid(0, 3), UniformMatroid(2, 5),
                     UniformMatroid(6, 4)]
    PARTITION_CASES = [PartitionMatroid([], []),
                       PartitionMatroid([0, 1, 0, 2, 1], [1, 2, 0]),
                       PartitionMatroid([1, 1, 1, 0, 0, 1], [1, 2])]

    @staticmethod
    def assert_extends(oracle):
        for base in all_subsets(oracle.ground_size):
            before = counters(oracle)
            extends = oracle._extender(base)
            assert counters(oracle) == before, "building asked the oracle"
            for x in range(oracle.ground_size):
                before = counters(oracle)
                got = extends(x)
                mid = counters(oracle)
                want = oracle.is_independent(base | {x})
                after = counters(oracle)
                where = (oracle.describe(), sorted(base), x)
                assert got == want, where
                assert ([b - a for a, b in zip(before, mid)]
                        == [b - a for a, b in zip(mid, after)]), where

    @pytest.mark.parametrize("oracle", UNIFORM_CASES + PARTITION_CASES
                             + TestKernels.GRAPHIC_CASES
                             + TestKernels.LINEAR_CASES,
                             ids=lambda m: m.species)
    def test_named_cases(self, oracle):
        self.assert_extends(oracle)

    @pytest.mark.parametrize("oracle", UNIFORM_CASES + PARTITION_CASES
                             + TestKernels.GRAPHIC_CASES
                             + TestKernels.LINEAR_CASES,
                             ids=lambda m: m.species)
    def test_lifts_of_named_cases(self, oracle):
        rng = random.Random(oracle.ground_size)
        lift = random_lift(oracle, rng)
        self.assert_extends(lift)
        self.assert_extends(random_lift(lift, rng))

    def test_random_oracles(self):
        rng = random.Random(20142)
        seen = set()
        for _ in range(40):
            for oracle in (random_graphic(rng), random_linear(rng),
                           *(random_oracle(species, 7, 1, rng)
                             for species in ("uniform", "partition"))):
                if oracle.species == "linear":
                    seen.add(oracle.prime)
                self.assert_extends(oracle)
                self.assert_extends(random_lift(oracle, rng))
        assert seen == set(PRIMES)

    def test_replaced_predicate_sees_every_question(self, monkeypatch):
        # A wrapper on the oracle, or on the class, is asked every question
        # a tester answers, through the reference tester.
        base = PartitionMatroid([0, 0, 1], [1, 1])
        lift = ParallelLiftMatroid([0, 1, 2, 2], base)
        asked = []
        real = lift.is_independent

        def recording(s):
            asked.append(frozenset(s))
            return real(s)

        monkeypatch.setattr(lift, "is_independent", recording)
        extends = lift.extender(frozenset({0}))
        assert [extends(x) for x in range(4)] == [True, False, True, True]
        assert asked == [{0}, {0, 1}, {0, 2}, {0, 3}]
        assert counters(lift) == [4, 4]

        base = PartitionMatroid([0, 0, 1], [1, 1])
        lift = ParallelLiftMatroid([0, 1, 2, 2], base)
        wrapped = []
        predicate = matroids.MatroidOracle.is_independent

        def counted(oracle, s):
            wrapped.append(oracle)
            return predicate(oracle, s)

        monkeypatch.setattr(matroids.MatroidOracle, "is_independent", counted)
        extends = lift.extender(frozenset({2}))
        assert [extends(x) for x in range(4)] == [True, True, True, False]
        assert wrapped == [lift, base, lift, base, lift, base, lift]
