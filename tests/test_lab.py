"""Brute force, generators, encodings, matroid intersection, and the
hypothesis checker."""

import hashlib
import itertools
import random
import re
from collections import Counter, deque

import pytest

from rainbowmat import (
    GraphicMatroid,
    LatinArray,
    LinearMatroid,
    PartitionMatroid,
    PreconditionError,
    RainbowAssignment,
    RainbowInstance,
    UniformMatroid,
    brute_force_rainbow,
    check_lemma3,
    drisko_instance,
    dumps_doc,
    encode_array,
    instance_to_doc,
    max_common_independent,
    random_instance,
    solve,
    verify_instance,
)
from rainbowmat import lab
from rainbowmat.lab import (
    SPECIES,
    GenerationError,
    HypothesisError,
    random_oracle,
    random_row_latin,
)
from rainbowmat.matroids import MatroidOracle


def brute_max_common(m1, m2):
    g = m1.ground_size
    for size in range(g, -1, -1):
        for combo in itertools.combinations(range(g), size):
            s = frozenset(combo)
            if m1.is_independent(s) and m2.is_independent(s):
                return size
    return 0


def reference_brute_force_rainbow(instance, target):
    """The plain depth-first search: every candidate is tested against the
    used set when the search reaches it, and a branch is cut only when too
    few family sets remain."""
    if target < 0 or target > instance.n:
        raise PreconditionError("target must lie between 0 and n")
    if target == 0:
        return RainbowAssignment({})
    family = [sorted(a) for a in instance.family]
    m_count = len(family)
    m_oracle, n_oracle = instance.m_oracle, instance.n_oracle
    choices = {}
    used = set()

    def dfs(idx):
        if len(choices) == target:
            return True
        if idx == m_count or len(choices) + (m_count - idx) < target:
            return False
        for a in family[idx]:
            if a in used:
                continue
            candidate = frozenset(used | {a})
            if (m_oracle.is_independent(candidate)
                    and n_oracle.is_independent(candidate)):
                choices[idx] = a
                used.add(a)
                if dfs(idx + 1):
                    return True
                del choices[idx]
                used.discard(a)
        return dfs(idx + 1)

    if dfs(0):
        return RainbowAssignment(dict(choices))
    return None


def forward_checking_reference(instance, target):
    """The forward-checking search without learned parallel pairs: every
    element not settled at the root is tested against the used set in
    each list it is narrowed in."""
    if target < 0 or target > instance.n:
        raise PreconditionError("target must lie between 0 and n")
    if target == 0:
        return RainbowAssignment({})
    m_oracle, n_oracle = instance.m_oracle, instance.n_oracle
    choices = {}

    def narrowed(used, lists, need, addable):
        open_lists = sum(1 for listed in lists if listed)
        out = []
        for listed in lists:
            kept = []
            for x in listed:
                if x in used:
                    continue
                if x not in addable:
                    grown = used | {x}
                    addable[x] = (m_oracle.is_independent(grown)
                                  and n_oracle.is_independent(grown))
                if addable[x]:
                    kept.append(x)
            if listed and not kept:
                open_lists -= 1
                if open_lists < need:
                    return None
            out.append(kept)
        return out

    def dfs(idx, used, lists):
        need = target - len(choices)
        if need == 0:
            return True
        if sum(1 for listed in lists if listed) < need:
            return False
        for a in lists[0]:
            grown = used | {a}
            later = narrowed(grown, lists[1:], need - 1, {})
            if later is None:
                continue
            choices[idx] = a
            if dfs(idx + 1, grown, later):
                return True
            del choices[idx]
        return dfs(idx + 1, used, lists[1:])

    root = {}
    for a in instance.family:
        if (not a <= root.keys() and m_oracle.is_independent(a)
                and n_oracle.is_independent(a)):
            root.update(dict.fromkeys(a, True))
    empty = frozenset()
    lists = narrowed(empty, [sorted(a) for a in instance.family], target,
                     root)
    if lists is not None and dfs(0, empty, lists):
        return RainbowAssignment(dict(choices))
    return None


def relabelled_drisko(n, rng):
    """drisko_instance(n) with its rows, columns and symbols shuffled."""
    rows = ([list(range(1, n + 1))] * (n - 1)
            + [list(range(2, n + 1)) + [1]] * (n - 1))
    rng.shuffle(rows)
    cols = rng.sample(range(n), n)
    symbol = rng.sample(range(1, n + 1), n)
    return encode_array([[symbol[row[c] - 1] for c in cols] for row in rows])


def narrow_search_cases():
    """Families of fewer than 2n - 1 sets: random species pairs at n = 2..4,
    m = n..2n - 2, relabelled Drisko families at n = 3..5, and row-Latin
    arrays at n = 2..5, m = n..2n - 2."""
    for species_m in SPECIES:
        for species_n in SPECIES:
            for n in (2, 3, 4):
                for m in range(n, 2 * n - 1):
                    yield random_instance(species_m, species_n, n, m,
                                          seed=13 * n + m)
    rng = random.Random(23)
    for n in (3, 4, 5):
        for _ in range(3):
            yield relabelled_drisko(n, rng)
    for n in (2, 3, 4, 5):
        for m in range(n, 2 * n - 1):
            for _ in range(4):
                yield encode_array(random_row_latin(n, m, rng).rows)


def random_dependent_families():
    """Families of random 3-sets of random oracles at n = 3, most of them
    dependent in one matroid or both: 48 instances."""
    rng = random.Random(29)
    for species_m in SPECIES:
        for species_n in SPECIES:
            for _ in range(3):
                m = random_oracle(species_m, 6, 2, rng)
                n = random_oracle(species_n, 6, 2, rng)
                family = [rng.sample(range(6), 3)
                          for _ in range(rng.randint(2, 5))]
                yield RainbowInstance(m, n, family, 3)


def triangle_families():
    """Families of random 3-sets at n = 3 whose M is full of triangles
    (three-element circuits): 8 edges on 4 vertices, or 8 nonzero columns
    in GF(2)^3 or GF(3)^3.  N is a random oracle of each species: 96
    instances."""
    rng = random.Random(37)
    for species_n in SPECIES:
        for _ in range(12):
            edges = [rng.sample(range(4), 2) for _ in range(8)]
            prime = rng.choice((2, 3))
            columns = []
            while len(columns) < 8:
                col = [rng.randrange(prime) for _ in range(3)]
                if any(col):
                    columns.append(col)
            for m in (GraphicMatroid(4, edges), LinearMatroid(prime, columns)):
                n = random_oracle(species_n, 8, 3, rng)
                family = [rng.sample(range(8), 3)
                          for _ in range(rng.randint(3, 5))]
                yield RainbowInstance(m, n, family, 3)


def search_calls(instance, search, target):
    """The answer of one search and the independence calls it made."""
    before = sum(instance.oracle_calls().values())
    out = search(instance, target)
    return out, sum(instance.oracle_calls().values()) - before


class TestBruteForce:
    def test_drisko_two_not_found(self):
        assert brute_force_rainbow(drisko_instance(2), 2) is None

    def test_first_hit_in_scan_order(self):
        m = UniformMatroid(2, 3)
        inst = RainbowInstance(m, UniformMatroid(2, 3),
                               ({0, 1}, {0, 2}, {1, 2}), 2)
        out = brute_force_rainbow(inst, 2)
        assert out.choices == {0: 0, 1: 2}

    def test_target_zero(self):
        out = brute_force_rainbow(drisko_instance(2), 0)
        assert out.choices == {}

    @pytest.mark.parametrize("target", [-1, 3])
    def test_target_outside_zero_to_n_rejected(self, target):
        inst = drisko_instance(2)
        with pytest.raises(PreconditionError,
                           match="target must lie between 0 and n"):
            brute_force_rainbow(inst, target)
        assert inst.oracle_calls() == {"M": 0, "N": 0}

    def test_same_answers_as_the_plain_search(self):
        # Forward checking drops only failing candidates and dead
        # branches: the same first hit or the same None at every target,
        # and fewer calls over the searches that find nothing.
        searches, misses = 0, Counter()
        for inst in narrow_search_cases():
            for target in range(inst.n + 1):
                want, plain = search_calls(
                    inst, reference_brute_force_rainbow, target)
                got, forward = search_calls(inst, brute_force_rainbow,
                                            target)
                assert got == want, (inst.digest(), target)
                if want is None:
                    misses["plain"] += plain
                    misses["forward"] += forward
                searches += 1
        assert searches >= 300
        assert misses["forward"] < misses["plain"]

    def test_root_asks_each_common_independent_set_once(self):
        # Heredity settles the root lists of a family of common independent
        # sets: two calls per set, where one test per element and matroid
        # made 16.  Two sets cannot hold three picks, so the search ends
        # at the root.
        inst = encode_array([(1, 2, 3, 4), (2, 3, 4, 1)])
        assert search_calls(inst, brute_force_rainbow, 3) == (None, 4)

    def test_dependent_sets_tested_by_element(self):
        # Hand-built, unvalidated families.  Element 3 is a loop of M
        # (edge 3 is a loop) and element 0 a loop of N (capacity 0);
        # edges 0 and 4 are parallel, and elements 4 and 5 share a
        # capacity-one block of N.  Each element of a dependent set is
        # tested on its own, so the answer is the plain search's at every
        # target.
        m = GraphicMatroid(4, [(0, 1), (1, 2), (2, 3), (3, 3), (0, 1),
                               (1, 3)])
        n = PartitionMatroid([3, 0, 1, 1, 2, 2], [2, 1, 1, 0])
        families = [
            ({0, 1}, {2, 4}, {1, 5}),
            ({1, 3}, {2, 5}, {4, 5}),
            ({3}, {0, 1}, {2, 3}, {1, 5}),
            ({0, 4}, {1, 2}, {2, 3}),
            ({2, 3}, {2, 5}, {0, 1}, {4}),
        ]
        found = 0
        for family in families:
            inst = RainbowInstance(m, n, family, 2)
            for target in range(3):
                want = reference_brute_force_rainbow(inst, target)
                assert brute_force_rainbow(inst, target) == want
                found += want is not None
        assert found >= 9

    def test_random_dependent_families_agree(self):
        searches = dependent = 0
        for inst in random_dependent_families():
            m, n = inst.m_oracle, inst.n_oracle
            dependent += sum(
                1 for a in inst.family
                if not (m.is_independent(a) and n.is_independent(a)))
            for target in range(4):
                assert brute_force_rainbow(inst, target) == \
                    reference_brute_force_rainbow(inst, target)
                searches += 1
        assert searches == 192 and dependent >= 100

    def test_learned_pairs_never_cost_calls(self):
        # A learned pair only drops a test whose answer it settles, and
        # only a failing test learns: the same answer as the search without
        # pairs at every target, never more calls, and fewer in total over
        # the searches that find nothing.
        rng = random.Random(31)
        cases = itertools.chain(
            narrow_search_cases(), random_dependent_families(),
            (relabelled_drisko(n, rng) for n in (3, 4, 5, 6)))
        searches, misses = 0, Counter()
        for inst in cases:
            for target in range(inst.n + 1):
                want, before = search_calls(
                    inst, forward_checking_reference, target)
                got, after = search_calls(inst, brute_force_rainbow, target)
                assert got == want, (inst.digest(), target)
                assert after <= before, (inst.digest(), target)
                if want is None:
                    misses["before"] += before
                    misses["after"] += after
                searches += 1
        assert searches == 875
        assert misses["after"] < misses["before"]

    def test_triangle_families_match_the_plain_search(self):
        # A two-element circuit taken for a parallel pair drops elements
        # the search needs; over families full of triangles some target
        # shows it.
        searches = hits = 0
        for inst in triangle_families():
            for target in range(inst.n + 1):
                want = reference_brute_force_rainbow(inst, target)
                assert brute_force_rainbow(inst, target) == want, (
                    inst.digest(), target)
                searches += 1
                hits += want is not None
        assert searches == 384 and 100 < hits < 384

    def test_hits_return_at_the_completing_pick(self):
        # The pick that completes a hit was tested addable already, so the
        # search returns there without narrowing the later lists.  17661
        # is the count over the hitting searches of narrow_search_cases;
        # narrowing after that pick made 22618.
        searches = calls = 0
        for inst in narrow_search_cases():
            for target in range(inst.n + 1):
                out, made = search_calls(inst, brute_force_rainbow, target)
                if out is not None:
                    searches += 1
                    calls += made
        assert searches == 649
        assert calls <= 17661

    @pytest.mark.parametrize("n, bound", [(4, 61), (5, 130), (6, 240),
                                          (7, 401)])
    def test_drisko_hit_below_n_calls_bounded(self, n, bound):
        # Drisko families hold a rainbow (n - 1)-set; narrowing after the
        # completing pick made 64 / 134 / 245 / 407 calls at n = 4..7.
        inst = drisko_instance(n)
        out, made = search_calls(inst, brute_force_rainbow, n - 1)
        assert out.size() == n - 1
        assert made <= bound

    def test_larger_circuits_are_not_learned(self):
        # Edges 0, 1, 2 form a triangle and edge 3 hangs off it.  Picking 0
        # then 1 finds 2 dependent with circuit {0, 1}: 0 and 2 are not
        # parallel, so 2 stays a candidate once 3 replaces 1, and the first
        # hit takes it.
        m = GraphicMatroid(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        inst = RainbowInstance(m, UniformMatroid(4, 4), ({0}, {1, 3}, {2}), 3)
        want = RainbowAssignment({0: 0, 1: 3, 2: 2})
        assert reference_brute_force_rainbow(inst, 3) == want
        assert brute_force_rainbow(inst, 3) == want

    def test_parallel_pair_learned_once_then_skipped(self, monkeypatch):
        # Elements 0 and 1 share a capacity-one block of M, so they are
        # parallel.  The root settles both singletons in 4 calls.  Picking
        # 0 for set 0 tests 1 against {0}: M fails, in 1 call, and the
        # circuit {0} records the pair.  With set 0 left out, set 1 picks 0
        # and 1 is dropped without a call: 5 calls where the search without
        # pairs makes 6, and one circuit asked for.
        m = PartitionMatroid([0, 0], [1])
        inst = RainbowInstance(m, UniformMatroid(2, 2), ({0}, {0}, {1}), 2)
        asked = []
        real = PartitionMatroid._circuit

        def counted(oracle, i, x):
            asked.append((oracle, i, x))
            return real(oracle, i, x)

        monkeypatch.setattr(PartitionMatroid, "_circuit", counted)
        assert search_calls(inst, forward_checking_reference, 2) == (None, 6)
        assert asked == []
        assert search_calls(inst, brute_force_rainbow, 2) == (None, 5)
        assert asked == [(m, frozenset({0}), 1)]

    def test_drisko_six_proof_calls_bounded(self):
        # The certificate that drisko_instance(6) has no rainbow 6-set.
        # 86726 is the count with learned parallel pairs; forward checking
        # alone makes 157454 and the plain search 397890.
        inst = drisko_instance(6)
        assert brute_force_rainbow(inst, 6) is None
        assert sum(inst.oracle_calls().values()) <= 86726

    def test_relabelled_drisko_five_proof_calls_bounded(self):
        # Relabelling changes the scan order, not the answer.  6706 is the
        # count with learned parallel pairs; forward checking alone makes
        # 12496 and the plain search 21360.
        inst = relabelled_drisko(5, random.Random(5))
        assert brute_force_rainbow(inst, 5) is None
        assert sum(inst.oracle_calls().values()) <= 6706


class TestDrisko:
    @pytest.mark.parametrize("n", [2, 3])
    def test_no_full_rainbow(self, n):
        inst = drisko_instance(n)
        assert len(inst.family) == 2 * n - 2
        inst.validate()
        assert brute_force_rainbow(inst, n) is None

    def test_extra_row_flips(self):
        n = 3
        rows = ([tuple(range(1, n + 1))] * (n - 1)
                + [(2, 3, 1)] * (n - 1) + [(3, 1, 2)])
        out = solve(encode_array(rows))
        assert out.status == "solved"
        assert out.assignment.size() == n

    def test_rejects_small_n(self):
        with pytest.raises(PreconditionError, match="at least 2"):
            drisko_instance(1)


class TestEncodeArray:
    def test_symbol_mode_round(self):
        inst = encode_array([(1, 2), (2, 1), (1, 2)])
        assert inst.n == 2
        assert len(inst.family) == 3
        inst.validate()
        assert solve(inst).assignment.size() == 2

    def test_single_row(self):
        inst = encode_array([(1, 2, 3)])
        assert solve(inst).assignment.size() == 1

    def test_graphic_values(self):
        # 4 vertices; rows are spanning forests of size 3
        values = GraphicMatroid(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        rows = [(0, 1, 2), (1, 2, 3), (0, 2, 4), (1, 3, 4), (0, 1, 3)]
        inst = encode_array(rows, values)
        inst.validate()
        out = solve(inst)
        assert out.status == "solved"
        picked_values = [values_of(inst)[x] for x in out.assignment.range_set()]
        assert values.is_independent(picked_values)
        bf = brute_force_rainbow(inst, 3)
        assert bf is not None

    def test_rejects_duplicate_value_in_row(self):
        with pytest.raises(PreconditionError, match="row 1"):
            encode_array([(1, 2), (2, 2)])

    def test_rejects_dependent_row(self):
        values = GraphicMatroid(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(PreconditionError, match="row 0"):
            encode_array([(0, 1, 2)], values)

    def test_rejects_no_rows(self):
        with pytest.raises(PreconditionError, match="at least one row"):
            encode_array([])

    def test_rejects_ragged_rows(self):
        with pytest.raises(PreconditionError,
                           match="row 1 has length 1, expected 2"):
            encode_array([(1, 2), (1,)])

    def test_arrays_of_one_shape_share_cells_not_oracles(self):
        a = encode_array([(1, 2, 3), (2, 3, 1)])
        b = encode_array([(3, 1, 2), (1, 2, 3)])
        other = encode_array([(1, 2, 3), (2, 3, 1), (3, 1, 2)])
        assert all(x is y for x, y in zip(a.family, b.family))
        assert a.m_oracle.block_of is b.m_oracle.block_of
        assert not any(x is y for x, y in zip(a.family, other.family))
        assert a.m_oracle.block_of is not other.m_oracle.block_of
        assert a.m_oracle is not b.m_oracle
        assert a.n_oracle is not b.n_oracle
        solve(a)
        assert sum(a.oracle_calls().values()) > 0
        assert b.oracle_calls() == {"M": 0, "N": 0}


def values_of(instance):
    return instance.n_oracle.value_of


class TestRandomInstance:
    def test_partition_pair(self):
        inst = random_instance("partition", "partition", 3, 5, seed=7)
        assert len(inst.family) == 5
        assert all(len(a) == 3 for a in inst.family)
        inst.validate()

    def test_graphic_linear(self):
        inst = random_instance("graphic", "linear", 2, 3, seed=1)
        inst.validate()

    def test_deterministic(self):
        a = random_instance("partition", "graphic", 3, 5, seed=11)
        b = random_instance("partition", "graphic", 3, 5, seed=11)
        assert a.family == b.family
        assert a.m_oracle.describe() == b.m_oracle.describe()

    def test_impossible_rank_rejected(self):
        with pytest.raises(GenerationError):
            random_instance("uniform", "uniform", 4, 2, seed=0, ground_size=3)

    @pytest.mark.parametrize("n, m", [(0, 3), (2, 0), (-1, -1)])
    def test_n_and_m_below_one_rejected(self, n, m):
        with pytest.raises(PreconditionError,
                           match="n and m must be positive"):
            random_instance("uniform", "uniform", n, m, seed=0)

    @pytest.mark.parametrize("args, message", [
        ((2.5, 3), "n 2.5 is not an integer"),
        ((True, 3), "n True is not an integer"),
        (("3", 3), "n '3' is not an integer"),
        ((3, 2.5), "m 2.5 is not an integer"),
        ((3, True), "m True is not an integer"),
        ((3, 5, True), "ground_size True is not an integer"),
        ((3, 5, 7.0), "ground_size 7.0 is not an integer"),
    ])
    def test_sizes_must_be_integers(self, args, message, monkeypatch):
        # Named before any draw: m = 2.5 used to escape from range(m) as a
        # TypeError, n = 2.5 was reported as min_rank, and ground_size =
        # True was taken as 1.
        def no_draw(*args):
            raise AssertionError("an oracle was drawn")

        monkeypatch.setattr(lab, "random_oracle", no_draw)
        n, m, *ground = args
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            random_instance("uniform", "uniform", n, m, 0, *ground)

    def test_ground_smaller_than_n_rejected_at_once(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("an oracle was drawn")

        monkeypatch.setattr(lab, "random_oracle", no_draw)
        with pytest.raises(GenerationError,
                           match="ground_size 2 is smaller than n = 3"):
            random_instance("uniform", "uniform", 3, 2, seed=0, ground_size=2)

    def test_builds_without_validating(self, monkeypatch):
        # Each family set is the first n elements of a common independent
        # set, independent by heredity, so no check can fail.
        calls = count_validations(monkeypatch)
        inst = random_instance("graphic", "linear", 3, 5, seed=2)
        assert calls == []
        monkeypatch.undo()
        inst.validate()

    def test_generated_documents_pinned(self):
        # Every family set comes out of max_common_independent, so a change
        # to circuits or to the augmenting-path search must leave these
        # documents byte for byte as they are.
        pairs = (("uniform", "partition"), ("partition", "partition"),
                 ("partition", "graphic"), ("graphic", "graphic"),
                 ("graphic", "linear"), ("linear", "linear"))
        digest = hashlib.sha256()
        for species_m, species_n in pairs:
            for n in range(2, 6):
                for seed in range(3):
                    inst = random_instance(species_m, species_n, n,
                                           2 * n - 1, seed)
                    digest.update(dumps_doc(instance_to_doc(inst)).encode())
        assert digest.hexdigest() == ("24a70f3225d7df59fbfa239a85e10a77"
                                      "d7ddf7a97ffd567634619bd0b7f943bc")

    def test_generation_asks_the_circuit_hook(self, monkeypatch):
        # The search proves both preconditions of every circuit it asks
        # for, so it calls the species hook and never the checked wrapper.
        def checked(oracle, i, x):
            raise AssertionError("fundamental_circuit called")

        monkeypatch.setattr(MatroidOracle, "fundamental_circuit", checked)
        self.test_generated_documents_pinned()


def test_generation_predicate_calls_bounded(monkeypatch):
    # The primary cost metric of generation, over the grid of
    # test_generated_documents_pinned: every independence test made while
    # generating, retries included.  4616 is the count with each search
    # given the full sets found before it for the same pair, whose
    # elements it returns untested while its current set lies inside one.
    # With the smaller ground rank passed to the first search, which then
    # stops without its failing last search whenever the common rank meets
    # that bound, it was 5516; with
    # the draws accepted on the closed-form rank alone it was 5901, with a
    # greedy rank probe stopped at n 6448.  Before that, asking M1 about
    # the known non-sinks on every search made 6677, one more failing
    # search per set and a full-ground probe 9892, fundamental_circuit's
    # re-checks of both preconditions 13322, and listing every source first
    # 27330.
    calls = []
    real = MatroidOracle.is_independent

    def counted(self, s):
        calls.append(None)
        return real(self, s)

    monkeypatch.setattr(MatroidOracle, "is_independent", counted)
    for species_m, species_n in (("uniform", "partition"),
                                 ("partition", "partition"),
                                 ("partition", "graphic"),
                                 ("graphic", "graphic"),
                                 ("graphic", "linear"), ("linear", "linear")):
        for n in range(2, 6):
            for seed in range(3):
                random_instance(species_m, species_n, n, 2 * n - 1, seed)
    assert len(calls) <= 4616


def reference_augmenting_path(m1, m2, current, order):
    """The search without carried span bookkeeping: both predicates are
    asked for every outside element on every call."""
    s = frozenset(current)
    outside = [y for y in order if y not in s]
    sources = [y for y in outside if m1.is_independent(s | {y})]
    sinks = {y for y in outside if m2.is_independent(s | {y})}
    if not sources:
        return None
    parent = {}
    queue = deque()
    for y in sources:
        parent[y] = None
        if y in sinks:
            return [y]
        queue.append(y)
    inside = [x for x in order if x in s]
    m1_circuit = {}
    while queue:
        node = queue.popleft()
        if node in s:
            for y in outside:
                if y in parent:
                    continue
                if y not in m1_circuit:
                    m1_circuit[y] = m1.fundamental_circuit(s, y)
                if node in m1_circuit[y]:
                    parent[y] = node
                    if y in sinks:
                        path = [y]
                        while parent[path[-1]] is not None:
                            path.append(parent[path[-1]])
                        return path
                    queue.append(y)
        else:
            for x in sorted(m2.fundamental_circuit(s, node),
                            key=inside.index):
                if x not in parent:
                    parent[x] = node
                    queue.append(x)
    return None


def reference_max_common(m1, m2, order):
    current = set()
    while True:
        path = reference_augmenting_path(m1, m2, current, order)
        if path is None:
            return frozenset(current)
        current.symmetric_difference_update(path)


def random_pair_cases(seed, per_pair):
    """(m1, m2, order) over every ordered species pair, random ground sizes,
    ranks and orders."""
    rng = random.Random(seed)
    for species_1 in SPECIES:
        for species_2 in SPECIES:
            for _ in range(per_pair):
                g = rng.randint(3, 9)
                m1 = random_oracle(species_1, g, rng.randint(1, g // 2), rng)
                m2 = random_oracle(species_2, g, rng.randint(1, g // 2), rng)
                order = list(range(g))
                rng.shuffle(order)
                yield m1, m2, order


def path_matching_cases(seed):
    """Bipartite matching on disjoint paths, as two capacity-one partition
    matroids (left and right endpoints of each edge).  The order puts every
    path's odd edges first, so once they are taken each path needs one
    augmenting path through all of its edges."""
    rng = random.Random(seed)
    for lengths in ((1,), (3,), (2, 4), (5, 1, 3), (6, 6), (4, 2, 2, 5)):
        for _ in range(4):
            left, right, odd, even = [], [], [], []
            base = 0
            for k in lengths:
                for j in range(k + 1):
                    even.append(len(left))
                    left.append(base + j)
                    right.append(base + j)
                    if j < k:
                        odd.append(len(left))
                        left.append(base + j + 1)
                        right.append(base + j)
                base += k + 1
            rng.shuffle(odd)
            rng.shuffle(even)
            yield (PartitionMatroid(left, [1] * base),
                   PartitionMatroid(right, [1] * base), odd + even)


class TestMaxCommonIndependent:
    def test_latin_square_diagonal(self):
        inst = encode_array([(1, 2, 3), (2, 3, 1), (3, 1, 2)])
        got = len(max_common_independent(inst.m_oracle, inst.n_oracle))
        assert got == brute_max_common(inst.m_oracle, inst.n_oracle) == 3

    def test_self_intersection_is_rank(self):
        m = GraphicMatroid(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        assert len(max_common_independent(m, m)) == m.rank(range(5)) == 3

    def test_zero_capacity_side(self):
        m1 = UniformMatroid(2, 3)
        m2 = PartitionMatroid([0, 0, 0], [0])
        assert max_common_independent(m1, m2) == frozenset()

    def test_matches_brute_force_on_random_pairs(self):
        from rainbowmat.lab import random_oracle
        rng = random.Random(5)
        for _ in range(30):
            g = rng.randint(4, 9)
            m1 = random_oracle(rng.choice(("uniform", "partition",
                                           "graphic", "linear")), g, 1, rng)
            m2 = random_oracle(rng.choice(("uniform", "partition",
                                           "graphic", "linear")), g, 1, rng)
            assert (len(max_common_independent(m1, m2))
                    == brute_max_common(m1, m2))

    def test_same_sets_as_reference_search(self):
        # 16 species pairs x 32 random orders.  The carried spans only drop
        # predicate calls: never a different set, never more calls.
        cases = 0
        for m1, m2, order in itertools.chain(
                random_pair_cases(seed=17, per_pair=32),
                path_matching_cases(seed=17)):
            start = m1.independence_calls + m2.independence_calls
            want = reference_max_common(m1, m2, order)
            middle = m1.independence_calls + m2.independence_calls
            assert max_common_independent(m1, m2, order=order) == want
            end = m1.independence_calls + m2.independence_calls
            assert end - middle <= middle - start
            cases += 1
        assert cases >= 16 * 32

    def test_spans_only_grow_and_memos_are_spanned(self, monkeypatch):
        # After every augmentation the base-class span of the current set
        # grows in both matroids, and every element either memo holds is
        # spanned by the set the search ran on.
        searched, path_lengths = [], []
        search = lab._augmenting_path

        def recording(m1, m2, current, order, position, m1_spanned,
                      m2_spanned, addable):
            s = frozenset(current)
            path = search(m1, m2, current, order, position, m1_spanned,
                          m2_spanned, addable)
            assert m1_spanned <= MatroidOracle.span(m1, s)
            assert m2_spanned <= MatroidOracle.span(m2, s)
            searched.append(s)
            path_lengths.append(len(path or ()))
            return path

        monkeypatch.setattr(lab, "_augmenting_path", recording)
        for m1, m2, order in itertools.chain(
                random_pair_cases(seed=29, per_pair=4),
                path_matching_cases(seed=29)):
            searched.clear()
            final = max_common_independent(m1, m2, order=order)
            assert searched[-1] == final
            for m in (m1, m2):
                spans = [MatroidOracle.span(m, s) for s in searched]
                for before, after in zip(spans, spans[1:]):
                    assert before <= after
        # The matching cases reach a path through all 13 edges of a path.
        assert max(path_lengths) == 13

    def test_lazy_sources_stop_at_the_first_source_sink(self):
        # From the empty set on U(2,4) x U(2,4), element 0 is a source and a
        # sink: the search asks M1 and M2 about it once each and stops.
        # Listing every source first costs four M1 tests, and the reference
        # also tests every sink up front.
        m1, m2 = UniformMatroid(2, 4), UniformMatroid(2, 4)
        order = [0, 1, 2, 3]
        path = lab._augmenting_path(m1, m2, set(), order,
                                    {x: x for x in order}, set(), set())
        assert path == [0]
        assert (m1.independence_calls, m2.independence_calls) == (1, 1)
        m1, m2 = UniformMatroid(2, 4), UniformMatroid(2, 4)
        assert reference_augmenting_path(m1, m2, set(), order) == [0]
        assert m1.independence_calls + m2.independence_calls == 8

    def test_known_non_sinks_are_not_asked_before_the_hit(self,
                                                          monkeypatch):
        # Element 0 is an M2 loop, so the first search learns it is no sink.
        # The next two searches return at 2 and then 3, after it in order,
        # without asking M1 about it; the last search, which needs its
        # queue, asks once.  Asking on every search made four tests of 0.
        m1 = UniformMatroid(4, 4)
        m2 = PartitionMatroid([0, 1, 1, 1], [0, 3])
        order = [0, 1, 2, 3]
        assert reference_max_common(m1, m2, order) == {1, 2, 3}
        asked = []
        real = m1.is_independent

        def recording(s):
            asked.append(frozenset(s))
            return real(s)

        monkeypatch.setattr(m1, "is_independent", recording)
        assert max_common_independent(m1, m2, order=order) == {1, 2, 3}
        assert [s for s in asked if 0 in s] == [{0}, {0, 1, 2, 3}]

    def test_a_path_can_start_at_a_deferred_source(self):
        # Matching edges 0 = ap, 1 = bp, 2 = aq, 3 = cp with ap taken:
        # M1 and M2 are the left and right endpoint partitions.  Edges 1
        # and 3 are sources and no sinks, and each starts a path through 0
        # to the sink 2.  Edge 1 is known not to be a sink, so its source
        # test is deferred; it must still be queued first, as in order.
        m1 = PartitionMatroid([0, 1, 0, 2], [1, 1, 1])
        m2 = PartitionMatroid([0, 0, 1, 0], [1, 1])
        order = [1, 3, 0, 2]
        m1_spanned, m2_spanned = set(), {1}
        path = lab._augmenting_path(m1, m2, {0}, order,
                                    {x: k for k, x in enumerate(order)},
                                    m1_spanned, m2_spanned)
        assert path == [2, 0, 1]
        assert (m1_spanned, m2_spanned) == ({2}, {1, 3})
        # One M1 test for each of 1, 3 and 2; one M2 test for 3 and 2.
        assert (m1.independence_calls, m2.independence_calls) == (3, 2)
        assert reference_augmenting_path(m1, m2, {0}, order) == path

    def test_rank_stops_at_the_same_set(self):
        # Given the common rank, the loop stops at that size without the
        # search that must fail, and returns the set that search confirms.
        saved = cases = 0
        for m1, m2, order in itertools.chain(
                random_pair_cases(seed=41, per_pair=16),
                path_matching_cases(seed=41)):
            start = m1.independence_calls + m2.independence_calls
            want = max_common_independent(m1, m2, order=order)
            middle = m1.independence_calls + m2.independence_calls
            assert max_common_independent(m1, m2, order=order,
                                          rank=len(want)) == want
            end = m1.independence_calls + m2.independence_calls
            assert end - middle <= middle - start
            saved += (middle - start) - (end - middle)
            cases += 1
        assert cases >= 16 * 16
        assert saved > 0

    def test_rank_above_the_common_rank_returns_the_maximum(self):
        for m1, m2, order in itertools.chain(
                random_pair_cases(seed=43, per_pair=4),
                path_matching_cases(seed=43)):
            want = max_common_independent(m1, m2, order=order)
            assert max_common_independent(
                m1, m2, order=order, rank=len(want) + 1) == want
            assert max_common_independent(
                m1, m2, order=order, rank=m1.ground_size + 1) == want

    def test_known_sets_stop_at_the_same_set(self, monkeypatch):
        # Given the sets two earlier orders of the same pair returned, every
        # search returns the path it returns without them, with no more
        # calls, and the searches together make fewer.
        searches = []
        search = lab._augmenting_path

        def recording(m1, m2, current, order, position, m1_spanned,
                      m2_spanned, addable):
            start = m1.independence_calls + m2.independence_calls
            path = search(m1, m2, current, order, position, m1_spanned,
                          m2_spanned, addable)
            searches.append((frozenset(current), path,
                             m1.independence_calls + m2.independence_calls
                             - start))
            return path

        monkeypatch.setattr(lab, "_augmenting_path", recording)
        rng = random.Random(47)
        saved = cases = 0
        for m1, m2, order in itertools.chain(
                random_pair_cases(seed=47, per_pair=16),
                path_matching_cases(seed=47)):
            known = []
            for _ in range(2):
                earlier = list(order)
                rng.shuffle(earlier)
                known.append(max_common_independent(m1, m2, order=earlier))
            searches.clear()
            want = max_common_independent(m1, m2, order=order)
            plain = list(searches)
            searches.clear()
            assert max_common_independent(m1, m2, order=order,
                                          known=known) == want
            assert [s[:2] for s in searches] == [s[:2] for s in plain]
            for (_, _, got), (_, _, asked) in zip(searches, plain):
                assert got <= asked
            saved += sum(s[2] for s in plain) - sum(s[2] for s in searches)
            cases += 1
        assert cases >= 16 * 16
        assert saved > 0

    def test_known_set_elements_are_not_asked(self):
        # U(2,4) x U(2,4), order 0..3, common rank 2, known {1, 2} and
        # {0, 3}.  From the empty set both contain the current set, and 0
        # is returned untested.  From {0} only {0, 3} does: 1 comes first
        # in order and is asked of M1 and M2, and is returned, so the set
        # is {0, 1} as without the known sets, which ask twice as much.
        m1, m2 = UniformMatroid(2, 4), UniformMatroid(2, 4)
        order = [0, 1, 2, 3]
        known = [frozenset({1, 2}), frozenset({0, 3})]
        assert max_common_independent(m1, m2, order=order, rank=2,
                                      known=known) == {0, 1}
        assert (m1.independence_calls, m2.independence_calls) == (1, 1)
        m1, m2 = UniformMatroid(2, 4), UniformMatroid(2, 4)
        assert max_common_independent(m1, m2, order=order,
                                      rank=2) == {0, 1}
        assert (m1.independence_calls, m2.independence_calls) == (2, 2)
        # Without the rank, the last search asks M1 about 2 and 3 only.
        m1, m2 = UniformMatroid(2, 4), UniformMatroid(2, 4)
        assert max_common_independent(m1, m2, order=order,
                                      known=[{0, 1}]) == {0, 1}
        assert (m1.independence_calls, m2.independence_calls) == (2, 0)

    @pytest.mark.parametrize("known, message", [
        (5, r"known 5 is not a collection of sets"),
        (None, r"known None is not a collection of sets"),
        ("01", r"known\[0\] element '0' is outside"),
        ([{0}, 3], r"known\[1\] 3 is not a collection of elements"),
        ([{0}, None], r"known\[1\] None is not a collection of elements"),
        ([{0}, "12"], r"known\[1\] element '[12]' is outside"),
        ([[[0, 1]]], r"known\[0\] \[\[0, 1\]\] is not a collection of "
                     r"elements"),
        ([{0, 4}], r"known\[0\] element 4 is outside the ground set of "
                   r"size 4"),
        ([frozenset({1}), frozenset({-1})],
         r"known\[1\] element -1 is outside"),
        ([[0], ["3"]], r"known\[1\] element '3' is outside"),
    ])
    def test_known_must_hold_sets_of_ground_elements(self, known, message):
        m = UniformMatroid(3, 4)
        with pytest.raises(PreconditionError, match=message):
            max_common_independent(m, m, known=known)
        assert m.independence_calls == 0

    def test_known_sets_may_be_any_iterables(self):
        # Lists, sets, tuples and generators, in a list or a generator, are
        # read as the frozensets they hold.
        m1, m2 = UniformMatroid(2, 4), UniformMatroid(2, 4)
        known = ([3, 2], {1}, (), (x for x in [0]))
        assert max_common_independent(m1, m2, order=[3, 2, 1, 0], rank=2,
                                      known=iter(known)) == {2, 3}
        assert m1.independence_calls == m2.independence_calls == 0

    @pytest.mark.parametrize("order, message", [
        ([0, 1, 3], "omits element 2"),
        ([0, 1, 1, 2, 3], "repeats element 1"),
        ([0, 1, 2, 4], "element 4 is outside"),
        ([0], "omits element 1"),
        ([0, 1.0, 2, 3], "element 1.0 is not an integer"),
        ([3.0, 2, 1, 0], "element 3.0 is not an integer"),
        ([0, True, 2, 3], "element True is not an integer"),
        ([0, 1, 2, "3"], "element '3' is not an integer"),
    ])
    def test_order_must_be_a_permutation(self, order, message):
        m = UniformMatroid(3, 4)
        with pytest.raises(PreconditionError, match=message):
            max_common_independent(m, m, order=order)
        assert m.independence_calls == 0

    @pytest.mark.parametrize("rank", [True, 1.0, -1, "2"])
    def test_rank_must_be_a_nonnegative_integer(self, rank):
        # rank=True would stop the loop at one element, as rank=1 does.
        m = UniformMatroid(3, 5)
        with pytest.raises(PreconditionError,
                           match="is not a nonnegative integer"):
            max_common_independent(m, m, rank=rank)
        assert m.independence_calls == 0

    def test_ground_sizes_must_agree(self):
        m1, m2 = UniformMatroid(2, 4), UniformMatroid(2, 5)
        with pytest.raises(PreconditionError,
                           match="oracles disagree on ground set size"):
            max_common_independent(m1, m2)
        assert m1.independence_calls == m2.independence_calls == 0

    def test_rank_zero_is_the_empty_set(self):
        m = UniformMatroid(3, 5)
        assert max_common_independent(m, m, rank=0) == frozenset()
        assert m.independence_calls == 0


class TestLemma3:
    def test_empty_swap_reduces_to_membership(self):
        m = UniformMatroid(2, 4)
        c = m.fundamental_circuit({0, 1}, 2)
        x = min(c)
        assert check_lemma3(m, {0, 1}, [], [], 2, x)

    def test_single_swap_on_chorded_cycle(self):
        # 4-cycle 0-1-2-3 with chord 0-2; tree {0,1,2}; swap edge 1 for 3
        m = GraphicMatroid(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        i = frozenset({0, 1, 2})
        assert m.span(i) == frozenset(range(5))
        y1 = 4  # chord, in the circuit of edges {0, 1}
        x1 = 0
        assert x1 in m.fundamental_circuit(i, y1)
        y_next = 3
        circuit = m.fundamental_circuit(i, y_next)
        pool = [x for x in circuit - {x1}
                if x not in m.fundamental_circuit(i, y1)]
        assert pool
        assert check_lemma3(m, i, [x1], [y1], y_next, pool[0])

    def test_hypothesis_violation_named(self):
        m = UniformMatroid(2, 4)
        with pytest.raises(HypothesisError, match="circuit"):
            check_lemma3(m, {0, 1}, [0], [2], 3, 1)

    @pytest.mark.parametrize("m, args, message", [
        (UniformMatroid(2, 4), ({0, 1}, [0], [], 2, 1),
         "X and Y must have the same size"),
        (UniformMatroid(2, 4), ({0, 1, 2}, [], [], 3, 0), "I is dependent"),
        (UniformMatroid(2, 4), ({0, 1}, [2], [3], 3, 0),
         "X must be a subset of I"),
        (UniformMatroid(2, 4), ({0, 1}, [0], [1], 2, 1),
         r"Y must lie in span\(I\) minus I"),
        # Blocks {0, 2} and {1}: swapping 1 for 2 loses block 1's span.
        (PartitionMatroid([0, 1, 0], [1, 1]), ({0, 1}, [1], [2], 2, 0),
         "the swap does not preserve the span of I"),
        (UniformMatroid(2, 4), ({0, 1}, [], [], 0, 1),
         r"y_next must lie in span\(I\) minus I"),
        (UniformMatroid(2, 4), ({0, 1}, [0], [2], 2, 1),
         "y_next must be distinct from Y"),
        (UniformMatroid(2, 4), ({0, 1}, [], [], 2, 3),
         "x_next must lie in the circuit of y_next, outside X"),
    ])
    def test_each_hypothesis_named(self, m, args, message):
        with pytest.raises(HypothesisError, match=f"^{message}$"):
            check_lemma3(m, *args)


def count_validations(monkeypatch):
    """Record every ``RainbowInstance.validate`` call from here on."""
    calls = []
    real = RainbowInstance.validate

    def counted(instance):
        calls.append(instance)
        return real(instance)

    monkeypatch.setattr(RainbowInstance, "validate", counted)
    return calls


class TestVerifyInstance:
    def test_validates_once(self, monkeypatch):
        inst = random_instance("partition", "partition", 3, 5, seed=3)
        calls = count_validations(monkeypatch)
        assert verify_instance(inst).agree
        assert calls == [inst]  # solve's own check

    def test_invalid_instance_rejected(self):
        m = UniformMatroid(1, 3)
        inst = RainbowInstance(m, UniformMatroid(2, 3), ({0, 1}, {1, 2}), 2)
        with pytest.raises(PreconditionError,
                           match=r"family\[0\] is dependent in M"):
            verify_instance(inst)

    def test_agreement_on_theorem_instance(self):
        inst = random_instance("partition", "partition", 3, 5, seed=3)
        report = verify_instance(inst)
        assert report.agree
        assert report.solver_size == report.brute_size == 3

    def test_agreement_on_drisko(self):
        report = verify_instance(drisko_instance(3))
        assert report.agree
        assert report.solver_status == "infeasible"
        assert report.solver_size == report.brute_size < 3

    def test_single_set(self):
        inst = encode_array([(1, 2, 3)])
        report = verify_instance(inst)
        assert report.solver_size == report.brute_size == 1


class TestLatinArray:
    def test_row_latin_validation(self):
        LatinArray(((1, 2), (2, 1)), 2).validate_row_latin()
        with pytest.raises(PreconditionError, match="row 1"):
            LatinArray(((1, 2), (1, 1)), 2).validate_row_latin()

    def test_random_row_latin(self):
        arr = random_row_latin(4, 7, random.Random(0))
        assert len(arr.rows) == 7
        arr.validate_row_latin()


class TestMaxRainbow:
    def test_first_hit_of_the_largest_size(self):
        inst = drisko_instance(3)
        best = lab.max_rainbow(inst)
        assert best == brute_force_rainbow(inst, 2)

    def test_none_above_floor(self):
        assert lab.max_rainbow(drisko_instance(3), floor=2) is None
        assert lab.max_rainbow(encode_array([(1, 2)]), floor=1) is None

    @pytest.mark.parametrize("rows, solve_targets, verify_targets", [
        # Drisko n = 3: the sweep leaves size 2, which brute force confirms.
        (((1, 2, 3),) * 2 + ((2, 3, 1),) * 2, [3], [3, 2]),
        # One row: the seed has size 1 and no size above it exists.
        (((1, 2, 3),), [3, 2], [3, 2, 1]),
    ])
    def test_callers_descend_from_n(self, rows, solve_targets,
                                    verify_targets, monkeypatch):
        # solve asks n down to one above its own size, verify_instance asks
        # n down to 1; both stop at the first hit.
        targets = []
        real = lab.brute_force_rainbow

        def recorded(instance, target):
            targets.append(target)
            return real(instance, target)

        monkeypatch.setattr(lab, "brute_force_rainbow", recorded)
        assert solve(encode_array(rows)).status == "infeasible"
        assert targets == solve_targets
        targets.clear()
        verify_instance(encode_array(rows))
        assert targets == solve_targets + verify_targets


def reference_random_instance(species_m, species_n, n, m, seed, g):
    """Generation with a separate common-rank probe: one search in ground
    order before the family is drawn."""
    rng = random.Random(seed)
    for _ in range(50):
        try:
            m_oracle = random_oracle(species_m, g, n, rng)
            n_oracle = random_oracle(species_n, g, n, rng)
        except GenerationError:
            continue
        if len(max_common_independent(m_oracle, n_oracle)) < n:
            continue
        family = []
        for _ in range(m):
            order = list(range(g))
            rng.shuffle(order)
            full = max_common_independent(m_oracle, n_oracle, order=order)
            family.append(frozenset([x for x in order if x in full][:n]))
        return RainbowInstance(m_oracle, n_oracle, tuple(family), n)
    raise GenerationError("retry budget exhausted")


class TestRandomInstanceSearches:
    def count_searches(self, monkeypatch):
        calls = []
        real = lab.max_common_independent

        def counted(*args, **kwargs):
            full = real(*args, **kwargs)
            calls.append((args, tuple(kwargs["known"]), full))
            return full

        monkeypatch.setattr(lab, "max_common_independent", counted)
        return calls

    def test_one_search_per_family_set(self, monkeypatch):
        calls = self.count_searches(monkeypatch)
        random_instance("graphic", "linear", 3, 5, seed=4)
        assert len(calls) == 5

    # Each of these first draws a pair whose common rank is below n.
    @pytest.mark.parametrize("species_m, species_n, n, seed", [
        ("graphic", "graphic", 3, 1), ("graphic", "graphic", 4, 4),
        ("graphic", "linear", 4, 1), ("linear", "linear", 3, 7)])
    def test_rank_retry_draws_as_with_a_probe(self, species_m, species_n, n,
                                              seed, monkeypatch):
        calls = self.count_searches(monkeypatch)
        got = random_instance(species_m, species_n, n, 2 * n - 1, seed,
                              ground_size=n + 2)
        assert len(calls) > 2 * n - 1
        want = reference_random_instance(species_m, species_n, n, 2 * n - 1,
                                         seed, n + 2)
        assert dumps_doc(instance_to_doc(got)) == \
            dumps_doc(instance_to_doc(want))
        # Each search is given the full sets found since the last draw; a
        # redraw starts again from none.
        found = []
        for _, known, full in calls:
            assert list(known) == found
            found = found + [full] if len(full) >= n else []
        assert len(found) == 2 * n - 1


class TestRandomOracle:
    def test_closed_form_rank_draws_as_the_greedy_rank(self, monkeypatch):
        # A draw is accepted on its species' closed-form rank; the
        # reference asks the greedy rank of the whole ground set.  Same
        # oracles, same retries, same RNG stream, and no predicate call to
        # accept a draw.  Small grounds make draws retry.
        asked = []

        def draws():
            out, calls, rejected = [], 0, 0
            for species in SPECIES:
                for min_rank in range(1, 6):
                    for g in (min_rank, min_rank + 1, 2 * min_rank + 3):
                        for seed in range(50):
                            rng = random.Random(seed)
                            asked.clear()
                            try:
                                oracle = random_oracle(species, g, min_rank,
                                                       rng)
                            except GenerationError as exc:
                                out.append((str(exc), rng.random()))
                            else:
                                out.append((oracle.describe(), rng.random()))
                                calls += oracle.independence_calls
                            rejected += sum(r < min_rank for r in asked)
            return out, calls, rejected

        real = MatroidOracle.rank

        def recorded(oracle, s):
            asked.append(real(oracle, s))
            return asked[-1]

        monkeypatch.setattr(MatroidOracle, "rank", recorded)
        got, closed_calls, rejected = draws()

        def greedy(oracle, s):
            asked.append(len(oracle.max_independent_subset(s)))
            return asked[-1]

        monkeypatch.setattr(MatroidOracle, "rank", greedy)
        want, greedy_calls, greedy_rejected = draws()
        assert got == want
        assert rejected == greedy_rejected >= 500
        assert closed_calls == 0 < greedy_calls

    def test_accepting_a_draw_asks_no_predicate(self, monkeypatch):
        def refuse(oracle, s):
            raise AssertionError("the predicate was asked")

        monkeypatch.setattr(MatroidOracle, "is_independent", refuse)
        rng = random.Random(3)
        for species in SPECIES:
            for min_rank in (1, 3, 6):
                for g in (min_rank, 2 * min_rank + 3):
                    for _ in range(5):
                        try:
                            random_oracle(species, g, min_rank, rng)
                        except GenerationError:
                            pass

    @pytest.mark.parametrize("species", SPECIES)
    @pytest.mark.parametrize("min_rank", [0, -1])
    def test_min_rank_below_one_rejected_before_any_draw(self, species,
                                                         min_rank):
        # Below 1 a partition or graphic draw has an empty range, and a
        # linear one has columns of no entries, never non-zero.
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(PreconditionError,
                           match=f"min_rank {min_rank} is below 1"):
            random_oracle(species, 6, min_rank, rng)
        assert rng.getstate() == state

    @pytest.mark.parametrize("species", SPECIES)
    @pytest.mark.parametrize("min_rank", [1.5, "2", True, None])
    def test_min_rank_not_an_integer_rejected_before_any_draw(self, species,
                                                              min_rank):
        # 1.5 would fail inside randrange, "2" and None at the comparison,
        # and True would draw as 1.
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(PreconditionError, match=re.escape(
                f"min_rank {min_rank!r} is not an integer")):
            random_oracle(species, 6, min_rank, rng)
        assert rng.getstate() == state
