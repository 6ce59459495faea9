"""Randomized invariant checks across oracle species and the solver."""

import random

import pytest

from rainbowmat import (
    brute_force_rainbow,
    drisko_instance,
    random_instance,
    solve,
)
from rainbowmat.harness import run_all
from rainbowmat.lab import SPECIES, random_oracle
from rainbowmat.matroids import (
    GraphicMatroid,
    MatroidOracle,
    ParallelLiftMatroid,
)

PAIRS = [
    ("uniform", "partition"),
    ("partition", "graphic"),
    ("graphic", "linear"),
    ("linear", "uniform"),
]


def random_lift(g, rng):
    """A lift of a random multigraph with loops onto more elements than it
    has edges, so that some elements are parallel copies and some loops."""
    vertices = rng.randint(2, 4)
    base = GraphicMatroid(vertices, [(rng.randrange(vertices),
                                      rng.randrange(vertices))
                                     for _ in range(g)])
    return ParallelLiftMatroid([rng.randrange(g) for _ in range(g + 3)], base)


class TestMatroidAxioms:
    @pytest.mark.parametrize("species", SPECIES)
    def test_hereditary_and_exchange(self, species):
        rng = random.Random(101)
        for trial in range(40):
            g = rng.randint(3, 8)
            oracle = random_oracle(species, g, 1, rng)
            # hereditary: deleting from an independent set stays independent
            s = oracle.max_independent_subset(
                rng.sample(range(g), rng.randint(1, g)))
            for x in s:
                assert oracle.is_independent(s - {x})
            # exchange: a smaller independent set can always borrow
            t = oracle.max_independent_subset(range(g))
            small = frozenset(list(sorted(s))[: max(0, len(t) - 1)])
            if len(small) < len(t):
                added = oracle.augment_from(small, t)
                assert len(added) == len(t) - len(small)
                assert oracle.is_independent(small | added)

    @pytest.mark.parametrize("species", SPECIES + ("lift",))
    def test_span_and_circuit_consistency(self, species):
        rng = random.Random(77)
        for trial in range(40):
            g = rng.randint(3, 8)
            if species == "lift":
                oracle = random_lift(g, rng)
                g = oracle.ground_size
            else:
                oracle = random_oracle(species, g, 1, rng)
            s = frozenset(rng.sample(range(g), rng.randint(1, g)))
            sp = oracle.span(s)
            assert s <= sp
            assert oracle.rank(sp) == oracle.rank(s)
            i = oracle.max_independent_subset(s)
            for x in sorted(set(range(g)) - i):
                if x in sp and oracle.is_independent(i):
                    c = oracle.fundamental_circuit(i, x)
                    # The species' own circuit against the predicate-only one.
                    assert c == MatroidOracle._circuit(oracle, i, x)
                    assert not oracle.is_independent(c | {x})
                    for y in c:
                        assert oracle.is_independent((i - {y}) | {x})


class TestSolverAgainstBruteForce:
    @pytest.mark.parametrize("pair", PAIRS)
    def test_theorem_width_families(self, pair):
        for seed in range(8):
            n = 2 + seed % 3
            inst = random_instance(pair[0], pair[1], n, 2 * n - 1, seed=seed)
            out = solve(inst)
            assert out.status == "solved"
            assert out.assignment.size() == n
            out.assignment.validate(inst)

    @pytest.mark.parametrize("pair", PAIRS)
    def test_narrow_families_match_brute_force(self, pair):
        for seed in range(8):
            n = 2 + seed % 2
            m = max(1, 2 * n - 2 - seed % 2)
            inst = random_instance(pair[0], pair[1], n, m, seed=seed + 50)
            out = solve(inst)
            best = None
            for target in range(n, -1, -1):
                best = brute_force_rainbow(inst, target)
                if best is not None:
                    break
            assert out.assignment.size() == len(best.choices)
            if out.status == "solved":
                assert out.assignment.size() == n

    def test_drisko_family_sizes(self):
        for n in (2, 3, 4):
            out = solve(drisko_instance(n))
            assert out.status == "infeasible"
            assert out.assignment.size() < n


class TestHarnessSweep:
    def test_all_facts_all_species_small(self):
        results = run_all(SPECIES, cases=60, seed=9)
        assert len(results) == 4 * len(SPECIES)
        for res in results:
            assert res.ok, (res.name, res.species, res.failures)
            assert res.accepted > 0

    def test_deterministic(self):
        a = run_all(("graphic",), cases=40, seed=4)
        b = run_all(("graphic",), cases=40, seed=4)
        assert [(r.name, r.accepted, r.failures) for r in a] == \
            [(r.name, r.accepted, r.failures) for r in b]
