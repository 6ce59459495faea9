"""Randomized invariant checks across oracle species and the solver."""

import random
from collections import Counter

import pytest

from rainbowmat import (
    Augment,
    RainbowAssignment,
    Stalled,
    apply_trail,
    brute_force_rainbow,
    drisko_instance,
    encode_array,
    random_instance,
    solve,
    validate_trail,
)
from rainbowmat import solver
from rainbowmat.harness import HARNESSES, run_all
from rainbowmat.lab import SPECIES, random_oracle, random_row_latin
from rainbowmat.solver import _sweep_for_augmenting_trail
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
        assert len(results) == len(HARNESSES) * len(SPECIES)
        for res in results:
            assert res.ok, (res.name, res.species, res.failures)
            assert res.accepted > 0

    def test_deterministic(self):
        a = run_all(("graphic",), cases=40, seed=4)
        b = run_all(("graphic",), cases=40, seed=4)
        assert [(r.name, r.accepted, r.failures, r.digest) for r in a] == \
            [(r.name, r.accepted, r.failures, r.digest) for r in b]

    def test_digest_follows_the_drawn_cases(self):
        # Another seed draws other cases under the same counts; one case
        # fewer is another digest too.
        a = run_all(("graphic",), cases=40, seed=4)
        b = run_all(("graphic",), cases=40, seed=5)
        c = run_all(("graphic",), cases=39, seed=4)
        assert [r.accepted for r in a] == [r.accepted for r in b]
        for ra, rb, rc in zip(a, b, c):
            assert len({ra.digest, rb.digest, rc.digest}) == 3


def stuck_states(instance, cap):
    """Up to cap inclusion-maximal rainbow assignments of size below n, in
    depth-first order (each set takes an element before it is skipped),
    among the first 2000 nodes of the search.  Once n - 1 elements are
    taken every further pick fills the set, so the search goes straight to
    the one leaf that can still be stuck: every later set skipped."""
    family = [sorted(a) for a in instance.family]
    ground = range(instance.m_oracle.ground_size)
    addable = {}

    def extensions(r):
        # Elements x outside r with r + x independent in both matroids.
        if r not in addable:
            addable[r] = frozenset(
                x for x in ground if x not in r
                and instance.m_oracle.is_independent(r | {x})
                and instance.n_oracle.is_independent(r | {x}))
        return addable[r]

    found, choices = [], {}
    nodes = 0

    def dfs(idx, r):
        nonlocal nodes
        nodes += 1
        if len(found) == cap or nodes > 2000:
            return
        if len(r) == instance.n - 1:
            idx = len(family)
        if idx == len(family):
            free = extensions(r)
            if all(k in choices or free.isdisjoint(a)
                   for k, a in enumerate(family)):
                found.append(RainbowAssignment(dict(choices)))
            return
        for x in family[idx]:
            if x in extensions(r):
                choices[idx] = x
                dfs(idx + 1, r | {x})
                del choices[idx]
        dfs(idx + 1, r)

    dfs(0, frozenset())
    return found


class TestStuckStateCensus:
    def test_one_sweep_augments_every_stuck_state(self):
        # On guaranteed inputs (2n - 1 sets), started from any assignment
        # that no single addition extends, one sweep finds an augmenting
        # trail.  A maximal state admits no one-step trail, so every trail
        # here goes through the sweep's exchange steps.
        pairs = (("uniform", "partition"), ("partition", "partition"),
                 ("partition", "graphic"), ("graphic", "graphic"),
                 ("graphic", "linear"), ("linear", "linear"))
        instances = [random_instance(a, b, n, 2 * n - 1, seed,
                                     ground_size=n + 3)
                     for a, b in pairs for n in (3, 4) for seed in range(16)]
        rng = random.Random(0)
        instances += [encode_array(random_row_latin(n, 2 * n - 1, rng))
                      for n in (3, 4) for _ in range(8)]
        lengths = []
        for inst in instances:
            for assignment in stuck_states(inst, cap=100):
                trail, reason = _sweep_for_augmenting_trail(inst, assignment)
                assert trail is not None, (inst.digest(), reason)
                grown = apply_trail(inst, assignment, trail)
                assert grown.size() == assignment.size() + 1
                lengths.append(len(trail.steps))
        assert len(lengths) >= 1500
        assert min(lengths) >= 2
        assert max(lengths) >= 4

    def test_rounds_never_stall_and_build_valid_trails(self, sweep_rounds):
        # The rounds return their first candidate's result and check
        # nothing themselves.  By the counting argument no round stalls on
        # a common independent n-set, and every trail a round builds must
        # pass validate_trail; a narrow family (m < 2n - 1) may only run
        # out of fresh sets.  Started from stuck states, so the rounds
        # rewind witnesses.
        pairs = (("uniform", "partition"), ("partition", "partition"),
                 ("partition", "graphic"), ("graphic", "graphic"),
                 ("graphic", "linear"), ("linear", "linear"))
        rng = random.Random(11)
        narrow = [random_instance(a, b, n, m, seed, ground_size=n + 3)
                  for a, b in pairs for n in (3, 4)
                  for m in range(2, 2 * n - 1) for seed in range(4)]
        narrow += [encode_array(random_row_latin(n, m, rng))
                   for n in (3, 4, 5) for m in range(n, 2 * n - 1)
                   for _ in range(3)]
        guaranteed = [random_instance(a, b, n, 2 * n - 1, seed,
                                      ground_size=n + 3)
                      for a, b in pairs for n in (3, 4)
                      for seed in range(20, 24)]
        guaranteed += [encode_array(random_row_latin(n, 2 * n - 1, rng))
                       for n in (3, 4, 5) for _ in range(4)]
        reasons = Counter()
        for inst in narrow:
            for assignment in stuck_states(inst, cap=30):
                _, reason = _sweep_for_augmenting_trail(inst, assignment)
                reasons[reason] += 1
        for inst in guaranteed:
            for assignment in stuck_states(inst, cap=30):
                trail, reason = _sweep_for_augmenting_trail(inst, assignment)
                assert trail is not None, (inst.digest(), reason)
        kinds, lengths = Counter(), Counter()
        for inst, assignment, result in sweep_rounds:
            assert not isinstance(result, Stalled), (inst.digest(), result)
            assert validate_trail(inst, assignment, result.trail), result
            kinds[type(result).__name__] += 1
            lengths[len(result.trail.steps)] += 1
        print(f"\n{dict(reasons)} {dict(kinds)} {sorted(lengths.items())}")
        assert set(reasons) == {None, "fresh sets exhausted before covering R",
                                "no fresh set left for the closing round"}
        assert kinds["NewReachable"] >= 2000 and kinds["Augment"] >= 500
        assert max(lengths) >= 4

    def test_every_round_branch_is_reached(self, monkeypatch):
        # Each return of _candidate_branch and close_round, named by the
        # trail it builds.  Stuck states rewind witnesses, and at n = 4 on
        # grounds n + 2..n + 5 some witness addition holds the new
        # element in its N-circuit (the truncate-and-swap return).  A
        # stuck state admits no direct addition, so each is also swept
        # with one pick dropped, which reaches the two returns without a
        # rewind.
        branches = Counter()

        def recorded(name, real):
            def round_(instance, assignment, state, *args):
                k = args[0] if args else state.fresh[0]
                result = real(instance, assignment, state, *args)
                branches[round_branch(name, k, result)] += 1
                return result
            return round_

        for name in ("sweep_round", "close_round"):
            monkeypatch.setattr(solver, name,
                                recorded(name, getattr(solver, name)))
        n = 4
        for species_m in ("graphic", "linear"):
            for species_n in ("graphic", "linear"):
                for ground in range(n + 2, n + 6):
                    for seed in range(8):
                        inst = random_instance(species_m, species_n, n,
                                               2 * n - 1, seed,
                                               ground_size=ground)
                        for stuck in stuck_states(inst, cap=30):
                            for assignment in [stuck] + dropped_one(stuck):
                                trail, reason = _sweep_for_augmenting_trail(
                                    inst, assignment)
                                assert trail is not None, (inst.digest(),
                                                           reason)
                                apply_trail(inst, assignment, trail)
        print(f"\n{dict(branches)}")
        assert set(branches) == {
            "augment", "augment after rewind", "new reachable",
            "new reachable after rewind", "truncate and swap",
            "close", "close after rewind"}


def dropped_one(assignment):
    """The assignment with each one of its picks left out."""
    return [RainbowAssignment({k: x for k, x in assignment.choices.items()
                               if k != drop})
            for drop in sorted(assignment.choices)]


def round_branch(name, k, result):
    """Which return of the round for fresh set k built this result."""
    steps = result.trail.steps
    rewound = " after rewind" if len(steps) > 1 else ""
    if name == "close_round":
        return "close" + rewound
    if isinstance(result, Augment):
        return "augment" + rewound
    if steps[-1].source != k:
        # A full trail ends with set k; a truncated one with a witness step.
        return "truncate and swap"
    return "new reachable" + rewound
