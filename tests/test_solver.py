"""Seeding, trail validation, sweep rounds, and end-to-end solving."""

import hashlib
import itertools
import json
import random
import re
from collections import Counter, deque
from dataclasses import dataclass, replace
from pathlib import Path

import pytest

from rainbowmat import lab, solver
from rainbowmat import (
    Augment,
    GraphicMatroid,
    LinearMatroid,
    MatroidOracle,
    NewReachable,
    PreconditionError,
    RainbowAssignment,
    RainbowInstance,
    SweepState,
    TheoremViolationError,
    Trail,
    TrailStep,
    TrailStructureError,
    UniformMatroid,
    apply_trail,
    brute_force_rainbow,
    close_round,
    encode_array,
    greedy_seed,
    solve,
    sweep_round,
    validate_trail,
)
from rainbowmat.lab import drisko_instance, random_instance, random_row_latin
from rainbowmat.solver import _sweep_for_augmenting_trail
from test_lab import narrow_search_cases, search_calls
from test_properties import stuck_states


@pytest.fixture
def uniform_instance():
    # M = N = uniform rank 2 on {0, 1, 2}; sets {0,1}, {0,2}, {1,2}
    m = UniformMatroid(2, 3)
    n = UniformMatroid(2, 3)
    return RainbowInstance(m, n, ({0, 1}, {0, 2}, {1, 2}), 2).validate()


@pytest.fixture
def cell_instance():
    # rows (1,2), (2,1), (2,1): cells 0..5 in row-major order;
    # columns on one side, symbols on the other.
    return encode_array([(1, 2), (2, 1), (2, 1)])


@pytest.fixture
def forced_stall(monkeypatch):
    """Every sweep stalls; returns the fallback layers called, in order."""
    calls = []

    def counted(name, real):
        def layer(*args):
            calls.append(name)
            return real(*args)
        return layer

    monkeypatch.setattr(solver, "_sweep_for_augmenting_trail",
                        lambda instance, assignment: None)
    monkeypatch.setattr(solver, "exhaustive_cat_search",
                        counted("cat", solver.exhaustive_cat_search))
    monkeypatch.setattr(lab, "max_rainbow", counted("brute", lab.max_rainbow))
    return calls


class TestGreedySeed:
    def test_uniform_scan(self, uniform_instance):
        assert greedy_seed(uniform_instance).choices == {0: 0, 1: 2}

    def test_singleton(self):
        m = UniformMatroid(1, 1)
        inst = RainbowInstance(m, UniformMatroid(1, 1), ({0},), 1)
        assert greedy_seed(inst).choices == {0: 0}

    def test_drisko_seed_is_maximal_at_one(self):
        inst = drisko_instance(2)
        seed = greedy_seed(inst)
        assert seed.choices == {0: 0}
        assert brute_force_rainbow(inst, 2) is None


class TestValidate:
    def test_instance_ground_sizes_must_agree(self):
        inst = RainbowInstance(UniformMatroid(2, 3), UniformMatroid(2, 4),
                               ({0, 1},), 2)
        with pytest.raises(PreconditionError,
                           match="oracles disagree on ground set size"):
            inst.validate()

    def test_instance_target_must_be_nonnegative(self):
        m = UniformMatroid(2, 3)
        with pytest.raises(PreconditionError,
                           match="target size must be nonnegative"):
            RainbowInstance(m, m, (), -1).validate()

    @pytest.mark.parametrize("n", [2.5, "1", True])
    def test_instance_target_must_be_an_integer(self, n):
        # 2.5 escaped from range and "1" from < as a TypeError; True was
        # solved as 1 and written back as true.  Refused before any
        # predicate call.
        m = UniformMatroid(1, 1)
        with pytest.raises(PreconditionError,
                           match=f"^n {re.escape(repr(n))} is not an "
                                 "integer$"):
            solve(RainbowInstance(m, m, ({0},), n))
        assert m.independence_calls == 0

    @pytest.mark.parametrize("choices, message", [
        ({0: 0, 1: 0}, "assignment reuses an element"),
        ({3: 0}, "assignment uses unknown set index 3"),
        ({-1: 0}, "assignment uses unknown set index -1"),
        ({0: 2}, "assignment maps set 0 to 2, which it does not contain"),
        ({1: 2, 2: 4}, "assignment range is dependent in M"),  # column 0
        ({0: 0, 1: 3}, "assignment range is dependent in N"),  # symbol 1
    ])
    def test_assignment_errors(self, cell_instance, choices, message):
        with pytest.raises(PreconditionError, match=message):
            RainbowAssignment(choices).validate(cell_instance)


class TestValidateTrail:
    def test_single_swap_trail(self, cell_instance):
        r = RainbowAssignment({0: 0})
        trail = Trail((TrailStep(1, 3, 0),), False)
        assert validate_trail(cell_instance, r, trail)

    def test_forced_removal_breaks_span(self, uniform_instance):
        # adding 2 keeps N-independence, so the forced removal of 0
        # cannot preserve the N-span
        r = RainbowAssignment({0: 0})
        trail = Trail((TrailStep(1, 2, 0),), False)
        assert not validate_trail(uniform_instance, r, trail)

    def test_added_element_outside_source_set(self, cell_instance):
        r = RainbowAssignment({0: 0})
        # cell 4 belongs to the third set, not the second
        trail = Trail((TrailStep(1, 4, 0),), False)
        assert not validate_trail(cell_instance, r, trail)

    def test_empty_trail(self, cell_instance):
        assert validate_trail(cell_instance, RainbowAssignment({0: 0}),
                              Trail((), False))

    def test_structural_reused_source(self, cell_instance):
        r = RainbowAssignment({0: 0})
        trail = Trail((TrailStep(0, 3, 0),), False)
        with pytest.raises(TrailStructureError, match="reused"):
            validate_trail(cell_instance, r, trail)

    def test_structural_add_in_r(self, cell_instance):
        r = RainbowAssignment({0: 0})
        trail = Trail((TrailStep(1, 0, 0),), False)
        with pytest.raises(TrailStructureError, match="is in R"):
            validate_trail(cell_instance, r, trail)


class TestApplyTrail:
    def test_two_step_augment(self, cell_instance):
        r = RainbowAssignment({0: 0})
        trail = Trail((TrailStep(1, 3, 0), TrailStep(2, 4, None)), True)
        out = apply_trail(cell_instance, r, trail)
        assert out.choices == {1: 3, 2: 4}
        assert out.size() == 2
        out.validate(cell_instance)

    def test_plain_extension_from_empty(self, uniform_instance):
        r = RainbowAssignment({})
        trail = Trail((TrailStep(0, 0, None),), True)
        assert apply_trail(uniform_instance, r, trail).choices == {0: 0}

    def test_rejects_non_augmenting(self, cell_instance):
        r = RainbowAssignment({0: 0})
        trail = Trail((TrailStep(1, 3, 0),), False)
        with pytest.raises(PreconditionError, match="augmenting"):
            apply_trail(cell_instance, r, trail)

    @pytest.mark.parametrize("step", [
        TrailStep(1, 4, None),  # cell 4 lies in set 2, not set 1
        TrailStep(1, 3, None),  # cells 0 and 3 share the symbol 1
    ])
    def test_rejects_a_trail_that_fails_validation(self, cell_instance,
                                                   step):
        r = RainbowAssignment({0: 0})
        with pytest.raises(PreconditionError, match=(
                "trail fails validation against the assignment")):
            apply_trail(cell_instance, r, Trail((step,), True))

    def test_size_preserving_trail_is_a_theorem_violation(
            self, cell_instance, monkeypatch):
        # A validator that wrongly accepts a trail ending in a removal must
        # not let the assignment stay the same size, under -O as well.
        monkeypatch.setattr(solver, "validate_trail", lambda *args: True)
        r = RainbowAssignment({0: 0})
        trail = Trail((TrailStep(1, 3, 0),), True)
        with pytest.raises(TheoremViolationError, match="size 1 to 1"):
            apply_trail(cell_instance, r, trail)

    def test_invariants_hold_under_optimize(self, run_python):
        tests = Path(__file__).parent
        out = run_python(
            "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
            f"{tests / 'test_solver.py'}::TestApplyTrail::"
            "test_size_preserving_trail_is_a_theorem_violation",
            f"{tests / 'test_solver.py'}::TestSweepRound::"
            "test_round_without_candidate_raises",
            f"{tests / 'test_solver.py'}::TestCloseRound::"
            "test_round_without_closing_element_raises")
        assert out.returncode == 0, out.stdout + out.stderr
        assert "3 passed" in out.stdout


class TestSweepRound:
    @pytest.mark.parametrize("choices, witness, fresh, message", [
        ({0: 0, 1: 2}, {0: (), 2: ()}, [2],
         "assignment already reached the target size"),
        ({0: 0}, {0: ()}, [], "no fresh set left to process"),
    ])
    def test_shared_preconditions(self, uniform_instance, choices, witness,
                                  fresh, message):
        state = SweepState(witness={x: Trail(steps, False)
                                    for x, steps in witness.items()},
                           fresh=list(fresh))
        with pytest.raises(PreconditionError, match=message):
            sweep_round(uniform_instance, RainbowAssignment(choices), state)
        assert state.fresh == fresh

    def test_replace_branch(self, cell_instance):
        r = RainbowAssignment({0: 0})
        state = SweepState(fresh=[1, 2])
        out = sweep_round(cell_instance, r, state)
        assert out == NewReachable(0, Trail((TrailStep(1, 3, 0),), False))

    def test_direct_augment_branch(self, uniform_instance):
        r = RainbowAssignment({0: 0})
        state = SweepState(fresh=[1])
        out = sweep_round(uniform_instance, r, state)
        assert out == Augment(Trail((TrailStep(1, 2, None),), True))

    def test_round_without_candidate_raises(self):
        # A family set inside R: only possible when the instance invariants
        # are broken, so construct it unvalidated.  By the counting
        # argument a set that passes validate() always has a candidate.
        m = UniformMatroid(3, 3)
        inst = RainbowInstance(m, UniformMatroid(3, 3), ({0}, {0}), 2)
        with pytest.raises(PreconditionError):
            inst.validate()
        r = RainbowAssignment({0: 0})
        with pytest.raises(TheoremViolationError,
                           match="set 1 has no candidate.*validate"):
            sweep_round(inst, r, SweepState(fresh=[1]))

    def test_witness_missing_its_removal_is_a_theorem_violation(
            self, cell_instance):
        # Cell 4 shares column 0 with cell 0, so the round rewinds the
        # witness of 0, which never removes 0.
        r = RainbowAssignment({0: 0})
        state = SweepState(witness={0: Trail((), False)}, fresh=[2])
        with pytest.raises(TheoremViolationError, match="removes no element"):
            sweep_round(cell_instance, r, state)

    def test_truncate_and_swap_branch(self):
        # From the greedy seed the k = 3 round reaches 1 through the step
        # (3, 4, 1).  The k = 4 candidate rewinds that witness, and the
        # N-circuit of its addition 4 holds the unreachable 2: the round
        # cuts the trail there and removes 2 in place of 1.
        inst = random_instance("linear", "linear", 4, 7, 950, ground_size=7)
        r = greedy_seed(inst)
        assert r.choices == {0: 1, 1: 2, 2: 3}
        state = SweepState(fresh=[3, 4, 5, 6])
        first = sweep_round(inst, r, state)
        assert first == NewReachable(1, Trail((TrailStep(3, 4, 1),), False))
        state.witness[1] = first.trail
        out = sweep_round(inst, r, state)
        assert out == NewReachable(2, Trail((TrailStep(3, 4, 2),), False))
        assert validate_trail(inst, r, out.trail)
        trail = _sweep_for_augmenting_trail(inst, r)
        assert trail.augmenting
        assert apply_trail(inst, r, trail).size() == 4
        assert solve(inst).assignment.choices == {1: 2, 2: 3, 3: 4, 6: 6}

    def test_truncate_and_swap_is_needed(self):
        # Elements 2 and 3 are parallel in N.  The k = 3 round rewinds the
        # witness (2, 2, 0) of 0, and the N-circuit {0, 1} of its addition
        # 2 holds the unreachable 1.  The full prefix plus (3, 3, 1) would
        # add both parallel elements; the cut trail removes 1 in place of 0.
        m = GraphicMatroid(8, [(1, 2), (2, 3), (3, 4), (1, 3), (5, 6),
                               (6, 7)])
        n = LinearMatroid(2, [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0),
                              (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
        family = ({0, 4, 5}, {1, 4, 5}, {2, 4, 5}, {3, 4, 5}, {0, 4, 5})
        inst = RainbowInstance(m, n, tuple(map(frozenset, family)), 3)
        inst.validate()
        r = RainbowAssignment({0: 0, 1: 1})
        state = SweepState(fresh=[2, 3, 4])
        first = sweep_round(inst, r, state)
        assert first == NewReachable(0, Trail((TrailStep(2, 2, 0),), False))
        state.witness[0] = first.trail
        out = sweep_round(inst, r, state)
        assert out == NewReachable(1, Trail((TrailStep(2, 2, 1),), False))
        assert validate_trail(inst, r, out.trail)
        full_prefix = Trail((TrailStep(2, 2, 0), TrailStep(3, 3, 1)), False)
        assert not validate_trail(inst, r, full_prefix)


class TestCloseRound:
    @pytest.mark.parametrize("choices, witness, fresh, message", [
        ({0: 0, 1: 2}, {0: (), 2: ()}, [2],
         "assignment already reached the target size"),
        ({0: 0}, {0: ()}, [], "no fresh set left to process"),
    ])
    def test_shared_preconditions(self, uniform_instance, choices, witness,
                                  fresh, message):
        state = SweepState(witness={x: Trail(steps, False)
                                    for x, steps in witness.items()},
                           fresh=list(fresh))
        with pytest.raises(PreconditionError, match=message):
            close_round(uniform_instance, RainbowAssignment(choices), state)
        assert state.fresh == fresh

    def test_witness_extension(self, cell_instance):
        r = RainbowAssignment({0: 0})
        witness = Trail((TrailStep(1, 3, 0),), False)
        state = SweepState(witness={0: witness}, fresh=[2])
        out = close_round(cell_instance, r, state)
        assert out == Augment(
            Trail((TrailStep(1, 3, 0), TrailStep(2, 4, None)), True))

    def test_direct_step(self, uniform_instance):
        r = RainbowAssignment({0: 0})
        state = SweepState(witness={0: Trail((), False)}, fresh=[1])
        out = close_round(uniform_instance, r, state)
        assert out == Augment(Trail((TrailStep(1, 2, None),), True))

    def test_rejects_partial_reachable(self, cell_instance):
        r = RainbowAssignment({0: 0})
        with pytest.raises(PreconditionError, match="reachable"):
            close_round(cell_instance, r, SweepState(fresh=[2]))

    def test_witness_missing_its_removal_is_a_theorem_violation(
            self, cell_instance):
        r = RainbowAssignment({0: 0})
        state = SweepState(witness={0: Trail((), False)}, fresh=[2])
        with pytest.raises(TheoremViolationError, match="removes no element"):
            close_round(cell_instance, r, state)

    def test_round_without_closing_element_raises(self):
        # R + 1 is N-dependent, and set 1 holds nothing else: only possible
        # when the instance invariants are broken.  By the augmentation
        # axiom a set that passes validate() always has a closing element.
        inst = RainbowInstance(UniformMatroid(3, 3), UniformMatroid(1, 3),
                               ({0}, {1}), 2)
        with pytest.raises(PreconditionError):
            inst.validate()
        r = RainbowAssignment({0: 0})
        state = SweepState(witness={0: Trail((), False)}, fresh=[1])
        with pytest.raises(TheoremViolationError,
                           match="set 1 has no closing element.*validate"):
            close_round(inst, r, state)


class TestSolve:
    def test_uniform_example(self, uniform_instance):
        out = solve(uniform_instance)
        assert out.status == "solved"
        assert out.assignment.choices == {0: 0, 1: 2}
        assert brute_force_rainbow(uniform_instance, 2) is not None

    def test_cell_example(self, cell_instance):
        out = solve(cell_instance)
        assert out.status == "solved"
        assert out.assignment.size() == 2
        assert out.assignment.choices == {1: 3, 2: 4}
        assert out.assignment.range_set() == frozenset({3, 4})

    def test_drisko_infeasible(self):
        out = solve(drisko_instance(2))
        assert out.status == "infeasible"
        assert out.assignment.size() == 1
        assert out.stats.brute_force_used

    def test_empty_target(self):
        inst = RainbowInstance(UniformMatroid(1, 1), UniformMatroid(1, 1),
                               (), 0)
        out = solve(inst)
        assert out.status == "solved"
        assert out.assignment.size() == 0

    def test_invariants_along_the_way(self, cell_instance):
        out = solve(cell_instance)
        out.assignment.validate(cell_instance)
        assert out.stats.fast_path_augments >= 1
        assert not out.stats.fallback_used

    def test_guaranteed_stall_raises_at_once(self, cell_instance,
                                              forced_stall):
        # cell_instance has 2n - 1 sets and its greedy seed stops at 1.
        with pytest.raises(TheoremViolationError) as err:
            solve(cell_instance)
        assert cell_instance.digest() in str(err.value)
        assert forced_stall == []

    def test_narrow_stall_falls_back(self, forced_stall):
        inst = drisko_instance(2)
        out = solve(inst)
        assert out.status == "infeasible" and out.size() == 1
        assert forced_stall == ["cat", "brute"]

    def test_narrow_stall_rescued_by_cat_search(self):
        # Four rows of a row-Latin array at n = 3: the greedy seed stops
        # at {0: 0, 1: 5}, the sweep runs out of fresh sets, and the cat
        # search finds the augmenting trail, so brute force is not needed.
        inst = encode_array([(1, 3, 2), (3, 1, 2), (3, 2, 1), (2, 1, 3)])
        assert greedy_seed(inst).choices == {0: 0, 1: 5}
        out = solve(inst)
        assert out.stats.cat_search_augments >= 1
        assert not out.stats.brute_force_used
        assert out.size() == lab.max_rainbow(inst).size() == 3


def reference_cat_search(instance, assignment):
    """The cat search testing each removal with the predicate: for every r
    in current and R, whether current + a - r is N-independent."""
    r_set = assignment.range_set()
    m_oracle, n_oracle = instance.m_oracle, instance.n_oracle
    in_span_n = {}
    free = sorted(set(range(len(instance.family))) - set(assignment.choices))
    queue = deque([((), r_set, frozenset(), frozenset())])
    while queue:
        steps, current, used_src, used_add = queue.popleft()
        if len(steps) > len(r_set):
            continue
        for k in free:
            if k in used_src:
                continue
            for a in sorted(instance.family[k] - r_set - used_add):
                plus = current | {a}
                if not m_oracle.is_independent(plus):
                    continue
                if n_oracle.is_independent(plus):
                    return Trail(steps + (TrailStep(k, a, None),), True)
                if a not in in_span_n:
                    in_span_n[a] = (not steps or
                                    not n_oracle.is_independent(r_set | {a}))
                if not in_span_n[a]:
                    continue
                for r in sorted(current & r_set):
                    nxt = plus - {r}
                    if n_oracle.is_independent(nxt):
                        queue.append((steps + (TrailStep(k, a, r),), nxt,
                                      used_src | {k}, used_add | {a}))
    return None


def reference_span_tested_cat_search(instance, assignment):
    """The cat search with two more checks: a trail of more than |R| steps
    is not extended, and a non-root addition is kept only when R + a is
    N-dependent, asked of an N tester on R."""
    r_set = assignment.range_set()
    m_oracle, n_oracle = instance.m_oracle, instance.n_oracle
    if not n_oracle.is_independent(r_set):
        raise PreconditionError("assignment range is dependent in N")
    in_span_n = {}
    extends_r = n_oracle.extender(r_set)
    free = sorted(set(range(len(instance.family))) - set(assignment.choices))
    max_len = len(r_set) + 1
    queue = deque([((), r_set, frozenset(), frozenset())])
    while queue:
        steps, current, used_src, used_add = queue.popleft()
        if len(steps) >= max_len:
            continue
        extends_m = m_oracle.extender(current)
        extends_n = n_oracle.extender(current)
        for k in free:
            if k in used_src:
                continue
            for a in sorted(instance.family[k] - r_set - used_add):
                if not extends_m(a):
                    continue
                if extends_n(a):
                    return Trail(steps + (TrailStep(k, a, None),), True)
                if a not in in_span_n:
                    in_span_n[a] = not steps or not extends_r(a)
                if not in_span_n[a]:
                    continue
                plus = current | {a}
                for r in sorted(n_oracle._circuit(current, a) & r_set):
                    queue.append((steps + (TrailStep(k, a, r),), plus - {r},
                                  used_src | {k}, used_add | {a}))
    return None


def census_narrow_instances():
    """The narrow families of ``TestStuckStateCensus``: random species
    pairs at n = 3, 4 on n + 3 elements with m = 2..2n - 2, and row-Latin
    arrays at n = 3..5 with m = n..2n - 2."""
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
    return narrow


class TestExhaustiveCatSearch:
    @pytest.mark.parametrize("instance, choices, trail", [
        (drisko_instance(4), {0: 0, 1: 5, 2: 10}, None),
        (random_instance("graphic", "graphic", 4, 5, 4, ground_size=7),
         {0: 0, 1: 1, 2: 4},
         Trail((TrailStep(3, 2, 4), TrailStep(4, 6, None)), True)),
    ], ids=["drisko-4", "graphic-rescue"])
    def test_narrow_stall_computes_no_span(self, instance, choices, trail,
                                           monkeypatch):
        # The sweep stalls at these assignments of 2n - 2 and 5 < 2n - 1
        # sets.  An addition a lies in span_N(R) exactly when R + a is
        # N-dependent, so the search needs no span of R.
        assignment = RainbowAssignment(choices).validate(instance)
        assert _sweep_for_augmenting_trail(instance, assignment) is None

        def no_span(self, s):
            raise AssertionError("span computed")

        monkeypatch.setattr(MatroidOracle, "span", no_span)
        assert solver.exhaustive_cat_search(instance, assignment) == trail

    def test_circuit_removals_match_the_predicate_search(self):
        # Over the stuck states of the narrow families of test_lab and of
        # the census, the removals read off C_N(current, a) give the
        # reference's trail (or its None) with fewer calls in total.  A
        # state can cost one call more: the entry test of R, paid when
        # every root addition fails in M.
        instances = list(narrow_search_cases()) + census_narrow_instances()
        states, hits, totals = 0, 0, Counter()
        for inst in instances:
            for assignment in stuck_states(inst, cap=10):
                want, plain = search_calls(inst, reference_cat_search,
                                           assignment)
                got, hooked = search_calls(
                    inst, solver.exhaustive_cat_search, assignment)
                assert got == want, (inst.digest(), assignment.choices)
                assert hooked <= plain + 1, (inst.digest(),
                                             assignment.choices)
                states += 1
                hits += want is not None
                totals["plain"] += plain
                totals["hooked"] += hooked
        print(f"\n{states} states, {hits} hits, {dict(totals)}")
        assert states >= 1500 and hits >= 400
        assert totals["hooked"] < totals["plain"]

    def test_no_span_test_matches_the_span_tested_search(self):
        # Every state the search extends has the N-span of R, so an
        # addition N-dependent on it lies in span_N(R); and each non-final
        # step removes another element of R, so no trail outgrows
        # |R| + 1 steps.  Without either check the search gives the
        # reference's trail (or its None) on every stuck state of the
        # narrow families of test_lab and of the census, never with more
        # calls.
        instances = list(narrow_search_cases()) + census_narrow_instances()
        states, totals = 0, Counter()
        for inst in instances:
            for assignment in stuck_states(inst, cap=10):
                want, checked = search_calls(
                    inst, reference_span_tested_cat_search, assignment)
                got, unchecked = search_calls(
                    inst, solver.exhaustive_cat_search, assignment)
                assert got == want, (inst.digest(), assignment.choices)
                assert unchecked <= checked, (inst.digest(),
                                              assignment.choices)
                states += 1
                totals["checked"] += checked
                totals["unchecked"] += unchecked
        print(f"\n{states} states, {dict(totals)}")
        assert states >= 1500
        assert totals["unchecked"] < totals["checked"]

    def test_dependent_range_rejected(self):
        # The removals are circuit elements only when R is N-independent.
        inst = RainbowInstance(UniformMatroid(3, 4), UniformMatroid(1, 4),
                               ({0, 1}, {2, 3}, {1, 2}), 2)
        with pytest.raises(PreconditionError, match="dependent in N"):
            solver.exhaustive_cat_search(
                inst, RainbowAssignment({0: 0, 1: 2}))


def reference_validate_trail(instance, assignment, trail):
    """The checker with span_N(R) computed in full: the same structural
    checks, then every non-final addition looked up in that span."""
    r_set = assignment.range_set()
    used_sources = set(assignment.choices)
    steps = trail.steps
    if trail.augmenting and not steps:
        raise TrailStructureError("an augmenting trail needs at least one step")
    seen_src, seen_add, seen_rem = set(), set(), set()
    for pos, step in enumerate(steps):
        last = pos == len(steps) - 1
        if not 0 <= step.source < len(instance.family):
            raise TrailStructureError(f"step {pos}: unknown set index {step.source}")
        if step.source in used_sources or step.source in seen_src:
            raise TrailStructureError(f"step {pos}: source index {step.source} reused")
        if step.added in r_set:
            raise TrailStructureError(f"step {pos}: added element {step.added} is in R")
        if step.added in seen_add:
            raise TrailStructureError(f"step {pos}: added element {step.added} reused")
        if step.removed is None:
            if not (last and trail.augmenting):
                raise TrailStructureError(
                    f"step {pos}: only the final step of an augmenting trail "
                    "may omit its removal")
        else:
            if last and trail.augmenting:
                raise TrailStructureError(
                    "the final step of an augmenting trail must omit its removal")
            if step.removed not in r_set:
                raise TrailStructureError(
                    f"step {pos}: removed element {step.removed} is not in R")
            if step.removed in seen_rem:
                raise TrailStructureError(
                    f"step {pos}: removed element {step.removed} reused")
        seen_src.add(step.source)
        seen_add.add(step.added)
        if step.removed is not None:
            seen_rem.add(step.removed)

    if not steps:
        return True

    m_oracle, n_oracle = instance.m_oracle, instance.n_oracle
    span_n_r = n_oracle.span(r_set)
    current = set(r_set)
    for step in steps:
        if step.added not in instance.family[step.source]:
            return False
        current.add(step.added)
        if not m_oracle.is_independent(current):
            return False
        if step.removed is None:
            return n_oracle.is_independent(current)
        current.discard(step.removed)
        if not n_oracle.is_independent(current):
            return False
        if step.added not in span_n_r:
            return False
    return True


@dataclass
class SpanSweepState(SweepState):
    """A sweep state that also keeps span_N(R), filled in by the first
    reference round of its sweep."""

    span_n_r: frozenset | None = None


def reference_sweep_round(instance, assignment, state):
    """The round with the spans of R computed in full, span_M(R) in every
    round and span_N(R) once per sweep, and each membership looked up."""
    if assignment.size() >= instance.n:
        raise PreconditionError("assignment already reached the target size")
    if not state.fresh:
        raise PreconditionError("no fresh set left to process")
    k = state.fresh.pop(0)
    r_set = assignment.range_set()
    m_oracle, n_oracle = instance.m_oracle, instance.n_oracle
    span_m_rest = m_oracle.span(r_set - state.reachable)
    span_n_reach = n_oracle.span(state.reachable)
    span_m_r = m_oracle.span(r_set)
    if state.span_n_r is None:
        state.span_n_r = n_oracle.span(r_set)
    a = next((a for a in sorted(instance.family[k] - r_set)
              if a not in span_m_rest and a not in span_n_reach), None)
    if a is None:
        raise TheoremViolationError(f"set {k} has no candidate")

    prefix = ()
    if a in span_m_r:
        c_m = m_oracle.fundamental_circuit(r_set, a)
        prefix = solver._rewind_prefix(
            state.witness[min(c_m & state.reachable)], c_m)
        applied = solver._applied_keep_last(r_set, prefix)
        if a in applied or not m_oracle.is_independent(applied):
            raise TheoremViolationError(
                f"the rewound witness for {a} contains it or is M-dependent")
        if m_oracle.fundamental_circuit(applied, a) != c_m:
            raise TheoremViolationError(
                f"the M-circuit of {a} drifted during the rewind")
    if a not in state.span_n_r:
        return Augment(Trail(prefix + (TrailStep(k, a, None),), True))
    r_new = min(n_oracle.fundamental_circuit(r_set, a) - state.reachable)
    for pos, step in enumerate(prefix):
        if step.added not in state.span_n_r:
            raise TheoremViolationError(
                f"witness addition {step.added} lies outside span_N(R)")
        if r_new in n_oracle.fundamental_circuit(r_set, step.added):
            steps = prefix[:pos] + (TrailStep(step.source, step.added, r_new),)
            return NewReachable(r_new, Trail(steps, False))
    return NewReachable(r_new, Trail(prefix + (TrailStep(k, a, r_new),), False))


def long_sweep_trails(rounds):
    """The witness and augmenting trails of at least two steps among
    recorded sweep rounds."""
    return sum(len(result.trail.steps) >= 2 for _, _, result in rounds)


def test_sweep_round_matches_the_span_reference(monkeypatch, sweep_rounds):
    # Every sweep round from the stuck states of guaranteed and narrow
    # random instances and row-Latin arrays, against the reference on a
    # copy of the same state: the same result, the same fresh sets left,
    # and never more predicate calls.  The instances of the truncate and
    # swap test and of its graphic sibling are in the census too.
    real, mirror, kinds = solver.sweep_round, [None, None], Counter()

    def predicate_calls(instance):
        return sum(instance.oracle_calls().values())

    def checked(instance, assignment, state):
        if mirror[0] is not state:
            mirror[:] = [state, SpanSweepState()]
        ref = mirror[1]
        ref.witness = dict(state.witness)
        ref.fresh = list(state.fresh)
        k = state.fresh[0]
        before = predicate_calls(instance)
        want = reference_sweep_round(instance, assignment, ref)
        middle = predicate_calls(instance)
        got = real(instance, assignment, state)
        assert got == want and state.fresh == ref.fresh, (got, want)
        assert predicate_calls(instance) - middle <= middle - before, got
        if isinstance(got, NewReachable) and got.trail.steps[-1].source != k:
            kinds["truncated"] += 1
        else:
            kinds[type(got).__name__] += 1
        return got

    monkeypatch.setattr(solver, "sweep_round", checked)
    pairs = (("uniform", "partition"), ("partition", "partition"),
             ("partition", "graphic"), ("graphic", "graphic"),
             ("graphic", "linear"), ("linear", "linear"))
    rng = random.Random(12)
    instances = [random_instance(a, b, n, m, seed, ground_size=n + 3)
                 for a, b in pairs for n in (3, 4)
                 for m in range(n, 2 * n) for seed in range(3)]
    instances += [encode_array(random_row_latin(n, m, rng))
                  for n in (3, 4, 5) for m in range(n, 2 * n)
                  for _ in range(2)]
    instances += [random_instance("linear", "linear", 4, 7, 950,
                                  ground_size=7),
                  random_instance("graphic", "graphic", 4, 6, 457,
                                  ground_size=8)]
    for inst in instances:
        for assignment in stuck_states(inst, cap=30):
            _sweep_for_augmenting_trail(inst, assignment)
    print(f"\n{dict(kinds)}, {long_sweep_trails(sweep_rounds)} of "
          f"{len(sweep_rounds)} trails with two or more steps")
    assert kinds["truncated"] >= 10 and kinds["Augment"] >= 300
    assert kinds["NewReachable"] >= 1500
    # The sweep builds long exchange trails here, not only one-step ones.
    assert long_sweep_trails(sweep_rounds) >= 100


#: The structural errors of a trail, one pattern per kind of message.
STRUCTURAL = ("needs at least one step", "unknown set index",
              "source index .* reused", "added element .* is in R",
              "added element .* reused", "may omit its removal",
              "must omit its removal", "removed element .* is not in R",
              "removed element .* reused")


def random_assignment(instance, rng, dependent=None):
    """A random rainbow assignment.  With dependent None every pick keeps
    the range independent in both matroids, which leaves it maximal;
    with "M" or "N" picks are unchecked until that side is dependent."""
    choices = {}
    indices = list(range(len(instance.family)))
    rng.shuffle(indices)
    for idx in indices:
        picks = sorted(instance.family[idx] - set(choices.values()))
        rng.shuffle(picks)
        for x in picks:
            r = set(choices.values()) | {x}
            if dependent is not None or (
                    instance.m_oracle.is_independent(r)
                    and instance.n_oracle.is_independent(r)):
                choices[idx] = x
                break
        oracle = {"M": instance.m_oracle, "N": instance.n_oracle}.get(dependent)
        if oracle is not None and not oracle.is_independent(
                choices.values()):
            break
    return RainbowAssignment(choices)


def random_trail(instance, assignment, rng):
    """Distinct unused sources, additions outside R from each source's set
    (or from anywhere), distinct removals from R, then at most one
    structural fault."""
    r = sorted(assignment.range_set())
    ground = range(instance.m_oracle.ground_size)
    free = [k for k in range(len(instance.family))
            if k not in assignment.choices]
    augmenting = rng.random() < 0.5
    length = min(rng.randint(1, len(r) + 1), len(free),
                 len(r) + augmenting)
    sources = rng.sample(free, length)
    removals = rng.sample(r, max(0, length - augmenting))
    steps, added = [], set()
    for pos, k in enumerate(sources):
        pool = sorted((instance.family[k] if rng.random() < 0.8
                       else set(ground)) - assignment.range_set() - added)
        if not pool:
            break
        a = rng.choice(pool)
        added.add(a)
        removed = removals[pos] if pos < len(removals) else None
        steps.append(TrailStep(k, a, removed))
    return fault(instance, assignment, Trail(tuple(steps), augmenting), rng)


def fault(instance, assignment, trail, rng):
    """trail with one random structural fault, or unchanged."""
    steps = list(trail.steps)
    if not steps or rng.random() < 0.6:
        return trail
    pos = rng.randrange(len(steps))
    step = steps[pos]
    r = sorted(assignment.range_set())
    kind = rng.randrange(9)
    if kind == 0:
        return Trail((), True)
    if kind == 1:
        steps[pos] = replace(step, source=len(instance.family))
    elif kind == 2 and assignment.choices:
        steps[pos] = replace(step,
                             source=rng.choice(sorted(assignment.choices)))
    elif kind == 3 and r:
        steps[pos] = replace(step, added=rng.choice(r))
    elif kind == 4 and pos:
        steps[pos] = replace(step, added=steps[0].added)
    elif kind == 5:
        steps[pos] = replace(step, removed=None)
        return Trail(tuple(steps), False)
    elif kind == 6 and r:
        steps[-1] = replace(steps[-1], removed=r[0])
        return Trail(tuple(steps), True)
    elif kind == 7:
        outside = sorted(set(range(instance.m_oracle.ground_size))
                         - assignment.range_set())
        steps[pos] = replace(step, removed=rng.choice(outside))
    elif kind == 8 and pos and steps[0].removed is not None:
        steps[pos] = replace(step, removed=steps[0].removed)
    return Trail(tuple(steps), trail.augmenting)


def outcome(check, instance, assignment, trail):
    """check's answer, or the type of what it raised, and the predicate
    calls it made."""
    before = sum(instance.oracle_calls().values())
    try:
        answer = check(instance, assignment, trail)
    except Exception as exc:  # compared by type
        answer = type(exc)
    return answer, sum(instance.oracle_calls().values()) - before


def test_validate_trail_matches_the_span_reference(sweep_rounds):
    # The trails the sweep itself builds from random maximal assignments
    # and, on random species pairs, from stuck states (long exchange
    # trails included), each also with one structural fault, and random
    # trails on valid, M-dependent and N-dependent ranges, over random
    # species pairs and row-Latin arrays.
    rng = random.Random(2024)
    pairs = (("uniform", "partition"), ("partition", "graphic"),
             ("graphic", "linear"), ("linear", "linear"))
    species = [random_instance(a, b, n, 2 * n - 1, seed, ground_size=n + 3)
               for a, b in pairs for n in (3, 4) for seed in range(6)]
    arrays = [encode_array(random_row_latin(n, 2 * n - 1, rng))
              for n in (3, 4, 5) for _ in range(6)]
    cases = []

    def swept(instance, assignment):
        # The trails the sweep builds from assignment, and each with a fault.
        start = len(sweep_rounds)
        _sweep_for_augmenting_trail(instance, assignment)
        built = [(i, a, result.trail) for i, a, result in sweep_rounds[start:]]
        return built + [(i, a, fault(i, a, t, rng)) for i, a, t in built]

    for instance in species + arrays:
        for _ in range(3):
            assignment = random_assignment(instance, rng)
            if assignment.size() < instance.n:
                cases += swept(instance, assignment)
            for dependent in (None, "M", "N"):
                if dependent is not None:
                    assignment = random_assignment(instance, rng, dependent)
                cases += [(instance, assignment,
                           random_trail(instance, assignment, rng))
                          for _ in range(8)]
    # Random maximal assignments of 2n - 1 random pairs almost always reach
    # n, so the sweeps on species pairs also start from stuck states.
    start = len(sweep_rounds)
    for instance in species:
        for assignment in stuck_states(instance, cap=10):
            cases += swept(instance, assignment)
    species_rounds = sweep_rounds[start:]

    answers, errors, long_trails, long_accepted = set(), set(), 0, 0
    for instance, assignment, trail in cases:
        want, want_calls = outcome(reference_validate_trail,
                                   instance, assignment, trail)
        got, got_calls = outcome(validate_trail, instance, assignment, trail)
        assert got == want and type(got) is type(want), trail
        assert got_calls <= want_calls, trail
        answers.add(got)
        if got is TrailStructureError:
            try:
                validate_trail(instance, assignment, trail)
            except TrailStructureError as exc:
                errors.update(p for p in STRUCTURAL if re.search(p, str(exc)))
        elif sum(s.removed is not None for s in trail.steps) >= 2:
            long_trails += 1
            long_accepted += got is True
    print(f"\n{len(cases)} trails, {long_trails} with two or more non-final "
          f"steps ({long_accepted} valid); the sweep built "
          f"{long_sweep_trails(sweep_rounds)} of {len(sweep_rounds)} with "
          f"two or more steps, {long_sweep_trails(species_rounds)} of "
          f"{len(species_rounds)} from stuck states of species pairs")
    assert answers == {True, False, TrailStructureError}
    assert errors == set(STRUCTURAL)
    assert long_accepted >= 20
    assert long_sweep_trails(sweep_rounds) >= 20
    assert long_sweep_trails(species_rounds) >= 10


def test_drisko_flip_predicate_calls_bounded():
    # The primary metric on the flip path: every independence test made
    # encoding and solving the 120 single-row extensions of
    # drisko_instance(5).  42960 is the count with no span of an empty
    # reachable set, which holds only loops; computing it made 48672, with
    # the sweep testing membership in span_M(R) and span_N(R) by one
    # predicate call each; computing span_M(R) per round and span_N(R) per
    # sweep made 68928, checking every round's trail with validate_trail
    # as well made 73200, and computing span_N(R) in every sweep round and
    # in every trail check made 110064.
    n = 5
    rows = ([tuple(range(1, n + 1))] * (n - 1)
            + [tuple(range(2, n + 1)) + (1,)] * (n - 1))
    total = 0
    for perm in itertools.permutations(range(1, n + 1)):
        instance = encode_array(rows + [perm])
        assert solve(instance).status == "solved"
        total += sum(instance.oracle_calls().values())
    assert total <= 42960


@pytest.mark.parametrize("n", [8, 12, 16])
def test_flip_predicate_calls_grow_like_n_cubed(n):
    # A flip needs one sweep of about n rounds, each computing two spans
    # over the n(2n - 1) cells.  Three random rows appended in turn to the
    # 2n - 2 Drisko rows: each solve stays within 4n^3 predicate calls
    # (3.53-3.69 n^3 measured, or 137-279 calls when the greedy seed
    # alone reaches size n).
    rng = random.Random(n)
    rows = ([tuple(range(1, n + 1))] * (n - 1)
            + [tuple(range(2, n + 1)) + (1,)] * (n - 1))
    for _ in range(3):
        row = list(range(1, n + 1))
        rng.shuffle(row)
        instance = encode_array(rows + [tuple(row)])
        assert solve(instance).status == "solved"
        assert sum(instance.oracle_calls().values()) <= 4 * n ** 3


def pinned_inputs():
    """Drisko flips at n = 3..6, the six generator species pairs at
    n = 2..5 with seeds 0-2, and 16 random row-Latin arrays."""
    for n in range(3, 7):
        rows = ([tuple(range(1, n + 1))] * (n - 1)
                + [tuple(range(2, n + 1)) + (1,)] * (n - 1))
        for perm in itertools.permutations(range(1, n + 1)):
            yield encode_array(rows + [perm])
    for species_m, species_n in (("uniform", "partition"),
                                 ("partition", "partition"),
                                 ("partition", "graphic"),
                                 ("graphic", "graphic"),
                                 ("graphic", "linear"), ("linear", "linear")):
        for n in range(2, 6):
            for seed in range(3):
                yield random_instance(species_m, species_n, n, 2 * n - 1, seed)
    rng = random.Random(16)
    for n in (3, 4, 5, 6) * 4:
        yield encode_array(random_row_latin(n, 2 * n - 1, rng))


def test_solver_answers_pinned():
    # Every answer the solver gives here, (status, size, sorted
    # assignment), hashed and pinned to the digest of the code that
    # computed span_N(R) in every round: a change to the sweep or to trail
    # checking must leave each answer as it is.
    digest = hashlib.sha256()
    for instance in pinned_inputs():
        out = solve(instance)
        digest.update(json.dumps(
            [out.status, out.size(),
             sorted(out.assignment.choices.items())]).encode() + b"\n")
    assert digest.hexdigest() == ("3076afb4387e1255fea704249f34f0f0"
                                  "45d0fb378f006debae77110b4e4b9109")
