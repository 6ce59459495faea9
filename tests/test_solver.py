"""Seeding, trail validation, sweep rounds, and end-to-end solving."""

from pathlib import Path

import pytest

from rainbowmat import solver
from rainbowmat import (
    Augment,
    NewReachable,
    PreconditionError,
    RainbowAssignment,
    RainbowInstance,
    Stalled,
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
from rainbowmat.lab import drisko_instance


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
            f"{tests / 'test_matroids.py'}::TestFundamentalCircuit::"
            "test_verify_facts_rejects_bad_circuit")
        assert out.returncode == 0, out.stdout + out.stderr
        assert "2 passed" in out.stdout


class TestSweepRound:
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

    def test_stalled_when_candidates_exhausted(self):
        # family set inside R: only possible when the instance invariants
        # are broken, so construct it unvalidated
        m = UniformMatroid(3, 3)
        inst = RainbowInstance(m, UniformMatroid(3, 3), ({0}, {0}), 2)
        r = RainbowAssignment({0: 0})
        out = sweep_round(inst, r, SweepState(fresh=[1]))
        assert isinstance(out, Stalled)


class TestCloseRound:
    def test_witness_extension(self, cell_instance):
        r = RainbowAssignment({0: 0})
        witness = Trail((TrailStep(1, 3, 0),), False)
        state = SweepState(reachable={0}, witness={0: witness}, fresh=[2])
        out = close_round(cell_instance, r, state, 2)
        assert out == Augment(
            Trail((TrailStep(1, 3, 0), TrailStep(2, 4, None)), True))

    def test_direct_step(self, uniform_instance):
        r = RainbowAssignment({0: 0})
        state = SweepState(reachable={0},
                           witness={0: Trail((), False)}, fresh=[1])
        out = close_round(uniform_instance, r, state, 1)
        assert out == Augment(Trail((TrailStep(1, 2, None),), True))

    def test_rejects_partial_reachable(self, cell_instance):
        r = RainbowAssignment({0: 0})
        with pytest.raises(PreconditionError, match="reachable"):
            close_round(cell_instance, r, SweepState(fresh=[2]), 2)


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
