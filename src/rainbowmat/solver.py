"""Rainbow common independent sets via colorful alternating trails.

Maintains a rainbow set R independent in both matroids, grows the set of
R-elements reachable by alternating trails one sweep round at a time, and
augments whenever an augmenting trail appears.  Deterministic lowest-id
tie-breaking everywhere, so identical inputs give identical runs.

The sweep runs the paper's counting argument, which holds for every
family size.  A fresh set is a common independent n-set, so it meets
span_M(R - reachable) and span_N(reachable) in at most |R| < n elements:
each round reaches a new R-element or augments.  Once every R-element is
reachable, the augmentation axiom gives the closing round an element
with R + a N-independent, and the round augments.  So a round returns or
raises: a round with no candidate, or no closing element, raises
``TheoremViolationError``, since no instance that passes ``validate()``
allows it.  A sweep uses at most |R| + 1 <= n fresh sets, and the only
way it stops without a trail is running out of them.  On 2n - 1 sets
that raises ``TheoremViolationError``; cat search and brute force serve
smaller families.

No span of R itself is ever computed, by the sweep, the trail check or the
cat search.  R is independent in both matroids, and for x outside R, x lies
in span(R) exactly when R + x is dependent: one predicate call, where a
full span costs one per ground element.  The sweep asks this only of
candidates and witness additions, which lie outside R.  The two spans a
round filters with, span_M(R - reachable) and span_N(reachable), depend on
the reachable set and are computed per round, except span_N of an empty
reachable set: it holds only the loops of N, and no element of a family
set is a loop, so the round filters with the empty set.
``validate_trail``, called by ``apply_trail`` on every trail it applies,
is the one trail check, and it uses the same test.

The cat search needs no span test at all.  Each step of its trails adds
an element a with current + a N-dependent and removes an element of R in
the N-circuit C_N(current, a), which keeps current N-independent with the
N-span of R; so an addition N-dependent on a state lies in span_N(R).  It
reads each addition's removals off that N-circuit, from the species hook,
instead of testing every element of R, and it asks its membership
questions through extension testers (``MatroidOracle.extender``), which
read a set once and then answer "is set + x independent?" for each x,
each answer counted as the predicate call it replaces: an M and an N
tester per trail state it extends.  The sweep (``span`` for its two
filters, the candidate and closing tests) and ``greedy_seed`` still ask
the predicate.

``solve`` validates every instance it is given, except one that
``fileio.parse_instance_doc`` has just built and validated: that instance
is marked by ``RainbowInstance._validate_once``, and nothing else is.
"""

from __future__ import annotations

import hashlib
import json
import logging
from collections import deque
from dataclasses import dataclass, field

from .matroids import PreconditionError

logger = logging.getLogger(__name__)


class TrailStructureError(ValueError):
    """A trail violates the structural shape of an alternating trail."""


class TheoremViolationError(RuntimeError):
    """A failed sweep invariant or a stall on 2n - 1 sets: a solver bug,
    unless the instance cannot pass ``RainbowInstance.validate``."""


@dataclass(frozen=True)
class RainbowInstance:
    """Two matroid oracles on one ground set plus a family of common
    independent n-sets."""

    m_oracle: object
    n_oracle: object
    family: tuple
    n: int

    def __post_init__(self):
        object.__setattr__(self, "family",
                           tuple(frozenset(a) for a in self.family))

    def validate(self):
        if self.m_oracle.ground_size != self.n_oracle.ground_size:
            raise PreconditionError("oracles disagree on ground set size")
        if self.n < 0:
            raise PreconditionError("target size must be nonnegative")
        for idx, a in enumerate(self.family):
            if len(a) != self.n:
                raise PreconditionError(
                    f"family[{idx}] has size {len(a)}, expected {self.n}"
                )
            if not self.m_oracle.is_independent(a):
                raise PreconditionError(f"family[{idx}] is dependent in M")
            if not self.n_oracle.is_independent(a):
                raise PreconditionError(f"family[{idx}] is dependent in N")
        return self

    def _validate_once(self):
        """Validate, and mark self so that ``solve`` does not validate it
        again.  Only for an instance its builder has just made
        (``fileio.parse_instance_doc``): an instance is frozen and its
        oracles never change, so the answer cannot change either.  A
        caller's instance is never marked, and ``dataclasses.replace``
        builds an unmarked one."""
        self.validate()
        object.__setattr__(self, "_validated", True)

    def oracle_calls(self):
        return {"M": self.m_oracle.independence_calls,
                "N": self.n_oracle.independence_calls}

    def digest(self):
        payload = json.dumps(
            {"M": self.m_oracle.describe(), "N": self.n_oracle.describe(),
             "n": self.n, "family": [sorted(a) for a in self.family]},
            sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class RainbowAssignment:
    """Injective partial map from family index to a chosen element; its
    range is the rainbow set R."""

    choices: dict = field(default_factory=dict)

    def range_set(self):
        return frozenset(self.choices.values())

    def size(self):
        return len(self.choices)

    def validate(self, instance):
        vals = list(self.choices.values())
        if len(set(vals)) != len(vals):
            raise PreconditionError("assignment reuses an element")
        for idx, x in self.choices.items():
            if not 0 <= idx < len(instance.family):
                raise PreconditionError(f"assignment uses unknown set index {idx}")
            if x not in instance.family[idx]:
                raise PreconditionError(
                    f"assignment maps set {idx} to {x}, which it does not contain"
                )
        r = frozenset(vals)
        if not instance.m_oracle.is_independent(r):
            raise PreconditionError("assignment range is dependent in M")
        if not instance.n_oracle.is_independent(r):
            raise PreconditionError("assignment range is dependent in N")
        return self


@dataclass(frozen=True)
class TrailStep:
    source: int
    added: int
    removed: object  # element id, or None on the final augmenting step


@dataclass(frozen=True)
class Trail:
    steps: tuple
    augmenting: bool


@dataclass
class SweepState:
    """Per-sweep bookkeeping: one witness trail per reachable R-element, and
    the family indices not yet processed.

    A state belongs to one sweep over one R: pass every round the same
    assignment, and start a new state after an augmentation."""

    witness: dict = field(default_factory=dict)
    fresh: list = field(default_factory=list)

    @property
    def reachable(self):
        """The reachable R-elements: a read-only view of the witnessed
        ones."""
        return self.witness.keys()


@dataclass(frozen=True)
class NewReachable:
    element: int
    trail: Trail


@dataclass(frozen=True)
class Augment:
    trail: Trail


@dataclass
class SolveStats:
    fast_path_augments: int = 0
    cat_search_augments: int = 0
    brute_force_used: bool = False
    oracle_calls_m: int = 0
    oracle_calls_n: int = 0

    @property
    def fallback_used(self):
        return self.cat_search_augments > 0 or self.brute_force_used


@dataclass
class SolveResult:
    status: str  # "solved" or "infeasible"
    assignment: RainbowAssignment
    stats: SolveStats
    n: int

    def size(self):
        return self.assignment.size()


def greedy_seed(instance):
    """Inclusion-maximal starting assignment: scan sets in index order,
    elements in id order, keep the first pick that preserves both
    independences."""
    choices = {}
    used = set()
    for idx, a in enumerate(instance.family):
        if len(choices) >= instance.n:
            break
        for x in sorted(a):
            if x in used:
                continue
            candidate = frozenset(used | {x})
            if (instance.m_oracle.is_independent(candidate)
                    and instance.n_oracle.is_independent(candidate)):
                choices[idx] = x
                used.add(x)
                break
    return RainbowAssignment(choices)


def validate_trail(instance, assignment, trail):
    """Check a trail against the current assignment.

    Structural violations (reused source, element already in R, malformed
    final step) raise TrailStructureError; failures of the alternating-trail
    properties return False.

    A non-empty trail is tested against R once: an N-dependent R returns
    False, as the span checks would (an N-independent set of |R| elements
    cannot lie inside span_N(R) when R is dependent).  For N-independent
    R and x outside R, x lies in span_N(R) exactly when R + x is
    N-dependent, so each non-final step costs one predicate call where
    span_N(R) costs one per ground element.
    """
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
            seen_rem.add(step.removed)
        seen_src.add(step.source)
        seen_add.add(step.added)

    if not steps:
        return True

    m_oracle, n_oracle = instance.m_oracle, instance.n_oracle
    if not n_oracle.is_independent(r_set):
        return False
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
        # |current| = |R| and both independent in N, so span equality
        # reduces to current being inside span_N(R), that is, to R + added
        # being N-dependent.
        if n_oracle.is_independent(r_set | {step.added}):
            return False
    return True


def apply_trail(instance, assignment, trail):
    """Apply an augmenting trail, yielding an assignment one larger."""
    if not trail.augmenting:
        raise PreconditionError("only augmenting trails can be applied")
    if not validate_trail(instance, assignment, trail):
        raise PreconditionError("trail fails validation against the assignment")
    value_to_index = {x: idx for idx, x in assignment.choices.items()}
    choices = dict(assignment.choices)
    for step in trail.steps:
        if step.removed is not None:
            del choices[value_to_index[step.removed]]
    for step in trail.steps:
        choices[step.source] = step.added
    new = RainbowAssignment(choices)
    new.validate(instance)
    if new.size() != assignment.size() + 1:
        raise TheoremViolationError(
            f"an accepted augmenting trail took the assignment from size "
            f"{assignment.size()} to {new.size()}")
    return new


def _rewind_prefix(witness, circuit):
    """Truncate a witness trail at the first step whose removal lies in the
    circuit; each witness ends by removing its own element."""
    for pos, step in enumerate(witness.steps):
        if step.removed in circuit:
            return witness.steps[:pos + 1]
    raise TheoremViolationError(
        "the witness trail removes no element of the circuit")


def _applied_keep_last(r_set, prefix):
    """R with the prefix applied, except that the last removal is kept."""
    added = {step.added for step in prefix}
    removed = {step.removed for step in prefix[:-1]}
    return (r_set | added) - removed


def _candidate_branch(instance, state, k, a, r_set):
    """The sweep result for candidate a of fresh set k, which lies outside
    span_M(R - reachable) and span_N(reachable): so its N-circuit has an
    unreachable element and its M-circuit meets the reachable set.

    a and every witness addition lie outside R, so each membership in a
    span of R is one predicate call on R plus that element.

    Why the trail is cut when a witness addition's N-circuit holds r_new:
    let the rewound prefix add y_1..y_p and remove x_1..x_p, all x_i
    reachable, so r_new is none of them.  Each y_i lies in span_N(R), and
    each applied prefix keeps span_N(R).  The circuit-transfer lemma (the
    one ``lab.check_lemma3`` checks) says that r_new stays in the
    N-circuit of the next addition y after the first j steps, provided
    r_new lies in C_N(R, y) and in no C_N(R, y_i) with i <= j.  Then
    removing r_new right after adding y keeps the set N-independent with
    the same span.  With no y_i's circuit holding r_new, the lemma holds
    for y = a, and the full prefix plus (k, a, r_new) is a trail.
    Otherwise, at the first y_j whose circuit holds r_new, it holds for
    y = y_j after j - 1 steps.  So step j, with its removal swapped for
    r_new, ends a trail that removes r_new; its M side is the witness's.
    Past step j the lemma no longer applies, and r_new may have left the
    N-circuit of a."""
    m_oracle, n_oracle = instance.m_oracle, instance.n_oracle
    prefix = ()
    if not m_oracle.is_independent(r_set | {a}):
        # a is spanned by R in M: rewind through an existing witness.
        c_m = m_oracle.fundamental_circuit(r_set, a)
        prefix = _rewind_prefix(state.witness[min(c_m & state.reachable)],
                                c_m)
        applied = _applied_keep_last(r_set, prefix)
        if a in applied or not m_oracle.is_independent(applied):
            raise TheoremViolationError(
                f"the rewound witness for {a} contains it or is M-dependent")
        if m_oracle.fundamental_circuit(applied, a) != c_m:
            # Guaranteed equal for a valid witness; a mismatch means the
            # bookkeeping no longer matches R.
            raise TheoremViolationError(
                f"the M-circuit of {a} drifted during the rewind")

    if n_oracle.is_independent(r_set | {a}):
        return Augment(Trail(prefix + (TrailStep(k, a, None),), True))

    r_new = min(n_oracle.fundamental_circuit(r_set, a) - state.reachable)
    for pos, step in enumerate(prefix):
        if n_oracle.is_independent(r_set | {step.added}):
            raise TheoremViolationError(
                f"witness addition {step.added} lies outside span_N(R)")
        if r_new in n_oracle._circuit(r_set, step.added):
            # Truncate at the first step whose addition could have removed
            # r_new instead; swap that removal for r_new.
            steps = prefix[:pos] + (TrailStep(step.source, step.added, r_new),)
            return NewReachable(r_new, Trail(steps, False))
    return NewReachable(r_new, Trail(prefix + (TrailStep(k, a, r_new),), False))


def _next_fresh(instance, assignment, state):
    """Pop the fresh set a round processes, after the rounds' shared
    preconditions."""
    if assignment.size() >= instance.n:
        raise PreconditionError("assignment already reached the target size")
    if not state.fresh:
        raise PreconditionError("no fresh set left to process")
    return state.fresh.pop(0)


def sweep_round(instance, assignment, state):
    """Process the next fresh set: its first candidate that passes the span
    filters yields a newly reachable R-element with its witness trail, or an
    augmenting trail."""
    k = _next_fresh(instance, assignment, state)
    r_set = assignment.range_set()
    span_m_rest = instance.m_oracle.span(r_set - state.reachable)
    # span_N of no element holds only loops, and no family element is one.
    span_n_reach = (instance.n_oracle.span(state.reachable)
                    if state.reachable else frozenset())

    for a in sorted(instance.family[k] - r_set):
        if a not in span_m_rest and a not in span_n_reach:
            return _candidate_branch(instance, state, k, a, r_set)
    raise TheoremViolationError(f"set {k} has no candidate; no instance "
                                "that passes validate() allows that")


def close_round(instance, assignment, state):
    """Once every R-element is reachable, the next fresh set yields an
    augmenting trail: its first a_n with R + a_n N-independent (the
    augmentation axiom) spliced onto the witness of a clashing M-circuit
    element."""
    r_set = assignment.range_set()
    if state.reachable != r_set:
        raise PreconditionError("close_round requires every R-element reachable")
    k = _next_fresh(instance, assignment, state)
    m_oracle, n_oracle = instance.m_oracle, instance.n_oracle

    for a_n in sorted(instance.family[k] - r_set):
        if not n_oracle.is_independent(r_set | {a_n}):
            continue
        prefix = ()
        if not m_oracle.is_independent(r_set | {a_n}):
            c_m = m_oracle.fundamental_circuit(r_set, a_n)
            prefix = _rewind_prefix(state.witness[min(c_m)], c_m)
        return Augment(Trail(prefix + (TrailStep(k, a_n, None),), True))
    raise TheoremViolationError(f"set {k} has no closing element; no "
                                "instance that passes validate() allows that")


def exhaustive_cat_search(instance, assignment):
    """Breadth-first search over all valid trails for an augmenting one.
    Independent of the sweep machinery; a fallback for families of fewer
    than 2n - 1 sets only.

    R must be N-independent, as in a validated assignment; it is tested
    once, at entry, and an N-dependent R raises ``PreconditionError``.
    Every set the search extends is then N-independent with the N-span of R,
    so when current + a is N-dependent, a lies in span_N(R), and
    current + a - r is N-independent exactly when r lies in the N-circuit
    C_N(current, a): the removals come from the species circuit hook, with
    no predicate call per removal.  Each non-final step removes another
    element of R, so no trail has more than |R| + 1 steps."""
    r_set = assignment.range_set()
    m_oracle, n_oracle = instance.m_oracle, instance.n_oracle
    if not n_oracle.is_independent(r_set):
        raise PreconditionError("assignment range is dependent in N")
    free = sorted(set(range(len(instance.family))) - set(assignment.choices))
    queue = deque([((), r_set, frozenset(), frozenset())])
    while queue:
        steps, current, used_src, used_add = queue.popleft()
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
                plus = current | {a}
                for r in sorted(n_oracle._circuit(current, a) & r_set):
                    queue.append((steps + (TrailStep(k, a, r),), plus - {r},
                                  used_src | {k}, used_add | {a}))
    return None


def _sweep_for_augmenting_trail(instance, assignment):
    """Run sweep rounds until an augmenting trail appears; None when the
    fresh sets run out first."""
    unused = sorted(set(range(len(instance.family))) - set(assignment.choices))
    state = SweepState(fresh=list(unused))
    r_set = assignment.range_set()
    while state.fresh:
        if state.reachable == r_set:
            result = close_round(instance, assignment, state)
        else:
            result = sweep_round(instance, assignment, state)
        if isinstance(result, Augment):
            return result.trail
        state.witness[result.element] = result.trail
    return None


def solve(instance):
    """Grow a rainbow common independent set to the target size.

    The instance is validated first, unless ``parse_instance_doc`` has
    validated it already.  With at least 2n-1 family sets the sweep alone
    reaches size n; smaller families may come back infeasible, certified by
    brute force.

    The solved set is not tested again at the end: every path to size n
    has just tested it.  ``apply_trail`` validates each assignment it
    builds, the greedy seed's last test was its final set, and brute force
    tested its last pick against the others.
    """
    from .lab import max_rainbow  # local import to avoid a cycle

    if not getattr(instance, "_validated", False):
        instance.validate()
    stats = SolveStats()
    calls_before = instance.oracle_calls()
    assignment = greedy_seed(instance)

    while assignment.size() < instance.n:
        trail = _sweep_for_augmenting_trail(instance, assignment)
        if trail is not None:
            stats.fast_path_augments += 1
        elif len(instance.family) >= 2 * instance.n - 1:
            raise TheoremViolationError("the sweep stalled on 2n-1 sets; "
                                        f"instance digest {instance.digest()}")
        else:
            logger.warning("fast path ran out of fresh sets; falling back")
            trail = exhaustive_cat_search(instance, assignment)
            if trail is None:
                break
            stats.cat_search_augments += 1
        assignment = apply_trail(instance, assignment, trail)

    if assignment.size() < instance.n:
        stats.brute_force_used = True
        assignment = max_rainbow(instance, assignment.size()) or assignment

    calls_after = instance.oracle_calls()
    stats.oracle_calls_m = calls_after["M"] - calls_before["M"]
    stats.oracle_calls_n = calls_after["N"] - calls_before["N"]
    status = "solved" if assignment.size() == instance.n else "infeasible"
    return SolveResult(status, assignment, stats, instance.n)
