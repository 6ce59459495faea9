"""Verification machinery: brute-force search, instance generators, array
encodings and the classical matroid-intersection algorithm.  The randomized
harnesses for the oracle-level facts live in ``harness``.

The searches here use the oracles alone, not the sweep machinery in
``solver``, so the two can cross-check each other: ``verify_instance`` runs
``solve`` against ``max_rainbow``, and ``solve`` falls back on
``max_rainbow`` for narrow families.

``max_common_independent`` keeps, across its augmentations, the elements it
has found spanned by the current set in M1 (never again a source) and in M2
(never again a sink).  An element known M1-spanned is asked nothing again;
one known M2-spanned is never asked M2 again.  Each search tests the other
sources lazily, in order, and stops at the first source that is also a sink;
sinks are tested only when the search reaches them.  A known non-sink cannot
be that source, so its M1 test waits until a search finds no one-element
path and queues every source, in order, for its breadth-first search.  This
is exact because augmenting along a shortest path never shrinks a span
(Cunningham 1986), and because the first source-sink in order is the path an
eager search returns; it uses only the independence predicate and the
species circuit hook, so it holds for every species.

``brute_force_rainbow`` checks forward, and learns from the tests that
fail.  Its used set is always common independent, so a failed test of
used + x proves both preconditions of the failing matroid's circuit hook,
as in the cat search.  A circuit of one element e makes e and x parallel,
and for the rest of the call neither is tested beside the other.  Only
pairs are kept: a larger circuit settles only supersets of itself, which
the search seldom meets again.

Both searches ask "is B + x independent?" of one B for many x, through the
oracles' extension testers (``MatroidOracle.extender``), which read B once.
Each narrowing of ``brute_force_rainbow`` builds an M and an N tester of
its used set, each when first asked: on the relabelled Drisko families
more than half of the testers an eager build makes are never asked.
``_augmenting_path`` builds one tester per matroid for its current set
and asks every source and sink test through them.  A tester counts each
answer as the predicate call it replaces, so every count and answer is
the predicate's.

Generation stops as soon as its answer is settled.  ``random_instance``
learns the common rank from its first search and passes it to every later
one, which stops at that size instead of making a last search that must
fail.  ``random_oracle`` asks only whether the rank reaches ``min_rank``,
with a greedy pass that stops once it holds that many elements.  Neither
rule changes a drawn oracle or a generated set.
"""

from __future__ import annotations

import functools
import json
import random
from collections import deque
from dataclasses import asdict, dataclass

from .matroids import (
    GraphicMatroid,
    LinearMatroid,
    ParallelLiftMatroid,
    PartitionMatroid,
    PreconditionError,
    UniformMatroid,
)
from .solver import RainbowAssignment, RainbowInstance, solve

SPECIES = ("uniform", "partition", "graphic", "linear")


class HypothesisError(ValueError):
    """A harness input does not satisfy the stated hypotheses."""


class GenerationError(RuntimeError):
    """Random instance generation exhausted its retry budget."""


@dataclass(frozen=True)
class LatinArray:
    """Rows of symbols; in row-Latin mode each row is a permutation of
    1..n."""

    rows: tuple
    n: int

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))

    def validate_row_latin(self):
        expected = set(range(1, self.n + 1))
        for idx, row in enumerate(self.rows):
            if len(row) != self.n or set(row) != expected:
                raise PreconditionError(
                    f"row {idx} is not a permutation of 1..{self.n}"
                )
        return self


def random_row_latin(n, m, rng):
    rows = []
    for _ in range(m):
        row = list(range(1, n + 1))
        rng.shuffle(row)
        rows.append(tuple(row))
    return LatinArray(tuple(rows), n)


@functools.lru_cache(maxsize=64)
def _array_cells(m, n):
    """The column of each cell and the cells of each row, for an m x n
    array in row-major order.  Immutable, so arrays of one shape share
    them; the oracles built around them are never shared."""
    col_of = tuple(c for _ in range(m) for c in range(n))
    family = tuple(frozenset(range(i * n, (i + 1) * n)) for i in range(m))
    return col_of, family


def encode_array(rows, value_matroid=None):
    """Encode an array as a rainbow instance: cells are the ground set, one
    family set per row, a capacity-one column partition on one side, and the
    (lifted) value structure on the other.

    With ``value_matroid=None`` the values act as symbols: distinct values
    are required, nothing more, which is exactly the row-Latin transversal
    setting.  With a value matroid, cells sharing a value become parallel
    elements of its lift.
    """
    if isinstance(rows, LatinArray):
        rows = rows.rows
    rows = [tuple(r) for r in rows]
    if not rows:
        raise PreconditionError("the array needs at least one row")
    n = len(rows[0])
    for idx, row in enumerate(rows):
        if len(row) != n:
            raise PreconditionError(
                f"row {idx} has length {len(row)}, expected {n}"
            )
        if len(set(row)) != n:
            raise PreconditionError(f"row {idx} repeats a value")
    col_of, family = _array_cells(len(rows), n)
    m_oracle = PartitionMatroid(col_of, [1] * n)
    values = [v for row in rows for v in row]
    if value_matroid is None:
        symbols = sorted(set(values))
        label = {s: i for i, s in enumerate(symbols)}
        n_oracle = PartitionMatroid([label[v] for v in values],
                                    [1] * len(symbols))
    else:
        for idx, row in enumerate(rows):
            if not value_matroid.is_independent(row):
                raise PreconditionError(
                    f"row {idx} is dependent in the value matroid"
                )
        n_oracle = ParallelLiftMatroid(values, value_matroid)
    return RainbowInstance(m_oracle, n_oracle, family, n)


def drisko_instance(n):
    """The tight family: n-1 identity rows plus n-1 cyclically shifted rows,
    2n-2 rows total.  Its lack of a full rainbow transversal is certified by
    brute force in the tests, never assumed."""
    if n < 2:
        raise PreconditionError("n must be at least 2")
    row_a = tuple(range(1, n + 1))
    row_b = tuple(list(range(2, n + 1)) + [1])
    rows = [row_a] * (n - 1) + [row_b] * (n - 1)
    return encode_array(rows)


def brute_force_rainbow(instance, target):
    """Depth-first search for a rainbow common independent set of the given
    size; first hit in scan order, or None when the space is exhausted.

    The search checks forward.  For each family set not yet decided it
    carries the set's addable elements: those outside the used set whose
    addition keeps it independent in both matroids.  Picking an element
    re-tests only the elements still listed, since an element dependent on
    the used set stays dependent on every superset; a set's own candidates
    are its list, tested already.  The root lists cost two calls per family
    set that is independent in both matroids, since by heredity its every
    element is addable to the empty set; only the elements of a dependent
    set are tested one by one.  A branch is cut when fewer undecided
    sets than elements still needed have a non-empty list.  Only failing
    candidates and branches that cannot reach the target are dropped, in
    the plain scan order, so the first hit and every None are the plain
    search's.

    A failed test learns parallel pairs.  The used set is common
    independent and used + x has just failed in M or in N, which are the
    two preconditions of that matroid's hook ``_circuit(used, x)``; the
    hook is asked only then.  When the circuit is one element e, every set
    holding e and x is dependent, so for the rest of the call x is dropped
    without a test wherever e is used, and e wherever x is.  Only these
    pairs are kept: a larger circuit settles only its own supersets, and
    keeping every circuit saved no call on the Drisko proofs, under 1% on
    the narrow families of the tests, and took more time than it saved.
    A pair settles only answers the test would give, so the lists, the
    first hit and every None stay the same; the built-in species answer
    the hook without a predicate call, so no search makes more calls.

    A hit returns at the pick that completes it: that pick was tested
    addable to the used set when its list was narrowed, so the later lists
    need no narrowing.  A search that proves None never reaches that
    pick."""
    if target < 0 or target > instance.n:
        raise PreconditionError("target must lie between 0 and n")
    if target == 0:
        return RainbowAssignment({})
    m_oracle, n_oracle = instance.m_oracle, instance.n_oracle
    choices = {}
    # The elements known parallel to each element, in M or in N.
    partners = {}

    def is_addable(used, x, testers):
        # testers holds each matroid's tester of used, built when first
        # asked.  used is common independent, so a failed test proves both
        # preconditions of that matroid's circuit hook.
        for oracle in (m_oracle, n_oracle):
            extends = testers.get(oracle)
            if extends is None:
                extends = testers[oracle] = oracle.extender(used)
            if not extends(x):
                circuit = oracle._circuit(used, x)
                if len(circuit) == 1:
                    (e,) = circuit
                    partners.setdefault(e, set()).add(x)
                    partners.setdefault(x, set()).add(e)
                return False
        return True

    def narrowed(used, lists, need, addable):
        # Each list cut to the elements still addable to used, each distinct
        # element tested once (addable holds the answers known so far) and
        # none with a known partner in used; None as soon as fewer than
        # need lists can stay non-empty.
        open_lists = sum(1 for listed in lists if listed)
        testers = {}
        out = []
        for listed in lists:
            kept = []
            for x in listed:
                if x in used:
                    continue
                if x not in addable:
                    addable[x] = (used.isdisjoint(partners.get(x, ()))
                                  and is_addable(used, x, testers))
                if addable[x]:
                    kept.append(x)
            if listed and not kept:
                open_lists -= 1
                if open_lists < need:
                    return None
            out.append(kept)
        return out

    def dfs(idx, used, lists):
        # lists[k] holds the addable elements of family set idx + k.
        need = target - len(choices)
        if need == 0:
            return True
        if sum(1 for listed in lists if listed) < need:
            return False
        for a in lists[0]:
            if need == 1:
                # a was tested addable to used: the pick completes a hit.
                choices[idx] = a
                return True
            grown = used | {a}
            later = narrowed(grown, lists[1:], need - 1, {})
            if later is None:
                continue
            choices[idx] = a
            if dfs(idx + 1, grown, later):
                return True
            del choices[idx]
        return dfs(idx + 1, used, lists[1:])

    # At the root, heredity settles every element of a set independent in
    # both matroids; a dependent set's elements are tested one by one.
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


def max_rainbow(instance, floor=0):
    """The first hit of the largest size from n down to floor + 1, by brute
    force; None when no size above floor has one."""
    for target in range(instance.n, floor, -1):
        best = brute_force_rainbow(instance, target)
        if best is not None:
            return best
    return None


def _augmenting_path(m1, m2, current, order, position, m1_spanned,
                     m2_spanned):
    """Shortest augmenting path in the exchange digraph of the classical
    matroid-intersection algorithm, deterministic in the given order.

    ``m1_spanned`` and ``m2_spanned`` hold elements known to be spanned by
    ``current`` in M1 (not sources) and in M2 (not sinks); they are skipped
    here and every newly failed test is added to them.  ``position`` maps
    each element to its index in ``order``.

    Sources are tested lazily, in order: the search returns at the first
    source that is also a sink, so no element after it is asked about.  An
    element in ``m2_spanned`` cannot be that source, so the scan defers its
    M1 test.  With no source-sink every source is queued, in order, before
    the breadth-first search starts: the deferred elements are tested then,
    so the path found is the one an eager listing finds, and no element is
    asked about twice."""
    s = frozenset(current)
    outside = [y for y in order if y not in s]
    extends_m1, extends_m2 = m1.extender(s), m2.extender(s)

    def is_source(y):
        # A source is a root of the search: it gets parent None.
        if extends_m1(y):
            parent[y] = None
            return True
        m1_spanned.add(y)
        return False

    def is_sink(y):
        # Asked only when the search reaches y, at most once per call.
        if y in m2_spanned:
            return False
        if extends_m2(y):
            return True
        m2_spanned.add(y)
        return False

    parent = {}
    scanned = []
    for y in outside:
        if y in m1_spanned:
            continue
        if y not in m2_spanned:
            if not is_source(y):
                continue
            if is_sink(y):
                return [y]
        scanned.append(y)
    # The scanned elements without a parent are the deferred non-sinks.
    queue = deque(y for y in scanned if y in parent or is_source(y))
    if not queue:
        return None
    # M1 circuit of each non-source addition, computed at most once here.
    m1_circuit = {}
    while queue:
        node = queue.popleft()
        if node in s:
            # node is an element slated for removal; arcs go to additions
            # whose M1-circuit contains it.
            for y in outside:
                if y in parent:
                    continue
                # Every source has a parent, so s + y is dependent in M1.
                if y not in m1_circuit:
                    m1_circuit[y] = m1._circuit(s, y)
                if node in m1_circuit[y]:
                    parent[y] = node
                    if is_sink(y):
                        path = [y]
                        while parent[path[-1]] is not None:
                            path.append(parent[path[-1]])
                        return path
                    queue.append(y)
        else:
            # node is an addition; arcs go to removals repairing M2.  A sink
            # returns as soon as it is reached, so s + node is dependent in M2.
            for x in sorted(m2._circuit(s, node),
                            key=position.__getitem__):
                if x not in parent:
                    parent[x] = node
                    queue.append(x)
    return None


def _order_positions(order, ground_size):
    """Map each element to its index in order; order must be a permutation
    of the ground set, else the first stray, repeated or missing element is
    named.  An entry that is not an ``int``, or is a ``bool``, is a stray
    even when it equals an element, such as ``1.0`` or ``True``."""
    position = {}
    for k, x in enumerate(order):
        if isinstance(x, bool) or not isinstance(x, int):
            raise PreconditionError(
                f"order element {x!r} is not an integer")
        if x not in range(ground_size):
            raise PreconditionError(
                f"order element {x!r} is outside the ground set of size "
                f"{ground_size}")
        if x in position:
            raise PreconditionError(f"order repeats element {x}")
        position[x] = k
    if len(position) < ground_size:
        missing = next(x for x in range(ground_size) if x not in position)
        raise PreconditionError(f"order omits element {missing}")
    return position


def max_common_independent(m1, m2, order=None, *, rank=None):
    """Maximum-cardinality common independent set by repeated shortest
    augmenting paths.

    span_Mi(s) is inside span_Mi(s ^ P) for i = 1, 2 when P is a shortest
    augmenting path, so the spanned elements found by one search stay
    spanned for the rest of this call.  They belong to this call alone:
    another order builds other current sets.

    ``rank``, when given, must be the common rank of m1 and m2.  The loop
    then stops once the current set has that size, without the last search.
    A common independent set of the common rank is maximum, so it has no
    augmenting path (Cunningham 1986): that search would find none and
    return this same set.  A larger ``rank`` is never reached, and the
    loop ends at the failing search as without it.  A smaller one is the
    caller's error: the loop stops there and returns a set that is not
    maximum.  A ``rank`` that is a ``bool``, not an ``int`` or negative
    raises ``PreconditionError`` before any predicate call."""
    if m1.ground_size != m2.ground_size:
        raise PreconditionError("oracles disagree on ground set size")
    if rank is not None and (isinstance(rank, bool)
                             or not isinstance(rank, int) or rank < 0):
        raise PreconditionError(
            f"rank {rank!r} is not a nonnegative integer")
    order = list(order) if order is not None else list(range(m1.ground_size))
    position = _order_positions(order, m1.ground_size)
    current = set()
    m1_spanned, m2_spanned = set(), set()
    while len(current) != rank:
        path = _augmenting_path(m1, m2, current, order, position,
                                m1_spanned, m2_spanned)
        if path is None:
            break
        current.symmetric_difference_update(path)
    return frozenset(current)


def _rank_reaches(oracle, rank):
    """Whether the ground set has rank at least ``rank``: the greedy pass of
    ``max_independent_subset``, stopped once it holds ``rank`` elements.
    Greedy's set only grows, so the full pass would reach ``rank`` too."""
    held = set()
    for x in range(oracle.ground_size):
        if len(held) == rank:
            break
        held.add(x)
        if not oracle.is_independent(held):
            held.discard(x)
    return len(held) >= rank


def random_oracle(species, ground_size, min_rank, rng):
    """Draw a random oracle of the requested species whose ground-set rank is
    at least min_rank.  The rank probe stops at min_rank, so a draw costs at
    most one predicate call per ground element and often far fewer."""
    if min_rank > ground_size:
        raise GenerationError(
            f"no {species} oracle on {ground_size} elements can reach "
            f"rank {min_rank}")
    for _ in range(200):
        if species == "uniform":
            cap = rng.randint(min_rank, min(ground_size, min_rank + 2))
            return UniformMatroid(cap, ground_size)
        if species == "partition":
            blocks = min_rank + rng.randint(0, 2)
            block_of = [rng.randrange(blocks) for _ in range(ground_size)]
            capacity = [rng.randint(1, 2) for _ in range(blocks)]
            oracle = PartitionMatroid(block_of, capacity)
        elif species == "graphic":
            vertices = min_rank + 1 + rng.randint(0, 2)
            edges = []
            for _ in range(ground_size):
                u = rng.randrange(vertices)
                v = rng.randrange(vertices - 1)
                if v >= u:
                    v += 1
                edges.append((u, v))
            oracle = GraphicMatroid(vertices, edges)
        elif species == "linear":
            prime = rng.choice([2, 3, 5])
            dim = min_rank + rng.randint(0, 2)
            columns = []
            for _ in range(ground_size):
                col = [0] * dim
                while not any(col):
                    col = [rng.randrange(prime) for _ in range(dim)]
                columns.append(col)
            oracle = LinearMatroid(prime, columns)
        else:
            raise PreconditionError(f"unknown species {species!r}")
        if _rank_reaches(oracle, min_rank):
            return oracle
    raise GenerationError(
        f"could not draw a {species} oracle of rank >= {min_rank} "
        f"on {ground_size} elements")


def random_instance(species_m, species_n, n, m, seed, ground_size=None):
    """Deterministically seeded instance with m common independent n-sets.

    Each family set is a maximum common independent set found under a random
    preference order, truncated to n elements; by heredity it is common
    independent, so the instance is valid as built.

    The first search settles the common rank.  Below n, the pair is drawn
    again at once; otherwise every later search stops at that rank, and
    each oracle draw stops its rank probe at n (see ``random_oracle``)."""
    if n < 1 or m < 1:
        raise PreconditionError("n and m must be positive")
    g = ground_size if ground_size is not None else 3 * n
    if g < n:
        raise GenerationError(
            f"ground_size {g} is smaller than n = {n}: no set of {n} "
            f"elements fits")
    rng = random.Random(seed)
    last_error = None
    for _ in range(50):
        try:
            m_oracle = random_oracle(species_m, g, n, rng)
            n_oracle = random_oracle(species_n, g, n, rng)
        except GenerationError as exc:
            last_error = exc
            continue
        state = rng.getstate()
        family = []
        rank = None
        for _ in range(m):
            order = list(range(g))
            rng.shuffle(order)
            full = max_common_independent(m_oracle, n_oracle, order=order,
                                          rank=rank)
            if len(full) < n:
                # Every maximum common independent set has the common rank,
                # so the first search settles it; the retry draws as if
                # this shuffle had not been made.
                break
            rank = len(full)
            family.append(frozenset([x for x in order if x in full][:n]))
        else:
            return RainbowInstance(m_oracle, n_oracle, tuple(family), n)
        rng.setstate(state)
        last_error = GenerationError(
            f"common rank below {n} for {species_m} x {species_n}")
    raise GenerationError(
        f"retry budget exhausted generating {species_m} x {species_n}, "
        f"n={n}, m={m}, seed={seed}: {last_error}")


def check_lemma3(m, i, x_list, y_list, y_next, x_next):
    """Check the circuit-transfer conclusion for a hypothesis-satisfying
    swap (X out, Y in) that preserves the span of I.

    Hypothesis violations raise HypothesisError naming the failed premise.
    """
    i = frozenset(i)
    x_set = frozenset(x_list)
    y_set = frozenset(y_list)
    if len(x_set) != len(y_set):
        raise HypothesisError("X and Y must have the same size")
    if not m.is_independent(i):
        raise HypothesisError("I is dependent")
    if not x_set <= i:
        raise HypothesisError("X must be a subset of I")
    span_i = m.span(i)
    if not y_set <= (span_i - i):
        raise HypothesisError("Y must lie in span(I) minus I")
    swapped = (i - x_set) | y_set
    if m.span(swapped) != span_i:
        raise HypothesisError("the swap does not preserve the span of I")
    if y_next not in span_i - i:
        raise HypothesisError("y_next must lie in span(I) minus I")
    if y_next in y_set:
        raise HypothesisError("y_next must be distinct from Y")
    circuit = m.fundamental_circuit(i, y_next)
    if x_next not in circuit - x_set:
        raise HypothesisError(
            "x_next must lie in the circuit of y_next, outside X")
    for y in sorted(y_set):
        if x_next in m.fundamental_circuit(i, y):
            raise HypothesisError(
                "x_next may not lie in the circuit of any element of Y")
    return x_next in m.fundamental_circuit(swapped, y_next)


@dataclass
class VerificationReport:
    """Outcome of running the sweep solver against brute force on one
    instance."""

    digest: str
    n: int
    solver_status: str
    solver_size: int
    brute_size: int
    agree: bool
    fallback_used: bool
    oracle_calls: dict

    def to_json_line(self):
        return json.dumps(asdict(self), sort_keys=True)


def verify_instance(instance):
    """Run the solver and brute force at the same target and compare;
    ``solve`` validates the instance first, unless ``parse_instance_doc``
    has."""
    calls_before = instance.oracle_calls()
    result = solve(instance)
    solver_size = result.assignment.size()
    best = max_rainbow(instance)
    brute_size = best.size() if best is not None else 0
    calls_after = instance.oracle_calls()
    return VerificationReport(
        digest=instance.digest(),
        n=instance.n,
        solver_status=result.status,
        solver_size=solver_size,
        brute_size=brute_size,
        agree=solver_size == brute_size,
        fallback_used=result.stats.fallback_used,
        oracle_calls={"M": calls_after["M"] - calls_before["M"],
                      "N": calls_after["N"] - calls_before["N"]},
    )
