"""Randomized property harnesses for the oracle-level facts.

Each harness draws random oracles of one species, searches for inputs that
satisfy the relevant hypotheses (rejection sampling; only accepted cases
count toward the quota), and records any counterexample found.  The fact
harnesses check the matroid facts the solver rests on; the extender
harness checks each species' extension tester against the predicate.  Each
accepted case is folded, with its oracle's ``describe()``, into a digest,
so two versions of the library can be shown to draw the same cases.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field

from .lab import HypothesisError, check_lemma3, random_oracle
from .matroids import ParallelLiftMatroid


@dataclass
class HarnessResult:
    name: str
    species: str
    accepted: int
    failures: list = field(default_factory=list)
    _cases: object = field(default_factory=hashlib.sha256, repr=False,
                           compare=False)

    @property
    def ok(self):
        return not self.failures

    @property
    def digest(self):
        """sha256 prefix over every accepted case and its oracle, in order."""
        return self._cases.hexdigest()[:16]

    def accept(self, oracle, case):
        """Count an accepted case and fold it, with its oracle, into the
        digest."""
        self.accepted += 1
        self._cases.update(json.dumps([oracle.describe(), case],
                                      sort_keys=True).encode() + b"\n")


def _random_independent(oracle, rng, max_size):
    """Random independent set grown in a random element order."""
    order = list(range(oracle.ground_size))
    rng.shuffle(order)
    out = set()
    for x in order:
        if len(out) >= max_size:
            break
        out.add(x)
        if not oracle.is_independent(out):
            out.discard(x)
    return frozenset(out)


def _random_circuit(oracle, rng):
    """Random circuit, or None if the oracle has none: grow until dependent,
    then strip elements whose removal keeps the set dependent."""
    order = list(range(oracle.ground_size))
    rng.shuffle(order)
    current = set()
    for x in order:
        current.add(x)
        if not oracle.is_independent(current):
            break
    else:
        return None
    shrink = list(current)
    rng.shuffle(shrink)
    # One pass suffices: an element whose removal leaves the set independent
    # leaves every smaller set independent too.
    for y in shrink:
        if not oracle.is_independent(current - {y}):
            current.discard(y)
    return frozenset(current)


def _enumerate_circuits(oracle, pool):
    """All circuits inside pool, by exhaustive subset scan."""
    pool = sorted(pool)
    found = []
    for size in range(1, len(pool) + 1):
        for combo in itertools.combinations(pool, size):
            s = frozenset(combo)
            if oracle.is_circuit(s):
                found.append(s)
    return found


def run_fact1_harness(species, cases, seed):
    """Fundamental circuit: uniqueness inside I + x (exhaustive subset scan)
    and span preservation for every exchangeable element, on oracles of 8
    elements and I of at most 5."""
    rng = random.Random(seed)
    result = HarnessResult("fundamental-circuit", species, 0)
    while result.accepted < cases:
        oracle = random_oracle(species, 8, 1, rng)
        for _ in range(4):
            i = _random_independent(oracle, rng, 5)
            span_i = oracle.span(i)
            candidates = sorted(span_i - i)
            if not candidates:
                continue
            x = rng.choice(candidates)
            circuit = oracle.fundamental_circuit(i, x)
            case = {"i": sorted(i), "x": x}
            all_circuits = _enumerate_circuits(oracle, i | {x})
            if all_circuits != [circuit | {x}]:
                result.failures.append({**case, "why": "not the unique circuit"})
            for a in sorted(circuit):
                swapped = (i | {x}) - {a}
                if not oracle.is_independent(swapped):
                    result.failures.append({**case, "a": a,
                                            "why": "exchange not independent"})
                elif oracle.span(swapped) != span_i:
                    result.failures.append({**case, "a": a,
                                            "why": "span not preserved"})
            result.accept(oracle, case)
            if result.accepted >= cases:
                break
    return result


def run_fact2_harness(species, cases, seed):
    """Augmentation: the returned elements come from J \\ I, number at least
    |J| - |I|, and extend I independently, on oracles of 10 elements."""
    rng = random.Random(seed)
    result = HarnessResult("augmentation", species, 0)
    while result.accepted < cases:
        oracle = random_oracle(species, 10, 2, rng)
        for _ in range(4):
            j = _random_independent(oracle, rng, oracle.ground_size)
            if len(j) < 2:
                continue
            i = _random_independent(oracle, rng, rng.randint(0, len(j) - 1))
            if len(i) >= len(j):
                continue
            added = oracle.augment_from(i, j)
            case = {"i": sorted(i), "j": sorted(j)}
            if not added <= (j - i):
                result.failures.append({**case, "why": "elements outside J \\ I"})
            if len(added) < len(j) - len(i):
                result.failures.append({**case, "why": "too few elements"})
            if not oracle.is_independent(i | added):
                result.failures.append({**case, "why": "union dependent"})
            result.accept(oracle, case)
            if result.accepted >= cases:
                break
    return result


def run_fact3_harness(species, cases, seed):
    """Circuit elimination: the witness is a circuit through f avoiding e,
    inside the union of the two inputs, on oracles of 9 elements."""
    rng = random.Random(seed)
    result = HarnessResult("circuit-elimination", species, 0)
    while result.accepted < cases:
        oracle = random_oracle(species, 9, 1, rng)
        for _ in range(8):
            c1 = _random_circuit(oracle, rng)
            c2 = _random_circuit(oracle, rng)
            if c1 is None or c2 is None:
                break
            shared = sorted(c1 & c2)
            only = sorted(c1 - c2)
            if not shared or not only:
                continue
            e = rng.choice(shared)
            f = rng.choice(only)
            witness = oracle.eliminate_circuit(c1, c2, e, f)
            case = {"c1": sorted(c1), "c2": sorted(c2), "e": e, "f": f}
            if not oracle.is_circuit(witness):
                result.failures.append({**case, "why": "witness not a circuit"})
            if f not in witness or e in witness:
                result.failures.append({**case, "why": "witness misses f or keeps e"})
            if not witness <= (c1 | c2) - {e}:
                result.failures.append({**case, "why": "witness leaves the union"})
            result.accept(oracle, case)
            if result.accepted >= cases:
                break
    return result


def _build_swap(oracle, i, k, rng):
    """Try to build a k-step span-preserving swap (X out of I, Y in); returns
    (X, Y) or None."""
    current = set(i)
    x_list, y_list = [], []
    for _ in range(k):
        span_cur = oracle.span(current)
        candidates = sorted(span_cur - current - set(x_list))
        rng.shuffle(candidates)
        placed = False
        for y in candidates:
            circuit = oracle.fundamental_circuit(frozenset(current), y)
            inside = sorted(circuit & (i - set(x_list)))
            if not inside:
                continue
            x = rng.choice(inside)
            current.add(y)
            current.discard(x)
            x_list.append(x)
            y_list.append(y)
            placed = True
            break
        if not placed:
            return None
    return x_list, y_list


def run_lemma3_harness(species, cases, seed):
    """Circuit transfer under a span-preserving swap: the conclusion must
    hold on every hypothesis-satisfying input found, on oracles of 8
    elements and I of at most 5."""
    rng = random.Random(seed)
    result = HarnessResult("circuit-transfer", species, 0)
    while result.accepted < cases:
        oracle = random_oracle(species, 8, 1, rng)
        for _ in range(6):
            i = _random_independent(oracle, rng, 5)
            span_i = oracle.span(i)
            if not span_i - i:
                continue
            k = rng.choice([0, 1, 1, 2])
            swap = _build_swap(oracle, i, k, rng)
            if swap is None:
                continue
            x_list, y_list = swap
            nexts = sorted(span_i - i - set(y_list))
            if not nexts:
                continue
            y_next = rng.choice(nexts)
            circuit = oracle.fundamental_circuit(i, y_next)
            pool = sorted(circuit - set(x_list))
            rng.shuffle(pool)
            for x_next in pool:
                try:
                    conclusion = check_lemma3(oracle, i, x_list, y_list,
                                              y_next, x_next)
                except HypothesisError:
                    continue
                case = {"i": sorted(i), "x_list": x_list, "y_list": y_list,
                        "y_next": y_next, "x_next": x_next}
                result.accept(oracle, case)
                if not conclusion:
                    result.failures.append({**case,
                                            "why": "conclusion failed"})
                break
            if result.accepted >= cases:
                break
    return result


def _counters(oracle):
    """The call counters of oracle and of every lift base below it."""
    out = [oracle.independence_calls]
    while isinstance(oracle, ParallelLiftMatroid):
        oracle = oracle.base
        out.append(oracle.independence_calls)
    return out


def run_extender_harness(species, cases, seed):
    """Extension testers: for a base B, the species tester and that of a
    lift over the oracle answer every x of the ground set, x in B included,
    as ``is_independent(B | {x})`` does, and move every counter, the lift
    base's included, as that call does.  Oracles of 8 elements, lifts of
    10; B is a random independent set or a random subset, often
    dependent."""
    rng = random.Random(seed)
    result = HarnessResult("extender", species, 0)
    while result.accepted < cases:
        oracle = random_oracle(species, 8, 1, rng)
        lift = ParallelLiftMatroid([rng.randrange(8) for _ in range(10)],
                                   oracle)
        for _ in range(4):
            target = rng.choice((oracle, lift))
            ground = range(target.ground_size)
            if rng.random() < 0.5:
                base = _random_independent(target, rng, len(ground))
            else:
                base = frozenset(rng.sample(ground, rng.randint(0, 5)))
            case = {"lift": target is lift, "base": sorted(base)}
            extends = target._extender(base)
            for x in ground:
                before = _counters(target)
                got = extends(x)
                mid = _counters(target)
                want = target.is_independent(base | {x})
                after = _counters(target)
                if got != want:
                    result.failures.append({**case, "x": x,
                                            "why": "answer differs"})
                if ([b - a for a, b in zip(before, mid)]
                        != [b - a for a, b in zip(mid, after)]):
                    result.failures.append({**case, "x": x,
                                            "why": "counters differ"})
            result.accept(target, case)
            if result.accepted >= cases:
                break
    return result


#: Every harness, in the order ``run_all`` runs them and numbers their
#: seeds; a new harness goes last, so the others keep their cases.
HARNESSES = {
    "fact1": run_fact1_harness,
    "fact2": run_fact2_harness,
    "fact3": run_fact3_harness,
    "lemma3": run_lemma3_harness,
    "extender": run_extender_harness,
}


def run_all(species_list, cases, seed):
    """Run every harness for every species; returns a list of results."""
    results = []
    for h_idx, (name, fn) in enumerate(HARNESSES.items()):
        for s_idx, species in enumerate(species_list):
            results.append(fn(species, cases, seed + 1000 * s_idx + 101 * h_idx))
    return results
