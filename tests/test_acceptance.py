"""Acceptance gate: the eight headline guarantees at full scale.

Each test prints a single PASS line on success (visible with pytest -s);
a failure surfaces through the assertion itself.  The corpora built for
the size-guarantee tests are reused by the brute-force cross-check, the
fast-path accounting, and the determinism check.
"""

import itertools
import random

import pytest

from rainbowmat import (
    brute_force_rainbow,
    drisko_instance,
    dumps_doc,
    encode_array,
    instance_to_doc,
    random_instance,
    result_to_doc,
    solve,
)
from rainbowmat.fileio import default_names
from rainbowmat.harness import HARNESSES, run_all
from rainbowmat.lab import SPECIES, random_oracle, random_row_latin

PAIRS = [
    ("partition", "partition"),
    ("partition", "graphic"),
    ("graphic", "linear"),
    ("linear", "linear"),
]
SEEDS_PER_CELL = 200
LATIN_PER_N = 500
FOREST_ARRAYS_PER_N = 100


def _random_independent_row(oracle, n, rng):
    order = list(range(oracle.ground_size))
    rng.shuffle(order)
    row = []
    for x in order:
        if oracle.is_independent(set(row) | {x}):
            row.append(x)
            if len(row) == n:
                return tuple(row)
    raise AssertionError("oracle rank below n")


@pytest.fixture(scope="module")
def corpus_random(request):
    out = []
    for species_m, species_n in PAIRS:
        for n in (2, 3, 4, 5):
            for seed in range(SEEDS_PER_CELL):
                inst = random_instance(species_m, species_n, n,
                                       2 * n - 1, seed=seed)
                out.append((inst, solve(inst)))
    return out


@pytest.fixture(scope="module")
def corpus_latin():
    out = []
    for n in (2, 3, 4, 5):
        rng = random.Random(90 + n)
        for _ in range(LATIN_PER_N):
            inst = encode_array(random_row_latin(n, 2 * n - 1, rng))
            out.append((inst, solve(inst)))
    return out


@pytest.fixture(scope="module")
def corpus_forest():
    out = []
    for n in (2, 3):
        rng = random.Random(40 + n)
        for _ in range(FOREST_ARRAYS_PER_N):
            values = random_oracle("graphic", rng.randint(n + 2, 8), n, rng)
            rows = [_random_independent_row(values, n, rng)
                    for _ in range(2 * n - 1)]
            inst = encode_array(rows, values)
            out.append((inst, solve(inst), values))
    return out


def test_criterion_1_guaranteed_size(corpus_random):
    for inst, result in corpus_random:
        assert result.status == "solved"
        assert result.assignment.size() == inst.n
        picked = result.assignment.range_set()
        assert inst.m_oracle.is_independent(picked)
        assert inst.n_oracle.is_independent(picked)
    print(f"\n[criterion 1] PASS: {len(corpus_random)} width-(2n-1) "
          f"instances all solved at size n with doubly independent output")


def test_criterion_2_tightness():
    flips = 0
    for n in range(2, 8):
        inst = drisko_instance(n)
        assert brute_force_rainbow(inst, n) is None
        rows = ([tuple(range(1, n + 1))] * (n - 1)
                + [tuple(range(2, n + 1)) + (1,)] * (n - 1))
        assert encode_array(rows).digest() == inst.digest()
        for perm in itertools.permutations(range(1, n + 1)):
            out = solve(encode_array(rows + [perm]))
            assert out.status == "solved", (n, perm)
            assert out.assignment.size() == n
            flips += 1
    print(f"\n[criterion 2] PASS: 2n-2 rows certified infeasible for "
          f"n=2..7; all {flips} single-row extensions flip to solvable")


def test_criterion_3_row_latin(corpus_latin):
    for inst, result in corpus_latin:
        assert result.status == "solved"
        assert result.assignment.size() == inst.n
    print(f"\n[criterion 3] PASS: {len(corpus_latin)} random row-Latin "
          f"(2n-1) x n rectangles all have a rainbow transversal of size n")


def test_criterion_4_matroid_values(corpus_forest):
    for inst, result, values in corpus_forest:
        assert result.status == "solved"
        assert result.assignment.size() == inst.n
        picked_values = {inst.n_oracle.value_of[x]
                         for x in result.assignment.range_set()}
        assert len(picked_values) == inst.n
        assert values.is_independent(picked_values)
    print(f"\n[criterion 4] PASS: {len(corpus_forest)} forest-valued "
          f"arrays all yield transversals independent in the value matroid")


def test_criterion_5_brute_force_agreement(corpus_random, corpus_latin):
    checked = 0
    for inst, result in corpus_random + corpus_latin:
        if inst.n > 4 or inst.m_oracle.ground_size > 12:
            continue
        assert (result.status == "solved") == \
            (brute_force_rainbow(inst, inst.n) is not None)
        checked += 1
    narrow = 0
    for species_m, species_n in PAIRS:
        for n in (2, 3):
            for seed in range(25):
                m = 2 * n - 2
                inst = random_instance(species_m, species_n, n, m,
                                       seed=700 + seed)
                out = solve(inst)
                brute = brute_force_rainbow(inst, n)
                assert (out.status == "solved") == (brute is not None)
                if out.status == "infeasible":
                    assert brute_force_rainbow(
                        inst, out.assignment.size()) is not None
                narrow += 1
    print(f"\n[criterion 5] PASS: solver and brute force agree on "
          f"{checked} small corpus instances and {narrow} narrow instances")


def test_criterion_6_fact_harnesses():
    results = run_all(SPECIES, cases=1000, seed=0)
    assert len(results) == len(HARNESSES) * len(SPECIES)
    for res in results:
        assert res.accepted >= 1000
        assert res.ok, (res.name, res.species, res.failures[:3])
    print(f"\n[criterion 6] PASS: {len(results)} harness runs, "
          f">=1000 accepted cases each, zero counterexamples")


def test_criterion_7_fast_path_share(corpus_random, corpus_latin,
                                     corpus_forest):
    fast = slow = 0
    fallback_digests = []
    rows = ([(inst, res) for inst, res in corpus_random + corpus_latin]
            + [(inst, res) for inst, res, _ in corpus_forest])
    for inst, res in rows:
        fast += res.stats.fast_path_augments
        slow += res.stats.cat_search_augments
        if res.stats.fallback_used:
            fallback_digests.append(inst.digest())
    share = fast / max(1, fast + slow)
    for digest in fallback_digests:
        print(f"[criterion 7] fallback on instance {digest}")
    assert share >= 0.99, (fast, slow, fallback_digests)
    print(f"\n[criterion 7] PASS: sweep handled {fast}/{fast + slow} "
          f"augmentations ({share:.2%}); {len(fallback_digests)} fallbacks")


def test_criterion_8_determinism(corpus_random):
    sample = corpus_random[::173]
    for inst, first in sample:
        names = default_names(inst.m_oracle.ground_size)
        doc_a = dumps_doc(result_to_doc(first, names))
        doc_b = dumps_doc(result_to_doc(solve(inst), names))
        assert doc_a == doc_b
    for seed in (0, 17):
        a = random_instance("graphic", "linear", 3, 5, seed=seed)
        b = random_instance("graphic", "linear", 3, 5, seed=seed)
        assert dumps_doc(instance_to_doc(a)) == dumps_doc(instance_to_doc(b))
    print(f"\n[criterion 8] PASS: {len(sample)} re-solves and 2 "
          f"regenerations byte-identical")
