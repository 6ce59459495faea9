"""Corpora, operations and answer checks for the three benchmark workloads.

A corpus is a pure function of the workload seed, so one seed always gives
the same inputs.  The program only ever receives the generated instances.
Every answer is checked against what the theorem fixes (size n when the
family has 2n - 1 sets, best size n - 1 on a relabelled Drisko family),
never against another run of the solver.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass


class WrongAnswer(Exception):
    """An operation returned an answer the theorem rules out."""


@dataclass(frozen=True)
class Op:
    """One corpus entry: a label for reports, the target size and the
    workload-specific input (a generator spec or an encoded instance)."""

    label: str
    n: int
    data: object


@dataclass
class Outcome:
    """What an operation hands back: the solve result, the independence
    calls it made on its instances' oracles, those oracles, and whatever
    the answer check needs."""

    result: object
    predicate_calls: int
    oracles: tuple
    check_data: object = None


def oracle_call_total(instance):
    return sum(instance.oracle_calls().values())


def canonical(result):
    """The part of a result that must be identical on every run."""
    return [result.status, result.size(),
            sorted(result.assignment.choices.items())]


def check_assignment(instance, choices, status, size, want_status, want_size):
    """Raise WrongAnswer unless ``choices`` is a rainbow common independent
    set of the wanted size: distinct picks, each from its own family set,
    independent in both matroids."""
    if status != want_status or size != want_size:
        raise WrongAnswer(f"got {status} at size {size}, "
                          f"want {want_status} at size {want_size}")
    if len(choices) != want_size:
        raise WrongAnswer(f"{len(choices)} picks for size {want_size}")
    picks = list(choices.values())
    if len(set(picks)) != len(picks):
        raise WrongAnswer("an element is picked twice")
    for idx, x in choices.items():
        if not 0 <= idx < len(instance.family) or x not in instance.family[idx]:
            raise WrongAnswer(f"pick {x} is not in family set {idx}")
    picked = frozenset(picks)
    if not instance.m_oracle.is_independent(picked):
        raise WrongAnswer("picked set is dependent in M")
    if not instance.n_oracle.is_independent(picked):
        raise WrongAnswer("picked set is dependent in N")


def drisko_rows(lab, n):
    """The rows of ``lab.drisko_instance(n)`` as symbols 1..n, read back from
    the symbol partition of its encoding."""
    block_of = lab.drisko_instance(n).n_oracle.describe()["block_of"]
    return [[block_of[row * n + col] + 1 for col in range(n)]
            for row in range(2 * n - 2)]


class GenSolve:
    """generate -> write -> parse -> solve -> write, in process, over six
    species pairs covering all four species, at n = 3, 5 or 7."""

    name = "gen_solve"
    # Each pair runs at the n where one op costs about the same (5-11 ms on
    # a 2-core box).  With every pair at every n, the linear pairs at n = 7
    # cost 30 times more than the rest, carried most of the time and the
    # tail, and moved all three time metrics by 10-30% from seed to seed.
    cells = (("uniform", "partition", 7), ("partition", "partition", 5),
             ("partition", "graphic", 5), ("graphic", "graphic", 5),
             ("graphic", "linear", 3), ("linear", "linear", 3))
    per_cell = {"full": 40, "tiny": 1}

    def build(self, mods, seed, scale="full"):
        rng = random.Random(f"{self.name}:{seed}")
        ops = []
        for _ in range(self.per_cell[scale]):
            for species_m, species_n, n in self.cells:
                ops.append(Op(f"{species_m}-{species_n}/n{n}", n,
                              (species_m, species_n,
                               rng.randrange(2 ** 31))))
        return ops

    def run(self, mods, op):
        species_m, species_n, inst_seed = op.data
        n = op.n
        generated = mods.lab.random_instance(species_m, species_n, n,
                                             2 * n - 1, inst_seed)
        text = mods.fileio.dumps_doc(mods.fileio.instance_to_doc(generated))
        parsed, names = mods.fileio.parse_instance(text)
        result = mods.solver.solve(parsed)
        out = mods.fileio.dumps_doc(mods.fileio.result_to_doc(result, names))
        calls = oracle_call_total(generated) + oracle_call_total(parsed)
        return Outcome(result, calls,
                       (generated.m_oracle, generated.n_oracle,
                        parsed.m_oracle, parsed.n_oracle),
                       (generated, out))

    def check(self, op, outcome):
        # Read the answer back from the written document and check it on
        # the generated instance, so the file round trip is checked too.
        generated, out = outcome.check_data
        doc = json.loads(out)
        ids = {name: i for i, name in enumerate(doc["ground"])}
        choices = {int(idx): ids[name]
                   for idx, name in doc["assignment"].items()}
        check_assignment(generated, choices, doc["status"], doc["size"],
                         "solved", op.n)


class DriskoFlip:
    """The 2n - 2 Drisko rows plus one seeded random permutation row,
    appended last, for n = 5..10; encoded at setup."""

    name = "drisko_flip"
    # Op cost grows with n, and at every n about one op in ten is cheap
    # because the greedy seed already reaches size n.  These weights put
    # the median near the middle of the n = 7 ops and the p90 inside the
    # n = 10 ops.  With 20 ops each at n = 5, 6, 8 and 9 the median sat at
    # the top of the n = 7 ops, next to the slower n = 8 ops, and moved by
    # up to 30% with the seed's count of cheap ops.
    per_size = {"full": {5: 30, 6: 30, 7: 80, 8: 10, 9: 10, 10: 80},
                "tiny": {n: 2 for n in range(5, 11)}}

    def build(self, mods, seed, scale="full"):
        rng = random.Random(f"{self.name}:{seed}")
        counts = self.per_size[scale]
        base = {n: drisko_rows(mods.lab, n) for n in counts}
        ops = []
        for n, count in counts.items():
            for _ in range(count):
                row = list(range(1, n + 1))
                rng.shuffle(row)
                ops.append(Op(f"flip/n{n}", n,
                              mods.lab.encode_array(base[n] + [row])))
        return ops

    def run(self, mods, op):
        instance = op.data
        before = oracle_call_total(instance)
        result = mods.solver.solve(instance)
        return Outcome(result, oracle_call_total(instance) - before,
                       (instance.m_oracle, instance.n_oracle))

    def check(self, op, outcome):
        result = outcome.result
        check_assignment(op.data, result.assignment.choices, result.status,
                         result.size(), "solved", op.n)


class DriskoInfeasible:
    """Relabelings of ``drisko_instance(n)``, n = 4 and 5: row order,
    columns and symbols shuffled.  Best size is n - 1."""

    name = "drisko_infeasible"
    # The p50 of 100 falls inside the n = 4 ops (about 3 ms) and the p90
    # inside the n = 5 ops (about 33 ms), each away from the step between
    # them.  n = 6 ops (0.7-0.9 s each) are left out: three of them took
    # 40% of a pass, so a run made only 5 passes and its time metrics moved
    # by more than 25% from run to run; this mix makes over 20.
    per_size = {"full": {4: 70, 5: 30}, "tiny": {4: 2, 5: 1}}

    def build(self, mods, seed, scale="full"):
        rng = random.Random(f"{self.name}:{seed}")
        ops = []
        for n, count in self.per_size[scale].items():
            base = drisko_rows(mods.lab, n)
            for _ in range(count):
                rows = [list(r) for r in base]
                rng.shuffle(rows)
                cols = list(range(n))
                rng.shuffle(cols)
                symbol = list(range(1, n + 1))
                rng.shuffle(symbol)
                rows = [[symbol[row[c] - 1] for c in cols] for row in rows]
                ops.append(Op(f"infeasible/n{n}", n,
                              mods.lab.encode_array(rows)))
        return ops

    run = DriskoFlip.run

    def check(self, op, outcome):
        result = outcome.result
        check_assignment(op.data, result.assignment.choices, result.status,
                         result.size(), "infeasible", op.n - 1)


WORKLOADS = {w.name: w for w in (GenSolve(), DriskoFlip(), DriskoInfeasible())}
