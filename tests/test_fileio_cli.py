"""JSON document parsing/serialization and the command-line interface."""

import json
import os
import re
from dataclasses import replace

import pytest

from rainbowmat import (
    InstanceFormatError,
    MatroidOracle,
    ParallelLiftMatroid,
    PreconditionError,
    RainbowInstance,
    UniformMatroid,
    drisko_instance,
    dumps_doc,
    instance_to_doc,
    parse_instance,
    parse_instance_doc,
    random_instance,
    result_to_doc,
    solve,
)
from rainbowmat.cli import main
from rainbowmat.fileio import MAX_LIFT_DEPTH
from rainbowmat.harness import HARNESSES
from rainbowmat.lab import SPECIES
from test_lab import count_validations

SAMPLE = {
    "ground": ["a", "b", "c"],
    "matroid_M": {"type": "uniform", "rank": 2},
    "matroid_N": {
        "type": "partition",
        "block_of": {"a": "x", "b": "x", "c": "y"},
        "capacity": {"x": 1, "y": 1},
    },
    "n": 2,
    "family": [["a", "c"], ["b", "c"], ["a", "c"]],
}

# Malformed variants of SAMPLE: (changed field, new value, error location).
MALFORMED = {
    "string_row": ("family", ["ac", ["b", "c"], ["a", "c"]],
                   r"family\[0\]: expected a list"),
    "family_not_list": ("family", 5, "family: expected a list"),
    "repeated_element": ("family", [["a", "a"], ["b", "c"], ["a", "c"]],
                         r"family\[0\]: repeated element"),
    "rank_not_integer": ("matroid_M", {"type": "uniform", "rank": "x"},
                         "matroid_M.rank: expected an integer"),
    "one_endpoint_edge": ("matroid_M",
                          {"type": "graphic", "vertices": 3,
                           "edge": {"a": [0], "b": [1, 2], "c": [0, 2]}},
                          r"matroid_M.edge\['a'\]: expected two endpoints"),
    "prime_fraction": ("matroid_M",
                       {"type": "linear", "prime": 2.5,
                        "column": {"a": [1], "b": [1], "c": [1]}},
                       "matroid_M.prime: expected an integer, got 2.5"),
    "rank_fraction": ("matroid_M", {"type": "uniform", "rank": 2.9},
                      "matroid_M.rank: expected an integer, got 2.9"),
    "n_fraction": ("n", 2.5, "n: expected an integer, got 2.5"),
    "vertices_fraction": ("matroid_M",
                          {"type": "graphic", "vertices": 3.7,
                           "edge": {"a": [0, 1], "b": [1, 2], "c": [0, 2]}},
                          "matroid_M.vertices: expected an integer, got 3.7"),
    "endpoint_fraction": ("matroid_M",
                          {"type": "graphic", "vertices": 3,
                           "edge": {"a": [0, 2.9], "b": [1, 2],
                                    "c": [0, 2]}},
                          r"matroid_M.edge\['a'\]: expected an integer, "
                          "got 2.9"),
    "rank_string": ("matroid_M", {"type": "uniform", "rank": "2"},
                    "matroid_M.rank: expected an integer, got '2'"),
    "rank_bool": ("matroid_M", {"type": "uniform", "rank": True},
                  "matroid_M.rank: expected an integer, got True"),
    "lift_unknown_value": ("matroid_N",
                           {"type": "lift", "values": ["x", "y"],
                            "value": {"a": "x", "b": "z", "c": "y"},
                            "base": {"type": "uniform", "rank": 2}},
                           r"matroid_N.value\['b'\]: unknown value 'z'"),
    "lift_no_value": ("matroid_N",
                      {"type": "lift", "values": ["x", "y"],
                       "value": {"a": "x", "b": "y"},
                       "base": {"type": "uniform", "rank": 2}},
                      "matroid_N.value: no value for element 'c'"),
    "lift_values_repeat": ("matroid_N",
                           {"type": "lift", "values": ["x", "x"],
                            "value": {"a": "x", "b": "x", "c": "x"},
                            "base": {"type": "uniform", "rank": 2}},
                           "matroid_N.values: duplicate element names"),
    "lift_base_rank_fraction": ("matroid_N",
                                {"type": "lift", "values": ["x", "y"],
                                 "value": {"a": "x", "b": "y", "c": "y"},
                                 "base": {"type": "uniform", "rank": 1.5}},
                                "matroid_N.base.rank: expected an integer"),
    "lift_base_invalid": ("matroid_N",
                          {"type": "lift", "values": ["x", "y"],
                           "value": {"a": "x", "b": "y", "c": "y"},
                           "base": {"type": "uniform", "rank": -1}},
                          "matroid_N: base: rank must be nonnegative"),
}


def malformed(case):
    key, value, _where = MALFORMED[case]
    return {**SAMPLE, key: value}


class TestParse:
    def test_sample_round(self):
        inst, names = parse_instance_doc(SAMPLE)
        assert names == ["a", "b", "c"]
        assert inst.n == 2
        assert inst.family == (frozenset({0, 2}), frozenset({1, 2}),
                               frozenset({0, 2}))
        assert not inst.n_oracle.is_independent({0, 1})

    def test_invalid_json_located(self):
        with pytest.raises(InstanceFormatError, match="invalid JSON"):
            parse_instance("{not json")

    def test_missing_field_located(self):
        doc = dict(SAMPLE)
        del doc["matroid_N"]
        with pytest.raises(InstanceFormatError, match="matroid_N"):
            parse_instance_doc(doc)

    def test_unknown_family_element_located(self):
        doc = dict(SAMPLE)
        doc["family"] = [["a", "z"], ["b", "c"], ["a", "c"]]
        with pytest.raises(InstanceFormatError, match=r"family\[0\].*'z'"):
            parse_instance_doc(doc)

    def test_unknown_matroid_type_located(self):
        doc = dict(SAMPLE)
        doc["matroid_M"] = {"type": "transversal"}
        with pytest.raises(InstanceFormatError, match="matroid_M"):
            parse_instance_doc(doc)

    def test_wrong_size_family_set_rejected(self):
        doc = dict(SAMPLE)
        doc["family"] = [["a"], ["b", "c"], ["a", "c"]]
        with pytest.raises(InstanceFormatError, match="size"):
            parse_instance_doc(doc)

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_document_located(self, case):
        with pytest.raises(InstanceFormatError, match=MALFORMED[case][2]):
            parse_instance_doc(malformed(case))

    def test_degenerate_empty(self):
        doc = {"ground": [], "matroid_M": {"type": "uniform", "rank": 0},
               "matroid_N": {"type": "uniform", "rank": 0},
               "n": 0, "family": []}
        inst, names = parse_instance_doc(doc)
        assert solve(inst).status == "solved"


class TestValidatedOnce:
    """``parse_instance_doc`` validates the instance it builds, and ``solve``
    does not validate that instance again; it validates every other."""

    def test_solve_asks_only_what_it_reports(self):
        # Every call solve makes on a parsed instance is in its stats.  A
        # second solve of the same instance costs the same.
        doc = instance_to_doc(random_instance("partition", "graphic", 4, 7,
                                              seed=5))
        inst, _names = parse_instance_doc(doc)
        spent = []
        for _ in range(2):
            before = sum(inst.oracle_calls().values())
            result = solve(inst)
            spent.append(sum(inst.oracle_calls().values()) - before)
            assert result.status == "solved"
            assert spent[-1] == (result.stats.oracle_calls_m
                                 + result.stats.oracle_calls_n)
        assert spent[0] == spent[1]

    def test_one_validation_per_parsed_document(self, monkeypatch):
        calls = count_validations(monkeypatch)
        inst, _names = parse_instance_doc(SAMPLE)
        solve(inst)
        solve(inst)
        assert calls == [inst]

    def test_other_instances_validated_by_solve(self, monkeypatch):
        # Only the parsed object is trusted: an equal instance built by a
        # caller, or a copy made by dataclasses.replace, is validated.
        inst, _names = parse_instance_doc(SAMPLE)
        equal = RainbowInstance(inst.m_oracle, inst.n_oracle, inst.family,
                                inst.n)
        copy = replace(inst)
        calls = count_validations(monkeypatch)
        solve(equal)
        solve(copy)
        assert calls == [equal, copy]

    def test_hand_built_invalid_family_refused(self):
        inst, _names = parse_instance_doc(SAMPLE)
        short = replace(inst, family=({0}, {1, 2}, {0, 2}))
        with pytest.raises(PreconditionError,
                           match=r"family\[0\] has size 1, expected 2"):
            solve(short)
        # a and b share the capacity-one block x of N.
        clash = RainbowInstance(inst.m_oracle, inst.n_oracle,
                                ({1, 2}, {0, 1}, {0, 2}), 2)
        with pytest.raises(PreconditionError,
                           match=r"family\[1\] is dependent in N"):
            solve(clash)


def test_parse_and_solve_predicate_calls_bounded(tmp_path, monkeypatch):
    # The primary cost metric of ``rainbowmat solve``, over the grid of
    # generated documents that test_lab pins: every independence test made
    # while reading and solving them.  1593 is the count with no span of
    # an empty reachable set in the sweep; computing it made 1617, with
    # each document validated once, by parse_instance_doc, and the solved
    # set not checked again at the end; that check made 1761, and solve
    # validating the document again 2625.
    pairs = (("uniform", "partition"), ("partition", "partition"),
             ("partition", "graphic"), ("graphic", "graphic"),
             ("graphic", "linear"), ("linear", "linear"))
    paths = []
    for species_m, species_n in pairs:
        for n in range(2, 6):
            for seed in range(3):
                path = tmp_path / f"{species_m}-{species_n}-{n}-{seed}.json"
                path.write_text(dumps_doc(instance_to_doc(random_instance(
                    species_m, species_n, n, 2 * n - 1, seed))))
                paths.append(path)
    calls = []
    real = MatroidOracle.is_independent

    def counted(self, s):
        calls.append(None)
        return real(self, s)

    monkeypatch.setattr(MatroidOracle, "is_independent", counted)
    for path in paths:
        assert main(["solve", "--in", str(path),
                     "--out", str(path.with_suffix(".out"))]) == 0
    assert len(calls) <= 1593


class TestSerialize:
    def test_round_trip_identity(self):
        inst = random_instance("partition", "linear", 3, 5, seed=2)
        doc = instance_to_doc(inst)
        again, names = parse_instance_doc(doc)
        assert instance_to_doc(again, names) == doc
        assert again.family == inst.family
        assert again.digest() == inst.digest()

    def test_graphic_round_trip(self):
        inst = random_instance("graphic", "uniform", 2, 3, seed=6)
        doc = json.loads(dumps_doc(instance_to_doc(inst)))
        again, _ = parse_instance_doc(doc)
        assert again.digest() == inst.digest()

    def test_deepest_lift_chain_round_trip(self):
        # Every lift chain the library builds can be written, read back and
        # solved; one level more is refused when it is built (see
        # test_matroids).
        n_oracle = UniformMatroid(2, 3)
        for _ in range(MAX_LIFT_DEPTH):
            n_oracle = ParallelLiftMatroid([0, 1, 2], n_oracle)
        inst = RainbowInstance(UniformMatroid(2, 3), n_oracle,
                               (frozenset({0, 1}), frozenset({1, 2}),
                                frozenset({0, 2})), 2)
        again, _ = parse_instance(dumps_doc(instance_to_doc(inst)))
        assert again.n_oracle.depth == MAX_LIFT_DEPTH
        assert again.digest() == inst.digest()
        assert solve(again).status == "solved"

    def test_dumps_canonical(self):
        text = dumps_doc({"b": 1, "a": [2, 1]})
        assert text == '{\n  "a": [\n    2,\n    1\n  ],\n  "b": 1\n}\n'

    def test_result_doc(self):
        inst, names = parse_instance_doc(SAMPLE)
        doc = result_to_doc(solve(inst), names)
        assert doc["status"] == "solved"
        assert doc["size"] == 2
        assert sorted(doc["assignment"].values()) == ["a", "c"] or \
            sorted(doc["assignment"].values()) == ["b", "c"]
        assert set(doc["assignment"]) <= {"0", "1", "2"}


class TestCli:
    def _solve_file(self, tmp_path, doc):
        src = tmp_path / "inst.json"
        out = tmp_path / "out.json"
        src.write_text(dumps_doc(doc))
        code = main(["solve", "--in", str(src), "--out", str(out)])
        return code, json.loads(out.read_text())

    def test_solve_ok(self, tmp_path):
        code, doc = self._solve_file(tmp_path, SAMPLE)
        assert code == 0
        assert doc["status"] == "solved"

    def test_solve_infeasible_exit_two(self, tmp_path):
        doc = instance_to_doc(drisko_instance(2))
        code, out = self._solve_file(tmp_path, doc)
        assert code == 2
        assert out["status"] == "infeasible"

    def test_solve_malformed_exit_one(self, tmp_path, capsys):
        src = tmp_path / "bad.json"
        src.write_text("{}")
        assert main(["solve", "--in", str(src)]) == 1
        assert "missing" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_solve_malformed_document_exit_one(self, case, tmp_path, capsys):
        src = tmp_path / "bad.json"
        src.write_text(dumps_doc(malformed(case)))
        assert main(["solve", "--in", str(src)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert re.search(MALFORMED[case][2], err), err
        assert "Traceback" not in err

    def test_generate_then_solve(self, tmp_path):
        path = tmp_path / "gen.json"
        assert main(["generate", "--species", "graphic,partition",
                     "--n", "3", "--m", "5", "--seed", "4",
                     "--out", str(path)]) == 0
        out = tmp_path / "res.json"
        assert main(["solve", "--in", str(path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["size"] == 3

    def test_generate_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            assert main(["generate", "--species", "linear,linear",
                         "--n", "2", "--m", "3", "--seed", "9",
                         "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_optimized_run_writes_the_same_bytes(self, tmp_path, run_python):
        # generate then solve under -O and without it: asserts stripped by
        # -O must not have carried any of the work.
        outputs = {}
        for flags in ((), ("-O",)):
            work = tmp_path / ("optimized" if flags else "plain")
            work.mkdir()
            for command in (
                    ["generate", "--species", "graphic,linear", "--n", "3",
                     "--m", "5", "--seed", "4", "--out", "inst.json"],
                    ["solve", "--in", "inst.json", "--out", "res.json"]):
                out = run_python(*flags, "-m", "rainbowmat.cli", *command,
                                 cwd=work)
                assert out.returncode == 0, out.stderr
            outputs[flags] = [(work / name).read_bytes()
                              for name in ("inst.json", "res.json")]
        assert outputs[("-O",)] == outputs[()]
        assert json.loads(outputs[()][1])["size"] == 3

    def test_counterexample_is_infeasible(self, tmp_path):
        path = tmp_path / "cx.json"
        assert main(["counterexample", "--n", "3", "--out", str(path)]) == 0
        out = tmp_path / "res.json"
        assert main(["solve", "--in", str(path), "--out", str(out)]) == 2
        assert json.loads(out.read_text())["size"] < 3

    def test_encode_latin(self, tmp_path):
        path = tmp_path / "latin.json"
        assert main(["encode-latin", "--rows", "1,2;2,1;2,1",
                     "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["n"] == 2
        assert len(doc["family"]) == 3
        inst, _ = parse_instance_doc(doc)
        assert solve(inst).assignment.size() == 2

    @pytest.mark.parametrize("rows, where", [
        ("1,x;2,1", "rows[0][1]: expected an integer, got 'x'"),
        ({"a": 1}, "rows: expected a list of rows"),
        ([], "rows: expected at least one row"),
        ([[1, 2], 5], "rows[1]: expected a list of integers"),
        ([[1, 2], [2, 1.5]], "rows[1][1]: expected an integer, got 1.5"),
        # Existing files that are not JSON: this module and an empty file.
        (__file__, f"rows: {__file__} is not valid JSON ("),
        (os.devnull, f"rows: {os.devnull} is not valid JSON (Expecting"),
    ], ids=["inline_symbol", "object", "empty", "row_not_list", "fraction",
            "python_file", "empty_file"])
    def test_encode_latin_malformed_rows(self, rows, where, tmp_path,
                                         capsys):
        if not isinstance(rows, str):
            path = tmp_path / "rows.json"
            path.write_text(json.dumps(rows))
            rows = str(path)
        out = tmp_path / "latin.json"
        assert main(["encode-latin", "--rows", rows, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["solve", "--in"],
                                         ["verify", "--in"],
                                         ["encode-latin", "--rows"]])
    def test_binary_input_file(self, command, tmp_path, capsys):
        path = tmp_path / "data.bin"
        path.write_bytes(bytes([0x80, 0xff, 0x00, 0x83]))
        assert main(command + [str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not a text file")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, where", [
        (["solve", "--in"], "document: invalid JSON ("),
        (["encode-latin", "--rows"], "rows: {path} is not valid JSON (")])
    def test_too_deeply_nested_input_file(self, command, where, tmp_path,
                                          capsys):
        # Deeper than the JSON decoder can recurse.
        path = tmp_path / "nested.json"
        path.write_text("[" * 200_000)
        assert main(command + [str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where.format(path=path)}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("lifts", [MAX_LIFT_DEPTH, MAX_LIFT_DEPTH + 1,
                                       900])
    def test_lift_nesting_bounded(self, lifts, tmp_path, capsys):
        # Asking a lift recurses once per level: 900 levels parse, but
        # solving them would exhaust the stack.
        base = {"type": "uniform", "rank": 2}
        for _ in range(lifts - 1):
            base = {"type": "lift", "values": ["x", "y", "z"],
                    "value": {"x": "x", "y": "y", "z": "z"}, "base": base}
        doc = {**SAMPLE, "matroid_N": {
            "type": "lift", "values": ["x", "y", "z"],
            "value": {"a": "x", "b": "y", "c": "z"}, "base": base}}
        src = tmp_path / "lift.json"
        src.write_text(json.dumps(doc))
        code = main(["solve", "--in", str(src), "--out",
                     str(tmp_path / "out.json")])
        err = capsys.readouterr().err
        if lifts <= MAX_LIFT_DEPTH:
            assert code == 0
        else:
            assert code == 1
            where = "matroid_N" + ".base" * MAX_LIFT_DEPTH
            assert err == (f"error: {where}: lifts nest more than "
                           f"{MAX_LIFT_DEPTH} deep\n")

    @pytest.mark.parametrize("command", [
        ["stress", "--species", "uniform,partition", "--n", "2", "--m", "3",
         "--count"],
        ["selftest", "--cases"]], ids=["stress", "selftest"])
    @pytest.mark.parametrize("count", ["-1", "x"])
    def test_invalid_count_rejected(self, command, count, capsys):
        # stress writes its report to standard output without --out.
        assert main(command + [count]) == 1
        captured = capsys.readouterr()
        assert (f"error: argument {command[-1]}: expected a nonnegative "
                f"integer, got '{count}'") in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", [
        ["generate", "--n", "2", "--m", "3"],
        ["stress", "--n", "2", "--m", "3", "--count", "1"]],
        ids=["generate", "stress"])
    def test_unknown_species_rejected(self, command, capsys):
        assert main(command + ["--species", "foo,bar"]) == 1
        captured = capsys.readouterr()
        assert ("error: argument --species: expected two of "
                f"{'/'.join(SPECIES)} separated by a comma") in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_verify_agreement(self, tmp_path, capsys):
        src = tmp_path / "inst.json"
        src.write_text(dumps_doc(SAMPLE))
        out = tmp_path / "rep.json"
        assert main(["verify", "--in", str(src), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["agree"] is True

    def test_stress_small(self, tmp_path):
        path = tmp_path / "stress.jsonl"
        assert main(["stress", "--species", "uniform,partition",
                     "--n", "2", "--m", "3", "--count", "4",
                     "--seed", "1", "--out", str(path)]) == 0
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 4
        assert all(json.loads(line)["agree"] for line in lines)

    def test_stress_zero_count_writes_an_empty_report(self, tmp_path,
                                                      capsys):
        path = tmp_path / "stress.jsonl"
        assert main(["stress", "--species", "uniform,partition",
                     "--n", "2", "--m", "3", "--count", "0",
                     "--seed", "1", "--out", str(path)]) == 0
        assert path.read_text() == ""
        assert "0 instances, 0 disagreements" in capsys.readouterr().err

    def test_selftest_small(self, capsys):
        assert main(["selftest", "--cases", "20", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out

    def test_selftest_output_names_the_drawn_cases(self, capsys):
        outs = []
        for seed in (2, 3, 2):
            assert main(["selftest", "--cases", "5", "--seed",
                         str(seed)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[2] != outs[1]
        lines = outs[0].splitlines()
        assert len(lines) == len(HARNESSES) * len(SPECIES)
        assert all(", ok, digest " in line for line in lines)
