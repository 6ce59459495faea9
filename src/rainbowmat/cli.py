"""File-based front door: solve, verify, generate, counterexample,
encode-latin, stress, and selftest subcommands.

Exit codes: 0 on solved/verified, 2 on infeasible, 1 on error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .fileio import (
    InstanceFormatError,
    dumps_doc,
    instance_to_doc,
    loads_doc,
    parse_instance,
    parse_rows,
    result_to_doc,
)
from .harness import run_all
from .lab import (
    GenerationError,
    LatinArray,
    SPECIES,
    drisko_instance,
    encode_array,
    random_instance,
    verify_instance,
)
from .matroids import MatroidSpecError, PreconditionError
from .solver import solve

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2


def _write(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def _read(path):
    with open(path) as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise InstanceFormatError(
                f"{path}: not a text file ({exc})") from exc


def _species_pair(text):
    parts = text.split(",")
    if len(parts) != 2 or any(p not in SPECIES for p in parts):
        raise argparse.ArgumentTypeError(
            f"expected two of {'/'.join(SPECIES)} separated by a comma")
    return tuple(parts)


def _nonnegative(text):
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a nonnegative integer, got {text!r}")
    return value


def _cmd_solve(args):
    instance, names = parse_instance(_read(args.infile))
    result = solve(instance)
    _write(args.out, dumps_doc(result_to_doc(result, names)))
    return EXIT_OK if result.status == "solved" else EXIT_INFEASIBLE


def _cmd_verify(args):
    instance, _names = parse_instance(_read(args.infile))
    report = verify_instance(instance)
    _write(args.out, report.to_json_line() + "\n")
    return EXIT_OK if report.agree else EXIT_ERROR


def _cmd_generate(args):
    species_m, species_n = args.species
    instance = random_instance(species_m, species_n, args.n, args.m,
                               args.seed, ground_size=args.ground_size)
    _write(args.out, dumps_doc(instance_to_doc(instance)))
    return EXIT_OK


def _cmd_counterexample(args):
    instance = drisko_instance(args.n)
    names = [f"r{i}c{j}" for i in range(len(instance.family))
             for j in range(instance.n)]
    _write(args.out, dumps_doc(instance_to_doc(instance, names)))
    return EXIT_OK


def _symbol(text):
    try:
        return int(text)
    except ValueError:
        return text  # parse_rows names it


def _cmd_encode_latin(args):
    if os.path.exists(args.rows):
        rows = parse_rows(loads_doc(_read(args.rows),
                                    f"rows: {args.rows} is not valid JSON"))
    else:
        # inline form: rows separated by ';', symbols by ','
        rows = parse_rows([[_symbol(v) for v in row.split(",")]
                           for row in args.rows.split(";")])
    array = LatinArray(tuple(tuple(r) for r in rows), len(rows[0]))
    array.validate_row_latin()
    instance = encode_array(array)
    names = [f"r{i}c{j}" for i in range(len(rows)) for j in range(len(rows[0]))]
    _write(args.out, dumps_doc(instance_to_doc(instance, names)))
    return EXIT_OK


def _cmd_stress(args):
    species_m, species_n = args.species
    lines = []
    disagreements = 0
    for offset in range(args.count):
        instance = random_instance(species_m, species_n, args.n, args.m,
                                   args.seed + offset)
        report = verify_instance(instance)
        if not report.agree:
            disagreements += 1
        lines.append(report.to_json_line() + "\n")
    _write(args.out, "".join(lines))
    print(f"stress: {args.count} instances, {disagreements} disagreements",
          file=sys.stderr)
    return EXIT_OK if disagreements == 0 else EXIT_ERROR


def _cmd_selftest(args):
    results = run_all(list(SPECIES), args.cases, args.seed)
    bad = 0
    for res in results:
        status = "ok" if res.ok else f"FAILED ({len(res.failures)} cases)"
        print(f"selftest {res.name} [{res.species}]: "
              f"{res.accepted} cases, {status}, digest {res.digest}")
        bad += len(res.failures)
    return EXIT_OK if bad == 0 else EXIT_ERROR


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rainbowmat",
        description="Rainbow common independent sets in matroid intersections")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("verify", help="compare the solver with brute force")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("generate", help="random instance")
    p.add_argument("--species", type=_species_pair, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ground-size", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("counterexample",
                       help="the tight 2n-2 row family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_counterexample)

    p = sub.add_parser("encode-latin",
                       help="encode row-Latin rows as an instance")
    p.add_argument("--rows", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_encode_latin)

    p = sub.add_parser("stress", help="batch verification across seeds")
    p.add_argument("--species", type=_species_pair, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--count", type=_nonnegative, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_stress)

    p = sub.add_parser("selftest", help="run the randomized fact harnesses")
    p.add_argument("--cases", type=_nonnegative, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except (InstanceFormatError, MatroidSpecError, PreconditionError,
            GenerationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
