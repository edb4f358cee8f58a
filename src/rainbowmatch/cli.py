"""Command-line surface.

Commands: solve, check, gen, certify, search, export-dot.  Exit codes:

    0   success (certificate or report on stdout)
    1   a supplied certificate failed verification
    2   hypothesis failure (a k-union is too small)
    3   violation report (falsification channel; never expected): the
        hypothesis holds, yet the construction stalled
    64  unreadable or unparseable input (including non-UTF-8 files, an
        instance side above 2**16, a network instance above 2**10 inner
        vertices and an integer past Python's digit limit), or bad command
        usage
    65  parameter mismatch (sizes, ranges, emptiness and search-size
        bounds), or an instance deeper than the recursive kernels reach
        within Python's recursion limit
    66  malformed certificate file (including a non-UTF-8 one and an
        integer past the digit limit)

The environment variable RAINBOW_SEED overrides --seed wherever a seed is
taken.  gen refuses a flag its family does not take.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .core import EdgeFamily
from .generators import drisko_family, sharpness_family, staircase_family
from .network import build_network
from .regiment import check_structure_lemmas, verify_regimentation
from .search import TARGETS, conjecture_search
from .serialize import (SCHEMA, CertificateError, ParseError, _json_loads,
                        dumps_canonical, family_dumps, family_to_json,
                        load_instance, matching_certificate,
                        matching_from_certificate, network_dot,
                        regimentation_from_certificate)
from .solver import (HypothesisFailure, ViolationReport, solve_main,
                     verify_arrow_statement)

EXIT_OK = 0
EXIT_INVALID_CERT = 1
EXIT_HYPOTHESIS = 2
EXIT_VIOLATION = 3
EXIT_PARSE = 64
EXIT_PARAMS = 65
EXIT_MALFORMED_CERT = 66


class _Parser(argparse.ArgumentParser):
    # flag-level mistakes land in the same bucket as unreadable input
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _read(path: str, malformed: type[ValueError] = ParseError) -> str:
    """The file's text; a file that is not UTF-8 raises `malformed`."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise malformed(f"{path} is not UTF-8 text: {exc}") from exc


def _load_family(path: str) -> EdgeFamily:
    loaded = load_instance(_read(path))
    if not isinstance(loaded, EdgeFamily):
        raise ParseError(f"{path} does not hold a bipartite instance")
    return loaded


def _load_certificate(path: str):
    return _json_loads(_read(path, CertificateError), CertificateError)


def _integer(text: str) -> int:
    """An optional '-' then ASCII digits only; int() alone would also take
    surrounding whitespace, '+', '_' and non-ASCII digits."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(text)


def _seed(args) -> int:
    """RAINBOW_SEED when set, else --seed, else 0."""
    env = os.environ.get("RAINBOW_SEED")
    if env is None:
        return args.seed or 0
    try:
        return _integer(env)
    except (argparse.ArgumentTypeError, ValueError):
        # ValueError: more digits than int() converts
        raise ParseError(f"RAINBOW_SEED must be an integer, got {env!r}") from None


def _cmd_solve(args) -> int:
    fam = _load_family(args.input)
    trail: list = []
    outcome = solve_main(fam, args.k, args.n, trail=trail)
    if isinstance(outcome, HypothesisFailure):
        print(dumps_canonical({"schema": SCHEMA,
                               "hypothesis_failure": outcome.indices}), end="")
        return EXIT_HYPOTHESIS
    if isinstance(outcome, ViolationReport):
        print(dumps_canonical({"schema": SCHEMA,
                               "violation": outcome.detail,
                               "oracle_size": outcome.oracle_size}), end="")
        return EXIT_VIOLATION
    print(dumps_canonical(matching_certificate(outcome, trail)), end="")
    return EXIT_OK


def _cmd_check(args) -> int:
    fam = _load_family(args.input)
    verdict = verify_arrow_statement(args.m, args.k, args.n, args.q, fam)
    print(verdict.status)
    detail: dict = {"schema": SCHEMA, "status": verdict.status}
    if verdict.failing_indices is not None:
        detail["failing"] = verdict.failing_indices
    if verdict.oracle_size is not None:
        detail["nu_r"] = verdict.oracle_size
    print(dumps_canonical(detail), end="")
    return EXIT_OK


def _cmd_gen(args) -> int:
    # each family takes two of --n, --k and --seed
    family, n, k = args.family, args.n, args.k
    ignored = {"sharpness": "seed", "drisko": "k", "staircase": "n"}[family]
    if getattr(args, ignored) is not None:
        raise ParseError(f"gen {family} does not take --{ignored}")
    if family == "sharpness":
        if n is None or k is None:
            raise ParseError("gen sharpness needs --n and --k")
        _, fam = sharpness_family(n, k)
    elif family == "drisko":
        if n is None:
            raise ParseError("gen drisko needs --n")
        fam = drisko_family(n, _seed(args))
    else:
        if k is None:
            raise ParseError("gen staircase needs --k")
        fam = staircase_family(k, _seed(args))
    print(family_dumps(fam), end="")
    return EXIT_OK


def _cmd_certify(args) -> int:
    loaded = load_instance(_read(args.input))
    if isinstance(loaded, EdgeFamily):
        raise ParseError(f"{args.input} must hold a network instance "
                         "(an object with 'inner' and 'sets')")
    nf = loaded
    cert = regimentation_from_certificate(_load_certificate(args.regimentation))
    violated = verify_regimentation(nf.network, nf, cert)
    if violated is not None:
        print(f"FAIL condition {violated}")
        return EXIT_INVALID_CERT
    report = check_structure_lemmas(nf.network, nf, cert)
    if not report.hypothesis_met:
        print("PASS (1)(2)(3); structure lemmas skipped: "
              "a rainbow source-target path exists")
        return EXIT_OK
    bits = [f"counting {'OK' if report.counting_ok else 'FAIL'}",
            f"backward {'OK' if report.backward_ok else 'FAIL'}",
            f"only-path {'OK' if report.only_path_ok else 'FAIL'}",
            f"essential-iff-path {'OK' if report.essential_iff_path_ok else 'FAIL'}"]
    print("PASS (1)(2)(3); " + ", ".join(bits))
    return EXIT_OK if report.all_ok else EXIT_INVALID_CERT


def _cmd_search(args) -> int:
    seed = _seed(args)
    result = conjecture_search(args.conjecture, k=args.k, budget=args.budget,
                               seed=seed, exhaustive=args.exhaustive)
    if result.found:
        print("counterexample")
        print(dumps_canonical({
            "schema": SCHEMA,
            "conjecture": result.target,
            "oracle_size": result.oracle_size,
            "instance": family_to_json(result.counterexample),
        }), end="")
    else:
        print(f"no counterexample; {result.instances} instances "
              f"({result.hypothesis_passed} passed the hypothesis, "
              f"{'exhaustive' if result.exhaustive else 'sampled'})")
    return EXIT_OK


def _cmd_export_dot(args) -> int:
    fam = _load_family(args.input)
    rm = matching_from_certificate(_load_certificate(args.matching))
    net = build_network(fam, rm).network
    reg = None
    if args.regimentation:
        reg = regimentation_from_certificate(
            _load_certificate(args.regimentation))
    print(network_dot(net, reg), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rainbowmatch",
                     description="Cooperative rainbow matchings: solve, "
                                 "check, generate, certify, search, export.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="grow a size-n rainbow matching")
    p.add_argument("--input", required=True)
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--k", type=_integer, required=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("check", help="evaluate an arrow statement on an instance")
    p.add_argument("--input", required=True)
    p.add_argument("--m", type=_integer, required=True)
    p.add_argument("--k", type=_integer, required=True)
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--q", type=_integer, required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("gen", help="emit a generated instance file")
    p.add_argument("--family", choices=("sharpness", "drisko", "staircase"),
                   required=True)
    p.add_argument("--n", type=_integer)
    p.add_argument("--k", type=_integer)
    p.add_argument("--seed", type=_integer)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("certify", help="verify a regimentation certificate")
    p.add_argument("--input", required=True)
    p.add_argument("--regimentation", required=True)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("search", help="hunt for conjecture counterexamples")
    p.add_argument("--conjecture", choices=TARGETS, required=True)
    p.add_argument("--k", type=_integer, default=2)
    p.add_argument("--budget", type=_integer, default=100_000)
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--exhaustive", action="store_true")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("export-dot", help="emit the network in DOT form")
    p.add_argument("--input", required=True)
    p.add_argument("--matching", required=True)
    p.add_argument("--regimentation")
    p.set_defaults(func=_cmd_export_dot)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: parse_args leaves a parser as it found it,
    so every main() call can share the one built on first use."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CertificateError as exc:
        print(f"malformed certificate: {exc}", file=sys.stderr)
        return EXIT_MALFORMED_CERT
    except ValueError as exc:
        # after the two above: ParseError and CertificateError are ValueErrors
        print(f"parameter mismatch: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except RecursionError:
        # the matching kernel and the two walks in core recurse once per
        # path vertex or member
        print("parameter mismatch: the instance is too deep for the "
              "recursive kernels (maximum recursion depth exceeded)",
              file=sys.stderr)
        return EXIT_PARAMS


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
