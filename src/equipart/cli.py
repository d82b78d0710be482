"""Command-line interface.

Subcommands: check, bound, classify, families, identities, atlas, solve.
All documents are JSON on stdout (atlas also does csv/markdown) and carry
schema_version 1.  Exit codes: 0 certified/success, 1 inconclusive or
no-success, 2 usage/configuration error, 3 internal consistency failure.
"""

from __future__ import annotations

import argparse
import inspect
import json
import signal
import sys

from . import knownvalues
from .atlas import REPORT_FORMATS, AtlasQuery, emit_report, enumerate_rows
from .certify import MODES, _certificate, _product, check, verify_identities
from .exceptions import EquipartError, InternalConsistencyError, SearchSpaceError
from .families import FAMILIES
from .jsontypes import SCHEMA_VERSION
from .problems import (
    ORTHO_UNIVERSES,
    ConstraintProblem,
    classify,
    constraint_dimension,
    lower_bound_dim,
    ramos_L,
    upper_U,
)

EXIT_OK = 0
EXIT_INCONCLUSIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class _UsageExit(Exception):
    def __init__(self, message: str):
        super().__init__(message)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # single machine-parsable line, exit 2
        raise _UsageExit(message)


# ----------------------------------------------------------------------
# argument parsing helpers
# ----------------------------------------------------------------------
def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise _UsageExit(f"--{flag} must be integers 'n,n,...', got {text!r}") from None


def _parse_ortho(text: str | None, k: int):
    if not text:
        return ()
    if text in ORTHO_UNIVERSES:
        return ORTHO_UNIVERSES[text](k)
    pairs = []
    for chunk in text.split(","):
        r, _, s = chunk.partition("-")
        try:
            pairs.append((int(r), int(s)))
        except ValueError:
            names = ", ".join(f"'{name}'" for name in ORTHO_UNIVERSES)
            raise _UsageExit(f"--ortho must be {names} or pairs 'r-s,...', got {text!r}") from None
    return pairs


def _parse_extra(text: str | None):
    if not text:
        return ()
    try:
        return tuple(tuple(int(b) for b in chunk) for chunk in text.split(";"))
    except ValueError:
        raise _UsageExit(f"--extra must be 0/1 strings 'bbb;bbb;...', got {text!r}") from None


def _problem_from_args(args) -> ConstraintProblem:
    k = args.k
    return ConstraintProblem.of(
        k,
        m=_parse_ints(args.m, "m"),
        a=_parse_ints(args.a, "a"),
        ortho=_parse_ortho(args.ortho, k),
        extra=_parse_extra(args.extra),
    )


def _emit(doc: dict, cite_lines=()) -> None:
    doc = {"schema_version": SCHEMA_VERSION, **doc}
    print(json.dumps(doc, sort_keys=True))
    for line in cite_lines:
        print(line, file=sys.stderr)


def _add_problem_flags(sub) -> None:
    sub.add_argument("--k", type=int, required=True, help="number of hyperplanes")
    sub.add_argument("--m", default="", help="cascade vector, e.g. 1,1,2")
    sub.add_argument("--a", default="", help="containment counts, e.g. 0,0,1")
    sub.add_argument(
        "--ortho",
        default="",
        help="orthogonality pairs: 'all', 'last', 'not12', or e.g. '1-2,2-3'",
    )
    sub.add_argument("--extra", default="", help="extra characters, e.g. '011;101'")


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def _cmd_check(args) -> int:
    problem = _problem_from_args(args)
    form_count, h = _product(problem, args.d, args.mode)
    cert = _certificate(problem, args.mode, form_count, h)
    doc = cert.to_dict()
    if args.verbose:
        doc["h_support"] = [list(t) for t in h.support()]
    _emit(doc)
    return EXIT_OK if cert.certified else EXIT_INCONCLUSIVE


def _cmd_bound(args) -> int:
    problem = _problem_from_args(args)
    c = constraint_dimension(problem)
    known = knownvalues.lookup(problem)
    doc = {
        "problem": problem.to_dict(),
        "C": c,
        "lower_dim": lower_bound_dim(problem),
        "L": ramos_L(problem.m[0], problem.k) if problem.m[0] >= 1 else None,
        "U": upper_U(problem.m[0], problem.k) if problem.m[0] >= 1 else None,
        "known": None if known is None else known.to_dict(),
    }
    cites = []
    if args.cite and known is not None:
        cites.append(f"# known value: {known.provenance}")
    _emit(doc, cites)
    return EXIT_OK


def _cmd_classify(args) -> int:
    problem = _problem_from_args(args)
    label = classify(problem, args.d)
    _emit({"problem": problem.to_dict(), "d": args.d, "classification": label.to_dict()})
    return EXIT_OK


def _cmd_families(args) -> int:
    generator = FAMILIES[args.family]
    takes = inspect.signature(generator).parameters
    for flag, value in (("t", args.t), ("a", args.a), ("ortho", args.ortho)):
        if value not in (None, "") and flag not in takes:
            raise _UsageExit(f"family {args.family!r} takes no --{flag}")
    kwargs = {"q": args.q, "k": args.k}
    if "t" in takes:
        if args.t is None:
            raise _UsageExit(f"family {args.family!r} requires --t")
        kwargs["t"] = args.t
    if args.a:
        kwargs["a"] = _parse_ints(args.a, "a")
    if args.ortho:
        kwargs["ortho"] = _parse_ortho(args.ortho, args.k)
    instance = generator(**kwargs)
    cert = check(instance.problem, instance.d, "strict")
    if not cert.certified:
        raise InternalConsistencyError(
            f"family instance {instance.problem.describe()} failed its own "
            f"strict certificate at d={instance.d}"
        )
    doc = instance.to_dict()
    doc["certificate"] = cert.to_dict()
    cites = [f"# {instance.provenance()}"] if args.cite else []
    _emit(doc, cites)
    return EXIT_OK


def _cmd_identities(args) -> int:
    k, d = args.k, args.d
    results = verify_identities(k, d)
    all_passed = all(v for group in results.values() for v in group.values())
    _emit({"k": k, "d": d, "results": results, "all_passed": all_passed})
    return EXIT_OK if all_passed else EXIT_INTERNAL


def _cmd_atlas(args) -> int:
    # the query flags' defaults; the parser leaves a flag not given None
    flags = {
        "k": 2, "d_lo": 2, "d_hi": 2, "mode": "strict", "max_m": 2, "max_a": 0,
        "no_ortho": False, "universe": "all",
    }
    given = {name: getattr(args, name) for name in flags if getattr(args, name) is not None}
    if args.spec:
        if given:
            names = ", ".join("--" + name.replace("_", "-") for name in given)
            raise _UsageExit(f"--spec takes no query flags, got {names}")
        with open(args.spec, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
        query = AtlasQuery.from_spec(spec)
    else:
        flags.update(given)
        query = AtlasQuery(
            k=flags["k"],
            d_range=(flags["d_lo"], flags["d_hi"]),
            mode=flags["mode"],
            max_m=flags["max_m"],
            max_a=flags["max_a"],
            allow_affine=flags["max_a"] > 0,
            ortho_universe=frozenset() if flags["no_ortho"] else flags["universe"],
        )
    rows = list(enumerate_rows(query, jobs=args.jobs))
    doc = emit_report(rows, args.format)
    sys.stdout.write(doc if doc.endswith("\n") else doc + "\n")
    return EXIT_OK


def _cmd_solve(args) -> int:
    from .masses import load_mass_spec  # the witness layer, and numpy, only for a solve
    from .solver import SolverConfig, solve

    with open(args.problem, "r", encoding="utf-8") as fh:
        problem = ConstraintProblem.from_dict(json.load(fh))
    with open(args.masses, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    config = SolverConfig(
        seed=args.seed,
        starts=args.starts,
        tol=args.tol,
        jobs=args.jobs,
    )
    _, masses, points = load_mass_spec(spec, args.seed)
    witness = solve(problem, masses, points, config)
    print(witness.to_json())
    return EXIT_OK if witness.success else EXIT_INCONCLUSIVE


# ----------------------------------------------------------------------
def build_parser() -> _Parser:
    parser = _Parser(prog="equipart", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master RNG seed of solve (default 0)")
    cite = argparse.ArgumentParser(add_help=False)
    cite.add_argument("--cite", action="store_true", help="print provenance notes to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the certification criterion", parents=[common])
    _add_problem_flags(p)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--mode", choices=MODES, default="strict")
    p.add_argument(
        "-v", "--verbose", action="count", default=0, help="add the product's support, h_support"
    )
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("bound", parents=[common, cite], help="condition count and dimension bounds")
    _add_problem_flags(p)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("classify", parents=[common], help="optimal/maximal/balanced/tight labels")
    _add_problem_flags(p)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser(
        "families", parents=[common, cite], help="generate a tight certified instance"
    )
    p.add_argument("family", choices=sorted(FAMILIES))
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a", default="", help="containment counts (cascade / ortho-full)")
    p.add_argument("--ortho", default="", help="pair subset (ortho-last only)")
    p.set_defaults(func=_cmd_families)

    p = sub.add_parser("identities", parents=[common], help="verify closed-form ring identities")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=_cmd_identities)

    p = sub.add_parser("atlas", parents=[common], help="enumerate certified instances")
    p.add_argument("--spec", default=None, help="query JSON file, instead of the query flags")
    # the query flags default to None, so that one given beside --spec is
    # seen; _cmd_atlas fills in their defaults
    p.add_argument("--k", type=int, help="(default 2)")
    p.add_argument("--d-lo", type=int, help="(default 2)")
    p.add_argument("--d-hi", type=int, help="(default 2)")
    p.add_argument("--mode", choices=MODES, help="(default strict)")
    p.add_argument("--max-m", type=int, help="(default 2)")
    p.add_argument("--max-a", type=int, help="(default 0)")
    universe = p.add_mutually_exclusive_group()
    universe.add_argument(
        "--no-ortho", action="store_true", default=None, help="search no orthogonality"
    )
    universe.add_argument("--universe", help="ortho universe: all/last/not12 (default all)")
    p.add_argument("--format", choices=REPORT_FORMATS, default="json")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_atlas)

    p = sub.add_parser("solve", parents=[common], help="construct a witness arrangement")
    p.add_argument("--problem", required=True, help="problem JSON file")
    p.add_argument("--masses", required=True, help="mass spec JSON file")
    # SolverConfig's defaults, as literals so that the parser loads no numpy
    p.add_argument("--starts", type=int, default=32)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_solve)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageExit as exc:
        print(json.dumps({"error": str(exc), "kind": "usage"}), file=sys.stderr)
        return EXIT_USAGE
    except SearchSpaceError as exc:
        print(
            json.dumps(
                {"error": str(exc), "kind": "search-space", "estimate": exc.estimate}
            ),
            file=sys.stderr,
        )
        return EXIT_USAGE
    except InternalConsistencyError as exc:
        print(json.dumps({"error": str(exc), "kind": "internal"}), file=sys.stderr)
        return EXIT_INTERNAL
    except MemoryError as exc:
        # a spec under MAX_SAMPLE_VALUES can still outgrow the free memory
        print(
            json.dumps({"error": f"MemoryError: {str(exc) or 'out of memory'}", "kind": "usage"}),
            file=sys.stderr,
        )
        return EXIT_USAGE
    except (EquipartError, OSError, ValueError, KeyError) as exc:
        print(
            json.dumps({"error": f"{type(exc).__name__}: {exc}", "kind": "usage"}),
            file=sys.stderr,
        )
        return EXIT_USAGE


def main() -> None:
    # a reader that closes stdout early ends the process as it ends `cat`,
    # not with an OSError that `run` would report as a usage error
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run())


if __name__ == "__main__":
    main()
