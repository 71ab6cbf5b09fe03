"""Command-line front end.

Exit codes: 0 for success/pass, 1 for a mathematical negative (violator
where a certificate was requested, failed verification, relation found),
2 for usage or resource errors, 3 for an internal error (a bug, reported
without a traceback).  Reports go to stdout, diagnostics to stderr.  JSON
output is byte-identical for identical configs and seeds.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
from contextlib import contextmanager

from .cayley import GeneratingSet, enumerate_ball
from .decomposition import (
    decomposition_to_jsonable,
    free_up_to_length,
    freeness_from_jsonable,
    pieces_from_certificate,
    report_to_text,
    tarski_bound_report,
    verification_to_jsonable,
    verify_freeness,
)
from .doubling import (
    Certificate,
    TranslatingSets,
    Violator,
    check_domain,
    minimal_violating_radius,
    verdict_from_jsonable,
    verdict_to_jsonable,
    verify_certificate,
    verify_violator,
)
from .errors import (
    CertificateError,
    ParadecError,
    ParseError,
    VertexBudgetError,
    ViolatorError,
    WitnessError,
)
from .forest import (
    a_edge_contraction,
    audit_counting_argument,
    check_generating_triple,
    identify_triple,
    sample_forest_containing_a_edges,
)
from .groups import GroupSpec, parse_group_spec, parse_word, spec_to_string

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2
EXIT_INTERNAL = 3


def _parse_generator_overrides(spec: GroupSpec, text: "str | None") -> GeneratingSet:
    if not text:
        return GeneratingSet.standard(spec)
    pairs = []
    for chunk in text.split(","):
        name, _, word = chunk.partition("=")
        name = name.strip()
        if not name or not word.strip():
            raise ParseError(f"bad generator override {chunk!r}; use name=word")
        pairs.append((name, spec.evaluate_word(parse_word(word))))
    return GeneratingSet.from_pairs(spec, pairs)


def _group(
    args: argparse.Namespace,
) -> "tuple[GroupSpec, GeneratingSet, TranslatingSets | None]":
    """The spec, generating set and translating sets named by the group
    options; the translating sets are None when --s1 and --s2 are absent."""
    spec = parse_group_spec(args.group)
    gens = _parse_generator_overrides(spec, args.gens)
    if (args.s1 is None) != (args.s2 is None):
        raise ValueError("--s1 and --s2 must be given together")
    ts = None
    if args.s1 is not None:
        ts = TranslatingSets.from_words(spec, args.s1, args.s2, symbols=gens.mapping())
    return spec, gens, ts


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True)


# Characters per write of a printed document: ``print`` would encode the
# whole document (2 MB for the radius-6 free:3 check) into one bytes object.
_WRITE_SLICE = 1 << 16


def _emit(args: argparse.Namespace, payload: "dict | None", text: "str | None") -> None:
    """Print ``payload`` as JSON for ``--format json``, else ``text``, and a
    newline, in slices of ``_WRITE_SLICE`` characters; the one not printed
    may be None."""
    document = _json_text(payload) if args.format == "json" else text
    write = sys.stdout.write
    for start in range(0, len(document), _WRITE_SLICE):
        write(document[start : start + _WRITE_SLICE])
    write("\n")


def _context(spec: GroupSpec, gens: GeneratingSet, ts: "TranslatingSets | None") -> dict:
    data = {"group": spec_to_string(spec)}
    data["generators"] = [[sym, spec.format_element(el)] for sym, el in gens.pairs]
    if ts is not None:
        data["s1"] = [spec.format_element(s) for s in ts.s1]
        data["s2"] = [spec.format_element(s) for s in ts.s2]
    return data


def cmd_ball(args: argparse.Namespace) -> int:
    spec, gens, _ = _group(args)
    patch = enumerate_ball(spec, gens, args.radius, args.budget)
    # The labeled edges are built only for a dump; the count reads the table.
    edges = sum(len(row) - row.count(None) for row in patch.neighbours)
    sphere_sizes = list(patch.level_sizes)
    if args.dump:
        with open(args.dump, "w") as handle:
            if args.dump.endswith(".json"):
                handle.write(_json_text(patch.to_jsonable()) + "\n")
            else:
                handle.write(patch.to_edge_list_text())
        print(f"wrote patch to {args.dump}", file=sys.stderr)
    payload = text = None
    if args.format == "json":
        payload = _context(spec, gens, None)
        payload.update(
            {
                "radius": args.radius,
                "vertices": len(patch.vertices),
                "edges": edges,
                "simple_edges": len(patch.simple_edges),
                "sphere_sizes": sphere_sizes,
            }
        )
    else:
        text = (
            f"ball radius {args.radius} of {spec_to_string(spec)}: "
            f"{len(patch.vertices)} vertices, {edges} labeled edges, "
            f"sphere sizes {sphere_sizes}"
        )
    _emit(args, payload, text)
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    spec, gens, ts = _group(args)
    patch = enumerate_ball(spec, gens, args.radius, args.budget, ts.s1 + ts.s2)
    verdict = check_domain(spec, ts, patch)
    payload = text = None
    if args.format == "json":
        payload = _context(spec, gens, ts)
        payload.update(
            {
                "radius": args.radius,
                "domain_size": len(patch.vertices),
                "verdict": verdict_to_jsonable(spec, verdict, ts, patch),
            }
        )
    elif isinstance(verdict, Certificate):
        text = (
            f"certificate: both injections exist on the radius-{args.radius} "
            f"ball ({len(patch.vertices)} elements)"
        )
    else:
        fmt = spec.formatter()
        text = "violator: A1 = {%s}, A2 = {%s}, union size %d < %d" % (
            ", ".join(map(fmt, verdict.a1)),
            ", ".join(map(fmt, verdict.a2)),
            verdict.union_size,
            len(verdict.a1) + len(verdict.a2),
        )
    _emit(args, payload, text)
    return EXIT_OK if isinstance(verdict, Certificate) else EXIT_NEGATIVE


def cmd_violate(args: argparse.Namespace) -> int:
    spec, gens, ts = _group(args)
    result = minimal_violating_radius(spec, gens, ts, args.max_radius, args.budget)
    payload = text = None
    if args.format == "json":
        payload = _context(spec, gens, ts)
        if result is None:
            payload.update({"found": False, "radius": None, "violator": None})
        else:
            radius, violator = result
            payload.update(
                {
                    "found": True,
                    "radius": radius,
                    "violator": verdict_to_jsonable(spec, violator, ts),
                }
            )
    elif result is None:
        text = f"no violator up to radius {args.max_radius}"
    else:
        radius, violator = result
        text = (
            f"violator at radius {radius}: union size {violator.union_size} < "
            f"{len(violator.a1) + len(violator.a2)}"
        )
    _emit(args, payload, text)
    return EXIT_NEGATIVE if result is None else EXIT_OK


def cmd_decompose(args: argparse.Namespace) -> int:
    spec, gens, ts = _group(args)
    patch = enumerate_ball(spec, gens, args.radius, args.budget, ts.s1 + ts.s2)
    verdict = check_domain(spec, ts, patch)
    json_format = args.format == "json"
    payload = text = None
    if json_format:
        payload = _context(spec, gens, ts)
        payload["radius"] = args.radius
    if isinstance(verdict, Violator):
        if json_format:
            payload["verdict"] = verdict_to_jsonable(spec, verdict, ts)
        _emit(args, payload, "no decomposition: the domain admits a violator")
        return EXIT_NEGATIVE
    pd, report = pieces_from_certificate(spec, verdict, ts)
    pieces = decomposition_to_jsonable(spec, pd, patch)
    if json_format:
        payload.update(
            {
                "pieces": pieces,
                "verification": verification_to_jsonable(spec, report),
                "nonempty_pieces": pd.nonempty_piece_count(),
                "translator_count": ts.total_size(),
            }
        )
    else:
        text = (
            f"{pd.nonempty_piece_count()} nonempty pieces over "
            f"{ts.total_size()} translators; verification passed\n"
            + report_to_text(pieces)
        )
    _emit(args, payload, text)
    return EXIT_OK


def cmd_forest_audit(args: argparse.Namespace) -> int:
    spec, gens, ts = _group(args)
    if args.samples < 1:
        raise ValueError("sample count must be at least 1")
    if args.max_set_size < 1:
        raise ValueError("max set size must be at least 1")
    patch = enumerate_ball(spec, gens, args.radius, args.budget)
    interior = patch.interior
    if not interior:
        raise ValueError("patch interior is empty; increase the radius")
    audit_ts = ts
    if audit_ts is None:
        check_generating_triple(spec, gens)
        names = gens.symbols()
        identity = spec.identity()
        audit_ts = TranslatingSets(
            s1=(identity, gens.element(names[0])),
            s2=(identity,) + tuple(gens.element(n) for n in names[1:3]),
        )
    a_symbol = identify_triple(spec, gens, audit_ts)
    contraction = a_edge_contraction(patch, a_symbol)
    rng = random.Random(args.seed)
    audits = []
    for index in range(args.samples):
        forest = sample_forest_containing_a_edges(contraction, args.seed + index)
        while True:
            k1 = rng.randint(0, args.max_set_size)
            k2 = rng.randint(0, args.max_set_size)
            if k1 + k2 > 0:
                break
        a1 = rng.sample(interior, min(k1, len(interior)))
        a2 = rng.sample(interior, min(k2, len(interior)))
        audits.append(audit_counting_argument(patch, forest, a1, a2, audit_ts))
    all_passed = all(audit.all_passed for audit in audits)
    payload = text = None
    if args.format == "json":
        payload = _context(spec, gens, ts)
        fmt = spec.formatter()
        payload.update(
            {
                "radius": args.radius,
                "samples": args.samples,
                "seed": args.seed,
                "audits": [a.to_jsonable(fmt) for a in audits],
                "all_passed": all_passed,
            }
        )
    else:
        lines = []
        for i, audit in enumerate(audits):
            status = "pass" if audit.all_passed else "FAIL"
            lines.append(
                f"audit {i}: |A1|={len(audit.a1)} |A2|={len(audit.a2)} "
                f"|E|={len(audit.e)} |E1|={len(audit.e1)} |E2|={len(audit.e2)} "
                f"|E3|={len(audit.e3)} |V|={len(audit.lambda_vertices)} "
                f"|EΛ|={len(audit.lambda_edges)} -> {status}"
            )
        text = "\n".join(lines)
    _emit(args, payload, text)
    return EXIT_OK if all_passed else EXIT_NEGATIVE


def cmd_free_check(args: argparse.Namespace) -> int:
    spec, gens, _ = _group(args)
    symbols = gens.mapping()
    g = spec.evaluate_word(parse_word(args.g), symbols)
    h = spec.evaluate_word(parse_word(args.h), symbols)
    result = free_up_to_length(spec, g, h, args.max_length, args.budget)
    payload = text = None
    if args.format == "json":
        payload = _context(spec, gens, None)
        payload.update(
            {
                "g": spec.format_element(g),
                "h": spec.format_element(h),
                "max_length": args.max_length,
                "free": result.free,
                "witness": result.witness_text(),
            }
        )
    elif result.free:
        text = (
            f"no relation of length <= {args.max_length}: the pair "
            "generates freely at this scale"
        )
    else:
        text = f"relation found: {result.witness_text()}"
    _emit(args, payload, text)
    return EXIT_OK if result.free else EXIT_NEGATIVE


@contextmanager
def _json_input(path: str):
    """Load a JSON input file.  Text that is not JSON, and a key that is
    missing, of the wrong type or of a bad value while the body reads it,
    is a usage error naming the file."""
    try:
        with open(path) as handle:
            data = json.load(handle)
        yield data
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc.args[0]!r}") from None
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: malformed input: {exc}") from None
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def cmd_report(args: argparse.Namespace) -> int:
    if args.budget is not None and args.freeness is None:
        raise ValueError(
            "--budget bounds the recount of a --freeness claim; give --freeness"
        )
    if args.budget is not None and args.budget < 1:
        raise ValueError("vertex budget must be positive")
    inputs = []  # (path, spec, ts, a Violator or a certificate's claimed pairs)
    groups = {}  # path -> group of the file, checked before anything is combined
    for path in args.inputs:
        with _json_input(path) as data:
            spec = parse_group_spec(data["group"])
            ts = TranslatingSets.from_jsonable(spec, data)
            inputs.append((path, spec, ts, verdict_from_jsonable(spec, data["verdict"])))
        groups[path] = spec_to_string(spec)
    freeness = pair = None
    if args.freeness:
        with _json_input(args.freeness) as data:
            freeness = freeness_from_jsonable(data)
            spec = parse_group_spec(data["group"])
            # the group and the pair that the claim is about
            pair = spec, spec.parse_element(data["g"]), spec.parse_element(data["h"])
        groups[args.freeness] = spec_to_string(spec)
    group = groups[args.inputs[0]]
    for path, other in groups.items():
        if other != group:
            raise ValueError(
                f"{path}: group {other} differs from {group} in {args.inputs[0]}"
            )
    entries = []
    for path, spec, ts, claim in inputs:
        try:
            if isinstance(claim, Violator):
                verify_violator(spec, ts, claim)
                verdict = claim
            else:
                verdict = verify_certificate(spec, ts, *claim)
        except (CertificateError, ViolatorError) as exc:
            print(f"verification failed: {path}: {exc}", file=sys.stderr)
            return EXIT_NEGATIVE
        entries.append((ts, verdict))
    if freeness is not None:
        try:
            verify_freeness(*pair, freeness, args.budget)
        except WitnessError as exc:
            print(f"verification failed: {args.freeness}: {exc}", file=sys.stderr)
            return EXIT_NEGATIVE
        except VertexBudgetError as exc:
            raise VertexBudgetError(f"{args.freeness}: {exc}") from None
    report = tarski_bound_report(entries, freeness)
    payload = text = None
    if args.format == "json":
        payload = report.to_jsonable()
    else:
        upper = "none" if report.upper is None else str(report.upper)
        text = f"upper bound: {upper}; lower bound: {report.lower}\n" + "\n".join(
            f"  - {note}" for note in report.justification
        )
    _emit(args, payload, text)
    return EXIT_OK


COMMANDS = ("ball", "check", "violate", "decompose", "forest-audit", "free-check", "report")


def build_parser(command: "str | None" = None) -> argparse.ArgumentParser:
    """The argument parser.  When ``command`` names a subcommand, only that
    subcommand's parser is built, since a call parses no other, and the
    usage line still lists every subcommand.  Otherwise, as for ``--help``,
    a misspelt command or none, every subcommand's parser is built."""
    parser = argparse.ArgumentParser(
        prog="paradec",
        description=(
            "workbench for paradoxical decompositions on finite Cayley patches"
        ),
    )
    every = command not in COMMANDS
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        metavar=None if every else "{%s}" % ",".join(COMMANDS),
    )

    def wanted(name: str) -> bool:
        return every or name == command

    def group_command(name, run, summary, translators=None):
        """A subcommand taking the group options.  ``translators`` is
        "required" or "optional" for --s1/--s2, or None when the command
        takes none (they then read as None)."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run, s1=None, s2=None)
        p.add_argument("--group", required=True, help="free:3, abelian:2, cyclic:12, sl2z")
        p.add_argument(
            "--gens",
            help="generator overrides as name=word pairs, comma separated",
        )
        p.add_argument(
            "--budget",
            type=int,
            help="vertex budget override; in the free model a stored word of "
            "up to r factors of at most w letters, multiplied by translators "
            "s, counts max(1, max|s|, r*w) units: a ball vertex over the "
            "generators (r is --radius, or --max-radius; s the translators of "
            "check, decompose and violate), and a free-check half-word over "
            "g and h (r is half of --max-length, rounded up)",
        )
        if translators:
            required = translators == "required"
            p.add_argument("--s1", required=required, help='translators, e.g. "1,a"')
            p.add_argument("--s2", required=required, help='translators, e.g. "1,b,c"')
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    if wanted("ball"):
        p_ball = group_command("ball", cmd_ball, "ball summary: vertex/edge counts, spheres")
        p_ball.add_argument("--radius", type=int, required=True)
        p_ball.add_argument("--dump", help="write the full patch (.json or edge list)")

    if wanted("check"):
        p_check = group_command(
            "check", cmd_check, "doubling check on a ball domain", "required"
        )
        p_check.add_argument("--radius", type=int, required=True)

    if wanted("violate"):
        p_violate = group_command(
            "violate", cmd_violate, "search for a minimal violating radius", "required"
        )
        p_violate.add_argument("--max-radius", type=int, required=True)

    if wanted("decompose"):
        p_dec = group_command(
            "decompose",
            cmd_decompose,
            "build and verify pieces from a certificate",
            "required",
        )
        p_dec.add_argument("--radius", type=int, required=True)

    if wanted("forest-audit"):
        p_fa = group_command(
            "forest-audit",
            cmd_forest_audit,
            "audit sampled forests on random interior subsets; --s1/--s2 default "
            "to 1 with the first generator and 1 with the next two",
            "optional",
        )
        p_fa.add_argument("--radius", type=int, required=True)
        p_fa.add_argument("--samples", type=int, default=10)
        p_fa.add_argument("--seed", type=int, default=0)
        p_fa.add_argument("--max-set-size", type=int, default=4)

    if wanted("free-check"):
        p_free = group_command(
            "free-check", cmd_free_check, "search for short relations in a pair"
        )
        p_free.add_argument("--g", required=True, help="first element, word syntax")
        p_free.add_argument("--h", required=True, help="second element, word syntax")
        p_free.add_argument("--max-length", type=int, required=True)

    if wanted("report"):
        p_report = sub.add_parser("report", help="aggregate check outputs into bounds")
        p_report.set_defaults(run=cmd_report)
        p_report.add_argument("--inputs", nargs="+", required=True)
        p_report.add_argument("--freeness", help="free-check JSON output")
        p_report.add_argument(
            "--budget",
            type=int,
            help="vertex budget of a --freeness claim's recount, counted as "
            "free-check counts it",
        )
        p_report.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def main(argv: "list[str] | None" = None) -> int:
    """Run one command.  The cyclic garbage collector is paused while it
    runs: paradec's data are tuples, lists, dicts and frozen dataclasses
    that hold no reference cycles, so reference counting frees them, and a
    collection would only walk them again.  The caller's collector state is
    restored on every exit."""
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.run(args)
    except (ParadecError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
