"""Command-line front end.

Exit codes: 0 for success/pass, 1 for a mathematical negative (violator
where a certificate was requested, failed verification, relation found),
2 for usage or resource errors.  Reports go to stdout, diagnostics to
stderr.  JSON output is byte-identical for identical configs and seeds.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from contextlib import contextmanager
from dataclasses import dataclass

from .cayley import (
    GeneratingSet,
    default_vertex_budget,
    enumerate_ball,
)
from .decomposition import (
    FreenessResult,
    decomposition_to_jsonable,
    free_up_to_length,
    pieces_from_certificate,
    report_to_text,
    tarski_bound_report,
    verification_to_jsonable,
)
from .doubling import (
    Certificate,
    TranslatingSets,
    Violator,
    check_domain,
    minimal_violating_radius,
    verdict_from_jsonable,
    verdict_to_jsonable,
)
from .errors import (
    DomainSizeError,
    MatrixOverflowError,
    ParseError,
    UnknownSymbolError,
    VertexBudgetError,
)
from .forest import audit_counting_argument, sample_forest_containing_a_edges
from .groups import GroupSpec, parse_group_spec, parse_word, spec_to_string

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


@dataclass
class JobConfig:
    spec: GroupSpec
    gens: GeneratingSet
    ts: "TranslatingSets | None"
    radius: int
    max_radius: int
    seed: int
    samples: int
    max_set_size: int
    budget: int
    fmt: str
    dump: "str | None"
    max_length: int
    g_word: "str | None"
    h_word: "str | None"
    inputs: list
    freeness_input: "str | None"

    def __post_init__(self):
        if self.radius < 0 or self.max_radius < 0:
            raise ValueError("radius must be nonnegative")
        if self.samples < 1:
            raise ValueError("sample count must be at least 1")
        if self.budget < 1:
            raise ValueError("vertex budget must be positive")


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


def _build_config(args: argparse.Namespace) -> JobConfig:
    spec = parse_group_spec(args.group) if getattr(args, "group", None) else None
    gens = _parse_generator_overrides(spec, getattr(args, "gens", None)) if spec else None
    ts = None
    if getattr(args, "s1", None) and getattr(args, "s2", None):
        ts = TranslatingSets.from_words(
            spec, args.s1, args.s2, symbols=gens.mapping()
        )
    return JobConfig(
        spec=spec,
        gens=gens,
        ts=ts,
        radius=getattr(args, "radius", 0),
        max_radius=getattr(args, "max_radius", 0),
        seed=getattr(args, "seed", 0),
        samples=getattr(args, "samples", 1),
        max_set_size=getattr(args, "max_set_size", 4),
        budget=getattr(args, "budget", None) or default_vertex_budget(),
        fmt=getattr(args, "format", "text"),
        dump=getattr(args, "dump", None),
        max_length=getattr(args, "max_length", 1),
        g_word=getattr(args, "g", None),
        h_word=getattr(args, "h", None),
        inputs=getattr(args, "inputs", []) or [],
        freeness_input=getattr(args, "freeness", None),
    )


def _emit(config: JobConfig, payload: dict, text: "str | None") -> None:
    if config.fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _context(config: JobConfig) -> dict:
    data = {"group": spec_to_string(config.spec)}
    data["generators"] = [
        [sym, config.spec.format_element(el)] for sym, el in config.gens.pairs
    ]
    if config.ts is not None:
        data["s1"] = [config.spec.format_element(s) for s in config.ts.s1]
        data["s2"] = [config.spec.format_element(s) for s in config.ts.s2]
    return data


def cmd_ball(config: JobConfig) -> int:
    patch = enumerate_ball(config.spec, config.gens, config.radius, config.budget)
    payload = _context(config)
    payload.update(
        {
            "radius": config.radius,
            "vertices": len(patch.vertices),
            "edges": len(patch.edges),
            "simple_edges": len(patch.simple_edges()),
            "sphere_sizes": patch.sphere_sizes(),
        }
    )
    if config.dump:
        with open(config.dump, "w") as handle:
            if config.dump.endswith(".json"):
                json.dump(patch.to_jsonable(), handle, indent=2, sort_keys=True)
                handle.write("\n")
            else:
                handle.write(patch.to_edge_list_text())
        print(f"wrote patch to {config.dump}", file=sys.stderr)
    _emit(
        config,
        payload,
        f"ball radius {config.radius} of {spec_to_string(config.spec)}: "
        f"{len(patch.vertices)} vertices, {len(patch.edges)} labeled edges, "
        f"sphere sizes {patch.sphere_sizes()}",
    )
    return EXIT_OK


def cmd_check(config: JobConfig) -> int:
    patch = enumerate_ball(config.spec, config.gens, config.radius, config.budget)
    verdict = check_domain(config.spec, config.ts, patch.vertices)
    payload = _context(config)
    payload.update(
        {
            "radius": config.radius,
            "domain_size": len(patch.vertices),
            "verdict": verdict_to_jsonable(config.spec, verdict),
        }
    )
    if isinstance(verdict, Certificate):
        _emit(
            config,
            payload,
            f"certificate: both injections exist on the radius-{config.radius} "
            f"ball ({len(patch.vertices)} elements)",
        )
        return EXIT_OK
    spec = config.spec
    _emit(
        config,
        payload,
        "violator: A1 = {%s}, A2 = {%s}, union size %d < %d"
        % (
            ", ".join(spec.format_element(g) for g in verdict.a1),
            ", ".join(spec.format_element(g) for g in verdict.a2),
            verdict.union_size,
            len(verdict.a1) + len(verdict.a2),
        ),
    )
    return EXIT_NEGATIVE


def cmd_violate(config: JobConfig) -> int:
    result = minimal_violating_radius(
        config.spec, config.gens, config.ts, config.max_radius, config.budget
    )
    payload = _context(config)
    if result is None:
        payload.update({"found": False, "radius": None, "violator": None})
        _emit(
            config,
            payload,
            f"no violator up to radius {config.max_radius}",
        )
        return EXIT_NEGATIVE
    radius, violator = result
    payload.update(
        {
            "found": True,
            "radius": radius,
            "violator": verdict_to_jsonable(config.spec, violator),
        }
    )
    _emit(
        config,
        payload,
        f"violator at radius {radius}: union size {violator.union_size} < "
        f"{len(violator.a1) + len(violator.a2)}",
    )
    return EXIT_OK


def cmd_decompose(config: JobConfig) -> int:
    patch = enumerate_ball(config.spec, config.gens, config.radius, config.budget)
    verdict = check_domain(config.spec, config.ts, patch.vertices)
    payload = _context(config)
    payload["radius"] = config.radius
    if isinstance(verdict, Violator):
        payload["verdict"] = verdict_to_jsonable(config.spec, verdict)
        _emit(config, payload, "no decomposition: the domain admits a violator")
        return EXIT_NEGATIVE
    pd, report = pieces_from_certificate(config.spec, verdict, config.ts)
    payload.update(
        {
            "pieces": decomposition_to_jsonable(config.spec, pd),
            "verification": verification_to_jsonable(config.spec, report),
            "nonempty_pieces": pd.nonempty_piece_count(),
            "translator_count": config.ts.total_size(),
        }
    )
    text = None
    if config.fmt == "text":
        text = (
            f"{pd.nonempty_piece_count()} nonempty pieces over "
            f"{config.ts.total_size()} translators; verification passed\n"
            + report_to_text(config.spec, pd)
        )
    _emit(config, payload, text)
    return EXIT_OK


def cmd_forest_audit(config: JobConfig) -> int:
    spec = config.spec
    patch = enumerate_ball(spec, config.gens, config.radius, config.budget)
    view = config.gens.symmetrized(spec)
    interior = [
        v
        for v in patch.vertices
        if all(spec.multiply(v, t) in patch for _, _, t in view)
    ]
    if not interior:
        raise ValueError("patch interior is empty; increase the radius")
    ts = config.ts
    if ts is None:
        names = config.gens.symbols()
        identity = spec.identity()
        ts = TranslatingSets(
            s1=(identity, config.gens.element(names[0])),
            s2=(identity,)
            + tuple(config.gens.element(n) for n in names[1:3]),
        )
    a_symbol = config.gens.symbols()[0]
    rng = random.Random(config.seed)
    audits = []
    all_passed = True
    for index in range(config.samples):
        forest = sample_forest_containing_a_edges(
            patch, a_symbol, config.seed + index
        )
        while True:
            k1 = rng.randint(0, config.max_set_size)
            k2 = rng.randint(0, config.max_set_size)
            if k1 + k2 > 0:
                break
        a1 = rng.sample(interior, min(k1, len(interior)))
        a2 = rng.sample(interior, min(k2, len(interior)))
        if not a1 and not a2:
            a2 = rng.sample(interior, 1)
        audit = audit_counting_argument(forest, a1, a2, ts, config.gens)
        audits.append(audit)
        all_passed = all_passed and audit.all_passed
    payload = _context(config)
    payload.update(
        {
            "radius": config.radius,
            "samples": config.samples,
            "seed": config.seed,
            "audits": [a.to_jsonable(spec) for a in audits],
            "all_passed": all_passed,
        }
    )
    lines = []
    for i, audit in enumerate(audits):
        status = "pass" if audit.all_passed else "FAIL"
        lines.append(
            f"audit {i}: |A1|={len(audit.a1)} |A2|={len(audit.a2)} "
            f"|E|={len(audit.e)} |E1|={len(audit.e1)} |E2|={len(audit.e2)} "
            f"|E3|={len(audit.e3)} |V|={len(audit.lambda_vertices)} "
            f"|EΛ|={len(audit.lambda_edges)} -> {status}"
        )
    _emit(config, payload, "\n".join(lines))
    return EXIT_OK if all_passed else EXIT_NEGATIVE


def cmd_free_check(config: JobConfig) -> int:
    spec = config.spec
    symbols = config.gens.mapping()
    g = spec.evaluate_word(parse_word(config.g_word), symbols)
    h = spec.evaluate_word(parse_word(config.h_word), symbols)
    result = free_up_to_length(spec, g, h, config.max_length)
    payload = _context(config)
    payload.update(
        {
            "g": spec.format_element(g),
            "h": spec.format_element(h),
            "max_length": config.max_length,
            "free": result.free,
            "witness": result.witness_text(),
        }
    )
    if result.free:
        _emit(
            config,
            payload,
            f"no relation of length <= {config.max_length}: the pair "
            "generates freely at this scale",
        )
        return EXIT_OK
    _emit(config, payload, f"relation found: {result.witness_text()}")
    return EXIT_NEGATIVE


@contextmanager
def _json_input(path: str):
    """Load a JSON input file.  A key that is missing or of the wrong type
    while the body reads it is a usage error naming the file."""
    with open(path) as handle:
        data = json.load(handle)
    try:
        yield data
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc.args[0]!r}") from None
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: malformed input: {exc}") from None


def cmd_report(config: JobConfig) -> int:
    entries = []
    for path in config.inputs:
        with _json_input(path) as data:
            spec = parse_group_spec(data["group"])
            ts = TranslatingSets(
                s1=tuple(spec.parse_element(s) for s in data["s1"]),
                s2=tuple(spec.parse_element(s) for s in data["s2"]),
            )
            verdict = verdict_from_jsonable(spec, data["verdict"])
        if isinstance(verdict, Certificate):
            from .doubling import verify_certificate

            verify_certificate(spec, ts, verdict)
            entries.append((ts, verdict.domain(), verdict))
        else:
            entries.append((ts, frozenset(verdict.a1) | frozenset(verdict.a2), verdict))
    freeness = None
    if config.freeness_input:
        with _json_input(config.freeness_input) as data:
            witness_text = data.get("witness")
            if witness_text is None:
                witness = None
            else:
                witness = tuple(
                    (token[:-3], -1) if token.endswith("^-1") else (token, 1)
                    for token in witness_text.split()
                )
            freeness = FreenessResult(free_up_to=data["max_length"], witness=witness)
    report = tarski_bound_report(entries, freeness)
    payload = report.to_jsonable()
    text_upper = "none" if report.upper is None else str(report.upper)
    text = f"upper bound: {text_upper}; lower bound: {report.lower}\n" + "\n".join(
        f"  - {note}" for note in report.justification
    )
    if config.fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paradec",
        description=(
            "workbench for paradoxical decompositions on finite Cayley patches"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_group_options(p, with_ts=False):
        p.add_argument("--group", required=True, help="free:3, abelian:2, cyclic:12, sl2z")
        p.add_argument(
            "--gens",
            help="generator overrides as name=word pairs, comma separated",
        )
        p.add_argument("--budget", type=int, help="vertex budget override")
        if with_ts:
            p.add_argument("--s1", required=True, help='translators, e.g. "1,a"')
            p.add_argument("--s2", required=True, help='translators, e.g. "1,b,c"')
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_ball = sub.add_parser("ball", help="ball summary: vertex/edge counts, spheres")
    add_group_options(p_ball)
    p_ball.add_argument("--radius", type=int, required=True)
    p_ball.add_argument("--dump", help="write the full patch (.json or edge list)")

    p_check = sub.add_parser("check", help="doubling check on a ball domain")
    add_group_options(p_check, with_ts=True)
    p_check.add_argument("--radius", type=int, required=True)

    p_violate = sub.add_parser("violate", help="search for a minimal violating radius")
    add_group_options(p_violate, with_ts=True)
    p_violate.add_argument("--max-radius", type=int, required=True)

    p_dec = sub.add_parser("decompose", help="build and verify pieces from a certificate")
    add_group_options(p_dec, with_ts=True)
    p_dec.add_argument("--radius", type=int, required=True)

    p_fa = sub.add_parser(
        "forest-audit", help="audit sampled forests on random interior subsets"
    )
    p_fa.add_argument("--group", required=True)
    p_fa.add_argument("--gens")
    p_fa.add_argument("--budget", type=int)
    p_fa.add_argument("--s1", help='defaults to "1,<first generator>"')
    p_fa.add_argument("--s2", help="defaults to 1 plus the remaining two generators")
    p_fa.add_argument("--radius", type=int, required=True)
    p_fa.add_argument("--samples", type=int, default=10)
    p_fa.add_argument("--seed", type=int, default=0)
    p_fa.add_argument("--max-set-size", type=int, default=4)
    p_fa.add_argument("--format", choices=("text", "json"), default="text")

    p_free = sub.add_parser("free-check", help="search for short relations in a pair")
    p_free.add_argument("--group", required=True)
    p_free.add_argument("--gens")
    p_free.add_argument("--budget", type=int)
    p_free.add_argument("--g", required=True, help="first element, word syntax")
    p_free.add_argument("--h", required=True, help="second element, word syntax")
    p_free.add_argument("--max-length", type=int, required=True)
    p_free.add_argument("--format", choices=("text", "json"), default="text")

    p_report = sub.add_parser("report", help="aggregate check outputs into bounds")
    p_report.add_argument("--inputs", nargs="+", required=True)
    p_report.add_argument("--freeness", help="free-check JSON output")
    p_report.add_argument("--format", choices=("text", "json"), default="text")

    return parser


_COMMANDS = {
    "ball": cmd_ball,
    "check": cmd_check,
    "violate": cmd_violate,
    "decompose": cmd_decompose,
    "forest-audit": cmd_forest_audit,
    "free-check": cmd_free_check,
    "report": cmd_report,
}


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _build_config(args)
        return _COMMANDS[args.command](config)
    except (
        ParseError,
        UnknownSymbolError,
        VertexBudgetError,
        DomainSizeError,
        MatrixOverflowError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
