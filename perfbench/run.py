#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of paradec's CLI pipelines.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Every CLI call is one operation and runs in a fresh Python
process, one after another (a single closed-loop caller).  Passes over the
workload's pipeline repeat until S seconds have gone by.  Outputs are then
checked by an independent verifier, untimed.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CALL_TIMEOUT_S = 150


@dataclass(frozen=True)
class Op:
    """One CLI call of a pipeline; its stdout is saved as ``<key>.json``."""

    key: str
    argv: tuple
    expect_rc: int

    @property
    def out(self) -> str:
        return f"{self.key}.json"


@dataclass(frozen=True)
class Workload:
    ops: tuple
    # (first outputs by op key, untimed extra call) -> error message by op key
    check: Callable
    # first outputs by op key -> names of tampered witnesses that were accepted
    selftest: Callable


def _json(argv: list) -> tuple:
    return tuple(argv) + ("--format", "json")


def _verdict(check: Callable) -> "str | None":
    """None if the check passes, else why it failed."""
    try:
        check()
        return None
    except verify.ERRORS as exc:
        return f"{type(exc).__name__}: {exc}"


def _accepted(cases: dict) -> list:
    """Names of the tampered witnesses that the verifier did not reject.

    Each case is (build the tampered witness, check a witness).
    """
    accepted = []
    for name, (tamper, check) in cases.items():
        try:
            witness = tamper()
        except (*verify.ERRORS, StopIteration) as exc:
            accepted.append(f"{name} (could not be built: {exc!r})")
            continue
        if _verdict(lambda: check(witness)) is None:
            accepted.append(name)
    return accepted


# -- tarski-free3 ---------------------------------------------------------------

FREE3 = verify.FreeGroup("abc")
T_S1, T_S2, T_RADIUS, T_LENGTH = "1,a", "1,b,c", 6, 12
T_SETS = ["--group", "free:3", "--s1", T_S1, "--s2", T_S2]


def _tarski_check(out: dict, extra) -> dict:
    s1, s2 = verify.translators(FREE3, T_S1), verify.translators(FREE3, T_S2)
    errors = {
        "check": _verdict(
            lambda: verify.certificate(FREE3, json.loads(out["check"]), s1, s2, T_RADIUS)
        ),
        "decompose": _verdict(
            lambda: verify.decomposition(FREE3, json.loads(out["decompose"]), s1, s2, T_RADIUS)
        ),
        "free_check": _verdict(
            lambda: verify.freeness(json.loads(out["free_check"]), "a", "b", T_LENGTH)
        ),
        "report": _verdict(lambda: verify.tarski_report(json.loads(out["report"]))),
    }

    def no_violator():
        data = json.loads(out["violate"])
        verify.require(data["found"] is False and data["violator"] is None, "violator reported")
        # Hall's condition on the radius-6 ball holds on every smaller ball,
        # so the certificate verified in the same pass proves there is none.
        verify.require(errors["check"] is None, "no verified radius-6 certificate")

    errors["violate"] = _verdict(no_violator)
    return errors


def _tarski_selftest(out: dict) -> list:
    s1, s2 = verify.translators(FREE3, T_S1), verify.translators(FREE3, T_S2)
    return _accepted({
        "certificate with one image swapped": (
            lambda: verify.swap_one_image(FREE3, json.loads(out["check"]), s1),
            lambda data: verify.certificate(FREE3, data, s1, s2, T_RADIUS),
        ),
        "decomposition with one piece element moved": (
            lambda: verify.move_one_piece_element(json.loads(out["decompose"])),
            lambda data: verify.decomposition(FREE3, data, s1, s2, T_RADIUS),
        ),
    })


TARSKI = Workload(
    ops=(
        Op("check", _json(["check", *T_SETS, "--radius", str(T_RADIUS)]), 0),
        Op("decompose", _json(["decompose", *T_SETS, "--radius", str(T_RADIUS)]), 0),
        Op("violate", _json(["violate", *T_SETS, "--max-radius", str(T_RADIUS)]), 1),
        Op(
            "free_check",
            _json(["free-check", "--group", "free:3", "--g", "a", "--h", "b",
                   "--max-length", str(T_LENGTH)]),
            0,
        ),
        Op("report", _json(["report", "--inputs", "check.json", "--freeness", "free_check.json"]), 0),
    ),
    check=_tarski_check,
    selftest=_tarski_selftest,
)

# -- amenable-abelian2 ----------------------------------------------------------

Z2 = verify.Abelian2()
A_CHECK_S1, A_CHECK_S2, A_CHECK_RADIUS = "1,a", "1,b,a b", 16
A_VIOLATE_S1 = ",".join(["1", "a"] + [f"a^{k}" for k in range(2, 9)])
A_VIOLATE_S2 = ",".join(["1", "b"] + [f"b^{k}" for k in range(2, 9)])
A_MAX_RADIUS = 16
A_VIOLATE_SETS = ["--group", "abelian:2", "--s1", A_VIOLATE_S1, "--s2", A_VIOLATE_S2]


def _amenable_check(out: dict, extra) -> dict:
    def violator_at_16():
        data = json.loads(out["check"])
        verify.require(data["domain_size"] == Z2.ball_size(A_CHECK_RADIUS), "wrong domain size")
        verify.violator(
            Z2, data["verdict"], verify.translators(Z2, A_CHECK_S1),
            verify.translators(Z2, A_CHECK_S2), A_CHECK_RADIUS,
        )

    def minimal_violator():
        data = json.loads(out["violate"])
        s1, s2 = verify.translators(Z2, A_VIOLATE_S1), verify.translators(Z2, A_VIOLATE_S2)
        verify.require(data["found"] is True, "no violator found")
        radius = data["radius"]
        verify.require(0 <= radius <= A_MAX_RADIUS, "radius out of range")
        verify.violator(Z2, data["violator"], s1, s2, radius)
        if radius > 0:
            # Minimality: a certificate one radius down, verified here, shows
            # Hall's condition on every smaller ball.
            below = extra(_json(["check", *A_VIOLATE_SETS, "--radius", str(radius - 1)]), 0)
            verify.require(below is not None, "the check one radius down failed")
            verify.certificate(Z2, json.loads(below), s1, s2, radius - 1)

    return {"check": _verdict(violator_at_16), "violate": _verdict(minimal_violator)}


def _amenable_selftest(out: dict) -> list:
    s1, s2 = verify.translators(Z2, A_CHECK_S1), verify.translators(Z2, A_CHECK_S2)
    return _accepted({
        "violator with one element dropped": (
            lambda: verify.drop_one_element(Z2, json.loads(out["check"])["verdict"], s1, s2),
            lambda verdict: verify.violator(Z2, verdict, s1, s2, A_CHECK_RADIUS),
        ),
    })


AMENABLE = Workload(
    ops=(
        Op(
            "check",
            _json(["check", "--group", "abelian:2", "--s1", A_CHECK_S1, "--s2", A_CHECK_S2,
                   "--radius", str(A_CHECK_RADIUS)]),
            1,
        ),
        Op("violate", _json(["violate", *A_VIOLATE_SETS, "--max-radius", str(A_MAX_RADIUS)]), 0),
    ),
    check=_amenable_check,
    selftest=_amenable_selftest,
)

# -- forest-free3 ---------------------------------------------------------------

F_RADIUS, F_SAMPLES = 5, 40


def forest_workload(seed: int) -> Workload:
    def check(out: dict, extra) -> dict:
        def audits():
            data = json.loads(out["forest_audit"])
            verify.forest_audits(FREE3, data, F_RADIUS, F_SAMPLES, seed)

        return {"forest_audit": _verdict(audits)}

    def selftest(out: dict) -> list:
        return _accepted({
            "forest ledger with one edited count": (
                lambda: verify.edit_one_count(json.loads(out["forest_audit"])),
                lambda data: verify.forest_audits(FREE3, data, F_RADIUS, F_SAMPLES, seed),
            ),
        })

    argv = ["forest-audit", "--group", "free:3", "--radius", str(F_RADIUS),
            "--samples", str(F_SAMPLES), "--seed", str(seed)]
    return Workload(ops=(Op("forest_audit", _json(argv), 0),), check=check, selftest=selftest)


# workload name -> the workload for a seed
WORKLOADS = {
    "tarski-free3": lambda seed: TARSKI,
    "amenable-abelian2": lambda seed: AMENABLE,
    "forest-free3": forest_workload,
}


# -- running calls --------------------------------------------------------------

# Times are reported in seconds at a reference speed: each call's measured
# time is scaled by REFERENCE_CALIBRATION_S over the time of the calibration
# loop run in the same process (child.calibrate).  The machine's own speed
# swings by up to 1.5x over tens of seconds; the scaling takes most of that
# swing out of the figures while leaving the program's own cost in them.
REFERENCE_CALIBRATION_S = 0.030


@dataclass
class Call:
    op: Op
    record: "dict | None"
    stdout: bytes
    error: "str | None"

    @property
    def scale(self) -> float:
        return REFERENCE_CALIBRATION_S / self.record["calib_s"]

    @property
    def call_s(self) -> float:
        return self.record["call_s"] * self.scale

    @property
    def import_s(self) -> float:
        return self.record["import_s"] * self.scale


def run_call(argv: tuple, out: str, expect_rc: int, mode: str, env: dict) -> tuple:
    """One fresh-process CLI call; returns (record, stdout bytes, error)."""
    record_path = WORK / "record.json"
    record_path.unlink(missing_ok=True)
    out_path = WORK / out
    command = [sys.executable, str(HERE / "child.py"), str(record_path), mode, "--", *argv]
    try:
        with open(out_path, "wb") as handle:
            proc = subprocess.run(
                command, cwd=WORK, env=env, stdout=handle, stderr=subprocess.PIPE,
                timeout=CALL_TIMEOUT_S,
            )
    except subprocess.TimeoutExpired:
        return None, b"", f"no result within {CALL_TIMEOUT_S} s"
    stdout = out_path.read_bytes()
    if not record_path.exists():
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return None, stdout, f"exit {proc.returncode} without a record: {tail}"
    record = json.loads(record_path.read_text())
    if not Path(record["module"]).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"paradec was imported from {record['module']}, not from {SRC}")
    if proc.returncode != record["rc"] or record["rc"] != expect_rc:
        return record, stdout, f"exit {proc.returncode}, expected {expect_rc}"
    return record, stdout, None


def run_pass(ops: tuple, mode: str, env: dict) -> list:
    calls = []
    for op in ops:
        record, stdout, error = run_call(op.argv, op.out, op.expect_rc, mode, env)
        calls.append(Call(op, record, stdout, error))
        if record is not None:
            print(
                f"call {mode:5s} {op.key:12s} wall {record['call_s']:.4f} s "
                f"import {record['import_s']:.4f} s calibration {record['calib_s']:.4f} s",
                file=sys.stderr,
            )
    return calls


def pass_s(calls: list) -> float:
    return sum(call.call_s for call in calls)


def central(values) -> float:
    """Mean without the lowest and the highest value; the median of fewer
    than four.  Even after scaling, per-pass times swing between the
    machine's phases; between runs this mean spreads less than the median
    (README.md gives the figures), and one stray pass cannot pull it."""
    values = sorted(values)
    if len(values) < 4:
        return statistics.median(values)
    return statistics.fmean(values[1:-1])


# -- metrics --------------------------------------------------------------------

# per-layer metric -> (span name, field) with field 0 calls, 1 total, 2 self
SPAN_METRICS = {
    "groups.format_element_calls": ("groups.format_element", 0),
    "groups.format_element_s": ("groups.format_element", 1),
    "groups.parse_element_calls": ("groups.parse_element", 0),
    "groups.parse_element_s": ("groups.parse_element", 1),
    "cayley.enumerate_ball_calls": ("cayley.enumerate_ball", 0),
    "cayley.enumerate_ball_s": ("cayley.enumerate_ball", 1),
    "cayley.product_set_calls": ("cayley.product_set", 0),
    "cayley.product_set_s": ("cayley.product_set", 1),
    "matching.hopcroft_karp_calls": ("matching.hopcroft_karp", 0),
    "matching.hopcroft_karp_s": ("matching.hopcroft_karp", 1),
    "matching.alternating_reachable_s": ("matching.alternating_reachable", 1),
    "doubling.check_domain_calls": ("doubling.check_domain", 0),
    "doubling.check_domain_s": ("doubling.check_domain", 1),
    "doubling.check_domain_self_s": ("doubling.check_domain", 2),
    "doubling.minimal_violating_radius_s": ("doubling.minimal_violating_radius", 1),
    "doubling.verify_certificate_calls": ("doubling.verify_certificate", 0),
    "doubling.verify_certificate_s": ("doubling.verify_certificate", 1),
    "doubling.verdict_to_jsonable_s": ("doubling.verdict_to_jsonable", 1),
    "doubling.verdict_from_jsonable_s": ("doubling.verdict_from_jsonable", 1),
    "decomposition.pieces_from_certificate_s": ("decomposition.pieces_from_certificate", 1),
    "decomposition.verify_decomposition_calls": ("decomposition.verify_decomposition", 0),
    "decomposition.verify_decomposition_s": ("decomposition.verify_decomposition", 1),
    "decomposition.report_to_text_calls": ("decomposition.report_to_text", 0),
    "decomposition.report_to_text_s": ("decomposition.report_to_text", 1),
    "decomposition.decomposition_to_jsonable_s": ("decomposition.decomposition_to_jsonable", 1),
    "decomposition.free_up_to_length_s": ("decomposition.free_up_to_length", 1),
    "forest.samples": ("forest.sample_forest", 0),
    "forest.sample_forest_s": ("forest.sample_forest", 1),
    "forest.sample_forest_self_s": ("forest.sample_forest", 2),
    "forest.sample_with_required_s": ("forest.sample_with_required", 1),
    "forest.audits": ("forest.audit", 0),
    "forest.audit_s": ("forest.audit", 1),
    "forest.audit_to_jsonable_s": ("forest.audit_to_jsonable", 1),
    "cli.self_s": ("cli.main", 2),
    "cli.json_encode_s": ("cli.json_encode", 1),
    "cli.json_decode_s": ("cli.json_decode", 1),
}
SPAN_COUNTS = (
    "cayley.vertices_enumerated",
    "matching.left_vertices",
    "matching.adjacency_entries",
    "matching.reach_left",
    "doubling.union_recounts",
)
PASS_COUNTS = ("groups.multiply_calls", "decomposition.freeness_multiplies")
COMMANDS = ("check", "decompose", "violate", "free_check", "report", "forest_audit")
UNITS = {"s": "s", "pct": "%", "mb": "MB", "bytes": "bytes"}


def unit_of(name: str) -> str:
    return UNITS.get(name.rsplit("_", 1)[-1], "count")


def span_metrics(calls: list) -> dict:
    """Per-layer values of one traced pass, summed over its calls."""
    values = {name: 0.0 if unit_of(name) == "s" else 0 for name in SPAN_METRICS}
    values.update({name: 0 for name in SPAN_COUNTS})
    for call in calls:
        spans = call.record["spans"]
        for name, (span, field) in SPAN_METRICS.items():
            if span in spans:
                scale = call.scale if field else 1
                values[name] += spans[span][field] * scale
        for name in SPAN_COUNTS:
            values[name] += call.record["counts"][name]
    values["cli.output_bytes"] = sum(len(call.stdout) for call in calls)
    return values


def call_counts(call: Call) -> dict:
    spans = {span: entry[0] for span, entry in call.record["spans"].items()}
    return {**spans, **call.record["counts"]}


# -- the run --------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "paradec" / "cli.py").is_file():
        print(f"error: no paradec sources under {SRC}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    # The calls run with Python's defaults, as a user's shell has them, not
    # with whatever PYTHON* settings the caller has (no bytecode cache,
    # unbuffered output).
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    load = WORKLOADS[args.workload](args.seed)
    ops = load.ops

    # Untimed warm-up: compiles the bytecode cache once, as an installed
    # program has it before its first use.
    subprocess.run([sys.executable, "-c", "import paradec.cli"], cwd=WORK, env=env)

    plain: list[list] = []
    traced: list[list] = []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < args.seconds:
        plain.append(run_pass(ops, "plain", env))
        if args.trace:
            traced.append(run_pass(ops, "spans", env))
    counted = run_pass(ops, "count", env) if args.trace else []
    runs = plain + traced + [counted]

    # Everything below is untimed: determinism, verification, self-test.
    reference = {}
    for calls in plain:
        for call in calls:
            if call.error is None:
                reference.setdefault(call.op.key, call.stdout)
    for calls in runs:
        for call in calls:
            if call.error is None and call.stdout != reference.get(call.op.key):
                call.error = "stdout differs from the first untraced call"
    first_counts = {}
    for calls in traced:
        for call in calls:
            if call.error is None:
                counts = first_counts.setdefault(call.op.key, call_counts(call))
                if call_counts(call) != counts:
                    call.error = "traced call counts differ between passes"

    def extra(argv: tuple, expect_rc: int) -> "bytes | None":
        record, stdout, error = run_call(argv, "extra.json", expect_rc, "plain", env)
        return None if error else stdout

    if len(reference) == len(ops):
        verdicts = load.check(reference, extra)
        accepted = load.selftest(reference)
    else:
        verdicts, accepted = {}, ["tampered witness: some command gave no output to build it"]
    for calls in runs:
        for call in calls:
            if call.error is None and verdicts.get(call.op.key) is not None:
                call.error = verdicts[call.op.key]

    every = [call for calls in runs for call in calls]
    failures = [call for call in every if call.error is not None]
    for call in failures:
        print(f"FAILED {call.op.key}: {call.error}", file=sys.stderr)
    for name in accepted:
        print(f"SELF-TEST: the verifier accepted a {name}", file=sys.stderr)

    complete = [calls for calls in plain if all(c.record is not None for c in calls)]
    if not complete:
        print("error: no pass completed; nothing to measure", file=sys.stderr)
        return 1
    per_op = {op.key: [calls[i] for calls in complete] for i, op in enumerate(ops)}
    for key, calls in per_op.items():
        print(
            f"{key:13s} {central(c.call_s for c in calls):8.4f} s at reference "
            f"speed, {central(c.record['call_s'] for c in calls):8.4f} s wall, "
            f"over {len(calls)} calls"
        )
    calibration = statistics.median(c.record["calib_s"] for c in every if c.record)
    print(f"calibration loop {calibration:.4f} s (reference {REFERENCE_CALIBRATION_S} s)")
    print(f"operations attempted {len(every)}, failed {len(failures)}")

    untraced_s = central(pass_s(calls) for calls in complete)
    if not args.trace:
        values = {
            "workload_s": untraced_s,
            "setup_s": statistics.median(c.import_s for calls in complete for c in calls),
            "peak_rss_mb": statistics.median(
                max(c.record["maxrss_kb"] for c in calls) / 1024 for calls in complete
            ),
        }
    else:
        traced_complete = [calls for calls in traced if all(c.record for c in calls)]
        if not traced_complete or not all(c.record for c in counted):
            print("error: no traced pass completed", file=sys.stderr)
            return 1
        per_pass = [span_metrics(calls) for calls in traced_complete]
        # counts repeat exactly between passes (checked above); times vary
        values = {
            name: central(p[name] for p in per_pass) if unit_of(name) == "s" else count
            for name, count in per_pass[0].items()
        }
        for name in PASS_COUNTS:
            values[name] = sum(c.record["counts"][name] for c in counted)
        for command in COMMANDS:
            calls = per_op.get(command)
            values[f"cmd.{command}_s"] = central(c.call_s for c in calls) if calls else 0.0
        traced_s = central(pass_s(calls) for calls in traced_complete)
        values["trace.overhead_pct"] = 100 * (traced_s - untraced_s) / untraced_s
    result = {
        "correct": not failures and not accepted,
        "attempted": len(every),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()},
    }
    shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
