"""Apply each mutant of ``mutants.py`` to a copy of the sources and run its
named tests there.

    python tests/run_mutants.py                       # every mutant
    python tests/run_mutants.py NAME ...              # the mutants with these names
    python tests/run_mutants.py --file src/paradec/cayley.py
                                                      # the mutants of one module

``--file`` may be given more than once, and with names it keeps the
mutants that match either.

For each mutant, ``src/``, ``tests/`` and ``pyproject.toml`` are copied to a
temporary directory, the mutant's old text is replaced in its file, and its
tests run from that copy in a fresh pytest process, with Hypothesis seeded
and no cache.  A mutant is killed when at least one of its tests fails.
Equivalent mutants are listed, not run.  Prints one line per mutant, with
its failed tests and time, then the total; exits 1 if a mutant survived or
its tests could not run.  Needs pytest alone.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from mutants import MUTANTS, Mutant

ROOT = Path(__file__).resolve().parent.parent


def mutated_copy(mutant: Mutant, where: Path) -> None:
    """The sources and tests under ``where``, with ``mutant`` applied."""
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, where / part, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", where)
    target = where / mutant.file
    text = target.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: the old text does not occur once in {mutant.file}")
    target.write_text(text.replace(mutant.old, mutant.new))


def failed_tests(mutant: Mutant) -> "tuple[list[str], int]":
    """The ids of the mutant's tests that fail under it, and pytest's exit
    code."""
    with tempfile.TemporaryDirectory() as tmp:
        where = Path(tmp)
        mutated_copy(mutant, where)
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", "--tb=no", "-rfE", *mutant.tests],
            cwd=where,
            env=dict(os.environ, PYTHONPATH=str(where / "src")),
            capture_output=True,
            text=True,
        )
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", result.stdout, re.MULTILINE)
    return failed, result.returncode


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("names", nargs="*", help="mutant names")
    parser.add_argument(
        "--file", action="append", default=[], metavar="PATH",
        help="run the mutants of this source file, relative to the repository root",
    )
    args = parser.parse_args(argv)
    names, files = set(args.names), {Path(f).as_posix() for f in args.file}
    unknown = names - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"no mutant named {', '.join(sorted(unknown))}")
    unused = files - {m.file for m in MUTANTS}
    if unused:
        raise SystemExit(f"no mutant of {', '.join(sorted(unused))}")
    chosen = [
        m for m in MUTANTS
        if not (names or files) or m.name in names or m.file in files
    ]
    started = time.perf_counter()
    bad = 0
    for mutant in chosen:
        if mutant.equivalent:
            print(f"equivalent  {mutant.name}: {mutant.equivalent}")
            continue
        began = time.perf_counter()
        failed, code = failed_tests(mutant)
        elapsed = time.perf_counter() - began
        if code not in (0, 1):
            status = f"ERROR (pytest exit {code})"
        else:
            status = "killed" if failed else "SURVIVED"
        bad += status != "killed"
        print(
            f"{status:<11} {mutant.name}: {len(failed)} of {len(mutant.tests)} "
            f"tests failed, {elapsed:.1f} s"
        )
    print(f"{len(chosen)} mutants, {bad} not killed, {time.perf_counter() - started:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
