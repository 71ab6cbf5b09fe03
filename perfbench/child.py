"""Run one paradec CLI call in this fresh process, as a user's shell would.

usage: python3 child.py RECORD MODE -- ARGV...

MODE is ``plain`` (timings only), ``spans`` (wrappers on the traced
functions) or ``count`` (counting group multiplications).  The CLI writes
to this process's stdout.  The import of ``paradec.cli`` and the call into
``paradec.cli.main(ARGV)`` are timed separately, and a calibration loop is
timed three times before the import and three times after the call.  The
record is written to RECORD as JSON only when ``main`` returns, and the
process exits with ``main``'s code.
"""

import gc
import sys
import time


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop of the same kind of work as
    paradec's: 24 ball enumerations of radius 4 in the free group of rank 3.
    The machine's speed swings over seconds, so each call is measured
    against this loop, run in the same process just before and just after
    it.  The balls are small, so the loop does not raise the peak memory."""
    gc.disable()
    start = time.perf_counter()
    letters = (1, -1, 2, -2, 3, -3)
    for _ in range(24):
        seen = {(): 0}
        frontier = [()]
        for level in range(1, 5):
            found = set()
            for word in frontier:
                for letter in letters:
                    if word and word[-1] == -letter:
                        continue
                    nxt = word + (letter,)
                    if nxt not in seen:
                        found.add(nxt)
            frontier = sorted(found)
            for word in frontier:
                seen[word] = level
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def main() -> int:
    record_path, mode, separator = sys.argv[1:4]
    if separator != "--" or mode not in ("plain", "spans", "count"):
        raise SystemExit(__doc__)
    argv = sys.argv[4:]

    calibration = [calibrate() for _ in range(3)]

    # Only sys, time and gc are loaded before this point, so the import pays
    # for everything paradec.cli pulls in.
    start = time.perf_counter()
    import paradec.cli

    import_s = time.perf_counter() - start

    probe = None
    if mode != "plain":
        import tracer

        probe = tracer.install_spans() if mode == "spans" else tracer.install_counter()

    start = time.perf_counter()
    rc = paradec.cli.main(argv)
    sys.stdout.flush()
    call_s = time.perf_counter() - start

    import json
    import resource

    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    calibration += [calibrate() for _ in range(3)]
    record = {
        "rc": rc,
        "import_s": import_s,
        "call_s": call_s,
        "maxrss_kb": maxrss_kb,
        "module": paradec.cli.__file__,
        "calib_s": sum(calibration) / len(calibration),
    }
    if probe is not None:
        record.update(probe.summary())
    with open(record_path, "w") as handle:
        json.dump(record, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main())
