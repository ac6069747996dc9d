"""One benchmarked CLI invocation in a fresh interpreter.

    python3 bench/child.py RESULT.json probe
    python3 bench/child.py RESULT.json run -- ARGV...
    python3 bench/child.py RESULT.json trace INVOCATION -- ARGV...

The child imports ``horoshift.cli`` first and notes the monotonic clock, so
the parent can time set-up from spawn to import.  ``probe`` stops there.
``run`` calls ``cli.main(ARGV)`` in the working directory and reports its
time, exit code, peak RSS and the SHA-256 of every file it created or
changed (``run.log`` excepted), plus the times of a fixed calibration loop
run right before and after ``cli.main``.  ``trace`` does the same with every layer's
public functions wrapped (see ``spans.py``) and adds the recorded spans,
each tagged with INVOCATION.
The report is written to RESULT.json when the child exits.
"""

import time

import horoshift.cli as cli

IMPORTED_AT = time.clock_gettime(time.CLOCK_MONOTONIC)

import hashlib  # noqa: E402  (after the set-up timestamp on purpose)
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

SIDECARS = {"run.log"}
CALIBRATION_SLICES = 3
CALIBRATION_SHARE = 0.05  # calibration after main, as a share of main's time


def _calibration_slice():
    """Seconds for a fixed piece of pure-Python work (integer arithmetic and
    dict updates, like the program's); it tracks how fast the host runs
    this process right now."""
    t0 = time.perf_counter()
    table, x = {}, 1
    for i in range(60_000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        table[x & 0xFFF] = table.get(x & 0xFFF, 0) ^ i
    return time.perf_counter() - t0


def _calibrate(seconds=0.0):
    slices, t0 = [], time.perf_counter()
    while len(slices) < CALIBRATION_SLICES or time.perf_counter() - t0 < seconds:
        slices.append(_calibration_slice())
    return slices


def _snapshot(root):
    state = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            st = os.stat(path)
            state[os.path.relpath(path, root)] = (st.st_mtime_ns, st.st_size,
                                                  st.st_ino)
    return state


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _exit_code(exc):
    if exc.code is None:
        return 0
    return exc.code if isinstance(exc.code, int) else 1


def main(result_path, mode, invocation, argv):
    report = {"imported_at": IMPORTED_AT}
    if mode != "probe":
        recorder = None
        entry = cli.main
        if mode == "trace":
            import spans
            recorder = spans.Recorder(invocation)
            recorder.install()
            entry = recorder.wrap("cli.main", cli.main)
        before = _snapshot(".")
        report["calibration"] = _calibrate()
        t0 = time.perf_counter()
        try:
            rc = entry(argv)
        except SystemExit as e:
            rc = _exit_code(e)
        except Exception:
            rc = None
            report["error"] = traceback.format_exc()
        report["main_s"] = time.perf_counter() - t0
        report["calibration"] += _calibrate(CALIBRATION_SHARE * report["main_s"])
        report["rc"] = rc
        report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        after = _snapshot(".")
        report["artifacts"] = {
            rel: _sha256(rel) for rel, st in sorted(after.items())
            if before.get(rel) != st and os.path.basename(rel) not in SIDECARS}
        if recorder is not None:
            report["spans"] = recorder.spans
            report["warnings"] = recorder.warnings
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(report, f)


if __name__ == "__main__":
    args = sys.argv[1:]
    cut = args.index("--") if "--" in args else len(args)
    main(args[0], args[1], args[2] if cut > 2 else None, args[cut + 1:])
