"""Time ``enumerate N --stats`` on each side and record it in BENCH_enumerate.json.

    python3 bench/bench_enumerate.py [--checkout LABEL=DIR]... [--out FILE]

Each ``--checkout`` names a source checkout (a directory holding
``src/ascentdyck``) and the label its record is filed under; without one,
the checkout holding this script is timed as ``this``.  Each side is
timed at N = 10, 11 and 12, five runs each.  Every run is a
fresh interpreter that imports the package from its checkout, makes one
untimed call of the command (it builds the parser and counts the rows,
which must be Catalan(N)) and then times one call with stdout sent to
``os.devnull``, so a row costs what it costs on a real stream, less the
terminal.  The checkouts take turns within each command and swap order
from run to run, so a host that drifts in speed moves them alike.

The output file maps each label to one record: the Python version,
``nproc``, the git commit, and per command the seconds of every run, their
median and the rows per second at the median.  Other labels already in
the file are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("seq", "path", "pairs")
SIZES = (10, 11, 12)
RUNS = 5

# one run; argv[1] is the checkout and argv[2:] the command
_RUN = """
import contextlib, json, os, sys, time
sys.path.insert(0, os.path.join(sys.argv[1], "src"))
from ascentdyck.cli import main
from ascentdyck.verify import catalan
argv = sys.argv[2:]

class Lines:
    lines = 0
    def write(self, text):
        self.lines += text.count("\\n")
    def flush(self):
        pass

counted = Lines()
with contextlib.redirect_stdout(counted):
    main(argv)
with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
    start = time.perf_counter()
    code = main(argv)
    seconds = time.perf_counter() - start
rows = catalan(int(argv[1]))
print(json.dumps({"ok": code == 0 and counted.lines == rows, "rows": rows, "seconds": seconds}))
"""


def _run(checkout: str, argv: list[str]) -> dict:
    proc = subprocess.run([sys.executable, "-c", _RUN, checkout, *argv],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _git_commit(checkout: str) -> str | None:
    proc = subprocess.run(["git", "-C", checkout, "describe", "--always", "--dirty"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def measure(checkouts: dict[str, str]) -> dict[str, list[dict]]:
    entries = {label: [] for label in checkouts}
    for n in SIZES:
        for side in SIDES:
            argv = ["enumerate", str(n), "--stats", "--side", side]
            seconds = {label: [] for label in checkouts}
            order = list(checkouts)
            for _ in range(RUNS):
                for label in order:
                    got = _run(checkouts[label], argv)
                    if not got["ok"]:
                        raise SystemExit(f"{label}: {' '.join(argv)} failed or miscounted")
                    seconds[label].append(got["seconds"])
                order.reverse()
            for label, times in seconds.items():
                median = statistics.median(times)
                entries[label].append({
                    "command": "ascentdyck " + " ".join(argv), "n": n, "side": side,
                    "rows": got["rows"], "runs_s": [round(s, 4) for s in times],
                    "median_s": round(median, 4), "rows_per_s": round(got["rows"] / median),
                })
                print(f"{label}: {' '.join(argv)}: {median:.3f} s", file=sys.stderr)
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", action="append", metavar="LABEL=DIR",
                        help="a checkout to time and its label (repeatable)")
    parser.add_argument("--out", default=os.path.join(HERE, "BENCH_enumerate.json"))
    args = parser.parse_args(argv)
    checkouts = dict(spec.split("=", 1) for spec in args.checkout or [f"this={HERE}"])
    for label, checkout in checkouts.items():
        if not os.path.isdir(os.path.join(checkout, "src", "ascentdyck")):
            parser.error(f"{label}: no src/ascentdyck under {checkout}")
    entries = measure(checkouts)
    try:
        with open(args.out) as f:
            recorded = json.load(f)
    except FileNotFoundError:
        recorded = {}
    for label, checkout in checkouts.items():
        recorded[label] = {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "git_commit": _git_commit(checkout),
            "runs": RUNS,
            "entries": entries[label],
        }
    with open(args.out, "w") as f:
        json.dump(recorded, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
