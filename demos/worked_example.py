"""Watch the construction build a Dyck path one entry at a time.

Feeds an eight-entry sequence through the forward map and draws every
intermediate path, annotated with the case taken and, for the menu case,
the menu, the position picked, and the upstep transfer distance.
"""

from ascentdyck import (
    forward_trace,
    inverse,
    render_ascii,
    validate_ascent_sequence,
)

CASE_NAMES = {
    1: "zero entry: widen the last peak",
    2: "repeated entry: raise the whole path by one",
    3: "new maximum: append a peak at ground level",
    4: "menu entry: open a peak on a key downstep",
}


def show(seq_entries):
    seq = validate_ascent_sequence(seq_entries)
    trace = forward_trace(seq)
    print(f"sequence {seq}\n")
    print("start with the one-peak path:\n")
    print(render_ascii(trace.initial))
    for rec in trace.records:
        prefix = ",".join(map(str, seq.entries[: rec.position]))
        print(f"entry {rec.entry} (prefix now {prefix})")
        print(f"  case {rec.case_id}: {CASE_NAMES[rec.case_id]}")
        if rec.case_id == 4:
            menu = ",".join(map(str, rec.allowable.values))
            keys = ",".join(str(k.index) for k in rec.key_downsteps_before)
            print(f"  menu ({menu}), picked position {rec.allowable_index}; "
                  f"key downsteps were at steps [{keys}]")
            if rec.elevation_degree:
                print(f"  moved {rec.elevation_degree} upstep(s) from the front "
                      f"into the target ascent")
        print()
        print(render_ascii(rec.path_after))
    final = trace.final_path
    print(f"image: {final}")
    print(f"unwinding it recovers: {inverse(final)}")


if __name__ == "__main__":
    show([0, 1, 0, 1, 2, 2, 0, 3])
