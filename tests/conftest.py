"""Shared brute-force oracles, written straight from the definitions and
kept independent of the library's own machinery."""

from itertools import product
from math import comb


def catalan_binomial(n: int) -> int:
    # closed form, independent of the library's recurrence
    return comb(2 * n, n) // (n + 1)


def all_ascent_sequences(n: int, max_val: int | None = None):
    """Every valid ascent sequence of length n, by definition."""

    def ascents(xs):
        return sum(1 for i in range(len(xs) - 1) if xs[i] < xs[i + 1])

    out = [[0]]
    for _ in range(n - 1):
        grown = []
        for xs in out:
            top = ascents(xs) + 1
            if max_val is not None:
                top = min(top, max_val)
            for v in range(top + 1):
                grown.append(xs + [v])
        out = grown
    return [tuple(xs) for xs in out]


def nonzero_weakly_increasing(xs) -> bool:
    nz = [x for x in xs if x != 0]
    return all(a <= b for a, b in zip(nz, nz[1:]))


def all_dyck_words(n: int):
    """Every valid word of size n by filtering the full cube, by definition."""
    out = []
    for word in product("UD", repeat=2 * n):
        bal = 0
        for c in word:
            bal += 1 if c == "U" else -1
            if bal < 0:
                break
        else:
            if bal == 0:
                out.append("".join(word))
    return out


def stack_matching(steps: str) -> dict[int, int]:
    """Classic one-pass pairing: maps each downstep's 1-based index to its
    matching upstep's, using an explicit stack."""
    pairs = {}
    stack = []
    for i, c in enumerate(steps, start=1):
        if c == "U":
            stack.append(i)
        else:
            pairs[i] = stack.pop()
    return pairs


def raised(fn, arg):
    """None when ``fn(arg)`` returns, else the class and message it raised."""
    try:
        fn(arg)
    except Exception as exc:  # any exception is an outcome
        return type(exc), str(exc)
    return None
