"""Exception types shared across the package.

Input problems subclass :class:`InputError` (a ``ValueError``); conditions
that can only arise from a bug in the library itself subclass
:class:`InternalInvariant` (a ``RuntimeError``).  Errors that point at a
single offending element carry its 1-based position.  ``_require_int``
is the one type check that sizes, indices, vertices and counts share.
"""


class InputError(ValueError):
    """Rejected user-supplied data."""


class InternalInvariant(RuntimeError):
    """A guarantee the construction is supposed to maintain was violated."""


# -- sequence-side input errors ------------------------------------------


class EmptyInput(InputError):
    pass


class FirstEntryNonzero(InputError):
    pass


class NonIntegerEntry(InputError):
    def __init__(self, position: int, entry):
        super().__init__(f"entry {entry!r} at position {position} is not an integer")
        self.position = position


class NegativeEntry(InputError):
    def __init__(self, position: int, entry: int):
        super().__init__(f"entry {entry} at position {position} is negative")
        self.position = position


class AscentBoundViolated(InputError):
    def __init__(self, position: int, entry: int, bound: int):
        super().__init__(
            f"entry {entry} at position {position} exceeds the allowed "
            f"maximum {bound} (one more than the ascents before it)"
        )
        self.position = position


class Not021Avoiding(InputError):
    def __init__(self, position: int):
        super().__init__(
            f"not 021-avoiding: the nonzero entry at position {position} "
            f"is smaller than an earlier nonzero entry"
        )
        self.position = position


class EntryNotAllowed(InputError):
    def __init__(self, entry: int, allowed):
        super().__init__(
            f"entry {entry} cannot extend this prefix; allowed values: "
            f"{','.join(map(str, allowed))}"
        )
        self.entry = entry


# -- path-side input errors ----------------------------------------------


class BadCharacter(InputError):
    def __init__(self, position: int, char: str):
        super().__init__(f"unexpected character {char!r} at position {position}")
        self.position = position


class Unbalanced(InputError):
    pass


class DipsBelowGround(InputError):
    def __init__(self, position: int):
        super().__init__(f"path dips below ground level at step {position}")
        self.position = position


class IndexOutOfRange(InputError):
    pass


class WrongKind(InputError):
    pass


class NotElevated(InputError):
    pass


class TooSmall(InputError):
    pass


class NotEnoughUpsteps(InputError):
    pass


class ResultInvalid(InternalInvariant):
    """An edit produced an invalid path; the construction never does this."""


# -- shared --------------------------------------------------------------


class SizeZero(InputError):
    pass


class CapExceeded(InputError):
    pass


def _require_int(value, what: str) -> None:
    # exactly int, as for sequence entries: a bool, float or digit string
    # is no size, index, vertex or count
    if type(value) is not int:
        raise InputError(f"{what} must be an int, got {value!r}")
