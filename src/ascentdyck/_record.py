"""Frozen value records: the package's immutable value types.

A subclass's own annotations, in order, are its fields, listed in
``__match_args__``; a class attribute gives a field's default.  The
instance ``__dict__`` holds exactly the fields, so pickle and copy work.
"""


class _Record:
    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = tuple(vars(cls).get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        # built positionally or by keyword, then __post_init__ runs
        cls = type(self)
        names = cls.__match_args__
        given = dict(zip(names, args), **kwargs)
        if len(given) < len(args) + len(kwargs) or not given.keys() <= set(names):
            raise TypeError(f"{cls.__name__}() got too many, repeated or unknown arguments")
        defaults = vars(cls)
        try:
            self.__dict__.update({n: given[n] if n in given else defaults[n] for n in names})
        except KeyError as exc:
            raise TypeError(f"{cls.__name__}() missing argument {exc}") from None
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self.__match_args__))

    def __eq__(self, other):
        # equal only to a record of the same class with equal fields
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__match_args__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
