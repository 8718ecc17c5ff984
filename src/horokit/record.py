"""
Immutable value records.

A subclass of `Record` lists its fields as class annotations, in order,
with optional defaults, and gets what a frozen dataclass would give it:

    class Root(Record, order=True):
        factor: int
        index: int

- `__init__` taking the fields by position or keyword, with Python's own
  `TypeError` messages for a missing, surplus or unexpected argument, and
  then calling the class's `__post_init__`, if it has one;
- `__eq__` on the tuple of fields between instances of one class
  (`NotImplemented` across classes), and `__hash__`, the hash of that tuple;
- `__repr__` as `Name(field=value, ...)`;
- with `order=True`, `<`, `<=`, `>` and `>=` on the tuple of fields;
- assignment and deletion raise `AttributeError`; a `__post_init__` sets a
  field with `object.__setattr__`.

A default of `factory(f)` is replaced by a fresh `f()` for every instance.
The methods are closures over each class's field names, made once in
`__init_subclass__`; no source is generated.  A method the class body
defines itself is kept: the records made or hashed in hot loops (`Root`,
`ColoredCone`, `FaceSignature`) write theirs out, since naming the fields
in the source is faster than the generic field getter.
"""

from operator import attrgetter, eq, ge, gt, le, lt

# For an __init__ written out by hand: sets a field past the frozen
# __setattr__, a little faster than spelling object.__setattr__ each time.
set_field = object.__setattr__


class factory:
    """A default made anew for each instance by calling `make()`."""

    def __init__(self, make):
        self.make = make


def _fresh(default):
    return default.make() if isinstance(default, factory) else default


def _key_of(names):
    """A function from an instance to the tuple of its fields."""
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda self: (get(self),)
    if names:
        return attrgetter(*names)
    return lambda self: ()


def _compare(key, op):
    """A comparison method: op on the tuples of fields of two instances of
    one class, NotImplemented across classes."""
    def method(self, other):
        if other.__class__ is self.__class__:
            return op(key(self), key(other))
        return NotImplemented
    return method


def _quoted(names):
    """'a', 'a' and 'b', 'a', 'b' and 'c' - as Python lists missing arguments."""
    quoted = [repr(n) for n in names]
    if len(quoted) == 1:
        return quoted[0]
    return ", ".join(quoted[:-1]) + " and " + quoted[-1]


def _binder(cls, names, defaults):
    """args, kwargs -> the tuple of field values, or Python's TypeError."""
    where = f"{cls.__qualname__}.__init__()"
    n = len(names)
    lo = n - len(defaults)
    tail = tuple(defaults.values())
    fresh = any(isinstance(value, factory) for value in tail)

    def bind(args, kwargs):
        if not kwargs and lo <= len(args) < n and not fresh:
            return args + tail[len(args) - lo:]
        given = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{where} got an unexpected keyword argument {name!r}")
            if name in given:
                raise TypeError(f"{where} got multiple values for argument {name!r}")
            given[name] = value
        if len(args) > n:
            takes = f"from {lo + 1} to {n + 1}" if lo < n else f"{n + 1}"
            raise TypeError(f"{where} takes {takes} positional argument"
                            f"{'' if takes == '1' else 's'} but {len(args) + 1} were given")
        missing = [name for name in names[:lo] if name not in given]
        if missing:
            raise TypeError(f"{where} missing {len(missing)} required positional argument"
                            f"{'s' if len(missing) > 1 else ''}: {_quoted(missing)}")
        for name in names[lo:]:
            if name not in given:
                given[name] = _fresh(defaults[name])
        return tuple(given[name] for name in names)

    return bind


class Record:
    """Base of the value records; a record class is not subclassed again."""

    def __init_subclass__(cls, order=False, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__dict__.get("__annotations__", ()))
        defaults = {}
        for name in names:
            if name in cls.__dict__:
                defaults[name] = value = cls.__dict__[name]
                if isinstance(value, factory):
                    delattr(cls, name)
            elif defaults:
                raise TypeError(f"non-default argument {name!r} follows default argument")
        n = len(names)
        indices = range(n)
        bind = _binder(cls, names, defaults)
        key = _key_of(names)
        post_init = getattr(cls, "__post_init__", None)

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != n:
                args = bind(args, kwargs)
            for i in indices:   # faster than zip(names, args)
                set_field(self, names[i], args[i])
            if post_init is not None:
                post_init(self)

        def __hash__(self):
            return hash(key(self))

        def __repr__(self):
            fields = ", ".join(map("{}={!r}".format, names, key(self)))
            return f"{self.__class__.__qualname__}({fields})"

        methods = {"__init__": __init__, "__eq__": _compare(key, eq),
                   "__hash__": __hash__, "__repr__": __repr__}
        if order:
            methods.update((f"__{op.__name__}__", _compare(key, op))
                           for op in (lt, le, gt, ge))
        for name, method in methods.items():
            if cls.__dict__.get(name) is None:
                method.__qualname__ = f"{cls.__qualname__}.{name}"
                setattr(cls, name, method)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
