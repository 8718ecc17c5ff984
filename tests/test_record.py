"""Record against a frozen dataclass with the same fields.

The dataclass twin lives only here: the program imports no dataclasses.
"""

import types
from dataclasses import field, make_dataclass

from hypothesis import given, settings, strategies as st

from horokit.record import Record, factory

KINDS = {
    int: st.integers(-2, 2),
    str: st.text("ab", max_size=2),
    tuple: st.lists(st.integers(0, 2), max_size=2).map(tuple),
    frozenset: st.frozensets(st.integers(0, 2), max_size=2),
    dict: st.dictionaries(st.integers(0, 1), st.integers(0, 1), max_size=1),
}
PLAIN_DEFAULTS = {int: 0, str: "", tuple: (), frozenset: frozenset()}


def outcome(fn, *args, **kwargs):
    """("ok", result) or (exception type, message)."""
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:   # the twins must fail alike
        return type(exc), str(exc)


def twins(name, kinds, n_defaults, order, post_init):
    """A Record class and a frozen dataclass with fields f0, f1, ... of the
    given kinds, the last n_defaults of them with defaults."""
    names = [f"f{i}" for i in range(len(kinds))]
    body = {"__annotations__": dict(zip(names, kinds))}
    spec = []
    for i, (fname, kind) in enumerate(zip(names, kinds)):
        if i < len(kinds) - n_defaults:
            spec.append((fname, kind))
        elif kind is dict:
            body[fname] = factory(dict)
            spec.append((fname, kind, field(default_factory=dict)))
        else:
            body[fname] = PLAIN_DEFAULTS[kind]
            spec.append((fname, kind, field(default=PLAIN_DEFAULTS[kind])))
    extra = {}
    if post_init and names:
        def __post_init__(self):
            object.__setattr__(self, names[0], ("post", getattr(self, names[0])))
        extra["__post_init__"] = __post_init__
    rec = types.new_class(name, (Record,), {"order": order},
                          lambda ns: ns.update(body, **extra))
    twin = make_dataclass(name, spec, frozen=True, order=order, namespace=extra)
    return rec, twin


@st.composite
def cases(draw):
    kinds = draw(st.lists(st.sampled_from(list(KINDS)), max_size=4))
    n_defaults = draw(st.integers(0, len(kinds)))
    order = draw(st.booleans())
    post_init = draw(st.booleans())
    values = [tuple(draw(KINDS[k]) for k in kinds) for _ in range(2)]
    return kinds, n_defaults, order, post_init, values


@settings(max_examples=400, deadline=None, derandomize=True)
@given(cases())
def test_record_matches_frozen_dataclass(case):
    kinds, n_defaults, order, post_init, (va, vb) = case
    R, D = twins("Rec", kinds, n_defaults, order, post_init)
    R2, D2 = twins("Other", kinds, n_defaults, order, post_init)
    names = [f"f{i}" for i in range(len(kinds))]
    ra, rb, da, db = R(*va), R(*vb), D(*va), D(*vb)
    for r, d in ((ra, da), (rb, db)):
        assert repr(r) == repr(d)
        assert outcome(hash, r) == outcome(hash, d)
        for fname in names:
            assert getattr(r, fname) == getattr(d, fname)
    # equality within a class and across two classes with the same fields
    for r, s, d, e in ((ra, rb, da, db), (ra, R(*va), da, D(*va)),
                       (ra, R2(*va), da, D2(*va))):
        assert (r == s, r != s) == (d == e, d != e)
        assert r.__eq__(s) == d.__eq__(e)
    # ordering, and its TypeError without order=True or across classes
    for r, s, d, e in ((ra, rb, da, db), (ra, R2(*vb), da, D2(*vb))):
        for op in ("__lt__", "__le__", "__gt__", "__ge__"):
            want = outcome(lambda x, y: getattr(x, op)(y), d, e)
            assert outcome(lambda x, y: getattr(x, op)(y), r, s) == want
        for cmp in (lambda x, y: x < y, lambda x, y: x <= y):
            assert outcome(cmp, r, s) == outcome(cmp, d, e)
    # frozen: assignment and deletion fail with the dataclass's message
    for attr in names + ["other"]:
        for act in (lambda x: setattr(x, attr, 1), lambda x: delattr(x, attr)):
            got, want = outcome(act, ra), outcome(act, da)
            assert issubclass(got[0], AttributeError) and got[1] == want[1]
    # keywords, defaults and the arity errors
    kw = dict(zip(names, va))
    n_required = len(kinds) - n_defaults
    calls = [((), kw), (va[:n_required], {}), (va[:-1], {}), (va + (0,), {}),
             ((), {"zz": 1}), (va, {"zz": 1}), (va[:-1], {"zz": 1}),
             ((), dict(list(kw.items())[1:]))]
    if names:
        calls.append((va, {names[0]: va[0]}))
        calls.append((va[:1], {names[0]: va[0]}))
    for args, kwargs in calls:
        got, want = outcome(R, *args, **kwargs), outcome(D, *args, **kwargs)
        if got[0] == "ok":
            assert want[0] == "ok" and repr(got[1]) == repr(want[1])
        else:
            assert got == want
    # a factory default is made anew for every instance
    if n_required < len(kinds):
        r1, r2 = R(*va[:n_required]), R(*va[:n_required])
        d1, d2 = D(*va[:n_required]), D(*va[:n_required])
        for fname, kind in zip(names[n_required:], kinds[n_required:]):
            if kind is dict:
                assert getattr(r1, fname) == getattr(d1, fname)
                assert getattr(r1, fname) is not getattr(r2, fname)
                assert getattr(d1, fname) is not getattr(d2, fname)
                assert not hasattr(R, fname) and not hasattr(D, fname)


def test_program_records_keep_the_tuple_hash():
    from horokit.horo import Case0, ColoredCone
    from horokit.polyhedra import FaceSignature
    from horokit.rootdata import GroupFactor, Root

    assert Case0() == Case0() and Case0() != () and hash(Case0()) == hash(())
    assert hash(Root(1, 2)) == hash((1, 2)) and Root(0, 3) < Root(1, 0)
    assert hash(GroupFactor("A", 3)) == hash(("A", 3))
    cone = ColoredCone([[1, 0]], [Root(0, 1)])
    assert cone == ColoredCone(((1, 0),), frozenset({Root(0, 1)}))
    assert hash(cone) == hash((((1, 0),), frozenset({Root(0, 1)})))
    assert repr(FaceSignature(frozenset({1}), 0)) == \
        "FaceSignature(active_rows=frozenset({1}), dim=0)"
