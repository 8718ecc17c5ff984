import pytest
from fractions import Fraction as F
from hypothesis import given, settings, strategies as st

from horokit import classify as cl, divisor as dv, quadruple as qd
from horokit.errors import EmptyFace, IncompatibleQuadruples
from horokit.horo import HomSpaceData
from horokit.polyhedra import InequalitySystem, gstable_tag
from horokit.quadruple import COLLAPSED, AdmissibleQuadruple
from horokit.rootdata import GroupProduct, Root, SL, TORUS_FACTOR, TRIVIAL_FACTOR

from margin_reference import margin_is_admissible


def segment_quadruples():
    """The two rank-one segments on X(P) = Z w1 + Z w2 with M = Z w2."""
    G = GroupProduct((SL(3),))
    w2 = G.fundamental_weight(Root(0, 2))
    hs = HomSpaceData(G, frozenset({Root(0, 1), Root(0, 2)}), (w2,))
    tags = (gstable_tag("bottom"), gstable_tag("top"))
    qt = InequalitySystem(((1,), (-1,)), (0, -2), tags)
    q_x = AdmissibleQuadruple(hs, qt, (F(2), F(2)))    # segment 2w1+2w2 .. 2w1+4w2
    q_xp = AdmissibleQuadruple(hs, qt, (F(2), F(0)))   # segment 2w1 .. 2w1+2w2
    return q_x, q_xp


def test_is_admissible():
    q_x, q_xp = segment_quadruples()
    ok, bad = qd.is_admissible(q_x)
    assert ok, bad
    ok, bad = qd.is_admissible(q_xp)
    assert ok, bad
    # translated entirely onto the first wall: interior clause fails
    q_wall = AdmissibleQuadruple(q_x.hs, q_x.qtilde, (F(0), F(2)))
    ok, bad = qd.is_admissible(q_wall)
    assert not ok and any("interior" in s for s in bad)
    # single point with positive rank: dimension clause fails
    pt = InequalitySystem(((1,), (-1,)), (0, 0))
    ok, bad = qd.is_admissible(AdmissibleQuadruple(q_x.hs, pt, (F(2), F(2))))
    assert not ok and any("full-dimensional" in s for s in bad)
    # the half-line x <= 2 runs out of the dominant cone: unbounded clause
    half = InequalitySystem(((-1,),), (-2,))
    ok, bad = qd.is_admissible(AdmissibleQuadruple(q_x.hs, half, (F(2), F(2))))
    assert not ok and any("unbounded" in s for s in bad)


def test_is_admissible_reads_one_vertex_table(monkeypatch):
    # every clause reads the table of Q~ plus its walls, the vertex and
    # boundedness clauses restricted to the rows of Q~
    from horokit import polyhedra as ph
    tables = []
    table = ph.vertex_table
    for module in (ph, qd):
        monkeypatch.setattr(module, "vertex_table",
                            lambda *args: tables.append(1) or table(*args))
    q_x, q_xp = segment_quadruples()
    q_wall = AdmissibleQuadruple(q_x.hs, q_x.qtilde, (F(0), F(2)))
    half = AdmissibleQuadruple(q_x.hs, InequalitySystem(((-1,),), (-2,)), (F(2), F(2)))
    for q in (q_x, q_xp, q_wall, half):
        tables.clear()
        qd.is_admissible(q)
        assert len(tables) == 1, q


def test_orbit_dictionary_segments():
    q_x, q_xp = segment_quadruples()
    poset = qd.orbit_poset(q_x)
    assert len(poset) == 3
    closed = [info for f, info in poset if f.dim == 0]
    # both end orbits keep the full color set: the parabolic is P itself
    assert all(info.r_set == q_x.hs.R for info in closed)
    assert all(info.dim == 3 for info in closed)
    openo = [info for f, info in poset if f.dim == 1][0]
    assert openo.dim == 4  # dim G/P + 1
    poset_p = qd.orbit_poset(q_xp)
    assert len(poset_p) == 3
    closed_p = {frozenset(f.active_rows): info for f, info in poset_p if f.dim == 0}
    lo = closed_p[frozenset({0})]   # the vertex at 2 w1
    hi = closed_p[frozenset({1})]   # the vertex at 2 w1 + 2 w2
    assert lo.walls == frozenset({Root(0, 2)})  # lies on the second wall
    assert lo.r_set == frozenset({Root(0, 1)})  # parabolic grows
    assert lo.dim == 2                          # dim G/P(w1)
    assert hi.r_set == q_xp.hs.R and hi.dim == 3


def test_orbit_dim_monotone():
    q_x, _ = segment_quadruples()
    poset = qd.orbit_poset(q_x)
    by_sig = {frozenset(f.active_rows): (f.dim, info.dim) for f, info in poset}
    for s1, (d1, o1) in by_sig.items():
        for s2, (d2, o2) in by_sig.items():
            if s1 > s2:  # s1 cuts a smaller face
                assert o1 < o2


def test_map_face_example():
    q_x, q_xp = segment_quadruples()
    # vertices of the first segment transport to vertices of the second
    for sig in ({0}, {1}):
        out = qd.map_face(q_x, q_xp, sig)
        assert out == frozenset(sig)
    # the wall vertex of the second segment collapses in reverse
    assert qd.map_face(q_xp, q_x, {0}) == COLLAPSED
    assert qd.map_face(q_xp, q_x, {1}) == frozenset({1})
    # identity transport
    for sig in ({0}, {1}, set()):
        assert qd.map_face(q_x, q_x, sig) == frozenset(sig)
    # closure order is respected
    img_full = qd.map_face(q_x, q_xp, set())
    img_v = qd.map_face(q_x, q_xp, {0})
    assert img_full <= img_v


def test_map_face_incompatible():
    q_x, _ = segment_quadruples()
    other = AdmissibleQuadruple(
        q_x.hs,
        InequalitySystem(((1,), (-1,)), (0, -2),
                         (gstable_tag("weird"), gstable_tag("top"))),
        (F(2), F(2)))
    # G-stable tags missing on the target are treated as pruned rows
    assert qd.map_face(q_x, other, {1}) == frozenset({1})
    from horokit.polyhedra import color_tag
    colored = AdmissibleQuadruple(
        q_x.hs,
        InequalitySystem(((1,), (-1,)), (0, -2),
                         (color_tag(Root(0, 2)), gstable_tag("top"))),
        (F(2), F(2)))
    with pytest.raises(IncompatibleQuadruples):
        qd.map_face(colored, q_x, {0})


def test_orbit_counts_polytopes():
    # simplex at eps = 0 in the family: 7 orbits; quadrilateral at 3/2: 9
    spec_args = ((1, 0), (0, 1), (-1, -1), (1, 2))
    G = GroupProduct((SL(6), TRIVIAL_FACTOR, TORUS_FACTOR, SL(2)))
    spec = cl.X1Spec(G, Root(0, 3), (Root(1, 0), Root(2, 0), Root(3, 1)), (0, 1, 2))
    X = cl.build_x1(spec)
    D = X.boundary_divisor(0) + X.boundary_divisor(3)
    system, v0 = dv.moment_polytopes(X, D)
    q0 = AdmissibleQuadruple(X.hs, system, v0)
    assert len(qd.orbit_poset(q0)) == 7
    shifted = InequalitySystem(system.A,
                               tuple(b + (F(3, 2) if t[1] == Root(0, 3) else 0)
                                     for b, t in zip(system.b, system.tags)),
                               system.tags)
    q32 = AdmissibleQuadruple(X.hs, shifted, tuple(
        v - F(3, 2) * w for v, w in zip(v0, X.G.fundamental_weight(Root(0, 3)))))
    assert len(qd.orbit_poset(q32)) == 9
    with pytest.raises(EmptyFace):
        qd.orbit_of_face(q0, {0, 1, 2, 3})


def test_orbit_poset_work_counts(monkeypatch):
    # deterministic work counts: orbit_poset reads the faces, their
    # dimensions and the basic points off one vertex table, not one more per
    # face, and agrees with orbit_of_face face by face
    from horokit import polyhedra as ph
    G = GroupProduct((SL(6), TRIVIAL_FACTOR, TORUS_FACTOR, SL(2)))
    X = cl.build_x1(cl.X1Spec(G, Root(0, 3), (Root(1, 0), Root(2, 0), Root(3, 1)),
                              (0, 1, 2)))
    q = AdmissibleQuadruple(X.hs, *dv.moment_polytopes(
        X, X.boundary_divisor(0) + X.boundary_divisor(3)))
    tables = []
    table = ph.vertex_table
    monkeypatch.setattr(ph, "vertex_table",
                        lambda *args: tables.append(1) or table(*args))
    poset = qd.orbit_poset(q)
    assert len(poset) == 7 and len(tables) == 1
    assert poset == [(f, qd.orbit_of_face(q, f.active_rows)) for f, _ in poset]


def test_round_trip_ample_pair_is_admissible():
    specs = []
    G = GroupProduct((SL(6), TRIVIAL_FACTOR, TORUS_FACTOR, SL(2)))
    specs.append(cl.X1Spec(G, Root(0, 3), (Root(1, 0), Root(2, 0), Root(3, 1)),
                           (0, 1, 2)))
    from horokit.rootdata import Spin
    G2 = GroupProduct((TRIVIAL_FACTOR, SL(2), Spin(7)))
    specs.append(cl.X2Spec(G2, (Root(0, 0), Root(1, 1), Root(2, 1), Root(2, 3)),
                           (0, 2)))
    for spec in specs:
        X = cl.build_x1(spec) if isinstance(spec, cl.X1Spec) else cl.build_x2(spec)
        D = X.boundary_divisor(0) + X.boundary_divisor(len(X.divisors) - 1)
        system, v0 = dv.moment_polytopes(X, D)
        ok, bad = qd.is_admissible(AdmissibleQuadruple(X.hs, system, v0))
        assert ok, bad
        # open orbit dimension equals dim G/P + n
        info = qd.orbit_of_face(AdmissibleQuadruple(X.hs, system, v0), set())
        assert info.dim == X.dim()


# is_admissible reads the interior clause off the table of Q~ plus its
# walls; the reference reads it off the margin table of the same system.

@st.composite
def _quadruple(draw):
    entry = st.integers(-2, 2)
    rows = draw(st.lists(st.tuples(entry, entry), max_size=4))
    box = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    if draw(st.booleans()):
        # an open box: one side left out
        del box[draw(st.integers(0, 3))]
    rows += box
    if draw(st.booleans()):
        # degenerate: most rows through one point
        p = draw(st.tuples(entry, entry))
        b = [r[0] * p[0] + r[1] * p[1] - draw(st.sampled_from((0, 0, 1, 2))) for r in rows]
    else:
        b = draw(st.lists(st.integers(-3, 2), min_size=len(rows), max_size=len(rows)))
    v0 = draw(st.lists(st.fractions(-2, 2, max_denominator=2), min_size=7, max_size=7))
    return InequalitySystem(tuple(rows), tuple(b)), tuple(v0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_quadruple())
def test_is_admissible_matches_margin_reference(case):
    system, v0 = case
    # the homogeneous data of the rank-two family one over SL6 x C* x SL2
    G = GroupProduct((SL(6), TRIVIAL_FACTOR, TORUS_FACTOR, SL(2)))
    hs = HomSpaceData(G, frozenset({Root(0, 3), Root(3, 1)}),
                      ((0, 0, 1, 0, 0, 1, 0), (0, 0, 2, 0, 0, 0, 1)))
    q = AdmissibleQuadruple(hs, system, v0)
    assert qd.is_admissible(q) == margin_is_admissible(q)
