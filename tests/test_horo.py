import random

import pytest
from fractions import Fraction as F
from itertools import combinations, product
from unittest import mock
from hypothesis import example, given, settings, strategies as st

from horokit import classify as cl, horo, lp, polyhedra
from horokit.errors import (NotAColor, NotComplete, NotLocallyFactorial,
                            UnboundedPolyhedron)
from horokit.horo import ColoredCone, ColoredFan, HomSpaceData
from horokit.linalg import primitive, rank
from horokit.polyhedra import InequalitySystem
from horokit.rootdata import (GroupFactor, GroupProduct, Root, SL,
                              TORUS_FACTOR, TRIVIAL_FACTOR)


def w3_spec():
    G = GroupProduct((SL(3), TRIVIAL_FACTOR, TORUS_FACTOR, TORUS_FACTOR))
    return cl.X1Spec(G, Root(0, 1), (Root(1, 0), Root(2, 0), Root(3, 0)), (0, 2, 3))


def case1_spec_nontrivial():
    G = GroupProduct((SL(6), TRIVIAL_FACTOR, TORUS_FACTOR, SL(2)))
    return cl.X1Spec(G, Root(0, 3), (Root(1, 0), Root(2, 0), Root(3, 1)), (0, 1, 2))


def test_sigma():
    X = cl.build_x1(case1_spec_nontrivial())
    hs = X.hs
    assert horo.sigma(hs, Root(0, 3)) == (1, 2)     # beta -> (a_1, a_2)
    assert horo.sigma(hs, Root(3, 1)) == (0, 1)     # alpha_2 -> e_2
    with pytest.raises(NotAColor):
        horo.sigma(hs, Root(0, 1))
    # rank-zero data: empty sigma vectors
    G = GroupProduct((SL(3),))
    hs0 = HomSpaceData(G, frozenset({Root(0, 1), Root(0, 2)}), ())
    assert horo.sigma(hs0, Root(0, 1)) == ()


def test_m_basis_weights_are_integers():
    # a non-integral weight was once kept, and sigma truncated its pairing:
    # on A1 x C* with M basis ((1/2, 0), (0, 1)), sigma(alpha_1) read (0, 0)
    G = GroupProduct((SL(2), TORUS_FACTOR))
    colors = frozenset({Root(0, 1)})
    for half in (F(1, 2), "1/2", 0.5):
        with pytest.raises(ValueError, match="is not an integer"):
            HomSpaceData(G, colors, ((half, 0), (0, 1)))
    hs = HomSpaceData(G, colors, ((F(2), 0), (0, F(1))))
    assert hs.M_basis == ((2, 0), (0, 1))
    assert all(type(v) is int for m in hs.M_basis for v in m)
    assert horo.sigma(hs, Root(0, 1)) == (2, 0)


def test_validate_fan():
    X = cl.build_x1(w3_spec())
    assert horo.validate_fan(X) == []
    # drop a face of a maximal cone
    cones = [c for c in X.fan.cones if c.generators != ((1, 0),)]
    bad = ColoredFan(tuple(cones))
    issues = horo.validate_fan(horo.HoroVariety(X.hs, bad))
    assert any("FaceClosureViolation" in s for s in issues)
    # a cone with a line
    hs = X.hs
    line = ColoredFan((ColoredCone((), frozenset()),
                       ColoredCone(((1, 0), (-1, 0)), frozenset()),
                       ColoredCone(((1, 0),), frozenset()),
                       ColoredCone(((-1, 0),), frozenset())))
    issues = horo.validate_fan(horo.HoroVariety(hs, line))
    assert any("LineViolation" in s for s in issues)


def test_is_complete():
    X = cl.build_x1(w3_spec())
    assert X.complete()
    zero_only = ColoredFan((ColoredCone((), frozenset()),))
    assert not horo.HoroVariety(X.hs, zero_only).complete()
    X2 = cl.build_x2(_case2_spec())
    assert X2.complete()
    # rank zero: the one-cone fan is complete
    G = GroupProduct((SL(3),))
    hs0 = HomSpaceData(G, frozenset({Root(0, 1), Root(0, 2)}), ())
    assert horo.HoroVariety(hs0, ColoredFan((ColoredCone((), frozenset()),))).complete()


def _case2_spec():
    from horokit.rootdata import Spin
    G = GroupProduct((TRIVIAL_FACTOR, SL(2), Spin(7)))
    return cl.X2Spec(G, (Root(0, 0), Root(1, 1), Root(2, 1), Root(2, 3)), (0, 2))


def test_is_locally_factorial():
    X = cl.build_x1(w3_spec())
    assert X.locally_factorial()
    hs = X.hs
    # index-two cone
    fan = ColoredFan((ColoredCone((), frozenset()),
                      ColoredCone(((1, 0),), frozenset()),
                      ColoredCone(((1, 2),), frozenset()),
                      ColoredCone(((1, 0), (1, 2)), frozenset())))
    assert not horo.HoroVariety(hs, fan).locally_factorial()
    # two colors on one generator: sigma is not injective into the basis
    G = GroupProduct((SL(3),))
    w1 = G.fundamental_weight(Root(0, 1))
    w2 = G.fundamental_weight(Root(0, 2))
    basis = (tuple(a + b for a, b in zip(w1, w2)),)  # pairs 1 with both coroots
    hs2 = HomSpaceData(G, frozenset({Root(0, 1), Root(0, 2)}), basis)
    assert horo.sigma(hs2, Root(0, 1)) == horo.sigma(hs2, Root(0, 2)) == (1,)
    fan2 = ColoredFan((ColoredCone((), frozenset()),
                       ColoredCone(((1,),), frozenset({Root(0, 1), Root(0, 2)}))))
    assert not horo.HoroVariety(hs2, fan2).locally_factorial()


def test_picard_rank():
    X = cl.build_x1(case1_spec_nontrivial())
    assert X.picard_rank() == 2  # (3 - 2) + 1
    # rank zero, two colors off the fan
    G = GroupProduct((SL(3),))
    hs0 = HomSpaceData(G, frozenset({Root(0, 1), Root(0, 2)}), ())
    fan0 = ColoredFan((ColoredCone((), frozenset()),))
    assert horo.HoroVariety(hs0, fan0).picard_rank() == 2
    # toric projective line
    GT = GroupProduct((TORUS_FACTOR,))
    hs1 = HomSpaceData(GT, frozenset(), ((F(1),),))
    p1 = ColoredFan((ColoredCone((), frozenset()),
                     ColoredCone(((1,),), frozenset()),
                     ColoredCone(((-1,),), frozenset())))
    assert horo.HoroVariety(hs1, p1).picard_rank() == 1
    with pytest.raises(NotComplete):
        horo.HoroVariety(hs1, ColoredFan((ColoredCone((), frozenset()),))).picard_rank()
    X = cl.build_x1(w3_spec())
    bad = ColoredFan((ColoredCone((), frozenset()),
                      ColoredCone(((1, 0),), frozenset()),
                      ColoredCone(((1, 2),), frozenset()),
                      ColoredCone(((1, 0), (1, 2)), frozenset())))
    with pytest.raises(NotLocallyFactorial):
        horo.HoroVariety(X.hs, bad).picard_rank()


def test_is_smooth_variety():
    # locally factorial toric data is smooth
    GT = GroupProduct((TORUS_FACTOR,))
    hs1 = HomSpaceData(GT, frozenset(), ((F(1),),))
    p1 = ColoredFan((ColoredCone((), frozenset()),
                     ColoredCone(((1,),), frozenset()),
                     ColoredCone(((-1,),), frozenset())))
    assert horo.HoroVariety(hs1, p1).smooth()
    assert cl.build_x1(w3_spec()).smooth()
    # a quadruple violating the block condition: lone root deep in a
    # non-A/C factor
    G = GroupProduct((GroupFactor("B", 4), TRIVIAL_FACTOR))
    spec = cl.X1Spec(G, Root(0, 1), (Root(1, 0), Root(0, 4)), (0, 1))
    X = cl.build_x1(spec)
    assert not X.smooth()


def test_colored_faces_revalidate():
    X = cl.build_x1(case1_spec_nontrivial())
    keys = {(rays, c.colors) for c, rays in zip(X.fan.cones, X.cone_rays())}
    for cone, rays in zip(X.fan.cones, X.cone_rays()):
        for face, face_rays in horo.cone_faces(cone.generators, rays):
            sub = [cone.generators[i] for i in face]
            assert face_rays == horo.extreme_rays(sub)
            cols = frozenset(a for a in cone.colors
                             if horo.cone_contains(sub, X.image(a)))
            assert (face_rays, cols) in keys


def test_picard_rank_basis_relabel_invariant():
    spec = case1_spec_nontrivial()
    X = cl.build_x1(spec)
    # swap the two M basis vectors and permute every fan vector to match
    hs2 = HomSpaceData(X.hs.G, X.hs.R, (X.hs.M_basis[1], X.hs.M_basis[0]))
    def flip(v):
        return (v[1], v[0])
    cones = tuple(ColoredCone(tuple(flip(g) for g in c.generators), c.colors)
                  for c in X.fan.cones)
    fan2 = ColoredFan(cones)
    X2 = horo.HoroVariety(hs2, fan2)
    assert X2.picard_rank() == X.picard_rank()
    assert X2.smooth() == X.smooth()


def test_case_detect_round_trip():
    spec = case1_spec_nontrivial()
    X = cl.build_x1(spec)
    shape = horo.case_detect(X)
    assert isinstance(shape, horo.Case1Shape)
    assert shape.a == (1, 2) and shape.beta == Root(0, 3)
    w3 = cl.build_x1(w3_spec())
    s3 = horo.case_detect(w3)
    assert isinstance(s3, horo.Case1Shape) and s3.a == (2, 3)
    spec2 = _case2_spec()
    X2 = cl.build_x2(spec2)
    s2 = horo.case_detect(X2)
    assert isinstance(s2, horo.Case2Shape)
    assert (s2.r, s2.s, s2.a) == (1, 1, (2,))
    # rank 0
    G = GroupProduct((SL(3),))
    hs0 = HomSpaceData(G, frozenset({Root(0, 1), Root(0, 2)}), ())
    fan0 = ColoredFan((ColoredCone((), frozenset()),))
    assert isinstance(horo.case_detect(horo.HoroVariety(hs0, fan0)), horo.Case0)


def test_validate_fan_reports_unknown_color():
    G = GroupProduct((SL(2), TORUS_FACTOR, TORUS_FACTOR))
    hs = HomSpaceData(G, frozenset(), ((0, 1, 0), (0, 0, 1)))
    fan = ColoredFan((ColoredCone(((1, 0),), frozenset({Root(0, 1)})),))
    issues = horo.validate_fan(horo.HoroVariety(hs, fan))
    assert any(s.startswith("UnknownColor: (0,a1)") for s in issues), issues


# extreme_rays, cone_contains and _relints_meet, on independent and on
# dependent generators, against their LP formulations.

def _lp_extreme_rays(generators):
    prims = []
    for g in generators:
        p = primitive(g)
        if any(p) and p not in prims:
            prims.append(p)
    return tuple(sorted(g for i, g in enumerate(prims)
                        if not lp.in_cone(prims[:i] + prims[i + 1:], g)))


def _lp_relints_meet(g1, g2):
    # some lambda, mu >= 1 with sum lambda_i g1_i = sum mu_j g2_j
    nvar = len(g1) + len(g2)
    a_eq = [[g[i] for g in g1] + [-h[i] for h in g2] for i in range(len(g1[0]))]
    a_ub = [[-1 if j == v else 0 for j in range(nvar)] for v in range(nvar)]
    res = lp.solve_lp([0] * nvar, a_ub=a_ub, b_ub=[-1] * nvar, a_eq=a_eq,
                      b_eq=[0] * len(a_eq), nonneg=True)
    return res.status == lp.OPTIMAL


def _vectors(n, min_size, max_size):
    vec = st.tuples(*[st.integers(-2, 2)] * n).filter(any)
    return st.lists(vec, min_size=min_size, max_size=max_size)


@st.composite
def _cone_pair(draw):
    n = draw(st.integers(1, 4))
    g1 = draw(_vectors(n, 1, n + 2))
    # often reuse or rescale generators of the first cone
    g2 = draw(_vectors(n, 0, n + 1)) + [
        tuple(draw(st.sampled_from((1, 2))) * x for x in g)
        for g in draw(st.lists(st.sampled_from(g1), max_size=n))]
    return g1, g2 or g1[:1], draw(_vectors(n, 1, 1))[0]


@settings(max_examples=300, deadline=None)
@given(_cone_pair())
def test_cone_fast_paths_match_lp(pair):
    g1, g2, v = pair
    for gens in (g1, g2):
        assert horo.extreme_rays(gens) == _lp_extreme_rays(gens)
        assert horo.cone_contains(gens, v) == lp.in_cone(gens, v)
        assert horo.cone_contains(gens, tuple(F(x, 3) for x in v)) == \
            lp.in_cone(gens, v)
    c1 = ColoredCone(g1, frozenset({"a"}))
    c2 = ColoredCone(g2, frozenset({"b"}))
    assert horo._relints_meet(c1, horo.extreme_rays(g1), c2, horo.extreme_rays(g2)) == \
        _lp_relints_meet(g1, g2)


# is_pointed, the faces of non-simplicial cones and the emptiness test of
# polyhedra against their LP formulations, on dependent, rescaled and zero
# generators and on rank-deficient systems.

def _lp_faces(gens):
    # sub is the generator set of a face iff some y has <g, y> = 0 on sub
    # and >= 1 off it
    k, n = len(gens), len(gens[0])
    faces = [frozenset(range(k))]
    for size in range(k):
        for sub in combinations(range(k), size):
            off = [gens[i] for i in range(k) if i not in sub]
            res = lp.solve_lp([0] * n, a_ub=[[-x for x in g] for g in off],
                              b_ub=[-1] * len(off), a_eq=[gens[i] for i in sub],
                              b_eq=[0] * size)
            if res.status == lp.OPTIMAL:
                faces.append(frozenset(sub))
    return sorted(faces, key=lambda f: (len(f), sorted(f)))


@st.composite
def _dependent_cone(draw):
    n = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(-2, 2)] * n)
    gens = draw(st.lists(vec, min_size=1, max_size=n + 2))
    for _ in range(draw(st.integers(0, 2))):
        g, h = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
        c = draw(st.sampled_from((0, 1, 2)))
        gens.append(tuple(2 * x + c * y for x, y in zip(g, h)))
    return gens


@st.composite
def _rank_deficient_system(draw):
    n = draw(st.integers(1, 3))
    rows = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), min_size=1, max_size=5))
    c = draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
    # one more column, a combination of the others (zero included)
    A = [row + (sum(x * y for x, y in zip(row, c)),) for row in rows]
    return A, draw(st.lists(st.integers(-3, 3), min_size=len(A), max_size=len(A)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_dependent_cone(), _rank_deficient_system())
def test_cone_kernels_and_emptiness_match_lp(gens, system):
    nonzero = [g for g in gens if any(g)]
    assert horo.is_pointed(gens) == \
        (not nonzero or lp.feasible(nonzero, [1] * len(nonzero)))
    rays = horo.extreme_rays(gens)
    if len(rays) != rank(gens):
        faces = horo.cone_faces(gens, rays)
        assert [f for f, _ in faces] == _lp_faces(gens)
        assert all(r == horo.extreme_rays([gens[i] for i in sorted(f)])
                   for f, r in faces)
    A, b = system
    feasible = lp.feasible(A, b)
    assert polyhedra.is_feasible(InequalitySystem(A, b)) == feasible
    try:
        assert polyhedra.vertices(InequalitySystem(A, b)) == [] and not feasible
    except UnboundedPolyhedron:
        assert feasible


# The wall certificate of validate_fan (`_overlap_free`) against the pairwise
# overlap test, on complete simplicial fans built by stellar subdivisions of
# the fan over the cross-polytope, and on broken variants of them.

def _one_color_hs(n):
    # the color (0,a1) of SL(2) has sigma = e_1
    G = GroupProduct((SL(2),) + (TORUS_FACTOR,) * (n - 1))
    basis = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return HomSpaceData(G, frozenset({Root(0, 1)}), basis)


def _faces(maximal):
    return sorted({frozenset(sub) for m in maximal for k in range(len(m) + 1)
                   for sub in combinations(m, k)}, key=lambda f: (len(f), sorted(f)))


def _cross_polytope(n):
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return [frozenset(tuple(s * x for x in e) for s, e in zip(signs, units))
            for signs in product((1, -1), repeat=n)]


@st.composite
def _subdivided_fan(draw):
    n = draw(st.integers(1, 3))
    maximal = _cross_polytope(n)
    for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
        sigma = draw(st.sampled_from(maximal))
        tau = draw(st.sets(st.sampled_from(sorted(sigma)), min_size=2))
        v = primitive(tuple(sum(x) for x in zip(*tau)))
        maximal = [m - {t} | {v} for m in maximal if tau <= m for t in tau] + \
            [m for m in maximal if not tau <= m]
    return n, maximal


BROKEN = ("none", "drop", "move", "duplicate", "no face", "non-simplicial")


# Rank four only as a pinned example: its fan has 81 cones, and one pairwise
# pass over them takes seconds.
@settings(max_examples=25, deadline=None, derandomize=True)
@given(_subdivided_fan(), st.sampled_from(BROKEN), st.booleans(),
       st.randoms(use_true_random=False))
@example((4, _cross_polytope(4)), "none", True, random.Random(0))
def test_wall_certificate_matches_pairwise(built, broken, colored, rnd):
    n, maximal = built
    hs = _one_color_hs(n)
    e1 = tuple(int(j == 0) for j in range(n))
    color = frozenset({Root(0, 1)})

    def cone(rays):
        return ColoredCone(tuple(sorted(rays)), color if colored and e1 in rays else frozenset())

    cones = [cone(f) for f in _faces(maximal)]
    pick = rnd.choice(sorted(maximal, key=sorted))
    if broken == "drop":
        cones.remove(cone(pick))
    elif broken == "move":
        # move one ray of `pick` to the other side of the opposite wall
        r = rnd.choice(sorted(pick))
        moved = primitive(tuple(sum(x) - 2 * y for x, y in zip(zip(*pick), r)))
        cones = [cone({moved if g == r else g for g in c.generators}) for c in cones]
    elif broken == "duplicate":
        c = rnd.choice(cones)
        cones.append(ColoredCone(c.generators, color - c.colors))
    elif broken == "no face":
        cones.append(cone({primitive(tuple(sum(x) for x in zip(*pick)))}))
    elif broken == "non-simplicial":
        other = next(m for m in maximal if len(m & pick) == n - 1)
        cones = [c for c in cones if set(c.generators) not in (pick, other)]
        cones.append(cone(pick | other))
    X = horo.HoroVariety(hs, ColoredFan(tuple(cones)))

    # record the pairwise pass if validate_fan falls back to it, so that
    # pass runs once per example
    fallback = []
    pairwise = horo._pairwise_overlaps
    with mock.patch.object(horo, "_pairwise_overlaps",
                           lambda Y: fallback.append(pairwise(Y)) or fallback[-1]):
        issues = horo.validate_fan(X)
    certified = not fallback
    pairs = pairwise(X) if certified else fallback[0]
    assert issues == [s for s in issues if not s.startswith("OverlapViolation")] + pairs
    assert not (certified and pairs)
    if broken == "none":
        assert certified and issues == [] and X.complete()
    if broken in ("drop", "duplicate", "no face", "non-simplicial"):
        assert not certified


def _cycle_fan(rays):
    cones = [ColoredCone(())] + [ColoredCone((r,)) for r in rays] + \
        [ColoredCone((rays[k - 1], rays[k])) for k in range(len(rays))]
    return cones, [horo.extreme_rays(c.generators) for c in cones]


def test_wall_certificate_needs_sides_and_degree_one():
    hs = _one_color_hs(2)
    # five rays winding twice around the origin: every wall lies in two
    # cones on opposite sides, yet each point is covered twice
    twice, twice_rays = _cycle_fan([(1, 0), (-4, 3), (1, -3), (1, 3), (-4, -3)])
    assert horo._closed(horo._walls(2, twice_rays))
    # a cycle folded back at (-1, 0) and (-1, 2): those walls lie in two
    # cones on one side, the angles between them are covered three times,
    # and the point inside the first cone, (2, -1), once
    folded, folded_rays = _cycle_fan([(1, 0), (0, 1), (-1, 0), (-1, 2), (-3, -1),
                                      (0, -1)])
    assert all(len(v) == 2 for v in horo._walls(2, folded_rays).values())
    for cones, cone_rays in ((twice, twice_rays), (folded, folded_rays)):
        X = horo.HoroVariety(hs, ColoredFan(tuple(cones)))
        assert X.cone_rays() == tuple(cone_rays)
        assert not horo._overlap_free(X)
        issues = horo.validate_fan(X)
        assert issues == horo._pairwise_overlaps(X) and issues
