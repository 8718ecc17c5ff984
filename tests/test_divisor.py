import pytest
from fractions import Fraction as F
from hypothesis import example, given, settings, strategies as st

from horokit import classify as cl, divisor as dv, polyhedra as ph
from horokit.errors import NotCartier, NotComplete, NotQCartier
from horokit.horo import (ColoredCone, ColoredFan, HomSpaceData, HoroVariety,
                          cone_contains)
from horokit.linalg import dot, primitive, rank, solve
from horokit.rootdata import (GroupProduct, Root, SL, Spin, TORUS_FACTOR,
                              TRIVIAL_FACTOR)
from test_horo import _faces, _subdivided_fan


def case1_X(a=(0, 1, 2), nontrivial_last=True):
    if nontrivial_last:
        G = GroupProduct((SL(6), TRIVIAL_FACTOR, TORUS_FACTOR, SL(2)))
        alphas = (Root(1, 0), Root(2, 0), Root(3, 1))
    else:
        G = GroupProduct((SL(6), TRIVIAL_FACTOR, TORUS_FACTOR, TORUS_FACTOR))
        alphas = (Root(1, 0), Root(2, 0), Root(3, 0))
    spec = cl.X1Spec(G, Root(0, 3), alphas, a)
    return spec, cl.build_x1(spec)


def case2_X():
    G = GroupProduct((TRIVIAL_FACTOR, SL(2), Spin(7)))
    spec = cl.X2Spec(G, (Root(0, 0), Root(1, 1), Root(2, 1), Root(2, 3)), (0, 2))
    return spec, cl.build_x2(spec)


def test_pl_function_pieces():
    spec, X = case1_X()
    n = 2
    D0 = X.boundary_divisor(0)
    h = dv.pl_function(X, D0)
    # zero on the positive orthant cone, -e_i on the cones missing e_i
    pos = tuple(sorted([(1, 0), (0, 1)]))
    assert h.pieces[pos] == (F(0), F(0))
    missing1 = tuple(sorted([(-1, -1), (0, 1)]))
    assert h.pieces[missing1] == (F(-1), F(0))
    Dn1 = X.boundary_divisor(3)
    h2 = dv.pl_function(X, Dn1)
    assert all(form == (F(0), F(0)) for form in h2.pieces.values())
    assert h.cartier and h2.cartier
    # additivity of the pieces
    h3 = dv.pl_function(X, D0 + Dn1)
    for rays, form in h3.pieces.items():
        assert form == tuple(x + y for x, y in zip(h.pieces[rays], h2.pieces[rays]))


def test_pl_function_inconsistent():
    # non-simplicial cone over a square with incompatible edge values
    GT = GroupProduct((TORUS_FACTOR, TORUS_FACTOR, TORUS_FACTOR))
    hs = HomSpaceData(GT, frozenset(), ((F(1), 0, 0), (0, F(1), 0), (0, 0, F(1))))
    rays = ((1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1))
    cones = [ColoredCone((), frozenset())]
    cones += [ColoredCone((r,), frozenset()) for r in rays]
    cones += [ColoredCone(p, frozenset()) for p in
              (((1, 0, 0), (0, 1, 0)), ((1, 0, 0), (1, 0, 1)),
               ((0, 1, 0), (0, 1, 1)), ((1, 0, 1), (0, 1, 1)))]
    cones.append(ColoredCone(rays, frozenset()))
    X = HoroVariety(hs, ColoredFan(tuple(cones)))
    D = dv.BStableDivisor({(1, 0, 0): 1, (0, 1, 0): 0, (1, 0, 1): 0, (0, 1, 1): 0}, {})
    with pytest.raises(NotQCartier):
        dv.pl_function(X, D)


def test_ample_status():
    spec, X = case1_X()
    D0, Dn1 = X.boundary_divisor(0), X.boundary_divisor(3)
    assert dv.ample_status(X, D0) == dv.GG_NOT_AMPLE
    assert dv.ample_status(X, Dn1) == dv.GG_NOT_AMPLE
    assert dv.ample_status(X, D0 + Dn1) == dv.AMPLE
    assert dv.ample_status(X, -1 * D0) == dv.NEITHER


def test_moment_polytopes():
    spec, X = case1_X()
    D = X.boundary_divisor(0) + X.boundary_divisor(3)
    system, v0 = dv.moment_polytopes(X, D)
    assert ph.vertices(system) == [(F(0), F(0)), (F(0), F(1)), (F(1), F(0))]
    # v0 = w_beta here (alpha_0 is a trivial root of the point factor)
    assert v0 == X.G.fundamental_weight(Root(0, 3))
    spec2, X2 = case2_X()
    D2 = X2.boundary_divisor(0) + X2.boundary_divisor(3)
    system2, v02 = dv.moment_polytopes(X2, D2)
    # vertices 0, u_i, v_j, u_i + (a_i + 1) v_j
    vs = set(ph.vertices(system2))
    assert vs == {(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(3))}
    # rank zero: the polytope is the origin
    G = GroupProduct((SL(3),))
    hs0 = HomSpaceData(G, frozenset({Root(0, 1), Root(0, 2)}), ())
    X0 = HoroVariety(hs0, ColoredFan((ColoredCone((), frozenset()),)))
    D0 = dv.BStableDivisor({}, {Root(0, 1): 1, Root(0, 2): 2})
    s0, v00 = dv.moment_polytopes(X0, D0)
    assert ph.lattice_points(s0) == [()]
    assert v00 == (F(1), F(2))


def test_section_weights_rank_one_segment():
    # X(P) = Z w1 + Z w2, M = Z w2, segment from 2w1+2w2 to 2w1+4w2
    G = GroupProduct((SL(3),))
    w2 = G.fundamental_weight(Root(0, 2))
    hs = HomSpaceData(G, frozenset({Root(0, 1), Root(0, 2)}), (w2,))
    fan = ColoredFan((ColoredCone((), frozenset()),
                      ColoredCone(((1,),), frozenset()),
                      ColoredCone(((-1,),), frozenset())))
    X = HoroVariety(hs, fan)
    D = dv.BStableDivisor({(1,): 0, (-1,): 2}, {Root(0, 1): 2, Root(0, 2): 2})
    weights = dv.section_weights(X, D)
    assert weights == [(F(2), F(2)), (F(2), F(3)), (F(2), F(4))]
    # zero divisor: single zero weight
    assert dv.section_weights(X, dv.BStableDivisor({}, {})) == [(F(0), F(0))]
    with pytest.raises(NotCartier):
        dv.section_weights(X, dv.BStableDivisor({(1,): F(1, 2)}, {}))


def test_section_weights_case1():
    spec, X = case1_X()
    D = X.boundary_divisor(0) + X.boundary_divisor(3)
    weights = set(dv.section_weights(X, D))
    G = X.G
    expected = set()
    wb = G.fundamental_weight(Root(0, 3))
    for i, (alpha, ai) in enumerate(zip(spec.alphas, spec.a)):
        wa = G.fundamental_weight(alpha)
        w0 = G.fundamental_weight(spec.alphas[0])
        expected.add(tuple(x - y + z * (1 + ai)
                           for x, y, z in zip(wa, w0, wb)))
    assert weights == expected


def test_ehrhart_growth_small():
    spec, X = case1_X()
    D = X.boundary_divisor(0) + X.boundary_divisor(3)
    counts = []
    for k in (1, 2, 3):
        system, _ = dv.moment_polytopes(X, k * D)
        # independent lattice count: scan an explicit box
        pts = 0
        for x1 in range(0, 3 * k + 1):
            for x2 in range(0, 3 * k + 1):
                if all(sum(r[j] * v for j, v in enumerate((x1, x2))) >= b
                       for r, b in zip(system.A, system.b)):
                    pts += 1
        assert len(dv.section_weights(X, k * D)) == pts
        counts.append(pts)
    assert counts[0] < counts[1] < counts[2]


def test_anticanonical_and_fano():
    spec, X = case1_X()
    K = dv.anticanonical(X)
    assert all(v == 1 for v in K.gstable.values())
    assert all(v >= 2 for v in K.colors.values())
    # toric bundle fixture: b_beta = 3 fails 3 > 0*b1 + 2 + 3
    G = GroupProduct((SL(3), TRIVIAL_FACTOR, TORUS_FACTOR, TORUS_FACTOR))
    w3 = cl.X1Spec(G, Root(0, 1), (Root(1, 0), Root(2, 0), Root(3, 0)), (0, 2, 3))
    X3 = cl.build_x1(w3)
    K3 = dv.anticanonical(X3)
    assert K3.colors[Root(0, 1)] == 3
    assert not dv.is_fano(X3)
    bsum = sum(K3.gstable.values()) + 0  # b_i = 1 on the three G-stable edges
    assert K3.colors[Root(0, 1)] <= 0 * 1 + 2 * 1 + 3 * 1
    # a Fano example: trivial bundle data a = (0, 0)
    G = GroupProduct((SL(3), TRIVIAL_FACTOR, TORUS_FACTOR))
    f = cl.X1Spec(G, Root(0, 1), (Root(1, 0), Root(2, 0)), (0, 0))
    assert dv.is_fano(cl.build_x1(f))
    # product-like rank-two toric data: coefficients all one
    GT = GroupProduct((TORUS_FACTOR, TORUS_FACTOR))
    hs = HomSpaceData(GT, frozenset(), ((F(1), F(0)), (F(0), F(1))))
    cones = [ColoredCone((), frozenset())]
    rays = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    cones += [ColoredCone((r,), frozenset()) for r in rays]
    for rx in ((1, 0), (-1, 0)):
        for ry in ((0, 1), (0, -1)):
            cones.append(ColoredCone((rx, ry), frozenset()))
    Xt = HoroVariety(hs, ColoredFan(tuple(cones)))
    Kt = dv.anticanonical(Xt)
    assert set(Kt.gstable.values()) == {F(1)} and not Kt.colors


def test_fano_criterion_closed_form():
    # Fano iff b_beta > sum a_i b_i, cross-checked against the ample test
    for a in ((0, 0), (0, 1), (0, 2), (0, 3)):
        G = GroupProduct((SL(3), TRIVIAL_FACTOR, TORUS_FACTOR))
        spec = cl.X1Spec(G, Root(0, 1), (Root(1, 0), Root(2, 0)), a)
        X = cl.build_x1(spec)
        K = dv.anticanonical(X)
        b_beta = K.colors[Root(0, 1)]
        bs = {**{("x", k): v for k, v in K.gstable.items()},
              **{("c", k): v for k, v in K.colors.items()}}
        rhs = sum(spec.a[i] * bs[X.divisors[i]] for i in range(1, spec.n + 1))
        assert dv.is_fano(X) == (b_beta > rhs)


def test_verify_nef_generators():
    spec, X = case1_X()
    D0, Dn1 = X.boundary_divisor(0), X.boundary_divisor(3)
    assert dv.verify_nef_generators(X, D0, Dn1)
    assert not dv.verify_nef_generators(X, D0, D0)
    assert not dv.verify_nef_generators(X, D0 + Dn1, Dn1)
    spec2, X2 = case2_X()
    assert dv.verify_nef_generators(X2, X2.boundary_divisor(0), X2.boundary_divisor(3))


def test_linear_equivalence_normal_form():
    spec, X = case1_X()
    # h of the zero divisor is identically zero
    h = dv.pl_function(X, dv.BStableDivisor({}, {}))
    assert all(all(v == 0 for v in f) for f in h.pieces.values())
    # div(chi) has globally linear support function: class-Cartier agrees
    D0, Dn1 = X.boundary_divisor(0), X.boundary_divisor(3)
    assert dv.class_cartier(X, D0 + Dn1)
    assert not dv.class_cartier(X, F(1, 2) * (D0 + Dn1))


# ---------------------------------------------------------------------------
# A reference for the divisor layer: a Fraction solve per maximal cone over
# the support points that cone_contains finds in it, and convexity checked
# piece by piece against every ray, with the color images off the fan
# located by search.


def _reference_pl(X, D):
    support = [(d, X.row_vector(d)) for d in
               [("x", r) for r in X.gstable_rays] +
               [("c", a) for a in sorted(X.colors_used())]]
    pieces, ray_values = {}, {}
    for rays in X.cone_rays():
        if len(rays) < X.rank or rays in pieces:
            continue
        inside = [(d, p) for d, p in support if cone_contains(rays, p)]
        if rank([p for _, p in inside]) != X.rank:
            raise NotQCartier("maximal cone with underdetermined support "
                              "(unexpected for complete fans)")
        sol = solve([p for _, p in inside], [D.coeff(d) for d, _ in inside])
        if sol is None:
            raise NotQCartier(f"no linear form matches the coefficients on {rays}")
        pieces[rays] = tuple(sol)
        for r in rays:
            ray_values[r] = dot(sol, r)
    if not pieces:
        if X.rank:
            raise NotQCartier("fan has no full-dimensional cone")
        pieces[()] = ()
    cartier = D.is_integral() and all(v.denominator == 1
                                      for form in pieces.values() for v in form)
    return pieces, ray_values, cartier


def _reference_value(pieces, x):
    return next(dot(form, x) for rays, form in pieces.items() if cone_contains(rays, x))


def _reference_ample(X, D):
    pieces, ray_values, _ = _reference_pl(X, D)
    convex = strict = True
    for crays, form in pieces.items():
        for r, h in ray_values.items():
            convex &= dot(form, r) <= h
            strict &= r in crays or dot(form, r) < h
    for a in sorted(X.hs.R - X.colors_used()):
        hv, ca = _reference_value(pieces, X.image(a)), D.coeff(("c", a))
        convex &= hv <= ca
        strict &= hv < ca
    return dv.NEITHER if not convex else dv.AMPLE if strict else dv.GG_NOT_AMPLE


def _reference_class_cartier(X, D):
    try:
        pieces = list(_reference_pl(X, D)[0].values())
    except NotQCartier:
        return False
    base = pieces[0]
    return all((u - v).denominator == 1 for form in pieces for u, v in zip(form, base)) \
        and all((D.coeff(("c", a)) - dot(base, X.image(a))).denominator == 1
                for a in X.hs.R - X.colors_used())


def _outcome(f, *args):
    try:
        return f(*args)
    except NotQCartier as exc:
        return ("NotQCartier", str(exc))


def _color_hs(v):
    # one color, of the SL(2) factor, with image v in N (v[0] != 0): the M
    # basis rows pair with its coroot through their first coordinate
    n = len(v)
    G = GroupProduct((SL(2),) + (TORUS_FACTOR,) * (n - 1))
    basis = tuple((v[j],) + tuple(int(j == k) for k in range(1, n)) for j in range(n))
    return HomSpaceData(G, frozenset({Root(0, 1)}), basis)


def _variety(maximal, v, colored):
    """The fan of the maximal cones with their faces; the color of
    `_color_hs(v)` lies on the cones that contain v when colored."""
    color = Root(0, 1)
    return HoroVariety(_color_hs(v), ColoredFan(tuple(
        ColoredCone(tuple(sorted(f)), frozenset({color}) if colored and
                    cone_contains(sorted(f), v) else frozenset())
        for f in _faces(maximal))))


@st.composite
def _divisor_case(draw):
    """A stellar-subdivision fan, maybe sheared and stretched, a color whose
    image is a ray, a point inside a cone or a random vector, in the fan or
    off it, and a divisor: random rational coefficients, all ones, a linear
    function, or random except that a color in the fan agrees with the rays
    (Q-Cartier)."""
    n, maximal = draw(_subdivided_fan())
    # shear and stretch by x -> (x_0 + x_last, ..., k x_last), so that cones
    # need not be unimodular
    k = draw(st.sampled_from((1, 2, 3))) if n > 1 else 1
    if k > 1:
        maximal = [frozenset(primitive((r[0] + r[-1],) + r[1:-1] + (k * r[-1],))
                             for r in m) for m in maximal]
    e1 = (1,) + (0,) * (n - 1)
    kind = draw(st.sampled_from(("ray", "sum", "random")))
    if kind == "ray" or n == 1:
        v = e1
    elif kind == "sum":
        v = tuple(sum(x) for x in zip(*sorted(draw(st.sampled_from(maximal)))[:2]))
        v = v if v[0] else tuple(x + y for x, y in zip(v, e1))
    else:
        v = (draw(st.integers(1, 2)),) + tuple(draw(st.integers(-2, 2)) for _ in range(n - 1))
    X = _variety(maximal, v, draw(st.booleans()))
    color = Root(0, 1)
    coeff = st.fractions(-3, 3, max_denominator=4)
    mode = draw(st.sampled_from(("random", "ones", "linear", "agree")))
    if mode == "linear":
        m = [draw(coeff) for _ in range(n)]
        g = {r: dot(m, r) for r in X.gstable_rays}
        c = dot(m, X.image(color)) + draw(st.sampled_from((0, 0, F(1, 2), -1)))
    else:
        g = {r: F(1) if mode == "ones" else draw(coeff) for r in X.gstable_rays}
        c = draw(coeff)
    D = dv.BStableDivisor(g, {color: c})
    if mode == "agree" and X.colors_used():
        # the value at v of the PL function the G-stable rays pin down
        rays = next(r for r in X.cone_rays() if len(r) == n and cone_contains(r, v))
        vals = [g.get(r) for r in rays]
        if None not in vals:
            D = dv.BStableDivisor(g, {color: dot(solve(rays, vals), v)})
    return X, D


# Pinned: a color off the fan inside a cone of determinant 2, with a
# coefficient 1/2 above the linear h = 0; its class is not Cartier.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(_divisor_case())
@example((_variety([frozenset(m) for m in (((1, 0), (1, 2)), ((1, 2), (-1, 0)),
                                           ((-1, 0), (-1, -2)), ((-1, -2), (1, 0)))],
                   (1, 1), False),
          dv.BStableDivisor({}, {Root(0, 1): F(1, 2)})))
def test_divisor_layer_matches_reference(case):
    X, D = case
    h = _outcome(dv.pl_function, X, D)
    want = _outcome(_reference_pl, X, D)
    if isinstance(want, tuple) and want[0] == "NotQCartier":
        assert h == want
        assert _outcome(dv.ample_status, X, D) == want
    else:
        assert (h.pieces, h.ray_values, h.cartier) == want
        assert dv.ample_status(X, D) == _reference_ample(X, D)
    assert dv.class_cartier(X, D) == _reference_class_cartier(X, D)


def test_divisor_layer_needs_a_complete_fan():
    # a fan with a maximal cone dropped keeps its PL functions, and the
    # wall test refuses it instead of answering on part of N
    n, maximal = 2, [frozenset({(1, 0), (0, 1)}), frozenset({(0, 1), (-1, 0)}),
                     frozenset({(-1, 0), (0, -1)})]
    X = HoroVariety(_color_hs((1, 0)), ColoredFan(tuple(
        ColoredCone(tuple(sorted(f))) for f in _faces(maximal))))
    D = dv.BStableDivisor({(0, 1): 1, (-1, 0): F(1, 2), (0, -1): 2}, {Root(0, 1): 1})
    h = dv.pl_function(X, D)
    assert (h.pieces, h.ray_values, h.cartier) == _reference_pl(X, D)
    with pytest.raises(NotComplete):
        dv.ample_status(X, D)
    with pytest.raises(NotComplete):
        dv.class_cartier(X, D)
